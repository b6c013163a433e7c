"""Job spec validation and its CLI-argv parity contract."""

import argparse
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import FARM_COMMANDS, _build_parser
from repro.farm.executor import BACKENDS
from repro.patterns.march import available_march_tests
from repro.service.spec import JOB_COMMANDS, JobSpec, SpecError

#: The CLI parser exactly as the job subprocess builds it.
CLI = _build_parser()


def _option(command, name):
    """The CLI subcommand's argparse action behind a job parameter."""
    commands = next(
        action for action in CLI._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return next(
        action for action in commands.choices[command]._actions
        if action.dest == name
    )


def _declared_values(action):
    """Values of the kind and choices the CLI declares for an option.

    Floats stay non-negative: ``str()`` of a negative float can read as
    an option to argparse (``-1e-05``), which the CLI and the spec both
    refuse (see ``test_accepts_exactly_what_the_cli_parser_accepts``).
    """
    if action.choices:
        return st.sampled_from(list(action.choices))
    return {
        bool: st.booleans(),
        int: st.integers(),
        float: st.floats(min_value=0.0, allow_infinity=False),
    }[type(action.default)]


@st.composite
def _declared_payloads(draw):
    command = draw(st.sampled_from(sorted(JOB_COMMANDS)))
    params = {
        name: draw(_declared_values(_option(command, name)))
        for name in JOB_COMMANDS[command]
        if draw(st.booleans())
    }
    payload = {"command": command, "params": params,
               "seed": draw(st.integers())}
    if command in FARM_COMMANDS:
        workers = draw(st.none() | st.integers(min_value=1, max_value=64))
        backend = draw(st.none() | st.sampled_from(BACKENDS))
        if workers is not None:
            payload["workers"] = workers
        if backend is not None:
            payload["backend"] = backend
    return payload


def _cli_accepts(argv):
    """Whether the job's CLI would get past argument parsing."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            CLI.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


class TestValidation:
    def test_round_trip(self):
        spec = JobSpec.from_payload(
            {"command": "lot", "params": {"dies": 3, "tests": 4}, "seed": 7,
             "workers": 2}
        )
        assert spec.command == "lot"
        assert spec.params == {"dies": 3, "tests": 4}
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_defaults(self):
        spec = JobSpec.from_payload({"command": "hunt"})
        assert spec.seed == 0
        assert spec.workers is None
        assert spec.params == {}

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "JSON object"),
            ({"command": "rm -rf"}, "unknown command"),
            ({"command": "lot", "params": {"evil": 1}}, "unknown parameter"),
            ({"command": "lot", "params": {"dies": "3"}}, "must be of type"),
            ({"command": "lot", "params": "dies=3"}, "params must be"),
            ({"command": "lot", "seed": "0"}, "seed must be"),
            ({"command": "lot", "workers": 0}, "workers must be"),
            ({"command": "lot", "extra": 1}, "unknown spec field"),
            # workers on a non-farm command is a spec error, like the
            # CLI's own "--workers is ignored" note but strict
            ({"command": "march", "workers": 2}, "does not honour workers"),
            ({"command": "hunt", "backend": "serial"},
             "does not honour a backend"),
            # values the CLI subcommand's own parser refuses
            ({"command": "screen", "params": {"engine": "batched"}},
             "unknown parameter 'engine'"),
            ({"command": "march", "params": {"background": "stripes"}},
             "invalid choice"),
            ({"command": "lot", "backend": "bogus"}, "invalid choice"),
            ({"command": "lot", "backend": 5}, "invalid choice"),
        ],
    )
    def test_rejections(self, payload, match):
        with pytest.raises(SpecError, match=match):
            JobSpec.from_payload(payload)

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="must be of type"):
            JobSpec.from_payload({"command": "lot", "params": {"dies": True}})

    def test_float_accepts_int(self):
        spec = JobSpec.from_payload(
            {"command": "screen", "params": {"step": 1}}
        )
        assert spec.params["step"] == 1.0

    def test_bad_choice_is_rejected_with_the_choices(self):
        with pytest.raises(SpecError, match="invalid choice") as err:
            JobSpec.from_payload(
                {"command": "march", "params": {"algorithm": "nope"}}
            )
        for name in available_march_tests():
            assert repr(name) in str(err.value)

    @settings(max_examples=200, deadline=None)
    @given(payload=_declared_payloads())
    def test_cli_parser_accepts_every_spec(self, payload):
        # Every command, with params drawn from the kinds and choices
        # the CLI subcommand declares: the spec is accepted, and its argv
        # parses back to exactly the submitted values.
        spec = JobSpec.from_payload(payload)
        args = CLI.parse_args(spec.cli_argv(Path("job")))
        assert args.command == payload["command"]
        assert args.seed == payload["seed"]
        assert args.workers == payload.get("workers")
        assert args.backend == payload.get("backend")
        for name, value in payload["params"].items():
            assert getattr(args, name) == value

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_what_the_cli_parser_accepts(self, data):
        command = data.draw(
            st.sampled_from([c for c in sorted(JOB_COMMANDS)
                             if JOB_COMMANDS[c]])
        )
        name = data.draw(st.sampled_from(JOB_COMMANDS[command]))
        value = data.draw({
            str: st.text(),
            bool: st.booleans(),
            int: st.integers(),
            float: st.floats(),
        }[type(_option(command, name).default)])
        spec = JobSpec(command=command, params={name: value})
        try:
            JobSpec.from_payload(spec.to_payload())
        except SpecError:
            accepted = False
        else:
            accepted = True
        assert accepted == _cli_accepts(spec.cli_argv(Path("job")))


class TestArgv:
    def test_lot_argv(self, tmp_path):
        spec = JobSpec(command="lot", params={"dies": 3, "tests": 4}, seed=7)
        argv = spec.cli_argv(tmp_path)
        assert argv == [
            "--seed", "7",
            "--trace", str(tmp_path / "trace.jsonl"),
            "lot", "--dies", "3", "--tests", "4",
            "--database", str(tmp_path / "wcdb.json"),
        ]
        assert spec.wcdb_path(tmp_path) == tmp_path / "wcdb.json"
        assert spec.exports_wcdb()

    def test_workers_and_underscore_params(self, tmp_path):
        spec = JobSpec(
            command="campaign", params={"random_tests": 60}, workers=2
        )
        argv = spec.cli_argv(tmp_path)
        assert "--workers" in argv and "2" in argv
        assert "--random-tests" in argv
        # campaign exports into its --out directory
        assert spec.wcdb_path(tmp_path) == (
            tmp_path / "campaign" / "worst_case_db.json"
        )

    def test_bool_param_is_a_bare_flag(self, tmp_path):
        spec = JobSpec(command="table1", params={"fast": True})
        argv = spec.cli_argv(tmp_path)
        assert "--fast" in argv
        off = JobSpec(command="table1", params={"fast": False})
        assert "--fast" not in off.cli_argv(tmp_path)

    def test_non_exporting_command_has_no_wcdb(self, tmp_path):
        spec = JobSpec(command="random", params={"tests": 10})
        assert spec.wcdb_path(tmp_path) is None
        assert not spec.exports_wcdb()

    def test_full_argv_targets_this_interpreter(self, tmp_path):
        import sys

        argv = JobSpec(command="hunt").full_argv(tmp_path)
        assert argv[0] == sys.executable
        assert argv[1:3] == ["-m", "repro.cli"]

    def test_nothing_client_supplied_becomes_a_flag(self, tmp_path):
        # Values are always argv *operands*; a hostile string value can
        # never be spliced in as a flag of its own.
        spec = JobSpec(command="march", params={"algorithm": "--evil"})
        argv = spec.cli_argv(Path(tmp_path))
        assert argv[argv.index("--algorithm") + 1] == "--evil"
        # ... and the CLI parser refuses it, so the service does too.
        with pytest.raises(SpecError, match="--algorithm"):
            JobSpec.from_payload(spec.to_payload())
