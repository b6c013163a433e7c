"""Campaign job specs: what a service client is allowed to submit.

A job spec names one of the CLI's campaign commands plus a whitelisted
parameter set; the service turns it into the *exact* argv the direct
CLI would run.  That equivalence is the service's parity contract: a
campaign submitted over HTTP produces the same measurements — and the
same worst-case database bytes — as the same command typed at a shell,
because it *is* the same command (run in a worker subprocess with a
per-job telemetry trace).

The whitelist is the security boundary: only known commands, only known
parameters, only scalar values.  Nothing a client sends is ever
interpreted as a flag name or shell text.  Everything else about a
parameter — its type, its choices, its number syntax — is declared once,
by the CLI subcommand: a spec is accepted only if the CLI's own parser
accepts the argv it becomes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cli import FARM_COMMANDS, _build_parser
from repro.core.campaign import DATABASE_FILENAME

#: The campaign commands a client may submit, and per command the names
#: of the options it may set (parameter ``random_tests`` becomes
#: ``--random-tests``).  Path flags and telemetry flags never appear.
JOB_COMMANDS: Dict[str, Tuple[str, ...]] = {
    "march": ("algorithm", "background"),
    "random": ("tests",),
    "table1": ("random_tests", "fast"),
    "hunt": (),
    "shmoo": ("tests",),
    "screen": ("tests", "step"),
    "sweep": (),
    "lot": ("dies", "tests"),
    "wafer": ("grid", "tests"),
    "campaign": ("random_tests",),
}

#: Commands that can export a worst-case database, and the flag that
#: points the export into the job directory.
_WCDB_EXPORTS: Dict[str, str] = {
    "hunt": "--database",       # flag takes the file path itself
    "lot": "--database",
    "campaign": "--out",        # directory export
}


class SpecError(ValueError):
    """A submitted spec failed validation (HTTP 400 territory)."""


class _SpecParser(argparse.ArgumentParser):
    """Reports a bad argv as a :class:`SpecError` instead of exiting."""

    def error(self, message: str):
        raise SpecError(message)


@functools.lru_cache(maxsize=None)
def _cli_parser() -> argparse.ArgumentParser:
    return _build_parser(parser_class=_SpecParser)


@functools.lru_cache(maxsize=None)
def _param_kinds(command: str) -> Dict[str, type]:
    """Each allowed parameter's kind: the type of its CLI default."""
    defaults = vars(_cli_parser().parse_args([command]))
    return {name: type(defaults[name]) for name in JOB_COMMANDS[command]}


def param_from_text(command: str, name: str, text: str) -> object:
    """A ``-p NAME=TEXT`` value converted by the parameter's kind.

    Text that does not convert, and a name the command does not allow,
    come back unchanged, for :meth:`JobSpec.from_payload` to reject with
    the same message the server would send.
    """
    kind = _param_kinds(command).get(name, str)
    if kind is bool:
        return text.lower() in ("1", "true", "yes")
    try:
        return kind(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class JobSpec:
    """A validated campaign submission."""

    command: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    workers: Optional[int] = None
    backend: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Validate a client JSON payload into a spec.

        Raises
        ------
        SpecError
            Unknown command, unknown or mistyped parameter, a value the
            CLI subcommand rejects, or a malformed payload — with a
            message fit for an HTTP 400.
        """
        if not isinstance(payload, dict):
            raise SpecError("spec must be a JSON object")
        unknown_keys = set(payload) - {
            "command", "params", "seed", "workers", "backend"
        }
        if unknown_keys:
            raise SpecError(f"unknown spec field(s): {sorted(unknown_keys)}")
        command = payload.get("command")
        if command not in JOB_COMMANDS:
            raise SpecError(
                f"unknown command {command!r}; submittable commands: "
                f"{', '.join(sorted(JOB_COMMANDS))}"
            )
        allowed = _param_kinds(command)
        raw_params = payload.get("params") or {}
        if not isinstance(raw_params, dict):
            raise SpecError("params must be a JSON object")
        params: Dict[str, object] = {}
        for name, value in raw_params.items():
            if name not in allowed:
                raise SpecError(
                    f"unknown parameter {name!r} for {command!r}; allowed: "
                    f"{', '.join(sorted(allowed)) or '(none)'}"
                )
            params[name] = _coerce(name, value, allowed[name])
        seed = payload.get("seed", 0)
        if type(seed) is not int:  # a bool is not an int
            raise SpecError("seed must be an integer")
        workers = payload.get("workers")
        if workers is not None and (type(workers) is not int or workers < 1):
            raise SpecError("workers must be a positive integer")
        backend = payload.get("backend")
        for option, value in (("workers", workers), ("a backend", backend)):
            if value is not None and command not in FARM_COMMANDS:
                raise SpecError(
                    f"{command!r} does not honour {option}; farm "
                    f"commands: {', '.join(FARM_COMMANDS)}"
                )
        spec = cls(
            command=command, params=params, seed=seed,
            workers=workers, backend=backend,
        )
        # Choices, number syntax and backend names: whatever the job's
        # CLI subprocess would refuse is refused here, at submit.
        _cli_parser().parse_args(spec.cli_argv(Path(".")))
        return spec

    def to_payload(self) -> Dict[str, object]:
        """The JSON shape :meth:`from_payload` accepts (round-trips)."""
        payload: Dict[str, object] = {
            "command": self.command,
            "params": dict(self.params),
            "seed": self.seed,
        }
        if self.workers is not None:
            payload["workers"] = self.workers
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    def exports_wcdb(self) -> bool:
        """Whether this command can produce a worst-case database."""
        return self.command in _WCDB_EXPORTS

    def cli_argv(
        self, job_dir: Path, broker: Optional[str] = None
    ) -> List[str]:
        """The ``repro.cli`` argv this job runs (without the python part).

        Artifacts land inside ``job_dir``: the telemetry trace at
        ``trace.jsonl`` and, for exporting commands, the worst-case
        database at ``wcdb.json`` (directly, or inside the campaign
        output directory — see :func:`wcdb_path`).  ``broker`` is the
        service-configured farm broker address, appended when the spec
        targets the remote backend.
        """
        argv: List[str] = [
            "--seed", str(self.seed),
            "--trace", str(job_dir / TRACE_FILENAME),
        ]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        if self.backend is not None:
            argv += ["--backend", str(self.backend)]
            if self.backend == "remote" and broker:
                argv += ["--broker", broker]
        argv.append(self.command)
        for name in sorted(self.params):
            value = self.params[name]
            flag = "--" + name.replace("_", "-")
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            else:
                argv += [flag, str(value)]
        flag = _WCDB_EXPORTS.get(self.command)
        if flag == "--out":
            argv += [flag, str(job_dir / CAMPAIGN_DIRNAME)]
        elif flag is not None:
            argv += [flag, str(job_dir / WCDB_FILENAME)]
        return argv

    def full_argv(
        self, job_dir: Path, broker: Optional[str] = None
    ) -> List[str]:
        """The complete subprocess argv (current interpreter + CLI)."""
        return [sys.executable, "-m", "repro.cli"] + self.cli_argv(
            job_dir, broker=broker
        )

    def wcdb_path(self, job_dir: Path) -> Optional[Path]:
        """Where this job's worst-case export lands (``None`` if never)."""
        flag = _WCDB_EXPORTS.get(self.command)
        if flag == "--out":
            return job_dir / CAMPAIGN_DIRNAME / DATABASE_FILENAME
        if flag is not None:
            return job_dir / WCDB_FILENAME
        return None


def _coerce(name: str, value: object, kind: type) -> object:
    """Type-check one whitelisted parameter value (no string parsing;
    a bool is not an int, an int is a float)."""
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is kind:
        return value
    raise SpecError(
        f"parameter {name!r} must be of type {kind.__name__}, "
        f"got {type(value).__name__}"
    )


#: Artifact names inside a job directory.
TRACE_FILENAME = "trace.jsonl"
WCDB_FILENAME = "wcdb.json"
CAMPAIGN_DIRNAME = "campaign"
LOG_FILENAME = "job.log"
REPORT_FILENAME = "report.html"
