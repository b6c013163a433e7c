"""Regenerate the golden fixture traces in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/obs/golden/make_traces.py

It records three small ``lot`` campaigns and writes one trace each:

* ``serial.jsonl`` — serial run with ``--profile``;
* ``process.jsonl`` — 2-worker process farm with ``--profile``, resumed
  from a checkpoint holding one finished die plus one corrupt line, with
  one die that fails its first attempt and is retried;
* ``remote.jsonl`` — remote backend over a local broker and two socket
  worker processes (the trace ends in ``broker_clock_sync``).

Then it writes the pinned outputs next to them (see
``tests/obs/test_golden.py``).  The traces carry wall-clock stamps, so
regenerating changes every pin: only do it when the trace *format*
changes, and review the pin diff.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

LOT = ["lot", "--dies", "3", "--tests", "2"]
FLAKY_KEY = "die/0002"


def flaky_lot_unit(unit):
    """``run_lot_unit`` that fails the first attempt of one die."""
    from repro.core.lot import _real_run_lot_unit  # type: ignore[attr-defined]

    if unit.key == FLAKY_KEY and not os.path.exists("flaky.marker"):
        Path("flaky.marker").write_text(unit.key)
        raise RuntimeError("transient tester fault")
    return _real_run_lot_unit(unit)


def _serial() -> None:
    from repro.cli import main

    assert main(["--profile", "--trace", "serial.jsonl", *LOT]) == 0


def _process() -> None:
    import repro.core.lot as lot
    from repro import obs
    from repro.cli import main

    # A finished run's checkpoint, cut to its header and first die, plus
    # one torn line: the resumed run skips one die and drops one line.
    assert main(["--workers", "2", "--resume", "full.ckpt", *LOT]) == 0
    obs.reset()
    lines = Path("full.ckpt").read_text().splitlines()
    Path("resume.ckpt").write_text(
        "\n".join(lines[:2]) + "\n" + '{"unit": "die/00' + "\n"
    )
    lot._real_run_lot_unit = lot.run_lot_unit
    lot.run_lot_unit = flaky_lot_unit
    try:
        assert main(
            ["--profile", "--workers", "2", "--resume", "resume.ckpt",
             "--trace", "process.jsonl", *LOT]
        ) == 0
    finally:
        lot.run_lot_unit = lot._real_run_lot_unit
    obs.reset()


def _remote() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "repro.cli"]
    with open("broker.log", "w") as log:
        broker = subprocess.Popen(
            [*cli, "farm-broker", "--port", "0"], stdout=log,
            stderr=subprocess.STDOUT, env=env,
        )
    workers = []
    try:
        address = ""
        for _ in range(100):
            text = Path("broker.log").read_text()
            if "broker listening on " in text:
                address = text.split("broker listening on ")[1].split()[0]
                break
            time.sleep(0.1)
        assert address, "broker did not start"
        for name in ("w1", "w2"):
            workers.append(subprocess.Popen(
                [*cli, "farm-worker", "--connect", address, "--name", name,
                 "--max-idle", "60"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=env,
            ))
        subprocess.run(
            [*cli, "--backend", "remote", "--broker", address,
             "--trace", "remote.jsonl", *LOT],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
    finally:
        for process in [*workers, broker]:
            process.terminate()
            process.wait(timeout=10)


def main() -> None:
    import functools

    from repro import obs
    from tests.obs.test_golden import FIXTURES, render_pins

    # Sample resources every 5 ms, so that each short-lived process
    # records a CPU series rather than a single point.
    obs.ProfileConfig = functools.partial(
        obs.ProfileConfig, resource_interval_s=0.005
    )
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        _serial()
        _process()
        _remote()
        for name in FIXTURES:
            (HERE / f"{name}.jsonl").write_bytes(
                Path(f"{name}.jsonl").read_bytes()
            )
    os.chdir(HERE)
    for name in FIXTURES:
        for pin, text in render_pins(HERE / f"{name}.jsonl").items():
            (HERE / f"{name}.{pin}").write_text(text)
        print(f"wrote {name}.jsonl and its pins")


if __name__ == "__main__":
    main()
