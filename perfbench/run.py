"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 15 --trace 0

Each run sets the program up ``SETUPS`` times, every time in a fresh
interpreter (``session.py``), and reports the median set-up time; the last
of those interpreters then runs the measured closed loop.  With ``--trace 0``
the run prints the end-to-end metrics, with ``--trace 1`` the per-layer
breakdown.  Every metric is printed by name with its unit, then the answer
checks, then -- as the last line -- one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 when every answer check passed, 1 when one failed, and 2
when the run could not measure at all (no program in the checkout, a
session that crashed or overran).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("adhoc", "churn", "outofcore-pyudf")
#: Set-ups per run; ``setup_s`` and ``import.repro_s`` are their medians.
SETUPS = 5
#: Wall-clock allowance for a whole run, sessions included.
RUN_DEADLINE_S = 170.0


class SessionError(RuntimeError):
    pass


def _session(command, env, deadline: float) -> dict:
    """Run one ``session.py`` to completion and parse its JSON report.

    The session gets its own process group, so a session that overruns the
    deadline is killed together with its pool workers.
    """
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SessionError("session overran the run deadline")
    finally:
        _stop_group(process.pid)
    if process.returncode != 0:
        raise SessionError(f"session exited with code {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SessionError("session printed no report")
    return json.loads(lines[-1])


def _stop_group(group: int, grace_s: float = 10.0) -> None:
    """Wait for a session's leftover processes to exit; kill them after ``grace_s``.

    Pool workers and the resource tracker exit on their own once the session
    is gone; only a process that hangs is killed.
    """
    waited = 0.0
    while True:
        try:
            os.killpg(group, signal.SIGKILL if waited >= grace_s else 0)
        except ProcessLookupError:
            return
        if waited >= grace_s:
            return
        time.sleep(0.05)
        waited += 0.05


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    source = root / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"error: no program to measure: {source} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    base = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    try:
        setups = []
        for position in range(SETUPS):
            command = base + ["--workdir", str(workdir / f"session-{position}")]
            if position == SETUPS - 1:
                command += [
                    "--measure", "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ]
            setups.append(_session(command, env, deadline))
    except (SessionError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    measured = setups[-1]
    metrics = dict(measured["metrics"])
    if args.trace:
        metrics["import.repro_s"] = (harness.median([s["import_s"] for s in setups]), "s")
    else:
        metrics["setup_s"] = (harness.median([s["setup_s"] for s in setups]), "s")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(measured["environment"], sort_keys=True))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<40} {_format(value):>14} {unit}")
    if "samples" in measured:
        print("  samples " + json.dumps(measured["samples"], sort_keys=True))
    print(f"operations {measured['attempted']} attempted, {measured['failed']} failed")
    for failure in measured["failures"]:
        print(f"  failed: {failure}")
    for executor, digest in sorted(measured["digests"].items()):
        print(f"answer digest ({executor} executor): {digest}")
    for error in measured["errors"]:
        print(f"CHECK FAILED: {error}")
    correct = not measured["errors"]
    print("answer checks " + ("passed" if correct else "FAILED"))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
