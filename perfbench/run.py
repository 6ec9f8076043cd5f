"""The repository benchmark: one command, three workloads, fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11_des --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --smoke         # reduced sizes: names and units

Each workload runs in its own interpreter (``workload.py``), so its peak
RSS and set-up time belong to it alone.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of the output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` for a single workload,
or one such object per workload name when several ran.  The exit code
is 0 only when every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

import spec

from common import END_TO_END, PER_LAYER


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Run one workload process; echo its output; return its result."""
    command = [sys.executable, str(spec.BENCH_DIR / "workload.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    proc = subprocess.Popen(command, cwd=spec.ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=150 + 4 * seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{name}: timed out")
    finally:
        # The workload's own children (a serve launcher) share its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{name}: exited {proc.returncode} without a result")
    if proc.returncode != 0:
        result["correct"] = False
    return result


def smoke(seed: int) -> int:
    """Every metric name and unit, as BENCHMARK.json lists them, printed."""
    declared = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if wanted[0] != dict(END_TO_END) or wanted[1] != dict(PER_LAYER):
        problems.append("BENCHMARK.json and common.py list different metrics")
    if [w["name"] for w in declared["workloads"]] != list(spec.WORKLOADS):
        problems.append("BENCHMARK.json lists different workloads")
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed, 2, trace, smoke=True)
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            if not result["correct"] or got != wanted[trace]:
                problems.append(f"{name} trace {trace}: correct="
                                f"{result['correct']}, metrics {sorted(got)}")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes; check every metric is printed")
    args = parser.parse_args(argv)
    if not spec.layout_ok():
        print(f"perfbench: no library at {spec.SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, args.trace, False)
        for name in names
    }
    ok = all(result["correct"] for result in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
