"""Self-test of the benchmark, in seconds rather than minutes.

    python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
that each prints the metrics BENCHMARK.json names.  Then it inverts one
reference answer per workload and checks that the correctness gate fails,
and checks that the benchmark refuses to run without the library's source.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402


def run(root: str, workload: str, trace: int, flip: bool = False) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    ]
    if flip:
        cmd.append("--flip-reference")
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in sorted(corpus.WORKLOADS):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            result = last_json(proc)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['correct']=} {result['failed']=}")
            if set(result["metrics"]) != want[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ want[trace])}")
        proc = run(ROOT, workload, 0, flip=True)
        result = last_json(proc)
        if proc.returncode == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: a flipped reference answer was not caught")
        else:
            print(f"{workload}: smoke runs pass; flipped reference caught")

    # Only BENCHMARK.json and perfbench/: no source, so no result.
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sync", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the library source")
        else:
            print("without the library source: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
