"""Benchmark for proxilift: closed-loop analyses through ``proxilift analyze``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sync,lift,stochastic,measures} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics from an untraced worker;
with ``--trace 1`` it runs the same fixed passes once untraced and once with
spans around the library's public functions, and reports per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A reference mismatch
or failed ``--verify`` replay sets ``correct`` to false and exits 1.  Without
``src/proxilift`` next to this directory it exits 2 and prints no result.

Full results (and spans, when tracing) go to ``.perfbench_out/`` in the
checkout.  ``--size smoke`` runs one tiny pass; ``perfbench/selftest.py``
uses it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402

SETUP_PROBES = 4  # fresh set-up-only processes before and again after the measured worker
DEADLINE_S = 170  # the whole run, set-up included, must end well inside 180 s
TAIL_PERCENTILES = tuple(range(50, 100)) + (99.5, 99.9)
# The calibration kernel's time (worker.calibration_s) on the machine the
# workloads were sized on, at its usual speed.  Every latency is scaled by
# this over the kernel's time around that analysis.  See README, "Measuring on
# a small shared machine".
CALIBRATION_REFERENCE_S = 0.0075
CALIBRATION_EXPONENT = 0.8

# The end-to-end metrics BENCHMARK.json gates.  failed_ratio and
# witness_letters read 0 on some workloads; the two latency percentiles move
# by more than a quarter between runs on a small shared machine.  All eight
# are printed.
GATED = ("analyses_per_s", "decided_ratio", "peak_rss_mb", "setup_s")


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description="proxilift closed-loop benchmark")
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument(
        "--flip-reference", action="store_true",
        help="invert the first reference answer (the self-test expects a failure)",
    )
    return p.parse_args()


def hermetic_env(src: str) -> dict:
    """The caller's environment without PROXILIFT_* or PYTHON* settings."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PROXILIFT_") and not k.startswith("PYTHON")
    }
    env.update(PYTHONHASHSEED="0", PYTHONNOUSERSITE="1")
    return env


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


class Runner:
    """Starts workers one at a time and collects their result files."""

    def __init__(self, args: argparse.Namespace, out_dir: str) -> None:
        self.args = args
        self.out_dir = out_dir
        self.src = os.path.join(ROOT, "src")
        self.env = hermetic_env(self.src)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def worker(self, passes: int = 0, seconds: float = 0.0, trace: bool = False,
               setup_only: bool = False) -> dict:
        self.count += 1
        tag = f"{self.args.workload}-{self.args.seed}-{os.getpid()}-{self.count}"
        workdir = os.path.join(self.out_dir, f"work-{tag}")
        out = os.path.join(self.out_dir, f"result-{tag}.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--src", self.src, "--workdir", workdir, "--out", out,
            "--passes", str(passes), "--seconds", str(seconds), "--size", self.args.size,
        ]
        if trace:
            cmd += ["--trace", "--spans", os.path.join(
                self.out_dir, f"{self.args.workload}-seed{self.args.seed}-spans.json")]
        if setup_only:
            cmd.append("--setup-only")
        if self.args.flip_reference:
            cmd.append("--flip-reference")
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
                )
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if os.path.exists(out):
                os.remove(out)


def tail_percentile(planned: int) -> float:
    """Highest listed percentile with at least ten planned samples beyond it.

    Fixed by the workload and --seconds, not by how many analyses a run
    happens to finish, so the metric means the same thing on every commit.
    """
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if planned - math.ceil(p / 100 * planned) >= 10:
            best = p
    return best


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def scaled_s(record: dict) -> float:
    """An analysis's latency at the reference speed of the calibration kernel."""
    return record["latency_s"] * (CALIBRATION_REFERENCE_S / record["calib_s"]) ** CALIBRATION_EXPONENT


def summarize(records: list, full_passes: int, planned_passes: int) -> tuple[dict, dict]:
    """The record-based end-to-end metrics of some analyses, and tail details.

    Throughput comes from every analysis, by its position in the pass: the
    median scaled latency of each position, summed over the pass.  A run that
    stopped mid-pass has sampled early positions once more than late ones, and
    this keeps the workload's mix fixed all the same.  The other metrics come
    from the whole passes.
    """
    by_position: dict = {}
    for r in records:
        by_position.setdefault(r["position"], []).append(scaled_s(r))
    pass_s = sum(statistics.median(v) for v in by_position.values())
    done_share = sum(1 for r in records if not r["failed"]) / len(records)
    whole = [r for r in records if r["pass"] < full_passes]
    done = [r for r in whole if not r["failed"]]
    latencies = [scaled_s(r) for r in done]
    p_tail = tail_percentile(planned_passes * (len(whole) // full_passes))
    tail = nearest_rank(latencies, p_tail) if latencies else 0.0
    verdicts = sum(r["verdicts"] for r in done)
    wall = sum(r["latency_s"] for r in records)
    metrics = {
        "analyses_per_s": (done_share * len(by_position) / pass_s if pass_s else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "decided_ratio": (sum(r["decided"] for r in done) / verdicts if verdicts else 0.0, "ratio"),
        "failed_ratio": ((len(whole) - len(done)) / len(whole), "ratio"),
        "witness_letters": (sum(r["letters"] for r in done) / full_passes, "letters"),
    }
    info = {
        "analyses": len(records),
        "scaled_pass_s": pass_s,
        "wall_busy_s": wall,
        "analyses_per_wall_s": (len(records) * done_share / wall) if wall else 0.0,
        "machine_speed": CALIBRATION_REFERENCE_S / statistics.median(r["calib_s"] for r in records),
        "tail_percentile": p_tail,
        "tail_samples": len(latencies),
        "tail_samples_beyond": sum(1 for x in latencies if x > tail),
    }
    return metrics, info


def end_to_end(args: argparse.Namespace, runner: Runner) -> tuple[dict, dict, list, list]:
    workload = corpus.WORKLOADS[args.workload]
    if args.size == "smoke":
        passes, planned_passes = 1, 1
    else:
        passes = 0
        planned_passes = max(1, math.floor(args.seconds / workload.nominal_pass_s))
    runner.worker(1, setup_only=True)  # warm-up: compiles bytecode, fills the file cache
    # Set-up probes before and after the measured worker, so that their
    # median spans the whole run rather than one moment of a noisy machine.
    setups = [runner.worker(1, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    res = runner.worker(passes, seconds=args.seconds)
    setups.append(res["setup_s"])
    setups += [runner.worker(1, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]

    records = res["analyses"]
    shared = {
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    metrics, info = summarize(records, res["full_passes"], planned_passes)
    metrics.update(shared)
    info.update(
        full_passes=res["full_passes"],
        setup_samples_s=setups,
        lift_cache=res["cache"],
        failures=[r for r in records if r["failed"]],
        families={},
    )
    for family, _ in workload.families:
        part = [r for r in records if r["family"] == family]
        fam_metrics, fam_info = summarize(part, res["full_passes"], planned_passes)
        info["families"][family] = {"metrics": {**fam_metrics, **shared}, **fam_info}
    return metrics, info, res["mismatches"], records


def per_layer(args: argparse.Namespace, runner: Runner) -> tuple[dict, dict, list, list]:
    nominal = corpus.WORKLOADS[args.workload].nominal_pass_s
    passes = 1 if args.size == "smoke" else max(1, round(args.seconds / (2 * nominal)))
    plain = runner.worker(passes)
    traced = runner.worker(passes, trace=True)
    plain_busy = sum(scaled_s(r) for r in plain["analyses"])
    traced_busy = sum(scaled_s(r) for r in traced["analyses"])
    traced_wall = sum(r["latency_s"] for r in traced["analyses"])
    trace = traced["trace"]
    metrics = {k: tuple(v) for k, v in trace["metrics"].items()}
    cache = traced["cache"]
    looked_up = cache["hits"] + cache["misses"]
    metrics["lift.lift_system.cache_hit_ratio"] = (
        cache["hits"] / looked_up if looked_up else 0.0, "ratio")
    metrics["trace.coverage"] = (trace["covered_s"] / traced_wall if traced_wall else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_busy / plain_busy if plain_busy else 0.0, "ratio")
    info = {
        "passes": passes,
        "analyses": len(traced["analyses"]),
        "lift_cache": cache,
        "absent": trace["absent"],
        "families": trace["families"],
    }
    records = plain["analyses"] + traced["analyses"]
    return metrics, info, plain["mismatches"] + traced["mismatches"], records


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "proxilift", "__init__.py")):
        print(f"error: no proxilift source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(args, out_dir)
    env = environment()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info, mismatches, records = measure(args, runner)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"proxilift benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in info.items():
        if key not in ("setup_samples_s", "families"):
            print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for family, part in info.get("families", {}).items():
        if args.trace:
            print(f"family {family}: calls and self seconds of every target it reached")
            for name, (calls, own) in sorted(part.items()):
                print(f"  {family}.{name:<44} {calls:>10} {own:>12.6f} s")
            continue
        print(f"family {family}: {part['analyses']} analyses, tail p{part['tail_percentile']:g} "
              f"over {part['tail_samples']} samples, {part['tail_samples_beyond']} beyond")
        for name, (value, unit) in part["metrics"].items():
            print(f"  {family}.{name:<44} {value:>14.6g} {unit}")
    for m in mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "info": info,
                   "metrics": metrics, "mismatches": mismatches}, fh, indent=1)

    shown = metrics if args.trace else {k: metrics[k] for k in GATED}
    print(json.dumps({
        "correct": not mismatches,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
