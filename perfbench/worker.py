"""One benchmark worker: set up, run passes of analyses in a closed loop, report.

``run.py`` starts each worker as a fresh process with a scrubbed environment
and waits for it.  One caller runs one analysis at a time, with no threads.
Every CLI analysis goes through ``proxilift.cli.main(["analyze", ...])`` in
this process with stdout captured, so parsing, the decision, ``--verify``
replays and the report digest are all inside the timed region.  The
reference checks run outside it.

Set-up is the import of ``proxilift`` plus writing the first pass's seeded
spec files; later passes are written between passes, outside every timed
region.  The worker writes one JSON result file (and, when tracing, a span
file).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import tracer  # noqa: E402


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", required=True, help="directory holding the proxilift package")
    p.add_argument("--workdir", required=True, help="where the spec files go")
    p.add_argument("--out", required=True, help="result JSON file")
    p.add_argument("--passes", type=int, default=0, help="run exactly this many passes")
    p.add_argument(
        "--seconds", type=float, default=0.0,
        help="otherwise start no new pass once this much time has gone",
    )
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="span file written when tracing")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--flip-reference", action="store_true")
    return p.parse_args()


CALIBRATION_ROUNDS = 1000


def calibration_s() -> float:
    """Seconds one fixed pure-Python kernel takes right now.

    The kernel does what the library does most: exact Fraction arithmetic and
    hashing of small frozensets.  Its time, taken just before and just after
    each analysis, tells how fast the shared machine runs at that moment.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    seen: dict = {}
    rows = [[Fraction(j + 1, 12) for j in range(4)] for _ in range(4)]
    for i in range(CALIBRATION_ROUNDS):
        acc += rows[i % 4][i % 3] * Fraction(i % 7 + 1, i % 13 + 2)
        key = frozenset((i % 61, (i * 7) % 61))
        seen[key] = seen.get(key, 0) + 1
    elapsed = time.perf_counter() - start
    if acc <= 0 or not seen:
        raise AssertionError("calibration kernel computed nothing")
    return elapsed


class Passes:
    """Builds passes one at a time from the seed and writes their spec files."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = corpus.WORKLOADS[args.workload]
        self.rng = random.Random(args.seed)
        self.built = 0
        self.systems: set[str] = set()

    def next_pass(self) -> list[corpus.Item]:
        p = self.built
        self.built += 1
        items = self.workload.build_pass(self.rng, f"p{p}", self.args.size)
        for k, item in enumerate(items):
            # The cache rule: no two analyses may share an action system.
            key = json.dumps([item.spec["space"], item.spec["action"]], sort_keys=True)
            if key in self.systems:
                raise AssertionError(f"benchmark bug: {item.name} repeats a system")
            self.systems.add(key)
            item.path = os.path.join(self.args.workdir, f"p{p}-{k}.json")
            with open(item.path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(item.spec, separators=(",", ":")))
        return items


def main() -> int:
    args = parse_args()
    sys.path.insert(0, args.src)
    started = time.perf_counter()
    import proxilift.cli
    import proxilift.lift

    os.makedirs(args.workdir, exist_ok=True)
    source = Passes(args)
    items = source.next_pass()
    setup_s = time.perf_counter() - started

    package_dir = os.path.dirname(os.path.abspath(proxilift.cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(args.src):
        raise SystemExit(f"proxilift was imported from {package_dir}, not from {args.src}")
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    # Each analysis stands for one CLI invocation, whose process starts with
    # an empty lift cache; clearing it between analyses keeps that true here
    # and keeps peak memory independent of how many analyses ran before.
    lift_fn = getattr(proxilift.lift, "lift_system", None)
    cache_info = getattr(lift_fn, "cache_info", None)
    cache_clear = getattr(lift_fn, "cache_clear", None)
    tr = tracer.Tracer() if args.trace else None
    if tr is not None:
        tr.install()

    records = []
    mismatches = []
    hits = misses = 0
    loop_started = time.perf_counter()
    passes_run = 0
    full_passes = 0
    while True:
        passes_run += 1
        for position, item in enumerate(items):
            # A timed run stops at --seconds, mid-pass if need be, once the
            # first pass is whole: run.py compares analyses position by
            # position, so a partial pass does not change the mix it measures.
            if not args.passes and full_passes and time.perf_counter() - loop_started >= args.seconds:
                break
            index = len(records)
            gc.collect()
            if tr is not None:
                tr.analysis = index
            out, err = io.StringIO(), io.StringIO()
            error = None
            value = None
            calib_before = calibration_s()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if item.kind == "cli":
                        proxilift.cli.main(["analyze", item.path, *item.argv])
                    else:
                        spec = proxilift.cli.load_spec(item.path)
                        value = proxilift.lift.lift_system(spec.system, item.grid).metric
            except Exception:
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            latency = time.perf_counter() - start
            calib_after = calibration_s()
            if cache_info is not None:
                info = cache_info()
                hits += info.hits
                misses += info.misses
                cache_clear()
            if error is None and item.kind == "cli":
                text = out.getvalue()
                if text.strip():
                    value = json.loads(text)
                else:
                    error = err.getvalue().strip() or "no report"
            record = {"name": item.name, "family": item.family, "pass": passes_run - 1,
                      "position": position, "latency_s": latency,
                      "calib_s": (calib_before + calib_after) / 2, "failed": error is not None}
            if error is None:
                bad = item.check(value, args.flip_reference and index == 0)
                mismatches.extend(f"{item.name} in pass {passes_run - 1}: {m}" for m in bad)
                record["decided"], record["verdicts"], record["letters"] = corpus.tally(item, value)
            else:
                record["error"] = error
            records.append(record)
        else:
            full_passes += 1
        if args.passes:
            if passes_run >= args.passes:
                break
        elif time.perf_counter() - loop_started >= args.seconds:
            break
        items = source.next_pass()

    result.update(
        passes_run=passes_run,
        full_passes=full_passes,
        analyses=records,
        mismatches=mismatches,
        cache={"hits": hits, "misses": misses},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tr is not None:
        result["trace"] = {
            "metrics": tr.metrics(),
            "covered_s": tr.covered_s(),
            "absent": tr.absent,
            "families": tr.by_family([r["family"] for r in records]),
        }
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh, separators=(",", ":"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
