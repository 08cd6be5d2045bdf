"""Benchmark of basislam: time to a verified normal form, type verdict or
unitarity verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus|wide|deep|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded worker processes
(perfbench/worker.py), one process per pass, so no state or cache
outlives a pass, as for a user running the command line.  A run:

1. times set-up (import basislam, load the workload's programs) in
   SETUP_PROBES fresh interpreters and takes the median;
2. runs passes over the workload's fixed item set until the next pass
   would end after --seconds, at least MIN_PASSES;
3. with --trace 1, runs one more pass with every layer traced and reports
   the per-layer metrics instead of the end-to-end ones.

End-to-end times are wall times rescaled to a reference machine speed,
sampled between items (see speed.py); raw wall times are printed too.
Per-layer times are raw.  Every output is checked against an independent
reference; a wrong or failed item counts against ok_ratio and the run
goes on.  The last line of output is one JSON object with keys correct,
attempted, failed and metrics.  Sample counts, the tail percentile and
ratio bases are printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
import workloads
from tracer import UNATTRIBUTED_TOLERANCE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
# Per-item medians need more than one pass; a corpus pass takes ~12 s.
MIN_PASSES = 2
# A run must end within 180 s; stop starting workers after this.
DEADLINE_S = 170.0


def log(msg: str) -> None:
    print(msg, flush=True)


def spawn(mode: str, workload: str, seed: int, timeout: float):
    """Run one worker; its result, or None if it failed or timed out."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    # Let set-up use compiled bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log(f"  {mode} worker timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"  {mode} worker failed ({proc.returncode}): "
            + proc.stderr.strip()[-500:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_rank(n: int) -> tuple[int, float]:
    """Index into n sorted samples of the highest percentile with at least
    ten samples beyond it, and that percentile."""
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def measure(workload: str, seed: int, seconds: float, trace: bool):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    n_items = len(workloads.items(workload, seed))

    spawn("setup", workload, seed, deadline - time.monotonic())  # warm-up
    probes = [
        r
        for r in (
            spawn("setup", workload, seed, deadline - time.monotonic())
            for _ in range(SETUP_PROBES)
        )
        if r is not None
    ]

    passes, attempted, ok = [], 0, 0
    t_first = time.monotonic()
    while True:
        t0 = time.monotonic()
        r = spawn("pass", workload, seed, deadline - t0)
        wall = time.monotonic() - t0
        if r is None:
            attempted += n_items
        else:
            passes.append(r)
            attempted += r["attempted"]
            ok += r["ok"]
            for note in r["notes"]:
                log(f"  FAIL {note}")
        now = time.monotonic()
        if now + wall > deadline or (
            len(passes) >= MIN_PASSES and now - t_first + wall > seconds
        ):
            break
    scaled = [speed.rescale(p["times_s"], p["speed_samples_s"]) for p in passes]
    if not any(scaled) or not probes:  # nothing ran to completion
        return None

    setups = [
        speed.rescale([r["setup_s"]], r["setup_speed_samples_s"])[0]
        for r in probes
    ]
    per_item = [
        statistics.median(t[k] * 1e3 for t in scaled if k < len(t))
        for k in range(max(map(len, scaled)))
    ]
    ranked = sorted(per_item)
    rank, pct = tail_rank(len(ranked))
    pass_s = statistics.median(map(sum, scaled))
    raw_pass_s = statistics.median(sum(p["times_s"]) for p in passes)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "item_p50_ms": (statistics.median(ranked), "ms"),
        "item_tail_ms": (ranked[rank], "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    samples = [x for p in passes for x in p["speed_samples_s"]]
    log(f"{workload}: seed {seed}, {len(passes)} passes over {n_items} items, "
        f"{len(setups)} set-up probes")
    log(f"  speed sample: median {statistics.median(samples) * 1e3:.2f} ms "
        f"(reference {speed.REF_S * 1e3:g} ms); raw wall time: set-up "
        f"{statistics.median(r['setup_s'] for r in probes):.4f} s, pass "
        f"{raw_pass_s:.3f} s")
    log("  pass_s of each pass: " + " ".join(f"{sum(t):.3f}" for t in scaled))
    log(f"  item latency: each item's median over {len(passes)} passes; "
        f"p50 and p{pct:.4g} over {len(ranked)} items")
    log(f"  ok_ratio: {ok} of {attempted} items attempted")
    if not trace:
        return e2e, attempted, ok

    traced = spawn("traced", workload, seed, deadline - time.monotonic())
    if traced is None:
        return None
    attempted += traced["attempted"]
    ok += traced["ok"]
    for note in traced["notes"]:
        log(f"  FAIL (traced) {note}")
    if traced["missing"]:
        log("  not traced, gone from the package: " + ", ".join(traced["missing"]))
    layers = {k: tuple(v) for k, v in traced["layers"].items()}
    # the traced pass is timed without samples between items (they would
    # land in its spans), so it is rescaled by the samples around it
    traced_s = speed.rescale([layers["trace.pass_s"][0]], traced["speed_samples_s"])[0]
    layers["trace.overhead_s"] = (traced_s - pass_s, "s")
    layers["trace.ok_ratio"] = (traced["ok"] / traced["attempted"], "ratio")
    share = layers["trace.unattributed_share"][0]
    log(f"  traced pass {layers['trace.pass_s'][0]:.3f} s raw, {traced_s:.3f} s "
        f"rescaled, vs untraced {pass_s:.3f} s; spans in {traced['trace_file']}")
    log(f"  layer self times cover the traced pass but {share:.2%} "
        f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%}): "
        + ("ok" if share <= UNATTRIBUTED_TOLERANCE else "OVER TOLERANCE"))
    return layers, attempted, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "basislam", "__init__.py")):
        print(f"error: no basislam source under {ROOT}/src", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, ok = {}, 0, 0
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        if res is None:
            print(f"error: workload {name} produced no result", file=sys.stderr)
            return 1
        got, a, o = res
        attempted += a
        ok += o
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in got.items():
            log(f"  {key:<28} {value:>14.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
