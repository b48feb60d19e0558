#!/usr/bin/env python3
"""Benchmark of the fglift pipeline: hierarchy, compression, queries, bounds.

Usage, from the root of a checkout:

    python3 bench/run.py --workload order-star --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one process each
    python3 bench/run.py --quick         # one set-up and one round each

A run imports ``fglift`` from the checkout's ``src/``, sets up its workload
several times (``setup_s`` is the median), then repeats whole rounds of
operations until their summed wall time reaches ``--seconds``. Every output
is checked between operations, outside the timed region. The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run (see ``spans.py``). Lines before it give each metric's sample
count. The exit code is 0 when every check passed.
"""

from __future__ import annotations

import os

# Single-threaded numerical libraries; must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("order-star", "compress-sweep", "query-ve", "eval-star")
#: Set-ups per run: at least SETUPS_MIN, more while they sum to under
#: SETUP_BUDGET_S, so a set-up of a few milliseconds still gets a steady median.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 5, 25, 1.0
#: Per-layer self times reported per operation, and set-up layers.
OP_LAYERS = ("cli", "io", "model", "metric", "hierarchy", "colour", "inference", "bounds")
SETUP_LAYERS = ("generate", "io", "model", "metric", "hierarchy", "colour")


def import_program():
    """Import fglift from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fglift
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import fglift from {src}: {exc}")
    if Path(fglift.__file__).resolve().parent != src / "fglift":
        raise SystemExit(f"bench: fglift was imported from {fglift.__file__}, not {src}")
    return fglift


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    import_program()
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        setup_s, setup_layers, state = [], [], None
        while not setup_s or not quick and (
            len(setup_s) < SETUPS_MIN
            or (sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUPS_MAX)
        ):
            state = None
            gc.collect()
            if tracer:
                tracer.reset()
                tracer.active = True
            start = time.perf_counter()
            state = wl.setup(seed, work)
            setup_s.append(time.perf_counter() - start)
            if tracer:
                tracer.active = False
                setup_layers.append(dict(tracer.self_s))

        if tracer:
            tracer.reset()
        latencies: list[float] = []
        attempted = failed = 0
        problems: list[str] = []
        timed = 0.0
        while True:
            for op in wl.round(state):
                attempted += 1
                gc.collect()
                if tracer:
                    tracer.active = True
                start = time.perf_counter()
                try:
                    out, error = op.run(), None
                except Exception:
                    out, error = None, traceback.format_exc()
                took = time.perf_counter() - start
                if tracer:
                    tracer.active = False
                timed += took
                if error:
                    failed += 1
                    print(f"bench: {op.label} failed:\n{error}", file=sys.stderr)
                    continue
                latencies.append(took)
                try:
                    op.check(out)
                except CheckFailed as exc:
                    problems.append(f"{op.label}: {exc}")
                    print(f"bench: check failed: {op.label}: {exc}", file=sys.stderr)
                out = None
            if quick or timed >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    done = len(latencies)
    if not done:
        print(f"bench: {name}: no operation completed", file=sys.stderr)
        return 1
    p50_ms = statistics.median(latencies) * 1000
    print(f"workload {name} seed {seed}: {attempted} operations attempted, {failed} failed, "
          f"{len(problems)} with wrong output")
    print(f"  setup_s      median of {len(setup_s)} set-ups: {statistics.median(setup_s):.4f} s")
    print(f"  op_p50_ms    median of {done} operations: {p50_ms:.3f} ms")
    print(f"  ops_per_s    {done} operations in {timed:.3f} s of timed wall time")
    if tracer:
        print(f"  traced op_p50_ms {p50_ms:.3f} ms (compare with an untraced run for the overhead)")
        metrics = per_layer_metrics(tracer, setup_layers, done)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "op_p50_ms": metric(p50_ms, "ms"),
            "ops_per_s": metric(done / timed, "ops/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def per_layer_metrics(tracer, setup_layers: list[dict], done: int) -> dict:
    out = {}
    for layer in OP_LAYERS:
        out[f"{layer}.self_ms"] = metric(tracer.self_s[layer] * 1000 / done, "ms/op")
    out["colour.acp_refine_ms"] = metric(tracer.incl_s["colour.acp_refine"] * 1000 / done, "ms/op")
    for layer in SETUP_LAYERS:
        out[f"{layer}.setup_s"] = metric(statistics.median(s.get(layer, 0.0) for s in setup_layers), "s")
    per_op = {
        "io.bytes_written": (tracer.counts["io.bytes_written"], "bytes/op"),
        "io.bytes_read": (tracer.counts["io.bytes_read"], "bytes/op"),
        "metric.pairs": (tracer.counts["metric.pairs"], "pairs/op"),
        "metric.odeed_calls": (tracer.calls["metric.odeed"], "calls/op"),
        "hierarchy.partition_calls": (tracer.calls["hierarchy.partition_at_level"], "calls/op"),
        "colour.mean_tables": (tracer.calls["colour.mean_table"], "calls/op"),
    }
    for key, (total, unit) in per_op.items():
        out[key] = metric(total / done, unit)
    scan_s = tracer.incl_s["inference.max_query_deviation"]
    out["inference.scan_queries_per_s"] = metric(
        tracer.counts["inference.scan_queries"] / scan_s if scan_s else 0.0, "queries/s")
    lifted = tracer.calls["inference.star_marginal"]
    out["inference.lifted_ops"] = metric(
        tracer.counts["inference.lifted_ops"] / lifted if lifted else 0.0, "entries/query")
    return out


def run_all(args) -> int:
    """Each workload in its own fresh process; a summary table at the end."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        ok = ok and proc.returncode == 0
        try:
            rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {name} printed no result (exit code {proc.returncode})", file=sys.stderr)
            ok = False
    print()
    for name, result in rows:
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:15s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {cells}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and one round of operations, all checks on")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)


if __name__ == "__main__":
    sys.exit(main())
