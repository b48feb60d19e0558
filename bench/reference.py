#!/usr/bin/env python3
"""Reference figures measured once and quoted in bench/README.md.

    python3 bench/reference.py

Prints ``fglift order`` on the C9 star at m = 2000 (wall time and the size of
the hierarchy document it writes) and ``distance_matrix`` at m = 2000 with
one and with two threads (median of five calls each). Not part of the timed
benchmark: a single order run at this size takes tens of seconds.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time

from run import ROOT, import_program

fglift = import_program()
from workloads import planted, run_cli  # noqa: E402


def main() -> None:
    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        g, _ = planted(1, 20, 100, 16, "star")
        model, hier, report = work / "model.json", work / "hier.json", work / "report.csv"
        fglift.io.write_model(g, model)
        start = time.perf_counter()
        run_cli(["order", "--model", str(model), "--out", str(hier), "--report", str(report)])
        took = time.perf_counter() - start
        print(f"order-star m=2000: {took:.2f} s, hierarchy document {hier.stat().st_size / 1e6:.1f} MB")
        for threads in (1, 2):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                fglift.distance_matrix(g, threads=threads)
                times.append(time.perf_counter() - start)
            print(f"distance_matrix m=2000 threads={threads}: median {statistics.median(times):.3f} s "
                  f"of {[round(t, 3) for t in times]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
