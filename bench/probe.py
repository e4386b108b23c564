"""Measurements that need a fresh interpreter; run.py starts this as a child.

    probe.py setup <workload> <seed>   seconds to import catseq and run the warm-up
    probe.py layers <workload>         import time, first call of each counting
                                       route, tracemalloc peaks (JSON)
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import harness
import workloads

COUNT_N = 300


def layers(w: workloads.Workload) -> dict[str, float]:
    t0 = time.perf_counter()
    catseq = harness.load_catseq()
    result = {"cli.import_ms": (time.perf_counter() - t0) * 1e3}
    routes = (
        ("closed", catseq.catalan_closed, COUNT_N),
        ("linear", catseq.catalan_linear, COUNT_N),
        ("convolution", catseq.catalan_convolution, COUNT_N),
        ("series", catseq.catalan_series, COUNT_N + 1),
    )
    for name, fn, arg in routes:
        t0 = time.perf_counter()
        fn(arg)
        result[f"counting.{name}_ms"] = (time.perf_counter() - t0) * 1e3
    peaks = (
        ("core.sample_cold_alloc_mb", catseq.random_uniform, (max(w.ladder), 1)),
        ("core.enumerate_alloc_mb", catseq.enumerate_sequences, (max(w.enumerate_ns),)),
    )
    for key, fn, args in peaks:
        tracemalloc.start()
        fn(*args)
        result[key] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return result


def main(argv: list[str]) -> None:
    mode, name = argv[:2]
    w = workloads.WORKLOADS[name]
    if mode == "setup":
        import run

        print(run.setup(w, int(argv[2]))[1])
    else:
        print(json.dumps(layers(w)))


if __name__ == "__main__":
    main(sys.argv[1:])
