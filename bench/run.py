"""catseq benchmark: end-to-end and per-layer numbers for the three workloads.

    python3 bench/run.py --workload hub-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, each in a fresh process

With --workload the workload runs in this process, which imports catseq
from ./src of the checkout, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --seconds sets
the number of rounds the run does (workloads.round_count), so that the
run takes about that long on the reference machine.  --trace 0 gives
the end-to-end metrics; --trace 1 reruns the same loop with a span around
every call into a layer and gives the per-layer metrics instead, writing
the spans under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import harness
import reference as ref
import workloads

#: fresh-process set-ups per run, spread over the run; with the run's own, 10 samples
SETUP_PROBES = 9
#: fresh-process repetitions behind each per-layer number that needs a new process
CHILD_PROBES = 3
#: seconds between runs of the calibration loop
CALIBRATION_EVERY_S = 0.025
#: calibrations on each side of a call behind the factor that scales it
CALIBRATION_WINDOW = 2
#: the calibration loop's typical time on the machine behind the README's figures
REFERENCE_CALIBRATION_S = 0.9e-3
OUT = os.path.join(harness.BENCH, "out")

END_TO_END_UNITS = {
    "transcode_per_s": "1/s",
    "transcode_p50_ms": "ms",
    "transcode_tail_ms": "ms",
    "sample_per_s": "1/s",
    "rank_per_s": "1/s",
    "unrank_per_s": "1/s",
    "enumerate_words_per_s": "1/s",
    "cli_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup(w: workloads.Workload, seed: int):
    """Import catseq and run the untimed warm-up; returns (catseq, seconds taken)."""
    ops = workloads.warmup_ops(w, seed)
    gc.collect()
    t0 = time.perf_counter()
    catseq = harness.load_catseq()
    runner = harness.Runner(catseq)
    for op in ops:
        runner.run(op)
    elapsed = time.perf_counter() - t0
    if runner.wrong or runner.failed:
        raise SystemExit(f"warm-up went wrong: {runner.wrong[:3]} {runner.failures[:3]}")
    return catseq, elapsed


def child(*args: str) -> str:
    """Run bench/probe.py in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH, "probe.py"), *args],
        capture_output=True, text=True, cwd=harness.ROOT, timeout=120, check=True,
    )
    return proc.stdout


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -int(-p * len(ordered) // 100))
    return ordered[rank - 1]


def calibrate() -> float:
    """Time of one run of the calibration loop, just after an untimed run
    that warms its cache, with the collector off: neither what the last
    operation left in the cache nor a collection over the workload's heap
    lands in the figure."""
    gc.disable()
    try:
        harness.calibration()
        t0 = time.perf_counter()
        harness.calibration()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_loop(w, seed, rounds, runner, at_round=None) -> list[float]:
    """Runs ``rounds`` whole rounds.  Returns the times of the calibration
    loop, which runs between operations every CALIBRATION_EVERY_S and once
    more at the end; ``runner.epoch`` counts them as they are taken.

    Ladder semilength i goes to round i * rounds / len(ladder), so cold
    sampling is spread over the run.
    """
    cold = workloads.cold_schedule(w, rounds)
    calibrations = []
    last = time.perf_counter()
    for index in range(rounds):
        if at_round is not None:
            at_round(index)
        ops = workloads.build_round(w, seed, index, cold.get(index))
        runner.repeat.clear()
        gc.collect()
        for op in ops:
            runner.run(op)
            if time.perf_counter() - last >= CALIBRATION_EVERY_S:
                calibrations.append(calibrate())
                runner.epoch = len(calibrations)
                last = time.perf_counter()
    calibrations.append(calibrate())
    return calibrations


def local_speeds(calibrations: list[float]) -> list[float]:
    """Per epoch, the factor that turns a time measured in it into
    reference time.

    This machine's speed drifts by up to a third over minutes and swings
    within a second (see the README), and every timing drifts with it.  A
    fixed piece of interpreter work (harness.calibration), timed between
    operations all through the run, follows the same drift.  A call of epoch e ran between
    calibrations e - 1 and e, so its time is multiplied by
    REFERENCE_CALIBRATION_S / (the median of the CALIBRATION_WINDOW
    calibrations on each side).
    """
    k = CALIBRATION_WINDOW
    return [
        REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, e - k) : e + k])
        for e in range(len(calibrations))
    ]


def end_to_end(w, runner, setups, speeds=None) -> dict[str, float]:
    """The end-to-end metrics.  ``setups`` holds (seconds, epoch) pairs.
    Each time is scaled by the factor of its epoch in ``speeds``;
    without ``speeds`` the times are as measured."""

    def scaled(kind):
        values = runner.latency[kind]
        if speeds is None:
            return values
        return [dt * speeds[e] for dt, e in zip(values, runner.epochs[kind])]

    lat = {kind: scaled(kind) for kind in ("transcode", "sample", "rank", "unrank", "enumerate", "cli")}

    def per_s(kind, count=None):
        return (len(lat[kind]) if count is None else count) / sum(lat[kind])

    return {
        "transcode_per_s": per_s("transcode"),
        "transcode_p50_ms": statistics.median(lat["transcode"]) * 1e3,
        "transcode_tail_ms": percentile(lat["transcode"], w.tail_percentile) * 1e3,
        "sample_per_s": per_s("sample"),
        "rank_per_s": per_s("rank"),
        "unrank_per_s": per_s("unrank"),
        "enumerate_words_per_s": per_s("enumerate", runner.words),
        "cli_p50_ms": statistics.median(lat["cli"]) * 1e3,
        "setup_s": statistics.median(t * (1 if speeds is None else speeds[e]) for t, e in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(w, seed: int, seconds: float) -> tuple[harness.Runner, dict]:
    catseq, setup_s = setup(w, seed)
    runner = harness.Runner(catseq)
    setups = [(setup_s, 0)]
    rounds = workloads.round_count(w, seconds)
    # the fresh-process set-ups, at round boundaries spread over the run
    due = [int((i + 0.5) * rounds / SETUP_PROBES) for i in range(SETUP_PROBES)]

    def probe_setup(index):
        for _ in range(due.count(index)):
            setups.append((float(child("setup", w.name, str(seed))), runner.epoch))

    gc.collect()
    calibrations = run_loop(w, seed, rounds, runner, probe_setup)
    print(f"{w.name}: {rounds} rounds, {len(runner.latency['transcode'])} transcodes, "
          f"{len(runner.latency['cli'])} CLI calls, calibration {statistics.mean(calibrations) * 1e3:.4f} ms; "
          f"unscaled {json.dumps(end_to_end(w, runner, setups))}", file=sys.stderr)
    return runner, end_to_end(w, runner, setups, local_speeds(calibrations))


def measure_traced(w, seed: int, seconds: float) -> tuple[harness.Runner, dict]:
    catseq, setup_s = setup(w, seed)
    tracer = harness.Tracer()
    runner = harness.Runner(catseq, tracer)
    gc.collect()
    rounds = workloads.round_count(w, seconds)
    calibrations = run_loop(w, seed, rounds, runner)
    traced_e2e = end_to_end(w, runner, [(setup_s, 0)], local_speeds(calibrations))
    # per-layer times are scaled by the run's mean speed
    calibration_s = statistics.mean(calibrations)
    speed = REFERENCE_CALIBRATION_S / calibration_s
    layer_probes(w, seed, catseq, tracer)
    layers = tracer.self_times()

    times: dict[str, float] = {}
    for family in ref.FAMILY_NAMES:
        for stage in harness.STAGES:
            name = f"{harness.MODULE_OF[family]}.{family}.{stage}"
            times[f"{name}_ms"] = layers[name][1] / 1e6
    for name in ("families.resolve", "core.validate", "core.sample_cold", "core.sample_warm",
                 "core.rank", "core.unrank", "core.enumerate", "render.mountain", "render.dot",
                 "cli.main"):
        times[f"{name}_ms"] = layers[name][1] / 1e6
    probes = [json.loads(child("layers", w.name)) for _ in range(CHILD_PROBES)]
    for key in probes[0]:
        times[key] = statistics.median(p[key] for p in probes)
    interpreter = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interpreter.append((time.perf_counter() - t0) * 1e3)
    times["cli.interpreter_ms"] = statistics.median(interpreter)

    metrics = {
        key: (value, "MB") if key.endswith("_mb") else (value * speed, "ms")
        for key, value in times.items()
    }
    write_trace(w, seed, seconds, rounds, tracer, layers, {
        "calibration_ms": calibration_s * 1e3,
        "end_to_end": traced_e2e,
        "per_layer_unscaled": times,
    })
    return runner, metrics


def layer_probes(w, seed, catseq, tracer) -> None:
    """Calls made after the timed loop: renderers and the in-process CLI entry point."""
    rng = workloads.round_rng(seed, -2)
    sizes = workloads.LARGE_SIZES if w.large else workloads.SMALL_SIZES
    now = time.perf_counter_ns
    for _ in range(40 if w.large else 400):
        s = catseq.validate(ref.cycle_lemma_word(rng.choice(sizes), rng))
        tree = catseq.decode_tree(s)
        t0 = now()
        catseq.render_mountain(s)
        t1 = now()
        catseq.render_dot(tree)
        t2 = now()
        tracer.record("render.mountain", -1, -1, t0, t1)
        tracer.record("render.dot", -1, -1, t1, t2)
    for index in range(4):
        for op in workloads.build_round(w, seed, index):
            if op[0] != "cli":
                continue
            argv, kind, expected = op[1:]
            if kind == "rank":
                argv = ("rank", catseq.unrank(*expected).bits)
            t0 = now()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    catseq.cli.main(list(argv))
            except ValueError:
                pass  # the isdigit fault escapes main() as a bare ValueError
            tracer.record("cli.main", -1, -1, t0, now())


def write_trace(w, seed, seconds, rounds, tracer, layers, extra) -> None:
    """Spans as gzipped CSV, plus a JSON summary with self time per layer."""
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"trace-{w.name}")
    names = {v: k for k, v in tracer.names.items()}
    s = tracer.spans
    f = tracer.FIELDS
    with gzip.open(base + ".spans.csv.gz", "wt", compresslevel=1) as out:
        out.write("span,parent,op,name,start_ns,end_ns\n")
        for i in range(len(s) // f):
            name, op, parent, start, end = s[i * f : i * f + f]
            out.write(f"{i},{parent},{op},{names[name]},{start},{end}\n")
    summary = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "spans": len(s) // f,
        "self_time_unscaled": {k: {"calls": c, "mean_ms": ns / 1e6} for k, (c, ns) in sorted(layers.items())},
        **extra,
    }
    with open(base + ".json", "w") as out:
        json.dump(summary, out, indent=1)


def run_one(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        runner, values = measure_traced(w, args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    else:
        runner, values = measure(w, args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for line in runner.wrong[:10]:
        print("WRONG", line, file=sys.stderr)
    for line in runner.failures:
        print("FAILED", line, file=sys.stderr)
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one table per workload."""
    combined = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=harness.ROOT, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        combined[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"   {metric:36s} {value['value']:14.4f} {value['unit']}")
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "catseq", "__init__.py")):
        print(f"run.py: no catseq sources under {harness.SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
