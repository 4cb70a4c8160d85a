"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
beside this directory. The workload repeats whole rounds until ``--seconds``
have passed, checks the program's outputs, and prints
``{"correct", "attempted", "failed", "metrics"}`` as its last line. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
warm-up round is followed by pairs of untraced and traced rounds (at least
five pairs), the metrics are the per-layer ones, and the spans are written
to ``perfbench/out/trace/``. See README.md.
"""

import argparse
import itertools
import json
import os
import statistics
import sys
import time

CLOCK_START = time.perf_counter()


def _process_age_s() -> float:
    """Seconds since this process started (10 ms resolution on Linux)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        booted = time.clock_gettime(time.CLOCK_BOOTTIME)
        return booted - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - CLOCK_START


def _cap_blas_threads():
    """At most one BLAS thread per usable CPU; set before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cpus))
        except ValueError:
            wanted = cpus
        os.environ[var] = str(max(1, min(wanted, cpus)))


HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["reference", "swarm-search", "gradcheck"])
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: small shapes for the self-test")
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    _cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "ltpnet", "__init__.py")):
        print(f"error: no ltpnet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import resource
    from pathlib import Path

    import layers
    import tracing
    import workloads

    out = Path(HERE) / "out"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, out / args.workload)
    setup_s = _process_age_s()

    tracer = tracing.Tracer() if args.trace else None
    notes = layers.make_notes()
    rounds = []
    started = time.perf_counter()
    for trace_this in _schedule(bool(tracer)):
        if trace_this:
            tracer.install(layers.TARGETS, notes)
        events = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        try:
            record = workload.round()
        finally:
            if trace_this:
                tracer.uninstall()
        record["wall_s"] = time.perf_counter() - t0
        record["traced"] = trace_this
        record["events"] = (events, tracer.mark() if tracer else 0)
        rounds.append(record)
        print(f"round {len(rounds)}{' traced' if trace_this else ''}: "
              f"{record['wall_s']:.3f} s, main {record['main_s']:.3f} s", file=sys.stderr)
        if time.perf_counter() - started >= args.seconds and _complete(rounds, bool(tracer)):
            break

    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if tracer is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
            "work_per_s": (_median([r["work"] / r["main_s"] for r in rounds]), "1/s"),
            "forecast_windows_per_s": (
                _median([r["forecast_windows"] / r["forecast_s"] for r in rounds]), "windows/s"),
        }
    else:
        result = _traced_metrics(workload, tracer, rounds, out / "trace", args)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


MIN_PAIRS = 5


def _schedule(trace):
    """Whether each round is traced. A traced run does a warm-up round, then
    pairs of one untraced and one traced round, in alternating order
    (untraced first, then traced first) so that a drift in machine speed
    cancels out of the pairs."""
    if not trace:
        return itertools.repeat(False)
    return itertools.chain([False], itertools.cycle([False, True, True, False]))


def _complete(rounds, trace):
    return not trace or (len(rounds) % 2 == 1 and len(rounds) >= 1 + 2 * MIN_PAIRS)


def _traced_metrics(workload, tracer, rounds, trace_dir, args):
    import numpy as np

    import layers
    import tracing

    spans = tracer.spans()
    pairs = [
        (a, b) if b["traced"] else (b, a)
        for a, b in zip(rounds[1::2], rounds[2::2])
    ]
    result = layers.layer_metrics(tracer, spans, [t["events"][0] for _, t in pairs])
    result["pso.best_val_mse"] = (
        workload.best_value() if hasattr(workload, "best_value") else 0.0, "mse")

    # Each traced round against the untraced round of its pair.
    span_cost = tracing.span_cost_ns()
    for phase in ("main", "forecast"):
        shares = []
        for plain, traced in pairs:
            if phase in workload.phases:
                in_round = (spans["entry"] >= traced["events"][0]) & (spans["entry"] < traced["events"][1])
                phase_ns = layers.phase_ns(tracer, spans, in_round, span_cost)[phase]
                shares.append(phase_ns / 1e9 / plain[phase + "_s"])
        result[f"trace.{phase}_accounted_pct"] = (100.0 * _median(shares), "%")
    result["trace.overhead_pct"] = (
        100.0 * (_median([t["wall_s"] / p["wall_s"] for p, t in pairs]) - 1.0), "%")
    result["trace.spans"] = (int(spans["name"].size) / len(pairs), "count")
    result["trace.span_cost_ns"] = (span_cost, "ns")
    result["blas.gemm_ffn_gflops"] = (_gemm_ceiling(np), "GFLOP/s")

    trace_dir.mkdir(parents=True, exist_ok=True)
    np.savez(trace_dir / f"{args.workload}.npz", names=np.array(tracer.names), **spans)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": len(pairs),
        "rounds": rounds,
        "spans": layers.span_table(tracer, spans),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }
    (trace_dir / f"{args.workload}.json").write_text(json.dumps(summary, indent=1, default=str))
    return result


def _gemm_ceiling(np, repeats=15):
    """float64 GEMM GFLOP/s at the feed-forward shape of the reference
    model: (64 windows x 24 steps, 256) @ (256, 1024); median of repeats."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64 * 24, 256)), rng.standard_normal((256, 1024))
    a @ b
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        samples.append(time.perf_counter() - t0)
    return 2 * 64 * 24 * 256 * 1024 / _median(samples) / 1e9


if __name__ == "__main__":
    sys.exit(main())
