"""Benchmark of AEkNN training, the plain-kNN scan and the `eval` baseline
sweep.

    python3 bench/run.py --workload ae-semeion --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports `aeknn` from its `src`
directory. The BLAS thread count is fixed at one before numpy loads. The
import time is the median over a few fresh interpreters, and the workload is
set up several times. Then its timed round repeats for as long as another
round still fits into `--seconds` (at least twice), and the correctness
checks run on the last round outside the timed region. The last line of
standard output is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run that
alternates untraced and traced rounds. A record with every round, the
checks and the machine's CPU and BLAS facts goes to `bench/out/`.
"""

from __future__ import annotations

import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# what `main` imports before its first timed call, timed in a fresh interpreter
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import numpy, scipy
sys.path[:0] = sys.argv[1:]
import spans, workloads
print(time.perf_counter() - t0)
"""
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("ae-semeion", "knn-semeion", "eval-baselines")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its own API."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                found[os.path.basename(path)] = function()
                break
    return found


def _environment(numpy, scipy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_runtime_threads": _blas_runtime_threads(),
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def _import_times() -> list[float]:
    """Import times of fresh interpreters, one after the other; a single
    in-process import is one cold shot and scatters too much to report."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC_DIR, BENCH_DIR],
                               capture_output=True, text=True, check=True, timeout=60)
        times.append(float(probe.stdout.split()[-1]))
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(workload, args, workdir, spans):
    """Set up, run rounds until the time is up, check the last round."""
    setup_times = []
    tracer = spans.Tracer() if args.trace else None
    setup_trace = {}
    missing = []
    for repeat in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        traced = tracer is not None and repeat == SETUP_REPEATS - 1
        patches = spans.Patches(tracer) if traced else None
        t0 = time.perf_counter()
        try:
            state = workload.setup(args.seed, workdir)
        finally:
            setup_times.append(time.perf_counter() - t0)
            if patches is not None:
                patches.close()
                setup_trace = {**tracer.seconds, **tracer.counts}
                missing = patches.missing

    rounds, untraced_walls, traced_walls, traced_layers = [], [], [], []
    start = time.perf_counter()
    index = 0
    for step in itertools.count():
        step_start = time.perf_counter()
        if tracer is None:
            order = (False,)
        else:  # a traced run pairs rounds and alternates which goes first
            order = (False, True) if step % 2 == 0 else (True, False)
        for traced in order:
            patches = None
            if traced:
                tracer.reset()
                patches = spans.Patches(tracer)
            try:
                result = workload.round(state, index)
            finally:
                if patches is not None:
                    patches.close()
            index += 1
            rounds.append(result)
            if traced:
                traced_walls.append(result.wall_s)
                traced_layers.append({**tracer.seconds, **tracer.counts})
            elif tracer is not None:
                untraced_walls.append(result.wall_s)
        # stop when another step would overrun the run, after two rounds at least
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - step_start) > args.seconds:
            break
    peak_rss = _peak_rss_mb()

    errors = []
    try:
        errors = workload.check(state, rounds[-1])
    except Exception:  # a crashing check is a failed check, reported in full
        errors = ["check raised:\n" + traceback.format_exc()]
    qualities = {r.quality for r in rounds if r.failed == 0}
    if len(qualities) > 1:
        errors.append(f"metrics differ between rounds of one seed: {sorted(qualities)}")
    return {
        "setup_times": setup_times,
        "rounds": rounds,
        "peak_rss_mb": peak_rss,
        "errors": errors,
        "setup_trace": setup_trace,
        "traced_layers": traced_layers,
        "untraced_walls": untraced_walls,
        "traced_walls": traced_walls,
        "missing": missing,
    }


def _end_to_end(import_times, measured):
    rounds = measured["rounds"]
    accuracy, fscore, auc = rounds[-1].quality
    return {
        "setup_s": (statistics.median(import_times) + statistics.median(measured["setup_times"]),
                    "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "classify_s": (statistics.median(r.classify_s for r in rounds), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MiB"),
        "accuracy": (accuracy, "ratio"),
        "fscore": (fscore, "ratio"),
        "auc": (auc, "ratio"),
    }


def _per_layer(measured, spans):
    """Per-layer totals of one traced set-up plus the median traced round;
    a metric whose every patch target is gone is reported as null."""
    missing_metrics = set(spans.unmeasured_metrics(measured["missing"]))
    metrics = {}
    for name, unit in spans.METRICS.items():
        if name in missing_metrics:
            metrics[name] = (None, unit)
            continue
        per_round = statistics.median(layer.get(name, 0) for layer in measured["traced_layers"])
        total = measured["setup_trace"].get(name, 0) + per_round
        metrics[name] = (float(total) if unit == "s" else total, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(measured["traced_walls"]) - statistics.median(measured["untraced_walls"]),
        "s",
    )
    metrics["trace.missing_targets"] = (len(measured["missing"]), "count")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    args.seed %= 2**32  # numpy seeds are non-negative
    if not os.path.isfile(os.path.join(SRC_DIR, "aeknn", "__init__.py")):
        print(f"error: no aeknn sources under {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import numpy
    import scipy

    import spans
    import workloads

    import_times = [] if args.trace else _import_times()

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        measured = _measure(workload, args, workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = _per_layer(measured, spans) if args.trace else _end_to_end(import_times, measured)
    rounds = measured["rounds"]
    result = {
        "correct": not measured["errors"],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(numpy, scipy),
        "import_times": import_times,
        "setup_times": measured["setup_times"],
        "rounds": [{"wall_s": r.wall_s, "classify_s": r.classify_s, "attempted": r.attempted,
                    "failed": r.failed, "quality": r.quality} for r in rounds],
        "untraced_walls": measured["untraced_walls"],
        "traced_walls": measured["traced_walls"],
        "missing_targets": measured["missing"],
        "errors": measured["errors"],
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    env = record["environment"]
    print(f"{args.workload}: nproc {env['nproc']}, BLAS {env['blas'].get('name')} "
          f"{env['blas'].get('version')}, runtime threads {env['blas_runtime_threads']}, "
          f"{len(rounds)} rounds, record {os.path.relpath(record_path)}", file=sys.stderr)
    for target in measured["missing"]:
        print(f"unmeasured: {target} not found", file=sys.stderr)
    for error in measured["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
