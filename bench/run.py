"""crosstill benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload pipeline_toy --seed 0 --seconds 20 --trace 0

The package is imported from `src/` of the current directory; nothing is
installed. Inputs are generated from `--seed` under `.bench_work/`. The run
repeats its workload's unit of work in a closed loop until `--seconds` have
passed (and at least the workload's minimum number of units has run),
checks every output, and prints three JSON lines: the environment, a report
with the workload's own figures under the names the project uses for them,
and last the result, `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones listed in
BENCHMARK.json. Their times are reference seconds: each stretch of program
time between two probe points (a set-up, a training step, an encode call
inside an evaluation, ...) is scaled by how long a fixed reference kernel
run around it took (see `instrument.ReferenceClock`). The report line also
gives the median unit and set-up times in plain seconds (`raw_wall_s`,
`raw_setup_s`).

With `--trace 1` the run times one unit untraced, then one set-up and one
unit with every layer's public functions wrapped, and the metrics are the
per-layer ones, in plain seconds; the spans are written to `.bench_work/`.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, so the caller's environment
# cannot change the numbers. The package's matrices are 64 wide, too small
# for a second BLAS thread to pay, and a thread waiting on a core that other
# work holds makes the time spread.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

SRC = Path("src")
WORK = Path(".bench_work")
# Set-up is timed in two batches, before and after the measured units, each
# lasting at least SETUP_MIN_S over at least SETUP_MIN_REPEATS set-ups, so its
# median samples more than one stretch of a shared machine's speed.
SETUP_MIN_S = 1.5
SETUP_MIN_REPEATS = 3

def _git_commit() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads_in_effect() -> int | None:
    """Ask each loaded OpenBLAS how many threads it will use."""
    found = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                count = int(fn())
                found = count if found is None else max(found, count)
                break
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": _CPUS,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_units(workload, tally, probe, seconds: float, min_units: int) -> list:
    units = []
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        try:
            units.append(workload.unit(tally, probe))
        except Exception as exc:  # a unit that raises counts as one failed operation
            tally.record(False, f"unit raised {type(exc).__name__}: {exc}")
            break
    return units


def _time_setups(workload, clock, times: list[float], raw_times: list[float]) -> None:
    start, count = time.perf_counter(), 0
    while count < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        t0, raw0 = clock.now(), clock.raw
        workload.setup()
        times.append(clock.now() - t0)
        raw_times.append(clock.raw - raw0)
        count += 1


def _throughput(units) -> float:
    busy = sum(u.busy_s for u in units)
    return sum(u.items for u in units) / busy if busy else 0.0


def _raw_throughput(units) -> float:
    raw = sum(u.raw_s for u in units)
    return sum(u.items for u in units) / raw if raw else 0.0


def end_to_end(units, setup_times) -> dict[str, float]:
    ops = [ms for u in units for ms in u.op_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": _throughput(units),
        "op_ms.p50": _percentile(ops, 50),
        "op_ms.p95": _percentile(ops, 95),
        "eval_s": statistics.median(u.eval_s for u in units) if units else 0.0,
        "wall_s": statistics.median(u.wall_s for u in units) if units else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crosstill" / "__init__.py").is_file():
        print(f"no crosstill sources under {SRC.resolve()}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))

    import crosstill.corpus
    import crosstill.losses
    from instrument import Probe, ReferenceClock, Tracer, layer_metrics
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())
    units_of = {key: {m["name"]: m["unit"] for m in declared[key]}
                for key in ("end_to_end", "per_layer")}
    declared_key = "per_layer" if args.trace else "end_to_end"

    root = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, args.seed)
    tally = Tally()

    setup_clock = ReferenceClock()
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    _time_setups(workload, setup_clock, setup_times, raw_setup_times)
    workload.check_once(tally)

    probe = Probe()
    with probe.installed():
        if args.trace:
            units = _run_units(workload, tally, probe, 0.0, 1)
        else:
            units = _run_units(workload, tally, probe, args.seconds, workload.min_units)
    _time_setups(workload, setup_clock, setup_times, raw_setup_times)
    metrics = end_to_end(units, setup_times)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "units": len(units),
        "op_samples": sum(len(u.op_ms) for u in units),
        "reference_samples": probe.clock.samples,
        "raw_wall_s": statistics.median(u.raw_s for u in units) if units else 0.0,
        "raw_setup_s": statistics.median(raw_setup_times),
        "metrics": {
            workload.aliases.get(name, name): {
                "value": value, "unit": units_of["end_to_end"][name],
            }
            for name, value in metrics.items()
        },
    }
    extra = workload.report(units)
    report["metrics"].update(extra.pop("metrics", {}))
    report.update(extra)

    if args.trace:
        tracer, traced_probe = Tracer(), Probe(reference=False)
        with traced_probe.installed(), tracer.installed():
            workload.setup()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            traced = _run_units(workload, tally, traced_probe, 0.0, 1)
            cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        tracer.count("losses.clamps", crosstill.losses.clamp_warning_count())
        tracer.count("corpus.unknown_tokens", crosstill.corpus.unknown_token_count())
        metrics = layer_metrics(tracer, traced_probe, cpu_s, wall_s)
        untraced_rate = _raw_throughput(units)
        metrics["trace.overhead_frac"] = (
            1.0 - _raw_throughput(traced) / untraced_rate if untraced_rate else 0.0
        )
        if args.workload == "pipeline_toy":
            stage_sum = sum(metrics[f"pipeline.stage_s.{k}"] for k in (1, 2, 3, 4))
            share = stage_sum / metrics["pipeline.run_s"] if metrics["pipeline.run_s"] else 0.0
            tally.record(0.95 <= share <= 1.0, f"stage times cover {share:.3f} of run_pipeline")
            report["stage_share"] = share
        if args.workload == "encode_bulk":
            idle = metrics["autodiff.backward_s"] == 0 and metrics["optim.steps"] == 0
            tally.record(idle, "encode_bulk ran a backward pass or an optimizer step")
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.npz")

    report["metrics"]["failed_frac"] = {
        "value": tally.failed / tally.attempted if tally.attempted else 1.0, "unit": "fraction",
    }
    report["failures"] = tally.failures
    declared_units = units_of[declared_key]
    missing = set(declared_units) ^ set(metrics)
    if missing:
        print(f"metrics and BENCHMARK.json {declared_key} disagree on {sorted(missing)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": declared_units[name]}
            for name, value in metrics.items()
        },
    }
    env = environment()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "report": report, "result": result}, indent=1))
    shutil.rmtree(root, ignore_errors=True)

    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
