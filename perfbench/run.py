"""Run one margincal benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ablation --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # each workload in its own process
    python3 perfbench/run.py --workload sweep --seeds 0-9   # one process per seed, then spreads
    python3 perfbench/run.py --write-manifest          # regenerate BENCHMARK.json

Run from the root of a margincal checkout; margincal is imported from its
``src/``.  The run sets up the workload three times and times the imports in
five fresh interpreters (``setup_s`` is the median import plus the median
set-up), then repeats the timed iteration until ``--seconds`` have passed,
checking every iteration's outputs.  Untraced set-ups, imports and
iterations run under ``speed.SpeedProbe``, and their times are reported at
the probe's nominal machine speed.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run alternates untraced and traced iterations so that it can state its
own tracing overhead.  Details, and the spans of a traced run, go to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the other imports: they count in setup_s

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import spec
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_REPS = 3
IMPORT_REPS = 5
#: what a fresh interpreter imports before the first timed call; it prints
#: the imports' normalised seconds (numpy is not loaded yet, so the probe
#: uses its pure-Python kernel).
IMPORT_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:]; import speed\n"
    "probe = speed.SpeedProbe(speed.python_kernel, speed.PYTHON_NOMINAL_S)\n"
    "with probe: import tracing, workloads\n"
    "print(probe.normalised_s)"
)
#: one BLAS thread keeps the process single-threaded, which is within nproc
#: and steadier on a shared machine; the BLAS share of a step is small.
BLAS_THREADS = "1"
WORKLOAD_TIMEOUT_S = 900


def add_sources(root: Path = ROOT) -> bool:
    """Put the checkout's ``src/`` first on sys.path; False if it holds no margincal."""
    src = root / "src"
    if not (src / "margincal" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


@dataclass
class Iteration:
    wall_s: float
    traced: bool
    outcome: object
    #: seconds of this iteration times scale = normalised seconds (1 if traced)
    scale: float = 1.0


@dataclass
class Measurement:
    setup_s: list  # normalised, or wall seconds in a traced run
    iterations: list

    @property
    def attempted(self) -> int:
        return sum(len(it.outcome.failures) for it in self.iterations)

    @property
    def failed(self) -> int:
        return sum(1 for it in self.iterations for msgs in it.outcome.failures.values() if msgs)

    def walls(self, traced: bool) -> list:
        return [it.wall_s for it in self.iterations if it.traced == traced]


def measure(workload, seed: int, seconds: float, out_dir: Path, tracer=None,
            references=None) -> Measurement:
    """Set up SETUP_REPS times, then iterate until ``seconds`` have passed.

    With a tracer, iterations alternate untraced / traced (at least one each)
    and the wrappers are installed only during set-up and traced iterations.
    Without one, set-ups and iterations run under a SpeedProbe; a traced run
    uses none, so the probe shows neither in a span nor in trace.overhead.
    """
    from workloads import apply_references

    setup_s = []
    for _ in range(SETUP_REPS):
        if tracer:
            tracer.install()
            started = time.perf_counter()
            try:
                workload.setup(seed, out_dir)
            finally:
                setup_s.append(time.perf_counter() - started)
                tracer.uninstall()
        else:
            with speed.SpeedProbe() as probe:
                workload.setup(seed, out_dir)
            setup_s.append(probe.normalised_s)
    iterations = []
    begun = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            tracer.phase = "iter"
            tracer.install()
            started = time.perf_counter()
            try:
                with tracer.root():
                    raw = workload.body()
            finally:
                wall, scale = time.perf_counter() - started, 1.0
                tracer.uninstall()
        elif tracer:  # the untraced half of a traced run: plain wall time
            started = time.perf_counter()
            raw = workload.body()
            wall, scale = time.perf_counter() - started, 1.0
        else:
            with speed.SpeedProbe() as probe:
                raw = workload.body()
            wall, scale = probe.wall_s, probe.normalise(1.0)
        outcome = workload.check(raw)
        del raw
        if references:
            apply_references(outcome, references)
        iterations.append(Iteration(wall, traced, outcome, scale))
        if len(iterations) >= (2 if tracer else 1) and time.perf_counter() - begun >= seconds:
            return Measurement(setup_s, iterations)


def import_times(reps: int = IMPORT_REPS) -> list:
    """Normalised seconds the imports take in each of ``reps`` fresh interpreters, one after another."""
    paths = [str(Path(__file__).resolve().parent), str(ROOT / "src")]
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, *paths], check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(reps)]


def rate(it: Iteration) -> float:
    o = it.outcome
    return o.work / (o.work_s if o.work_s is not None else it.wall_s)


def end_to_end(m: Measurement, import_s: float) -> dict:
    """The untraced run's metrics.  Times and rates are speed-normalised
    (see speed.py) and are the median over the run's iterations."""
    untraced = [it for it in m.iterations if not it.traced]
    return {
        "setup_s": import_s + statistics.median(m.setup_s),
        "norm_wall_s": statistics.median(it.wall_s * it.scale for it in untraced),
        "norm_work_per_s": statistics.median(rate(it) / it.scale for it in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - m.failed / m.attempted,
    }


def _blas_threads():
    """OpenBLAS's own thread count, or the environment setting if it cannot be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "commit": commit,
    }


def _print_e2e(workload, metrics: dict, m: Measurement) -> None:
    units = {n: u for n, u, _, _ in spec.END_TO_END}
    untraced = [it for it in m.iterations if not it.traced]
    counts = {
        "setup_s": f"median of {IMPORT_REPS} imports + median of {len(m.setup_s)} set-ups",
        "norm_wall_s": f"median of {len(untraced)} iterations; wall time "
                       f"{statistics.median(it.wall_s for it in untraced):.6g} s",
        "norm_work_per_s": f"= {workload.rate_name} in {workload.rate_unit}, median of "
                           f"{len(untraced)}; at wall speed "
                           f"{statistics.median(rate(it) for it in untraced):.6g}",
        "ok_share": f"fail_share {m.failed / m.attempted:g} ({m.failed} of {m.attempted} operations)",
    }
    for name, value in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {units[name]:<6} {counts.get(name, '')}")
    print(f"  notes: {json.dumps(untraced[-1].outcome.notes, default=str)[:600]}")


def _print_layers(metrics: dict, spans: list) -> None:
    import tracing

    units = {n: u for n, u, _ in spec.PER_LAYER}
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    rows = tracing.stage_table(spans)
    if rows:
        print("  stage table (spans inside trainer.train; evaluate on the val split):")
        for stage, calls, ms, ns_px in rows:
            print(f"    {stage:<30} {calls:>5} calls {ms:>10.2f} ms {ns_px:>9.1f} ns/px")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import tracing
    import workloads  # imports margincal from the checkout

    own_import_s = time.perf_counter() - STARTED
    env = environment()
    print(json.dumps({"env": env}))
    references = None
    if seed == spec.DEFAULT_SEED and REFERENCES.is_file():
        references = json.loads(REFERENCES.read_text()).get(name)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOAD_TYPES[name]()
    tracer = tracing.Tracer() if trace else None
    import_s = [] if trace else import_times()
    m = measure(workload, seed, seconds, OUT_DIR, tracer, references)
    if trace:
        metrics = tracing.per_layer(tracer.spans, m.walls(True), m.walls(False), spec.LAYERS)
    else:
        metrics = end_to_end(m, statistics.median(import_s))
    mode = "traced" if trace else "untraced"
    print(f"{name} seed={seed} {mode}: {len(m.iterations)} iterations in {sum(it.wall_s for it in m.iterations):.1f} s"
          f", references {'checked' if references else 'none recorded for this workload and seed'}")
    if trace:
        _print_layers(metrics, tracer.spans)
    else:
        _print_e2e(workload, metrics, m)
    failures = [(i, op, msg) for i, it in enumerate(m.iterations)
                for op, msgs in it.outcome.failures.items() for msg in msgs]
    for i, op, msg in failures[:20]:
        print(f"  FAILED iteration {i} {op}: {msg}")
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
        "own_import_s": own_import_s, "import_s": import_s, "setup_s": m.setup_s, "metrics": metrics,
        "iterations": [{"wall_s": it.wall_s, "scale": it.scale, "traced": it.traced,
                        "failures": it.outcome.failures,
                        "observed": it.outcome.observed, "notes": it.outcome.notes}
                       for it in m.iterations],
    }
    if trace:
        details["stage_table"] = tracing.stage_table(tracer.spans)
        details["spans"] = tracer.spans
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(details, default=str))
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def seeds_of(text: str) -> list:
    """``"3"`` or ``"0-9"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list) -> dict:
    """Median, quartiles and quartile distance over median of each metric across runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def run_many(names: list, seeds: list, seconds: float, trace: bool) -> int:
    """Each (workload, seed) in its own process, one after another, then the spreads."""
    status = 0
    summary = {}
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    for name in names:
        results = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=ROOT, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            result = json.loads(lines[-1])
            results.append(result)
            status |= not result["correct"]
            values = " ".join(f"{k}={v['value']:.5g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} {values}", flush=True)
        summary[name] = summarise(results)
        for metric, s in summary[name].items():
            bound = f"bound {bounds[metric]}" if metric in bounds else ""
            print(f"  {metric:<32} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} iqr/median {s['iqr_share']:.4f} {bound}", flush=True)
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seeds", help="a seed range such as 0-9: one process per seed, "
                        "then each metric's median and spread")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not add_sources():
        print(f"perfbench: no margincal sources under {ROOT / 'src'}; run from a margincal checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all" or args.seeds:
        names = [n for n, _ in spec.WORKLOADS] if args.workload == "all" else [args.workload]
        seeds = seeds_of(args.seeds) if args.seeds else [args.seed]
        return run_many(names, seeds, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
