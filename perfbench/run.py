"""Run one siac benchmark workload and print its metrics.

    python3 perfbench/run.py --workload boundary_1d --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  With `--trace 0` the run repeats
untraced passes over the workload's cell list for about `--seconds` seconds
and reports the end-to-end metrics.  With `--trace 1` it alternates untraced
and traced passes and reports the per-layer metrics, the tracing overhead
among them.  Every pass goes through the output gate.  Times are reported
rescaled to a reference host speed, measured by a probe timed between cells;
the measured values are printed next to them.  The last line of standard
output is one JSON object; a result file with the environment record, the
measured values (and, for traced runs, the span dump) goes to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups per run; setup_s is their median
SETUP_REPS = 5
# one BLAS thread (at most nproc): the workloads multiply small blocks, and a
# second thread on a shared two-core machine only adds noise
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The shared host's speed drifts up to 2x within a run and between runs, for
# every process alike (CPU time drifts with wall time).  A fixed probe timed
# between cells measures that drift; the reported times are rescaled to the
# host speed at which the probe takes PROBE_REF_S.
PROBE_REF_S = 0.002

END_TO_END = (
    ("sweep_s", "s"),
    ("cell_s.p50", "s"),
    ("setup_s", "s"),
    ("pass_frac", "ratio"),
    ("ref_ratio.worst", "ratio"),
    ("peak_rss_mb", "MB"),
)


def purge_package() -> None:
    """Forget every imported siac module, so the next set-up imports afresh."""
    for name in [m for m in sys.modules if m == "siac" or m.startswith("siac.")]:
        del sys.modules[name]


def source_fingerprint() -> dict:
    """The git commit when the checkout has one, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "siac_threads": os.environ.get("SIAC_THREADS", "default"),
        "machine": platform.machine(),
        "seed": seed,
        **source_fingerprint(),
    }


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter and numpy work."""
    import numpy as np

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(1, i * i)
    v, m = np.linspace(0.0, 1.0, 48), np.full((48, 48), 1.0 / 48)
    for _ in range(400):
        v = np.sin(v) @ m
    return time.perf_counter() - t0


def run_pass(workload, tracer=None) -> dict:
    """One pass over the cell list: outputs, errors, cell and probe times.

    The host-speed probe runs after every cell, outside the cell's time and
    outside any span.  The pass time is the sum of the cell times.
    """
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    outputs, errors, cell_s, probe_s = {}, {}, [], []
    for cell_id, fn in workload.cells:
        if tracer is not None:
            tracer.cell = cell_id
        t0 = time.perf_counter()
        with span("bench.cell"):
            try:
                outputs[cell_id] = fn()
            except Exception:  # a failing cell is counted, and the sweep goes on
                errors[cell_id] = traceback.format_exc()
        cell_s.append(time.perf_counter() - t0)
        probe_s.append(probe())
    return {"outputs": outputs, "errors": errors, "cell_s": cell_s, "sweep_s": sum(cell_s), "probe_s": probe_s}


def gate_pass(workload, result: dict) -> tuple[set, list]:
    """Failed cell ids and every check of one pass."""
    checks = workload.gate(result["outputs"])
    failed = {c.cell for c in checks if not c.ok} | set(result["errors"])
    return failed, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "siac" / "__init__.py").is_file():
        print(f"error: no siac package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mpmath  # noqa: F401  dependencies load once; set-up times the package itself
    import numpy  # noqa: F401

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    setup_s, probes = [], []
    for _ in range(SETUP_REPS):
        purge_package()
        t0 = time.perf_counter()
        workload = workloads.setup(args.workload, args.seed)
        setup_s.append(time.perf_counter() - t0)
        probes.append(probe())
    import siac

    if Path(siac.__file__).resolve().parent != SRC / "siac":
        print(f"error: siac imported from {siac.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    results, traced, layer_passes = [], [], []
    tracer, counts = spans.Tracer(), layers.LayerCounts()
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        results.append(run_pass(workload))
        if args.trace:
            first = len(tracer.spans)
            counts.reset()
            with tracer.installed(lambda t: layers.install(t, counts)):
                traced.append(run_pass(workload, tracer))
            layer_passes.append(layers.pass_metrics(tracer, first, counts))
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # the next pass would overrun the run
            break

    attempted = failed = 0
    bad_checks, ratios = [], []
    for result in results + traced:
        failed_cells, checks = gate_pass(workload, result)
        attempted += len(workload.cells)
        failed += len(failed_cells)
        ratios += [c.ratio for c in checks if c.ratio is not None]
        bad_checks += [c for c in checks if not c.ok]
    for c in workload.setup_checks:
        if not c.ok:
            bad_checks.append(c)
    # tracing must be transparent: the traced outputs equal the untraced ones bit for bit
    reference = results[0]["outputs"]
    transparent = all(t["outputs"] == reference for t in traced)

    sweeps = [r["sweep_s"] for r in results]
    cells = [t for r in results for t in r["cell_s"]]
    probes += [t for r in results + traced for t in r["probe_s"]]

    def rescaled_sweep(passes):
        # each pass at the host speed its own probes saw, so drift between
        # passes does not pass for tracing overhead
        return statistics.median(r["sweep_s"] / statistics.fmean(r["probe_s"]) for r in passes)

    if args.trace:
        measured = {
            name: statistics.median(p[name] for p in layer_passes)
            for name, _, _ in layers.METRICS
            if name != "trace.overhead_frac"
        }
        measured["trace.overhead_frac"] = rescaled_sweep(traced) / rescaled_sweep(results) - 1.0
        units = {name: unit for name, unit, _ in layers.METRICS}
    else:
        measured = {
            # the mean over passes: host speed drifts between passes, and a
            # run's mean spreads less across runs than its median
            "sweep_s": statistics.fmean(sweeps),
            "cell_s.p50": statistics.median(cells),
            "setup_s": statistics.median(setup_s),
            "pass_frac": (attempted - failed) / attempted,
            "ref_ratio.worst": max(ratios, default=0.0),  # 0 only when nothing could be compared
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    # host slowdown over the run: > 1 when the host ran slower than the reference
    slowdown = statistics.fmean(probes) / PROBE_REF_S
    rescale = {"s": 1.0 / slowdown, "1/s": slowdown}
    metrics = {name: v * rescale.get(units[name], 1.0) for name, v in measured.items()}

    notes = {
        "sweep_s": f"mean of {len(sweeps)} untraced passes",
        "cell_s.p50": f"median of {len(cells)} cells",
        "setup_s": f"median of {len(setup_s)} set-ups",
        "pass_frac": f"{attempted - failed} of {attempted} cells passed; {failed} failed",
        "ref_ratio.worst": f"over {len(ratios)} reference comparisons",
        "trace.overhead_frac": f"{len(traced)} traced against {len(results)} untraced passes",
        "dgsolver.rk4_steps": "computed from stable_dt and the final time",
    }
    print(f"workload {args.workload}  seed {args.seed}  amplitude {workload.amplitude:.6g}  phase {workload.phase:.6g}")
    print(f"  host slowdown {slowdown:.4g}: mean of {len(probes)} probes {1e3 * statistics.fmean(probes):.4g} ms, "
          f"reference {1e3 * PROBE_REF_S:.4g} ms; times below are rescaled, measured values in brackets")
    for name, value in metrics.items():
        note = notes.get(name, "per traced pass" if args.trace else "")
        raw = f"[{measured[name]:.6g}]" if units[name] in rescale else ""
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} {raw:<14} {note}")
    for c in bad_checks:
        print(f"  FAIL {c.cell}: {c.name}: {c.detail}")
    for result in results + traced:
        for cell_id, tb in result["errors"].items():
            print(f"  ERROR {cell_id}:\n{tb}")
    if not transparent:
        print("  FAIL tracing changed the outputs")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "amplitude": workload.amplitude,
        "phase": workload.phase,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "measured": measured,
        "host_slowdown": slowdown,
        "probe_s": probes,
        "notes": notes,
        "setup_s": setup_s,
        "sweep_s": sweeps,
        "cell_ids": [cell_id for cell_id, _ in workload.cells],
        "cell_s": [r["cell_s"] for r in results],
        "layer_passes": layer_passes,
        "failed_checks": [c.__dict__ for c in bad_checks],
        "errors": [r["errors"] for r in results + traced],
        "outputs": reference,
    }
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json")

    correct = failed == 0 and not bad_checks and transparent
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
