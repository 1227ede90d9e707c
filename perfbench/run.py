"""Benchmark of the homothetics library, one workload per invocation.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  One process, one client, closed
loop: each op starts when the previous one has returned and its output
has been checked.  After five set-up probes (fresh processes, timed from
spawn to the end of their warm-up op) and the run's own set-up and
untimed warm-up op, whole passes of the workload's ops run until the next
pass would end after ``--seconds``.  Every op's output is checked outside
its latency.

``--trace 0`` reports the end-to-end metrics: ops_per_s (ops that passed
their check per second of op time, over whole passes), op_p50_ms (median
op latency), setup_s (median set-up of the probes) and peak_rss_mb.  It
also prints op_p90_ms, when at least 100 ops ran, and fail_frac.
``--trace 1`` runs pass 0 once untraced and once traced and reports the
per-layer metrics of ``tracing.PER_LAYER``, writing the spans to
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is the JSON result.  ``perfbench/out/result-*.json`` keeps
every op's latency, the environment and the failures of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_library() -> None:
    # BLAS reads this when numpy is first imported.  With two threads the
    # first small polytope solves of a process took 0.47-0.49 s each.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "homothetics" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import homothetics

    if Path(homothetics.__file__).resolve().parent != SRC / "homothetics":
        raise SystemExit(f"perfbench: imported homothetics from {homothetics.__file__}")


def _set_up(workload_cls, seed: int):
    """Build the workload, generate pass 0 and run the warm-up op."""
    workload = workload_cls(seed)
    ops = workload.pass_ops(0)
    workload.warmup().run()
    return workload, ops


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd + ["--setup-probe"], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _reference_ms() -> float:
    """Median time of a fixed pure-Python plus numpy loop: a diagnostic of
    host speed, taken at the start and end of each run."""
    import numpy as np

    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i % 7 * i
        a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
        for _ in range(20):
            a = np.tanh(a @ a.T / 160.0)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


class PassResult:
    def __init__(self):
        self.ops: list[tuple[str, float, bool]] = []  # label, seconds, output correct
        self.failures: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [t for _, t, ok in self.ops if ok]

    @property
    def op_seconds(self) -> float:
        return sum(t for _, t, _ in self.ops)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.op_seconds if self.ops else 0.0


def _run_pass(ops, tracer=None) -> PassResult:
    res = PassResult()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a failed op is counted and the run goes on
            res.ops.append((op.label, time.perf_counter() - start, False))
            res.failures.append(f"{op.label}: {traceback.format_exc()}")
            continue
        elapsed = time.perf_counter() - start
        bad = op.check(out)
        res.ops.append((op.label, elapsed, not bad))
        if bad:
            res.failures.append(f"{op.label}: " + "; ".join(bad))
    return res


def _timed_passes(workload, ops, seconds: float) -> list[PassResult]:
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(_run_pass(ops))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes
        ops = None  # free this pass's inputs before drawing the next
        ops = workload.pass_ops(len(passes))


def _median_ms(latencies: list[float]) -> float:
    """Harrell-Davis estimate of the median, in ms: the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) distribution over their ranks.  A
    workload mixes cells whose latencies differ by orders of magnitude, and
    the plain sample median of such a mix jumps across the gap between two
    cells (22% spread over five polytope-scale seeds, against 10% here)."""
    import numpy as np

    x = np.sort(latencies)
    n = len(x)
    a = (n + 1) / 2.0
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t * (1.0 - t))
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x / weights.sum()) * 1e3


def _end_to_end(passes, setup_samples) -> tuple[dict, dict, dict]:
    lat = [t for p in passes for t in p.latencies]
    op_seconds = sum(p.op_seconds for p in passes)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values = {
        "ops_per_s": len(lat) / op_seconds if op_seconds > 0 else 0.0,
        "op_p50_ms": _median_ms(lat) if lat else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": f"{len(lat)} ops passed in {op_seconds:.6g} s of op time, "
        f"{len(passes)} whole passes",
        "op_p50_ms": f"n={len(lat)}",
        "setup_s": f"median of {len(setup_samples)} fresh processes: "
        + ", ".join(f"{s:.4g}" for s in setup_samples),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    # Printed only: a p90 needs at least 10 samples beyond it, and
    # fail_frac reads 0 on a healthy run.
    extra = {
        "op_p90_ms": (
            f"{statistics.quantiles(lat, n=10)[8] * 1e3:.6g} ms (n={len(lat)})"
            if len(lat) >= 100
            else f"n/a (n={len(lat)} < 100)"
        ),
        "fail_frac": f"{failed / attempted:.6g} ratio ({failed} / {attempted})",
    }
    return values, notes, extra


def _traced(ops, stem: str) -> tuple[list, dict, dict, dict]:
    """Pass 0 untraced, then traced; the per-layer metrics of the traced
    pass."""
    import tracing

    untraced = _run_pass(ops)
    with tracing.Tracer() as tracer:
        traced = _run_pass(ops, tracer)
    spans_path = OUT / f"spans-{stem}.json"
    tracer.write(spans_path)
    values, notes = tracing.layer_metrics(tracer.spans, traced.op_seconds)
    values["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    notes["trace.overhead_frac"] = (
        f"1 - {traced.ops_per_s:.6g} traced ops/s / {untraced.ops_per_s:.6g} untraced ops/s"
    )
    return [untraced, traced], values, notes, {"spans": str(spans_path.relative_to(HERE.parent))}


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; known: {', '.join(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        _set_up(workload_cls, args.seed)
        print("ready", flush=True)
        return 0

    if not args.trace:
        setup_samples = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload, ops = _set_up(workload_cls, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref = [_reference_ms()]
    if args.trace:
        passes, values, notes, extra = _traced(ops, stem)
        ref.append(_reference_ms())
        values["machine.ref_ms"] = statistics.mean(ref)
        units = dict(tracing.PER_LAYER)
    else:
        passes = _timed_passes(workload, ops, args.seconds)
        ref.append(_reference_ms())
        values, notes, extra = _end_to_end(passes, setup_samples)
        units = dict(END_TO_END)

    attempted = sum(len(p.ops) for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = _environment(args.seed)
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops {attempted}  failed {len(failures)}")
    print("# " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"# machine.ref_ms start {ref[0]:.4f} end {ref[1]:.4f}")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"{name:44s} {values[name]:.8g} {unit}" + (f"  ({note})" if note else ""))
    for name, text in extra.items():
        print(f"{name:44s} {text}")
    for f in failures[:5]:
        print(f"# FAILED {f}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump(
            {
                **result,
                "environment": env,
                "ref_ms": ref,
                "notes": {**notes, **extra},
                "failures": failures,
                "ops": [p.ops for p in passes],
            },
            f,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
