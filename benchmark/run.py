"""Benchmark of the ``higgspairs`` command, run from the repository root:

    python3 benchmark/run.py --workload betti-ladder --seed 1 --seconds 35 --trace 0

One process, one closed-loop caller: passes over the workload's operations
run back to back until ``--seconds`` have passed, and every pass runs to
its end.  Each output is checked by ``oracles``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles
import tracing
import workloads

MIN_SETUPS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, {here!r}); import workloads; "
    "workloads.load_program(); workloads.build({name!r}, {seed}); print('ready', flush=True)"
)


# Timings are reported in reference seconds: wall seconds times
# PROBE_REF_S over the run's median probe time.  The probe is fixed work
# owned by the benchmark, so it tracks the machine's speed and not the
# program's; see "Steady timing" in README.md.
PROBE_REF_S = 0.007
PROBE_EVERY_S = 0.25
# Unit-modulus entries keep every round bounded; numpy.random stays
# unloaded because it alone adds about 6 MB to the resident set.
_SMALL = np.exp(1j * np.arange(1024.0)).reshape(16, 16, 2, 2)
_LARGE = np.exp(1j * np.arange(4096.0)).reshape(64, 64, 1, 1)


def probe() -> float:
    """Seconds for three slices of fixed work, about 2.4 ms each here:
    interpreter dict updates, small batched matmuls and 64x64 FFTs, the
    three kinds of work the program's layers do."""
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(6000):
            key = (i % 61, i % 7)
            table[key] = table.get(key, 0) + i * i
        x = _SMALL
        for _ in range(20):
            x = (np.roll(x, 1, axis=0) @ _SMALL) * 0.5
        y = _LARGE
        for _ in range(9):
            d = np.roll(y, 1, axis=0) - np.roll(y, -1, axis=1)
            y = np.fft.ifft2(np.fft.fft2(d, axes=(0, 1)), axes=(0, 1)) * 0.5 + y * 0.5
            float(np.sum(np.abs(y) ** 2))
        return perf_counter() - start
    finally:
        gc.enable()


def measure_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its first operation is ready."""
    code = SETUP_CODE.format(here=str(HERE), name=name, seed=seed)
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child for {name} exited with code {proc.returncode}")
    return elapsed


def call(cli, op) -> tuple[float, int, str]:
    """Run one operation in-process: (wall seconds, exit code, stdout)."""
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv())
    return perf_counter() - start, code, buf.getvalue()


def per_layer(wl, samples: dict, sym_s: list[float]) -> dict[str, tuple[str, float]]:
    """Per-layer metrics from traced operations: {class: [(OpStats, report)]}.

    Each value is the median over the class's traced operations; a layer
    that the workload does not reach reads 0.
    """
    small, large = samples[wl.small], samples[wl.large]

    def med(rows, f) -> float:
        return statistics.median(f(st, rep) for st, rep in rows)

    def per(n: float, d: float) -> float:
        return n / d if d else 0.0

    def iters(rep) -> int:
        return rep.get("iterations", 0)

    return {
        "cli.main.self_s": ("s/op", med(small, lambda st, r: st.self_s("cli"))),
        "series.calls": ("count/report", med(large, lambda st, r: st.calls("series"))),
        "series.self_s": ("s/report", med(large, lambda st, r: st.self_s("series"))),
        "betti.pairs_poincare_n0.calls": (
            "count/report", med(large, lambda st, r: st.calls("betti.pairs_poincare_n0"))),
        "betti.stratum_poincare.calls": (
            "count/stratum",
            med(large, lambda st, r: per(st.calls("betti.stratum_poincare"), len(r.get("strata", ()))))),
        "betti.theorem_extraction.calls": (
            "count/report", med(large, lambda st, r: st.calls("betti.theorem_extraction"))),
        "betti.pairs_poincare_n0.call_s": (
            "s/call", med(large, lambda st, r: st.call_s("betti.pairs_poincare_n0"))),
        "betti.stratum_poincare.call_s": (
            "s/call", med(large, lambda st, r: st.call_s("betti.stratum_poincare"))),
        "betti.theorem_extraction.self_s": (
            "s/call",
            med(large, lambda st, r: per(st.self_s("betti.theorem_extraction"),
                                         st.calls("betti.theorem_extraction")))),
        "betti.sym_poincare.call_s": ("s/call", statistics.median(sym_s) if sym_s else 0.0),
        "strata.calls": ("count/report", med(small, lambda st, r: st.calls("strata"))),
        "stability.validate_params.calls": (
            "count/report", med(small, lambda st, r: st.calls("stability.validate_params"))),
        "vortex.solve.iterations.small": ("count/solve", med(small, lambda st, r: iters(r))),
        "vortex.solve.iterations.large": ("count/solve", med(large, lambda st, r: iters(r))),
        "vortex.residual_energy.per_iter": (
            "calls/iteration",
            med(large, lambda st, r: per(st.calls("vortex.residual_energy"), iters(r)))),
        "vortex.residual_gradient.per_iter": (
            "calls/iteration",
            med(large, lambda st, r: per(st.calls("vortex.residual_gradient"), iters(r)))),
        "vortex.residual_energy.call_s.large": (
            "s/call", med(large, lambda st, r: st.call_s("vortex.residual_energy"))),
        "vortex.residual_gradient.call_s.large": (
            "s/call", med(large, lambda st, r: st.call_s("vortex.residual_gradient"))),
        "vortex.solve.self_s.large": ("s/solve", med(large, lambda st, r: st.self_s("vortex.solve"))),
        "vortex.solve.residual.small": ("1", med(small, lambda st, r: r.get("residual", 0.0))),
        "vortex.solve.residual.large": ("1", med(large, lambda st, r: r.get("residual", 0.0))),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = workloads.load_program()
    wl = workloads.build(name, seed)
    tracer, sym_args = None, None
    if trace:
        from higgspairs import betti, series, stability, strata, vortex

        tracer = tracing.Tracer()
        tracer.install({"series": series, "betti": betti, "strata": strata,
                        "stability": stability, "vortex": vortex, "cli": cli})
        big = next(op for op in wl.ops if op.cls == wl.large)
        if isinstance(big, workloads.BettiOp):
            # The Macdonald coefficient at the large class's biggest (n, g).
            rows = oracles.strata_table(big.g, big.k, big.tau_bar)
            sym_args = (max(max(r["n1"], r["n2"]) for r in rows), big.g)

    setups: list[float] = []
    pass_s: list[float] = []
    op_s: dict[str, list[float]] = {}
    samples: dict[str, list] = {}
    sym_s: list[float] = []
    probes: list[float] = []
    n_probes = 1
    attempted = failed = 0
    correct = True
    deadline = perf_counter() + seconds
    while not pass_s or perf_counter() < deadline:
        setups.append(measure_setup(name, seed))
        total = 0.0
        for op in wl.pass_order(seed, len(pass_s)):
            probes.extend(probe() for _ in range(n_probes))
            attempted += 1
            lo = len(tracer.spans) if tracer else 0
            try:
                elapsed, code, out = call(cli, op)
                report = json.loads(out) if code == 0 else {}
                problems, missed = op.check(report) if code == 0 else ([f"exit code {code}"], False)
            except (Exception, SystemExit):
                traceback.print_exc()
                elapsed, report, problems, missed = 0.0, {}, ["raised"], False
            total += elapsed
            # One probe per started quarter second of the operation before.
            n_probes = 1 + int(elapsed / PROBE_EVERY_S)
            op_s.setdefault(op.cls, []).append(elapsed)
            if problems or missed:
                failed += 1
            if problems:
                correct = False
                print(f"{name} {op.cls}: {'; '.join(problems)}", file=sys.stderr)
            if tracer:
                samples.setdefault(op.cls, []).append((tracer.stats(lo, len(tracer.spans)), report))
        pass_s.append(total)
        if sym_args:
            start = perf_counter()
            poly = betti.sym_poincare(*sym_args)
            sym_s.append(perf_counter() - start)
            if dict(poly.as_pairs()) != oracles.sym_product(*sym_args):
                correct = False
                print(f"sym_poincare{sym_args} differs from the binomial convolution", file=sys.stderr)
    while len(setups) < MIN_SETUPS:
        setups.append(measure_setup(name, seed))

    scale = PROBE_REF_S / statistics.median(probes)
    print(f"{name} seed {seed}: {len(pass_s)} passes, {attempted} operations, {failed} failed, "
          f"{len(probes)} probes, median probe {statistics.median(probes):.6f} s, "
          f"wall pass_s {[round(t, 4) for t in pass_s]}", file=sys.stderr)
    if tracer:
        tracer.uninstall()
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"trace-{name}-{seed}.json",
                     {"workload": name, "seed": seed, "pass_s": pass_s})
        metrics = per_layer(wl, samples, sym_s)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": ("s", statistics.median(setups) * scale),
            "pass_s": ("s", statistics.median(pass_s) * scale),
            "op_s.small": ("s", statistics.median(op_s[wl.small]) * scale),
            "op_s.large": ("s", statistics.median(op_s[wl.large]) * scale),
            "peak_rss_mb": ("MB", peak_mb),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
