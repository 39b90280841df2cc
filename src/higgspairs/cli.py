"""Command-line entry point orchestrating the symbolic and numeric modules.

Subcommands: betti (Poincare polynomial pipeline), strata (descriptor
enumeration), stability (split-model checks), vortex (lattice solver) and
selftest (cross-implementation invariant suite).  Reports are emitted as
json (canonical, byte-deterministic, never NaN or Infinity), csv
(flattened path,value rows) or pretty text.  A golden file can be compared
against (--golden) or written (--write-golden); comparison failures exit
with code 2.

Exit codes: 0 for a completed run (including unstable verdicts and
non-converged solves), 1 for parameter or input validation failures and
for running out of memory (say, a vortex grid too large to allocate), 2 for
formula-integrity or selftest failures and golden mismatches.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from . import betti, stability, strata, vortex
from .series import FormulaIntegrityError, LaurentPoly, exact_divide
from .stability import InvalidParamsError

_FORMATS = ("json", "csv", "pretty")


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParamsError(f"not an exact rational: {text!r} ({exc})") from exc


# -- report rendering ----------------------------------------------------


def _scalar_text(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flatten(obj: Any, prefix: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(obj[key], sub, rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, _scalar_text(obj)))


def _render(report: dict[str, Any], fmt: str, pretty: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten(report, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("path", "value"))
        writer.writerows(rows)
        return buf.getvalue()
    return pretty


def _poly_pairs(poly: betti.PoincarePolynomial) -> list[list[int]]:
    return [[int(e), int(c)] for e, c in poly.as_pairs()]


# -- subcommands ---------------------------------------------------------


def _run_betti(args: argparse.Namespace) -> tuple[dict[str, Any], str, int]:
    p = betti.ModuliParams(g=args.genus, k=args.degree, tau_bar=_rational(args.tau_bar))
    stability.require_valid(p)

    n0 = betti.pairs_poincare_n0(p)
    total = betti.total_poincare(p)
    items = []
    stratum_lines = []
    for d in strata.d_range(p):
        desc = strata.stratum_descriptor(p, d)
        poly = betti.stratum_poincare(p, d)
        items.append(
            {
                "d": d,
                "n1": desc.n1,
                "n2": desc.n2,
                "index": desc.index,
                "dim": desc.dim,
                "poly": _poly_pairs(poly),
            }
        )
        stratum_lines.append(
            f"stratum d={d} (n1={desc.n1}, n2={desc.n2}, "
            f"index={desc.index}, dim={desc.dim}): {poly}"
        )
    checks = []
    total_coeffs = dict(total.as_pairs())
    for convention in (betti.CORRECTED, betti.AS_PRINTED):
        ext = betti.theorem_extraction(p, convention)
        ext_coeffs = dict(ext.as_pairs())
        diff = [
            [int(e), int(ext_coeffs.get(e, 0) - total_coeffs.get(e, 0))]
            for e in sorted(set(ext_coeffs) | set(total_coeffs))
            if ext_coeffs.get(e, 0) != total_coeffs.get(e, 0)
        ]
        checks.append(
            {"convention": convention, "matches": not diff, "diff": diff}
        )
    report = {
        "params": {
            "genus": args.genus,
            "degree": args.degree,
            "tau_bar": str(p.tau_bar),
            "rank": p.r,
        },
        "n0_poly": _poly_pairs(n0),
        "strata": items,
        "total_poly": _poly_pairs(total),
        "extraction_check": checks,
    }
    lines = [
        f"params: g={args.genus} k={args.degree} tau_bar={p.tau_bar} rank={p.r}",
        f"n0:     {n0}",
        *stratum_lines,
        f"total:  {total}",
    ]
    for chk in checks:
        state = "matches" if chk["matches"] else f"MISMATCH at {len(chk['diff'])} exponents"
        lines.append(f"extraction [{chk['convention']}]: {state}")
    return report, "\n".join(lines) + "\n", 0


def _run_strata(args: argparse.Namespace) -> tuple[dict[str, Any], str, int]:
    p = betti.ModuliParams(g=args.genus, k=args.degree, tau_bar=_rational(args.tau_bar))
    stability.require_valid(p)
    ds = strata.d_range(p)
    items = []
    for d in ds:
        desc = strata.stratum_descriptor(p, d)
        items.append(
            {"d": d, "n1": desc.n1, "n2": desc.n2, "index": desc.index, "dim": desc.dim}
        )
    report = {
        "params": {
            "genus": args.genus,
            "degree": args.degree,
            "tau_bar": str(p.tau_bar),
            "rank": p.r,
        },
        "d_range": list(ds),
        "strata": items,
    }
    lines = [f"params: g={args.genus} k={args.degree} tau_bar={p.tau_bar} rank={p.r}"]
    lines.append(f"d_range: {ds}")
    for item in items:
        lines.append(
            f"d={item['d']}: n1={item['n1']} n2={item['n2']} "
            f"index={item['index']} dim={item['dim']}"
        )
    return report, "\n".join(lines) + "\n", 0


_MODEL_KEYS = ("g", "k", "dL", "psi_nonzero", "theta_zero", "s_placement")


def _run_stability(args: argparse.Namespace) -> tuple[dict[str, Any], str, int]:
    with open(args.model, encoding="utf-8") as fh:
        raw = json.load(fh)
    unknown = set(raw) - set(_MODEL_KEYS)
    if unknown:
        raise InvalidParamsError(f"unknown model keys: {sorted(unknown)}")
    missing = set(_MODEL_KEYS) - set(raw)
    if missing:
        raise InvalidParamsError(f"missing model keys: {sorted(missing)}")
    try:
        model = stability.SplitHiggsPairModel(**raw)
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from exc
    tau_bar = _rational(args.tau_bar)
    verdict = stability.is_tau_stable_split(model, tau_bar)
    higgs = stability.check_higgs_stability(model)
    witness = None
    if verdict.witness is not None:
        w = verdict.witness
        witness = {
            "subbundle": w.subbundle,
            "condition": w.condition,
            "slope": str(w.slope),
            "bound": str(w.bound),
            "text": w.describe(),
        }
    report = {
        "model": {key: raw[key] for key in _MODEL_KEYS},
        "tau_bar": str(tau_bar),
        "tau_stable": verdict.stable,
        "witness": witness,
        "advisories": list(verdict.advisories),
        "higgs_stable": higgs,
    }
    lines = [
        f"model: g={raw['g']} k={raw['k']} dL={raw['dL']} "
        f"psi_nonzero={raw['psi_nonzero']} theta_zero={raw['theta_zero']} "
        f"s_placement={raw['s_placement']}",
        f"tau_bar: {tau_bar}",
        f"tau-stable: {verdict.stable}",
    ]
    if witness is not None:
        lines.append(f"witness: {witness['text']}")
    for adv in verdict.advisories:
        lines.append(f"advisory: {adv}")
    lines.append(f"Higgs-stable: {higgs}")
    return report, "\n".join(lines) + "\n", 0


def _mirror_smooth_state(
    N: int, r1: int, r2: int, vol: float, rng: np.random.Generator,
    amplitude: float, tau: float,
) -> vortex.LatticeState:
    sm = vortex.random_smooth_state(N, r2, r1, vol, rng, amplitude, tau)
    return vortex.LatticeState(
        N=sm.N, a=sm.a, A1=sm.A2, A2=sm.A1,
        theta1=sm.theta2, theta2=sm.theta1, phi=sm.psi, psi=sm.phi,
    )


_BREAKDOWN_KEYS = (
    "eq1", "eq2", "holomorphicity", "intertwining", "eq1_max", "eq2_max", "theta_s_sup",
)


def _run_vortex(args: argparse.Namespace) -> tuple[dict[str, Any], str, int]:
    if args.grid < vortex.MIN_GRID:
        raise InvalidParamsError(f"grid must be at least {vortex.MIN_GRID}")
    for name in ("tau", "vol", "amplitude", "tol"):
        if not math.isfinite(getattr(args, name)):
            raise InvalidParamsError(f"--{name} must be finite, got {getattr(args, name)!r}")
    if args.vol <= 0:
        raise InvalidParamsError("vol must be positive")
    if args.tol < 0:
        raise InvalidParamsError(f"--tol must be non-negative, got {args.tol!r}")
    if args.max_iter < 0:
        raise InvalidParamsError(f"--max-iter must be non-negative, got {args.max_iter}")
    p = vortex.VortexParams(r1=args.rank1, tau=args.tau, r2=args.rank2, vol=args.vol)
    rng = np.random.default_rng(args.seed)
    if args.branch == "phi":
        s0 = vortex.random_smooth_state(
            args.grid, args.rank1, args.rank2, args.vol, rng, args.amplitude, args.tau
        )
    else:
        s0 = _mirror_smooth_state(
            args.grid, args.rank1, args.rank2, args.vol, rng, args.amplitude, args.tau
        )
    result = vortex.solve(
        s0, p, tol=args.tol, max_iter=args.max_iter, branch=args.branch
    )
    report: dict[str, Any] = {
        "params": {
            "rank1": args.rank1,
            "rank2": args.rank2,
            "grid": args.grid,
            "vol": float(args.vol),
            "tau": float(args.tau),
            "tau_prime": float(p.tau_prime),
            "tol": float(args.tol),
            "max_iter": args.max_iter,
            "seed": args.seed,
            "branch": args.branch,
            "amplitude": float(args.amplitude),
        },
        "converged": result.converged,
        "stalled": result.stalled,
        "iterations": result.iterations,
        "residual": float(result.residual),
        "breakdown": {key: float(getattr(result, key)) for key in _BREAKDOWN_KEYS},
        "moment_map": float(result.moment_map_value),
    }
    if not result.converged and args.tau <= 0:
        floor = args.tau * args.tau * args.vol / 8.0
        report["note"] = (
            "no solution expected: a nonzero section on a degree-0 bundle "
            f"needs tau > 0; the residual cannot drop below tau^2*vol/8 = {floor!r}"
        )
    if args.dump_fields:
        _dump_fields(args.dump_fields, result.state, args)
    lines = [
        f"params: r1={args.rank1} r2={args.rank2} N={args.grid} vol={args.vol} "
        f"tau={args.tau} tau'={p.tau_prime} branch={args.branch} seed={args.seed}",
        f"converged: {result.converged} (iterations {result.iterations}, "
        f"residual {result.residual!r})",
        f"breakdown: eq1={result.eq1!r} eq2={result.eq2!r} "
        f"holomorphicity={result.holomorphicity!r} "
        f"theta_s_sup={result.theta_s_sup!r}",
        f"moment map |theta|^2: {result.moment_map_value!r}",
    ]
    if "note" in report:
        lines.append(f"note: {report['note']}")
    return report, "\n".join(lines) + "\n", 0


def _dump_fields(path: str, s: vortex.LatticeState, args: argparse.Namespace) -> None:
    names = ["A1", "A2", "theta1", "theta2", "phi", "psi"]
    header = {
        "N": s.N,
        "rank1": s.r1,
        "rank2": s.r2,
        "vol": float(args.vol),
        "fields": names,
        "shapes": {name: list(getattr(s, name).shape) for name in names},
        "dtype": "<c16",
        "order": "C",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(getattr(s, name)).astype("<c16").tobytes())


# -- selftest ------------------------------------------------------------


def _selftest_series(rng: np.random.Generator) -> tuple[bool, str]:
    def rand_poly() -> LaurentPoly:
        return LaurentPoly.from_terms(
            (int(rng.integers(-2, 5)), int(rng.integers(-4, 5)))
            for _ in range(int(rng.integers(1, 5)))
        )

    cases = 0
    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if (a + b) + c != a + (b + c):
            return False, "addition associativity failed"
        if (a * b) * c != a * (b * c):
            return False, "multiplication associativity failed"
        if a * b != b * a:
            return False, "multiplication commutativity failed"
        if a * (b + c) != a * b + a * c:
            return False, "distributivity failed"
        cases += 1
    one_minus_t2 = LaurentPoly([1, 0, -1])
    for _ in range(10):
        a = rand_poly()
        if exact_divide(a * one_minus_t2) != a:
            return False, "exact division by 1 - t^2 failed"
        cases += 1
    return True, f"{cases} random cases"


def _selftest_macdonald(rng: np.random.Generator) -> tuple[bool, str]:
    def oracle(n: int, g: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for j in range(0, min(2 * g, n) + 1):
            binom = math.comb(2 * g, j)
            for i in range(0, n - j + 1):
                out[j + 2 * i] = out.get(j + 2 * i, 0) + binom
        return {e: c for e, c in out.items() if c}

    for n in range(0, 9):
        for g in range(0, 4):
            got = dict(betti.sym_poincare(n, g).as_pairs())
            if got != oracle(n, g):
                return False, f"mismatch at n={n} g={g}"
    return True, "n <= 8, g <= 3 exact"


def _selftest_decomposition(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for r1, r2 in ((1, 1), (2, 1)):
        p = vortex.VortexParams(r1=r1, tau=0.7, r2=r2)
        for _ in range(10):
            s = vortex.random_state(6, r1, r2, 1.0, rng, amplitude=1.0)
            worst = max(worst, vortex.decomposition_check(s, p))
    ok = worst <= 1e-10
    return ok, f"worst relative gap {worst:.3e}"


def _selftest_gradient(rng: np.random.Generator) -> tuple[bool, str]:
    h = 1e-6
    worst = 0.0
    for r1, r2 in ((1, 1), (2, 1)):
        p = vortex.VortexParams(r1=r1, tau=0.9, r2=r2)
        s = vortex.random_state(5, r1, r2, 1.0, rng, amplitude=0.7)
        grad = vortex.residual_gradient(s, p)
        for name in ("A1", "A2", "theta1", "theta2", "phi", "psi"):
            block = getattr(s, name)
            v = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
            if name in ("A1", "A2"):
                v = 0.5 * (v - np.conj(np.swapaxes(v, -1, -2)))
            analytic = 2.0 * float(np.real(np.sum(np.conj(grad[name]) * v)))
            from dataclasses import replace

            e_plus = vortex.residual_energy(replace(s, **{name: block + h * v}), p)
            e_minus = vortex.residual_energy(replace(s, **{name: block - h * v}), p)
            fd = (e_plus - e_minus) / (2.0 * h)
            scale = max(abs(analytic), abs(fd), 1e-12)
            worst = max(worst, abs(analytic - fd) / scale)
    ok = worst <= 1e-6
    return ok, f"worst relative error {worst:.3e}"


def _run_selftest(args: argparse.Namespace) -> tuple[dict[str, Any], str, int]:
    groups = (
        ("series_ring_axioms", _selftest_series),
        ("macdonald_oracle", _selftest_macdonald),
        ("decomposition_identity", _selftest_decomposition),
        ("gradient_check", _selftest_gradient),
    )
    results = []
    all_ok = True
    for name, fn in groups:
        rng = np.random.default_rng(args.seed)
        ok, detail = fn(rng)
        all_ok = all_ok and ok
        results.append({"name": name, "passed": ok, "detail": detail})
    report = {"seed": args.seed, "groups": results, "passed": all_ok}
    lines = [f"selftest (seed {args.seed})"]
    for item in results:
        mark = "PASS" if item["passed"] else "FAIL"
        lines.append(f"  {mark} {item['name']}: {item['detail']}")
    lines.append("all groups passed" if all_ok else "FAILURES present")
    return report, "\n".join(lines) + "\n", 0 if all_ok else 2


# -- argument parsing and dispatch ---------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="higgspairs", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=_FORMATS, default="json", help="report format"
    )
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument(
        "--golden", help="compare the report against this golden file (exit 2 on drift)"
    )
    common.add_argument(
        "--write-golden", help="write the report to this golden file and proceed"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    b = sub.add_parser("betti", parents=[common], help="Poincare polynomial pipeline")
    b.add_argument("--genus", type=int, required=True)
    b.add_argument("--degree", type=int, required=True, help="degree k of det E")
    b.add_argument("--tau-bar", required=True, help='exact rational, e.g. "27/10"')
    b.set_defaults(fn=_run_betti)

    st = sub.add_parser("strata", parents=[common], help="stratum descriptors")
    st.add_argument("--genus", type=int, required=True)
    st.add_argument("--degree", type=int, required=True)
    st.add_argument("--tau-bar", required=True)
    st.set_defaults(fn=_run_strata)

    stab = sub.add_parser("stability", help="split-model stability checks")
    stab_sub = stab.add_subparsers(dest="action", required=True)
    chk = stab_sub.add_parser("check", parents=[common], help="check one model file")
    chk.add_argument("--model", required=True, help="JSON file with the model fields")
    chk.add_argument("--tau-bar", required=True)
    chk.set_defaults(fn=_run_stability)

    vx = sub.add_parser("vortex", help="lattice vortex solver")
    vx_sub = vx.add_subparsers(dest="action", required=True)
    sol = vx_sub.add_parser("solve", parents=[common], help="run one descent solve")
    sol.add_argument("--rank1", type=int, required=True)
    sol.add_argument("--rank2", type=int, default=1)
    sol.add_argument("--grid", type=int, default=16, help="sites per side N")
    sol.add_argument("--vol", type=float, default=1.0)
    sol.add_argument("--tau", type=float, required=True)
    sol.add_argument("--tol", type=float, default=1e-12)
    sol.add_argument("--max-iter", type=int, default=10000)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--branch", choices=("phi", "psi"), default="phi")
    sol.add_argument("--amplitude", type=float, default=0.1, help="initial mode scale")
    sol.add_argument(
        "--dump-fields", help="write binary field snapshots to this path"
    )
    sol.set_defaults(fn=_run_vortex)

    selftest = sub.add_parser(
        "selftest", parents=[common], help="cross-implementation invariant suite"
    )
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(fn=_run_selftest)
    return parser


def _emit_error(fmt: str, exc: Exception) -> None:
    if fmt == "json":
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        report, pretty, code = args.fn(args)
        text = _render(report, fmt, pretty)
    except InvalidParamsError as exc:
        _emit_error(fmt, exc)
        return 1
    except FormulaIntegrityError as exc:
        _emit_error(fmt, exc)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        _emit_error(fmt, exc)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; report under the public name.
        _emit_error(fmt, MemoryError(f"out of memory: {exc}"))
        return 1

    if args.write_golden:
        with open(args.write_golden, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.golden:
        try:
            with open(args.golden, encoding="utf-8") as fh:
                expected = fh.read()
        except OSError as exc:
            _emit_error(fmt, exc)
            return 1
        if expected != text:
            print(f"golden mismatch against {args.golden}", file=sys.stderr)
            return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
