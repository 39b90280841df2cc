"""Command-line entry point orchestrating the symbolic and numeric modules.

Subcommands: betti (Poincare polynomial pipeline), strata (descriptor
enumeration), stability (split-model checks), vortex (lattice solver) and
selftest (cross-implementation invariant suite).  Reports are emitted as
json (canonical, byte-deterministic, never NaN or Infinity), csv
(flattened path,value rows) or pretty text.  A report can be compared
against a golden file (--golden; a mismatch exits with code 2) or written
to one (--out).

A vortex solve first sets the process's heap policy (_keep_freed_heap):
glibc's malloc would hand the top of its heap back to the kernel whenever
a solve frees its temporaries, and fault the same pages in again on the
next iteration.  It is set there once, and nowhere else: the exact
commands never load ctypes, and vortex.solve leaves a library caller's
allocator as it is.

Exit codes: 0 for a completed run (including unstable verdicts and
non-converged solves), 1 for parameter or input validation failures, for
an output or golden file that cannot be read or written, and for running
out of memory (say, a vortex grid too large to allocate, or one whose
estimated peak exceeds physical memory, refused before it allocates), 2
for formula-integrity or selftest failures and golden mismatches.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Optional

from . import betti, stability, strata
from .series import FormulaIntegrityError, LaurentPoly, exact_divide
from .stability import InvalidParamsError

# numpy and vortex are imported by the functions that use them, so betti,
# strata and stability check run without loading numpy.
if TYPE_CHECKING:
    import numpy as np

    from . import vortex

_FORMATS = ("json", "csv", "pretty")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1 with one JSON error object on
    stderr, in the shape of _emit_error."""

    def error(self, message: str) -> NoReturn:
        if message.endswith("expected one argument"):
            message += " (a value that starts with '-' is written --option=value)"
        payload = {"error": "ArgumentError", "message": f"{self.prog}: {message}"}
        self.exit(1, json.dumps(payload, sort_keys=True) + "\n")


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


def _int_pairs(obj: list | tuple) -> Optional[tuple[int, ...]]:
    """The entries of obj in order when obj is a nonempty list of [int, int]
    lists, a polynomial's (exponent, coefficient) pairs; otherwise None.
    Bools and int subclasses do not count as ints."""
    if obj and {*map(type, obj)} == {list} and {*map(len, obj)} == {2}:
        flat = tuple(chain.from_iterable(obj))
        if {*map(type, flat)} == {int}:
            return flat
    return None


def _flatten(obj: Any, prefix: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(obj[key], sub, rows)
    elif isinstance(obj, (list, tuple)):
        flat = _int_pairs(obj)
        if flat is not None:
            paths = [f"{prefix}[{i}][{j}]" for i in range(len(obj)) for j in (0, 1)]
            rows.extend(zip(paths, map(int.__repr__, flat)))
            return
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, _scalar_text(obj)))


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj: Any, indent: str = "") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    writes it, with indent before each of its inner lines.

    CPython's json runs its pure-Python encoder whenever indent is set; this
    writer gives the same bytes four to five times faster on a betti report.
    A key that is not a str raises TypeError.  A list of [int, int] lists,
    a polynomial's (exponent, coefficient) pairs and most of a betti
    report, is written by one %-format; bools and int subclasses take the
    general path.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = _int_pairs(obj)
        if flat is not None:
            deep = inner + "  "
            pair = f"\n{inner}[\n{deep}%d,\n{deep}%d\n{inner}]"
            return f"[{','.join([pair] * len(obj))}\n{indent}]" % flat
        items = [_json_text(item, inner) for item in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{_encode_str(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items())
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render(report: dict[str, Any], fmt: str, pretty: Callable[[], list[str]]) -> str:
    """The report text in fmt; pretty builds the lines of the pretty text
    and is called only for that format."""
    if fmt == "json":
        return _json_text(report) + "\n"
    if fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten(report, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("path", "value"))
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join(pretty()) + "\n"


def _poly_pairs(poly: betti.PoincarePolynomial) -> list[list[int]]:
    return [[int(e), int(c)] for e, c in poly.as_pairs()]


# -- subcommands ---------------------------------------------------------


# A subcommand's report, the builder of its pretty lines, and its exit code.
_Outcome = tuple[dict[str, Any], Callable[[], list[str]], int]


def _moduli(args: argparse.Namespace) -> tuple[betti.ModuliParams, dict[str, Any], str]:
    """The parameters of a betti or strata run, with their report entry and
    their pretty line."""
    p = betti.ModuliParams(g=args.genus, k=args.degree, tau_bar=_rational(args.tau_bar))
    params = {
        "genus": args.genus,
        "degree": args.degree,
        "tau_bar": str(p.tau_bar),
        "rank": betti.RANK,
    }
    line = f"params: g={args.genus} k={args.degree} tau_bar={p.tau_bar} rank={betti.RANK}"
    return p, params, line


def _stratum_row(desc: strata.StratumDescriptor, sep: str) -> tuple[dict[str, int], str]:
    """A stratum's report entry (d, n1, n2, index, dim) and its
    "n1=... n2=... index=... dim=..." text joined by sep."""
    item = {"d": desc.d, "n1": desc.n1, "n2": desc.n2, "index": desc.index, "dim": desc.dim}
    text = f"n1={desc.n1}{sep}n2={desc.n2}{sep}index={desc.index}{sep}dim={item['dim']}"
    return item, text


def _run_betti(args: argparse.Namespace) -> _Outcome:
    p, params, params_line = _moduli(args)
    built = betti.betti_report(p)
    n0, total = built.n0, built.total
    items = []
    heads = []
    for desc, poly in built.strata:
        item, text = _stratum_row(desc, ", ")
        items.append({**item, "poly": _poly_pairs(poly)})
        heads.append((f"stratum d={desc.d} ({text})", poly))
    checks = []
    total_coeffs = dict(total.as_pairs())
    for convention, ext in built.extractions.items():
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
        "params": params,
        "n0_poly": _poly_pairs(n0),
        "strata": items,
        "total_poly": _poly_pairs(total),
        "extraction_check": checks,
    }

    def pretty() -> list[str]:
        lines = [params_line, f"n0:     {n0}"]
        lines += [f"{head}: {poly}" for head, poly in heads]
        lines.append(f"total:  {total}")
        for chk in checks:
            state = "matches" if chk["matches"] else f"MISMATCH at {len(chk['diff'])} exponents"
            lines.append(f"extraction [{chk['convention']}]: {state}")
        return lines

    return report, pretty, 0


def _run_strata(args: argparse.Namespace) -> _Outcome:
    p, params, params_line = _moduli(args)
    ds = strata.d_range(p)
    rows = [_stratum_row(strata.stratum_descriptor(p, d), " ") for d in ds]
    report = {
        "params": params,
        "d_range": list(ds),
        "strata": [item for item, _ in rows],
    }

    def pretty() -> list[str]:
        lines = [params_line, f"d_range: {ds}"]
        lines.extend(f"d={item['d']}: {text}" for item, text in rows)
        return lines

    return report, pretty, 0


_MODEL_KEYS = ("g", "k", "dL", "psi_nonzero", "theta_zero", "s_placement")


def _run_stability(args: argparse.Namespace) -> _Outcome:
    with open(args.model, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise InvalidParamsError("model JSON nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise InvalidParamsError(f"model must be a JSON object, got {type(raw).__name__}")
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

    def pretty() -> list[str]:
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
        return lines

    return report, pretty, 0


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# glibc's mallopt parameters (malloc.h) and the values _keep_freed_heap
# sets.  A solve frees temporaries of 64 KiB and more on every iteration.
# By default glibc serves them with mmap until one is freed, then raises
# its thresholds on its own: blocks go to the heap, and the heap's freed
# top goes back to the kernel once it passes twice the largest mmapped
# block freed so far, about 1.6 MB at rank 1, N = 64.  Every iteration then
# faults its pages in again, zero-filled: 1,585 minor faults and 3.6 ms of
# system time in a 21 ms solve.  Setting either value turns that
# adjustment off, so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# Blocks below this come from the heap: glibc's own ceiling for the
# dynamic threshold on 64-bit systems, so no block a solve frees is mapped
# and unmapped on its own.
_MMAP_THRESHOLD = 32 * 1024 * 1024
# The heap keeps a free top up to this size.  One fixed value for every
# solve: one taken from each solve's size would let a small solve trim the
# heap that the next large one in the same process reuses.
_TRIM_THRESHOLD = 256 * 1024 * 1024


@functools.cache
def _keep_freed_heap() -> None:
    """Have glibc's malloc keep the memory a solve frees for its next
    iteration (see _M_TRIM_THRESHOLD), once per process: looking mallopt up
    again took 25 us per solve.  Where the C library has no mallopt
    (macOS, Windows), or refuses the value (musl), nothing changes.  No
    arithmetic changes either way, so every solve stays bit for bit the
    same."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _check_seed(seed: int) -> None:
    # numpy's own error for a negative seed does not name the flag.
    if seed < 0:
        raise InvalidParamsError(f"--seed must be non-negative, got {seed}")


def _run_vortex(args: argparse.Namespace) -> _Outcome:
    import numpy as np

    from . import vortex

    if args.grid < vortex.MIN_GRID:
        raise InvalidParamsError(f"--grid must be at least {vortex.MIN_GRID}, got {args.grid}")
    for name in ("rank1", "rank2"):
        if getattr(args, name) < 1:
            raise InvalidParamsError(f"--{name} must be at least 1, got {getattr(args, name)}")
    for name in ("tau", "vol", "amplitude", "tol"):
        if not math.isfinite(getattr(args, name)):
            raise InvalidParamsError(f"--{name} must be finite, got {getattr(args, name)!r}")
    if args.vol <= 0:
        raise InvalidParamsError(f"--vol must be positive, got {args.vol!r}")
    if args.tol < 0:
        raise InvalidParamsError(f"--tol must be non-negative, got {args.tol!r}")
    if args.max_iter < 0:
        raise InvalidParamsError(f"--max-iter must be non-negative, got {args.max_iter}")
    _check_seed(args.seed)
    tau_p = vortex.tau_prime(args.tau, args.rank1, args.rank2)
    # Refuse a grid that cannot fit before anything is allocated: with
    # overcommit, a grid too large would meet the OOM killer, not a
    # MemoryError.
    need, have = vortex.solve_bytes(args.grid, args.rank1, args.rank2), _physical_memory()
    if have is not None and need > have:
        message = (
            f"--grid {args.grid} needs about {need:.3g} bytes, "
            f"more than the {have:.3g} bytes of physical memory"
        )
        if vortex.solve_bytes(vortex.MIN_GRID, args.rank1, args.rank2) > have:
            # No grid fits: the ranks drive the estimate, not the grid.
            message += (
                f"; --rank1 {args.rank1} --rank2 {args.rank2} need more than that on every grid"
            )
        raise MemoryError(message)
    # A section on a degree-0 bundle needs a positive coupling: phi's is
    # tau, psi's is tau' = -tau r1/r2.  vortex.solve holds psi at zero, so
    # at tau < 0 the psi branch is solved as the phi branch of the exchanged
    # bundles, whose coupling is tau', and its answer is exchanged back.
    mirror = args.tau < 0
    r1, r2, tau = (args.rank2, args.rank1, tau_p) if mirror else (args.rank1, args.rank2, args.tau)
    branch, coupling = ("psi", "tau'") if mirror else ("phi", "tau")

    _keep_freed_heap()
    start = vortex.random_smooth_state(
        args.grid, r1, r2, args.vol, np.random.default_rng(args.seed), args.amplitude, args.tau,
    )
    result = solution = vortex.solve(start, tau, tol=args.tol, max_iter=args.max_iter)
    if result.stop_reason == "non_finite" and result.iterations == 0:
        # The inputs are finite, but the start overflows: a report would
        # carry nan or inf, which no format can hold as a number.
        raise InvalidParamsError(
            f"--amplitude {args.amplitude!r}, --tau {args.tau!r} and --vol {args.vol!r} give a "
            f"start whose residual ({result.residual!r}), gradient or first step is not finite "
            "in floating point"
        )
    if mirror:
        state = vortex.exchange_bundles(result.state)
        result = replace(result, state=state, breakdown=vortex.residual_breakdown(state, args.tau))
    report: dict[str, Any] = {
        "params": {
            "rank1": args.rank1,
            "rank2": args.rank2,
            "grid": args.grid,
            "vol": float(args.vol),
            "tau": float(args.tau),
            "tau_prime": float(tau_p),
            "tol": float(args.tol),
            "max_iter": args.max_iter,
            "seed": args.seed,
            "branch": branch,
            "amplitude": float(args.amplitude),
        },
        "converged": result.converged,
        "stalled": result.stalled,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "residual": result.residual,
        "breakdown": result.breakdown,
        "moment_map": result.moment_map_value,
    }
    if result.stalled and np.max(np.abs(solution.state.phi)) < 1e-6 * math.sqrt(tau):
        # A start whose section is mostly noise (amplitude above its
        # sqrt(coupling)) can collapse onto the section's zero, where
        # W1 = -tau/2 and W2 = -tau'/2 are constant and the flow stops.
        floor = args.vol * (args.rank1 * args.tau**2 + args.rank2 * tau_p**2) / 4.0
        report["note"] = (
            f"stalled at the critical point {branch} = 0, whose residual is "
            f"vol*(rank1*tau^2 + rank2*tau'^2)/4 = {floor!r}; an --amplitude "
            f"below sqrt({coupling}) = {math.sqrt(tau)!r} starts in the solution's basin"
        )
    if args.dump_fields:
        _dump_fields(args.dump_fields, result.state, args.vol)

    def pretty() -> list[str]:
        bd = result.breakdown
        lines = [
            f"params: r1={args.rank1} r2={args.rank2} N={args.grid} vol={args.vol} "
            f"tau={args.tau} tau'={tau_p} branch={branch} seed={args.seed}",
            f"converged: {result.converged} (iterations {result.iterations}, "
            f"residual {result.residual!r}, stop reason {result.stop_reason})",
            f"breakdown: eq1={bd['eq1']!r} eq2={bd['eq2']!r} "
            f"holomorphicity={bd['holomorphicity']!r} "
            f"theta_s_sup={bd['theta_s_sup']!r}",
            f"moment map |theta|^2: {result.moment_map_value!r}",
        ]
        if "note" in report:
            lines.append(f"note: {report['note']}")
        return lines

    return report, pretty, 0


def _dump_fields(path: str, s: vortex.LatticeState, vol: float) -> None:
    import numpy as np

    from . import vortex

    header = {
        "N": s.N,
        "rank1": s.r1,
        "rank2": s.r2,
        "vol": float(vol),
        "fields": vortex.BLOCKS,
        "shapes": {name: getattr(s, name).shape for name in vortex.BLOCKS},
        "dtype": "<c16",
        "order": "C",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        # The solver's blocks are views of its packed vectors: each is
        # copied only when it is not contiguous, and written from its buffer.
        for name in vortex.BLOCKS:
            fh.write(np.ascontiguousarray(getattr(s, name), dtype="<c16").data)


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
    def times(a: dict, b: dict, n: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (xa, ta), ca in a.items():
            for (xb, tb), cb in b.items():
                if xa + xb <= n:
                    out[xa + xb, ta + tb] = out.get((xa + xb, ta + tb), 0) + ca * cb
        return out

    def oracle(n: int, g: int) -> dict[int, int]:
        # (1+tx)^(2g) / ((1-x)(1-t^2 x)) expanded term by term as a series
        # {(x-degree, t-degree): coefficient} cut at x^n, sharing no code
        # with the closed form that sym_poincare evaluates.
        series = {(0, 0): 1}
        for _ in range(2 * g):
            series = times(series, {(0, 0): 1, (1, 1): 1}, n)
        series = times(series, {(a, 0): 1 for a in range(n + 1)}, n)
        series = times(series, {(b, 2 * b): 1 for b in range(n + 1)}, n)
        return {t: c for (x, t), c in series.items() if x == n and c}

    for n in range(0, 9):
        for g in range(0, 4):
            got = dict(betti.sym_poincare(n, g).as_pairs())
            if got != oracle(n, g):
                return False, f"mismatch at n={n} g={g}"
    return True, "n <= 8, g <= 3 exact"


def _selftest_decomposition(rng: np.random.Generator) -> tuple[bool, str]:
    from . import vortex

    worst = 0.0
    for r1, r2 in ((1, 1), (2, 1)):
        for _ in range(10):
            s = vortex.random_state(6, r1, r2, 1.0, rng, amplitude=1.0)
            worst = max(worst, vortex.decomposition_check(s, 0.7))
    ok = worst <= 1e-10
    return ok, f"worst relative gap {worst:.3e}"


def _selftest_gradient(rng: np.random.Generator) -> tuple[bool, str]:
    import numpy as np

    from . import vortex

    h, tau = 1e-6, 0.9
    worst = 0.0
    for r1, r2 in ((1, 1), (2, 1)):
        s = vortex.random_state(5, r1, r2, 1.0, rng, amplitude=0.7)
        grad = vortex.residual_gradient(s, tau)
        for name in vortex.BLOCKS:
            block = getattr(s, name)
            v = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
            if name in ("A1", "A2"):
                v = 0.5 * (v - np.conj(np.swapaxes(v, -1, -2)))
            analytic = 2.0 * float(np.real(np.sum(np.conj(grad[name]) * v)))
            e_plus = vortex.residual_energy(replace(s, **{name: block + h * v}), tau)
            e_minus = vortex.residual_energy(replace(s, **{name: block - h * v}), tau)
            fd = (e_plus - e_minus) / (2.0 * h)
            scale = max(abs(analytic), abs(fd), 1e-12)
            worst = max(worst, abs(analytic - fd) / scale)
    ok = worst <= 1e-6
    return ok, f"worst relative error {worst:.3e}"


def _run_selftest(args: argparse.Namespace) -> _Outcome:
    import numpy as np

    groups = (
        ("series_ring_axioms", _selftest_series),
        ("macdonald_oracle", _selftest_macdonald),
        ("decomposition_identity", _selftest_decomposition),
        ("gradient_check", _selftest_gradient),
    )
    _check_seed(args.seed)
    results = []
    all_ok = True
    for name, fn in groups:
        rng = np.random.default_rng(args.seed)
        ok, detail = fn(rng)
        all_ok = all_ok and ok
        results.append({"name": name, "passed": ok, "detail": detail})
    report = {"seed": args.seed, "groups": results, "passed": all_ok}

    def pretty() -> list[str]:
        lines = [f"selftest (seed {args.seed})"]
        for item in results:
            mark = "PASS" if item["passed"] else "FAIL"
            lines.append(f"  {mark} {item['name']}: {item['detail']}")
        lines.append("all groups passed" if all_ok else "FAILURES present")
        return lines

    return report, pretty, 0 if all_ok else 2


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
    sol.add_argument("--amplitude", type=float, default=0.1, help="initial mode scale; a start "
                     "needs an amplitude below sqrt(coupling) to be in the solution's basin")
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


# Built on the first call of main and reused: building the tree took two
# thirds of a betti report at (2, 5), parsing with it a small part.
_PARSER: Optional[_Parser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        report, pretty, code = args.fn(args)
        text = _render(report, fmt, pretty)
        if args.golden:
            with open(args.golden, encoding="utf-8") as fh:
                expected = fh.read()
            if expected != text:
                print(f"golden mismatch against {args.golden}", file=sys.stderr)
                return 2
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except InvalidParamsError as exc:
        _emit_error(fmt, exc)
        return 1
    except FormulaIntegrityError as exc:
        _emit_error(fmt, exc)
        return 2
    except (OSError, ValueError, TypeError) as exc:
        _emit_error(fmt, exc)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; report under the public name.
        _emit_error(fmt, MemoryError(f"out of memory: {exc}"))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
