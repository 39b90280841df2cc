"""Output checks for the benchmark, written without the program's code.

Nothing here imports ``higgspairs``.  The exact checks rebuild every
expected polynomial from closed forms with plain integer lists; the vortex
checks read the solver's binary field dump with numpy and test identities
that hold for any lattice state.  Each check returns a list of problems,
empty when the output is accepted.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# -- polynomials as {exponent: coefficient} dicts -------------------------


def _poly(pairs) -> dict[int, int]:
    """Report pairs [[e, c], ...] as a dict; zero coefficients dropped."""
    out: dict[int, int] = {}
    for e, c in pairs:
        out[int(e)] = out.get(int(e), 0) + int(c)
    return {e: c for e, c in out.items() if c}


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _euler(p: dict[int, int]) -> int:
    return sum(c if e % 2 == 0 else -c for e, c in p.items())


def sym_product(n: int, g: int) -> dict[int, int]:
    """Poincare polynomial of Sym^n of a genus-g curve by binomial convolution.

    S(n, g) = sum_j C(2g, j) t^j sum_{i <= n - j} t^(2i).
    """
    out: dict[int, int] = {}
    for j in range(min(2 * g, n) + 1):
        for i in range(n - j + 1):
            out[j + 2 * i] = out.get(j + 2 * i, 0) + math.comb(2 * g, j)
    return out


def strata_table(g: int, k: int, tau_bar: Fraction) -> list[dict[str, int]]:
    """Subbundle degrees d and the (n1, n2, index, dim) of each stratum.

    d runs from floor(tau_bar) + 1 to floor(min(k, g - 1 + k/2)); the
    stratum is a product Sym^n1 x Sym^n2 with n1 = k + 2g - 2 - 2d and
    n2 = k - d, shifted by the Morse index 2(2d + g - k - 1).
    """
    hi = math.floor(min(Fraction(k), Fraction(2 * g - 2 + k, 2)))
    rows = []
    for d in range(math.floor(tau_bar) + 1, hi + 1):
        n1, n2 = k + 2 * g - 2 - 2 * d, k - d
        rows.append(
            {"d": d, "n1": n1, "n2": n2, "index": 2 * (2 * d + g - k - 1), "dim": n1 + n2}
        )
    return rows


def check_betti(report: dict, g: int, k: int, tau_bar: Fraction) -> list[str]:
    """Check one ``higgspairs betti`` JSON report against closed forms."""
    problems: list[str] = []
    params = report.get("params", {})
    if (params.get("genus"), params.get("degree")) != (g, k) or Fraction(
        params.get("tau_bar", "0")
    ) != tau_bar:
        problems.append(f"report params {params} do not echo (g, k, tau_bar) = ({g}, {k}, {tau_bar})")

    expected = strata_table(g, k, tau_bar)
    items = report.get("strata", [])
    if [[it.get(key) for key in ("d", "n1", "n2", "index", "dim")] for it in items] != [
        [row[key] for key in ("d", "n1", "n2", "index", "dim")] for row in expected
    ]:
        problems.append("stratum bookkeeping (d, n1, n2, index, dim) differs from the closed form")
    strata_sum: dict[int, int] = {}
    for row, item in zip(expected, items):
        want = _poly_mul(
            {row["index"]: 1},
            _poly_mul(sym_product(row["n1"], g), sym_product(row["n2"], g)),
        )
        got = _poly(item.get("poly", []))
        if got != want:
            problems.append(f"stratum d={row['d']}: poly is not t^index S(n1, g) S(n2, g)")
        strata_sum = _poly_add(strata_sum, got)

    n0 = _poly(report.get("n0_poly", []))
    top = 2 * (k + 2 * g - 2)
    if any(n0.get(e, 0) != n0.get(top - e, 0) for e in range(top + 1)) or max(n0, default=-1) != top:
        problems.append(f"n0_poly is not palindromic of degree {top}")
    if n0.get(0) != 1:
        problems.append("n0_poly constant term is not 1")
    if _euler(n0) != 0:
        problems.append(f"n0_poly Euler characteristic is {_euler(n0)}, not 0")

    total = _poly(report.get("total_poly", []))
    if total != _poly_add(n0, strata_sum):
        problems.append("total_poly differs from n0_poly plus the strata")
    chi = sum(
        (-1) ** (row["n1"] + row["n2"])
        * math.comb(2 * g - 2, row["n1"])
        * math.comb(2 * g - 2, row["n2"])
        for row in expected
    )
    if _euler(total) != chi:
        problems.append(f"total_poly Euler characteristic {_euler(total)} != {chi}")

    corrected = [c for c in report.get("extraction_check", []) if c.get("convention") == "corrected"]
    if len(corrected) != 1 or not corrected[0].get("matches") or corrected[0].get("diff"):
        problems.append("corrected extraction check does not report a match")
    return problems


# -- vortex field dumps ---------------------------------------------------


def read_dump(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a ``--dump-fields`` file: a JSON header line, then complex128 blocks."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blocks = {}
        for name in header["fields"]:
            shape = tuple(header["shapes"][name])
            count = math.prod(shape)
            raw = fh.read(16 * count)
            if len(raw) != 16 * count:
                raise ValueError(f"field dump truncated in block {name}")
            blocks[name] = np.frombuffer(raw, dtype="<c16").reshape(shape)
        if fh.read(1):
            raise ValueError("field dump has trailing bytes")
    return header, blocks


def check_vortex(report: dict, header: dict, fields: dict[str, np.ndarray]) -> list[str]:
    """Checks that hold for any solver state, converged or not.

    The trace of the first residual field W1 summed over the torus leaves
    only the moment-map term, because traces of commutators vanish and
    central differences sum to zero on a periodic grid.  Cauchy-Schwarz
    then bounds |mean_sites (|phi|^2 - |psi|^2) - r1 tau| by
    2 sqrt(r1 residual / vol), so an under-reported residual shows.
    """
    problems: list[str] = []
    params = report["params"]
    n, r1, r2 = params["grid"], params["rank1"], params["rank2"]
    shapes = {
        "A1": (2, n, n, r1, r1),
        "A2": (2, n, n, r2, r2),
        "theta1": (n, n, r1, r1),
        "theta2": (n, n, r2, r2),
        "phi": (n, n, r1, r2),
        "psi": (n, n, r2, r1),
    }
    if {k: tuple(v.shape) for k, v in fields.items()} != shapes or header.get("N") != n:
        return [f"field dump shapes {header.get('shapes')} do not match grid {n}, ranks ({r1}, {r2})"]
    if not all(np.isfinite(v).all() for v in fields.values()):
        return ["field dump holds non-finite values"]

    residual = float(report["residual"])
    for name in ("A1", "A2"):
        a = fields[name]
        gap = float(np.max(np.abs(a + np.conj(np.swapaxes(a, -1, -2)))))
        if gap > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
            problems.append(f"{name} is not anti-Hermitian (max |A + A^H| = {gap:.3e})")

    parts = report["breakdown"]
    part_sum = parts["eq1"] + parts["eq2"] + parts["holomorphicity"] + parts["intertwining"]
    if abs(part_sum - residual) > 1e-9 * abs(residual) + 1e-300:
        problems.append(f"breakdown parts sum to {part_sum!r}, residual is {residual!r}")

    phi, psi = fields["phi"], fields["psi"]
    density = np.sum(np.abs(phi) ** 2, axis=(-1, -2)) - np.sum(np.abs(psi) ** 2, axis=(-1, -2))
    gap = abs(float(np.mean(density)) - r1 * params["tau"])
    bound = 2.0 * math.sqrt(r1 * max(residual, 0.0) / header["vol"]) + 1e-12
    if not gap <= bound:
        problems.append(
            f"moment-map trace gap {gap:.3e} exceeds 2 sqrt(r1 residual / vol) = {bound:.3e}"
        )

    if report["converged"] != (residual <= params["tol"]):
        problems.append(f"converged={report['converged']} disagrees with residual {residual!r}")
    return problems
