"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test states its own oracle or tolerance inline. The vortex refinement
test asserts the fourth-order rate that the integrated section identity has
at degree-0 solutions; its comment derives that rate from the residual
fields.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import higgspairs.vortex as vx
from higgspairs import betti, stability, strata

import lattice_oracles as lo

GOLDEN = Path(__file__).parent / "golden"


def mid_interval(k: int) -> Fraction:
    return Fraction(k, 2) + Fraction(1, 4)


def param_grid(ks_by_g: dict[int, list[int]]) -> list[betti.ModuliParams]:
    return [
        betti.ModuliParams(g=g, k=k, tau_bar=mid_interval(k))
        for g, ks in ks_by_g.items()
        for k in ks
    ]


THEOREM_GRID = param_grid({2: [5, 7, 9, 11], 3: [9, 11, 13, 15]})
SCAN_GRID = param_grid({2: [5, 7, 9, 11, 13, 15], 3: [9, 11, 13, 15]})


# -- 1: symmetric-product Poincare polynomials against a convolution oracle


def convolution_oracle(n: int, g: int) -> dict[int, int]:
    """Coefficients of (1+t)^2g * (1 + t^2 + t^4 + ...) truncated at t^n
    in the grading where x-degree j contributes t^(j + 2i)."""
    out: dict[int, int] = {}
    for j in range(0, min(2 * g, n) + 1):
        binom = math.comb(2 * g, j)
        for i in range(0, n - j + 1):
            out[j + 2 * i] = out.get(j + 2 * i, 0) + binom
    return {e: c for e, c in out.items() if c}


def test_symmetric_product_poincare_matches_convolution_oracle() -> None:
    start = time.monotonic()
    for n in range(0, 13):
        for g in range(0, 5):
            got = dict(betti.sym_poincare(n, g).as_pairs())
            assert got == convolution_oracle(n, g), (n, g)
    assert time.monotonic() - start < 1.0


# -- 2: closed-form extraction equals the stratum sum on the theorem grid


def mismatch_report(report: betti.BettiReport) -> list[list[int]]:
    total = dict(report.total.as_pairs())
    printed = dict(report.extractions[betti.AS_PRINTED].as_pairs())
    return [
        [e, printed.get(e, 0) - total.get(e, 0)]
        for e in sorted(set(total) | set(printed))
        if printed.get(e, 0) != total.get(e, 0)
    ]


def test_closed_form_extraction_matches_stratum_sum() -> None:
    archive = []
    for p in THEOREM_GRID:
        start = time.monotonic()
        report = betti.betti_report(p)
        assert report.extractions[betti.CORRECTED] == report.total, (p.g, p.k)
        diff = mismatch_report(report)
        assert diff, (p.g, p.k)
        archive.append(
            {"g": p.g, "k": p.k, "tau_bar": str(p.tau_bar), "diff": diff}
        )
        assert time.monotonic() - start < 10.0

    text = json.dumps({"as_printed_minus_total": archive}, indent=2) + "\n"
    path = GOLDEN / "extraction_as_printed_mismatch.json"
    assert path.exists(), f"golden {path.name} is missing; it is never regenerated here"
    assert path.read_text() == text


# -- 3: integrality and nonnegativity of the rank-2 pair polynomials


def test_pair_polynomials_are_integral_and_nonnegative() -> None:
    for p in THEOREM_GRID:
        poly = betti.pairs_poincare_n0(p)
        pairs = poly.as_pairs()
        assert pairs
        for e, c in pairs:
            assert isinstance(c, int) and not isinstance(c, bool), (p.g, p.k, e)
            assert c >= 0, (p.g, p.k, e)


# -- 4: stratum degree bookkeeping and the divisor-to-bundle degree map


def test_stratum_degree_bookkeeping() -> None:
    for p in THEOREM_GRID:
        for d in strata.d_range(p):
            desc = strata.stratum_descriptor(p, d)
            pairs = betti.stratum_poincare(p, d).as_pairs()
            low = 2 * (2 * d + p.g - p.k - 1)
            n1 = -2 * d + p.k + 2 * p.g - 2
            n2 = p.k - d
            assert pairs[0][0] == low == desc.index
            assert pairs[-1][0] == low + 2 * (n1 + n2) == desc.index + 2 * desc.dim


def test_divisor_bundle_map_degree() -> None:
    checked = 0
    for p in THEOREM_GRID:
        for d in strata.d_range(p):
            desc = strata.stratum_descriptor(p, d)
            model = strata.fixed_point_model(p, d)
            assert model.dL == d and model.s_placement == "in_Lc"
            # D' is the zero divisor of the section of Lc = L^-1 (x) det E,
            # D that of the Higgs component in L^-2 (x) det E (x) K.
            assert desc.n2 == model.k - model.dL
            assert desc.n1 == model.k - 2 * model.dL + 2 * model.g - 2
            # O(D')^2 (x) O(D)^-1 (x) K has the degree k of det E.
            assert 2 * desc.n2 - desc.n1 + 2 * p.g - 2 == p.k
            checked += 1
    assert checked > 0


# -- 5: split-model stability scan


def all_split_models(p: betti.ModuliParams, dL: int):
    for psi_nonzero in (False, True):
        for theta_zero in (False, True):
            for s_placement in ("in_L", "in_Lc", "zero"):
                try:
                    yield stability.SplitHiggsPairModel(
                        g=p.g, k=p.k, dL=dL,
                        psi_nonzero=psi_nonzero,
                        theta_zero=theta_zero,
                        s_placement=s_placement,
                    )
                except ValueError:
                    continue


def test_tau_stable_models_are_higgs_stable() -> None:
    start = time.monotonic()
    scanned = 0
    for p in SCAN_GRID:
        for dL in range(-10, 11):
            for model in all_split_models(p, dL):
                scanned += 1
                if stability.is_tau_stable_split(model, p.tau_bar).stable:
                    assert stability.check_higgs_stability(model), (p.g, p.k, model)
    assert scanned > 1000
    assert time.monotonic() - start < 5.0


def test_fixed_point_models_stable_exactly_on_stratum_range() -> None:
    start = time.monotonic()
    for p in SCAN_GRID:
        rng_d = strata.d_range(p)
        for d in range(rng_d[0] - 3, rng_d[-1] + 2):
            n1 = -2 * d + p.k + 2 * p.g - 2
            n2 = p.k - d
            if n1 < 0 or n2 < 0:
                assert d not in rng_d
                with pytest.raises(ValueError):
                    strata.fixed_point_model(p, d)
                continue
            model = strata.fixed_point_model(p, d)
            verdict = stability.is_tau_stable_split(model, p.tau_bar)
            assert verdict.stable == (d in rng_d), (p.g, p.k, d)
    assert time.monotonic() - start < 5.0


# -- 6: lattice energy decomposition identity


def test_energy_decomposition_identity_on_random_states() -> None:
    rng = np.random.default_rng(2026)
    for r1, r2 in ((1, 1), (2, 1)):
        for _ in range(100):
            s = vx.random_state(8, r1, r2, rng=rng)
            assert vx.decomposition_check(s, 1.0) <= 1e-10


# -- 7: scalar vortex convergence and the negative-coupling obstruction


def test_scalar_vortex_solution_quality() -> None:
    start = time.monotonic()
    tau = 1.0
    rng = np.random.default_rng(7)
    s0 = vx.random_smooth_state(16, 1, 1, 1.0, rng, amplitude=0.1, tau=tau)
    res = vx.solve(s0, tau, tol=1e-14, max_iter=20000)
    assert res.converged

    s = res.state
    density = np.sum(np.abs(s.phi) ** 2, axis=(-1, -2))
    assert float(np.max(np.abs(density - tau))) <= 1e-5
    assert math.sqrt(res.moment_map_value) <= 1e-6
    half_mass = 0.5 * s.a * s.a * float(np.sum(density))
    assert abs(half_mass - 0.5 * tau * s.vol) <= 1e-4 * s.vol
    hist = res.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))

    tau_neg = -1.0
    s0 = vx.random_smooth_state(
        16, 1, 1, 1.0, np.random.default_rng(7), amplitude=0.1, tau=tau_neg
    )
    res_neg = vx.solve(s0, tau_neg, tol=1e-12, max_iter=2000)
    assert not res_neg.converged
    floor = tau_neg**2 * s0.vol / 8.0
    assert res_neg.residual > floor
    assert time.monotonic() - start < 30.0


# -- 8: section-identity residual under grid refinement


def test_section_identity_residual_halving_ratio() -> None:
    # Why 16x per halving and not 4x.  Take a discrete solution with
    # r1 = r2 = 1 on the phi branch (theta2 = psi = 0), and write s = phi.
    # * W4 = 2 theta1 s = 0, so the |theta1^H s|^2 term of res1 drops out.
    # * With tau' = -tau, 2|s|^4 + (tau' - tau)|s|^2 splits as
    #   2(|s|^2 - tau)^2 + 2 tau (|s|^2 - tau).
    # * By W1, |s|^2 - tau = 2 W1 - 4 g1.  g1 is a sum of central
    #   differences (the scalar commutators vanish), and on a periodic grid
    #   each of those sums to exactly zero.  So the linear part equals
    #   4 tau a^2 sum(W1), which Cauchy-Schwarz bounds by
    #   4|tau| sqrt(vol * residual).
    # At an exact discrete solution res1 = a^2 sum(4|D_z s|^2
    # + 2(|s|^2 - tau)^2).  Each squared quantity is an O(a^2) pointwise
    # truncation defect, since the continuum solution is flat with a
    # covariantly constant section.  So res1 is O(a^4), which is 16x per
    # halving.  The tolerance term must stay far below res1 for the ratio
    # to measure the discretization, hence tol 1e-25 and the guard below.
    # prolong_state warm-starts each finer grid from the coarser solution,
    # so every grid discretizes the same continuum solution, not a
    # different gauge representative reached from a cold start.
    tau = 1.0
    rng = np.random.default_rng(11)
    state = vx.random_smooth_state(16, 1, 1, 1.0, rng, amplitude=0.3, tau=tau)
    res1 = []
    for N in (16, 32, 64):
        if N > 16:
            state = vx.prolong_state(state)
        res = vx.solve(state, tau, tol=1e-25, max_iter=60000)
        assert res.converged, N
        state = res.state
        r = lo.l4_identity_check(state, tau, tol=1e-8)["res1"]
        tolerance_term = 4.0 * abs(tau) * math.sqrt(state.vol * res.residual)
        assert tolerance_term <= 0.1 * r, (N, tolerance_term, r)
        res1.append(r)

    coarse, mid, fine = res1
    assert fine > 0.0
    pre, ratio = coarse / mid, mid / fine
    assert pre >= 12.0 and 12.0 <= ratio <= 20.0, (
        f"expected the section-identity residual to drop by ~16x per grid "
        f"halving (res1 is O(a^4) at degree-0 solutions), measured "
        f"16->32 {pre:.3f} and 32->64 {ratio:.3f} "
        f"(res1 {coarse:.3e}, {mid:.3e}, {fine:.3e})"
    )


# -- 9: analytic gradient against central differences, every block


def generic_state(N: int, r1: int, r2: int, rng: np.random.Generator) -> vx.LatticeState:
    def gen(*shape: int) -> np.ndarray:
        return 0.6 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def ah(*shape: int) -> np.ndarray:
        m = gen(*shape)
        return 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))

    return vx.LatticeState(
        N=N, a=1.0 / N,
        A1=ah(2, N, N, r1, r1), A2=ah(2, N, N, r2, r2),
        theta1=gen(N, N, r1, r1), theta2=gen(N, N, r2, r2),
        phi=gen(N, N, r1, r2), psi=gen(N, N, r2, r1),
    )


def test_gradient_matches_central_differences_on_every_block() -> None:
    rng = np.random.default_rng(2026)
    rank_pairs = ((1, 1), (2, 1), (1, 2), (2, 2))
    h = 1e-6
    for i in range(20):
        r1, r2 = rank_pairs[i % len(rank_pairs)]
        tau = 1.1
        s = generic_state(5, r1, r2, rng)
        grad = vx.residual_gradient(s, tau)
        for name in ("A1", "A2", "theta1", "theta2", "phi", "psi"):
            block = getattr(s, name)
            v = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
            if name in ("A1", "A2"):
                v = 0.5 * (v - np.conj(np.swapaxes(v, -1, -2)))
            analytic = 2.0 * float(np.real(np.sum(np.conj(grad[name]) * v)))
            e_plus = vx.residual_energy(replace(s, **{name: block + h * v}), tau)
            e_minus = vx.residual_energy(replace(s, **{name: block - h * v}), tau)
            fd = (e_plus - e_minus) / (2.0 * h)
            scale = max(abs(analytic), abs(fd), 1e-12)
            assert abs(analytic - fd) / scale <= 1e-6, (i, name)
