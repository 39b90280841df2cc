"""Vortex parameters, energies and the energy decomposition identity."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import higgspairs.vortex as vx

FOUR_PI = 4.0 * math.pi


def test_tau_prime_derived_from_coupling_identity() -> None:
    p = vx.VortexParams(r1=1, tau=1.0)
    assert p.tau_prime == pytest.approx(-1.0)
    p = vx.VortexParams(r1=2, tau=1.0)
    assert p.tau_prime == pytest.approx(-2.0)
    p = vx.VortexParams(r1=1, tau=3.0, r2=2)
    assert p.tau_prime == pytest.approx(-1.5)


def test_tau_prime_with_nonzero_degrees() -> None:
    p = vx.VortexParams(r1=1, tau=1.0, d1=1, vol=2.0)
    assert p.tau * p.r1 + p.tau_prime * p.r2 == pytest.approx(
        (FOUR_PI / p.vol) * (p.d1 + p.d2)
    )
    assert p.tau_prime == pytest.approx(FOUR_PI / 2.0 - 1.0)


def test_replace_rederives_tau_prime() -> None:
    p = vx.VortexParams(r1=1, tau=1.0)
    assert replace(p, tau=2.0).tau_prime == pytest.approx(-2.0)
    assert replace(p, r2=2).tau_prime == pytest.approx(-0.5)
    assert replace(p, d1=1, vol=2.0).tau_prime == pytest.approx(FOUR_PI / 2.0 - 1.0)
    with pytest.raises(TypeError):
        vx.VortexParams(r1=1, tau=1.0, tau_prime=-1.0)


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        vx.VortexParams(r1=0, tau=1.0)
    with pytest.raises(ValueError):
        vx.VortexParams(r1=1, tau=1.0, r2=0)
    with pytest.raises(ValueError):
        vx.VortexParams(r1=1, tau=1.0, vol=0.0)
    with pytest.raises(ValueError):
        vx.VortexParams(r1=1, tau=1.0, vol=-2.0)


def test_sigma_value_and_positivity() -> None:
    p = vx.VortexParams(r1=1, tau=1.0)
    assert vx.sigma_of(p) == pytest.approx(FOUR_PI)
    p = vx.VortexParams(r1=2, tau=2.0, r2=3, vol=2.0)
    den = (p.r1 + p.r2) * p.tau / FOUR_PI - (p.d1 + p.d2) / p.vol
    assert vx.sigma_of(p) == pytest.approx(2.0 * p.r2 / den)
    with pytest.raises(ValueError):
        vx.sigma_of(vx.VortexParams(r1=1, tau=-1.0))
    with pytest.raises(ValueError):
        vx.sigma_of(vx.VortexParams(r1=1, tau=0.0))


def test_hym_constant_is_half_tau() -> None:
    rng = np.random.default_rng(3)
    for _ in range(40):
        r1 = int(rng.integers(1, 4))
        r2 = int(rng.integers(1, 4))
        d1 = int(rng.integers(0, 3))
        d2 = int(rng.integers(0, 3))
        vol = float(rng.uniform(0.5, 4.0))
        lo = FOUR_PI * (d1 + d2) / (vol * (r1 + r2))
        tau = lo + float(rng.uniform(0.1, 3.0))
        p = vx.VortexParams(r1=r1, tau=tau, r2=r2, d1=d1, d2=d2, vol=vol)
        c = vx.hym_constant(p)
        assert c == pytest.approx(tau / 2.0, rel=1e-12)
        assert c - FOUR_PI / vx.sigma_of(p) == pytest.approx(
            p.tau_prime / 2.0, rel=1e-12, abs=1e-12
        )


def test_lattice_state_validation() -> None:
    s = vx.zero_state(4, 1)
    assert s.r1 == 1 and s.r2 == 1
    assert s.vol == pytest.approx(1.0)
    with pytest.raises(ValueError):
        vx.zero_state(3, 1)
    with pytest.raises(ValueError):
        vx.LatticeState(
            N=4, a=0.25, A1=s.A1, A2=s.A2,
            theta1=s.theta1, theta2=s.theta2,
            phi=s.phi.astype(np.complex64), psi=s.psi,
        )
    with pytest.raises(ValueError):
        vx.LatticeState(
            N=4, a=0.25, A1=s.A2, A2=s.A2,
            theta1=s.theta2, theta2=s.theta2,
            phi=np.zeros((4, 4, 2, 1), dtype=np.complex128), psi=s.psi,
        )


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 1), ()])
def test_lattice_state_rejects_phi_without_rank_axes(shape: tuple[int, ...]) -> None:
    # The ranks are read off phi's last two axes, so a phi with fewer than
    # four axes must be refused before they are read.
    phi = np.zeros(shape, dtype=np.complex128)
    with pytest.raises(ValueError, match=r"^phi has shape .*, expected \(4, 4, r1, r2\)$"):
        replace(vx.zero_state(4, 1), phi=phi)


def test_zero_state_energies() -> None:
    for r1, r2, tau, vol in ((1, 1, 1.0, 1.0), (2, 1, 1.5, 2.0), (1, 2, 2.0, 1.0)):
        p = vx.VortexParams(r1=r1, tau=tau, r2=r2, vol=vol)
        s = vx.zero_state(8, r1, r2, vol)
        want = 0.25 * vol * (r1 * tau**2 + r2 * p.tau_prime**2)
        assert vx.ymh_energy(s, p) == pytest.approx(want, rel=1e-12)
        assert vx.residual_energy(s, p) == pytest.approx(want, rel=1e-12)
        assert vx.decomposition_check(s, p) <= 1e-14
        assert vx.moment_map_value(s) == 0.0


def test_constant_solution_is_exact() -> None:
    p = vx.VortexParams(r1=1, tau=1.0)
    s = vx.constant_solution_state(8, p)
    assert vx.residual_energy(s, p) <= 1e-28
    assert vx.ymh_energy(s, p) <= 1e-28
    out = vx.l4_identity_check(s, p)
    assert out["res1"] <= 1e-13
    assert out["res2"] <= 1e-13
    res = vx.solve(s, p)
    assert res.converged
    assert res.iterations == 0
    assert res.energy_history == [res.residual]


def test_constant_solution_requires_scalar_positive_tau() -> None:
    with pytest.raises(ValueError):
        vx.constant_solution_state(8, vx.VortexParams(r1=2, tau=1.0))
    with pytest.raises(ValueError):
        vx.constant_solution_state(8, vx.VortexParams(r1=1, tau=-1.0))


def test_decomposition_identity_on_random_states() -> None:
    rng = np.random.default_rng(11)
    for r1, r2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        p = vx.VortexParams(r1=r1, tau=1.25, r2=r2)
        for _ in range(25):
            s = vx.random_state(8, r1, r2, rng=rng)
            assert not vx.check_invariants(s)
            assert vx.decomposition_check(s, p) <= 1e-10


def test_decomposition_identity_other_grids_and_couplings() -> None:
    rng = np.random.default_rng(12)
    for N in (4, 6):
        for tau in (-1.0, 0.5, 2.0):
            p = vx.VortexParams(r1=2, tau=tau, vol=3.0)
            for _ in range(10):
                s = vx.random_state(N, 2, 1, vol=3.0, rng=rng, amplitude=0.7)
                assert vx.decomposition_check(s, p) <= 1e-10


def test_residual_breakdown_sums_to_energy() -> None:
    rng = np.random.default_rng(5)
    p = vx.VortexParams(r1=2, tau=1.0)
    for _ in range(10):
        s = vx.random_state(6, 2, 1, rng=rng)
        br = vx.residual_breakdown(s, p)
        total = br["eq1"] + br["eq2"] + br["holomorphicity"] + br["intertwining"]
        assert total == pytest.approx(vx.residual_energy(s, p), rel=1e-12)
        assert br["eq1_max"] >= 0.0 and br["eq2_max"] >= 0.0
        assert br["theta_s_sup"] >= 0.0


def test_residual_breakdown_zero_state_values() -> None:
    p = vx.VortexParams(r1=1, tau=2.0, vol=4.0)
    s = vx.zero_state(8, 1, vol=4.0)
    br = vx.residual_breakdown(s, p)
    assert br["eq1"] == pytest.approx(0.25 * p.tau**2 * p.vol)
    assert br["eq2"] == pytest.approx(0.25 * p.tau_prime**2 * p.vol)
    assert br["holomorphicity"] == 0.0
    assert br["intertwining"] == 0.0
    assert br["eq1_max"] == pytest.approx(0.5 * abs(p.tau))
    assert br["theta_s_sup"] == 0.0


def test_moment_map_value_matches_direct_sum() -> None:
    rng = np.random.default_rng(7)
    s = vx.random_state(6, 2, 2, vol=2.5, rng=rng)
    want = s.a * s.a * (
        float(np.sum(np.abs(s.theta1) ** 2)) + float(np.sum(np.abs(s.theta2) ** 2))
    )
    assert vx.moment_map_value(s) == pytest.approx(want, rel=1e-12)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_constant_gauge_invariance() -> None:
    rng = np.random.default_rng(17)
    for r1, r2 in ((1, 1), (2, 1), (2, 2)):
        p = vx.VortexParams(r1=r1, tau=1.0, r2=r2)
        s = vx.random_state(8, r1, r2, rng=rng)
        u1 = random_unitary(rng, r1)
        u2 = random_unitary(rng, r2)
        t = vx.gauge_transform(s, u1, u2)
        assert not vx.check_invariants(t, atol=1e-10)
        for fn in (vx.ymh_energy, vx.residual_energy):
            assert fn(t, p) == pytest.approx(fn(s, p), rel=1e-9)
        assert vx.moment_map_value(t) == pytest.approx(
            vx.moment_map_value(s), rel=1e-9
        )


def test_check_invariants_reports_defects() -> None:
    s = vx.zero_state(4, 2, 2)
    assert vx.check_invariants(s) == []
    bad_a = s.A1.copy()
    bad_a[0, 0, 0] = np.eye(2)
    assert "A1 is not anti-Hermitian" in vx.check_invariants(
        vx.LatticeState(
            N=4, a=s.a, A1=bad_a, A2=s.A2, theta1=s.theta1,
            theta2=s.theta2, phi=s.phi, psi=s.psi,
        )
    )
    dense = vx.LatticeState(
        N=4, a=s.a, A1=s.A1, A2=s.A2, theta1=s.theta1, theta2=s.theta2,
        phi=np.ones((4, 4, 2, 2), dtype=np.complex128),
        psi=np.ones((4, 4, 2, 2), dtype=np.complex128),
    )
    out = vx.check_invariants(dense)
    assert "phi psi != 0" in out and "psi phi != 0" in out


def test_l4_identity_requires_convergence() -> None:
    p = vx.VortexParams(r1=1, tau=1.0)
    s = vx.zero_state(8, 1)
    with pytest.raises(vx.NotConvergedError):
        vx.l4_identity_check(s, p)
