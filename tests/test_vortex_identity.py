"""The vortex coupling, energies and the energy decomposition identity."""

from __future__ import annotations

import ast
import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import higgspairs.vortex as vx

import lattice_oracles as lo


def test_tau_prime_derived_from_coupling_identity() -> None:
    assert vx.tau_prime(1.0, 1, 1) == pytest.approx(-1.0)
    assert vx.tau_prime(1.0, 2, 1) == pytest.approx(-2.0)
    assert vx.tau_prime(3.0, 1, 2) == pytest.approx(-1.5)


def test_tau_prime_at_zero_tau_is_positive_zero() -> None:
    # tau_prime goes into the psi branch's tau and into reports, so its
    # sign bit at tau = 0 is part of their bytes.
    for r1, r2 in ((1, 1), (2, 1), (1, 3)):
        tau_prime = vx.tau_prime(0.0, r1, r2)
        assert tau_prime == 0.0 and math.copysign(1.0, tau_prime) == 1.0


def test_params_take_no_degrees() -> None:
    # A problem is a state and one coupling: tau' follows from tau and the
    # ranks, and nothing takes a degree.
    assert list(inspect.signature(vx.tau_prime).parameters) == ["tau", "r1", "r2"]
    with pytest.raises(TypeError):
        vx.tau_prime(1.0, 1, 1, d1=1)
    for fn in (vx.ymh_energy, vx.residual_energy, vx.residual_breakdown,
               vx.decomposition_check, vx.residual_gradient):
        assert list(inspect.signature(fn).parameters) == ["s", "tau"], fn.__name__
    assert list(inspect.signature(vx.solve).parameters) == ["s0", "tau", "tol", "max_iter"]


@pytest.mark.parametrize("r1, r2, tau", [(1, 1, 1.0), (2, 1, 0.7), (1, 2, -1.5), (2, 3, 2.0)])
def test_trace_of_the_residuals_sums_to_zero(r1: int, r2: int, tau: float) -> None:
    # Degree 0: the curvature traces are central differences and
    # commutators, which sum to zero on the periodic grid, and the moment
    # maps' traces cancel between W1 and W2, so a^2 sum tr(W1 + W2) =
    # -(vol/2)(tau r1 + tau' r2) = 0 at every state.  A nonzero sum would
    # bound residual_energy away from zero.
    s = vx.random_state(6, r1, r2, vol=2.0, rng=np.random.default_rng(r1 + 3 * r2))
    w = {name: vx._turn(v) for name, v in vx._residual_fields(vx._Fields.of(s), tau).items()}
    total = s.a * s.a * complex(np.trace(w["W1"], axis1=-2, axis2=-1).sum()
                                + np.trace(w["W2"], axis1=-2, axis2=-1).sum())
    assert abs(total) <= 1e-12


@pytest.mark.parametrize("tau", [1.0, 0.5, -0.7])
@pytest.mark.parametrize("build", [vx.random_state, vx.random_smooth_state])
@pytest.mark.parametrize("r1, r2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_residual_energy_and_breakdown_match_the_roll_oracle(r1, r2, build, tau) -> None:
    # The oracle shares no kernel with the solver and reads the public
    # (N, N, r, q) blocks, so it pins whatever layout the kernels use.
    # Every part is a sum or a maximum of squared fields whose rounding is
    # a few ulps of the sum, so one relative tolerance serves all of them.
    rel = 1e-13
    s = build(7, r1, r2, 1.5, np.random.default_rng(7 * r1 + r2))
    w = lo.residual_fields(s, tau)
    k = s.a * s.a
    norm = {name: k * float(np.sum(np.abs(v) ** 2)) for name, v in w.items()}

    def site_max(name: str) -> float:
        return float(np.max(np.sqrt(lo.site_frob2(w[name]))))

    want = {
        "eq1": norm["W1"],
        "eq2": norm["W2"],
        "holomorphicity": norm["W3"] + norm["W5"],
        "intertwining": norm["W4"] + norm["W6"],
        "eq1_max": site_max("W1"),
        "eq2_max": site_max("W2"),
        "theta_s_sup": 0.5 * max(site_max("W4"), site_max("W6")),
    }
    got = vx.residual_breakdown(s, tau)
    assert got.keys() == want.keys()
    for part, value in want.items():
        assert abs(got[part] - value) <= rel * abs(value), part
    total = sum(norm.values())
    assert abs(vx.residual_energy(s, tau) - total) <= rel * total


def test_replace_rederives_tau_prime() -> None:
    # tau' is read off the state's ranks at every call, so a state that
    # replace gives other ranks is solved at its own tau'.  At the zero
    # state eq2 is (vol/4) r2 tau'^2, with tau' = -tau r1 / r2.
    s = vx.zero_state(8, 1, 1)
    assert vx.residual_breakdown(s, 2.0)["eq2"] == pytest.approx(0.25 * 4.0)
    wide = vx.zero_state(8, 1, 2)
    t = replace(s, A2=wide.A2, theta2=wide.theta2, phi=wide.phi, psi=wide.psi)
    assert (t.r1, t.r2) == (1, 2)
    assert vx.residual_breakdown(t, 1.0)["eq2"] == pytest.approx(0.25 * 2 * 0.25)
    with pytest.raises(TypeError):
        vx.residual_energy(s, 1.0, tau_prime=-1.0)


def test_params_validation() -> None:
    # The ranks and the volume of a problem are its state's, and the state
    # refuses a zero rank and a volume that is not finite and positive,
    # naming the volume.
    with pytest.raises(ValueError, match=r"^ranks must be positive, got \(0, 1\)$"):
        vx.zero_state(8, 0)
    with pytest.raises(ValueError, match=r"^ranks must be positive, got \(1, 0\)$"):
        vx.zero_state(8, 1, 0)
    for vol in (0.0, -2.0, math.nan, math.inf):
        for build in (vx.zero_state, vx.random_state, vx.random_smooth_state):
            with pytest.raises(ValueError, match=rf"^volume must be finite and positive, got {vol!r}$"):
                build(8, 1, 1, vol)


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
    for a in (0.0, -0.25, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^spacing must be finite and positive, got {a}$"):
            replace(s, a=a)


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 1), (), (4, 4, 0, 1), (4, 4, 1, 0)])
def test_lattice_state_rejects_phi_without_rank_axes(shape: tuple[int, ...]) -> None:
    # The ranks are read off phi's last two axes, so a phi with fewer than
    # four axes must be refused before they are read, and a zero axis is no
    # rank.
    phi = np.zeros(shape, dtype=np.complex128)
    if len(shape) < 4:
        match = r"^phi has shape .*, expected \(4, 4, r1, r2\)$"
    else:
        match = rf"^ranks must be positive, got \({shape[2]}, {shape[3]}\)$"
        with pytest.raises(ValueError, match=match):
            vx.zero_state(8, shape[2], shape[3])
    with pytest.raises(ValueError, match=match):
        replace(vx.zero_state(4, 1), phi=phi)


def test_zero_state_energies() -> None:
    for r1, r2, tau, vol in ((1, 1, 1.0, 1.0), (2, 1, 1.5, 2.0), (1, 2, 2.0, 1.0)):
        s = vx.zero_state(8, r1, r2, vol)
        tau_prime = -tau * r1 / r2
        want = 0.25 * vol * (r1 * tau**2 + r2 * tau_prime**2)
        assert vx.ymh_energy(s, tau) == pytest.approx(want, rel=1e-12)
        assert vx.residual_energy(s, tau) == pytest.approx(want, rel=1e-12)
        assert vx.decomposition_check(s, tau) <= 1e-14
        assert vx.moment_map_value(s) == 0.0


def test_constant_solution_is_exact() -> None:
    s = lo.constant_solution_state(8, 1.0)
    assert vx.residual_energy(s, 1.0) <= 1e-28
    assert vx.ymh_energy(s, 1.0) <= 1e-28
    out = lo.l4_identity_check(s, 1.0)
    assert out["res1"] <= 1e-13
    assert out["res2"] <= 1e-13
    res = vx.solve(s, 1.0)
    assert res.converged
    assert res.iterations == 0
    assert res.energy_history == [res.residual]


def test_constant_solution_requires_scalar_positive_tau() -> None:
    with pytest.raises(ValueError):
        lo.constant_solution_state(8, 1.0, r1=2)
    with pytest.raises(ValueError):
        lo.constant_solution_state(8, -1.0)


def test_decomposition_identity_on_random_states() -> None:
    rng = np.random.default_rng(11)
    for r1, r2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for _ in range(25):
            s = vx.random_state(8, r1, r2, rng=rng)
            assert not lo.check_invariants(s)
            assert vx.decomposition_check(s, 1.25) <= 1e-10


def test_decomposition_identity_other_grids_and_couplings() -> None:
    rng = np.random.default_rng(12)
    for N in (4, 6):
        for tau in (-1.0, 0.5, 2.0):
            for _ in range(10):
                s = vx.random_state(N, 2, 1, vol=3.0, rng=rng, amplitude=0.7)
                assert vx.decomposition_check(s, tau) <= 1e-10


def test_residual_breakdown_sums_to_energy() -> None:
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = vx.random_state(6, 2, 1, rng=rng)
        br = vx.residual_breakdown(s, 1.0)
        total = br["eq1"] + br["eq2"] + br["holomorphicity"] + br["intertwining"]
        assert total == pytest.approx(vx.residual_energy(s, 1.0), rel=1e-12)
        assert br["eq1_max"] >= 0.0 and br["eq2_max"] >= 0.0
        assert br["theta_s_sup"] >= 0.0


def test_residual_breakdown_zero_state_values() -> None:
    tau = 2.0
    s = vx.zero_state(8, 1, vol=4.0)
    br = vx.residual_breakdown(s, tau)
    tau_prime = -tau * s.r1 / s.r2
    assert br["eq1"] == pytest.approx(0.25 * tau**2 * s.vol)
    assert br["eq2"] == pytest.approx(0.25 * tau_prime**2 * s.vol)
    assert br["holomorphicity"] == 0.0
    assert br["intertwining"] == 0.0
    assert br["eq1_max"] == pytest.approx(0.5 * abs(tau))
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
        s = vx.random_state(8, r1, r2, rng=rng)
        u1 = random_unitary(rng, r1)
        u2 = random_unitary(rng, r2)
        t = lo.gauge_transform(s, u1, u2)
        assert not lo.check_invariants(t, atol=1e-10)
        for fn in (vx.ymh_energy, vx.residual_energy):
            assert fn(t, 1.0) == pytest.approx(fn(s, 1.0), rel=1e-9)
        assert vx.moment_map_value(t) == pytest.approx(
            vx.moment_map_value(s), rel=1e-9
        )


def test_check_invariants_reports_defects() -> None:
    s = vx.zero_state(4, 2, 2)
    assert lo.check_invariants(s) == []
    bad_a = s.A1.copy()
    bad_a[0, 0, 0] = np.eye(2)
    assert "A1 is not anti-Hermitian" in lo.check_invariants(
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
    out = lo.check_invariants(dense)
    assert "phi psi != 0" in out and "psi phi != 0" in out


def test_l4_identity_requires_convergence() -> None:
    s = vx.zero_state(8, 1)
    with pytest.raises(lo.NotConvergedError):
        lo.l4_identity_check(s, 1.0)


def test_oracles_read_no_private_library_names() -> None:
    # The oracles must not compute with the kernels they check, so the
    # helper module reads public names of higgspairs only.
    tree = ast.parse(Path(lo.__file__).read_text(encoding="utf-8"))
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        for dotted, name in imported:
            if dotted.split(".")[0] == "higgspairs":
                bound.add(name)
                if any(part.startswith("_") for part in dotted.split(".")):
                    private.append(f"line {node.lineno}: import {dotted}")
    assert bound, "the scan found no import of higgspairs"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                private.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert private == []
