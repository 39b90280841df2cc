"""Analytic gradient of the residual energy against finite differences."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import higgspairs.vortex as vx

import lattice_oracles as lo

BLOCKS = ("A1", "A2", "theta1", "theta2", "phi", "psi")


def antiherm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))


def dense_state(
    N: int, r1: int, r2: int, rng: np.random.Generator, amplitude: float = 0.5
) -> vx.LatticeState:
    """Generic state with every block active (no special structure)."""

    def gen(*shape: int) -> np.ndarray:
        return amplitude * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )

    return vx.LatticeState(
        N=N,
        a=1.0 / N,
        A1=antiherm(gen(2, N, N, r1, r1)),
        A2=antiherm(gen(2, N, N, r2, r2)),
        theta1=gen(N, N, r1, r1),
        theta2=gen(N, N, r2, r2),
        phi=gen(N, N, r1, r2),
        psi=gen(N, N, r2, r1),
    )


def direction(s: vx.LatticeState, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Unit-norm tangent direction (A blocks anti-Hermitian)."""
    v = {}
    for name in BLOCKS:
        shape = getattr(s, name).shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[name] = antiherm(raw) if name in ("A1", "A2") else raw
    norm = np.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in v.values()))
    return {name: b / norm for name, b in v.items()}


def shifted(s: vx.LatticeState, v: dict[str, np.ndarray], t: float) -> vx.LatticeState:
    return replace(s, **{name: getattr(s, name) + t * v[name] for name in BLOCKS})


def analytic_slope(grad: dict[str, np.ndarray], v: dict[str, np.ndarray]) -> float:
    return 2.0 * sum(
        float(np.real(np.sum(np.conj(grad[name]) * v[name]))) for name in BLOCKS
    )


def fd_slope(
    s: vx.LatticeState, tau: float, v: dict[str, np.ndarray], h: float = 1e-6
) -> float:
    plus = vx.residual_energy(shifted(s, v, h), tau)
    minus = vx.residual_energy(shifted(s, v, -h), tau)
    return (plus - minus) / (2.0 * h)


def test_gradient_matches_finite_difference() -> None:
    rng = np.random.default_rng(23)
    for r1, r2 in ((1, 1), (2, 1), (2, 2)):
        tau = 1.0
        s = dense_state(6, r1, r2, rng)
        grad = vx.residual_gradient(s, tau)
        for _ in range(4):
            v = direction(s, rng)
            an = analytic_slope(grad, v)
            fd = fd_slope(s, tau, v)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_gradient_matches_fd_with_volume() -> None:
    rng = np.random.default_rng(29)
    tau = 3.0
    s = replace(dense_state(6, 2, 1, rng, amplitude=0.8), a=np.sqrt(2.0) / 6)
    grad = vx.residual_gradient(s, tau)
    for _ in range(4):
        v = direction(s, rng)
        an = analytic_slope(grad, v)
        fd = fd_slope(s, tau, v)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_single_block_directions() -> None:
    rng = np.random.default_rng(31)
    tau = 1.5
    s = dense_state(6, 2, 2, rng)
    grad = vx.residual_gradient(s, tau)
    for name in BLOCKS:
        full = direction(s, rng)
        v = {k: b if k == name else np.zeros_like(b) for k, b in full.items()}
        an = analytic_slope(grad, v)
        fd = fd_slope(s, tau, v)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), name


def packed_gradient(packing: vx._Preconditioner, f: vx._Fields, w: dict[str, np.ndarray]) -> np.ndarray:
    """The gradient the solver's loop forms: a fresh packed vector."""
    g = np.empty(packing.shape, dtype=np.complex128)
    vx._gradient(f, w, packing.unpack(g))
    return g


def solver_gradient(s: vx.LatticeState, tau: float) -> dict[str, np.ndarray]:
    """The solver's packed gradient of s read back as public FLOWS blocks."""
    f = vx._Fields.of(s)
    packing = vx._Preconditioner(s, tau)
    g = packed_gradient(packing, f, vx._residual_fields(f, tau))
    return {name: vx._turn(b) for name, b in packing.unpack(g).items()}


def assert_matches_slopes(got: dict[str, np.ndarray], want: dict[str, np.ndarray], names, where) -> None:
    scale = max(float(np.max(np.abs(g))) for g in want.values())
    assert scale > 0.0
    for name in names:
        assert float(np.max(np.abs(got[name] - want[name]))) <= 1e-12 * scale, (where, name)


@pytest.mark.parametrize("start", ["smooth", "zero theta1", "dense"])
@pytest.mark.parametrize("r1, r2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_gradient_matches_slopes_along_every_coordinate(r1: int, r2: int, start: str) -> None:
    # The oracle takes the slope along every real coordinate from the
    # residual fields of lattice_oracles, which share no kernel with the
    # solver.  The solver's packed gradient and residual_gradient must
    # match it on section-branch starts (theta2 = psi = 0), with theta1
    # nonzero and zero, and on a dense state, every block nonzero.
    tau = 0.8
    rng = np.random.default_rng(61 + 10 * r1 + r2)
    if start == "dense":
        s = dense_state(4, r1, r2, rng)
    else:
        s = vx.random_smooth_state(4, r1, r2, 1.0, rng, amplitude=0.3, tau=tau)
    if start == "zero theta1":
        s = replace(s, theta1=np.zeros_like(s.theta1))
    want = lo.residual_gradient(s, tau)
    where = (r1, r2, start)
    assert_matches_slopes(vx.residual_gradient(s, tau), want, BLOCKS, where)
    assert_matches_slopes(solver_gradient(s, tau), want, vx.FLOWS, where)


def test_a_gradient_blocks_are_anti_hermitian() -> None:
    rng = np.random.default_rng(37)
    s = dense_state(6, 2, 1, rng)
    grad = vx.residual_gradient(s, 1.0)
    for name in ("A1", "A2"):
        g = grad[name]
        assert float(np.max(np.abs(g + np.conj(np.swapaxes(g, -1, -2))))) <= 1e-14


def test_branch_freezes_blocks() -> None:
    # The solver's gradient holds the blocks it flows, the section branch's,
    # each equal to the full gradient's block; theta2 and psi are not built.
    rng = np.random.default_rng(41)
    s = dense_state(6, 2, 2, rng)
    tau = 1.0
    full = vx.residual_gradient(s, tau)
    grad = solver_gradient(s, tau)
    assert list(grad) == ["A1", "A2", "theta1", "phi"]
    for name, g in grad.items():
        assert np.array_equal(g, full[name]), name


def test_gradient_vanishes_at_exact_solution() -> None:
    tau = 1.0
    s = lo.constant_solution_state(8, tau)
    grad = vx.residual_gradient(s, tau)
    for name in BLOCKS:
        assert float(np.max(np.abs(grad[name]))) <= 1e-14, name


def test_solve_decreases_energy_every_iteration() -> None:
    rng = np.random.default_rng(43)
    tau = 1.0
    s = vx.random_state(8, 1, rng=rng, amplitude=0.5)
    res = vx.solve(s, tau, tol=0.0, max_iter=5)
    hist = res.energy_history
    assert res.iterations == 5 and len(hist) == 6
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_solve_at_fixed_point_returns_same_object() -> None:
    tau = 1.0
    s = lo.constant_solution_state(8, tau)
    res = vx.solve(s, tau, tol=0.0)
    # solve rebuilds the state to zero theta2 and psi, so "the same object"
    # is the same arrays: the start comes back without a step.
    assert res.iterations == 0
    assert res.stop_reason == "converged"
    for name in BLOCKS:
        assert np.array_equal(getattr(res.state, name), getattr(s, name)), name


def test_solve_branch_keeps_frozen_blocks() -> None:
    rng = np.random.default_rng(47)
    tau = 1.0
    s = dense_state(6, 2, 2, rng)
    out = vx.solve(s, tau, tol=0.0, max_iter=1).state
    assert not out.psi.any()
    assert not out.theta2.any()
    assert not np.array_equal(out.phi, s.phi)


def test_exact_step_beats_brute_force_line_search() -> None:
    # residual_energy is a quartic along any line; the returned step must
    # be at least as good as every point of a dense grid over the line.
    rng = np.random.default_rng(53)
    for r1, r2 in ((1, 1), (2, 1), (2, 2)):
        tau = 1.0
        s = dense_state(6, r1, r2, rng, amplitude=0.3)
        f = vx._Fields.of(s)
        w = vx._residual_fields(f, tau)
        packing = vx._Preconditioner(s, tau)
        dirn = packing.unpack(packing(packed_gradient(packing, f, w)))
        dirn = {name: vx._turn(d) for name, d in dirn.items()}

        def along(t: float) -> vx.LatticeState:
            return replace(s, **{name: getattr(s, name) - t * d for name, d in dirn.items()})

        # The probes at t = -1 and t = +1, stacked on a leading axis.
        pair = (along(-1.0), along(1.0))
        probes = vx._derived(s, {name: np.stack([getattr(p, name) for p in pair]) for name in BLOCKS})
        eta = vx._exact_step(w, vx._residual_fields(vx._Fields.of(probes), tau), 1.0)
        assert eta > 0.0
        best = vx.residual_energy(along(eta), tau)
        assert best < vx.residual_energy(s, tau)
        grid = np.concatenate(
            [np.linspace(0.0, 4.0 * eta, 401), eta * np.geomspace(4.0, 1e3, 50)]
        )
        for t in grid:
            e = vx.residual_energy(along(float(t)), tau)
            assert best <= e * (1.0 + 1e-12), (r1, r2, t)


# -- the closed-form line minimum ------------------------------------------


def quartic_drop(c: tuple[float, float, float, float], t: float) -> float:
    c1, c2, c3, c4 = c
    return t * (c1 + t * (c2 + t * (c3 + t * c4)))


def quartic_size(c: tuple[float, float, float, float], t: float) -> float:
    """The sum of the magnitudes of the quartic's terms at t: the scale of
    its rounding."""
    return sum(abs(ck) * abs(t) ** (k + 1) for k, ck in enumerate(c))


def roots_oracle(c: tuple[float, float, float, float]) -> float:
    """The positive real root of the quartic's derivative with the lowest
    value below zero, from np.roots (a companion-matrix eigensolve), or 0.0."""
    c1, c2, c3, c4 = c
    roots = np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1])
    best, drop = 0.0, 0.0
    for t in roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]:
        d = quartic_drop(c, float(t))
        if d < drop:
            best, drop = float(t), d
    return best


# Zero, or between 1e-6 and 1e3 in size: a spread of 1e9 between two
# coefficients.  Far wider, np.roots (the oracle) overflows in its
# companion matrix and the quartic's value at the far roots overflows a
# float; test_line_minimum_of_a_nearly_quadratic_quartic covers that range.
magnitude = st.floats(1e-6, 1e3)
coefficient = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
leading = st.one_of(st.just(0.0), magnitude)
root = st.floats(-10.0, 10.0)


@st.composite
def double_root(draw) -> tuple[float, float, float, float]:
    # E' = 4 c4 (t - r)^2 (t - u): the double root r is no minimum.
    c4, r, u = draw(st.floats(1e-3, 1e3)), draw(root), draw(root)
    return (-4.0 * c4 * r * r * u, 2.0 * c4 * (r * r + 2.0 * r * u), -4.0 * c4 * (2.0 * r + u) / 3.0, c4)


@st.composite
def triple_root(draw) -> tuple[float, float, float, float]:
    # E' = 4 c4 (t - r)^3: the triple root r is the minimum.
    c4, r = draw(st.floats(1e-3, 1e3)), draw(root)
    return (-4.0 * c4 * r ** 3, 6.0 * c4 * r * r, -4.0 * c4 * r, c4)


quartics = st.one_of(
    st.tuples(coefficient, coefficient, coefficient, leading),
    st.tuples(coefficient, coefficient, coefficient, st.just(0.0)),
    st.tuples(coefficient, coefficient, st.just(0.0), st.just(0.0)),
    double_root(),
    triple_root(),
)


@settings(max_examples=400, deadline=None)
@given(quartics)
def test_line_minimum_lowers_the_quartic_as_far_as_np_roots(c) -> None:
    # The closed form replaces np.roots in the solver's line step; it must
    # find a step at least as low as np.roots's best real root, to 1e-12
    # of the size of the quartic's terms.
    got = vx._line_minimum(*c)
    want = roots_oracle(c)
    assert got >= 0.0
    drop = quartic_drop(c, got)
    assert drop <= 0.0
    slack = 1e-12 * max(quartic_size(c, got), quartic_size(c, want))
    assert drop <= quartic_drop(c, want) + slack, (got, want)


@pytest.mark.parametrize("c4", [1e-12, 1e-100, 1e-200, 1e-300, 5e-324])
def test_line_minimum_of_a_nearly_quadratic_quartic(c4: float) -> None:
    # -2 t + t^2 + c4 t^4 is lowest at t = 1 - 2 c4 + O(c4^2), however far
    # a vanishing leading coefficient pushes the derivative's complex roots.
    assert vx._line_minimum(-2.0, 1.0, 0.0, c4) == pytest.approx(1.0 - 2.0 * c4, rel=1e-15)
