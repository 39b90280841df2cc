"""End-to-end gradient-flow solves and grid-transfer behaviour."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import higgspairs.vortex as vx

import lattice_oracles as lo


def scalar_solve(seed: int = 7, N: int = 8, tol: float = 1e-12) -> vx.SolveResult:
    rng = np.random.default_rng(seed)
    tau = 1.0
    s0 = vx.random_smooth_state(N, 1, 1, 1.0, rng, amplitude=0.1, tau=1.0)
    return vx.solve(s0, tau, tol=tol, max_iter=5000)


def test_scalar_vortex_converges() -> None:
    res = scalar_solve()
    assert res.converged
    assert not res.stalled
    assert res.residual <= 1e-12
    assert res.iterations < 1000
    assert res.moment_map_value <= 1e-10
    assert res.breakdown["eq1_max"] <= 1e-5 and res.breakdown["eq2_max"] <= 1e-5
    assert res.breakdown["holomorphicity"] <= 1e-10
    assert res.breakdown["theta_s_sup"] <= 1e-5


def test_energy_history_is_monotone() -> None:
    res = scalar_solve()
    hist = res.energy_history
    assert len(hist) == res.iterations + 1
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == res.residual


def test_result_reads_its_diagnostics_off_the_final_state() -> None:
    res = scalar_solve()
    tau = 1.0
    assert res.residual == vx.residual_energy(res.state, tau)
    assert res.breakdown == vx.residual_breakdown(res.state, tau)
    assert res.moment_map_value == vx.moment_map_value(res.state)


def test_solve_is_deterministic() -> None:
    a = scalar_solve()
    b = scalar_solve()
    assert a.iterations == b.iterations
    assert a.energy_history == b.energy_history
    for name in ("A1", "A2", "theta1", "theta2", "phi", "psi"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name))


def test_solution_trace_identity() -> None:
    # sum a^2 tr W1 = (a^2 sum |phi|^2 - tau vol) / 2 exactly, so the error
    # is at most 2 sqrt(vol E): tol 1e-20 bounds it by 2e-10.
    res = scalar_solve(tol=1e-20)
    assert res.converged
    s = res.state
    total = s.a * s.a * float(np.sum(np.abs(s.phi) ** 2))
    assert total == pytest.approx(1.0 * s.vol, abs=1e-9)


def test_l4_identities_at_solution() -> None:
    res = scalar_solve(tol=1e-13)
    out = lo.l4_identity_check(res.state, 1.0)
    assert out["res2"] <= 1e-10
    assert out["res1"] <= 1e-5


def negative_tau_section_solve() -> tuple[vx.SolveResult, float, vx.LatticeState]:
    rng = np.random.default_rng(7)
    tau = -1.0
    s0 = vx.random_smooth_state(8, 1, 1, 1.0, rng, amplitude=0.1, tau=tau)
    return vx.solve(s0, tau, tol=1e-12, max_iter=2000), tau, s0


def test_negative_tau_cannot_converge_on_section_branch() -> None:
    res, tau, s0 = negative_tau_section_solve()
    assert not res.converged
    assert res.stalled
    floor = tau**2 * s0.vol / 8.0
    assert res.residual >= 0.999 * floor


def test_negative_tau_converges_on_mirror_branch() -> None:
    # The mirror branch (phi = theta1 = 0) at tau = -1 is the section
    # branch of the exchanged bundles, whose coupling is tau' = 1.
    rng = np.random.default_rng(7)
    mirrored = vx.exchange_bundles(
        vx.random_smooth_state(8, 1, 1, 1.0, rng, amplitude=0.1, tau=1.0)
    )
    tau, tau_prime = -1.0, 1.0
    res = vx.solve(vx.exchange_bundles(mirrored), tau_prime, tol=1e-20, max_iter=5000)
    assert res.converged
    s = vx.exchange_bundles(res.state)
    assert not s.phi.any() and not s.theta1.any()
    assert vx.residual_energy(s, tau) <= 1e-20
    total = s.a * s.a * float(np.sum(np.abs(s.psi) ** 2))
    assert total == pytest.approx(tau_prime * s.vol, abs=1e-9)


def capped_solve() -> vx.SolveResult:
    rng = np.random.default_rng(7)
    tau = 1.0
    s0 = vx.random_smooth_state(8, 1, 1, 1.0, rng, amplitude=0.1, tau=1.0)
    return vx.solve(s0, tau, tol=1e-12, max_iter=3)


def test_solve_honours_max_iter() -> None:
    res = capped_solve()
    assert not res.converged
    assert res.iterations == 3
    assert len(res.energy_history) == 4


def test_cold_solve_reaches_rounding_level_tolerance() -> None:
    rng = np.random.default_rng(11)
    tau = 1.0
    s0 = vx.random_smooth_state(32, 1, 1, 1.0, rng, amplitude=0.3, tau=1.0)
    res = vx.solve(s0, tau, tol=1e-25, max_iter=2000)
    assert res.converged
    assert not res.stalled
    # Measured 9 with the Gauss-Newton symbol; the per-block kernel took 170.
    assert res.iterations <= 20, res.iterations


def test_rank_two_solve_leaves_the_saddle() -> None:
    # From this start the flow first approaches the theta1 = 0 saddle at
    # residual 3/8; the solve must leave it within the budget.
    rng = np.random.default_rng(3)
    tau = 1.0
    s0 = vx.random_smooth_state(8, 2, 1, 1.0, rng, amplitude=0.1, tau=1.0)
    res = vx.solve(s0, tau, tol=1e-3, max_iter=300)
    assert res.converged


@pytest.mark.parametrize("N", [16, 32, 64])
def test_cold_rank_one_solve_takes_at_most_8_iterations(N: int) -> None:
    # The benchmark's rank-1 solves; measured 5 iterations at every N with
    # the Gauss-Newton symbol, 43/44/48 with the per-block kernel.
    res = scalar_solve(N=N, tol=1e-13)
    assert res.converged
    assert res.iterations <= 8, res.iterations


@pytest.mark.parametrize("N", [16, 32])
def test_cold_rank_two_vacuum_solve_takes_at_most_40_iterations(N: int) -> None:
    # (2, 2) has the vacuum phi = sqrt(tau) I; measured 24/25 iterations,
    # 76/84 with the per-block kernel.
    tau = 1.0
    s0 = vx.random_smooth_state(N, 2, 2, 1.0, np.random.default_rng(3), 0.1, 1.0)
    res = vx.solve(s0, tau, tol=1e-12, max_iter=2000)
    assert res.converged
    assert res.iterations <= 40, res.iterations


def test_cold_rank_one_solve_at_zero_tau_converges() -> None:
    # At tau = 0 the vacuum phi = 0 has no mass and the symbol's null space
    # takes everything the mass would see; measured 8 iterations.
    tau = 0.0
    s0 = vx.random_smooth_state(16, 1, 1, 1.0, np.random.default_rng(7), 0.1, 0.0)
    res = vx.solve(s0, tau, tol=1e-13, max_iter=2000)
    assert res.converged
    assert res.iterations <= 20, res.iterations


def test_solve_costs_three_field_evaluations_per_iteration(monkeypatch) -> None:
    # Each call counts the states it evaluates: one per entry of the leading
    # axis that a stacked state's potentials carry, or one.
    calls = []
    fields = vx._residual_fields

    def counted(f: vx._Fields, tau: float, out=None) -> dict[str, np.ndarray]:
        calls.append(math.prod(f.Z1.shape[:-4]))
        return fields(f, tau, out)

    monkeypatch.setattr(vx, "_residual_fields", counted)
    tau = 1.0

    def total(max_iter: int) -> tuple[int, int]:
        s0 = vx.random_smooth_state(16, 1, 1, 1.0, np.random.default_rng(7), 0.1, 1.0)
        calls.clear()
        assert vx.solve(s0, tau, tol=0.0, max_iter=max_iter).iterations == max_iter
        return len(calls), sum(calls)

    # One call per iteration on three stacked states: the state the gradient
    # was taken at, evaluated exactly, and the two line probes.  The start,
    # the first line (two probes), the confirmation of the last step and
    # the Gauss-Newton symbol's impulse probe are a fixed cost per solve,
    # which the difference of two budgets leaves out.
    (short_calls, short_states), (long_calls, long_states) = total(2), total(4)
    assert long_calls - short_calls == 2 * 1
    assert long_states - short_states == 2 * 3


def test_solve_reads_its_breakdown_off_the_loop_fields(monkeypatch) -> None:
    # Without a vacuum ((2, 1) has none) there is no symbol to probe: the
    # final breakdown reuses the residual fields of the last accepted state,
    # and equals residual_breakdown of the final state.
    calls = []
    fields = vx._residual_fields

    def counted(f: vx._Fields, tau: float, out=None) -> dict[str, np.ndarray]:
        calls.append(1)
        return fields(f, tau, out)

    monkeypatch.setattr(vx, "_residual_fields", counted)
    s0 = vx.random_smooth_state(8, 2, 1, 1.0, np.random.default_rng(3), 0.1, 1.0)
    res = vx.solve(s0, 1.0, tol=0.0, max_iter=3)
    assert res.iterations == 3
    # The start, one stacked call per iteration, and one on the last new
    # state alone, whose gradient no line needs.
    assert len(calls) == 1 + 3 * 1 + 1
    assert res.breakdown == vx.residual_breakdown(res.state, 1.0)


@pytest.mark.parametrize("r1, seed, products", [(1, 7, 13), (2, 3, 19)])
def test_phi_branch_iteration_skips_zero_terms(monkeypatch, r1: int, seed: int, products: int) -> None:
    # On the phi branch psi = theta2 = 0, so no term with either factor is
    # formed, and commutators of the 1x1 (r2 = 1) blocks take no product.
    # Kernel calls per iteration (one field evaluation on three stacked
    # states, and one gradient): 6 stencils, and 13 (rank 1) or 19 (rank 2)
    # small-matrix products; with the new state evaluated in a call of its
    # own they were 9, 18 and 26.  The gradient takes the A1 and theta1
    # blocks from one stencil and two commutators on the stacked halves of
    # W1.  With one call per state and every term formed, the three
    # evaluations and the gradient cost 16 stencils and 72 products.
    counts = {"_stencil": 0, "_mm": 0}
    for name in counts:
        kernel = getattr(vx, name)

        def counted(*args, _kernel=kernel, _name=name):
            counts[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(vx, name, counted)
    tau = 1.0

    def totals(max_iter: int) -> dict[str, int]:
        s0 = vx.random_smooth_state(
            8, r1, 1, 1.0, np.random.default_rng(seed), amplitude=0.1, tau=1.0
        )
        for name in counts:
            counts[name] = 0
        assert vx.solve(s0, tau, tol=0.0, max_iter=max_iter).iterations == max_iter
        return dict(counts)

    # The same start and budgets 2 and 4: the difference is two iterations,
    # free of the start-state and final-breakdown evaluations.
    short, long = totals(2), totals(4)
    assert (long["_stencil"] - short["_stencil"]) == 2 * 6
    assert (long["_mm"] - short["_mm"]) == 2 * products


@pytest.mark.parametrize("r1, seed", [(1, 7), (2, 3)])
def test_phi_branch_iteration_makes_one_transform_pair_per_axis(
    monkeypatch, r1: int, seed: int
) -> None:
    # The preconditioner transforms all live gradient blocks together: a
    # forward and an inverse transform per site axis, 4 numpy.fft calls per
    # iteration at every rank, where an fft2/ifft2 pair per live block
    # (A1, A2, theta1, phi on the phi branch) made 8.  At (1, 1) the
    # Gauss-Newton symbol transforms real coordinates, rfft and fft forward
    # and ifft and irfft back, also one pair per axis; the real transforms
    # and the 2-D ones are counted too.
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):

        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    tau = 1.0

    def total(max_iter: int) -> int:
        s0 = vx.random_smooth_state(
            8, r1, 1, 1.0, np.random.default_rng(seed), amplitude=0.1, tau=1.0
        )
        calls.clear()
        assert vx.solve(s0, tau, tol=0.0, max_iter=max_iter).iterations == max_iter
        return len(calls)

    assert total(4) - total(2) == 2 * 4


@pytest.mark.parametrize(
    "N, r1, r2, max_iter",
    [
        (32, 1, 1, 100), (64, 1, 1, 100), (17, 1, 1, 100), (16, 2, 2, 30), (32, 2, 2, 30),
        (4, 2, 2, 2), (4, 4, 4, 2), (4, 6, 6, 2), (16, 2, 1, 30), (32, 2, 1, 30),
        (16, 1, 2, 30),
    ],
)
def test_solve_bytes_bounds_the_traced_peak(N: int, r1: int, r2: int, max_iter: int) -> None:
    # The CLI refuses a grid on this estimate before it allocates, so it
    # must bound what sampling and solving hold, the Gauss-Newton symbol of
    # the r1 = r2 problems included (odd N: no mode shares a class).  On
    # the smallest grid the symbol's build dominates, and it grows as r^4.
    # At r1 != r2 there is no symbol, and the stacked pass of the (2, 1)
    # problem is the largest working set per state; on 16 sites numpy's
    # ufunc buffers add 1.4 states to it.
    # A first short solve leaves numpy's one-time allocations (FFT plans,
    # lazy imports), which do not grow with the grid, outside the count.
    tau = 1.0
    vx.solve(vx.random_smooth_state(N, r1, r2, 1.0, np.random.default_rng(3), 0.1, 1.0), tau, max_iter=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s0 = vx.random_smooth_state(N, r1, r2, 1.0, np.random.default_rng(3), 0.1, 1.0)
        vx.solve(s0, tau, tol=1e-12, max_iter=max_iter)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= vx.solve_bytes(N, r1, r2), (peak, vx.solve_bytes(N, r1, r2))


# solve_bytes(N, r, r) for N = 4..70: the CLI refuses a grid on these
# numbers before it allocates, so moving their arithmetic must keep them.
# Three-row passes raised SOLVE_WORKING_STATES from 11 to 13 and added
# numpy's ufunc buffers, which moved every one of them.
SOLVE_BYTES = {
    1: [
        474496, 506176, 514944, 574976, 585664, 666048, 657856, 779392, 766720, 915008,
        870656, 1072896, 1017664, 1253056, 1153344, 1455488, 1338496, 1680192, 1505920,
        1927168, 1729216, 2196416, 1928384, 2487936, 2189824, 2801728, 2420736, 3137792,
        2720320, 3496128, 2982976, 3876736, 3320704, 4279616, 3615104, 4704768, 3990976,
        5152192, 4317120, 5621888, 4731136, 6113856, 5089024, 6628096, 5541184, 7164608,
        5930816, 7723392, 6421120, 8304448, 6842496, 8907776, 7370944, 9533376, 7824064,
        10181248, 8390656, 10851392, 8875520, 11543808, 9480256, 12258496, 9996864,
        12995456, 10639744, 13754688, 11188096
    ],
    2: [
        1150336, 1233856, 1312128, 1446656, 1551808, 1729344, 1840576, 2081920, 2213632,
        2504384, 2629376, 2996736, 3135808, 3558976, 3678528, 4191104, 4318336, 4893120,
        4988032, 5665024, 5761216, 6506816, 6557888, 7418496, 7464448, 8400064, 8388096,
        9451520, 9428032, 10572864, 10478656, 11764096, 11651968, 13025216, 12829568,
        14356224, 14136256, 15757120, 15440832, 17227904, 16880896, 18768576, 18312448,
        20379136, 19885888, 22059584, 21444416, 23809920, 23151232, 25630144, 24836736,
        27520256, 26676928, 29480256, 28489408, 31510144, 30462976, 33609920, 32402432,
        35779584, 34509376, 38019136, 36575808, 40328576, 38816128, 42707904, 41009536
    ],
    3: [
        3812736, 3982656, 4176768, 4435456, 4698048, 5037504, 5347776, 5788800, 6161152,
        6689344, 7096576, 7739136, 8202048, 8938176, 9423168, 10286464, 10820736, 11784000,
        12327552, 13430784, 14017216, 15226816, 15809728, 17172096, 17791488, 19266624,
        19869696, 21510400, 22143552, 23903424, 24507456, 26445696, 27073408, 29137216,
        29723008, 31977984, 32581056, 34968000, 35516352, 38107264, 38666496, 41395776,
        41887488, 44833536, 45329728, 48420544, 48836416, 52156800, 52570752, 56042304,
        56363136, 60077056, 60389568, 64261056, 64467648, 68594304, 68786176, 73076800,
        73149952, 77708544, 77760576, 82489536, 82410048, 87419776, 87312768, 92499264,
        92247936
    ],
}


def test_solve_bytes_keeps_its_integers() -> None:
    # The symbol's footprint is gauss_newton.symbol_bytes, whose class count
    # test_sine_classes_share_their_sine ties to _sine_classes.
    for r, want in SOLVE_BYTES.items():
        assert [vx.solve_bytes(N, r, r) for N in range(4, 71)] == want, r


NON_FINITE_SCALES = [1e50, 1e100, np.nan]


def non_finite_solve(scale: float) -> vx.SolveResult:
    # 1e50: finite energy, but the line probes overflow; 1e100: the energy
    # itself is infinite; nan: the energy is nan.
    rng = np.random.default_rng(5)
    tau = 1.0
    s0 = vx.random_smooth_state(8, 1, 1, 1.0, rng, amplitude=0.1, tau=1.0)
    with np.errstate(all="ignore"):
        return vx.solve(replace(s0, phi=s0.phi * scale), tau)


@pytest.mark.parametrize("scale", NON_FINITE_SCALES)
def test_solve_stops_on_non_finite_values(scale: float) -> None:
    res = non_finite_solve(scale)
    assert not res.converged
    assert res.stalled
    assert res.iterations == 0


def test_smooth_state_samples_grid_independently() -> None:
    coarse = vx.random_smooth_state(
        8, 2, 1, 1.0, np.random.default_rng(5), amplitude=0.3, tau=1.0
    )
    fine = vx.random_smooth_state(
        16, 2, 1, 1.0, np.random.default_rng(5), amplitude=0.3, tau=1.0
    )
    assert np.allclose(fine.phi[::2, ::2], coarse.phi, atol=1e-12)
    assert np.allclose(fine.A1[:, ::2, ::2], coarse.A1, atol=1e-12)
    assert np.allclose(fine.theta1[::2, ::2], coarse.theta1, atol=1e-12)


def per_field_smooth_state(
    N: int, r1: int, r2: int, rng: np.random.Generator, amplitude: float, tau: float
) -> vx.LatticeState:
    """random_smooth_state as first written: every field evaluates its own
    mode waves."""
    j1, j2 = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    modes = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3) if (k1, k2) != (0, 0)]

    def mode_field(*mat_shape: int) -> np.ndarray:
        out = np.zeros((N, N) + mat_shape, dtype=np.complex128)
        for k1, k2 in modes:
            coeff = rng.standard_normal(mat_shape) + 1j * rng.standard_normal(mat_shape)
            wave = np.exp(2j * np.pi * (k1 * j1 + k2 * j2) / N)
            out += wave[:, :, None, None] * coeff
        return out / len(modes)

    def potential(r: int) -> np.ndarray:
        out = np.empty((2, N, N, r, r), dtype=np.complex128)
        for mu in range(2):
            raw = mode_field(r, r)
            raw = raw + (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
            out[mu] = amplitude * 0.5 * (raw - np.conj(np.swapaxes(raw, -1, -2)))
        return out

    A1 = potential(r1)
    A2 = potential(r2)
    theta1 = amplitude * mode_field(r1, r1)
    base = np.zeros((N, N, r1, r2), dtype=np.complex128)
    base[:, :, 0, 0] = np.sqrt(abs(tau)) if tau != 0 else 1.0
    phi = base + amplitude * mode_field(r1, r2)
    zeros = np.zeros
    return vx.LatticeState(
        N=N, a=1.0 / N, A1=A1, A2=A2, theta1=theta1,
        theta2=zeros((N, N, r2, r2), dtype=np.complex128), phi=phi,
        psi=zeros((N, N, r2, r1), dtype=np.complex128),
    )


@pytest.mark.parametrize(
    "N, r1, r2",
    [(8, 1, 1), (16, 2, 1), (9, 1, 1), (17, 2, 1), (9, 1, 2), (17, 2, 2), (16, 1, 2), (64, 1, 1),
     (64, 2, 2)],
)
def test_smooth_state_matches_per_field_waves(N: int, r1: int, r2: int) -> None:
    # The benchmark's fixed starts and the acceptance solves rest on the
    # seed-to-state mapping, so the sampler's wave table, its one call to
    # the generator and its stacked sum must not move a bit, at odd and
    # even N and with either rank the larger.
    got = vx.random_smooth_state(N, r1, r2, 1.0, np.random.default_rng(7), 0.3, 1.0)
    want = per_field_smooth_state(N, r1, r2, np.random.default_rng(7), 0.3, 1.0)
    assert got.a == want.a
    for name in ("A1", "A2", "theta1", "theta2", "phi", "psi"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_prolong_reproduces_coarse_sites() -> None:
    rng = np.random.default_rng(13)
    s = vx.random_smooth_state(8, 2, 1, 1.0, rng, amplitude=0.4, tau=1.0)
    fine = vx.prolong_state(s)
    assert fine.N == 16
    assert fine.a == pytest.approx(s.a / 2)
    assert fine.vol == pytest.approx(s.vol)
    assert np.allclose(fine.phi[::2, ::2], s.phi, atol=1e-11)
    assert np.allclose(fine.A1[:, ::2, ::2], s.A1, atol=1e-11)
    assert np.allclose(fine.theta1[::2, ::2], s.theta1, atol=1e-11)
    assert not lo.check_invariants(fine, atol=1e-11)


def test_prolong_band_limited_is_spectrally_exact() -> None:
    coarse = vx.random_smooth_state(
        8, 1, 1, 1.0, np.random.default_rng(5), amplitude=0.3, tau=1.0
    )
    fine = vx.random_smooth_state(
        16, 1, 1, 1.0, np.random.default_rng(5), amplitude=0.3, tau=1.0
    )
    lifted = vx.prolong_state(coarse)
    assert np.allclose(lifted.phi, fine.phi, atol=1e-11)
    assert np.allclose(lifted.A1, fine.A1, atol=1e-11)
    assert np.allclose(lifted.theta1, fine.theta1, atol=1e-11)


@pytest.mark.parametrize("N", [9, 17])
@pytest.mark.parametrize("r1, r2", [(1, 1), (2, 1)])
def test_prolong_at_odd_grid_is_the_real_band_limited_interpolant(
    N: int, r1: int, r2: int
) -> None:
    # Odd N has no Nyquist mode: the coarse band |k| <= (N - 1) / 2 is
    # copied and nothing else, so a real field stays real.
    rng = np.random.default_rng(N)
    s = vx.random_smooth_state(N, r1, r2, 1.0, rng, amplitude=0.4, tau=1.0)
    real = rng.standard_normal((N, N, r1, r2)).astype(np.complex128)
    s = replace(s, phi=real)
    fine = vx.prolong_state(s)
    assert fine.N == 2 * N
    assert float(np.max(np.abs(fine.phi.imag))) <= 1e-14
    k = np.abs(np.fft.fftfreq(2 * N, 1 / (2 * N)))
    outside = (k[:, None] > (N - 1) / 2) | (k[None, :] > (N - 1) / 2)
    spec = np.fft.fft2(fine.phi, axes=(0, 1))
    # Relative to the in-band coefficients, which are O(N^2).
    assert float(np.max(np.abs(spec[outside]))) <= 1e-13 * float(np.max(np.abs(spec)))
    for name in vx.BLOCKS:
        coarse = getattr(s, name)
        sites = getattr(fine, name)[..., ::2, ::2, :, :]
        assert float(np.max(np.abs(sites - coarse))) <= 1e-13, name
    assert not lo.check_invariants(fine, atol=1e-13)


def test_prolonged_constant_solution_stays_exact() -> None:
    tau = 1.0
    s = lo.constant_solution_state(8, tau)
    fine = vx.prolong_state(s)
    assert vx.residual_energy(fine, tau) <= 1e-24


@pytest.mark.parametrize("r1, r2", [(1, 1), (2, 1), (2, 2)])
def test_prolonged_coarse_sample_is_the_fine_sample(r1: int, r2: int) -> None:
    # The sample is band-limited, so two spectral prolongations of the
    # N = 16 sample land on the N = 64 sample (measured 7.8e-16).
    def sample(n: int) -> vx.LatticeState:
        return vx.random_smooth_state(n, r1, r2, 1.0, np.random.default_rng(3), 0.1, 1.0)

    lifted = vx.prolong_state(vx.prolong_state(sample(16)))
    fine = sample(64)
    assert lifted.a == pytest.approx(fine.a, rel=1e-15)
    for name in vx.BLOCKS:
        gap = float(np.max(np.abs(getattr(lifted, name) - getattr(fine, name))))
        assert gap <= 1e-14, (name, gap)


def test_solve_projects_frozen_blocks_at_entry() -> None:
    rng = np.random.default_rng(19)
    tau = 1.0
    s0 = vx.random_smooth_state(8, 1, 1, 1.0, rng, amplitude=0.1, tau=1.0)
    dirty = replace(
        s0,
        psi=np.full((8, 8, 1, 1), 0.3, dtype=np.complex128),
        theta2=np.full((8, 8, 1, 1), 0.2j, dtype=np.complex128),
    )
    res = vx.solve(dirty, tau, tol=1e-12, max_iter=5000)
    assert res.converged
    assert not res.state.psi.any()
    assert not res.state.theta2.any()


# -- stop reasons ------------------------------------------------------


def test_stop_reason_converged() -> None:
    res = scalar_solve()
    assert res.stop_reason == "converged"


def test_stop_reason_max_iter() -> None:
    res = capped_solve()
    assert res.stop_reason == "max_iter"
    assert not res.stalled


def test_stop_reason_zero_gradient() -> None:
    # phi = 0 with flat connections is a fixed point of the flow above the
    # minimum: every gradient term carries phi or a derivative of a
    # constant field.
    tau = 1.0
    s = vx.zero_state(8, 1)
    res = vx.solve(s, tau, tol=1e-12, max_iter=50)
    assert res.stop_reason == "zero_gradient"
    assert res.stalled
    assert res.iterations == 0
    assert res.residual == pytest.approx(0.5)


def test_stop_reason_no_decrease() -> None:
    res, _, _ = negative_tau_section_solve()
    assert res.stop_reason == "no_decrease"
    assert res.stalled


@pytest.mark.parametrize("scale", NON_FINITE_SCALES)
def test_stop_reason_non_finite(scale: float) -> None:
    res = non_finite_solve(scale)
    assert res.stop_reason == "non_finite"
    assert res.stalled


def same(a: float, b: float) -> bool:
    """a == b, with nan equal to nan."""
    return a == b or (math.isnan(a) and math.isnan(b))


def model_zero_gradient_solve() -> vx.SolveResult:
    # At tol 0 the descent runs until the gradient the line model gives
    # vanishes; that state is then evaluated alone and stops on its own.
    s0 = vx.random_smooth_state(8, 1, 1, 1.0, np.random.default_rng(2), 0.1, 1.0)
    return vx.solve(s0, 1.0, tol=0.0, max_iter=2000)


# Per case: the stop reason, the solve and its coupling.
STOPS = {
    "converged": ("converged", scalar_solve, 1.0),
    "max_iter": ("max_iter", capped_solve, 1.0),
    "no_decrease": ("no_decrease", lambda: negative_tau_section_solve()[0], -1.0),
    "zero_gradient_at_start": (
        "zero_gradient", lambda: vx.solve(vx.zero_state(8, 1), 1.0, tol=1e-12, max_iter=50), 1.0
    ),
    "zero_gradient_of_a_model_state": ("zero_gradient", model_zero_gradient_solve, 1.0),
    **{
        f"non_finite_{scale}": ("non_finite", lambda scale=scale: non_finite_solve(scale), 1.0)
        for scale in NON_FINITE_SCALES
    },
}


@pytest.mark.parametrize("case", list(STOPS))
def test_every_stop_returns_exact_numbers_for_its_state(monkeypatch, case: str) -> None:
    # The gradient of a new state reads the line model's fields; only the
    # exact evaluation of the state, in the next pass or alone, may give its
    # energy, its history entry, the tol test and the breakdown.  So every
    # stop must report the numbers of the state it returns, bit for bit.
    steps = []
    exact_step = vx._exact_step

    def spied(*args):
        step, model = exact_step(*args)
        steps.append(step)
        return step, model

    monkeypatch.setattr(vx, "_exact_step", spied)
    reason, solve, tau = STOPS[case]
    res = solve()
    assert res.stop_reason == reason
    with np.errstate(all="ignore"):
        energy = vx.residual_energy(res.state, tau)
        breakdown = vx.residual_breakdown(res.state, tau)
    assert same(res.residual, energy) and same(res.residual, res.energy_history[-1])
    assert res.breakdown.keys() == breakdown.keys()
    assert all(same(res.breakdown[key], breakdown[key]) for key in breakdown)
    if case == "no_decrease":
        # The last line found a step, and the exact evaluation of the state
        # it led to rejected it: the state before comes back.
        assert steps[-1] > 0.0
        assert len(steps) == res.iterations + 1


def test_non_finite_start_stops_at_any_budget() -> None:
    s0 = vx.random_smooth_state(8, 1, 1, 1.0, np.random.default_rng(5), 0.1, 1.0)
    for max_iter in (0, 1, 10):
        with np.errstate(all="ignore"):
            res = vx.solve(replace(s0, phi=s0.phi * np.nan), 1.0, max_iter=max_iter)
        assert res.stop_reason == "non_finite", max_iter
        assert res.iterations == 0


def test_start_with_a_non_finite_gradient_builds_no_symbol(monkeypatch) -> None:
    # At vol 1e300 the start's residual is finite (4.7e298) but its
    # gradient's squared norm is not; the solve stops before the (1, 1)
    # problem's Gauss-Newton symbol, whose build cannot use such a grid.
    from higgspairs import gauss_newton

    def refuse(*args):
        raise AssertionError("built the symbol")

    monkeypatch.setattr(gauss_newton, "GaussNewtonSymbol", refuse)
    s0 = vx.random_smooth_state(8, 1, 1, 1e300, np.random.default_rng(0), 0.1, 1.0)
    res = vx.solve(s0, 1.0)
    assert res.stop_reason == "non_finite"
    assert res.iterations == 0
    assert math.isfinite(res.residual)
