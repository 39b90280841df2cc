"""The per-site kernels behind the residual fields, against oracles that
share no code with them: numpy's matmul, an np.roll central difference and
the residual fields assembled in their split form.  Last, the exchange of
the two bundles as an exact symmetry of the fields and the gradient."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import higgspairs.vortex as vx
from higgspairs import gauss_newton

import lattice_oracles as lo

RANK_PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))


def cfield(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def adj(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def public(fields: dict) -> dict:
    """The kernels' plane fields as public (..., N, N, r, q) blocks, _ZERO
    passed through."""
    return {name: v if v is vx._ZERO else vx._turn(v) for name, v in fields.items()}


def planes(blocks: dict) -> dict:
    """Public blocks as the kernels' plane fields."""
    return {name: vx._turn(v) for name, v in blocks.items()}


def packed_gradient(packing: vx._Preconditioner, f: vx._Fields, tau: float) -> np.ndarray:
    """The gradient the solver's loop forms at the state of f: a fresh
    packed vector."""
    g = np.empty(packing.shape, dtype=np.complex128)
    vx._gradient(f, vx._residual_fields(f, tau), packing.unpack(g))
    return g


def fields_at(s: vx.LatticeState, packing: vx._Preconditioner, x: np.ndarray) -> vx._Fields:
    """The fields of the packed vector x, with s's held blocks."""
    return vx._Fields(s.a, {**planes({name: getattr(s, name) for name in vx.HELD}), **packing.unpack(x)})


@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_small_product_matches_matmul(r1: int, r2: int) -> None:
    # Every shape pairing the residual fields multiply: square blocks with
    # the rectangular phi (r1 x r2) and psi (r2 x r1) on either side, and
    # the adjoint views (not contiguous) the moment maps feed in.
    rng = np.random.default_rng(17 + 10 * r1 + r2)
    N = 5
    z1, z2 = cfield(rng, N, N, r1, r1), cfield(rng, N, N, r2, r2)
    phi, psi = cfield(rng, N, N, r1, r2), cfield(rng, N, N, r2, r1)
    pairs = [
        (z1, phi), (phi, z2), (z2, psi), (psi, z1), (z1, z1), (z2, z2),
        (phi, psi), (psi, phi), (phi, adj(phi)), (adj(phi), phi),
        (adj(psi), psi), (psi, adj(psi)), (adj(z1), phi), (phi, adj(z2)),
    ]
    for x, y in pairs:
        got = vx._turn(vx._mm(vx._turn(x), vx._turn(y)))
        want = np.matmul(x, y)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def roll_central(m: np.ndarray, axis: int, a: float) -> np.ndarray:
    return (np.roll(m, -1, axis=axis) - np.roll(m, 1, axis=axis)) / (2.0 * a)


@pytest.mark.parametrize("N", [4, 5, 8])
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 1), (1, 2)])
def test_stencil_matches_roll_central_difference(N: int, shape: tuple[int, int]) -> None:
    # N = 4 is the smallest grid, where the wrap-around rows and columns
    # are half the sites.
    rng = np.random.default_rng(N)
    a = 0.7 / N
    m, n = cfield(rng, N, N, *shape), cfield(rng, N, N, *shape)
    for sign in (1.0, -1.0):
        want = 0.5 * (roll_central(m, 0, a) + sign * 1j * roll_central(n, 1, a))
        got = vx._turn(vx._stencil(vx._turn(m), vx._turn(n), a, sign))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    dz = 0.5 * (roll_central(m, 0, a) - 1j * roll_central(m, 1, a))
    dzbar = 0.5 * (roll_central(m, 0, a) + 1j * roll_central(m, 1, a))
    assert np.allclose(vx._turn(vx._dz(vx._turn(m), a)), dz, rtol=1e-13, atol=1e-13)
    assert np.allclose(vx._turn(vx._dzbar(vx._turn(m), a)), dzbar, rtol=1e-13, atol=1e-13)


def split_residual_fields(s: vx.LatticeState, tau: float) -> dict[str, np.ndarray]:
    """The residual fields in the split form: the curvature of each
    connection, its mixed A-theta part and [theta, theta^dagger] summed
    separately, with np.roll derivatives and matmul products."""
    a = s.a

    def dz(m):
        return 0.5 * (roll_central(m, 0, a) - 1j * roll_central(m, 1, a))

    def dzbar(m):
        return 0.5 * (roll_central(m, 0, a) + 1j * roll_central(m, 1, a))

    def comm(x, y):
        return x @ y - y @ x

    def coupled(A, t):
        Z = 0.5 * (A[0] - 1j * A[1])
        Zb = -adj(Z)
        td = adj(t)
        curvature = dz(Zb) - dzbar(Z) + comm(Z, Zb)
        mixed = dz(td) - dzbar(t) + comm(Z, td) - comm(Zb, t)
        return curvature + mixed + comm(t, td), Z, Zb

    g1, Z1, Z1b = coupled(s.A1, s.theta1)
    g2, Z2, Z2b = coupled(s.A2, s.theta2)
    phi, psi, t1, t2 = s.phi, s.psi, s.theta1, s.theta2
    moment1 = phi @ adj(phi) - adj(psi) @ psi
    moment2 = psi @ adj(psi) - adj(phi) @ phi
    # The degree-0 coupling of E2: tau r1 + tau' r2 = 0.
    tau_prime = -tau * s.r1 / s.r2
    return {
        "W1": 2.0 * g1 + 0.5 * moment1 - 0.5 * tau * np.eye(s.r1),
        "W2": 2.0 * g2 + 0.5 * moment2 - 0.5 * tau_prime * np.eye(s.r2),
        "W3": 2.0 * (dzbar(phi) + Z1b @ phi - phi @ Z2b),
        "W4": 2.0 * (t1 @ phi - phi @ t2),
        "W5": 2.0 * (dzbar(psi) + Z2b @ psi - psi @ Z1b),
        "W6": 2.0 * (t2 @ psi - psi @ t1),
    }


BLOCKS = ("A1", "A2", "theta1", "theta2", "phi", "psi")
# The blocks a state of each kind holds at zero: the phi branch (psi =
# theta2 = 0), its psi mirror (phi = theta1 = 0), and no block at all.
ZERO_BLOCKS = {None: (), "phi": ("psi", "theta2"), "psi": ("phi", "theta1")}


def branch_state(r1: int, r2: int, branch, rng: np.random.Generator) -> vx.LatticeState:
    s = vx.random_smooth_state(8, r1, r2, 1.0, rng, amplitude=0.3, tau=0.8)
    # random_smooth_state starts on the phi branch (psi = theta2 = 0); a
    # second draw fills those blocks so every term of every field is live,
    # and then the kind's zero blocks are cleared.
    other = vx.random_smooth_state(8, r2, r1, 1.0, rng, amplitude=0.3, tau=0.8)
    s = replace(s, theta2=other.theta1, psi=other.phi)
    return replace(s, **{name: np.zeros_like(getattr(s, name)) for name in ZERO_BLOCKS[branch]})


def split_energy(s: vx.LatticeState, tau: float) -> float:
    fields = split_residual_fields(s, tau)
    return s.a * s.a * sum(float(np.sum(np.abs(w) ** 2)) for w in fields.values())


def split_slope(
    s: vx.LatticeState, tau: float, name: str, v: np.ndarray, h: float = 0.05
) -> float:
    """d/dt split_energy(s + t v) at t = 0, v in block name.  The energy is
    a quartic in t, on which the five-point central difference is exact."""

    def energy(t: float) -> float:
        return split_energy(replace(s, **{name: getattr(s, name) + t * v}), tau)

    return (8.0 * (energy(h) - energy(-h)) - (energy(2 * h) - energy(-2 * h))) / (12.0 * h)


@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_residual_fields_match_split_form(r1: int, r2: int) -> None:
    tau = 0.8
    for branch, zero_blocks in ZERO_BLOCKS.items():
        rng = np.random.default_rng(29 + 10 * r1 + r2)
        s = branch_state(r1, r2, branch, rng)
        got = public(vx._residual_fields(vx._Fields.of(s), tau))
        want = split_residual_fields(s, tau)
        assert got.keys() == want.keys()
        for name, ref in want.items():
            scale = np.linalg.norm(ref)
            if got[name] is vx._ZERO:
                # Left out by the solver: the reference must vanish too.
                assert zero_blocks and scale == 0.0, (branch, name)
                continue
            assert scale > 0.0, (branch, name)
            assert np.linalg.norm(got[name] - ref) <= 1e-12 * scale, (branch, name)


@pytest.mark.parametrize("N", [5, 8])
@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_stacked_probes_give_each_probes_residual_fields(N: int, r1: int, r2: int) -> None:
    # The solver evaluates its two line probes, x + h d and x - h d, as one
    # state whose packed buffer has a leading probe axis.  Every kernel is
    # per site or per leading index, so each probe's fields are those of
    # the probe evaluated alone, bit for bit.  A block that is zero in both
    # probes (theta1 here, in the second case) is _ZERO, and so is every
    # field all of whose terms it zeroes.
    tau = 0.8
    rng = np.random.default_rng(131 + 10 * r1 + r2 + N)
    s0 = vx.random_smooth_state(N, r1, r2, 1.0, rng, amplitude=0.3, tau=tau)
    for zero_theta1 in (False, True):
        s = replace(s0, theta1=np.zeros_like(s0.theta1)) if zero_theta1 else s0
        packing = vx._Preconditioner(s, tau)
        x = packing.pack({name: vx._turn(getattr(s, name)) for name in vx.FLOWS})
        d = cfield(rng, *packing.shape)
        if zero_theta1:
            packing.unpack(d)["theta1"][...] = 0.0
        h = 0.37
        probe = np.stack([x + h * d, x - h * d])
        got = vx._residual_fields(fields_at(s, packing, probe), tau)
        alone = [vx._residual_fields(fields_at(s, packing, probe[i].copy()), tau) for i in (0, 1)]
        assert (got["W4"] is vx._ZERO) == zero_theta1
        for name, field in got.items():
            if field is vx._ZERO:
                assert all(w[name] is vx._ZERO for w in alone), (zero_theta1, name)
                continue
            assert field.shape[0] == 2, (zero_theta1, name)
            for i, w in enumerate(alone):
                assert np.array_equal(field[i], w[name]), (zero_theta1, name, i)


@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_gradient_matches_split_form_slopes(r1: int, r2: int) -> None:
    # The gradient of every block, built with the solver's zero skips,
    # against exact slopes of the split-form energy along a random
    # direction in that block.  A block the solver leaves out must have a
    # vanishing slope.
    tau = 0.8
    for branch, zero_blocks in ZERO_BLOCKS.items():
        rng = np.random.default_rng(59 + 10 * r1 + r2)
        s = branch_state(r1, r2, branch, rng)
        grad = vx.residual_gradient(s, tau)
        norm = np.sqrt(sum(np.sum(np.abs(g) ** 2) for g in grad.values()))
        for name in BLOCKS:
            v = cfield(rng, *getattr(s, name).shape)
            if name in ("A1", "A2"):
                v = 0.5 * (v - adj(v))
            v /= np.linalg.norm(v)
            g = grad[name]
            got = 2.0 * float(np.vdot(g, v).real)
            if not g.any():
                assert name in zero_blocks, (branch, name)
            want = split_slope(s, tau, name, v)
            assert abs(got - want) <= 1e-12 * 2.0 * norm, (branch, name)


# The Fourier symbol of J*J at the vacuum |phi|^2 = tau, per block, as
# (mass, stiffness) in units of |tau| and omega^2: restated here, and
# checked against Rayleigh quotients of J below.
SYMBOL = {"A1": (1.0, 0.5), "A2": (1.0, 0.5), "theta1": (4.0, 2.0), "phi": (1.0, 1.0)}


def omega2(N: int, a: float) -> np.ndarray:
    """The squared central-difference derivative symbol on the N-grid."""
    sin2 = np.sin(2.0 * np.pi * np.arange(N) / N) ** 2
    return (sin2[:, None] + sin2[None, :]) / (a * a)


def fft2_precondition(
    grad: dict[str, np.ndarray], s: vx.LatticeState, tau: float
) -> dict[str, np.ndarray]:
    """The preconditioner as one fft2/ifft2 pair per block with that block's
    kernel 1/(mass |tau| + stiffness omega^2), zero blocks passed through."""
    om2 = omega2(s.N, s.a)
    out = {}
    for name, g in grad.items():
        if g is vx._ZERO:
            out[name] = g
            continue
        mass, stiffness = SYMBOL[name]
        kernel = 1.0 / (mass * abs(tau) + stiffness * om2)
        axes = (1, 2) if name in ("A1", "A2") else (0, 1)
        shape = (1, s.N, s.N, 1, 1) if name in ("A1", "A2") else (s.N, s.N, 1, 1)
        out[name] = np.fft.ifft2(np.fft.fft2(g, axes=axes) * kernel.reshape(shape), axes=axes)
    return out


@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_preconditioner_matches_blockwise_fft2(r1: int, r2: int) -> None:
    # The packed transforms take the same 1-D passes in the same order as
    # fft2 and ifft2, and each plane is multiplied by its block's kernel,
    # so the unpacked blocks agree bit for bit; also when a block the
    # solver flows is _ZERO and its slot is packed as zeros.  At r1 = r2 a
    # call applies the Gauss-Newton symbol instead, whose null space still
    # gets this kernel, so the kernel is checked through ``blockwise``.
    tau = 0.8
    rng = np.random.default_rng(71 + 10 * r1 + r2)
    s = branch_state(r1, r2, "phi", rng)
    precondition = vx._Preconditioner(s, tau)
    grad = precondition.unpack(packed_gradient(precondition, vx._Fields.of(s), tau))
    assert list(grad) == list(vx.FLOWS)
    for name, block in precondition.unpack(precondition.pack(grad)).items():
        assert np.array_equal(block, grad[name]), name
    for g in (grad, dict(grad, theta1=np.zeros_like(grad["theta1"]))):
        got = public(precondition.unpack(precondition.blockwise(precondition.pack(g))))
        want = fft2_precondition(public(g), s, tau)
        assert list(got) == list(want)
        for name, ref in want.items():
            assert np.array_equal(got[name], ref), name


@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_packed_planes_are_the_kernels_blocks(r1: int, r2: int, batch: tuple[int, ...]) -> None:
    # The kernels run on plane fields (..., r, q, N, N).  unpack views the
    # packed planes as those blocks by a reshape alone, so every block
    # shares the packed memory and is C-contiguous; with a leading probe
    # axis, each probe's block is (the probes sit one packed vector apart).
    # A state packed through its public views reads back as itself, and a
    # solve hands back blocks of the public shapes.
    tau = 0.8
    rng = np.random.default_rng(151 + 10 * r1 + r2)
    states = [vx.random_smooth_state(6, r1, r2, 1.0, rng, amplitude=0.3, tau=tau) for _ in range(2)]
    packing = vx._Preconditioner(states[0], tau)
    packed = [packing.pack({name: vx._turn(getattr(s, name)) for name in vx.FLOWS}) for s in states]
    x = np.stack(packed) if batch else packed[0]
    for name, block in packing.unpack(x).items():
        shape = getattr(states[0], name).shape
        assert block.shape == batch + shape[:-4] + shape[-2:] + shape[-4:-2], name
        assert np.shares_memory(block, x), name
        for i, s in enumerate(states[: len(x) if batch else 1]):
            own = block[i] if batch else block
            assert own.flags.c_contiguous, name
            assert np.array_equal(vx._turn(own), getattr(s, name)), name
    res = vx.solve(states[0], tau, tol=0.0, max_iter=2)
    assert res.iterations == 2
    for name in vx.BLOCKS:
        block = getattr(res.state, name)
        assert block.shape == getattr(states[0], name).shape and block.dtype == np.complex128, name


def vacuum_state(N: int, r: int, tau: float) -> vx.LatticeState:
    """The constant vacuum of the (r, r) problem: A = theta = 0 and
    phi = sqrt(tau) times the identity, so phi phi^H = tau."""
    s = vx.zero_state(N, r, r)
    phi = np.zeros_like(s.phi)
    phi[...] = np.sqrt(tau) * np.eye(r)
    return replace(s, phi=phi)


def shifted(s: vx.LatticeState, d: dict[str, np.ndarray], t: float) -> vx.LatticeState:
    return replace(s, **{name: getattr(s, name) + t * v for name, v in d.items()})


def jd_norm2(s: vx.LatticeState, tau: float, d: dict[str, np.ndarray]) -> float:
    """|J d|^2 for a perturbation d of some blocks, with J d the central
    difference of the residual fields, exact for fields at most quadratic
    in the state."""
    plus = vx._residual_fields(vx._Fields.of(shifted(s, d, 1.0)), tau)
    minus = vx._residual_fields(vx._Fields.of(shifted(s, d, -1.0)), tau)
    jd = (0.5 * (plus[k] - minus[k]) for k in plus)
    return float(sum(np.sum(np.abs(v) ** 2) for v in jd if v is not vx._ZERO))


def rayleigh_quotient(s: vx.LatticeState, tau: float, name: str, d: np.ndarray) -> float:
    """|J d|^2 / |d|^2 for a perturbation d of one block."""
    return jd_norm2(s, tau, {name: d}) / float(np.sum(np.abs(d) ** 2))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_vacuum_symbol_matches_rayleigh_quotients(r: int, tau: float) -> None:
    # At the vacuum J*J is diagonal in Fourier space: a plane wave in one
    # matrix entry has the Rayleigh quotient 4 tau + 2 omega^2 in theta1
    # and tau + omega^2 in phi (k != 0), the SYMBOL rows.  A potential has
    # tau + omega^2 on transverse waves and tau on longitudinal ones, and
    # its SYMBOL row is their average.
    N = 16
    s = vacuum_state(N, r, tau)
    om2 = omega2(N, s.a)

    def symbol(name: str, k1: int, k2: int) -> float:
        mass, stiffness = SYMBOL[name]
        return mass * tau + stiffness * om2[k1, k2]

    j1, j2 = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    for k1, k2 in ((1, 0), (2, 3), (5, 1)):
        phase = 2.0 * np.pi * (k1 * j1 + k2 * j2) / N
        for i in range(r):
            for j in range(r):
                d = np.zeros((N, N, r, r), dtype=np.complex128)
                d[:, :, i, j] = np.exp(1j * phase)
                for name in ("theta1", "phi"):
                    got = rayleigh_quotient(s, tau, name, d)
                    assert got == pytest.approx(symbol(name, k1, k2), rel=1e-9), (name, k1, k2, i, j)
        along = np.array([np.sin(2.0 * np.pi * k1 / N), np.sin(2.0 * np.pi * k2 / N)])
        along /= np.linalg.norm(along)
        across = np.array([-along[1], along[0]])
        for name in ("A1", "A2"):
            quotients = []
            for pol in (across, along):
                d = np.zeros((2, N, N, r, r), dtype=np.complex128)
                for mu in range(2):
                    d[mu, :, :, 0, 0] = 1j * pol[mu] * np.cos(phase)
                quotients.append(rayleigh_quotient(s, tau, name, d))
            transverse, longitudinal = quotients
            assert transverse == pytest.approx(tau + om2[k1, k2], rel=1e-9), name
            assert longitudinal == pytest.approx(tau, rel=1e-9), name
            assert 0.5 * (transverse + longitudinal) == pytest.approx(symbol(name, k1, k2), rel=1e-9)


def test_preconditioner_results_outlive_the_next_call() -> None:
    # One preconditioner serves a whole solve; what a call returns must be
    # a new packed vector, left alone by the next call, and the packed
    # gradient it was given must be left alone too.
    tau = 0.8
    rng = np.random.default_rng(83)
    s = branch_state(2, 1, "phi", rng)
    precondition = vx._Preconditioner(s, tau)
    packed = packed_gradient(precondition, vx._Fields.of(s), tau)
    given = packed.copy()
    first = precondition(packed)
    kept = first.copy()
    second = precondition(2.0 * packed + 1.0)
    assert np.array_equal(first, kept)
    assert np.array_equal(packed, given)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, packed)


def tangent(s: vx.LatticeState, rng: np.random.Generator, modes=None) -> dict[str, np.ndarray]:
    """A random tangent vector in every FLOWS block, anti-Hermitian in the
    potentials: rough at every site, or a sum of plane waves at modes with
    random matrix amplitudes."""
    j1, j2 = np.meshgrid(np.arange(s.N), np.arange(s.N), indexing="ij")
    out = {}
    for name in vx.FLOWS:
        shape = getattr(s, name).shape
        if modes is None:
            d = cfield(rng, *shape)
        else:
            lead = len(shape) - 4
            d = np.zeros(shape, dtype=np.complex128)
            for k1, k2 in modes:
                wave = np.exp(2j * np.pi * (k1 * j1 + k2 * j2) / s.N)[:, :, None, None]
                amp = cfield(rng, *(shape[:lead] + shape[-2:]))
                d += wave * amp.reshape(shape[:lead] + (1, 1) + shape[-2:])
        out[name] = 0.5 * (d - adj(d)) if name in ("A1", "A2") else d
    return out


def hessian_action(
    s: vx.LatticeState, tau: float, packing: vx._Preconditioner, d: dict[str, np.ndarray]
) -> np.ndarray:
    """H d, the derivative of the packed gradient along d at s.  Along the
    line the gradient is a cubic in t, so Richardson's combination of the
    central differences at t = 1 and t = 1/2 is exact."""

    def central(t: float) -> np.ndarray:
        plus = packing.pack(planes(vx.residual_gradient(shifted(s, d, t), tau)))
        minus = packing.pack(planes(vx.residual_gradient(shifted(s, d, -t), tau)))
        return (plus - minus) / (2.0 * t)

    return (4.0 * central(0.5) - central(1.0)) / 3.0


@pytest.mark.parametrize("r, tau, N", [(1, 1.0, 8), (1, 0.3, 9), (2, 1.0, 8), (2, 0.5, 9), (1, 0.0, 8)])
def test_gauss_newton_symbol_inverts_the_hessian_on_waves(r: int, tau: float, N: int) -> None:
    # At the vacuum the Hessian of residual_energy is H = a^2 J*J, and
    # along a wave d, <d, H d> = 2 a^2 |J d|^2 in the solver's metric.  The
    # symbol P inverts H off its null space, which H d does not reach, so
    # <H d, P H d> = <H d, d>: the quadratic form of P's inverse is the
    # Rayleigh numerator of J.  The waves span every block and include a
    # doubler (sin = 0) at even N; odd N builds every mode on its own.
    s = vacuum_state(N, r, tau)
    packing = vx._Preconditioner(s, tau)
    assert packing.symbol is not None
    rng = np.random.default_rng(97 + 10 * r + N)
    for modes in (((1, 0),), ((2, 3), (0, 1)), ((N // 2, N // 2), (3, 2), (0, 0))):
        d = tangent(s, rng, modes)
        hd = hessian_action(s, tau, packing, d)
        want = 2.0 * s.a * s.a * jd_norm2(s, tau, d)
        assert vx._inner(hd, packing.pack(planes(d))) == pytest.approx(want, rel=1e-9), modes
        assert vx._inner(hd, packing(hd)) == pytest.approx(want, rel=1e-9), modes


@pytest.mark.parametrize("r, tau", [(1, 1.0), (2, 0.5), (1, 0.0)])
def test_gauss_newton_symbol_is_symmetric_positive_definite(r: int, tau: float) -> None:
    # Each mode's matrix is Hermitian positive definite, so the operator
    # is symmetric positive definite in the solver's metric.
    rng = np.random.default_rng(61 + r)
    s = vx.random_smooth_state(8, r, r, 1.0, rng, amplitude=0.3, tau=tau)
    packing = vx._Preconditioner(s, tau)
    for _, inverse in packing.symbol.groups:
        blocks = inverse.transpose(2, 0, 1)
        assert np.array_equal(blocks, blocks.conj().transpose(0, 2, 1))
        assert np.linalg.eigvalsh(blocks).min() > 0.0
    x, y = (packing.pack(planes(tangent(s, rng))) for _ in range(2))
    px, py = packing(x), packing(y)
    scale = np.sqrt(vx._inner(x, px) * vx._inner(y, py))
    assert abs(vx._inner(x, py) - vx._inner(px, y)) <= 1e-12 * scale
    assert vx._inner(x, px) > 0.0 and vx._inner(y, py) > 0.0


@pytest.mark.parametrize("r", [1, 2])
def test_gauss_newton_symbol_keeps_potentials_anti_hermitian(r: int) -> None:
    # The symbol maps real coordinates to real coordinates, so an
    # anti-Hermitian gradient block gives an anti-Hermitian direction,
    # exactly: the field dump's oracle checks the potentials to 1e-12.
    tau = 1.0
    s = vx.random_smooth_state(16, r, r, 1.0, np.random.default_rng(5 + r), 0.3, 1.0)
    f = vx._Fields.of(s)
    packing = vx._Preconditioner(s, tau)
    out = public(packing.unpack(packing(packed_gradient(packing, f, tau))))
    for name in ("A1", "A2"):
        assert out[name].any()
        assert np.array_equal(out[name], -adj(out[name])), name


def rotated_units(packing: vx._Preconditioner, r: int) -> list[np.ndarray]:
    """The symbol's coordinates, written out: each unit of _real_units over
    its block's planes (anti-Hermitian ones for the potentials), with the
    units of A1 and A2 taken as (A1 + A2)/sqrt(2) and (A1 - A2)/sqrt(2)."""
    rows: dict[str, list[np.ndarray]] = {}
    for name, slot, _ in packing.layout:
        units = gauss_newton._real_units(r, hermitian=name not in ("A1", "A2")).reshape(-1, r * r)
        for start in range(slot.start, slot.stop, r * r):
            for u in units:
                row = np.zeros(packing.shape[0], dtype=np.complex128)
                row[start : start + r * r] = u
                rows.setdefault(name, []).append(row)
    c = np.sqrt(0.5)
    potentials = [c * (a1 + a2) for a1, a2 in zip(rows["A1"], rows["A2"])]
    potentials += [c * (a1 - a2) for a1, a2 in zip(rows["A1"], rows["A2"])]
    return potentials + rows["theta1"] + rows["phi"]


@pytest.mark.parametrize("N", [8, 9])
@pytest.mark.parametrize("tau", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_gauss_newton_symbol_call_matches_dense_reference(r: int, tau: float, N: int) -> None:
    # The call reads and writes only the nonzero terms of its units and
    # multiplies groups of one size together; the reference reads every
    # plane of every unit and multiplies each group entry by entry.  Both
    # round in float64 through transforms of length N, so 1e-13 of the
    # result's largest entry bounds their difference.
    s = vacuum_state(N, r, tau)
    packing = vx._Preconditioner(s, tau)
    symbol = packing.symbol
    want = rotated_units(packing, r)
    assert len(symbol.units) == len(want) == 8 * r * r
    for row in want:
        assert sum(np.array_equal(row, unit) for unit in symbol.units) == 1
    rng = np.random.default_rng(29 + 10 * r + N)
    g = packing.pack(planes(tangent(s, rng)))
    ref = lo.symbol_call(g, symbol.units, symbol.groups)
    assert np.max(np.abs(packing(g) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("r1, r2, tau", [(2, 1, 1.0), (1, 2, 1.0), (1, 1, -1.0)])
def test_problems_without_a_vacuum_keep_the_per_block_kernel(r1: int, r2: int, tau: float) -> None:
    # No constant vacuum (r1 != r2, or tau < 0): no symbol is built, and a
    # call is the per-block kernel bit for bit.
    s = branch_state(r1, r2, "phi", np.random.default_rng(13 + r1 + r2))
    f = vx._Fields.of(s)
    packing = vx._Preconditioner(s, tau)
    assert packing.symbol is None
    g = packed_gradient(packing, f, tau)
    assert np.array_equal(packing(g), packing.blockwise(g))


def test_pseudo_inverse_batch_gives_each_group_alone() -> None:
    # The symbol builds its groups of one shape in one batch.  Each group's
    # matrices must be bit for bit those of its own build, and its rank
    # tolerance its own: a group 1e-9 times the size of the others keeps
    # its full rank, and one with dependent columns has rank 1.
    rng = np.random.default_rng(5)
    jh = cfield(rng, 3, 4, 2, 7)
    jh[1] *= 1e-9
    jh[2, :, 1] = 2.0 * jh[2, :, 0]
    kernel = rng.random((3, 2, 7))
    batch = gauss_newton._pseudo_inverse_with_kernel(jh, kernel)
    for i in range(3):
        alone = gauss_newton._pseudo_inverse_with_kernel(jh[i : i + 1], kernel[i : i + 1])
        assert np.array_equal(batch[i], alone[0]), i
    # The small group's (Jh^H Jh)^+ is of order 1e18: no row was dropped.
    assert np.abs(batch[1]).max() > 1e15


@pytest.mark.parametrize("r, tau", [(1, 1.0), (2, 1.0), (3, 0.5), (2, 0.0)])
def test_gauss_newton_symbol_groups_fit_the_memory_estimate(r: int, tau: float) -> None:
    # solve_bytes counts SYMBOL_PER_MODE r^2 complex numbers per mode of the
    # half spectrum: in coordinates rotated to (A1 +/- A2)/sqrt(2) the probes
    # find coupling groups of at most four of the 8 r^2 real coordinates,
    # 2 + 2 + 4 per anti-Hermitian unit at tau > 0.  At N = 8 the half
    # spectrum has 8 x 5 modes.
    symbol = vx._Preconditioner(vacuum_state(8, r, tau), tau).symbol
    sizes = [cols.stop - cols.start for cols, _ in symbol.groups]
    assert sum(sizes) == 8 * r * r
    assert max(sizes) <= 4
    assert sum(g * g for g in sizes) <= gauss_newton.SYMBOL_PER_MODE * r * r
    if tau > 0:
        assert sorted(sizes) == [2] * 2 * r * r + [4] * r * r
    assert all(inverse.shape[-1] == 40 for _, inverse in symbol.groups)


@pytest.mark.parametrize("N", [8, 9])
def test_difference_symbol_is_the_stencils_symbol(N: int) -> None:
    # A wave e^{2 pi i (k1 j1 + k2 j2)/N} in one matrix entry is an
    # eigenvector of D_z and D_zbar, with eigenvalue i (sigma(k1) -/+ i
    # sigma(k2)) / (2a): the symbol the preconditioner and the Gauss-Newton
    # symbol read.  A stencil that changes without sigma fails here.
    a = 0.37
    j = np.arange(N)
    sigma = vx._difference_symbol(j, N)
    # The wave is read off one table of e^{2 pi i m/N}, m reduced mod N,
    # so its rounding does not grow with k1 j1 + k2 j2.
    table = np.exp(2j * np.pi * j / N)
    for k1 in range(N):
        for k2 in range(N):
            m = np.zeros((2, 1, N, N), dtype=np.complex128)
            m[1, 0] = table[np.add.outer(k1 * j, k2 * j) % N]
            for op, sign in ((vx._dz, -1.0), (vx._dzbar, 1.0)):
                want = 1j * (sigma[k1] + sign * 1j * sigma[k2]) / (2 * a) * m
                assert np.max(np.abs(op(m, a) - want)) <= 1e-14 / (2 * a), (k1, k2, sign)


@pytest.mark.parametrize("N", range(4, 71))
def test_sine_classes_share_their_sine(N: int) -> None:
    # The symbol builds one matrix per class of modes and copies it to each
    # mode of the class, so every index of a class must have its
    # representative's sigma: k and N/2 - k share one at even N, and at odd
    # N each index is its own class.  In float64 the two sines of a class
    # agree to rounding, not bit for bit (sin(pi) is 1.2e-16 at N = 4, k =
    # 2, against 0 at its representative).
    reps1, of1 = gauss_newton._sine_classes(N, N)
    reps2, of2 = gauss_newton._sine_classes(N, N // 2 + 1)
    if N % 2 == 0:
        assert len(reps1) * len(reps2) == (2 * (N // 4) + 1) * (N // 4 + 1)
    else:
        assert len(reps1) * len(reps2) == N * (N // 2 + 1)
    for reps, of in ((reps1, of1), (reps2, of2)):
        assert sorted(set(of)) == list(range(len(reps)))
        k, rep = np.arange(len(of)), reps[of]
        same = (rep - k) % N == 0
        if N % 2 == 0:
            same |= (rep + k - N // 2) % N == 0
        assert same.all()
        gap = np.abs(vx._difference_symbol(k, N) - vx._difference_symbol(rep, N))
        assert gap.max() <= 8 * np.finfo(np.float64).eps


# Exchanging the bundles swaps W1, W3, W4 with W2, W5, W6 and each block
# with its mirror, when tau and tau_prime trade places with them.
EXCHANGED_FIELDS = {"W1": "W2", "W2": "W1", "W3": "W5", "W4": "W6", "W5": "W3", "W6": "W4"}
EXCHANGED_BLOCKS = {
    "A1": "A2", "A2": "A1", "theta1": "theta2", "theta2": "theta1", "phi": "psi", "psi": "phi",
}


def exchanged_coupling(tau: float, r1: int, r2: int) -> float:
    q = vx.tau_prime(tau, r1, r2)
    assert vx.tau_prime(q, r2, r1) == tau
    return q


def assert_swapped(got: dict, want: dict, names: dict[str, str], where) -> None:
    assert list(got) == list(want), where
    for name, other in names.items():
        if want[name] is vx._ZERO:
            assert got[other] is vx._ZERO, (where, name)
        else:
            assert np.array_equal(got[other], want[name]), (where, name)


@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_exchange_swaps_residual_fields_and_gradient(r1: int, r2: int) -> None:
    tau = 0.8
    q = exchanged_coupling(tau, r1, r2)
    for branch in ZERO_BLOCKS:
        rng = np.random.default_rng(97 + 10 * r1 + r2)
        s = branch_state(r1, r2, branch, rng)
        t = vx.exchange_bundles(s)
        assert (t.r1, t.r2) == (r2, r1)
        f, ft = vx._Fields.of(s), vx._Fields.of(t)
        w, wt = vx._residual_fields(f, tau), vx._residual_fields(ft, q)
        assert_swapped(wt, w, EXCHANGED_FIELDS, branch)
        grad, grad_t = vx.residual_gradient(s, tau), vx.residual_gradient(t, q)
        assert_swapped(grad_t, grad, EXCHANGED_BLOCKS, branch)

