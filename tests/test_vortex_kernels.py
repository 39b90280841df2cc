"""The per-site kernels behind the residual fields, against oracles that
share no code with them: numpy's matmul, an np.roll central difference and
the residual fields assembled in their split form."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import higgspairs.vortex as vx

RANK_PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))


def cfield(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def adj(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


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
        got = vx._mm(x, y)
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
        assert np.allclose(vx._stencil(m, n, a, sign), want, rtol=1e-13, atol=1e-13)
    dz = 0.5 * (roll_central(m, 0, a) - 1j * roll_central(m, 1, a))
    dzbar = 0.5 * (roll_central(m, 0, a) + 1j * roll_central(m, 1, a))
    assert np.allclose(vx._dz(m, a), dz, rtol=1e-13, atol=1e-13)
    assert np.allclose(vx._dzbar(m, a), dzbar, rtol=1e-13, atol=1e-13)


def split_residual_fields(s: vx.LatticeState, p: vx.VortexParams) -> dict[str, np.ndarray]:
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
    return {
        "W1": 2.0 * g1 + 0.5 * moment1 - 0.5 * p.tau * np.eye(s.r1),
        "W2": 2.0 * g2 + 0.5 * moment2 - 0.5 * p.tau_prime * np.eye(s.r2),
        "W3": 2.0 * (dzbar(phi) + Z1b @ phi - phi @ Z2b),
        "W4": 2.0 * (t1 @ phi - phi @ t2),
        "W5": 2.0 * (dzbar(psi) + Z2b @ psi - psi @ Z1b),
        "W6": 2.0 * (t2 @ psi - psi @ t1),
    }


@pytest.mark.parametrize("r1, r2", RANK_PAIRS)
def test_residual_fields_match_split_form(r1: int, r2: int) -> None:
    rng = np.random.default_rng(29 + 10 * r1 + r2)
    p = vx.VortexParams(r1=r1, tau=0.8, r2=r2)
    s = vx.random_smooth_state(8, r1, r2, 1.0, rng, amplitude=0.3, tau=0.8)
    # random_smooth_state starts on the phi branch (psi = theta2 = 0); a
    # second draw fills those blocks so every term of every field is live.
    other = vx.random_smooth_state(8, r2, r1, 1.0, rng, amplitude=0.3, tau=0.8)
    s = replace(s, theta2=other.theta1, psi=other.phi)
    got = vx._residual_fields(s, p)
    want = split_residual_fields(s, p)
    assert got.keys() == want.keys()
    for name, ref in want.items():
        scale = np.linalg.norm(ref)
        assert scale > 0.0, name
        assert np.linalg.norm(got[name] - ref) <= 1e-12 * scale, name
