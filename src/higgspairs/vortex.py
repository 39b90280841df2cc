"""Lattice solver for the doubly coupled vortex equations on a flat torus.

Fields live on an N x N periodic grid with spacing a (N^2 a^2 = vol):
anti-Hermitian connection potentials A1, A2 (one per bundle, one matrix per
direction per site), Higgs fields theta1, theta2 (the (1,0)-components),
and the morphisms phi (r1 x r2) and psi (r2 x r1).  Degree-0 trivial
bundles only, so potentials are global matrix fields; derivatives are
second-order central differences and curvature is F = dA + A ^ A.

Norm conventions (fixed so the energy decomposition closes exactly):
|dz|^2 = 2 and |dz ^ dzbar|^2 = 4, i.e. a (1,0)+(0,1) derivative
contributes 2(|D_z .|^2 + |D_zbar .|^2) per site and a curvature 2-form
contributes 4|F_z_zbar|^2.  Site sums carry the quadrature weight a^2.

Two energies:

* ``ymh_energy`` assembles the Higgs-coupled connections A + theta +
  theta^dagger per bundle and sums curvature norms, full covariant
  derivative norms of phi and psi, and the two moment-map deviation terms;
* ``residual_energy`` sums the two vortex-equation residuals plus the
  holomorphicity terms of phi and psi.

The residuals W1, W2 share the curvature of the Higgs-coupled connection
with ``ymh_energy``: by bilinearity of the commutator it equals the
curvature of A plus the mixed A-theta part plus [theta, theta^dagger], and
one stencil pass and one commutator give it.  The split form is checked
separately (tests/test_vortex_kernels.py).

The difference of the two energies is a topological constant, zero for
degree-0 trivial bundles, so ``decomposition_check`` must vanish to
rounding; it still checks the cross terms that the two energies arrange
differently: kinetic against holomorphicity and intertwining, and the
curvature against the moment maps.  With local finite differences this
discrete identity cannot hold for arbitrarily rough per-site fields (the
discrete Leibniz rule shifts one factor by a lattice site, which the
pointwise moment-map terms cannot see), so ``random_state`` samples the
class on which every cross term cancels exactly: constant connections with
Higgs fields polynomial in the conjugate potential, and fully rough
per-site phi and psi.  The descent path never relies on the identity; it
minimizes ``residual_energy`` directly.  Every residual field is linear or
bilinear in the fields (the coupled curvature, the moment maps,
theta-intertwining), so along any line residual_energy is exactly a
quartic; ``solve`` takes its exact minimum along preconditioned
conjugate-gradient directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

FOUR_PI = 4.0 * math.pi

# Weight of the moment-map deviation terms in ymh_energy.  Module-level so
# the self-test's mutation probe can tamper with it and watch the
# decomposition identity fail.
DEVIATION_WEIGHT = 0.25

MIN_GRID = 4

_FROZEN = {"phi": ("psi", "theta2"), "psi": ("phi", "theta1"), None: ()}


class NotConvergedError(RuntimeError):
    """An operation that requires a converged state got a non-converged one."""


@dataclass(frozen=True)
class VortexParams:
    """Ranks, degrees, area and coupling constants.

    tau_prime is derived from tau r1 + tau_prime r2 = (4 pi / vol)(d1 + d2);
    passing it explicitly is allowed but it must satisfy that identity.
    """

    r1: int
    tau: float
    r2: int = 1
    d1: int = 0
    d2: int = 0
    vol: float = 1.0
    tau_prime: Optional[float] = None

    def __post_init__(self) -> None:
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError(f"ranks must be positive, got ({self.r1}, {self.r2})")
        if not self.vol > 0:
            raise ValueError(f"vol must be positive, got {self.vol}")
        derived = ((FOUR_PI / self.vol) * (self.d1 + self.d2) - self.tau * self.r1) / self.r2
        if self.tau_prime is None:
            object.__setattr__(self, "tau_prime", derived)
        elif not math.isclose(self.tau_prime, derived, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(
                f"tau_prime = {self.tau_prime} violates the coupling identity; "
                f"expected {derived}"
            )


def sigma_of(p: VortexParams) -> float:
    """The positive scale sigma = 2 r2 / ((r1+r2) tau / 4pi - (d1+d2)/vol)."""
    den = (p.r1 + p.r2) * p.tau / FOUR_PI - (p.d1 + p.d2) / p.vol
    if den <= 0:
        tau_min = FOUR_PI * (p.d1 + p.d2) / (p.vol * (p.r1 + p.r2))
        raise ValueError(
            f"sigma undefined: need tau > {tau_min} "
            f"(got tau = {p.tau} with denominator {den})"
        )
    return 2.0 * p.r2 / den


def hym_constant(p: VortexParams) -> float:
    """The slope constant of the reduced equation.

    Computed from the degree bookkeeping 2 pi (sigma (d1+d2) + 2 r2 vol) /
    ((r1+r2) vol sigma); equals tau/2 identically, and c - 4 pi / sigma
    equals tau_prime / 2.
    """
    sigma = sigma_of(p)
    return (
        2.0 * math.pi * (sigma * (p.d1 + p.d2) + 2.0 * p.r2 * p.vol)
        / ((p.r1 + p.r2) * p.vol * sigma)
    )


@dataclass(frozen=True)
class LatticeState:
    """Field configuration on the periodic grid.

    A1, A2 have shape (2, N, N, r, r) (direction-major, anti-Hermitian);
    theta1, theta2 are (N, N, r, r); phi is (N, N, r1, r2) and psi is
    (N, N, r2, r1).  All complex128.
    """

    N: int
    a: float
    A1: np.ndarray
    A2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        if self.N < MIN_GRID:
            raise ValueError(f"grid size must be at least {MIN_GRID}, got {self.N}")
        if not self.a > 0:
            raise ValueError(f"spacing must be positive, got {self.a}")
        r1, r2 = self.r1, self.r2
        shapes = {
            "A1": (self.A1, (2, self.N, self.N, r1, r1)),
            "A2": (self.A2, (2, self.N, self.N, r2, r2)),
            "theta1": (self.theta1, (self.N, self.N, r1, r1)),
            "theta2": (self.theta2, (self.N, self.N, r2, r2)),
            "phi": (self.phi, (self.N, self.N, r1, r2)),
            "psi": (self.psi, (self.N, self.N, r2, r1)),
        }
        for name, (arr, want) in shapes.items():
            if arr.shape != want:
                raise ValueError(f"{name} has shape {arr.shape}, expected {want}")
            if arr.dtype != np.complex128:
                raise ValueError(f"{name} must be complex128, got {arr.dtype}")

    @property
    def r1(self) -> int:
        return self.phi.shape[2]

    @property
    def r2(self) -> int:
        return self.phi.shape[3]

    @property
    def vol(self) -> float:
        return self.N * self.N * self.a * self.a


def _adj(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-site matrix product x @ y of (..., p, q) and (..., q, r) fields.

    Summed as q broadcast multiply-adds over the inner index: matmul makes
    one BLAS call per site, which costs several times more on blocks this
    small.
    """
    out = x[..., :, :1] * y[..., :1, :]
    for j in range(1, x.shape[-1]):
        out += x[..., :, j : j + 1] * y[..., j : j + 1, :]
    return out


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _mm(x, y) - _mm(y, x)


def _stencil(m: np.ndarray, n: np.ndarray, a: float, sign: float) -> np.ndarray:
    """(d1 m + sign i d2 n) / 2 by central differences on the periodic grid.

    d1 and d2 differentiate along the two leading site axes; the shifted
    differences are sliced straight into fresh buffers, the wrap-around
    rows and columns one slice each.
    """
    d1 = np.empty_like(m)
    np.subtract(m[2:], m[:-2], out=d1[1:-1])
    np.subtract(m[1:2], m[-1:], out=d1[:1])
    np.subtract(m[:1], m[-2:-1], out=d1[-1:])
    d2 = np.empty_like(n)
    np.subtract(n[:, 2:], n[:, :-2], out=d2[:, 1:-1])
    np.subtract(n[:, 1:2], n[:, -1:], out=d2[:, :1])
    np.subtract(n[:, :1], n[:, -2:-1], out=d2[:, -1:])
    d2 *= sign * 1j
    d1 += d2
    d1 *= 0.25 / a
    return d1


def _dz(m: np.ndarray, a: float) -> np.ndarray:
    return _stencil(m, m, a, -1.0)


def _dzbar(m: np.ndarray, a: float) -> np.ndarray:
    return _stencil(m, m, a, 1.0)


def _zpot(A: np.ndarray) -> np.ndarray:
    """A_z = (A_1 - i A_2)/2 from the per-direction potentials."""
    return 0.5 * (A[0] - 1j * A[1])


def _frob2(m: np.ndarray) -> float:
    return float(np.sum(np.abs(m) ** 2))


class _Fields:
    """Shared derived quantities for one state (plain helper, no caching)."""

    def __init__(self, s: LatticeState) -> None:
        self.a = s.a
        self.k = s.a * s.a
        self.Z1 = _zpot(s.A1)
        self.Z2 = _zpot(s.A2)
        self.Z1b = -_adj(self.Z1)
        self.Z2b = -_adj(self.Z2)
        self.t1 = s.theta1
        self.t2 = s.theta2
        self.t1d = _adj(s.theta1)
        self.t2d = _adj(s.theta2)
        self.phi = s.phi
        self.psi = s.psi

    def curvature(self, Z: np.ndarray, Zb: np.ndarray) -> np.ndarray:
        """F_z_zbar = D_z Zb - D_zbar Z + [Z, Zb], the derivative part in one
        stencil pass on (Zb - Z, Zb + Z) by linearity."""
        return _stencil(Zb - Z, Zb + Z, self.a, -1.0) + _comm(Z, Zb)

    def dz_phi(self) -> np.ndarray:
        return _dz(self.phi, self.a) + _mm(self.Z1, self.phi) - _mm(self.phi, self.Z2)

    def dzbar_phi(self) -> np.ndarray:
        return _dzbar(self.phi, self.a) + _mm(self.Z1b, self.phi) - _mm(self.phi, self.Z2b)

    def dz_psi(self) -> np.ndarray:
        return _dz(self.psi, self.a) + _mm(self.Z2, self.psi) - _mm(self.psi, self.Z1)

    def dzbar_psi(self) -> np.ndarray:
        return _dzbar(self.psi, self.a) + _mm(self.Z2b, self.psi) - _mm(self.psi, self.Z1b)

    def x_phi(self) -> np.ndarray:
        return _mm(self.t1, self.phi) - _mm(self.phi, self.t2)

    def y_phi(self) -> np.ndarray:
        return _mm(self.t1d, self.phi) - _mm(self.phi, self.t2d)

    def x_psi(self) -> np.ndarray:
        return _mm(self.t2, self.psi) - _mm(self.psi, self.t1)

    def y_psi(self) -> np.ndarray:
        return _mm(self.t2d, self.psi) - _mm(self.psi, self.t1d)

    def moment1(self) -> np.ndarray:
        return _mm(self.phi, _adj(self.phi)) - _mm(_adj(self.psi), self.psi)

    def moment2(self) -> np.ndarray:
        return _mm(self.psi, _adj(self.psi)) - _mm(_adj(self.phi), self.phi)


def ymh_energy(s: LatticeState, p: VortexParams) -> float:
    """Yang-Mills-Higgs energy: curvature, kinetic and deviation terms.

    Uses the Higgs-coupled connections A + theta + theta^dagger per bundle;
    the curvature term is 4|F|^2 per site, the kinetic terms are
    2(|D_z .|^2 + |D_zbar .|^2), the deviations are weighted by
    DEVIATION_WEIGHT (1/4).
    """
    f = _Fields(s)
    eye1 = np.eye(s.r1)
    eye2 = np.eye(s.r2)

    h1 = f.curvature(f.Z1 + f.t1, f.Z1b + f.t1d)
    h2 = f.curvature(f.Z2 + f.t2, f.Z2b + f.t2d)
    curv = 4.0 * (_frob2(h1) + _frob2(h2))

    kin_phi = 2.0 * (_frob2(f.dz_phi() + f.x_phi()) + _frob2(f.dzbar_phi() + f.y_phi()))
    kin_psi = 2.0 * (_frob2(f.dz_psi() + f.x_psi()) + _frob2(f.dzbar_psi() + f.y_psi()))

    dev1 = _frob2(f.moment1() - p.tau * eye1)
    dev2 = _frob2(f.moment2() - p.tau_prime * eye2)

    return f.k * (curv + kin_phi + kin_psi + DEVIATION_WEIGHT * (dev1 + dev2))


def _residual_fields(s: LatticeState, p: VortexParams) -> dict[str, np.ndarray]:
    """The six residual fields whose squared norms sum to residual_energy.

    W1, W2 are the two vortex-equation residuals (2 F_z_zbar of the
    Higgs-coupled connection appears as i Lambda R); W3..W6 are twice the
    holomorphicity and intertwining defects of phi and psi.
    """
    f = _Fields(s)
    eye1 = np.eye(s.r1)
    eye2 = np.eye(s.r2)
    g1 = f.curvature(f.Z1 + f.t1, f.Z1b + f.t1d)
    g2 = f.curvature(f.Z2 + f.t2, f.Z2b + f.t2d)
    return {
        "W1": 2.0 * g1 + 0.5 * f.moment1() - 0.5 * p.tau * eye1,
        "W2": 2.0 * g2 + 0.5 * f.moment2() - 0.5 * p.tau_prime * eye2,
        "W3": 2.0 * f.dzbar_phi(),
        "W4": 2.0 * f.x_phi(),
        "W5": 2.0 * f.dzbar_psi(),
        "W6": 2.0 * f.x_psi(),
    }


def _energy(s: LatticeState, w: dict[str, np.ndarray]) -> float:
    return s.a * s.a * sum(_frob2(v) for v in w.values())


def residual_energy(s: LatticeState, p: VortexParams) -> float:
    """Squared residual of the two vortex equations plus holomorphicity terms.

    Zero exactly at discrete solutions of the coupled equations together
    with D_zbar phi = 0, theta-intertwining of phi, and the psi mirrors.
    """
    return _energy(s, _residual_fields(s, p))


def residual_breakdown(s: LatticeState, p: VortexParams) -> dict[str, float]:
    """Named parts of residual_energy plus pointwise diagnostics."""
    w = _residual_fields(s, p)
    k = s.a * s.a
    site_norm1 = np.sqrt(np.sum(np.abs(w["W1"]) ** 2, axis=(-1, -2)))
    site_norm2 = np.sqrt(np.sum(np.abs(w["W2"]) ** 2, axis=(-1, -2)))
    theta_s = 0.5 * np.sqrt(np.sum(np.abs(w["W4"]) ** 2, axis=(-1, -2)))
    return {
        "eq1": k * _frob2(w["W1"]),
        "eq2": k * _frob2(w["W2"]),
        "holomorphicity": k * (_frob2(w["W3"]) + _frob2(w["W5"])),
        "intertwining": k * (_frob2(w["W4"]) + _frob2(w["W6"])),
        "eq1_max": float(site_norm1.max()),
        "eq2_max": float(site_norm2.max()),
        "theta_s_sup": float(theta_s.max()),
    }


def decomposition_check(s: LatticeState, p: VortexParams) -> float:
    """Relative gap |ymh - residual| / (1 + ymh); topological terms are zero
    for degree-0 trivial bundles, so this must vanish to rounding."""
    y = ymh_energy(s, p)
    r = residual_energy(s, p)
    return abs(y - r) / (1.0 + y)


def moment_map_value(s: LatticeState) -> float:
    """Squared L2 norm of the Higgs fields (the circle-action moment map)."""
    return s.a * s.a * (_frob2(s.theta1) + _frob2(s.theta2))


# -- gradient ----------------------------------------------------------


def _antiherm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - _adj(m))


def residual_gradient(
    s: LatticeState, p: VortexParams, branch: Optional[str] = None
) -> dict[str, np.ndarray]:
    """Gradient of residual_energy in the convention dE = 2 Re sum tr(g^H dq).

    A-blocks are returned as anti-Hermitian per-direction stacks (the
    projection of the unconstrained gradient onto the constraint manifold);
    blocks frozen by the branch come back as zeros.
    """
    return _gradient(s, _residual_fields(s, p), branch)


def _gradient(
    s: LatticeState, w: dict[str, np.ndarray], branch: Optional[str]
) -> dict[str, np.ndarray]:
    """residual_gradient from the residual fields w already computed at s."""
    f = _Fields(s)
    k = f.k
    w1, w2 = w["W1"], w["W2"]
    w3, w4, w5, w6 = w["W3"], w["W4"], w["W5"], w["W6"]
    w1d, w2d = _adj(w1), _adj(w2)
    w1h, w1a = w1 + w1d, w1 - w1d
    w2h, w2a = w2 + w2d, w2 - w2d
    a = f.a

    # The A blocks are never frozen; the other blocks are built only when
    # the branch flows them.
    g_z1 = k * (
        2.0 * _dz(w1h, a)
        + 2.0 * _comm(f.Z1, w1h)
        + 2.0 * _comm(w1a, f.t1)
        - 2.0 * _mm(f.phi, _adj(w3))
        + 2.0 * _mm(_adj(w5), f.psi)
    )
    g_z2 = k * (
        2.0 * _dz(w2h, a)
        + 2.0 * _comm(f.Z2, w2h)
        + 2.0 * _comm(w2a, f.t2)
        - 2.0 * _mm(f.psi, _adj(w5))
        + 2.0 * _mm(_adj(w3), f.phi)
    )
    blocks = {
        "theta1": lambda: k * (
            2.0 * _dz(w1a, a)
            + 2.0 * _comm(f.Z1, w1a)
            + 2.0 * _comm(w1h, f.t1)
            + 2.0 * _mm(w4, _adj(f.phi))
            - 2.0 * _mm(_adj(f.psi), w6)
        ),
        "theta2": lambda: k * (
            2.0 * _dz(w2a, a)
            + 2.0 * _comm(f.Z2, w2a)
            + 2.0 * _comm(w2h, f.t2)
            + 2.0 * _mm(w6, _adj(f.psi))
            - 2.0 * _mm(_adj(f.phi), w4)
        ),
        "phi": lambda: k * (
            0.5 * _mm(w1h, f.phi)
            - 0.5 * _mm(f.phi, w2h)
            - 2.0 * _dz(w3, a)
            - 2.0 * _mm(f.Z1, w3)
            + 2.0 * _mm(w3, f.Z2)
            + 2.0 * _mm(f.t1d, w4)
            - 2.0 * _mm(w4, f.t2d)
        ),
        "psi": lambda: k * (
            -0.5 * _mm(f.psi, w1h)
            + 0.5 * _mm(w2h, f.psi)
            - 2.0 * _dz(w5, a)
            - 2.0 * _mm(f.Z2, w5)
            + 2.0 * _mm(w5, f.Z1)
            + 2.0 * _mm(f.t2d, w6)
            - 2.0 * _mm(w6, f.t1d)
        ),
    }
    grad = {
        "A1": 0.5 * np.stack([_antiherm(g_z1), _antiherm(1j * g_z1)]),
        "A2": 0.5 * np.stack([_antiherm(g_z2), _antiherm(1j * g_z2)]),
    }
    frozen = _FROZEN[branch]
    for name, block in blocks.items():
        grad[name] = np.zeros_like(getattr(s, name)) if name in frozen else block()
    return grad


def _inner(x: dict[str, np.ndarray], y: dict[str, np.ndarray]) -> float:
    """The real metric 2 Re sum tr(x^H y) of the gradient convention."""
    return 2.0 * sum(float(np.vdot(x[k], y[k]).real) for k in x)


def _apply_step(s: LatticeState, grad: dict[str, np.ndarray], eta: float) -> LatticeState:
    return replace(
        s,
        A1=s.A1 - eta * grad["A1"],
        A2=s.A2 - eta * grad["A2"],
        theta1=s.theta1 - eta * grad["theta1"],
        theta2=s.theta2 - eta * grad["theta2"],
        phi=s.phi - eta * grad["phi"],
        psi=s.psi - eta * grad["psi"],
    )


def _precondition(
    grad: dict[str, np.ndarray], s: LatticeState, p: VortexParams
) -> dict[str, np.ndarray]:
    """Fourier-diagonal approximate inverse Hessian applied blockwise.

    The kernel 1/(mass + 4 omega^2), with omega the central-difference
    derivative symbol, flattens the spectrum of the residual Hessian so the
    descent converges at a grid-independent rate.  The kernel is real and
    even, hence a real symmetric convolution: it preserves anti-Hermiticity
    of the A blocks and commutes with constant gauge rotations.  A zero
    block maps to zero, so it is passed through without a transform: the
    blocks a branch freezes are zero by construction.
    """
    sin2 = np.sin(2.0 * np.pi * np.arange(s.N) / s.N) ** 2
    omega2 = (sin2[:, None] + sin2[None, :]) / (s.a * s.a)
    mass = max(1.0, abs(p.tau) + abs(p.tau_prime))
    kernel = 1.0 / (mass + 4.0 * omega2)
    out = {}
    for name, g in grad.items():
        if not g.any():
            out[name] = g
            continue
        axes = (1, 2) if name in ("A1", "A2") else (0, 1)
        shape = (1, s.N, s.N, 1, 1) if name in ("A1", "A2") else (s.N, s.N, 1, 1)
        gh = np.fft.fft2(g, axes=axes) * kernel.reshape(shape)
        out[name] = np.fft.ifft2(gh, axes=axes)
    return out


def _exact_step(
    s: LatticeState,
    p: VortexParams,
    dirn: dict[str, np.ndarray],
    w0: dict[str, np.ndarray],
    h: float,
) -> float:
    """The step eta > 0 minimizing residual_energy(s - eta dirn).

    Every residual field is at most quadratic in the fields, so along the
    line W(eta) = W0 - eta B + eta^2 C exactly and the energy is a quartic
    in eta.  The fields at s -/+ h dirn give hB and h^2 C, so the quartic
    is written in t = eta/h: with h near the step, the linear term stays
    clear of the rounding of the probes.  The quartic is evaluated at the
    real part of every root of its cubic derivative (a double real root
    may come back as a nearly real pair) and the lowest value wins.
    Returns 0.0 when no candidate lowers the energy or a coefficient is
    not finite.
    """
    c = np.zeros(5)
    wp = _residual_fields(_apply_step(s, dirn, -h), p)
    wm = _residual_fields(_apply_step(s, dirn, h), p)
    for name, v0 in w0.items():
        hb = 0.5 * (wp[name] - wm[name])
        h2c = 0.5 * (wp.pop(name) + wm.pop(name)) - v0
        c[1] -= 2.0 * np.vdot(v0, hb).real
        c[2] += _frob2(hb) + 2.0 * np.vdot(v0, h2c).real
        c[3] -= 2.0 * np.vdot(hb, h2c).real
        c[4] += _frob2(h2c)
    if not np.all(np.isfinite(c)):
        return 0.0
    roots = np.roots([4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]]).real
    best, drop = 0.0, 0.0
    for t in roots[roots > 0]:
        d = t * (c[1] + t * (c[2] + t * (c[3] + t * c[4])))
        if d < drop:
            best, drop = float(t), d
    return h * best


_ZERO_GRAD = 1e-30


@dataclass
class SolveResult:
    state: LatticeState
    residual: float
    converged: bool
    iterations: int
    moment_map_value: float
    eq1: float
    eq2: float
    holomorphicity: float
    intertwining: float
    eq1_max: float
    eq2_max: float
    theta_s_sup: float
    stalled: bool
    energy_history: list[float]


def solve(
    s0: LatticeState,
    p: VortexParams,
    tol: float = 1e-12,
    max_iter: int = 10000,
    branch: Optional[str] = "phi",
) -> SolveResult:
    """Minimize residual_energy by preconditioned nonlinear conjugate gradients.

    The directions are Polak-Ribiere+ conjugate gradients on the
    Fourier-preconditioned gradient, restarted along the preconditioned
    gradient whenever beta would be negative or the direction is not a
    descent direction.  Each step is the exact minimum of the quartic
    energy along its line (_exact_step), and a step is accepted only if
    the energy recomputed at the new state is lower, so the energy is
    monotone and the iteration deterministic.  One iteration costs three
    evaluations of the residual fields: two probes along the line and the
    new state, whose fields give both its energy and its gradient.
    branch "phi" freezes psi and theta2 at zero (the section-carrying
    specialization); "psi" mirrors; None flows every block.  Converged
    means residual_energy <= tol.  Exhausting max_iter returns
    converged=False; a zero gradient, a step that does not lower the
    energy, or a non-finite energy or line coefficient stops the solve
    with stalled=True.  It never raises.
    """
    s = s0
    if branch in ("phi", "psi"):
        frozen = {name: np.zeros_like(getattr(s0, name)) for name in _FROZEN[branch]}
        s = replace(s0, **frozen)
    w = _residual_fields(s, p)
    energy = _energy(s, w)
    history = [energy]
    step = 1.0
    stalled = False
    iterations = 0
    prev: Optional[tuple[dict[str, np.ndarray], float, dict[str, np.ndarray]]] = None

    # "not energy <= tol" lets a NaN energy into the loop, where it stops.
    while iterations < max_iter and not energy <= tol:
        if not math.isfinite(energy):
            stalled = True
            break
        grad = _gradient(s, w, branch)
        pgrad = _precondition(grad, s, p)
        gz = _inner(grad, pgrad)
        if _inner(grad, grad) <= _ZERO_GRAD or gz <= _ZERO_GRAD:
            stalled = True
            break
        dirn = pgrad
        if prev is not None:
            pgrad_prev, gz_prev, dirn_prev = prev
            beta = (gz - _inner(grad, pgrad_prev)) / gz_prev
            if beta > 0:
                cg = {k: pgrad[k] + beta * dirn_prev[k] for k in pgrad}
                if _inner(grad, cg) > 0:
                    dirn = cg
        prev = (pgrad, gz, dirn)
        del grad
        step = _exact_step(s, p, dirn, w, step)
        if step == 0.0:
            stalled = True
            break
        cand = _apply_step(s, dirn, step)
        w_new = _residual_fields(cand, p)
        e_new = _energy(cand, w_new)
        if not e_new < energy:
            stalled = True
            break
        s, w, energy = cand, w_new, e_new
        history.append(energy)
        iterations += 1

    br = residual_breakdown(s, p)
    return SolveResult(
        state=s,
        residual=energy,
        converged=energy <= tol,
        iterations=iterations,
        moment_map_value=moment_map_value(s),
        **br,
        stalled=stalled,
        energy_history=history,
    )


def l4_identity_check(
    s: LatticeState, p: VortexParams, tol: float = 1e-8
) -> dict[str, float]:
    """Integrated identities satisfied by solutions, as discrete residuals.

    res1 integrates the section identity: at a solution of the coupled
    system the combination 4|D_z s|^2 + 4|theta1^H s|^2 + 2|s|^4
    + (tau' - tau)|s|^2 integrates to zero (the Laplacian term drops on the
    closed torus; the |s|^4 doubling and the tau' shift come from the
    second bundle's curvature, which is part of the coupled system here).
    res2 integrates the Higgs-field identity, a sum of nonnegative terms
    (the Ricci term vanishes on the flat torus).

    On this lattice's degree-0 trivial bundles, with r1 = r2 = 1 on the phi
    branch, every solution is flat with a covariantly constant section s.
    At a discrete solution W4 = 0 forces theta1 s = 0, tau' = -tau, and
    the curvature terms are central differences that sum to zero on the
    periodic grid, so
    res1 = a^2 sum(4|D_z s|^2 + 2(|s|^2 - tau)^2) >= 0.  Both squared
    quantities are O(a^2) truncation defects, so res1 is O(a^4).  res2
    vanishes, because theta1 = 0 there.  At residual E, res1 carries an
    extra term 4 tau a^2 sum(W1) of size at most 4|tau| sqrt(vol E), so
    the default tol=1e-8 admits about 4e-4 of tolerance error (tau = 1,
    vol = 1).
    """
    res = residual_energy(s, p)
    if res > tol:
        raise NotConvergedError(
            f"identity check needs residual_energy <= {tol}, got {res}"
        )
    f = _Fields(s)
    k = f.k
    s2 = np.einsum("xyab,xyab->xy", np.conj(s.phi), s.phi).real
    dzs = f.dz_phi()
    th_s = f.t1d @ s.phi
    res1 = k * float(
        np.sum(
            4.0 * np.sum(np.abs(dzs) ** 2, axis=(-1, -2))
            + 4.0 * np.sum(np.abs(th_s) ** 2, axis=(-1, -2))
            + 2.0 * s2 * s2
            + (p.tau_prime - p.tau) * s2
        )
    )
    grad_t1 = _dz(s.theta1, f.a) + _comm(f.Z1, s.theta1)
    res2 = k * float(
        np.sum(
            8.0 * np.sum(np.abs(grad_t1) ** 2, axis=(-1, -2))
            + 8.0 * np.sum(np.abs(_comm(s.theta1, f.t1d)) ** 2, axis=(-1, -2))
            + 4.0 * np.sum(np.abs(_adj(s.phi) @ s.theta1) ** 2, axis=(-1, -2))
        )
    )
    return {"res1": abs(res1), "res2": abs(res2)}


# -- state constructors -------------------------------------------------


def _spacing(N: int, vol: float) -> float:
    return math.sqrt(vol) / N


def zero_state(N: int, r1: int, r2: int = 1, vol: float = 1.0) -> LatticeState:
    z = np.zeros
    return LatticeState(
        N=N,
        a=_spacing(N, vol),
        A1=z((2, N, N, r1, r1), dtype=np.complex128),
        A2=z((2, N, N, r2, r2), dtype=np.complex128),
        theta1=z((N, N, r1, r1), dtype=np.complex128),
        theta2=z((N, N, r2, r2), dtype=np.complex128),
        phi=z((N, N, r1, r2), dtype=np.complex128),
        psi=z((N, N, r2, r1), dtype=np.complex128),
    )


def constant_solution_state(N: int, p: VortexParams) -> LatticeState:
    """The exact flat solution for r1 = 1, degree 0, tau > 0: |s|^2 = tau."""
    if p.r1 != 1 or p.r2 != 1 or p.tau <= 0:
        raise ValueError("constant solution needs r1 = r2 = 1 and tau > 0")
    s = zero_state(N, 1, 1, p.vol)
    phi = s.phi.copy()
    phi[...] = math.sqrt(p.tau)
    return replace(s, phi=phi)


def random_state(
    N: int,
    r1: int,
    r2: int = 1,
    vol: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    amplitude: float = 1.0,
) -> LatticeState:
    """Random configuration in the exact-decomposition class.

    Connections are constant anti-Hermitian; each theta is a random
    quadratic polynomial in its own conjugate potential (so it commutes
    with it); phi and psi are rough per-site fields on complementary site
    masks, which keeps phi psi = psi phi = 0 pointwise.
    """
    rng = np.random.default_rng() if rng is None else rng

    def cmat(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def const_potential(r: int) -> np.ndarray:
        x1, x2 = cmat(r, r), cmat(r, r)
        a1 = 0.5 * (x1 - x1.conj().T) * amplitude
        a2 = 0.5 * (x2 - x2.conj().T) * amplitude
        out = np.empty((2, N, N, r, r), dtype=np.complex128)
        out[0] = a1
        out[1] = a2
        return out

    def commuting_higgs(A: np.ndarray, r: int) -> np.ndarray:
        zb = -_adj(_zpot(A[:, 0, 0]))
        c0, c1, c2 = (amplitude * complex(*rng.standard_normal(2)) for _ in range(3))
        t = c0 * np.eye(r) + c1 * zb + c2 * (zb @ zb)
        out = np.empty((N, N, r, r), dtype=np.complex128)
        out[...] = t
        return out

    A1 = const_potential(r1)
    A2 = const_potential(r2)
    mask = rng.integers(0, 2, size=(N, N)).astype(np.float64)
    phi = cmat(N, N, r1, r2) * amplitude * mask[:, :, None, None]
    psi = cmat(N, N, r2, r1) * amplitude * (1.0 - mask)[:, :, None, None]
    return LatticeState(
        N=N,
        a=_spacing(N, vol),
        A1=A1,
        A2=A2,
        theta1=commuting_higgs(A1, r1),
        theta2=commuting_higgs(A2, r2),
        phi=phi,
        psi=psi,
    )


_SMOOTH_MODES = tuple(
    (k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3) if (k1, k2) != (0, 0)
)


def random_smooth_state(
    N: int,
    r1: int,
    r2: int = 1,
    vol: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    amplitude: float = 0.3,
    tau: float = 1.0,
) -> LatticeState:
    """Band-limited random fields from grid-independent mode coefficients.

    Fields are explicit sums over the fixed low-frequency mode list with
    coefficients drawn in a fixed order, so two grids seeded identically
    sample the same continuum configuration.  phi starts near the constant
    sqrt(tau); psi is zero (section branch initial data).
    """
    rng = np.random.default_rng() if rng is None else rng
    j1, j2 = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")

    def mode_field(*mat_shape: int) -> np.ndarray:
        out = np.zeros((N, N) + mat_shape, dtype=np.complex128)
        for k1, k2 in _SMOOTH_MODES:
            coeff = rng.standard_normal(mat_shape) + 1j * rng.standard_normal(mat_shape)
            wave = np.exp(2j * np.pi * (k1 * j1 + k2 * j2) / N)
            out += wave[:, :, None, None] * coeff
        return out / len(_SMOOTH_MODES)

    def potential(r: int) -> np.ndarray:
        out = np.empty((2, N, N, r, r), dtype=np.complex128)
        for mu in range(2):
            raw = mode_field(r, r)
            hol = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            raw = raw + hol
            out[mu] = amplitude * 0.5 * (raw - _adj(raw))
        return out

    A1 = potential(r1)
    A2 = potential(r2)
    theta1 = amplitude * mode_field(r1, r1)
    theta2 = np.zeros((N, N, r2, r2), dtype=np.complex128)
    base = np.zeros((N, N, r1, r2), dtype=np.complex128)
    base[:, :, 0, 0] = math.sqrt(abs(tau)) if tau != 0 else 1.0
    phi = base + amplitude * mode_field(r1, r2)
    psi = np.zeros((N, N, r2, r1), dtype=np.complex128)
    return LatticeState(
        N=N, a=_spacing(N, vol), A1=A1, A2=A2,
        theta1=theta1, theta2=theta2, phi=phi, psi=psi,
    )


def prolong_state(s: LatticeState, factor: int = 2) -> LatticeState:
    """Trigonometric interpolation of every field block onto a finer grid.

    Zero-pads the lattice Fourier spectrum; the even-N Nyquist row and
    column are split symmetrically so the interpolation kernel is real,
    which preserves anti-Hermiticity of the potentials exactly.  The torus
    volume is unchanged (spacing shrinks by the factor).  Used to warm-start
    a fine-grid solve from a coarse converged solution so that both grids
    discretize the same continuum configuration.
    """
    if factor < 1:
        raise ValueError("refinement factor must be a positive integer")
    if factor == 1:
        return s
    N, N2 = s.N, s.N * factor

    def up(field: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
        spec = np.fft.fftshift(np.fft.fft2(field, axes=axes), axes=axes)
        shape = list(field.shape)
        for ax in axes:
            shape[ax] = N2
        big = np.zeros(shape, dtype=np.complex128)
        lo = N2 // 2 - N // 2
        sl = [slice(None)] * field.ndim
        for ax in axes:
            sl[ax] = slice(lo, lo + N)
        big[tuple(sl)] = spec
        for ax in axes:
            src = [slice(None)] * field.ndim
            dst = [slice(None)] * field.ndim
            src[ax] = slice(lo, lo + 1)
            dst[ax] = slice(lo + N, lo + N + 1)
            big[tuple(dst)] = 0.5 * big[tuple(src)]
            big[tuple(src)] *= 0.5
        out = np.fft.ifft2(np.fft.ifftshift(big, axes=axes), axes=axes)
        return out * (factor * factor)

    A1 = up(s.A1, (1, 2))
    A2 = up(s.A2, (1, 2))
    A1 = 0.5 * (A1 - _adj(A1))
    A2 = 0.5 * (A2 - _adj(A2))
    return LatticeState(
        N=N2,
        a=s.a / factor,
        A1=A1,
        A2=A2,
        theta1=up(s.theta1, (0, 1)),
        theta2=up(s.theta2, (0, 1)),
        phi=up(s.phi, (0, 1)),
        psi=up(s.psi, (0, 1)),
    )


def gauge_transform(s: LatticeState, u1: np.ndarray, u2: np.ndarray) -> LatticeState:
    """Apply the same unitary pair at every site.

    A constant transformation is an exact symmetry of the discrete
    energies; site-dependent transformations are not symmetries of a
    finite-difference discretization and are not offered.
    """
    u1d, u2d = u1.conj().T, u2.conj().T
    return replace(
        s,
        A1=u1 @ s.A1 @ u1d,
        A2=u2 @ s.A2 @ u2d,
        theta1=u1 @ s.theta1 @ u1d,
        theta2=u2 @ s.theta2 @ u2d,
        phi=u1 @ s.phi @ u2d,
        psi=u2 @ s.psi @ u1d,
    )


def check_invariants(s: LatticeState, atol: float = 1e-12) -> list[str]:
    """Report violated state invariants (anti-Hermiticity, phi-psi products)."""
    out = []
    for name, arr in (("A1", s.A1), ("A2", s.A2)):
        if float(np.max(np.abs(arr + _adj(arr)))) > atol:
            out.append(f"{name} is not anti-Hermitian")
    if float(np.max(np.abs(s.phi @ s.psi))) > atol:
        out.append("phi psi != 0")
    if float(np.max(np.abs(s.psi @ s.phi))) > atol:
        out.append("psi phi != 0")
    return out
