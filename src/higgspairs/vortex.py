"""Lattice solver for the doubly coupled vortex equations on a flat torus.

Fields live on an N x N periodic grid with spacing a (N^2 a^2 = vol):
anti-Hermitian connection potentials A1, A2 (one per bundle, one matrix per
direction per site), Higgs fields theta1, theta2 (the (1,0)-components),
and the morphisms phi (r1 x r2) and psi (r2 x r1).  Degree-0 trivial
bundles only, so potentials are global matrix fields; derivatives are
second-order central differences and curvature is F = dA + A ^ A.

Two layouts.  A ``LatticeState`` holds each block as (..., N, N, r, q),
site axes first, and so do the state constructors, ``residual_gradient``
and a field dump.  The kernels run on plane fields (..., r, q, N, N), the
matrix axes -4 and -3 and the site axes -2 and -1, so every per-site
product or difference is an operation on whole contiguous site planes;
``_turn`` views one layout as the other with one transpose, and the public
entry points take it once per block.

One coupling.  A problem is a ``LatticeState``, which carries the ranks
(phi's matrix axes) and the volume, and the coupling tau of E1: the
degree-0 condition fixes the coupling of E2 as ``tau_prime(tau, r1, r2)``.
Every entry point takes (state, tau).

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
separately (tests/test_vortex_kernels.py).  The gradient follows the same
coupling: W1 reads A1 and theta1 only through A1 + theta1 + theta1^H, so
its adjoint in both is one operator, D_z + [Z1, .] + [., theta1], which
``_coupled_gradient`` applies once to the halves W1 + W1^H and W1 - W1^H
stacked on a leading axis.

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

Bundle exchange.  Swapping the quiver's two vertices, (A1, theta1, phi,
tau) with (A2, theta2, psi, tau_prime), swaps W1, W3, W4 with W2, W5, W6,
so the E2 half of each energy, residual and gradient runs the E1 formulas
on ``_Fields.exchanged()`` (the residual fields of E1 are written once, in
``_bundle_fields``); ``exchange_bundles`` swaps a state.

One problem.  ``solve`` solves the section branch: it holds theta2 and psi
at zero and flows the FLOWS blocks A1, A2, theta1 and phi.  The mirror
branch, with theta1 and phi at zero, is the same problem on the exchanged
bundles at coupling tau_prime, so it is solved there and exchanged back.
A section on a degree-0 bundle needs a positive coupling, so phi can be
nonzero only at tau > 0 and psi only at tau_prime > 0, i.e. tau < 0: the
sign of tau picks the branch, and the CLI solves the mirror exactly when
tau < 0.  Against that sign the residual cannot drop below c^2 vol/8, c
the section's coupling.

Zero blocks.  The solver's kernels never form a term with a factor that is
zero in the data.  ``_Fields`` replaces each of theta1, theta2, phi and psi
that vanishes at every site by ``_ZERO``, the zero block: it absorbs
products, drops out of sums and passes through the derivative, norm and
preconditioner kernels, so the formulas below are written once and the
terms it touches are skipped.  In a solve theta2 and psi are zero, which
removes W5 and W6, the psi half of the moment maps and of the
intertwining, and every gradient term that carries them.  The skip rests
on the data alone: ``_Fields`` scans each block it is given as an array,
and a solve gives it the held theta2 and psi as _ZERO, which it keeps
without a scan.  A gradient block whose every term is skipped is written
as zeros, and ``residual_gradient`` returns every block as an array.
Commutators of 1x1 blocks are zero, since scalars commute, and ``_comm``
returns them as _ZERO without forming a product.

Preconditioning.  ``solve`` builds one ``_Preconditioner`` per solve: the
packed layout, a site plane for every entry of the FLOWS blocks, and the
kernel of every plane, 1/(m_b t + c_b omega^2) for block b, the diagonal
of the Fourier symbol of the Gauss-Newton Hessian J*J at a constant
vacuum (VACUUM_SYMBOL, derived in the class docstring).  When the
problem has that vacuum (_has_vacuum), it applies the exact inverse of
J*J mode by mode instead (gauss_newton.GaussNewtonSymbol).  Both read
the stencil's symbol, _difference_symbol.  The solver's loop runs on
packed vectors in that layout, one complex array each for the
state, the gradient, the preconditioned gradient and the direction, so
an inner product, the conjugate-gradient update or a step is one array
operation.  The packed vector's planes are the kernels' own memory:
``unpack`` views each block as its plane field by a reshape, so the
start is packed once, through the plane views of its public blocks, the
fields along the way are built on views of the packed state, and the
final state views its planes as public blocks.  Each iteration writes
the gradient blocks straight into the slots of a fresh packed vector
and transforms them together, one forward and one inverse 1-D transform
per site axis.  The line step evaluates its two probes in one call, on
blocks that carry a leading probe axis: every kernel works per site, on
the matrix axes -4 and -3 and the site axes -2 and -1, and broadcasts
over leading axes, so each probe's fields are bit for bit those it would
have alone.  It flattens the residual fields of the start and of the two
probes once, forms each coefficient of the quartic with one reduction,
and takes the real roots of its cubic derivative in closed form.  Every
such reduction is ``_real_dot``, which does not call BLAS, so a solve is
the same at every BLAS thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# Weight of the moment-map deviation terms in ymh_energy.  Module-level so
# the self-test's mutation probe can tamper with it and watch the
# decomposition identity fail.
DEVIATION_WEIGHT = 0.25

MIN_GRID = 4

BLOCKS = ("A1", "A2", "theta1", "theta2", "phi", "psi")
# The blocks solve flows, in BLOCKS order; it holds the others, theta2 and
# psi, at zero.
FLOWS = ("A1", "A2", "theta1", "phi")
HELD = tuple(name for name in BLOCKS if name not in FLOWS)


def tau_prime(tau: float, r1: int, r2: int) -> float:
    """The coupling of E2 that the degree-0 lattice leaves for coupling tau
    of E1 and ranks (r1, r2).

    The trace of the two vortex equations integrates to tau r1 + tau' r2 =
    (4 pi / vol)(d1 + d2).  The lattice holds degree-0 trivial bundles
    only, whose curvature traces sum to zero on the periodic grid, so
    tau' = -tau r1 / r2; any other value would leave a residual that no
    state can remove.
    """
    # 0.0 - tau r1 rather than -tau r1: tau = 0 gives +0.0, not -0.0.
    return (0.0 - tau * r1) / r2


def _block_shapes(N: int, r1: int, r2: int) -> dict[str, tuple[int, ...]]:
    """The shape of each block, in BLOCKS order: the potentials are
    direction-major, and phi maps E2 to E1 and psi back."""
    return {
        "A1": (2, N, N, r1, r1),
        "A2": (2, N, N, r2, r2),
        "theta1": (N, N, r1, r1),
        "theta2": (N, N, r2, r2),
        "phi": (N, N, r1, r2),
        "psi": (N, N, r2, r1),
    }


@dataclass(frozen=True)
class LatticeState:
    """Field configuration on the periodic grid.

    Every block is complex128 with the shape ``_block_shapes`` gives; the
    potentials A1, A2 are anti-Hermitian.
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
        if not 0 < self.a < math.inf:
            raise ValueError(f"spacing must be finite and positive, got {self.a}")
        if self.phi.ndim != 4:
            # The ranks are read off phi's last two axes.
            want = f"({self.N}, {self.N}, r1, r2)"
            raise ValueError(f"phi has shape {self.phi.shape}, expected {want}")
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError(f"ranks must be positive, got ({self.r1}, {self.r2})")
        for name, want in _block_shapes(self.N, self.r1, self.r2).items():
            arr = getattr(self, name)
            if arr.shape != want:
                raise ValueError(f"{name} has shape {arr.shape}, expected {want}")
            if arr.dtype != np.complex128:
                raise ValueError(f"{name} must be complex128, got {arr.dtype}")

    @property
    def r1(self) -> int:
        return self.phi.shape[-2]

    @property
    def r2(self) -> int:
        return self.phi.shape[-1]

    @property
    def vol(self) -> float:
        return self.N * self.N * self.a * self.a


class _ZeroBlock:
    """The field block that is zero at every site.

    It absorbs products and drops out of sums, so an expression of fields
    skips every term that has it as a factor.  ``__array_ufunc__ = None``
    makes numpy's operators defer to these methods.
    """

    __array_ufunc__ = None

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __sub__(self, other):
        return -other

    def __rsub__(self, other):
        return other

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        return self


_ZERO = _ZeroBlock()


def _block(m: np.ndarray):
    """m, or _ZERO when m is _ZERO or vanishes at every site."""
    return _ZERO if m is _ZERO or not m.any() else m


def _turn(m: np.ndarray) -> np.ndarray:
    """m with its two pairs of last axes exchanged, as a view: a public
    block (..., N, N, r, q) as the kernels' planes (..., r, q, N, N), and
    planes back as a public block."""
    return m.transpose(*range(m.ndim - 4), -2, -1, -4, -3)


@functools.cache
def _identity(r: int) -> np.ndarray:
    """The r x r identity as a plane field of one site, shape (r, r, 1, 1),
    one read-only array per rank."""
    eye = np.eye(r).reshape(r, r, 1, 1)
    eye.flags.writeable = False
    return eye


def _adj(m: np.ndarray) -> np.ndarray:
    """The per-site adjoint of a plane field."""
    if m is _ZERO:
        return _ZERO
    # The array methods, not np.swapaxes and np.conj: the same values
    # without numpy's Python-level dispatch, on a hot path.
    return m.swapaxes(-4, -3).conj()


def _public_adj(m: np.ndarray) -> np.ndarray:
    """The per-site adjoint of a public block (..., N, N, r, q)."""
    return m.swapaxes(-1, -2).conj()


@functools.cache
def _entry(j: int) -> tuple[tuple, tuple]:
    """The index tuples of column j and of row j of a plane field, with
    their axis kept.  Built once per j: a slice is not a constant, and
    building them inline cost each _mm call about 0.5 us (4.4 against 5.0
    us at (2, 2, 8, 8))."""
    return (
        (Ellipsis, slice(None), slice(j, j + 1), slice(None), slice(None)),
        (Ellipsis, slice(j, j + 1), slice(None), slice(None), slice(None)),
    )


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-site matrix product x @ y of (..., p, q, N, N) and (..., q, r,
    N, N) plane fields.

    Summed as q broadcast multiply-adds over the inner index, each over
    whole site planes: matmul makes one BLAS call per site, which costs
    several times more on blocks this small.
    """
    column, row = _entry(0)
    out = x[column] * y[row]
    for j in range(1, x.shape[-3]):
        column, row = _entry(j)
        out += x[column] * y[row]
    return out


def _prod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y per site; _ZERO, without a product, when a factor is _ZERO."""
    return _ZERO if x is _ZERO or y is _ZERO else _mm(x, y)


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] per site of two square fields of one rank; _ZERO when a factor
    is _ZERO or the blocks are 1x1.

    1x1 blocks are scalars, which commute: their commutator is _ZERO,
    formed without a product (the subtraction would only leave rounding
    noise), so the terms that carry it are skipped too.
    """
    if x is _ZERO or y is _ZERO or x.shape[-3] == 1:
        return _ZERO
    return _mm(x, y) - _mm(y, x)


# The index tuples of _stencil, built once: a slice is not a constant in
# Python 3.11, so building them inline cost each call about 1 us.  Per
# differentiated axis (-2, -1): its last entry, its first, the entries
# from the third on and all but the last two, each with the axes after it.
_WRAP = {
    axis: tuple((Ellipsis, part) + (slice(None),) * (-axis - 1)
                for part in (slice(-1, None), slice(None, 1), slice(2, None), slice(None, -2)))
    for axis in (-2, -1)
}


def _stencil(m: np.ndarray, n: np.ndarray, a: float, sign: float) -> np.ndarray:
    """(d1 m + sign i d2 n) / 2 by central differences on the periodic grid.

    d1 and d2 differentiate along the site axes -2 and -1, so the fields
    may carry matrix and leading axes (the solver's two line probes); each
    takes its differences from one copy of the field wrapped by a row
    (column) at either end, in one subtraction.
    """
    last, first, ahead, behind = _WRAP[-2]
    wrapped = np.concatenate((m[last], m, m[first]), axis=-2)
    d1 = wrapped[ahead] - wrapped[behind]
    last, first, ahead, behind = _WRAP[-1]
    wrapped = np.concatenate((n[last], n, n[first]), axis=-1)
    d2 = wrapped[ahead] - wrapped[behind]
    d2 *= sign * 1j
    d1 += d2
    d1 *= 0.25 / a
    return d1


def _difference_symbol(k: np.ndarray, N: int) -> np.ndarray:
    """sigma(k) = sin(2 pi k/N), the symbol of _stencil along a site axis of
    the N-grid: (m[j+1] - m[j-1])/2 maps the wave e^{2 pi i k j/N} to
    i sigma(k) times it, so D_z and D_zbar map the wave of indices (k1, k2)
    to i (sigma(k1) -/+ i sigma(k2)) / (2a) times it."""
    return np.sin(2.0 * np.pi * k / N)


def _dz(m: np.ndarray, a: float) -> np.ndarray:
    return _ZERO if m is _ZERO else _stencil(m, m, a, -1.0)


def _dzbar(m: np.ndarray, a: float) -> np.ndarray:
    return _ZERO if m is _ZERO else _stencil(m, m, a, 1.0)


def _zpot(A: np.ndarray) -> np.ndarray:
    """A_z = (A_1 - i A_2)/2 from the per-direction potentials, whose
    direction is axis -5, before the last four (the site and matrix axes,
    in either order)."""
    return 0.5 * (A[..., 0, :, :, :, :] - 1j * A[..., 1, :, :, :, :])


def _frob2(m: np.ndarray) -> float:
    return 0.0 if m is _ZERO else float(np.sum(np.abs(m) ** 2))


def _site_frob2(m: np.ndarray) -> np.ndarray:
    """Per-site squared Frobenius norm of a plane field (a scalar 0.0 for
    _ZERO)."""
    return 0.0 if m is _ZERO else np.sum(np.abs(m) ** 2, axis=(-4, -3))


class _Fields:
    """Shared derived quantities for one state (plain helper, no caching),
    from its blocks as plane fields (..., r, q, N, N) at spacing a.

    theta1, theta2, phi and psi are _ZERO where they vanish at every site
    or are given as _ZERO (a solve's held theta2 and psi); the connections
    are always arrays.
    """

    def __init__(self, a: float, blocks: dict[str, np.ndarray]) -> None:
        self.a = a
        self.k = a * a
        self.Z1 = _zpot(blocks["A1"])
        self.Z2 = _zpot(blocks["A2"])
        self.Z1b = -_adj(self.Z1)
        self.Z2b = -_adj(self.Z2)
        self.t1 = _block(blocks["theta1"])
        self.t2 = _block(blocks["theta2"])
        self.t1d = _adj(self.t1)
        self.t2d = _adj(self.t2)
        self.phi = _block(blocks["phi"])
        self.psi = _block(blocks["psi"])

    @classmethod
    def of(cls, s: LatticeState) -> _Fields:
        """The fields of a public state, each block viewed as planes."""
        return cls(s.a, {name: _turn(getattr(s, name)) for name in BLOCKS})

    def exchanged(self) -> _Fields:
        """These fields with the bundles exchanged; every array is shared, none recomputed."""
        e = _Fields.__new__(_Fields)
        e.a, e.k, e.phi, e.psi = self.a, self.k, self.psi, self.phi
        e.Z1, e.Z2, e.Z1b, e.Z2b = self.Z2, self.Z1, self.Z2b, self.Z1b
        e.t1, e.t2, e.t1d, e.t2d = self.t2, self.t1, self.t2d, self.t1d
        return e

    def curvature(self) -> np.ndarray:
        """F_z_zbar of the Higgs-coupled connection of E1, the derivative part
        in one stencil pass on (Zb - Z, Zb + Z) by linearity.  Z and Zb go
        before the stencil runs, which in a solve's stacked line probes is
        where the traced peak sits."""
        Z, Zb = self.Z1 + self.t1, self.Z1b + self.t1d
        comm, minus, plus = _comm(Z, Zb), Zb - Z, Zb + Z
        del Z, Zb
        return _stencil(minus, plus, self.a, -1.0) + comm

    def dz_phi(self) -> np.ndarray:
        return _dz(self.phi, self.a) + _prod(self.Z1, self.phi) - _prod(self.phi, self.Z2)

    def dzbar_phi(self) -> np.ndarray:
        return _dzbar(self.phi, self.a) + _prod(self.Z1b, self.phi) - _prod(self.phi, self.Z2b)

    def x_phi(self) -> np.ndarray:
        return _prod(self.t1, self.phi) - _prod(self.phi, self.t2)

    def y_phi(self) -> np.ndarray:
        return _prod(self.t1d, self.phi) - _prod(self.phi, self.t2d)

    def moment1(self) -> np.ndarray:
        return _prod(self.phi, _adj(self.phi)) - _prod(_adj(self.psi), self.psi)


def ymh_energy(s: LatticeState, tau: float) -> float:
    """Yang-Mills-Higgs energy: curvature, kinetic and deviation terms.

    Uses the Higgs-coupled connections A + theta + theta^dagger per bundle;
    the curvature term is 4|F|^2 per site, the kinetic terms are
    2(|D_z .|^2 + |D_zbar .|^2), the deviations are weighted by
    DEVIATION_WEIGHT (1/4).
    """
    f = _Fields.of(s)
    e = f.exchanged()
    h1 = f.curvature()
    h2 = e.curvature()
    curv = 4.0 * (_frob2(h1) + _frob2(h2))
    # Per-site identities, so a _ZERO moment map still leaves a site field.
    eye1 = np.broadcast_to(_identity(s.r1), h1.shape)
    eye2 = np.broadcast_to(_identity(s.r2), h2.shape)

    kin_phi, kin_psi = (
        2.0 * (_frob2(g.dz_phi() + g.x_phi()) + _frob2(g.dzbar_phi() + g.y_phi())) for g in (f, e)
    )

    dev1 = _frob2(f.moment1() - tau * eye1)
    dev2 = _frob2(e.moment1() - tau_prime(tau, s.r1, s.r2) * eye2)

    return f.k * (curv + kin_phi + kin_psi + DEVIATION_WEIGHT * (dev1 + dev2))


def _bundle_fields(f: _Fields, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual fields of E1 at coupling tau: its vortex equation (2
    F_z_zbar of the Higgs-coupled connection appears as i Lambda R), and
    twice the holomorphicity and intertwining defects of phi."""
    return (
        2.0 * f.curvature() + 0.5 * f.moment1() - 0.5 * tau * _identity(f.Z1.shape[-3]),
        2.0 * f.dzbar_phi(),
        2.0 * f.x_phi(),
    )


def _residual_fields(f: _Fields, tau: float) -> dict[str, np.ndarray]:
    """The six residual fields of the state f was built from; their squared
    norms sum to residual_energy.

    W1, W3, W4 are E1's (_bundle_fields at tau); W2, W5, W6 are the same
    fields of the exchanged bundles at tau_prime.  A field whose every term
    has a zero factor is _ZERO.
    """
    w1, w3, w4 = _bundle_fields(f, tau)
    w2, w5, w6 = _bundle_fields(f.exchanged(), tau_prime(tau, f.Z1.shape[-3], f.Z2.shape[-3]))
    return {"W1": w1, "W2": w2, "W3": w3, "W4": w4, "W5": w5, "W6": w6}


def _energy(s: LatticeState, w: dict[str, np.ndarray]) -> float:
    return s.a * s.a * sum(_frob2(v) for v in w.values())


def residual_energy(s: LatticeState, tau: float) -> float:
    """Squared residual of the two vortex equations plus holomorphicity terms.

    Zero exactly at discrete solutions of the coupled equations together
    with D_zbar phi = 0, theta-intertwining of phi, and the psi mirrors.
    """
    return _energy(s, _residual_fields(_Fields.of(s), tau))


def residual_breakdown(s: LatticeState, tau: float) -> dict[str, float]:
    """Named parts of residual_energy plus pointwise diagnostics."""
    return _breakdown(s, _residual_fields(_Fields.of(s), tau))


def _breakdown(s: LatticeState, w: dict[str, np.ndarray]) -> dict[str, float]:
    """residual_breakdown of s given its residual fields w."""
    k = s.a * s.a

    def site_max(m: np.ndarray) -> float:
        return float(np.max(np.sqrt(_site_frob2(m))))

    return {
        "eq1": k * _frob2(w["W1"]),
        "eq2": k * _frob2(w["W2"]),
        "holomorphicity": k * (_frob2(w["W3"]) + _frob2(w["W5"])),
        "intertwining": k * (_frob2(w["W4"]) + _frob2(w["W6"])),
        "eq1_max": site_max(w["W1"]),
        "eq2_max": site_max(w["W2"]),
        # phi's intertwining defect is W4 and psi's is W6; a state on either
        # branch holds one of them at zero, so both are read.
        "theta_s_sup": 0.5 * float(np.maximum(site_max(w["W4"]), site_max(w["W6"]))),
    }


def decomposition_check(s: LatticeState, tau: float) -> float:
    """Relative gap |ymh - residual| / (1 + ymh); topological terms are zero
    for degree-0 trivial bundles, so this must vanish to rounding."""
    y = ymh_energy(s, tau)
    r = residual_energy(s, tau)
    return abs(y - r) / (1.0 + y)


def moment_map_value(s: LatticeState) -> float:
    """Squared L2 norm of the Higgs fields (the circle-action moment map)."""
    return s.a * s.a * (_frob2(s.theta1) + _frob2(s.theta2))


# -- gradient ----------------------------------------------------------


def residual_gradient(s: LatticeState, tau: float) -> dict[str, np.ndarray]:
    """Gradient of residual_energy in the convention dE = 2 Re sum tr(g^H dq).

    Every block is returned as an array.  A-blocks are anti-Hermitian
    per-direction stacks (the projection of the unconstrained gradient onto
    the constraint manifold).
    """
    f = _Fields.of(s)
    out = {name: np.empty(_turn(getattr(s, name)).shape, dtype=np.complex128) for name in BLOCKS}
    _gradient(f, _residual_fields(f, tau), out)
    return {name: _turn(g) for name, g in out.items()}


# The signs of W1 + W1^H and W1 - W1^H, stacked on a leading axis.
_HALVES = np.array([1.0, -1.0]).reshape(2, 1, 1, 1, 1)


def _coupled_gradient(
    f: _Fields,
    w1: np.ndarray,
    w3: np.ndarray,
    w4: np.ndarray,
    w5: np.ndarray,
    w6: np.ndarray,
    potential: np.ndarray,
    higgs: Optional[np.ndarray],
) -> np.ndarray:
    """Write the A1 block into potential and the theta1 block into higgs
    (None: not formed); return W1 + W1^H.

    W1 reads A_z and theta1 only through the Higgs-coupled connection, so
    the adjoint of W1 is one operator, D_z + [Z1, .] + [., theta1], applied
    to the halves W1 + W1^H (for A_z) and W1 - W1^H (for theta1), stacked
    on a leading axis, with the theta1 commutator crossing over.  Only the
    first half is formed when theta1 is zero and its block is not wanted.
    With g the z-part of the A1 gradient, the A1 block is m - m^H for m =
    g/4 and i g/4 in the two directions: (g - g^H)/4 and i(g + g^H)/4.
    Each block takes its scale a^2 times a power of two once, as it is
    written; a power of two commutes with rounding, so every sum rounds as
    with the factor 2 in each term.
    """
    pair = higgs is not None or f.t1 is not _ZERO
    halves = w1 + (_HALVES if pair else _HALVES[:1]) * _adj(w1)
    g = _dz(halves, f.a) + _comm(f.Z1, halves)
    cross = _comm(halves, f.t1)
    if cross is not _ZERO:
        g += cross[::-1]
    z = g[0] - _prod(f.phi, _adj(w3)) + _prod(_adj(w5), f.psi)
    np.multiply(z, 0.5 * f.k, out=potential[0])
    np.multiply(potential[0], 1j, out=potential[1])
    potential -= _adj(potential)
    if higgs is not None:
        np.multiply(g[1] + _prod(w4, _adj(f.phi)) - _prod(_adj(f.psi), w6), 2.0 * f.k, out=higgs)
    return halves[0]


def _section_gradient(
    f: _Fields, w1h: np.ndarray, w2h: np.ndarray, w3: np.ndarray, w4: np.ndarray, out: np.ndarray
) -> None:
    """Write the phi block into out, given W1 + W1^H and W2 + W2^H.

    The factor 2 of all but the moment-map terms goes into the final
    scale, as in _coupled_gradient.
    """
    total = (
        0.25 * (_prod(w1h, f.phi) - _prod(f.phi, w2h))
        - _dz(w3, f.a)
        - _prod(f.Z1, w3)
        + _prod(w3, f.Z2)
        + _prod(f.t1d, w4)
        - _prod(w4, f.t2d)
    )
    if total is _ZERO:
        out[...] = 0.0
    else:
        np.multiply(total, 2.0 * f.k, out=out)


def _gradient(f: _Fields, w: dict[str, np.ndarray], out: dict[str, np.ndarray]) -> None:
    """Write the blocks of residual_gradient named in out, as plane fields,
    into their arrays there, at the state f was built from, given its
    residual fields w; out holds both potentials and may leave out the
    other blocks, which are then not formed.

    The formulas above give the A1, theta1 and phi blocks; on the exchanged
    fields, with W2, W5, W6 for W1, W3, W4, the A2, theta2 and psi blocks.
    A block whose every term has a zero factor is written as zeros.
    """
    e = f.exchanged()
    w3, w4, w5, w6 = w["W3"], w["W4"], w["W5"], w["W6"]
    w1h = _coupled_gradient(f, w["W1"], w3, w4, w5, w6, out["A1"], out.get("theta1"))
    w2h = _coupled_gradient(e, w["W2"], w5, w6, w3, w4, out["A2"], out.get("theta2"))
    if "phi" in out:
        _section_gradient(f, w1h, w2h, w3, w4, out["phi"])
    if "psi" in out:
        _section_gradient(e, w2h, w1h, w5, w6, out["psi"])


def _real_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re sum conj(x) y over two complex arrays of one size, as the real dot
    product of their float64 views.

    einsum sums without BLAS, whose threaded reductions (np.vdot) split a
    long vector by the thread count and so move the last digits with it;
    this sum, and every solve built on it, is the same at any thread count.
    """
    return np.einsum("i,i", x.reshape(-1).view(np.float64), y.reshape(-1).view(np.float64))


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """The real metric 2 Re sum tr(x^H y) of the gradient convention, on two
    packed vectors."""
    return 2.0 * _real_dot(x, y)


def _derived(s: LatticeState, blocks: dict[str, np.ndarray]) -> LatticeState:
    """s with some blocks replaced, built without LatticeState's checks.

    Only for the solver's own states, whose blocks are views of packed
    vectors laid out from a checked state, so every shape and dtype holds
    by construction.
    """
    out = object.__new__(LatticeState)
    vars(out).update(vars(s))
    vars(out).update(blocks)
    return out


# The Fourier symbol of J*J at the vacuum per FLOWS block, as (mass,
# stiffness): the preconditioner's kernel is 1/(mass t + stiffness omega^2).
VACUUM_SYMBOL = {"A1": (1.0, 0.5), "A2": (1.0, 0.5), "theta1": (4.0, 2.0), "phi": (1.0, 1.0)}
# The least t of that kernel, which keeps it finite at tau = 0.  Eight cold
# rank-1 solves at tau = 0 (N = 8..64, vol 0.25..16, starts with |phi|^2
# near 1) took 15-24 iterations at 0.1; at 1e-2 one of them missed tol in
# 1000 and another took 220, and at 1 they took 27-169.
MASS_FLOOR = 0.1


def _block_kernel(name: str, tau: float, omega2: np.ndarray) -> np.ndarray:
    """The kernel 1/(m t + c omega^2) of FLOWS block name, with (m, c) from
    VACUUM_SYMBOL and t = |tau| floored at MASS_FLOOR."""
    mass, stiffness = VACUUM_SYMBOL[name]
    return 1.0 / (mass * max(abs(tau), MASS_FLOOR) + stiffness * omega2)


class _Preconditioner:
    """Approximate inverse Hessian of the solve: the packed layout, one
    Fourier kernel per FLOWS block, and at a vacuum the exact Gauss-Newton
    symbol.

    Near a solution the Hessian of residual_energy is a^2 J*J, with J the
    linear part of the residual fields.  At the constant vacuum of the
    solved problem (A = theta = 0, phi phi^H = tau) J*J is translation
    invariant, so Fourier modes decouple.  The central difference has the
    symbol i sigma(k)/a along each axis, sigma = _difference_symbol, so
    D_z and D_zbar both have |symbol|^2 = omega^2/4, omega^2 = (sigma(k1)^2
    + sigma(k2)^2)/a^2.  The diagonal of J*J then gives, for a plane wave
    in one matrix entry of a block:

    * theta1: W4 = 2 theta1 phi gives 4 tau, and the curvature part
      2(D_z theta1^H - D_zbar theta1) of W1 gives 2 omega^2;
    * phi: W3 = 2 D_zbar phi gives omega^2, and the moment maps
      (dphi phi^H + phi dphi^H)/2 in W1 and W2 give tau at k != 0 (at
      k = 0, 2 tau along phi and 0 along i phi, a gauge direction);
    * A1, A2: W3 = 2(Zb1 phi - phi Zb2) gives tau, and the curvature in W1
      (W2) is the lattice curl, omega^2 on transverse waves and 0 on
      longitudinal ones, the gauge directions; the kernel takes the
      polarization average tau + omega^2/2.

    So block b gets the kernel 1/(m_b t + c_b omega^2), with (m_b, c_b)
    from VACUUM_SYMBOL and t = |tau| (tests/test_vortex_kernels.py checks
    the symbol against Rayleigh quotients of J); ``blockwise`` applies it.
    The factor a^2 and the overall scale drop out of the directions and
    the exact line step.  J reads phi only through these products, so at
    a constant state with |phi|^2 = x the symbol is the same with t = x.
    At tau = 0 the vacuum is phi = 0 and has no mass, and the kernel would
    be infinite at omega^2 = 0 (the constant mode and the doublers); a
    solve there carries x from its start down to 0, and t is floored at
    MASS_FLOOR, an x that such a solve passes through.  Each kernel is
    real and even, hence a real symmetric convolution: it preserves
    anti-Hermiticity of the A blocks and commutes with constant gauge
    rotations.

    The diagonal misses the off-diagonal terms of J*J (W3 couples A1 - A2
    with i phi, the moment maps couple phi with the curl of the
    potentials), so a cold rank-1 solve at N = 16 took 43 iterations.
    With a constant vacuum (_has_vacuum) a call applies ``symbol``, a
    gauss_newton.GaussNewtonSymbol, instead: per mode and coupling group,
    the exact (J*J)^+ at phi0 = sqrt(tau) I on the directions J sees, and
    this kernel, projected, on its null space (the gauge directions, and
    at tau = 0 what only the mass would see); that solve takes 5.  Its
    matrices read sigma at their classes of modes, this kernel at k = 0..N-1.
    There, 0.3 tau I stalls every tau = 0 solve, and 0.3 times the kernel
    took 10, 10 and 57 iterations at tau = 0 against 8, 7 and 31 (N = 16,
    32, 16; seeds 7, 7, 3).  Without a vacuum there is no constant state
    to linearize at, and a call is ``blockwise``.

    ``solve`` builds one per solve, and it fixes the solver's packed
    layout: a packed vector is one complex array of shape (planes, N, N),
    a site plane for every matrix entry (and direction) of the FLOWS
    blocks, each block in its own fixed slot.  ``pack`` copies plane
    fields (a solve's start) into a fresh packed vector, ``_gradient``
    writes a gradient straight into the slots of one, and ``unpack`` views
    a packed vector, on any grid, as plane fields by a reshape, with no
    transpose: a slot holds its block's entries in order, each a site
    plane, which is the kernels' layout.  ``blockwise`` transforms all
    planes of a packed gradient with one 1-D transform pair per site axis,
    the last axis first, which is the order fft2 and ifft2 use, so every
    block equals theirs bit for bit.  The first transform writes a fresh
    array and the others work in it in place, so what a call returns is
    new and is not touched again.
    """

    def __init__(self, s: LatticeState, tau: float) -> None:
        # Per block: its name, its slot and the shape of its entries
        # (leading axes, matrix axes), whose planes the slot holds in order.
        self.layout: list[tuple[str, slice, tuple[int, ...]]] = []
        used = 0
        for name in FLOWS:
            shape = getattr(s, name).shape
            entries = shape[:-4] + shape[-2:]
            n = math.prod(entries)
            self.layout.append((name, slice(used, used + n), entries))
            used += n
        self.shape = (used, s.N, s.N)
        self.grid = (s.a, tau)
        self.symbol = None
        if _has_vacuum(s, tau):
            from higgspairs.gauss_newton import GaussNewtonSymbol

            self.symbol = GaussNewtonSymbol(self, s, tau)

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """The kernel of every plane, built on the first ``blockwise``
        call: a solve with a vacuum never makes one."""
        N = self.shape[-1]
        a, tau = self.grid
        sin2 = _difference_symbol(np.arange(N), N) ** 2
        omega2 = (sin2[:, None] + sin2[None, :]) / (a * a)
        return np.concatenate([
            np.broadcast_to(_block_kernel(name, tau, omega2), (slot.stop - slot.start, N, N))
            for name, slot, _ in self.layout
        ])

    def unpack(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """The FLOWS blocks of the packed vector x as plane fields, views of
        it by a reshape alone.  Axes of x before its (planes, N, N) lead
        every block: the solver's two line probes are one array of shape
        (2, planes, N, N).  With x contiguous, each block is C-contiguous
        at every index of those axes."""
        batch = x.shape[:-3]
        return {
            name: x[..., slot, :, :].reshape(batch + entries + x.shape[-2:])
            for name, slot, entries in self.layout
        }

    def pack(self, blocks: dict[str, np.ndarray]) -> np.ndarray:
        """A fresh packed vector holding the FLOWS blocks of blocks, plane
        fields; a public block goes in through its planes view, _turn."""
        x = np.empty(self.shape, dtype=np.complex128)
        for name, view in self.unpack(x).items():
            view[...] = blocks[name]
        return x

    def blockwise(self, g: np.ndarray) -> np.ndarray:
        """g with every plane convolved with its block's kernel."""
        w = np.fft.fft(g, axis=-1)
        np.fft.fft(w, axis=-2, out=w)
        w *= self.kernel
        np.fft.ifft(w, axis=-1, out=w)
        np.fft.ifft(w, axis=-2, out=w)
        return w

    def __call__(self, g: np.ndarray) -> np.ndarray:
        return self.blockwise(g) if self.symbol is None else self.symbol(g)


def _has_vacuum(s: LatticeState, tau: float) -> bool:
    """The problem of s at coupling tau has the constant solution A = theta
    = 0, phi = sqrt(tau) I: phi phi^H = tau and phi^H phi = -tau_prime =
    tau r1 / r2 hold together only for s's ranks equal, with tau >= 0."""
    return s.r1 == s.r2 and tau >= 0


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """The real roots of a t^2 + b t + c, without cancellation."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def _cubic_closed_form(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a t^3 + b t^2 + c t + d, a and d nonzero, in closed form.

    The monic cubic is scaled so its largest root is O(1) and shifted to
    y^3 + P y + Q.  With three real roots the trigonometric form gives
    them, and the largest deflates the cubic to a quadratic (backward,
    which is stable for the largest root) for the other two, so a small
    root does not cancel against the shift.  With one, it is Cardano's
    u - P/(3u), u the cube root of the larger magnitude; it is accurate
    when it is the largest root.
    """
    A, B, C = b / a, c / a, d / a
    if not (math.isfinite(A) and math.isfinite(B) and math.isfinite(C)):
        # So small a leading coefficient leaves its huge root beyond a
        # float: the others are the quadratic's.
        return _quadratic_roots(b, c, d)
    scale = max(abs(A), math.sqrt(abs(B)), math.cbrt(abs(C)))
    if scale == 0.0:
        return [0.0]
    A, B, C = A / scale, B / scale / scale, C / scale / scale / scale
    P = B - A * A / 3.0
    Q = A * (2.0 * A * A - 9.0 * B) / 27.0 + C
    disc = 0.25 * Q * Q + P * P * P / 27.0
    if disc >= 0.0:
        u = math.cbrt(-0.5 * Q - math.copysign(math.sqrt(disc), Q))
        y = u - P / (3.0 * u) if u != 0.0 else 0.0
        return [scale * (y - A / 3.0)]
    m = 2.0 * math.sqrt(-P / 3.0)
    angle = math.acos(max(-1.0, min(1.0, 3.0 * Q / (P * m)))) / 3.0
    big = max((m * math.cos(angle - 2.0 * math.pi * k / 3.0) - A / 3.0 for k in range(3)), key=abs)
    rest = -C / big
    return [scale * y for y in [big] + _quadratic_roots(1.0, (rest - B) / big, rest)]


def _cubic_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """The real roots of a t^3 + b t^2 + c t + d, each polished by one
    Newton step; a double root may be missing, and a root may appear twice.

    When the closed form finds one real root it also takes it from the
    reversed cubic d s^3 + c s^2 + b s + a, whose roots are 1/t: the one
    of the two in which the root is the largest gets it to full precision.
    """
    if a == 0.0:
        roots = _quadratic_roots(b, c, d)
    elif d == 0.0:
        roots = [0.0] + _quadratic_roots(a, b, c)
    else:
        roots = _cubic_closed_form(a, b, c, d)
        if len(roots) == 1:
            roots += [1.0 / s for s in _cubic_closed_form(d, c, b, a) if s != 0.0]
    polished = []
    for t in roots:
        f = ((a * t + b) * t + c) * t + d
        slope = (3.0 * a * t + 2.0 * b) * t + c
        if slope != 0.0:
            u = t - f / slope
            if abs(((a * u + b) * u + c) * u + d) < abs(f):
                t = u
        polished.append(t)
    return polished


def _line_minimum(c1: float, c2: float, c3: float, c4: float) -> float:
    """The t > 0 where c1 t + c2 t^2 + c3 t^3 + c4 t^4 is lowest among the
    real roots of its derivative, or 0.0 when none is below 0."""
    best, drop = 0.0, 0.0
    for t in _cubic_roots(4.0 * c4, 3.0 * c3, 2.0 * c2, c1):
        if t > 0.0:
            d = t * (c1 + t * (c2 + t * (c3 + t * c4)))
            if d < drop:
                best, drop = t, d
    return best


def _flat(w: dict[str, np.ndarray], sizes: dict[str, int], rows: int) -> np.ndarray:
    """The residual fields named in sizes end to end, _ZERO ones as zeros,
    in one row per entry of their leading axis of length rows (1 for the
    fields of one state, 2 for the stacked line probes)."""
    return np.concatenate(
        [np.zeros((rows, n), dtype=np.complex128) if w[k] is _ZERO else w[k].reshape(rows, n)
         for k, n in sizes.items()],
        axis=1,
    )


def _exact_step(w0: dict[str, np.ndarray], probes: dict[str, np.ndarray], h: float) -> float:
    """The step eta > 0 minimizing the residual energy along a line, from
    its residual fields w0 at eta = 0 and probes, those at eta = -h and
    eta = +h stacked on a leading axis of length 2 (one _residual_fields
    call on a state that holds both probes).

    Every residual field is at most quadratic in the fields, so along the
    line W(eta) = W0 - eta B + eta^2 C exactly and the energy is a quartic
    in eta.  The fields at eta = -/+ h give hB and h^2 C, so the quartic
    is written in t = eta/h: with h near the step, the linear term stays
    clear of the rounding of the probes.  The fields of the start are
    flattened once into one vector, and those of the probes into one row
    per probe, in the same order, so each quartic coefficient is one
    reduction; only fields that are _ZERO at the start and in both probes
    are left out, and they add nothing.  The quartic is evaluated at every
    real root of its cubic derivative (_cubic_roots) and the lowest value
    wins.  Returns 0.0 when no root lowers the energy and nan when a
    coefficient is not finite.
    """
    sizes = {}
    for k, v0 in w0.items():
        if v0 is not _ZERO:
            sizes[k] = v0.size
        elif probes[k] is not _ZERO:
            sizes[k] = probes[k].size // 2
    v0 = _flat(w0, sizes, 1)[0]
    pm = _flat(probes, sizes, 2)
    # The probes' fields go as soon as their flat copy exists.
    del probes
    # hb = (p - m) / 2, and h2c = (p + m) / 2 - v0 in p's place.
    hb = pm[0] - pm[1]
    hb *= 0.5
    h2c = pm[0]
    h2c += pm[1]
    del pm
    h2c *= 0.5
    h2c -= v0
    c1 = -2.0 * _real_dot(v0, hb)
    c2 = _real_dot(hb, hb) + 2.0 * _real_dot(v0, h2c)
    c3 = -2.0 * _real_dot(hb, h2c)
    c4 = _real_dot(h2c, h2c)
    if not math.isfinite(c1 + c2 + c3 + c4):
        return math.nan
    return h * _line_minimum(float(c1), float(c2), float(c3), float(c4))


_ZERO_GRAD = 1e-30


@dataclass
class SolveResult:
    """What a solve leaves: its final state, the energy at the start and
    after each accepted step, why it stopped and the residual_breakdown of
    the final state."""

    state: LatticeState
    energy_history: list[float]
    stop_reason: str
    breakdown: dict[str, float]

    @property
    def iterations(self) -> int:
        """Accepted steps: one energy per step after the start's."""
        return len(self.energy_history) - 1

    @property
    def residual(self) -> float:
        """residual_energy of the final state."""
        return self.energy_history[-1]

    @property
    def moment_map_value(self) -> float:
        """The module's moment_map_value of the final state."""
        return moment_map_value(self.state)

    @property
    def converged(self) -> bool:
        """The residual reached tol: the loop ends there and nowhere else."""
        return self.stop_reason == "converged"

    @property
    def stalled(self) -> bool:
        """The descent stopped short of tol with budget left."""
        return self.stop_reason in ("zero_gradient", "no_decrease", "non_finite")


def solve(
    s0: LatticeState,
    tau: float,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> SolveResult:
    """Minimize residual_energy by preconditioned nonlinear conjugate gradients.

    The directions are Polak-Ribiere+ conjugate gradients on the
    Fourier-preconditioned gradient, restarted along the preconditioned
    gradient whenever beta would be negative or the direction is not a
    descent direction.  Each step is the exact minimum of the quartic
    energy along its line (_exact_step), and a step is accepted only if
    the energy recomputed at the new state is lower, so the energy is
    monotone and the iteration deterministic.  One iteration evaluates the
    residual fields of three states in two calls: the two probes along the
    line, stacked in one buffer and evaluated together, and the new state,
    whose _Fields and residual fields give both its energy and its
    gradient.
    The loop runs on packed vectors in the _Preconditioner's layout: the
    flowed blocks of the state, the gradient, the preconditioned gradient
    and the direction are one complex array each, so every inner product,
    the Polak-Ribiere+ update and each step along the line is one array
    operation.  The fields along the way are built on the plane views of
    the packed state, and the final state is their public view, derived
    without re-validation; energies stay the per-block sums of
    residual_energy.
    The solve starts from s0 with theta2 and psi set to zero and flows the
    FLOWS blocks (see "One problem" above).  Converged means
    residual_energy <= tol.  stop_reason names why the solve ended:
    "converged"; "max_iter" when the budget is spent first;
    "zero_gradient" when the (preconditioned) gradient vanishes;
    "no_decrease" when the exact step or the recomputed energy does not
    lower the energy; "non_finite" when the energy, a line coefficient or
    the new energy is not finite.  The last three set stalled=True.
    """
    s = replace(s0, **{name: np.zeros_like(getattr(s0, name)) for name in HELD})
    packing = _Preconditioner(s, tau)
    # The start is packed once, through the planes views of its public
    # blocks; every state after it is the packed vector's planes.
    x = packing.pack({name: _turn(getattr(s, name)) for name in FLOWS})
    held = dict.fromkeys(HELD, _ZERO)
    f = _Fields(s.a, {**packing.unpack(x), **held})
    w = _residual_fields(f, tau)
    energy = _energy(s, w)
    history = [energy]
    step = 1.0
    stop_reason = "max_iter"
    iterations = 0
    prev: Optional[tuple[np.ndarray, float, np.ndarray]] = None
    # The probes along the line, x + h dirn and x - h dirn, share one
    # buffer with a leading probe axis and the blocks that view it.
    probe = np.empty((2,) + x.shape, dtype=np.complex128)
    probe_blocks = {**packing.unpack(probe), **held}
    # "not energy <= tol" lets a NaN energy into the loop, where it stops.
    while iterations < max_iter and not energy <= tol:
        if not math.isfinite(energy):
            stop_reason = "non_finite"
            break
        grad = np.empty(packing.shape, dtype=np.complex128)
        _gradient(f, w, packing.unpack(grad))
        pgrad = packing(grad)
        gz = _inner(grad, pgrad)
        if _inner(grad, grad) <= _ZERO_GRAD or gz <= _ZERO_GRAD:
            stop_reason = "zero_gradient"
            break
        dirn = pgrad
        if prev is not None:
            pgrad_prev, gz_prev, dirn_prev = prev
            beta = (gz - _inner(grad, pgrad_prev)) / gz_prev
            if beta > 0:
                cg = pgrad + beta * dirn_prev
                if _inner(grad, cg) > 0:
                    dirn = cg
                del cg
            # The previous vectors go before the line step, whose stacked
            # probes are the solve's peak.
            del pgrad_prev, dirn_prev
        prev = (pgrad, gz, dirn)
        del grad
        np.multiply(dirn, step, out=probe[0])
        np.multiply(dirn, -step, out=probe[1])
        probe += x
        step = _exact_step(w, _residual_fields(_Fields(s.a, probe_blocks), tau), step)
        if not step > 0.0:
            stop_reason = "no_decrease" if step == 0.0 else "non_finite"
            break
        x_new = x - step * dirn
        f_new = _Fields(s.a, {**packing.unpack(x_new), **held})
        w_new = _residual_fields(f_new, tau)
        e_new = _energy(s, w_new)
        if not e_new < energy:
            stop_reason = "no_decrease" if math.isfinite(e_new) else "non_finite"
            break
        x, f, w, energy = x_new, f_new, w_new, e_new
        history.append(energy)
        iterations += 1

    if energy <= tol:
        stop_reason = "converged"
    # The final state views the packed vector's planes as public blocks.
    final = {name: _turn(block) for name, block in packing.unpack(x).items()}
    return SolveResult(
        state=_derived(s, final),
        energy_history=history,
        stop_reason=stop_reason,
        breakdown=_breakdown(s, w),
    )


# -- state constructors -------------------------------------------------


def _spacing(N: int, vol: float) -> float:
    if not 0 < vol < math.inf:
        raise ValueError(f"volume must be finite and positive, got {vol!r}")
    return math.sqrt(vol) / N


def zero_state(N: int, r1: int, r2: int = 1, vol: float = 1.0) -> LatticeState:
    blocks = {name: np.zeros(shape, dtype=np.complex128)
              for name, shape in _block_shapes(N, r1, r2).items()}
    return LatticeState(N=N, a=_spacing(N, vol), **blocks)


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
        zb = -_public_adj(_zpot(A[:, :1, :1])[0, 0])
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
    modes = len(_SMOOTH_MODES)
    shapes = {"A1": (r1, r1), "A2": (r2, r2), "theta1": (r1, r1), "phi": (r1, r2)}
    # The draws keep the order of a field-by-field sum: per field (per
    # direction of a potential) and per mode, the real and then the
    # imaginary part of a matrix coefficient; each direction of a potential
    # then draws a constant matrix.  One call draws what its parts would.
    coeffs, constants = [], {}
    for name, (p, q) in shapes.items():
        potential = name in ("A1", "A2")
        d = rng.standard_normal((2 if potential else 1, modes + potential, 2, p * q))
        z = d[:, :, 0] + 1j * d[:, :, 1]
        if potential:
            constants[name] = z[:, modes].reshape(2, p, q, 1, 1)
        coeffs.append(z[:, :modes].transpose(1, 0, 2).reshape(modes, -1))
    coeff = np.concatenate(coeffs, axis=1)
    # k1 j1 + k2 j2 takes at most 8N - 7 integer values: each wave indexes a
    # table of exp(2 pi i m / N), evaluated once per integer m.
    low = 4 * (N - 1)
    table = np.exp(2j * np.pi * np.arange(-low, low + 1) / N)
    j = np.arange(N)
    # Every sampled matrix entry of every field is one site plane, fields
    # first, and each mode adds its wave to all of them at once: with the
    # planes last the sum took three times as long.
    planes = np.zeros((coeff.shape[1], N, N), dtype=np.complex128)
    term = np.empty_like(planes)
    for (k1, k2), c in zip(_SMOOTH_MODES, coeff):
        wave = table[k1 * j[:, None] + (k2 * j + low)]
        # wave * c, not c * wave: the operand order fixes the bits.
        np.multiply(wave, c[:, None, None], out=term)
        planes += term
    del term
    planes /= modes
    # Each field from its planes, written into its block's site-first layout.
    blocks, at = {}, 0
    for name, (p, q) in shapes.items():
        lead = (2,) if name in constants else ()
        count = math.prod(lead) * p * q
        field = planes[at : at + count].reshape(lead + (p, q, N, N))
        at += count
        blocks[name] = np.empty(lead + (N, N, p, q), dtype=np.complex128)
        out = _turn(blocks[name])
        if name in constants:
            field += constants[name]
            np.multiply(amplitude * 0.5, field - _adj(field), out=out)
        elif name == "theta1":
            np.multiply(amplitude, field, out=out)
        else:
            base = np.zeros((p, q, 1, 1), dtype=np.complex128)
            base[0, 0] = math.sqrt(abs(tau)) if tau != 0 else 1.0
            np.add(base, amplitude * field, out=out)
    return LatticeState(
        N=N, a=_spacing(N, vol), **blocks,
        theta2=np.zeros((N, N, r2, r2), dtype=np.complex128),
        psi=np.zeros((N, N, r2, r1), dtype=np.complex128),
    )


# Peak bytes a cold solve holds besides its start, in units of the start
# state's bytes: the stacked line probes' fields and their temporaries.
# The traced peak of the iterations, less what the preconditioner keeps,
# was 8.90, 8.51 and 8.41 states at rank 1 (N = 64, 128, 256), 8.76 at
# (2, 2), N = 64, and the most, 9.64, at (2, 1), N = 128 (10.06 while
# _Fields.curvature held Z and Zb across its stencil); the kernels' site
# planes left each of these peaks as it was.  A bound of 10 would leave
# less than 0.4 state of room.
SOLVE_WORKING_STATES = 11


def solve_bytes(N: int, r1: int, r2: int = 1) -> int:
    """An upper estimate of the bytes a cold solve on the N-grid holds at
    its peak, counted without allocating anything: the start state, and
    the larger of random_smooth_state's temporaries (two site planes per
    sampled matrix entry, and a wave with its indices) and the solver's
    working set.  At r1 = r2 a problem can have a vacuum, and then the
    working set holds its Gauss-Newton symbol, whose footprint
    gauss_newton.symbol_bytes counts."""
    site = 16 * N * N
    state = 16 * sum(math.prod(shape) for shape in _block_shapes(N, r1, r2).values())
    sampled = 3 * r1 * r1 + 2 * r2 * r2 + r1 * r2
    work = SOLVE_WORKING_STATES * state
    if r1 == r2:
        from higgspairs.gauss_newton import symbol_bytes

        work += symbol_bytes(N, r1)
    return state + max(site * (2 * sampled + 2), work)


def prolong_state(s: LatticeState) -> LatticeState:
    """Trigonometric interpolation of every field block onto the 2N-grid.

    Each coarse Fourier mode keeps its frequency on the fine grid, every
    other mode is zero.  At even N the Nyquist plane -N/2 is split in half
    between -N/2 and +N/2 (Trefethen, Spectral Methods in MATLAB, ch. 3),
    so the interpolant of a real field is real and anti-Hermiticity of the
    potentials is kept; odd N has no Nyquist mode.  The torus volume is
    unchanged (the spacing halves).  Carrying a coarse solution to the
    fine grid keeps one continuum representative on both, so a
    convergence study compares grids rather than gauge choices.
    """
    N, N2 = s.N, 2 * s.N
    # The fine-grid index of each coarse mode: k and k mod 2N share a frequency.
    at = np.fft.fftfreq(N, 1 / N).astype(int) % N2

    def up(block: np.ndarray) -> np.ndarray:
        # The site axes of every public block are (-4, -3).
        spec = np.fft.fft2(block, axes=(-4, -3))
        big = np.zeros(block.shape[:-4] + (N2, N2) + block.shape[-2:], dtype=np.complex128)
        big[..., at[:, None], at, :, :] = spec
        if N % 2 == 0:
            for ax in (-4, -3):
                planes = np.moveaxis(big, ax, 0)
                planes[N // 2] = 0.5 * planes[N2 - N // 2]
                planes[N2 - N // 2] *= 0.5
        return np.fft.ifft2(big, axes=(-4, -3)) * 4

    fine = {name: up(getattr(s, name)) for name in BLOCKS}
    for name in ("A1", "A2"):
        fine[name] = 0.5 * (fine[name] - _public_adj(fine[name]))
    return LatticeState(N=N2, a=s.a / 2, **fine)


def exchange_bundles(s: LatticeState) -> LatticeState:
    """The state with its two bundles exchanged, sharing its arrays.  At
    coupling tau_prime(tau, r1, r2) its residual fields are the swapped ones
    of s at tau, so a state with theta1 and phi zero becomes one of the
    problem ``solve`` solves."""
    return replace(s, A1=s.A2, A2=s.A1, theta1=s.theta2, theta2=s.theta1, phi=s.psi, psi=s.phi)
