"""Lattice oracles for the vortex tests, written on plain numpy.

The derivatives here are ``np.roll`` central differences and the per-site
products ``einsum`` contractions, so an oracle shares no kernel with the
solver it checks; it reads only public names of ``higgspairs.vortex``
(tests/test_vortex_identity.py scans for private ones).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import higgspairs.vortex as vx


class NotConvergedError(RuntimeError):
    """An oracle that needs a converged state got one that is not."""


def adj(m: np.ndarray) -> np.ndarray:
    """The per-site conjugate transpose."""
    return np.conj(np.swapaxes(m, -1, -2))


def mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The per-site matrix product x @ y."""
    return np.einsum("...ij,...jk->...ik", x, y)


def dz(m: np.ndarray, a: float) -> np.ndarray:
    """(d1 - i d2) m / 2, each d the central difference along a site axis."""
    d1 = np.roll(m, -1, axis=-4) - np.roll(m, 1, axis=-4)
    d2 = np.roll(m, -1, axis=-3) - np.roll(m, 1, axis=-3)
    return (d1 - 1j * d2) * (0.25 / a)


def dzbar(m: np.ndarray, a: float) -> np.ndarray:
    """(d1 + i d2) m / 2, each d the central difference along a site axis."""
    d1 = np.roll(m, -1, axis=-4) - np.roll(m, 1, axis=-4)
    d2 = np.roll(m, -1, axis=-3) - np.roll(m, 1, axis=-3)
    return (d1 + 1j * d2) * (0.25 / a)


def site_frob2(m: np.ndarray) -> np.ndarray:
    """The per-site squared Frobenius norm."""
    return np.sum(np.abs(m) ** 2, axis=(-1, -2))


def residual_fields(s: vx.LatticeState, tau: float, **changed: np.ndarray) -> dict[str, np.ndarray]:
    """The six residual fields W1..W6 of s at coupling tau, on the state's
    own (N, N, r, q) blocks.  A block passed by name replaces s's and may
    carry leading axes, which the fields then carry too.

    Per bundle, with Z = A_z + theta and Zb = A_zbar + theta^H the (1,0)
    and (0,1) parts of the Higgs-coupled connection: the vortex equation
    2 (dz Zb - dzbar Z + [Z, Zb]) + (phi phi^H - psi^H psi)/2 - tau/2, the
    holomorphicity defect 2 (dzbar phi + Zb phi - phi Zb') and the
    intertwining defect 2 (theta phi - phi theta'), primes on the other
    bundle; the second bundle's are the first's with the bundles, phi and
    psi, and tau and tau' = -tau r1 / r2 exchanged.
    """
    a = s.a
    b = {name: changed.get(name, getattr(s, name)) for name in vx.BLOCKS}

    def zpot(A):
        return 0.5 * (A[..., 0, :, :, :, :] - 1j * A[..., 1, :, :, :, :])

    def bundle(A, t, A_other, t_other, phi, psi, coupling):
        Az = zpot(A)
        Zb = -adj(Az)
        Zb_other = -adj(zpot(A_other))
        Z, Zb_coupled = Az + t, Zb + adj(t)
        curvature = dz(Zb_coupled, a) - dzbar(Z, a) + mm(Z, Zb_coupled) - mm(Zb_coupled, Z)
        moment = mm(phi, adj(phi)) - mm(adj(psi), psi)
        eye = np.eye(phi.shape[-2])
        return (
            2.0 * curvature + 0.5 * moment - 0.5 * coupling * eye,
            2.0 * (dzbar(phi, a) + mm(Zb, phi) - mm(phi, Zb_other)),
            2.0 * (mm(t, phi) - mm(phi, t_other)),
        )

    tau_prime = -tau * s.r1 / s.r2
    w1, w3, w4 = bundle(b["A1"], b["theta1"], b["A2"], b["theta2"], b["phi"], b["psi"], tau)
    w2, w5, w6 = bundle(b["A2"], b["theta2"], b["A1"], b["theta1"], b["psi"], b["phi"], tau_prime)
    return {"W1": w1, "W2": w2, "W3": w3, "W4": w4, "W5": w5, "W6": w6}


def _tangent_units(r: int, q: int, anti_hermitian: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """The real coordinates of one site's r x q block, each as (unit e,
    read-out R): the unit is a direction of the tangent space and R the
    entries of the gradient that 2 Re tr(g^H e) fixes, g = sum_e R dE(e).

    A complex block has the units E_ij and i E_ij, whose slopes are twice
    the real and imaginary part of g_ij.  An anti-Hermitian block has i E_ii
    and, for i < j, E_ij - E_ji and i (E_ij + E_ji); an anti-Hermitian g
    gives them the slopes 2 Im g_ii, 4 Re g_ij and 4 Im g_ij.
    """
    units = []
    for i in range(r):
        for j in range(q):
            if not anti_hermitian:
                for c in (1.0, 1j):
                    e = np.zeros((r, q), dtype=np.complex128)
                    e[i, j] = c
                    units.append((e, 0.5 * e))
            elif i == j:
                e = np.zeros((r, q), dtype=np.complex128)
                e[i, i] = 1j
                units.append((e, 0.5 * e))
            elif i < j:
                for c in (1.0, 1j):
                    e = np.zeros((r, q), dtype=np.complex128)
                    e[i, j], e[j, i] = c, -np.conj(c)
                    units.append((e, 0.25 * e))
    return units


def residual_gradient(s: vx.LatticeState, tau: float) -> dict[str, np.ndarray]:
    """The gradient of the residual energy a^2 sum |W|^2 in the convention
    dE = 2 Re sum tr(g^H dq), the potentials' blocks anti-Hermitian, from a
    slope along every real coordinate of the state.

    Every residual field is at most quadratic in the fields, so J e =
    (W(x + e) - W(x - e)) / 2 exactly, from residual_fields above, and the
    slope along e is 2 a^2 Re <J e, W>.  Each unit sits at one site (and
    one direction of a potential); _tangent_units reads the gradient's
    entries off the slopes.  The units of a block are evaluated together,
    one per entry of a leading axis.
    """
    k = s.a * s.a
    w = residual_fields(s, tau)
    out = {}
    for name in vx.BLOCKS:
        block = getattr(s, name)
        units = _tangent_units(*block.shape[-2:], anti_hermitian=name in ("A1", "A2"))
        sites = list(np.ndindex(block.shape[:-2]))
        steps = np.zeros((len(sites) * len(units),) + block.shape, dtype=np.complex128)
        readouts = np.zeros_like(steps)
        for c, (at, (e, readout)) in enumerate((at, u) for at in sites for u in units):
            steps[(c,) + at] = e
            readouts[(c,) + at] = readout
        plus = residual_fields(s, tau, **{name: block + steps})
        minus = residual_fields(s, tau, **{name: block - steps})
        # A field that does not read the block has no leading axis and, at
        # every unit, no slope: one row of zeros.
        slopes = sum(
            2.0 * k * np.sum((np.conj(w[f]) * (0.5 * (plus[f] - minus[f]))).reshape(-1, w[f].size), axis=1).real
            for f in w
        )
        out[name] = np.einsum("c,c...->...", slopes, readouts)
    return out


def l4_identity_check(s: vx.LatticeState, tau: float, tol: float = 1e-8) -> dict[str, float]:
    """Integrated identities satisfied by solutions, as discrete residuals.

    res1 integrates the section identity: at a solution of the coupled
    system the combination 4|D_z s|^2 + 4|theta1^H s|^2 + 2|s|^4
    + (tau' - tau)|s|^2 integrates to zero (the Laplacian term drops on the
    closed torus; the |s|^4 doubling and the tau' shift come from the
    second bundle's curvature, which is part of the coupled system here).
    res2 integrates the Higgs-field identity, a sum of nonnegative terms
    (the Ricci term vanishes on the flat torus).

    On the lattice's degree-0 trivial bundles, with r1 = r2 = 1 on the phi
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
    res = vx.residual_energy(s, tau)
    if res > tol:
        raise NotConvergedError(f"identity check needs residual_energy <= {tol}, got {res}")
    k = s.a * s.a
    # The degree-0 coupling of E2, written here rather than read from the
    # library: tau r1 + tau' r2 = 0.
    tau_prime = -tau * s.r1 / s.r2
    z1 = 0.5 * (s.A1[0] - 1j * s.A1[1])
    z2 = 0.5 * (s.A2[0] - 1j * s.A2[1])
    dz_phi = dz(s.phi, s.a) + mm(z1, s.phi) - mm(s.phi, z2)
    s2 = np.einsum("xyab,xyab->xy", np.conj(s.phi), s.phi).real
    res1 = k * float(
        np.sum(
            4.0 * site_frob2(dz_phi)
            + 4.0 * site_frob2(mm(adj(s.theta1), s.phi))
            + 2.0 * s2 * s2
            + (tau_prime - tau) * s2
        )
    )
    t1, t1d = s.theta1, adj(s.theta1)
    grad_t1 = dz(t1, s.a) + mm(z1, t1) - mm(t1, z1)
    res2 = k * float(
        np.sum(
            8.0 * site_frob2(grad_t1)
            + 8.0 * site_frob2(mm(t1, t1d) - mm(t1d, t1))
            + 4.0 * site_frob2(mm(adj(s.phi), t1))
        )
    )
    return {"res1": abs(res1), "res2": abs(res2)}


def constant_solution_state(N: int, tau: float, r1: int = 1, r2: int = 1) -> vx.LatticeState:
    """The exact flat solution for r1 = r2 = 1, tau > 0: |s|^2 = tau."""
    if r1 != 1 or r2 != 1 or tau <= 0:
        raise ValueError("constant solution needs r1 = r2 = 1 and tau > 0")
    s = vx.zero_state(N, 1, 1)
    return replace(s, phi=np.full_like(s.phi, math.sqrt(tau)))


def gauge_transform(s: vx.LatticeState, u1: np.ndarray, u2: np.ndarray) -> vx.LatticeState:
    """Apply the same unitary pair at every site.

    A constant transformation is an exact symmetry of the discrete
    energies; site-dependent ones are not symmetries of a finite-difference
    discretization.
    """

    def act(u: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("ij,...jk,lk->...il", u, m, np.conj(v))

    return replace(
        s,
        A1=act(u1, s.A1, u1),
        A2=act(u2, s.A2, u2),
        theta1=act(u1, s.theta1, u1),
        theta2=act(u2, s.theta2, u2),
        phi=act(u1, s.phi, u2),
        psi=act(u2, s.psi, u1),
    )


def check_invariants(s: vx.LatticeState, atol: float = 1e-12) -> list[str]:
    """The violated state invariants: anti-Hermitian potentials and
    phi psi = psi phi = 0."""
    out = []
    for name, arr in (("A1", s.A1), ("A2", s.A2)):
        if float(np.max(np.abs(arr + adj(arr)))) > atol:
            out.append(f"{name} is not anti-Hermitian")
    if float(np.max(np.abs(mm(s.phi, s.psi)))) > atol:
        out.append("phi psi != 0")
    if float(np.max(np.abs(mm(s.psi, s.phi)))) > atol:
        out.append("psi phi != 0")
    return out


def symbol_call(g: np.ndarray, units: np.ndarray, groups: list) -> np.ndarray:
    """A Gauss-Newton symbol applied to the packed vector g (planes, N, N),
    densely and in explicit loops: given its coordinates' units over the
    planes, units (coordinates, planes), and its groups, each a slice of
    the coordinates with its inverse (g, g, modes) over the half spectrum
    (N rows of N // 2 + 1 modes, flat).

    Every coordinate is Re(conj(unit) . g) summed over all planes, zero
    entries included.  Its half spectrum is read off the full 2-D DFT, each
    group's inverse multiplies it entry by entry, the inverse real DFT
    brings it back, and the result sums unit * coordinate over every
    coordinate and plane.
    """
    count, planes = units.shape
    N = g.shape[-1]
    coords = np.zeros((count, N, N))
    for c in range(count):
        for p in range(planes):
            coords[c] += (np.conj(units[c, p]) * g[p]).real
    spectrum = np.fft.fft2(coords)[:, :, : N // 2 + 1].reshape(count, -1)
    product = np.zeros_like(spectrum)
    for cols, inverse in groups:
        for i in range(cols.stop - cols.start):
            for j in range(cols.stop - cols.start):
                product[cols.start + i] += inverse[i, j] * spectrum[cols.start + j]
    back = np.fft.irfft2(product.reshape(count, N, N // 2 + 1), s=(N, N))
    out = np.zeros_like(g)
    for c in range(count):
        for p in range(planes):
            out[p] += units[c, p] * back[c]
    return out
