"""The exact Gauss-Newton symbol of a vortex solve at its constant vacuum.

``vortex._Preconditioner`` builds a ``GaussNewtonSymbol`` once per solve of
a problem with a constant vacuum, on its first call, and applies it in
place of its per-block kernel; its docstring says when and why.  The
symbol is built from the residual kernel itself
(``vortex._residual_fields``), probed at the vacuum on a small grid, at a
site and its neighbours along each axis: no formula for J is written down
here.  Only solves with a vacuum and ``vortex.solve_bytes`` (for
symbol_bytes) import this module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from higgspairs import vortex as vx

# Complex numbers per mode of the half spectrum that the symbol keeps, over
# r^2: one matrix per coupling group, and the groups have 2, 2 and 4
# coordinates per anti-Hermitian unit (2 each at tau = 0).
SYMBOL_PER_MODE = 24
# Complex numbers per class of Fourier modes that the symbol's build holds
# besides, for the group it works on, whatever r is: measured 71 to 99 (r =
# 1 and 2, N = 64 to 256 and 129).
SYMBOL_BUILD_PER_CLASS = 100
# Complex r x r fields on the probe grid (_probe_grid, whose side grows as
# r) that the build holds at its peak, the probe state's residual fields and
# what they come from: measured 20.2 to 22.6 (r = 2..8 at N = 4, 5 and 8),
# 116 MB at r = 8.  Whatever N is, the build grows as r^4.
SYMBOL_PROBE_FIELDS = 24


def symbol_bytes(N: int, r: int) -> int:
    """Upper estimate of the bytes the symbol of an r1 = r2 = r problem on the
    N-grid holds at its build's peak: its matrices per mode, the build's own
    per class of modes (_sine_classes, counted in closed form, so that the
    CLI refuses a grid before anything is allocated) and the probe grid's."""
    modes = N * (N // 2 + 1)
    classes = (2 * (N // 4) + 1) * (N // 4 + 1) if N % 2 == 0 else modes
    fields = SYMBOL_PROBE_FIELDS * _probe_grid(r) ** 2
    return 16 * (modes * SYMBOL_PER_MODE * r * r + classes * SYMBOL_BUILD_PER_CLASS + fields * r * r)


def _real_units(r: int, hermitian: bool) -> np.ndarray:
    """An orthonormal basis, in the metric Re tr(x^H y), of the
    anti-Hermitian r x r matrices, followed by one of the Hermitian ones
    (i times the first) when hermitian is set; shape (units, r, r).  Each
    unit lives on one diagonal entry or on one pair (i, j), (j, i), and
    each of its entries is real or imaginary."""
    c = math.sqrt(0.5)
    units = []
    for i in range(r):
        u = np.zeros((r, r), dtype=np.complex128)
        u[i, i] = 1j
        units.append(u)
        for j in range(i + 1, r):
            u = np.zeros((r, r), dtype=np.complex128)
            u[i, j], u[j, i] = c, -c
            v = np.zeros((r, r), dtype=np.complex128)
            v[i, j] = v[j, i] = 1j * c
            units += [u, v]
    anti = np.array(units)
    return np.concatenate([anti, 1j * anti]) if hermitian else anti


class GaussNewtonSymbol:
    """The inverse of the Gauss-Newton Hessian a^2 J*J at the constant
    vacuum, one matrix per Fourier mode and coupling group.

    J is real-linear (the residuals hold adjoints), so it acts on real
    coordinates: a packed tangent vector is sum_c u_c e_c over units e_c
    orthonormal in Re tr(x^H y) (_real_units: anti-Hermitian ones for the
    potentials, all of gl(r) for theta1 and phi), and the residual fields
    are read in the units of gl(r).  The potentials enter rotated, each
    unit of A1 and the same unit of A2 as (A1 + A2)/sqrt(2) and (A1 -
    A2)/sqrt(2), and so do the residuals W1 and W2: an orthogonal change
    of coordinates, which the inverse follows exactly.  At the vacuum A =
    theta = 0, phi0 = sqrt(tau) I, J is a convolution: its products stay
    on a site, J0, and the central differences of vortex._stencil reach
    the neighbours at +/-e with weights +/-1/2, so J(-e) = -J(e), and a
    real-FFT mode (k1, k2) of u maps to the same mode of the residuals by
    Jh = J0 - 2i (sigma(k1) Jx + sigma(k2) Jy), sigma the stencil's symbol
    (vortex._difference_symbol).  J0, Jx and Jy are probed, not derived
    (_probe).  Units that share a residual coordinate at some offset form
    a coupling group, and J*J is block diagonal in the groups, so each is
    built and applied on its own.  Only the differences A1 - A2 and
    W1 - W2 feel phi, so the probes find 3r^2 groups: each anti-Hermitian
    unit of A1 + A2 (both directions), two coordinates; the same unit of
    A1 - A2 with the unit and i times it in phi, four; and the unit and
    i times it in theta1, two.  At tau = 0 phi decouples and every group
    has two.  sigma is the same at k and N/2 - k at even N: each class of
    such modes is built once (_sine_classes), and its matrices are copied
    to each mode of the class.

    Per mode and group the operator is ((J*J)^+ + P0 K P0) / a^2
    (_pseudo_inverse_with_kernel): the exact inverse on the directions J
    sees, and on the null space of Jh, projected by P0, the diagonal K of
    the solve's per-block kernel (VACUUM_SYMBOL floored by MASS_FLOOR).
    The null space holds the gauge directions at every mode, and at
    tau = 0 everything the mass alone would see.  Each mode's matrix is
    Hermitian positive definite, so the operator is symmetric positive
    definite in the solver's metric, and it maps real coordinates to real
    coordinates, so the potentials of a direction stay anti-Hermitian.

    A call reads the coordinates off a packed gradient, transforms them
    with rfft along the last site axis and fft along the first, multiplies
    each group at every mode of the half spectrum by that mode's matrix,
    and goes back the same way.  It reads and writes only the nonzero
    terms of the units, in runs of planes that slices view (_runs), and
    multiplies all groups of one size in one einsum: ``groups`` holds each
    group's matrices, (g, g, modes), as a view of its size's array in
    ``batches``.  At rank 1, N = 64 a call took about 0.53 ms inside a
    solve on two shared Xeon cores, of which the four transforms were 0.3.
    """

    def __init__(self, packing: vx._Preconditioner, s: vx.LatticeState, tau: float) -> None:
        r, N = s.r1, s.N
        # One row per real coordinate: its unit over the packed planes, and
        # the name of its block.
        rows, names = [], []
        for name, slot, _ in packing.layout:
            units = _real_units(r, hermitian=name not in ("A1", "A2")).reshape(-1, r * r)
            for start in range(slot.start, slot.stop, r * r):
                for u in units:
                    row = np.zeros(packing.shape[0], dtype=np.complex128)
                    row[start : start + r * r] = u
                    rows.append(row)
                    names.append(name)
        basis = np.array(rows)
        # The potentials as (A1 + A2)/sqrt(2) and (A1 - A2)/sqrt(2), unit by
        # unit, and the residuals W1, W2 likewise: only the difference of
        # the potentials and of the equations feels phi.  VACUUM_SYMBOL
        # gives A1 and A2 one kernel, so the names below still pick it.
        c = math.sqrt(0.5)
        a1 = [k for k, name in enumerate(names) if name == "A1"]
        a2 = [k for k, name in enumerate(names) if name == "A2"]
        basis[a1], basis[a2] = c * (basis[a1] + basis[a2]), c * (basis[a1] - basis[a2])
        jac = _probe(packing, s, basis, tau)
        w1, w2 = jac.pop("W1"), jac.pop("W2")
        jac = np.concatenate([c * (w1 + w2), c * (w1 - w2), *jac.values()], axis=1)
        reps1, of1 = _sine_classes(N, N)
        reps2, of2 = _sine_classes(N, N // 2 + 1)
        # Per class, flat: sigma(k1) and sigma(k2), and the weights of J0, Jx, Jy in Jh.
        sigmas = vx._difference_symbol(np.array(np.meshgrid(reps1, reps2, indexing="ij")).reshape(2, -1), N)
        weights = np.concatenate([np.ones((1, sigmas.shape[1])), -2j * sigmas])
        omega2 = (sigmas**2).sum(axis=0) / (s.a * s.a)
        kernel = np.array([vx._block_kernel(name, tau, omega2) for name in names])
        # The class of each mode of the half spectrum, flat.
        of = (of1[:, None] * len(reps2) + of2[None, :]).ravel()
        # Groups of one size are built into one array, so that a call
        # multiplies all of them at once; each stays a view of it.
        found = sorted(_groups(jac), key=lambda group: len(group[0]))
        self.batches: list[tuple[slice, np.ndarray]] = []
        self.groups: list[tuple[slice, np.ndarray]] = []
        order: list[int] = []
        for size in sorted({len(cols) for cols, _ in found}):
            members = [group for group in found if len(group[0]) == size]
            batch = np.empty((len(members), size, size, len(of)), dtype=np.complex128)
            # Each run of groups that touch as many residual coordinates is
            # built at once, into its slice of the batch.
            at = 0
            for _, run in itertools.groupby(members, key=lambda group: len(group[1])):
                cols, touched = (np.array(part) for part in zip(*run))
                jh = np.einsum("om,obrc->brcm", weights, jac[:, touched[:, :, None], cols[:, None, :]])
                built = _pseudo_inverse_with_kernel(jh, kernel[cols])
                built /= s.a * s.a
                # Every class index is in range; "clip" spares take a buffer.
                np.take(built, of, axis=-1, out=batch[at : at + len(cols)], mode="clip")
                at += len(cols)
            start = len(order)
            for (cols, _), inverse in zip(members, batch):
                self.groups.append((slice(len(order), len(order) + size), inverse))
                order.extend(cols)
            self.batches.append((slice(start, len(order)), batch))
        # The coordinates in group order, so that every group, and every
        # batch of groups of one size, is one slice: the unit of each over
        # the packed planes.  Each unit's entries are all real or all
        # imaginary, so a coordinate reads one part of at most four planes
        # (two entries of a unit, in A1 and in A2), and each part of a plane
        # sums at most two coordinates.  The reads take the k-th term of
        # every coordinate at once, split by the part it reads.
        self.units = basis[order]
        parts = np.stack([self.units.real, self.units.imag], axis=-1)
        self.reads = [
            [(part, _runs([(i, j // 2, w) for i, j, w in level if j % 2 == part])) for part in (0, 1)]
            for level in _levels(parts.reshape(len(order), -1))
        ]
        self.writes = []
        for part in (0, 1):
            m = parts[:, :, part].T
            untouched = np.array([plane for plane, row in enumerate(m) if not row.any()], dtype=np.intp)
            self.writes.append((part, untouched, [_runs(level) for level in _levels(m)]))

    def __call__(self, g: np.ndarray) -> np.ndarray:
        # Each intermediate goes as soon as the next one exists: at its
        # peak this call adds about 1.4 states, its result included (rank
        # 1, N = 64, traced).  A part of a plane that no coordinate touches,
        # such as the real part of a potential at rank 1, is set to zero.
        parts = g.view(np.float64).reshape(g.shape + (2,))
        coords = np.empty((len(self.units),) + g.shape[1:])
        for k, level in enumerate(self.reads):
            for part, runs in level:
                _combine(runs, parts[..., part], coords, add=k > 0)
        w = np.fft.rfft(coords, axis=-1)
        del coords
        np.fft.fft(w, axis=-2, out=w)
        v = np.empty_like(w)
        flat, out = w.reshape(len(w), -1), v.reshape(len(v), -1)
        for cols, inverse in self.batches:
            count, size = inverse.shape[:2]
            np.einsum("kijm,kjm->kim", inverse, flat[cols].reshape(count, size, -1),
                      out=out[cols].reshape(count, size, -1))
        del w, flat, out
        np.fft.ifft(v, axis=-2, out=v)
        u = np.fft.irfft(v, n=g.shape[-1], axis=-1)
        del v
        d = np.empty(g.shape + (2,))
        for part, untouched, levels in self.writes:
            d[untouched, ..., part] = 0.0
            for k, runs in enumerate(levels):
                _combine(runs, u, d[..., part], add=k > 0)
        return d.view(np.complex128).reshape(g.shape)


def _probe(
    packing: vx._Preconditioner, s: vx.LatticeState, basis: np.ndarray, tau: float
) -> dict[str, np.ndarray]:
    """J0, Jx and Jy, J(o) at the offsets o = (0, 0), (1, 0) and (0, 1),
    from one evaluation of the residual fields: for each residual field
    that is not zero, by name, an array of shape (3, units of gl(r),
    coordinates).

    Every unit e_c goes to two sites of the vacuum on a small grid with
    the solve's spacing, +e_c at one and -e_c at the other, all at sites
    (i, j) with i + 2j = 0 mod 5, whose five-site stencils tile the grid,
    so no probe reaches a site read around another.  The residuals are at
    most quadratic and their products stay on a site, so half the
    difference of the two responses is J e_c exactly: the quadratic part,
    even in e_c, and the vacuum's own residual drop out.  The probe vector
    goes once its residual fields exist, and each field once the sites
    around the probes are read off it, which keeps the build's peak near
    20 probe-grid fields.
    """
    r = s.r1
    count = len(basis)
    n = _probe_grid(r)
    sites = [(i, j) for j in range(n) for i in range(n) if (i + 2 * j) % 5 == 0]
    at = np.array(sites[: 2 * count]).T.reshape(2, 2, count)
    x = np.zeros((len(basis[0]), n, n), dtype=np.complex128)
    packing.unpack(x)["phi"][...] = math.sqrt(tau) * vx._identity(r)
    x[:, at[0, 0], at[1, 0]] += basis.T
    x[:, at[0, 1], at[1, 1]] -= basis.T
    # theta2 and psi are held at zero, as in a solve.
    held = dict.fromkeys(vx.HELD, vx._ZERO)
    w = vx._residual_fields(vx._Fields(s.a, {**packing.unpack(x), **held}), tau)
    del x
    offsets = np.array([[0, 1, 0], [0, 0, 1]])[:, :, None, None]
    index = (Ellipsis, (at[0] + offsets[0]) % n, (at[1] + offsets[1]) % n)
    names = [name for name, v in w.items() if v is not vx._ZERO]
    near = np.empty((len(names), r, r) + index[1].shape, dtype=np.complex128)
    for k, name in enumerate(names):
        near[k] = w.pop(name)[index]
    del w
    # Re tr(u^H y) = Re u . Re y + Im u . Im y over the entries, read off
    # the real and imaginary parts without forming a complex product.  Each
    # unit's entries are all real or all imaginary, so each sum has at most
    # two nonzero terms and equals the complex readout's real part.
    units = _real_units(r, hermitian=True)
    readout = np.stack([units.real, units.imag], axis=-1)
    parts = near.view(np.float64).reshape(near.shape + (2,))
    jac = np.einsum("uijz,fijopcz->opfuc", readout, parts)
    del near, parts
    jac = 0.5 * (jac[:, 0] - jac[:, 1])
    return {name: jac[:, k] for k, name in enumerate(names)}


def _probe_grid(r: int) -> int:
    """The side n of _probe's grid at rank r: a multiple of 5 whose n^2 / 5
    sites with i + 2j = 0 mod 5 hold two for each of the 8 r^2 coordinates."""
    return 5 * math.ceil(math.sqrt(2 * 8 * r * r / 5))


def _groups(jac: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The coupling groups: (coordinates, residual coordinates they touch)
    of each connected set of coordinates that share a residual coordinate."""
    touch = (jac != 0).any(axis=0).astype(np.int64)
    reach = (touch.T @ touch + np.eye(touch.shape[1], dtype=np.int64)) > 0
    while True:
        wider = (reach.astype(np.int64) @ reach) > 0
        if (wider == reach).all():
            break
        reach = wider
    groups, seen = [], np.zeros(len(reach), dtype=bool)
    for members in reach:
        if not seen[members].any():
            seen |= members
            groups.append((np.flatnonzero(members), np.flatnonzero(touch[:, members].any(axis=1))))
    return groups


def _sine_classes(N: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier indices 0..count-1 of an N-grid axis in classes of equal
    sigma (vortex._difference_symbol): the representatives k, a range of
    integers, and the class of each index, which k and N/2 - k share at
    even N; at odd N every index is its own class."""
    k = np.arange(count)
    k = np.where(2 * k > N, k - N, k)
    if N % 2 == 0:
        k = np.where(4 * k > N, N // 2 - k, np.where(4 * k < -N, -(N // 2) - k, k))
    return np.arange(k.min(), k.max() + 1), k - k.min()


def _levels(m: np.ndarray) -> list[list[tuple[int, int, float]]]:
    """The nonzeros of the real matrix m by level: level k holds (row,
    column, weight) of the k-th nonzero of every row that has k + 1."""
    nonzeros = [np.flatnonzero(row) for row in m]
    return [
        [(i, int(nz[k]), float(m[i, nz[k]])) for i, nz in enumerate(nonzeros) if len(nz) > k]
        for k in range(max(len(nz) for nz in nonzeros))
    ]


def _runs(terms: list[tuple[int, int, float]]) -> list[tuple[slice, slice, float | np.ndarray]]:
    """Terms (row, column, weight) in runs along which the rows and the
    columns each step evenly, taken greedily in order, so that each run
    views its rows and its columns as slices: (rows, columns, weights), the
    weights one number when they are all equal."""
    runs: list[list[tuple[int, int, float]]] = []
    for term in terms:
        run = runs[-1] if runs else []
        if len(run) > 1:
            extends = all(term[a] - run[-1][a] == run[1][a] - run[0][a] for a in (0, 1))
        else:
            extends = len(run) == 1 and term[0] != run[0][0] and term[1] != run[0][1]
        if extends:
            run.append(term)
        else:
            runs.append([term])
    return [(_span(run, 0), _span(run, 1), _weights([w for _, _, w in run])) for run in runs]


def _span(run: list[tuple[int, int, float]], a: int) -> slice:
    """The indices run[.][a], which step evenly, as a slice."""
    start = run[0][a]
    step = run[1][a] - start if len(run) > 1 else 1
    stop = start + step * len(run)
    return slice(start, stop if stop >= 0 else None, step)


def _weights(weights: list[float]) -> float | np.ndarray:
    """The weights of a run, one number when they are all equal, else one
    per row, broadcast over the sites."""
    if all(w == weights[0] for w in weights):
        return weights[0]
    return np.array(weights)[:, None, None]


def _combine(runs: list[tuple], planes: np.ndarray, out: np.ndarray, add: bool) -> None:
    """out[rows] = (or +=, with add) weights * planes[columns] for each run
    (rows, columns, weights) of _runs."""
    for rows, cols, weights in runs:
        if add:
            out[rows] += planes[cols] * weights
        else:
            np.multiply(planes[cols], weights, out=out[rows])


def _pseudo_inverse_with_kernel(jh: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(Jh^H Jh)^+ + P0 diag(kernel) P0 per group and mode, shape (groups,
    g, g, modes), for jh of shape (groups, rows, g, modes) and kernel of
    shape (groups, g, modes); P0 projects on the null space of Jh.  Groups
    lead and modes run along the last axis, so every step is one array
    operation over all of them.

    Gram-Schmidt runs over the rows of Jh, conjugated, in the metric of
    Jh^H Jh, and carries each vector's images under Jh and Jh^H Jh: z_k
    with Jh z_k orthonormal, so the pseudo-inverse is sum z_k z_k^H and
    the projector on the row space is sum z_k (Jh^H Jh z_k)^H.  A row
    whose image, after the earlier ones are taken out, is within
    max(rows, g) eps of the largest entry of its group's Jh Jh^H adds
    nothing: the rounding rule of np.linalg.matrix_rank, on the Gram
    matrix.
    """
    groups, count, g, modes = jh.shape
    # Each vector: x, a conjugated row, then Jh x, then Jh^H Jh x.  The
    # process runs in place, and the sums of outer products below take one
    # term at a time into one buffer: the build's temporaries stay a few
    # times the size of its result.
    vectors = np.empty((groups, count, 2 * g + count, modes), dtype=np.complex128)
    image = slice(g, g + count)
    np.conjugate(jh, out=vectors[:, :, :g])
    np.einsum("brcm,bkcm->bkrm", jh, vectors[:, :, :g], out=vectors[:, :, image])
    np.einsum("brcm,bkrm->bkcm", vectors[:, :, :g], vectors[:, :, image], out=vectors[:, :, g + count :])
    # A group whose Jh has no rows is all null space: its largest is 0.
    largest = np.abs(vectors[:, :, image]).reshape(groups, -1).max(axis=1, initial=0.0)
    tol = (max(count, g) * np.finfo(np.float64).eps * largest)[:, None]
    # The k-th vector of every group, shape (groups, entries, modes).
    rows = [vectors[:, k] for k in range(count)]
    for k, v in enumerate(rows):
        for u in rows[:k]:
            v -= (u[:, image].conj() * v[:, image]).sum(axis=1)[:, None] * u
        norm = np.sqrt((np.abs(v[:, image]) ** 2).sum(axis=1))
        v *= ((norm > tol) / np.maximum(norm, tol))[:, None]
    null = np.zeros((groups, g, g, modes), dtype=np.complex128)
    null[:, range(g), range(g)] = 1.0
    out = np.zeros_like(null)
    term = np.empty_like(null)
    for v in rows:
        null -= np.multiply(v[:, :g, None], v[:, None, g + count :].conj(), out=term)
        out += np.multiply(v[:, :g, None], v[:, None, :g].conj(), out=term)
    root = np.sqrt(kernel)
    for c in range(g):
        f = null[:, :, c] * root[:, None, c]
        out += np.multiply(f[:, :, None], f[:, None].conj(), out=term)
    return out
