"""Exterior conformal maps with a finite Laurent tail.

The inclusion geometry is described by a conformal map of the disk
exterior {|w| >= 1} onto the complement of the inclusion,

    Psi(w) = w + a0 + a1/w + ... + aM/w**M,

normalized so that the leading coefficient is one (conformal radius 1).
Writing w = exp(rho + i*theta) gives an orthogonal curvilinear system
(rho, theta) outside the inclusion; theta alone parametrizes the
boundary curve theta -> Psi(e^{i*theta}).

Maps of radius other than 1 are not accepted: rescale the geometry by
z -> z/gamma first, which rescales every coefficient by a_k ->
a_k/gamma**(k+1), and undo the scaling on output fields.

Any finite Laurent tail is accepted, but it only describes an inclusion
when Psi is univalent.  The map owns that rule: ``univalence`` runs
``validate_univalence`` once per map object and keeps the report, and
``require_univalent`` raises NonUnivalentMapError when it failed.  The
solver and the field evaluators call it; evaluation, inversion and the
Faber tables do not.

The map also owns its equispaced boundary samples.  ``_boundary_values(q)``
sums Psi - w and Psi' - 1 once at w_k = e^{2 pi i k/q}, k < q, and gives
(w, Psi(w), Psi'(w)) with the bits of ``boundary_point`` and
``derivative``; ``boundary_samples(q)`` keeps them read-only on the map,
one entry per q, for the quadrature nodes and residuals of oracle and
the boundary polygons of ``field_grid``.  The univalence check sums the
same values and keeps none: a map that is only solved would otherwise
hold its 2048 samples (98 KB) for as long as it lives.

Everything the method sums is a polynomial in u = 1/w: Psi - w and
Psi' - 1 (``ExteriorMap._u_rows``) here, the single layer and the
background field outside the inclusion in fields.  One kernel sums them
all, ``_blocked_horner`` (Paterson-Stockmeyer): a row of K coefficients
is cut into blocks of B = ceil(sqrt(K)), one matrix product with the
powers u**0 .. u**(B-1) sums all blocks at all points, and Horner runs
over the block sums in u**B, so a row costs about sqrt(K) array steps
instead of K.  |u| <= 1 keeps the power table bounded; the growing rows
of fields go through the same kernel in w.  Rows of at most
_HORNER_TERMS = 32 terms (every map of order 30 or less, and the figure
configs' fields) take blocks of one term, which is plain Horner with no
matrix product and no block sums, so none of their point arrays goes
through BLAS.  Longer rows take their points in chunks sized from the
number of rows times blocks, so the block sums of one chunk stay near
1 MB however many points there are.

The map owns the conventions every layer above it repeats.  The a_k
are one read-only array, ``ExteriorMap._coeff_array``, (0j,) for the
disk.  Every evaluator of the package returns through
``_point_or_array``: a Python number for one point, an array of the
points' shape otherwise.  Arrays kept on an object are frozen by
``_readonly``.  Newton's acceptance tolerance is ``_NEWTON_TOL``, the
default of ``invert`` and the term of the certification margin of
``fields.field_grid``.

A single point (a probe of fields) has no Horner step: ``_row_sums``
sums several row sets from one power table u**0 .. u**(K-1), K the
longest of them, each set by one product with a prefix of the table.
A doubled table computes each entry from the same operands whatever its
length, so a prefix holds the bits of a table of its own.  That rule
lives in ``_row_sums`` only.  The map's evaluators and ``invert`` call
``_blocked_horner`` through ``_u_sum``, which sums one point as two, so
that one point gets the bits it would get among many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NonUnivalentMapError

#: tolerance below which |w| < 1 is treated as a domain violation
_INSIDE_TOL = 1e-12
#: ``invert`` accepts w once |Psi(w) - z| <= _NEWTON_TOL max(1, |z|)
_NEWTON_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place."""
    a.setflags(write=False)
    return a


def _point_or_array(points, out, kind=complex):
    """An evaluator's result: ``kind(out)`` for 0-d ``points``, else ``out`` shaped as them.

    Every evaluator takes a point or an array of points; one point gives
    a Python number (``kind``), an array gives an array of its shape.
    ``out`` holds one value per point, in any shape of that size.
    """
    out = np.reshape(out, np.shape(points))
    return kind(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class UnivalenceReport:
    """Result of the univalence check.

    ``derivative_zeros`` lists the zeros of Psi' on or outside the unit
    circle (to the check's tolerance), and ``derivative_winding`` counts
    those strictly outside it (by the argument principle, minus the
    winding number of Psi' along |w| = 1).  ``min_abs_derivative`` is the
    least |Psi'| over the boundary samples.
    """

    ok: bool
    min_abs_derivative: float
    derivative_zeros: tuple
    derivative_winding: int
    crossing_segments: tuple

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExteriorMap:
    """Finite Laurent-series exterior map with conformal radius 1.

    Parameters
    ----------
    coefficients : sequence of complex
        The coefficients a0, a1, ..., aM.  Trailing zeros are trimmed so
        the stored order is tight; the all-zero sequence is the disk.
    conformal_radius : float
        Must be exactly 1.0; anything else is rejected.

    ``_coeff_array`` holds a0 .. aM as one read-only complex array, (0j,)
    for the disk, and every layer reads the a_k from it.
    """

    coefficients: tuple = ()
    conformal_radius: float = 1.0
    _coeff_array: np.ndarray = field(init=False, repr=False, compare=False)
    #: q -> the read-only (w, Psi(w), Psi'(w)) of ``boundary_samples(q)``
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.conformal_radius != 1.0:
            raise ValueError(
                "conformal radius must be exactly 1; rescale the geometry "
                "by z -> z/gamma instead"
            )
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        # trim trailing zeros so `order` is tight (a_M != 0 when M >= 1)
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coefficients", tuple(coeffs[:n].tolist()))
        a = coeffs[:n].copy() if n else np.zeros(1, dtype=complex)
        object.__setattr__(self, "_coeff_array", _readonly(a))

    def __reduce__(self):  # through the constructor: kept rows, samples and report are rebuilt
        return type(self), (self.coefficients, self.conformal_radius)

    @property
    def order(self) -> int:
        """Tight Laurent order M (0 for a plain or shifted disk)."""
        return max(len(self._coeff_array) - 1, 0)

    @cached_property
    def _u_rows(self) -> np.ndarray:
        """Psi - w and Psi' - 1 as two read-only rows in u = 1/w, (2, M + 2).

        (a_0 .. a_M, 0) and (0, 0, -a_1, .., -M a_M); the map's own
        evaluators and the exterior evaluators of fields sum them.  Built
        on first read.
        """
        a = self._coeff_array
        rows = np.zeros((2, len(a) + 1), dtype=complex)
        rows[0, : len(a)] = a
        rows[1, 2:] = -np.arange(1, len(a)) * a[1:]
        return _readonly(rows)

    @cached_property
    def univalence(self) -> UnivalenceReport:
        """``validate_univalence()`` at its defaults, run on first read only."""
        return self.validate_univalence()

    def require_univalent(self) -> None:
        """Raise NonUnivalentMapError unless ``univalence`` passed."""
        if not self.univalence.ok:
            raise NonUnivalentMapError(self.univalence)

    def coefficient(self, k: int) -> complex:
        """a_k with the convention a_{-1} = 1 and a_k = 0 beyond the order."""
        if k == -1:
            return 1.0 + 0.0j
        if 0 <= k < len(self._coeff_array):
            return complex(self._coeff_array[k])
        return 0.0 + 0.0j

    # -- evaluation ---------------------------------------------------

    def _eval_raw(self, w):
        """Psi(w) without the |w| >= 1 domain check (used by inversion)."""
        w = np.asarray(w, dtype=complex)
        return w + _u_sum(self._u_rows[:1], w)

    def _derivative_raw(self, w):
        """Psi'(w) without the |w| >= 1 domain check."""
        return 1.0 + _u_sum(self._u_rows[1:], np.asarray(w, dtype=complex))

    def _check_domain(self, w):
        w = np.asarray(w, dtype=complex)
        if not np.all(np.abs(w) >= 1.0 - _INSIDE_TOL):  # NaN fails too
            raise DomainError("evaluation point inside the unit disk")
        return w

    def eval(self, w):
        """Psi(w) for |w| >= 1, by Horner's scheme in 1/w."""
        return _point_or_array(w, self._eval_raw(self._check_domain(w)))

    def derivative(self, w):
        """Psi'(w) = 1 - sum_k k a_k w^{-k-1} for |w| >= 1."""
        return _point_or_array(w, self._derivative_raw(self._check_domain(w)))

    def boundary_point(self, theta):
        """Boundary point Psi(e^{i*theta}); periodic in theta."""
        theta = np.asarray(theta, dtype=float)
        return _point_or_array(theta, self._eval_raw(np.exp(1j * theta)))

    def _boundary_values(self, q: int) -> tuple:
        """(w, Psi(w), Psi'(w)) at w_k = e^{2 pi i k/q}, k < q, from one
        kernel pass over both rows; nothing is kept."""
        w = np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
        dz, ddz = _blocked_horner(self._u_rows, 1.0 / w)
        return w, w + dz, 1.0 + ddz

    def boundary_samples(self, q: int) -> tuple:
        """``_boundary_values(q)``, made read-only and kept on the map per q.

        The bits are those of ``boundary_point`` and ``derivative`` at the
        same points.
        """
        if q not in self._samples:
            self._samples[q] = tuple(map(_readonly, self._boundary_values(q)))
        return self._samples[q]

    def scale_factor(self, rho, theta):
        """Curvilinear scale factor h = |w Psi'(w)| at w = e^{rho+i*theta}.

        On the boundary (rho = 0) this is the arclength density:
        d(sigma) = h(0, theta) d(theta).
        """
        w = np.exp(np.asarray(rho, dtype=float) + 1j * np.asarray(theta, dtype=float))
        return _point_or_array(w, np.abs(w * self.derivative(w)), float)

    # -- inversion ----------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")  # Psi at iterates near w = 0
    def invert(self, z, tol: float = _NEWTON_TOL, max_iter: int = 80):
        """Solve Psi(w) = z by damped Newton iteration.

        The residual f = Psi(w) - z is carried from one iteration to the
        next, so each step costs one evaluation of Psi' and one of Psi at
        the points still above tolerance.  A step whose residual grew is
        halved, up to 20 times; only those points are moved and evaluated
        again.  Iterates deep inside the disk can overflow Psi to inf or
        NaN; that overflow is expected there and not reported.

        Returns
        -------
        w : ndarray of complex
            The final iterates (meaningful where ``converged``).
        converged : ndarray of bool
            Residual |Psi(w) - z| below ``tol * max(1, |z|)``.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        a0 = self.coefficient(0)
        w = z - a0
        # keep starting points away from the pole at w = 0
        small = np.abs(w) < 0.3
        w[small] = 0.3 * np.exp(1j * np.angle(z[small] - a0 + 1e-30))
        target = tol * np.maximum(1.0, np.abs(z))
        f = self._eval_raw(w) - z
        res = np.abs(f)
        active = np.flatnonzero(res > target)
        for _ in range(max_iter):
            if active.size == 0:
                break
            wa, za, ra = w[active], z[active], res[active]
            dpsi = self._derivative_raw(wa)
            dpsi = np.where(np.abs(dpsi) < 1e-14, 1e-14, dpsi)
            step = f[active] / dpsi
            new = wa - step
            fa = self._eval_raw(new) - za
            new_res = np.abs(fa)
            # damp steps that would overshoot past the pole
            worse = np.flatnonzero(new_res > ra)
            for _ in range(20):
                if worse.size == 0:
                    break
                step[worse] = 0.5 * step[worse]
                new[worse] = wa[worse] - step[worse]
                fa[worse] = self._eval_raw(new[worse]) - za[worse]
                new_res[worse] = np.abs(fa[worse])
                worse = worse[new_res[worse] > ra[worse]]
            w[active], f[active], res[active] = new, fa, new_res
            active = active[new_res > target[active]]
        return w, res <= target

    # -- validation ---------------------------------------------------

    def validate_univalence(
        self,
        n_boundary: int = 2048,
        derivative_tol: float = 1e-8,
    ) -> UnivalenceReport:
        """Univalence check; failures are reported, never raised.

        Two tests: Psi' must not vanish on |w| >= 1, and the boundary
        polyline at ``n_boundary`` samples must be free of
        self-intersections.  The zeros of Psi' are the roots of the
        polynomial w**(M+1) Psi'(w) = w**(M+1) - sum_k k a_k w**(M-k);
        a root with |w| >= 1 - ``derivative_tol`` fails the map.
        """
        a = self._coeff_array
        roots = np.roots(np.concatenate(([1.0], -np.arange(len(a)) * a)))
        radius = np.abs(roots)
        zeros = tuple(complex(r) for r in roots[radius >= 1.0 - derivative_tol])
        winding = int(np.count_nonzero(radius > 1.0 + derivative_tol))

        _, z, dpsi = self._boundary_values(n_boundary)
        min_abs = float(np.abs(dpsi).min())
        crossings = _polyline_self_intersections(z)

        return UnivalenceReport(
            ok=not zeros and not crossings,
            min_abs_derivative=min_abs,
            derivative_zeros=zeros,
            derivative_winding=winding,
            crossing_segments=tuple(crossings[:16]),
        )


def _u_sum(row: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (1, K) row summed in u = 1/w at the points w, shaped as w.

    A nonzero row is inf at w = 0, where u is 1/inf = 0.  One point is
    summed as two: numpy rounds an in-place complex product of one element
    unlike a product of many, and a one-point damping step of ``invert``
    must round as its steps over many points do.
    """
    wa = w.reshape(-1)
    pole = wa == 0
    u = 1.0 / np.where(pole, np.inf, wa)
    out = _blocked_horner(row, np.repeat(u, 2) if len(u) == 1 else u)[0, : len(u)]
    if row.any():
        out[pole] = np.inf
    return out.reshape(w.shape)


#: complex values in the block sums of one chunk of points (1 MB)
_BLOCK_VALUES = 1 << 16
#: rows of at most this many terms are summed by plain Horner (blocks of
#: one term, no matrix product): a product that thin saves little, and a
#: threaded BLAS can make it cost more than the whole sum
_HORNER_TERMS = 32


def _blocked_horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[r, k] x**k for each row r at the 1-D points x, shape (R, len(x)).

    Paterson-Stockmeyer: the K coefficients of each row are cut into nb
    blocks of B = ceil(sqrt(K)), or of B = 1 for K <= _HORNER_TERMS.  One
    product with the power table x**0 .. x**(B-1), built by doubling,
    sums every block, and Horner then runs over the nb block sums in
    x**B: about sqrt(K) array steps in place of K.  Points go in chunks,
    so the block sums of a chunk hold about _BLOCK_VALUES values.
    """
    R, K = coef.shape
    B = 1 if K <= _HORNER_TERMS else math.isqrt(K - 1) + 1
    nb = -(-K // B)
    if nb * B > K:
        coef = np.concatenate((coef, np.zeros((R, nb * B - K), dtype=complex)), axis=1)
    # blocks[i, r] is block i of row r
    blocks = np.ascontiguousarray(coef.reshape(R, nb, B).transpose(1, 0, 2))
    # blocks of one term are the coefficients themselves: no block sums
    step = max(1, _BLOCK_VALUES // (nb * R) if B > 1 else len(x))
    if len(x) <= step:
        return _horner_over_blocks(blocks, x)
    out = np.empty((R, len(x)), dtype=complex)
    for lo in range(0, len(x), step):
        out[:, lo : lo + step] = _horner_over_blocks(blocks, x[lo : lo + step])
    return out


def _horner_over_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One chunk of ``_blocked_horner``: blocks has shape (nb, R, B).

    A function of its own, so one chunk's block sums are freed before
    the next chunk's are made.
    """
    nb, R, B = blocks.shape
    if B > 1:
        powers = _powers(x, B)
        sums = (blocks.reshape(nb * R, B) @ powers).reshape(nb, R, len(x))
        step_power = powers[-1:] * x
    else:
        sums, step_power = blocks, x[None]  # (nb, R, 1): plain Horner in x
    # step_power is (1, n), so a single row is multiplied with no broadcast
    acc = np.empty((R, len(x)), dtype=complex)
    acc[:] = sums[-1]
    for part in sums[-2::-1]:
        acc *= step_power
        acc += part
    return acc


def _powers(x: np.ndarray, K: int) -> np.ndarray:
    """x**0 .. x**(K-1) at the 1-D points x, shape (K, len(x)), by doubling.

    ceil(log2 K) products of whole slabs, where cumprod along the first
    axis costs ten times as much.  Entry j is the product of the same two
    entries whatever K is, so the first k rows hold the bits of
    ``_powers(x, k)``.
    """
    powers = np.empty((K, len(x)), dtype=complex)
    powers[0] = 1.0
    k = 1
    while k < K:
        m = min(k, K - k)
        np.multiply(powers[:m], powers[k - 1] * x, out=powers[k : k + m])
        k += m
    return powers


def _row_sums(row_sets, x: np.ndarray) -> list:
    """``_blocked_horner(rows, x)`` for each (R, K) row set, at the 1-D points x.

    A single point builds one power table x**0 .. x**(K-1), K the longest
    set, and sums each set as one product with a prefix of it, with no
    Horner step; a prefix holds the bits of a table of its own, so each
    set gets the bits of its own table.  More points take
    ``_blocked_horner`` set by set.
    """
    if len(x) != 1:
        return [_blocked_horner(rows, x) for rows in row_sets]
    powers = _powers(x, max(rows.shape[1] for rows in row_sets))
    return [rows @ powers[: rows.shape[1]] for rows in row_sets]


#: candidate segment pairs generated at once in _polyline_self_intersections
_PAIR_BATCH = 1 << 16


def _polyline_self_intersections(points: np.ndarray) -> list:
    """Indices (i, j), i < j, of properly crossing segments of a closed
    polyline, sorted.

    Segment i runs from point i to point i+1 (mod n).  Crossing segments
    share a point, so only pairs whose extents overlap on both axes are
    tested.  They are found by sort and sweep along the axis of smaller
    summed segment extent, where fewer extents overlap: with segments
    sorted stably by the low end of that extent, each is paired with the
    later ones whose low end lies inside its extent.  A later low end is
    no lower than its own, so these are exactly the later segments that
    overlap it, and every overlapping pair is made once, from whichever
    member comes first.  Pairs are made _PAIR_BATCH at a time, which
    bounds memory for any polyline.  Neighbouring segments (j = i+1, and
    the wrap pair (0, n-1)) share an endpoint and are never tested.
    """
    n = len(points)
    px, py = points.real, points.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    dx, dy = qx - px, qy - py

    extents = [(np.minimum(a, b), np.maximum(a, b)) for a, b in ((px, qx), (py, qy))]
    if np.abs(dy).sum() < np.abs(dx).sum():
        extents.reverse()  # sweep along y
    order = np.argsort(extents[0][0], kind="stable")
    (lo, hi), (olo, ohi) = ((a[order], b[order]) for a, b in extents)
    # in sweep order, segment r is paired with the counts[r] segments after it
    counts = np.searchsorted(lo, hi, side="right") - np.arange(1, n + 1)
    row_end = np.cumsum(counts)
    total = int(counts.sum())
    found = [np.empty(0, dtype=int)]  # crossing pairs as keys i*n + j
    for start in range(0, total, _PAIR_BATCH):
        k = np.arange(start, min(start + _PAIR_BATCH, total))
        r = np.searchsorted(row_end, k, side="right")
        s = r + 1 + k - (row_end[r] - counts[r])
        keep = (olo[r] <= ohi[s]) & (olo[s] <= ohi[r])
        a, b = order[r[keep]], order[s[keep]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        keep = (j >= i + 2) & ~((i == 0) & (j == n - 1))
        i, j = i[keep], j[keep]
        # orientation of both endpoints of segment j wrt segment i, and vice versa
        d1 = dx[i] * (py[j] - py[i]) - dy[i] * (px[j] - px[i])
        d2 = dx[i] * (qy[j] - py[i]) - dy[i] * (qx[j] - px[i])
        d3 = dx[j] * (py[i] - py[j]) - dy[j] * (px[i] - px[j])
        d4 = dx[j] * (qy[i] - py[j]) - dy[j] * (qx[i] - px[j])
        cross = (d1 * d2 < 0) & (d3 * d4 < 0)
        found.append(i[cross] * n + j[cross])
    i, j = np.divmod(np.sort(np.concatenate(found)), n)
    return list(zip(i.tolist(), j.tolist()))


def boundary_perimeter(mapping: ExteriorMap, n: int = 4096) -> float:
    """Perimeter of the boundary curve by polyline approximation."""
    pts = mapping.boundary_point(np.linspace(0.0, 2.0 * np.pi, n + 1))
    return float(np.sum(np.abs(np.diff(pts))))


def random_univalent_map(
    rng: np.random.Generator,
    order: int,
    margin: float = 0.8,
    shift_scale: float = 0.2,
) -> ExteriorMap:
    """Draw a random map satisfying sum_k k |a_k| <= margin < 1.

    That coefficient bound is a standard sufficient condition for
    univalence of w + sum a_k w^{-k} on the disk exterior, so the sample
    is guaranteed admissible.  The last coefficient is kept away from
    zero so the drawn order is tight.
    """
    raw = rng.normal(size=order) + 1j * rng.normal(size=order)
    raw[-1] += (0.3 + 0.3j) * np.sign(raw[-1].real + 1e-9)
    weights = np.arange(1, order + 1)
    total = float(np.sum(weights * np.abs(raw)))
    scale = margin * rng.uniform(0.5, 1.0) / total
    a0 = shift_scale * (rng.normal() + 1j * rng.normal())
    return ExteriorMap((a0, *tuple(raw * scale)))
