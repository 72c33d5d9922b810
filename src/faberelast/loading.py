"""Material constants and far-field loadings in the Faber basis.

A loading is the pair of analytic potentials (h, l) of the background
displacement, stored through their Faber coefficient vectors (A_m) and
(B_m):

    2*u0(z) = kappa * sum_m A_m F_m(z)
              - z * sum_m conj(A_m) conj(F_m'(z))
              - sum_m conj(B_m) conj(F_m(z)).

That is the Kolosov-Muskhelishvili form kappa h - z conj(h') - conj(l).
``eval_u0`` sums it from the values of F_0 .. F_p alone: h' is
re-expanded in the Faber basis through the coefficients d of 1/Psi' (see
faber), so no derivative recurrence runs.  The interior single layer of
fields is the same form of two other Faber series.  ``_km_displacement``
takes a list of such (phi, psi) pairs and sums them all from one table
of F_0 .. F_N, N the longest, so fields gets S and u0 at the same points
from one recurrence; each pair keeps the bits of a sum of its own.  At
an exterior point z = Psi(w), a probe or a grid point, fields evaluates
u0 without any recurrence, through the Grunsky rows: F_m(Psi(w)) =
w**m + sum_k c_{m,k} w**-k and F_m'(Psi(w)) Psi'(w) = m w**(m-1) -
sum_k k c_{m,k} w**-(k+1) make h, h' Psi' and l polynomials in w and
1/w.

Keeping the loading as finite coefficient vectors keeps the downstream
solve exact; the contour-sampling helper below converts a function-
defined loading into coefficients with spectral accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conformal import ExteriorMap, _point_or_array, _readonly
from .errors import ConvexityError, SampleShapeError, TruncationError
from .faber import FaberTable, _derivative_coefficients, _point_values


@dataclass(frozen=True)
class Material:
    """Isotropic material data.

    Either built from a Lame pair (lam, mu), which fixes
    alpha1 = (1/mu + 1/(2 mu + lam))/2, alpha2 = (1/mu - 1/(2 mu + lam))/2
    and kappa = (lam + 3 mu)/(lam + mu), or synthetically from (alpha1,
    kappa) directly with alpha2 = alpha1/kappa and no Lame pair.  The
    synthetic route accepts kappa outside the physical range (1, 3];
    some published field plots use such values and they are needed to
    reproduce them.

    Both constructors give alpha1 = kappa alpha2 (up to rounding), and
    the solve and the interior single layer rely on it: they read only
    alpha2 and kappa.
    """

    alpha1: float
    alpha2: float
    kappa: float
    lam: float | None = None
    mu: float | None = None

    @property
    def synthetic(self) -> bool:
        return self.lam is None

    @classmethod
    def from_lame(cls, lam: float, mu: float) -> "Material":
        if not (mu > 0 and lam + mu > 0):
            raise ConvexityError(
                f"need mu > 0 and lam + mu > 0, got lam={lam}, mu={mu}"
            )
        alpha1 = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
        alpha2 = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
        kappa = (lam + 3.0 * mu) / (lam + mu)
        return cls(alpha1=alpha1, alpha2=alpha2, kappa=kappa, lam=lam, mu=mu)

    @classmethod
    def from_figure_params(cls, alpha1: float, kappa: float) -> "Material":
        if alpha1 <= 0:
            raise ValueError("alpha1 must be positive")
        # kappa + 1 divides the rotation channel of the solve
        if kappa == 0 or kappa == -1:
            raise ValueError("kappa must be neither 0 nor -1")
        return cls(alpha1=alpha1, alpha2=alpha1 / kappa, kappa=kappa)


def material_from_lame(lam: float, mu: float) -> Material:
    return Material.from_lame(lam, mu)


def material_from_figure_params(alpha1: float, kappa: float) -> Material:
    return Material.from_figure_params(alpha1, kappa)


@dataclass(frozen=True, eq=False)
class FarFieldLoading:
    """Faber coefficients (A_m) of h and (B_m) of l, padded to equal length.

    A and B are read-only copies of the arrays given: the exterior probe
    of fields keeps coefficient rows built from them in ``_rows``, one
    (table, rows) pair, so they must not change.  A pickle carries A and
    B only, and the copy it makes rebuilds its rows.  Equality and
    hashing follow identity, as the kept rows match their owner by ``is``.
    """

    A: np.ndarray
    B: np.ndarray
    _rows: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        A = np.atleast_1d(np.asarray(self.A, dtype=complex))
        B = np.atleast_1d(np.asarray(self.B, dtype=complex))
        n = max(len(A), len(B), 1)  # an empty loading is the zero loading, (0j,)
        object.__setattr__(self, "A", _readonly(np.pad(A, (0, n - len(A)))))
        object.__setattr__(self, "B", _readonly(np.pad(B, (0, n - len(B)))))

    def __reduce__(self):  # through the constructor, without the kept rows
        return type(self), (self.A, self.B)

    def coefficient_A(self, m: int) -> complex:
        return complex(self.A[m]) if 0 <= m < len(self.A) else 0.0 + 0.0j

    def coefficient_B(self, m: int) -> complex:
        return complex(self.B[m]) if 0 <= m < len(self.B) else 0.0 + 0.0j

    @cached_property
    def degree(self) -> int:
        """Highest index carrying a nonzero coefficient in either vector.

        Computed on first read; A and B are read-only.
        """
        nz = np.nonzero((self.A != 0) | (self.B != 0))[0]
        return int(nz[-1]) if len(nz) else 0

    def scaled(self, factor: complex) -> "FarFieldLoading":
        return FarFieldLoading(self.A * factor, self.B * factor)

    def __add__(self, other: "FarFieldLoading") -> "FarFieldLoading":
        n = max(len(self.A), len(other.A))
        return FarFieldLoading(
            np.pad(self.A, (0, n - len(self.A))) + np.pad(other.A, (0, n - len(other.A))),
            np.pad(self.B, (0, n - len(self.B))) + np.pad(other.B, (0, n - len(other.B))),
        )


def _km_displacement(pairs, table: FaberTable, kappa: float, z) -> list:
    """kappa phi(z) - z conj(phi'(z)) - conj(psi(z)) at z for each (phi, psi) of ``pairs``.

    z is a point or an array.  phi and psi of a pair are Faber coefficient
    vectors of equal length; phi' enters through its Faber coefficients
    from d, so only F_0..F_N are evaluated, N + 1 the longest length.  One
    table of them serves every pair, and each pair is summed over its own
    prefix of it, so its bits are those of a table of its own length.
    ``table.d`` must hold d_0 .. d_{N-1}.
    """
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    F = _point_values(table.mapping._coeff_array, max(len(phi) for phi, _ in pairs) - 1, za)
    out = []
    for phi, psi in pairs:
        dphi = np.append(_derivative_coefficients(phi, table.d), 0.0)
        # einsum, not tensordot: a threaded BLAS spins up its threads for
        # these thin products and then costs more than the whole sum
        sums = np.einsum("rk,k...->r...", np.stack([phi, dphi, psi]), F[: len(phi)])
        out.append(kappa * sums[0] - za * np.conj(sums[1]) - np.conj(sums[2]))
    return [_point_or_array(z, v) for v in out]


def _u0_potentials(loading: FarFieldLoading, table: FaberTable) -> tuple:
    """Faber coefficients of h/2 and l/2, up to the loading degree."""
    p = loading.degree
    if p > table.order:
        raise IndexError("loading degree exceeds the Faber table order")
    # 2 u0 is the KM displacement of (A, B); halving them is exact
    return 0.5 * loading.A[: p + 1], 0.5 * loading.B[: p + 1]


def eval_u0(loading: FarFieldLoading, table: FaberTable, mat: Material, z):
    """Background displacement u0(z); valid in the whole plane."""
    return _km_displacement([_u0_potentials(loading, table)], table, mat.kappa, z)[0]


def faber_coefficients_from_samples(samples, m: int, r: float) -> complex:
    """Coefficient d_m of v = sum d_m F_m from samples of v(Psi(w)) on |w| = r.

    ``samples`` must be taken on the uniform angular grid theta_q =
    2 pi q / Q.  The Cauchy-integral coefficient

        d_m = (1 / 2 pi i) * integral_{|w|=r} v(Psi(w)) w^{-m-1} dw

    reduces under the periodic trapezoid rule to a plain discrete
    Fourier mode, spectrally accurate for v analytic past |w| = r.  Q
    samples resolve the modes m < Q only; m >= Q raises TruncationError.
    """
    samples = np.asarray(samples, dtype=complex)
    _check_rule(r, m, len(samples))
    return complex(_trapezoid_sums(samples, np.array([m]), r)[0])


def _check_rule(r: float, count: int, q: int) -> None:
    """ValueError unless r > 1; TruncationError unless the modes up to ``count`` are below q."""
    if r <= 1.0:
        raise ValueError("sampling radius must exceed 1")
    if count >= q:
        raise TruncationError(f"count {count} needs more than q = {q} samples: "
                              f"mode {count} would alias mode {count % q}")


def _trapezoid_sums(samples: np.ndarray, m: np.ndarray, r: float) -> np.ndarray:
    """The trapezoid sums of the modes m from samples on |w| = r.

    The sum for mode m is FFT bin m mod q, scaled by r**-m / q (Ellacott,
    Math. Comp. 40, 1983), so one FFT gives every mode.
    """
    q = len(samples)
    return np.fft.fft(samples)[m % q] / q * r ** -m.astype(float)


def faber_coefficients(
    v, mapping: ExteriorMap, count: int, r: float = 2.0, q: int = 512
) -> np.ndarray:
    """First ``count + 1`` Faber coefficients of a callable loading v(z).

    All of them are the trapezoid sums of ``faber_coefficients_from_samples``,
    from one FFT of the samples.  v is called once, on the q points of
    |w| = r as one array, and must return one value per point, an array
    of shape (q,); any other shape raises SampleShapeError.  r <= 1
    raises ValueError and ``count`` >= q, whose modes alias lower ones,
    TruncationError, both before v is sampled.
    """
    _check_rule(r, count, q)
    theta = 2.0 * np.pi * np.arange(q) / q
    w = r * np.exp(1j * theta)
    samples = np.asarray(v(mapping.eval(w)), dtype=complex)
    if samples.shape != (q,):
        raise SampleShapeError(f"v returned shape {samples.shape}, not ({q},): one value a sample")
    return _trapezoid_sums(samples, np.arange(count + 1), r)
