"""Brute-force quadrature checks for the series results of the package.

The quadrature routines integrate the actual boundary kernels with the
periodic trapezoid rule and know nothing about Faber polynomials or
Grunsky coefficients, so agreement with the series evaluators is a
genuine two-route certification.  ``transmission_residual`` is the
exception: it evaluates the interior series of S and u0 itself, from
one table of Faber values on the boundary (``fields._interior_field``),
and measures how far S + u0 is from the rigid motion there.  Both
series take their derivatives through the
coefficients d of 1/Psi', as the solve does, so that residual cannot
catch a wrong d.  The independent checks of d are the Gamma identity
test against the derivative recurrence, the Kelvin quadrature here,
which ``validate`` compares with both series, and the benchmark's
Cauchy-integral u0.  The rule is spectrally accurate for
smooth periodic integrands, which is why a standoff distance from the
boundary is enforced: closer targets would need specialized quadrature
that the certification role does not require.  At the q rule nodes the
density sum_m (s_m e^{-im theta} + t_m e^{im theta}) / h is one
length-q inverse FFT (``_density_at_nodes``); from order q/2 on,
modes fold onto the slots of lower ones, as the rule sees them.

The rule nodes, and the boundary points of the residuals, are the map's
kept ``boundary_samples(q)``, so one run sums the map once per node
count; nothing here sets an attribute on a map.

``validation_checks`` is the one owner of the package's checks and
their tolerances: it returns them as frozen ``Check`` records, and
``residual_checks`` gives the transmission and equilibrium subset that
``solve`` writes.  The command line only prints the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conformal import ExteriorMap, _point_or_array
from .errors import ProximityError
from .faber import FaberTable
from .fields import _interior_field, single_layer_exterior
from .loading import FarFieldLoading, Material
from .solver import DensitySolution

STANDOFF = 0.05

TRANSMISSION_TOL = 1e-6
EQUILIBRIUM_TOL = 1e-8
CONTINUITY_TOL = 1e-6
ORACLE_TOL = 1e-6
GRUNSKY_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureRule:
    """Periodic trapezoid rule on the boundary angle."""

    q: int
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q < 64 or self.q & (self.q - 1):
            raise ValueError("node count must be a power of two, at least 64")
        object.__setattr__(
            self, "theta", 2.0 * np.pi * np.arange(self.q) / self.q
        )
        object.__setattr__(self, "weight", 2.0 * np.pi / self.q)


def boundary_nodes(mapping: ExteriorMap, rule: QuadratureRule) -> tuple:
    """Boundary points zeta = Psi(w) and arclength densities h = |w Psi'(w)|
    at the rule nodes w = e^{i theta}.

    zeta is the map's kept, read-only ``boundary_samples(q)``, so the
    quadratures of one ``validate`` run sum the map once.
    """
    w, zeta, dpsi = mapping.boundary_samples(rule.q)
    return zeta, np.abs(w * dpsi)


def _density_at_nodes(sol: DensitySolution, h: np.ndarray) -> np.ndarray:
    """The density of ``sol`` at the q rule nodes, h from boundary_nodes.

    e^{i m theta} at theta_j = 2 pi j/q depends on m mod q only, so t_m
    goes to slot m mod q and s_m to slot -m mod q of one length-q
    coefficient vector, summed where modes fold, and one unscaled
    inverse FFT gives the sum at every node.
    """
    q = len(h)
    m = np.arange(1, sol.order + 1)
    c = np.zeros(q, dtype=complex)
    np.add.at(c, m % q, sol.t[: sol.order])
    np.add.at(c, -m % q, sol.s[: sol.order])
    return np.fft.ifft(c, norm="forward") / h


def density_mode(mapping: ExteriorMap, m: int, rule: QuadratureRule) -> np.ndarray:
    """Samples of the boundary basis function e^{i m theta}/h."""
    _, h = boundary_nodes(mapping, rule)
    return np.exp(1j * m * rule.theta) / h


def _target_distances(x, zeta: np.ndarray):
    """Targets as an array, their offsets x - zeta to the nodes along a
    new last axis, and the distances; raises ProximityError when any
    target is closer than STANDOFF to the boundary."""
    x = np.asarray(x, dtype=complex)
    d = x[..., None] - zeta
    r = np.abs(d)
    closest = r.min(axis=-1)
    near = closest < STANDOFF
    if np.any(near):
        raise ProximityError(
            f"target at distance {closest[near].min():.3g} from the boundary; "
            f"need {STANDOFF}"
        )
    return x, d, r


def kelvin_single_layer(
    phi_samples: np.ndarray,
    mapping: ExteriorMap,
    mat: Material,
    x,
    rule: QuadratureRule,
):
    """Single-layer potential of a sampled density, fundamental-matrix form.

    The kernel is the plane elastic fundamental matrix
    G_ij(d) = alpha1/(2 pi) delta_ij ln|d| - alpha2/(2 pi) d_i d_j/|d|^2
    applied to the density as a 2-vector; the result is returned in the
    complex identification S_1 + i S_2.  ``x`` is a scalar target, for
    which a complex is returned, or an array of targets, for which an
    array of the same shape is returned.  The boundary nodes are built
    once per call; temporaries hold (number of targets) x q values.
    """
    zeta, h = boundary_nodes(mapping, rule)
    x, d, r = _target_distances(x, zeta)
    ph = phi_samples * h
    px, py, dx, dy = ph.real, ph.imag, d.real, d.imag
    log_r = (mat.alpha1 / (2.0 * np.pi)) * np.log(r)
    # Re(conj(d) phi h) d / |d|^2, in real arithmetic
    dyad = (mat.alpha2 / (2.0 * np.pi)) * (dx * px + dy * py) / r**2
    sx = np.sum(log_r * px - dyad * dx, axis=-1)
    sy = np.sum(log_r * py - dyad * dy, axis=-1)
    return _point_or_array(x, (sx + 1j * sy) * rule.weight)


def cauchy_operator(
    psi_samples: np.ndarray,
    mapping: ExteriorMap,
    z,
    rule: QuadratureRule,
):
    """(1/2 pi) integral of psi(zeta) / (z - zeta) over the boundary.

    ``z`` is a scalar or an array of targets, as in kelvin_single_layer.
    """
    zeta, h = boundary_nodes(mapping, rule)
    z, d, _ = _target_distances(z, zeta)
    return _point_or_array(z, np.sum(psi_samples / d * h, axis=-1) * rule.weight / (2.0 * np.pi))


def log_operator(
    phi_samples: np.ndarray,
    mapping: ExteriorMap,
    z,
    rule: QuadratureRule,
):
    """(1/2 pi) integral of ln|z - zeta| phi(zeta) over the boundary.

    ``z`` is a scalar or an array of targets, as in kelvin_single_layer.
    """
    zeta, h = boundary_nodes(mapping, rule)
    z, _, r = _target_distances(z, zeta)
    return _point_or_array(
        z, np.sum(np.log(r) * phi_samples * h, axis=-1) * rule.weight / (2.0 * np.pi))


def transmission_residual(
    sol: DensitySolution,
    mapping: ExteriorMap,
    table: FaberTable,
    loading: FarFieldLoading,
    mat: Material,
    q: int = 256,
) -> float:
    """Max boundary mismatch of S + u0 against the rigid motion."""
    zb = mapping.boundary_samples(q)[1]
    S, u0 = _interior_field(sol, table, mapping, mat, loading, zb)
    return float(np.abs(S + u0 - sol.rigid_motion(zb)).max())


def equilibrium_residual(
    sol: DensitySolution, mapping: ExteriorMap, q: int = 2048
) -> np.ndarray:
    """Moments of the density against the three rigid modes, by quadrature.

    Returns |integral phi_1|, |integral phi_2|, and the rotation moment
    |Im integral phi conj(z)| over the boundary.

    The first two certify nothing: phi h is a sum of e^{-+i m theta},
    1 <= m <= n, and the rule integrates each such mode to zero while
    m < q, so they read rounding for every density of order below q.
    Only the rotation moment, 2 pi |Im(t_1 + sum_k conj(a_k) s_k)|,
    constrains the solve.
    """
    rule = QuadratureRule(q)
    zeta, h = boundary_nodes(mapping, rule)
    phi = _density_at_nodes(sol, h)
    total = np.sum(phi * h) * rule.weight
    moment = np.sum(phi * np.conj(zeta) * h) * rule.weight
    return np.array([abs(total.real), abs(total.imag), abs(moment.imag)])


@dataclass(frozen=True)
class Check:
    """One certification: its measured value, tolerance and verdict."""

    name: str
    value: float
    tol: float
    ok: bool


def residual_checks(sol, mapping, table, loading, mat, q: int = 2048) -> tuple:
    """The transmission residual on 256 boundary points and the three
    equilibrium moments on a q-node rule, as ``Check`` records; the
    arguments are those of ``transmission_residual``."""
    trans = transmission_residual(sol, mapping, table, loading, mat, 256)
    moments = [float(v) for v in equilibrium_residual(sol, mapping, q)]
    return (
        Check("transmission", trans, TRANSMISSION_TOL, trans < TRANSMISSION_TOL),
        *(
            Check(f"equilibrium_{k}", v, EQUILIBRIUM_TOL, v < EQUILIBRIUM_TOL)
            for k, v in enumerate(moments, start=1)
        ),
    )


def validation_checks(sol, mapping, table, loading, mat, q: int = 2048) -> tuple:
    """Every check of a solve, as ``Check`` records in a fixed order.

    The Grunsky symmetry, bound and strong inequality of the table; the
    transmission residual and the largest equilibrium moment; the gap of
    the interior and exterior series across the boundary; and the
    largest gap of both series against the Kelvin quadrature of the
    density on a q-node rule, at 10 points inside and 10 outside.  The
    inside points lie on a circle about the boundary's centroid; those
    closer than STANDOFF to the rule nodes, as in a thin inclusion, are
    left out.  One interior sum of S and u0 at the 256 boundary points
    of ``transmission_residual`` and at the inside points gives the
    transmission residual, with the bits of ``residual_checks``, the
    continuity gap and the inside oracle values.  A NaN anywhere fails
    its check.
    """
    n = min(24, table.order)
    c = table.grunsky[:n, :n]
    idx = np.arange(1, n + 1)
    sym = float(np.abs(idx[None, :] * c - (idx[None, :] * c).T).max())
    bound = float((np.abs(c) - 2.0 * idx[:, None] * (1 + 1e-8)).max())
    rng = np.random.default_rng(0)
    # np.min/np.max, unlike the builtins, propagate NaN, so a NaN fails
    r = min(5, n)
    slacks = []
    for _ in range(5):
        lam = rng.normal(size=r) + 1j * rng.normal(size=r)
        lhs = np.sum(idx * np.abs(lam @ c[:r]) ** 2)
        rhs = float(np.sum(np.arange(1, r + 1) * np.abs(lam) ** 2))
        slacks.append(rhs - lhs)
    worst_slack = float(np.min(slacks))
    eqmax = float(np.max(equilibrium_residual(sol, mapping, q)))

    # the interior series (S and u0 together) and the exterior one at the
    # 256 boundary points z = Psi(w) of the transmission residual, and
    # each at its oracle points, in one call per side
    rule = QuadratureRule(q)
    zeta, h = boundary_nodes(mapping, rule)
    w, boundary, _ = mapping.boundary_samples(256)
    center = boundary.mean()
    radius = 0.45 * np.abs(boundary - center).min()
    ring = center + radius * np.exp(1j * (2.0 * np.pi * np.arange(10) / 10))
    ring = ring[np.abs(ring[:, None] - zeta).min(axis=1) >= STANDOFF]
    z_in = np.concatenate([boundary, ring])
    w_out = np.concatenate([w, 1.5 * np.exp(2j * np.pi * np.arange(10) / 10)])
    s_in, u0 = _interior_field(sol, table, mapping, mat, loading, z_in)
    s_out = single_layer_exterior(sol, table, mapping, mat, w_out)
    nb = len(w)
    trans = float(np.abs(s_in[:nb] + u0[:nb] - sol.rigid_motion(boundary)).max())
    cont = float(np.abs(s_in[:nb] - s_out[:nb]).max())
    targets = np.concatenate([ring, mapping.eval(w_out[nb:])])
    quad = kelvin_single_layer(_density_at_nodes(sol, h), mapping, mat, targets, rule)
    worst = float(np.max(np.abs(np.concatenate([s_in[nb:], s_out[nb:]]) - quad)))
    return (
        Check("grunsky_symmetry", sym, GRUNSKY_SYMMETRY_TOL, sym < GRUNSKY_SYMMETRY_TOL),
        Check("grunsky_bound", bound, 0.0, bound <= 0.0),
        Check("grunsky_strong_inequality", -worst_slack, 1e-8, worst_slack >= -1e-8),
        Check("transmission", trans, TRANSMISSION_TOL, trans < TRANSMISSION_TOL),
        Check("equilibrium", eqmax, EQUILIBRIUM_TOL, eqmax < EQUILIBRIUM_TOL),
        Check("boundary_continuity", cont, CONTINUITY_TOL, cont < CONTINUITY_TOL),
        Check("oracle_quadrature", worst, ORACLE_TOL, worst < ORACLE_TOL),
    )
