"""Output checks that share no code with the Faber series.

Two independent routes stand behind every check:

* the background field u0 is evaluated from the Faber coefficients by
  the Cauchy integral of the Faber generating function,
      sum_m c_m F_m(z) = (1/2 pi i) oint_{|w|=R} C(w) Psi'(w)/(Psi(w) - z) dw,
  with C(w) = sum_m c_m w^m and R outside every root of Psi(w) = z;
* the single layer S of a density is summed by the periodic trapezoid
  rule against the plane Kelvin fundamental matrix.

Checks return a list of problems; an empty list means the output passed.
Tolerances are relative to the size of the quantities compared.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: u0 + S against the rigid motion, and series against quadrature; the
#: same bound the program's own transmission certification uses
TOL_FIELD = 1e-6
#: force and moment of the density, relative to its total variation
TOL_EQUILIBRIUM = 1e-8
#: k c_{m,k} = m c_{k,m}; both sides come from one exact recursion
TOL_GRUNSKY = 1e-9
#: F_m' = sum_j gamma_{m,j} F_j + gamma_{m,0} at boundary nodes
TOL_GAMMA = 1e-6
#: identities that hold up to rounding (u = u0 + S, the rigid motion,
#: Psi(w) = z after Newton with its 1e-12 tolerance)
TOL_EXACT = 1e-10
#: targets closer than this to the boundary are left to the cheap checks,
#: as the trapezoid rule loses accuracy there
STANDOFF = 0.05

DENSITY_NODES = 2048
CONTOUR_NODES = 1024
#: boundary nodes and contour for the Faber values behind the Gamma check
GAMMA_NODES = 64
GAMMA_RADIUS = 1.02
GAMMA_CONTOUR = 4096
#: grid rows per field CSV checked against the independent routes
SAMPLED_ROWS = 128

FIELD_HEADER = "x,y,re_w,im_w,region,re_u0,im_u0,re_S,im_S,re_u,im_u"
VALIDATE_CHECKS = (
    "univalence",
    "grunsky_symmetry",
    "grunsky_bound",
    "grunsky_strong_inequality",
    "transmission",
    "equilibrium",
    "boundary_continuity",
    "oracle_quadrature",
)


# -- the map -------------------------------------------------------------


def psi(a: np.ndarray, w):
    """Psi(w) and Psi'(w) for coefficients a0..aM, by Horner in 1/w."""
    w = np.asarray(w, dtype=complex)
    u = 1.0 / w
    val = np.zeros_like(w)
    der = np.zeros_like(w)
    for k in range(len(a) - 1, -1, -1):
        val = val * u + a[k]
    for k in range(len(a) - 1, 0, -1):
        der = der * u + k * a[k]
    return w + val, 1.0 - der * u * u


def boundary(a: np.ndarray, q: int) -> tuple:
    """Nodes zeta = Psi(e^{i theta}) and arclength densities |Psi'|."""
    theta = 2.0 * math.pi * np.arange(q) / q
    zeta, dpsi = psi(a, np.exp(1j * theta))
    return theta, zeta, np.abs(dpsi)


def boundary_distance(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    _, zeta, _ = boundary(a, 4096)
    out = np.empty(len(z))
    for lo in range(0, len(z), 256):
        chunk = z[lo : lo + 256]
        out[lo : lo + 256] = np.abs(chunk[:, None] - zeta[None, :]).min(axis=1)
    return out


# -- the background field by Cauchy integrals ------------------------------


def faber_sum(a, coeffs, z, radius, nodes: int = CONTOUR_NODES) -> tuple:
    """sum c_m F_m(z) and its z-derivative, by the generating function.

    ``radius`` (one per target) must exceed the modulus of every root of
    Psi(w) = z: 1 for points inside the inclusion, anything above |w|
    for z = Psi(w) outside it.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    radius = np.broadcast_to(np.asarray(radius, dtype=float), z.shape)
    e = np.exp(2j * math.pi * np.arange(nodes) / nodes)
    val = np.empty_like(z)
    der = np.empty_like(z)
    for lo in range(0, len(z), 32):
        sl = slice(lo, lo + 32)
        w = radius[sl, None] * e[None, :]
        P, dP = psi(a, w)
        C = np.zeros_like(w)
        for c in coeffs[::-1]:
            C = C * w + c
        kern = C * dP * w / (P - z[sl, None])
        val[sl] = kern.mean(axis=1)
        der[sl] = (kern / (P - z[sl, None])).mean(axis=1)
    return val, der


def background(case, z, radius) -> np.ndarray:
    """u0 = (kappa h - z conj(h') - conj(l)) / 2."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    h, dh = faber_sum(case.map_coeffs, case.A, z, radius)
    l, _ = faber_sum(case.map_coeffs, case.B, z, radius)
    return 0.5 * (case.kappa * h - z * np.conj(dh) - np.conj(l))


# -- the single layer by quadrature --------------------------------------


class Density:
    """Boundary density sum_m (s_m e^{-im theta} + t_m e^{im theta}) / |Psi'|."""

    def __init__(self, case, s, t, q: int = DENSITY_NODES):
        self.case = case
        theta, self.zeta, self.h = boundary(case.map_coeffs, q)
        m = np.arange(1, len(s) + 1)
        modes = np.exp(1j * np.outer(theta, m))
        self.phi = (modes.conj() @ np.asarray(s) + modes @ np.asarray(t)) / self.h
        self.weight = self.h * (2.0 * math.pi / q)
        self.mass = float(np.sum(np.abs(self.phi) * self.weight))

    def single_layer(self, x) -> np.ndarray:
        """Kelvin single layer at targets x at least STANDOFF off the boundary."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        a1, a2 = self.case.alpha1, self.case.alpha2
        out = np.empty_like(x)
        for lo in range(0, len(x), 64):
            d = x[lo : lo + 64, None] - self.zeta[None, :]
            r2 = (d * d.conj()).real
            kern = (a1 / (4.0 * math.pi)) * np.log(r2) * self.phi - (a2 / (2.0 * math.pi)) * (
                (d.conj() * self.phi).real * d / r2
            )
            out[lo : lo + 64] = kern @ self.weight
        return out

    def scale(self, x) -> float:
        """Size of S near x: the density mass times the kernel size."""
        reach = np.abs(np.atleast_1d(x)[:, None] - self.zeta[None, ::16]).max()
        return self.mass * (self.case.alpha1 * (1.0 + abs(math.log(reach))) + self.case.alpha2)

    def equilibrium(self) -> list:
        force = np.sum(self.phi * self.weight)
        moment = np.sum(self.phi * np.conj(self.zeta) * self.weight).imag
        bound = TOL_EQUILIBRIUM * max(self.mass, 1e-300) * (1.0 + np.abs(self.zeta).max())
        problems = []
        if abs(force) > bound:
            problems.append(f"density force {abs(force):.3e} exceeds {bound:.3e}")
        if abs(moment) > bound:
            problems.append(f"density moment {abs(moment):.3e} exceeds {bound:.3e}")
        return problems


def interior_targets(case, count: int = 32, depth: float = 1.2 * STANDOFF) -> np.ndarray:
    """a0 and points just inside the boundary, where errors in high modes,
    which decay inward like |w|^m, still show; points that land nearer the
    boundary than STANDOFF, or outside, at tight bends are dropped."""
    theta = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    e = np.exp(1j * theta)
    zeta, dpsi = psi(case.map_coeffs, e)
    tangent = 1j * e * dpsi
    x = zeta + depth * 1j * tangent / np.abs(tangent)
    x = x[(boundary_distance(case.map_coeffs, x) >= STANDOFF) & inside(case.map_coeffs, x)]
    # a0 is always inside: |Psi(e^{i theta}) - a0| >= 1 - sum_k |a_k| > 0
    return np.concatenate([[case.map_coeffs[0]], x])


def inside(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Winding number of the boundary polyline around each x is one."""
    _, zeta, _ = boundary(a, 4096)
    turn = np.angle((np.roll(zeta, -1)[None, :] - x[:, None]) / (zeta[None, :] - x[:, None]))
    return np.abs(turn.sum(axis=1) - 2.0 * math.pi) < 1.0


def rigid(c: tuple, z) -> np.ndarray:
    c1, c2, c3 = c
    return c1 + 1j * c2 - 1j * c3 * np.asarray(z, dtype=complex)


def _relative(err: np.ndarray, scale: float) -> float:
    return float(np.max(err, initial=0.0) / max(scale, 1e-300))


# -- solutions -------------------------------------------------------------


def check_solution(case, dens: Density, c: tuple) -> list:
    """Inside the inclusion u0 + S equals the rigid motion, and the density
    is in equilibrium; S is the quadrature of the density."""
    if not (np.all(np.isfinite(dens.phi)) and np.all(np.isfinite(c))):
        return ["solution has non-finite entries"]
    problems = dens.equilibrium()
    if case.targets is None:
        case.targets = interior_targets(case)
    x = case.targets
    S = dens.single_layer(x)
    u0 = background(case, x, 1.0)
    target = rigid(c, x)
    scale = np.abs(u0).max() + np.abs(S).max() + np.abs(target).max()
    res = _relative(np.abs(u0 + S - target), scale)
    if not res <= TOL_FIELD:
        problems.append(f"interior u0 + S misses the rigid motion by {res:.3e} (relative)")
    return problems


def read_solution_csv(path: Path) -> tuple:
    lines = Path(path).read_text().splitlines()
    if lines[0] != "m,re_s,im_s,re_t,im_t":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise ValueError(f"{path}: mode column is not 1..N")
    return data[:, 1] + 1j * data[:, 2], data[:, 3] + 1j * data[:, 4]


def read_summary(path: Path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def summary_constants(summary: dict) -> tuple:
    return float(summary["c1"]), float(summary["c2"]), float(summary["c3"])


def check_solve_outputs(case, prefix: str) -> list:
    try:
        s, t = read_solution_csv(Path(prefix + "_solution.csv"))
        summary = read_summary(Path(prefix + "_summary.txt"))
        c = summary_constants(summary)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"solve outputs unreadable: {exc}"]
    problems = []
    if len(s) != case.n:
        problems.append(f"solution has {len(s)} modes, expected {case.n}")
    if summary.get("status") != "pass":
        problems.append(f"summary status is {summary.get('status')!r}")
    return problems + check_solution(case, Density(case, s, t), c)


# -- single-point probes -----------------------------------------------------


def check_probes(case, dens: Density, samples) -> list:
    """Exterior samples: Psi(w) = z, u = u0 + S, u0 by the Cauchy integral
    and S by quadrature."""
    problems = []
    w = np.array([smp.w for smp in samples], dtype=complex)
    z = np.array([smp.z for smp in samples], dtype=complex)
    u0 = np.array([smp.u0 for smp in samples], dtype=complex)
    S = np.array([smp.S for smp in samples], dtype=complex)
    u = np.array([smp.u for smp in samples], dtype=complex)
    if any(smp.region != "exterior" for smp in samples):
        problems.append("a probe off the inclusion is not labelled exterior")
    if not np.allclose(w, case.probes, rtol=1e-15, atol=0.0):
        problems.append("probe preimages differ from the requested points")
    zz, _ = psi(case.map_coeffs, w)
    if _relative(np.abs(zz - z), 1.0 + np.abs(z).max()) > TOL_EXACT:
        problems.append("probe z is not Psi(w)")
    if _relative(np.abs(u - u0 - S), np.abs(u0).max() + np.abs(S).max()) > TOL_EXACT:
        problems.append("probe u differs from u0 + S")
    own_u0 = background(case, zz, 1.05 * np.abs(w))
    res = _relative(np.abs(u0 - own_u0), np.abs(own_u0).max())
    if not res <= TOL_FIELD:
        problems.append(f"probe u0 off the Cauchy-integral value by {res:.3e}")
    quad = dens.single_layer(zz)
    res = _relative(np.abs(S - quad), dens.scale(zz))
    if not res <= TOL_FIELD:
        problems.append(f"probe S off the quadrature value by {res:.3e}")
    return problems


# -- field grids -------------------------------------------------------------


def read_field_csv(path: Path) -> tuple:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    if header != FIELD_HEADER:
        raise ValueError(f"unexpected field header {header!r}")
    num = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3, 5, 6, 7, 8, 9, 10), ndmin=2)
    region = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(4,), dtype=str, ndmin=1)
    return num, region


def check_field_csv(case, path: Path, c: tuple, s, t, rng: np.random.Generator) -> list:
    """Every row: grid position, region bookkeeping, u = u0 + S outside,
    the rigid motion inside, and u0 + S = rigid motion inside.  A sample of
    rows past the standoff: u0 by the Cauchy integral and S by quadrature."""
    try:
        num, region = read_field_csv(path)
    except (OSError, ValueError) as exc:
        return [f"field CSV unreadable: {exc}"]
    xmin, xmax, ymin, ymax, nx, ny = case.grid
    if len(num) != nx * ny:
        return [f"field CSV has {len(num)} rows, expected {nx * ny}"]
    z = num[:, 0] + 1j * num[:, 1]
    w = num[:, 2] + 1j * num[:, 3]
    u0 = num[:, 4] + 1j * num[:, 5]
    S = num[:, 6] + 1j * num[:, 7]
    u = num[:, 8] + 1j * num[:, 9]
    problems = []
    grid = (np.linspace(xmin, xmax, nx)[None, :] + 1j * np.linspace(ymin, ymax, ny)[:, None]).ravel()
    if not np.array_equal(z, grid):
        problems.append("field rows are not the grid points in row-major order")
    ext = region == "exterior"
    inner = (region == "interior") | (region == "boundary")
    if not np.all(ext | inner):
        problems.append("field CSV has an unknown region label")
    if not np.all(np.isfinite(num[:, 4:])):
        problems.append("field CSV has non-finite displacement values")
    if problems:
        return problems

    if np.any(np.isfinite(w[region == "interior"])):
        problems.append("an interior row carries a preimage")
    if np.any(np.abs(w[ext]) <= 1.0):
        problems.append("an exterior row has |w| <= 1")
    zz, _ = psi(case.map_coeffs, w[ext])
    if _relative(np.abs(zz - z[ext]) / np.maximum(1.0, np.abs(z[ext])), 1.0) > TOL_EXACT:
        problems.append("an exterior row has Psi(w) != z")
    big = np.abs(u0[ext]) + np.abs(S[ext])
    if _relative(np.abs(u[ext] - u0[ext] - S[ext]) / np.maximum(big, 1e-300), 1.0) > TOL_EXACT:
        problems.append("an exterior row has u != u0 + S")
    target = rigid(c, z[inner])
    size = abs(c[0]) + abs(c[1]) + abs(c[2]) * (1.0 + np.abs(z[inner]))
    if _relative(np.abs(u[inner] - target) / size, 1.0) > TOL_EXACT:
        problems.append("an interior or boundary row does not carry the rigid motion")
    if np.any(inner):
        scale = np.abs(u0[inner]).max() + np.abs(S[inner]).max() + np.abs(target).max()
        res = _relative(np.abs(u0[inner] + S[inner] - target), scale)
        if not res <= TOL_FIELD:
            problems.append(f"inside the inclusion u0 + S misses the rigid motion by {res:.3e}")

    candidates = rng.permutation(len(z))[: 4 * SAMPLED_ROWS]
    far = candidates[boundary_distance(case.map_coeffs, z[candidates]) >= STANDOFF]
    pick = np.sort(far[:SAMPLED_ROWS])
    radius = np.where(ext[pick], 1.05 * np.abs(w[pick]), 1.0)
    own = background(case, z[pick], radius)
    res = _relative(np.abs(u0[pick] - own) / np.maximum(np.abs(own), 1.0), 1.0)
    if not res <= TOL_FIELD:
        problems.append(f"sampled u0 off the Cauchy-integral value by {res:.3e}")
    dens = Density(case, s, t)
    quad = dens.single_layer(z[pick])
    res = _relative(np.abs(S[pick] - quad), dens.scale(z[pick]))
    if not res <= TOL_FIELD:
        problems.append(f"sampled S off the quadrature value by {res:.3e}")
    return problems


def check_field_outputs(case, prefix: str, rng: np.random.Generator) -> list:
    """The field grid of a config whose solve outputs were written first."""
    try:
        s, t = read_solution_csv(Path(prefix + "_solution.csv"))
        c = summary_constants(read_summary(Path(prefix + "_summary.txt")))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"solve outputs needed by the field check are unreadable: {exc}"]
    return check_field_csv(case, Path(prefix + "_field.csv"), c, s, t, rng)


# -- validate ------------------------------------------------------------------


def check_validate_output(text: str) -> list:
    """Every certification line is present and passes."""
    seen = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in VALIDATE_CHECKS:
            seen[parts[0]] = parts[-1]
    problems = [f"validate did not report {name}" for name in VALIDATE_CHECKS if name not in seen]
    problems += [f"validate reports {name}: {v}" for name, v in seen.items() if v != "pass"]
    return problems


# -- Faber table dumps -----------------------------------------------------------


def read_complex_csv(path: Path) -> np.ndarray:
    rows = [[complex(v) for v in line.split(",")] for line in Path(path).read_text().splitlines()]
    return np.array(rows, dtype=complex)


def faber_on_boundary(a: np.ndarray, order: int, theta: np.ndarray) -> tuple:
    """F_0..F_order and their derivatives at Psi(e^{i theta}).

    Psi'(w)/(Psi(w) - z) = sum_m F_m(z) w^{-m-1} for |w| > 1 when z is on
    the boundary, so both come from one FFT per node on |w| = GAMMA_RADIUS.
    """
    z, _ = psi(a, np.exp(1j * theta))
    e = np.exp(2j * math.pi * np.arange(GAMMA_CONTOUR) / GAMMA_CONTOUR)
    P, dP = psi(a, GAMMA_RADIUS * e)
    g = dP[None, :] / (P[None, :] - z[:, None])
    m = np.arange(order + 1)
    idx = (-(m + 1)) % GAMMA_CONTOUR
    lift = GAMMA_RADIUS ** (m + 1)
    F = np.fft.fft(g, axis=1)[:, idx] * lift / GAMMA_CONTOUR
    dF = np.fft.fft(g / (P[None, :] - z[:, None]), axis=1)[:, idx] * lift / GAMMA_CONTOUR
    return F, dF


def check_faber_tables(case, grunsky, gamma, gamma0, monomial) -> list:
    problems = []
    order = len(gamma0)
    if grunsky.shape != (order, order) or gamma.shape != (order, order):
        return [f"table shapes {grunsky.shape}, {gamma.shape} do not match order {order}"]
    if monomial.shape != (order + 1, order + 1) or not np.array_equal(
        np.diag(monomial), np.ones(order + 1)
    ) or np.any(np.triu(monomial, 1)):
        problems.append("monomial table is not monic of degree m in row m")

    k = np.arange(1, order + 1)
    kc = grunsky * k[None, :]
    res = _relative(np.abs(kc - kc.T), np.abs(kc).max())
    if not res <= TOL_GRUNSKY:
        problems.append(f"Grunsky symmetry k c_mk = m c_km off by {res:.3e} (relative)")

    if np.any(np.triu(gamma)):
        problems.append("gamma has entries on or above the diagonal")
    theta = 2.0 * math.pi * (np.arange(GAMMA_NODES) + 0.5) / GAMMA_NODES
    F, dF = faber_on_boundary(case.map_coeffs, order, theta)
    rhs = F[:, 1:] @ gamma.T + gamma0[None, :]
    size = np.abs(dF[:, 1:]) + np.abs(F[:, 1:]) @ np.abs(gamma).T + np.abs(gamma0)[None, :]
    rows = (np.abs(dF[:, 1:] - rhs) / size).max(axis=0)
    worst = int(np.argmax(rows))
    if not rows[worst] <= TOL_GAMMA:
        problems.append(
            f"F_m' = sum_j gamma_mj F_j + gamma_m0 fails from row {1 + int(np.argmax(rows > TOL_GAMMA))}; "
            f"worst row {worst + 1} off by {rows[worst]:.3e} (relative)"
        )
    return problems


def check_faber_outputs(case, prefix: str) -> list:
    try:
        tables = [read_complex_csv(Path(f"{prefix}_{name}.csv")) for name in ("grunsky", "gamma", "monomial")]
        gamma0 = read_complex_csv(Path(f"{prefix}_gamma0.csv"))[:, 0]
    except (OSError, ValueError, IndexError) as exc:
        return [f"faber-table outputs unreadable: {exc}"]
    grunsky, gamma, monomial = tables
    return check_faber_tables(case, grunsky, gamma, gamma0, monomial)
