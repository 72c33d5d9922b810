"""Workload inputs: maps, loadings, configs and probe points.

Every input is plain numpy data made here from the seed, so the program
receives only generated configs and arrays.  Maps come from this file's
own generator rather than ``faberelast.conformal.random_univalent_map``,
so a change to the library cannot change the benchmark's inputs.

A case is one inclusion problem: a map, a material, a far field given
by its Faber coefficient vectors (A_m) of h and (B_m) of l, a truncation
order, and the probe points of its library operation.  CLI workloads
also carry the config file the subcommands read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("figs_cli", "sweep_solve", "high_degree_cli")

#: radius and node count handed to ``faber_coefficients``; r close to 1
#: keeps degree-120 samples of O(1) Faber coefficients well scaled, and
#: 1024 nodes put the aliased negative modes below 1e-20 at that radius
SAMPLE_RADIUS = 1.05
SAMPLE_NODES = 1024

PROBES_PER_CASE = 4
SWEEP_CASES = 48
SWEEP_MAX_ORDER = 12
SWEEP_MAX_DEGREE = 20

#: the (12, 120) case is drawn once from this fixed seed: every operation
#: on it fails under a known fault, and a failing input must not move with
#: the run's seed, or the failed share would change between runs
HIGH_DEGREE_SEED = 12120
HIGH_ORDER = 12
HIGH_DEGREE = 120
HIGH_GRID = (-3.0, 3.0, -3.0, 3.0, 81, 81)

FIG_NAMES = ("fig1", "fig2", "fig3")
CONTROL_GRID = (-3.0, 3.0, -3.0, 3.0, 41, 41)


@dataclass
class Case:
    name: str
    map_coeffs: np.ndarray  # a0 .. aM
    alpha1: float
    alpha2: float
    kappa: float
    A: np.ndarray
    B: np.ndarray
    n: int
    probes: np.ndarray  # preimage points w of the displacement probes
    material_spec: dict  # how the library Material is built
    config: Path | None = None
    grid: tuple | None = None
    quadrature_q: int = 2048
    targets: np.ndarray | None = None  # interior check points, made once

    @property
    def degree(self) -> int:
        return max(len(self.A), len(self.B)) - 1


@dataclass
class Workload:
    name: str
    seed: int
    cli_cases: list = field(default_factory=list)
    lib_cases: list = field(default_factory=list)


class FaberPotential:
    """The far-field potential z -> sum_m c_m F_m(z) as a user callable.

    It evaluates the Faber polynomials by their three-term-per-order
    recurrence F_{m+1} = z F_m - sum_s a_s F_{m-s} - m a_m, which is
    cheap and stable; the checks never use it, they evaluate the same
    sum by a Cauchy integral instead.
    """

    def __init__(self, coeffs, map_coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.a = np.asarray(map_coeffs, dtype=complex)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        a, M = self.a, len(self.a) - 1
        F = [np.ones_like(z)]
        total = self.coeffs[0] * F[0]
        for m in range(len(self.coeffs) - 1):
            new = z * F[m]
            for s in range(min(m, M) + 1):
                new = new - a[s] * F[m - s]
            if m <= M:
                new = new - m * a[m]
            F.append(new)
            total = total + self.coeffs[m + 1] * new
        return total


def random_map(rng: np.random.Generator, order: int) -> np.ndarray:
    """Coefficients a0..aM with sum_k k|a_k| <= 0.8, a sufficient condition
    for univalence; the last one is kept away from zero."""
    raw = rng.normal(size=order) + 1j * rng.normal(size=order)
    raw[-1] += (0.3 + 0.3j) * np.sign(raw[-1].real + 1e-9)
    total = float(np.sum(np.arange(1, order + 1) * np.abs(raw)))
    scale = 0.8 * rng.uniform(0.5, 1.0) / total
    a0 = 0.2 * (rng.normal() + 1j * rng.normal())
    return np.concatenate([[a0], raw * scale])


def random_far_field(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Faber coefficients c_0..c_p with E|c_m|^2 = 1/(m+1)."""
    m = np.arange(degree + 1)
    return (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) / np.sqrt(
        2.0 * (m + 1)
    )


def lame_material(lam: float, mu: float) -> tuple:
    alpha1 = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
    alpha2 = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
    kappa = (lam + 3.0 * mu) / (lam + mu)
    return alpha1, alpha2, kappa


def probe_points(rng: np.random.Generator, count: int = PROBES_PER_CASE) -> np.ndarray:
    """Preimages near |w| = 2 at random angles."""
    radius = 2.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=count))
    return radius * np.exp(2j * np.pi * rng.uniform(size=count))


def _complex_list(values) -> str:
    return " ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in np.asarray(values))


def _parse_complex_list(text: str) -> np.ndarray:
    out = []
    for token in text.split():
        re, im = token.split(",")
        out.append(complex(float(re), float(im)))
    return np.array(out, dtype=complex)


def read_config(path: Path) -> dict:
    entries = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    return entries


def case_from_config(name: str, path: Path, rng: np.random.Generator) -> Case:
    """A case for a shipped config; its material is given by alpha1, kappa."""
    e = read_config(path)
    alpha1, kappa = float(e["alpha1"]), float(e["kappa"])
    g = e["grid"].split()
    return Case(
        name=name,
        map_coeffs=_parse_complex_list(e["map"]),
        alpha1=alpha1,
        alpha2=alpha1 / kappa,
        kappa=kappa,
        A=_parse_complex_list(e["A"]),
        B=_parse_complex_list(e["B"]),
        n=int(e["truncation_N"]),
        probes=probe_points(rng),
        material_spec={"alpha1": alpha1, "kappa": kappa},
        config=path,
        grid=(float(g[0]), float(g[1]), float(g[2]), float(g[3]), int(g[4]), int(g[5])),
        quadrature_q=int(e["quadrature_Q"]),
    )


def write_config(case: Case, path: Path) -> None:
    spec = case.material_spec
    if "lam" in spec:
        material = f"lambda = {spec['lam']!r}\nmu = {spec['mu']!r}\n"
    else:
        material = f"alpha1 = {spec['alpha1']!r}\nkappa = {spec['kappa']!r}\n"
    grid = " ".join(repr(v) for v in case.grid)
    path.write_text(
        f"# generated by benchmarks/inputs.py for {case.name}\n"
        f"map = {_complex_list(case.map_coeffs)}\n"
        f"{material}"
        f"A = {_complex_list(case.A)}\n"
        f"B = {_complex_list(case.B)}\n"
        f"truncation_N = {case.n}\n"
        f"quadrature_Q = {case.quadrature_q}\n"
        f"grid = {grid}\n"
    )
    case.config = path


def _generated_case(name, rng, order, degree, lam, mu, n) -> Case:
    a = random_map(rng, order)
    A = random_far_field(rng, degree)
    B = random_far_field(rng, degree)
    alpha1, alpha2, kappa = lame_material(lam, mu)
    return Case(
        name=name,
        map_coeffs=a,
        alpha1=alpha1,
        alpha2=alpha2,
        kappa=kappa,
        A=A,
        B=B,
        n=n,
        probes=probe_points(rng),
        material_spec={"lam": lam, "mu": mu},
    )


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` and write its configs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    wl = Workload(name=name, seed=seed)
    configs = root / "configs"
    if name == "figs_cli":
        for fig in FIG_NAMES:
            case = case_from_config(fig, configs / f"{fig}.cfg", rng)
            wl.cli_cases.append(case)
            wl.lib_cases.append(case)
    elif name == "sweep_solve":
        control = case_from_config("control", configs / "fig1.cfg", rng)
        control.grid = CONTROL_GRID
        write_config(control, workdir / "control.cfg")
        wl.cli_cases.append(control)
        # the sizes are the same for every seed, so that seeds change the
        # values of the problems but not the amount of work
        for i in range(SWEEP_CASES):
            order = 1 + i % SWEEP_MAX_ORDER
            degree = 1 + (7 * i) % SWEEP_MAX_DEGREE
            lam, mu = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 2.0))
            wl.lib_cases.append(
                _generated_case(
                    f"sweep{i:02d}", rng, order, degree, lam, mu, degree + order - 1
                )
            )
    else:
        fixed = np.random.default_rng(HIGH_DEGREE_SEED)
        case = _generated_case(
            "high", fixed, HIGH_ORDER, HIGH_DEGREE, 1.0, 1.0, HIGH_DEGREE + HIGH_ORDER
        )
        case.grid = HIGH_GRID
        write_config(case, workdir / "high.cfg")
        wl.cli_cases.append(case)
        wl.lib_cases.append(case)
    return wl
