"""Command-line front end: solve, field export, validation, table dumps.

Jobs are described by a flat key = value config file; complex numbers
are written as re,im pairs and lists are whitespace separated:

    # inclusion and loading
    map = 0,0 0.1,0.1          # a0 a1 ... aM
    alpha1 = 0.5               # or: lambda = ... / mu = ...
    kappa = 0.3
    A = 0,0 1,0                # A0 A1 ...
    B = 0,0 1,0
    truncation_N = 48
    quadrature_Q = 2048
    grid = -3 3 -3 3 201 201   # xmin xmax ymin ymax nx ny
    output_path = fig1

Exit codes: 0 success, 1 validation failure, 2 config error, 3 solver
degeneracy.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .conformal import ExteriorMap
from .errors import (
    ConfigError,
    DegenerateRotationError,
    FaberElastError,
    SingularBlockError,
    TruncationError,
)
from .faber import build_faber
from .fields import (
    GridSpec,
    _write_csv,
    field_grid,
    single_layer_exterior,
    single_layer_interior,
    write_field_csv,
)
from .loading import FarFieldLoading, Material
from .oracle import (
    QuadratureRule,
    equilibrium_residual,
    kelvin_single_layer,
    transmission_residual,
)
from .solver import density_on_boundary, required_table_order, solve_full

TRANSMISSION_TOL = 1e-6
EQUILIBRIUM_TOL = 1e-8
CONTINUITY_TOL = 1e-6
ORACLE_TOL = 1e-6
GRUNSKY_SYMMETRY_TOL = 1e-10

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

_FMT = "%.17g"


@dataclass(frozen=True)
class JobConfig:
    mapping: ExteriorMap
    material: Material
    loading: FarFieldLoading
    truncation_n: int
    quadrature_q: int
    grid: GridSpec | None
    output_path: str


def _parse_complex_list(text: str, key: str) -> list:
    out = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected re,im pairs, got {token!r}")
        out.append(complex(_parse_float(parts[0], key), _parse_float(parts[1], key)))
    return out


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc


def parse_config(path: str) -> dict:
    """Read a flat key = value file with # comments."""
    entries: dict = {}
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def load_job(path: str, order=None, quadrature=None, out=None) -> JobConfig:
    entries = parse_config(path)
    known = {
        "map",
        "lambda",
        "mu",
        "alpha1",
        "kappa",
        "A",
        "B",
        "truncation_N",
        "quadrature_Q",
        "grid",
        "output_path",
    }
    unknown = set(entries) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    if "map" not in entries:
        raise ConfigError("missing required key: map")
    coeffs = _parse_complex_list(entries["map"], "map")
    if not coeffs:
        raise ConfigError("map needs at least the a0 coefficient")
    mapping = ExteriorMap(tuple(coeffs))

    has_lame = "lambda" in entries or "mu" in entries
    has_fig = "alpha1" in entries or "kappa" in entries
    if has_lame == has_fig:
        raise ConfigError(
            "material must be given as exactly one of (lambda, mu) or (alpha1, kappa)"
        )
    if has_lame:
        if "lambda" not in entries or "mu" not in entries:
            raise ConfigError("lame material needs both lambda and mu")
        material = Material.from_lame(
            _parse_float(entries["lambda"], "lambda"),
            _parse_float(entries["mu"], "mu"),
        )
    else:
        if "alpha1" not in entries or "kappa" not in entries:
            raise ConfigError("synthetic material needs both alpha1 and kappa")
        alpha1 = _parse_float(entries["alpha1"], "alpha1")
        kappa = _parse_float(entries["kappa"], "kappa")
        try:
            material = Material.from_figure_params(alpha1, kappa)
        except ValueError as exc:
            raise ConfigError(f"synthetic material: {exc}") from exc

    A = _parse_complex_list(entries.get("A", ""), "A") or [0.0 + 0.0j]
    B = _parse_complex_list(entries.get("B", ""), "B") or [0.0 + 0.0j]
    loading = FarFieldLoading(np.array(A), np.array(B))

    n = order if order is not None else _parse_int(
        entries.get("truncation_N", "48"), "truncation_N"
    )
    q = quadrature if quadrature is not None else _parse_int(
        entries.get("quadrature_Q", "2048"), "quadrature_Q"
    )
    if n < 1:
        raise ConfigError("truncation_N must be positive")
    degree_floor = max(len(A) - 1, len(B) - 1, mapping.order) + 2
    if n < degree_floor:
        raise ConfigError(
            f"truncation_N = {n} is below max(loading degree, map order) + 2 "
            f"= {degree_floor}"
        )
    try:
        QuadratureRule(q)
    except ValueError as exc:
        raise ConfigError(f"quadrature_Q: {exc}") from exc

    grid = None
    if "grid" in entries:
        parts = entries["grid"].split()
        if len(parts) != 6:
            raise ConfigError("grid needs: xmin xmax ymin ymax nx ny")
        bounds = [_parse_float(part, "grid") for part in parts[:4]]
        sizes = [_parse_int(part, "grid") for part in parts[4:]]
        try:
            grid = GridSpec(*bounds, *sizes)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    output_path = out if out is not None else entries.get("output_path", "job")
    return JobConfig(
        mapping=mapping,
        material=material,
        loading=loading,
        truncation_n=n,
        quadrature_q=q,
        grid=grid,
        output_path=output_path,
    )


def _solve_job(job: JobConfig):
    table = build_faber(
        job.mapping, required_table_order(job.mapping, job.truncation_n)
    )
    sol = solve_full(
        job.mapping, job.loading, job.material, job.truncation_n, table=table
    )
    return table, sol


def _residual_summary(job: JobConfig, table, sol) -> dict:
    trans = transmission_residual(
        sol, job.mapping, table, job.loading, job.material, 256
    )
    eq = equilibrium_residual(sol, job.mapping, job.quadrature_q)
    return {
        "transmission": trans,
        "equilibrium_1": float(eq[0]),
        "equilibrium_2": float(eq[1]),
        "equilibrium_3": float(eq[2]),
    }


def _residuals_pass(summary: dict) -> bool:
    return summary["transmission"] < TRANSMISSION_TOL and all(
        summary[k] < EQUILIBRIUM_TOL
        for k in ("equilibrium_1", "equilibrium_2", "equilibrium_3")
    )


def _write_solution(job: JobConfig, sol, summary: dict) -> None:
    n = sol.order
    s, t = sol.s[:n], sol.t[:n]
    _write_csv(
        job.output_path + "_solution.csv",
        "m,re_s,im_s,re_t,im_t\n",
        "%.17g,%.17g,%.17g,%.17g,%.17g\n",
        (np.arange(1, n + 1), s.real, s.imag, t.real, t.imag),
    )
    with open(job.output_path + "_summary.txt", "w", newline="\n") as fh:
        fh.write(f"c1 = {_FMT % sol.c1}\n")
        fh.write(f"c2 = {_FMT % sol.c2}\n")
        fh.write(f"c3 = {_FMT % sol.c3}\n")
        for key, value in summary.items():
            fh.write(f"{key}_residual = {_FMT % value}\n")
        fh.write(f"status = {'pass' if _residuals_pass(summary) else 'fail'}\n")


def _check_univalence(job: JobConfig) -> int:
    report = job.mapping.validate_univalence()
    if not report.ok:
        print("map failed the univalence check:", file=sys.stderr)
        print(
            f"  min |Psi'| on the boundary samples: {report.min_abs_derivative:.3e}",
            file=sys.stderr,
        )
        if report.derivative_winding:
            print(
                f"  Psi' has {report.derivative_winding} zero(s) outside the "
                "unit circle",
                file=sys.stderr,
            )
        if report.crossing_segments:
            print(
                f"  boundary self-intersections at segment pairs "
                f"{list(report.crossing_segments)[:4]}",
                file=sys.stderr,
            )
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_solve(job: JobConfig) -> int:
    status = _check_univalence(job)
    if status:
        return status
    table, sol = _solve_job(job)
    summary = _residual_summary(job, table, sol)
    _write_solution(job, sol, summary)
    print(f"c1 = {sol.c1:.12g}  c2 = {sol.c2:.12g}  c3 = {sol.c3:.12g}")
    for key, value in summary.items():
        print(f"{key}_residual = {value:.3e}")
    return EXIT_OK if _residuals_pass(summary) else EXIT_VALIDATION


def cmd_field(job: JobConfig) -> int:
    if job.grid is None:
        raise ConfigError("field command needs a grid in the config")
    status = _check_univalence(job)
    if status:
        return status
    table, sol = _solve_job(job)
    grid = field_grid(sol, table, job.mapping, job.material, job.loading, job.grid)
    write_field_csv(grid, job.output_path + "_field.csv")
    summary = _residual_summary(job, table, sol)
    print(f"wrote {len(grid)} samples to {job.output_path}_field.csv")
    return EXIT_OK if _residuals_pass(summary) else EXIT_VALIDATION


def _interior_targets(mapping: ExteriorMap, count: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    boundary = mapping.boundary_point(theta)
    center = boundary.mean()
    r_in = np.abs(boundary - center).min()
    angles = 2.0 * np.pi * np.arange(count) / count
    return center + 0.45 * r_in * np.exp(1j * angles)


def cmd_validate(job: JobConfig) -> int:
    checks = []
    report = job.mapping.validate_univalence()
    checks.append(("univalence", float(not report.ok), 0.5, report.ok))

    table, sol = _solve_job(job)
    n = min(24, table.order)
    c = table.grunsky[:n, :n]
    idx = np.arange(1, n + 1)
    sym = float(np.abs(idx[None, :] * c - (idx[None, :] * c).T).max())
    checks.append(
        ("grunsky_symmetry", sym, GRUNSKY_SYMMETRY_TOL, sym < GRUNSKY_SYMMETRY_TOL)
    )
    bound = float((np.abs(c) - 2.0 * idx[:, None] * (1 + 1e-8)).max())
    checks.append(("grunsky_bound", bound, 0.0, bound <= 0.0))
    rng = np.random.default_rng(0)
    # np.min/np.max, unlike the builtins, propagate NaN, so a NaN fails
    slacks = []
    for _ in range(5):
        lam = rng.normal(size=5) + 1j * rng.normal(size=5)
        lhs = sum(
            k * abs(np.dot(c[:5, k - 1], lam)) ** 2 for k in range(1, n + 1)
        )
        rhs = float(np.sum(np.arange(1, 6) * np.abs(lam) ** 2))
        slacks.append(rhs - lhs)
    worst_slack = float(np.min(slacks))
    checks.append(
        ("grunsky_strong_inequality", -worst_slack, 1e-8, worst_slack >= -1e-8)
    )

    summary = _residual_summary(job, table, sol)
    checks.append(
        (
            "transmission",
            summary["transmission"],
            TRANSMISSION_TOL,
            summary["transmission"] < TRANSMISSION_TOL,
        )
    )
    eqmax = float(np.max([summary[f"equilibrium_{k}"] for k in (1, 2, 3)]))
    checks.append(("equilibrium", eqmax, EQUILIBRIUM_TOL, eqmax < EQUILIBRIUM_TOL))

    # both series at the same boundary points z = Psi(e^{i theta}), and
    # each at the 10 oracle points of its domain, in one call per series
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    z_in = np.concatenate(
        [job.mapping.boundary_point(theta), _interior_targets(job.mapping, 10)]
    )
    w_out = np.concatenate(
        [np.exp(1j * theta), 1.5 * np.exp(2j * np.pi * np.arange(10) / 10)]
    )
    s_in = single_layer_interior(sol, table, job.mapping, job.material, z_in)
    s_out = single_layer_exterior(sol, table, job.mapping, job.material, w_out)
    nb = len(theta)
    cont = float(np.abs(s_in[:nb] - s_out[:nb]).max())
    checks.append(("boundary_continuity", cont, CONTINUITY_TOL, cont < CONTINUITY_TOL))

    rule = QuadratureRule(job.quadrature_q)
    phi = density_on_boundary(sol, job.mapping, rule.theta)
    targets = np.concatenate([z_in[nb:], job.mapping.eval(w_out[nb:])])
    quad = kelvin_single_layer(phi, job.mapping, job.material, targets, rule)
    worst = float(np.max(np.abs(np.concatenate([s_in[nb:], s_out[nb:]]) - quad)))
    checks.append(("oracle_quadrature", worst, ORACLE_TOL, worst < ORACLE_TOL))

    width = max(len(name) for name, *_ in checks)
    all_ok = True
    for name, value, tol, ok in checks:
        all_ok &= ok
        print(
            f"{name.ljust(width)}  {value:12.4e}  (tol {tol:8.1e})  "
            f"{'pass' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_faber_table(job: JobConfig) -> int:
    table = build_faber(
        job.mapping, required_table_order(job.mapping, job.truncation_n)
    )
    prefix = job.output_path
    for name, matrix in (
        ("monomial", table.monomial),
        ("grunsky", table.grunsky),
        ("gamma", table.gamma),
        ("gamma0", table.gamma0[:, None]),
    ):
        # re±imj, signed by the sign bit so -0.0j and -nanj read back as written
        parts = (matrix.real, np.where(np.signbit(matrix.imag), "-", "+"), np.abs(matrix.imag))
        _write_csv(
            f"{prefix}_{name}.csv",
            "",
            ",".join(["%.17g%s%.17gj"] * matrix.shape[1]) + "\n",
            [part[:, j] for j in range(matrix.shape[1]) for part in parts],
        )
    print(f"wrote {prefix}_{{monomial,grunsky,gamma,gamma0}}.csv")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="faberelast",
        description="rigid-inclusion plane elastostatics by Faber series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "field", "validate", "faber-table"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="job config file")
        p.add_argument("--order", type=int, default=None, help="override truncation_N")
        p.add_argument(
            "--quadrature", type=int, default=None, help="override quadrature_Q"
        )
        p.add_argument("--out", default=None, help="override output_path prefix")
    args = parser.parse_args(argv)

    try:
        job = load_job(
            args.config, order=args.order, quadrature=args.quadrature, out=args.out
        )
        handler = {
            "solve": cmd_solve,
            "field": cmd_field,
            "validate": cmd_validate,
            "faber-table": cmd_faber_table,
        }[args.command]
        return handler(job)
    except (ConfigError, TruncationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularBlockError, DegenerateRotationError) as exc:
        print(f"solver degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FaberElastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
