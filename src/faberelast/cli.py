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
degeneracy or a map that fails the univalence check.

The checks themselves, and their tolerances, live in ``oracle``
(``validation_checks`` and ``residual_checks``); this module prints them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .conformal import ExteriorMap
from .errors import (
    ConfigError,
    DegenerateRotationError,
    FaberElastError,
    NonUnivalentMapError,
    SingularBlockError,
    TruncationError,
)
from .faber import build_faber
from .fields import GridSpec, _write_csv, field_grid, write_field_csv
from .loading import FarFieldLoading, Material
from .oracle import Check, QuadratureRule, residual_checks, validation_checks
from .oracle import (  # re-exported
    CONTINUITY_TOL, EQUILIBRIUM_TOL, GRUNSKY_SYMMETRY_TOL, ORACLE_TOL, TRANSMISSION_TOL,
)
from .solver import required_table_order, solve_full

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
    degree_floor = max(loading.degree, mapping.order) + 2
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


def _write_solution(job: JobConfig, sol, checks) -> None:
    n = sol.order
    s, t = sol.s[:n], sol.t[:n]
    _write_csv(
        job.output_path + "_solution.csv",
        "m,re_s,im_s,re_t,im_t\n",
        "%.17g,%.17g,%.17g,%.17g,%.17g\n",
        np.column_stack((np.arange(1, n + 1), s.real, s.imag, t.real, t.imag)),
    )
    with open(job.output_path + "_summary.txt", "w", newline="\n") as fh:
        fh.write(f"c1 = {_FMT % sol.c1}\n")
        fh.write(f"c2 = {_FMT % sol.c2}\n")
        fh.write(f"c3 = {_FMT % sol.c3}\n")
        for c in checks:
            fh.write(f"{c.name}_residual = {_FMT % c.value}\n")
        fh.write(f"status = {'pass' if all(c.ok for c in checks) else 'fail'}\n")


def cmd_solve(job: JobConfig) -> int:
    table, sol = _solve_job(job)
    checks = residual_checks(sol, job.mapping, table, job.loading, job.material, job.quadrature_q)
    _write_solution(job, sol, checks)
    print(f"c1 = {sol.c1:.12g}  c2 = {sol.c2:.12g}  c3 = {sol.c3:.12g}")
    for c in checks:
        print(f"{c.name}_residual = {c.value:.3e}")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_VALIDATION


def cmd_field(job: JobConfig) -> int:
    if job.grid is None:
        raise ConfigError("field command needs a grid in the config")
    table, sol = _solve_job(job)
    grid = field_grid(sol, table, job.mapping, job.material, job.loading, job.grid)
    write_field_csv(grid, job.output_path + "_field.csv")
    checks = residual_checks(sol, job.mapping, table, job.loading, job.material, job.quadrature_q)
    print(f"wrote {len(grid)} samples to {job.output_path}_field.csv")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_VALIDATION


def cmd_validate(job: JobConfig) -> int:
    table, sol = _solve_job(job)
    # solve_full has already raised on a map that fails the univalence
    # check, so this row can only pass; it stays because
    # benchmarks/checks.py expects a univalence row
    checks = (
        Check("univalence", 0.0, 0.5, True),
        *validation_checks(sol, job.mapping, table, job.loading, job.material, job.quadrature_q),
    )
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(
            f"{c.name.ljust(width)}  {c.value:12.4e}  (tol {c.tol:8.1e})  "
            f"{'pass' if c.ok else 'FAIL'}"
        )
    return EXIT_OK if all(c.ok for c in checks) else EXIT_VALIDATION


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
        _write_csv(
            f"{prefix}_{name}.csv",
            "",
            ",".join(["%.17g%+.17gj"] * matrix.shape[1]) + "\n",
            np.ascontiguousarray(matrix).view(float),
        )
    print(f"wrote {prefix}_{{monomial,grunsky,gamma,gamma0}}.csv")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
    except NonUnivalentMapError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except (SingularBlockError, DegenerateRotationError) as exc:
        print(f"solver degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FaberElastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
