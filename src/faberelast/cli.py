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

Exit codes: 0 success, 1 validation failure, 2 config error (including
an output prefix that cannot be written, and a material that its
constructor rejects, reported as ``lame material: ...`` or ``synthetic
material: ...``), 3 solver degeneracy or a map that fails the univalence
check.  Each subcommand returns its check records and ``main`` alone
turns them into the exit code.

The checks themselves, and their tolerances, live in ``oracle``
(``validation_checks`` and ``residual_checks``); this module prints them.
The rows of ``_solution.csv`` and of the Faber-table dumps are set here
and written by ``csvtext.write_csv``, the writer of every CSV file;
``field`` writes through ``fields.write_field_csv``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .conformal import ExteriorMap
from .csvtext import write_csv
from .errors import (
    ConfigError,
    DegenerateRotationError,
    FaberElastError,
    NonUnivalentMapError,
    SingularBlockError,
    TruncationError,
)
from .faber import build_faber
from .fields import GridSpec, field_grid, write_field_csv
from .loading import FarFieldLoading, Material
from .oracle import Check, QuadratureRule, residual_checks, validation_checks
from .oracle import (  # re-exported
    CONTINUITY_TOL, EQUILIBRIUM_TOL, GRUNSKY_SYMMETRY_TOL, ORACLE_TOL, TRANSMISSION_TOL,
)
from .solver import required_table_order, solve_full, truncation_floor

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


def _parse_grid(text: str, key: str) -> GridSpec:
    parts = text.split()
    if len(parts) != 6:
        raise ConfigError("grid needs: xmin xmax ymin ymax nx ny")
    bounds = [_parse_float(part, key) for part in parts[:4]]
    sizes = [_parse_int(part, key) for part in parts[4:]]
    try:
        return GridSpec(*bounds, *sizes)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


#: the two ways to give the material: name in messages, keys, constructor
_MATERIALS = (
    ("lame", ("lambda", "mu"), Material.from_lame),
    ("synthetic", ("alpha1", "kappa"), Material.from_figure_params),
)
#: every config key and the parser of its value
_KEYS = {
    "map": _parse_complex_list,
    **{key: _parse_float for _, keys, _ in _MATERIALS for key in keys},
    "A": _parse_complex_list,
    "B": _parse_complex_list,
    "truncation_N": _parse_int,
    "quadrature_Q": _parse_int,
    "grid": _parse_grid,
    "output_path": lambda text, key: text,
}


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
    unknown = set(entries) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def value(key, default=None):
        # parsed on first read, so a config with several errors reports the first
        return _KEYS[key](entries[key], key) if key in entries else default

    if "map" not in entries:
        raise ConfigError("missing required key: map")
    mapping = ExteriorMap(tuple(value("map")))

    forms = [form for form in _MATERIALS if any(key in entries for key in form[1])]
    if len(forms) != 1:
        raise ConfigError("material must be given as exactly one of " + " or ".join(
            f"({', '.join(keys)})" for _, keys, _ in _MATERIALS
        ))
    name, keys, make = forms[0]
    if not all(key in entries for key in keys):
        raise ConfigError(f"{name} material needs both {keys[0]} and {keys[1]}")
    params = [value(key) for key in keys]  # outside the try: a ConfigError is a ValueError
    try:
        material = make(*params)
    except ValueError as exc:
        raise ConfigError(f"{name} material: {exc}") from exc

    loading = FarFieldLoading(value("A", [0.0 + 0.0j]), value("B", [0.0 + 0.0j]))

    # both keys are parsed even when overridden, so a malformed value is reported
    n, q = value("truncation_N", 48), value("quadrature_Q", 2048)
    n = order if order is not None else n
    q = quadrature if quadrature is not None else q
    if n < 1:
        raise ConfigError("truncation_N must be positive")
    floor = truncation_floor(mapping, loading)
    if n < floor:
        raise ConfigError(f"truncation_N = {n} is below the solver's floor "
                          f"max(loading degree, 1) + max(map order - 1, 0) = {floor}")
    try:
        QuadratureRule(q)
    except ValueError as exc:
        raise ConfigError(f"quadrature_Q: {exc}") from exc

    return JobConfig(
        mapping=mapping,
        material=material,
        loading=loading,
        truncation_n=n,
        quadrature_q=q,
        grid=value("grid"),
        output_path=out if out is not None else value("output_path", "job"),
    )


def _table(job: JobConfig):
    return build_faber(
        job.mapping, required_table_order(job.mapping, job.truncation_n)
    )


def _solve_job(job: JobConfig):
    table = _table(job)
    sol = solve_full(
        job.mapping, job.loading, job.material, job.truncation_n, table=table
    )
    return table, sol


def _write_solution(job: JobConfig, sol, checks) -> None:
    n = sol.order
    s, t = sol.s[:n], sol.t[:n]
    write_csv(
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


def cmd_solve(job: JobConfig) -> tuple:
    table, sol = _solve_job(job)
    checks = residual_checks(sol, job.mapping, table, job.loading, job.material, job.quadrature_q)
    _write_solution(job, sol, checks)
    print(f"c1 = {sol.c1:.12g}  c2 = {sol.c2:.12g}  c3 = {sol.c3:.12g}")
    for c in checks:
        print(f"{c.name}_residual = {c.value:.3e}")
    return checks


def cmd_field(job: JobConfig) -> tuple:
    if job.grid is None:
        raise ConfigError("field command needs a grid in the config")
    table, sol = _solve_job(job)
    grid = field_grid(sol, table, job.mapping, job.material, job.loading, job.grid)
    write_field_csv(grid, job.output_path + "_field.csv")
    print(f"wrote {len(grid)} samples to {job.output_path}_field.csv")
    return residual_checks(sol, job.mapping, table, job.loading, job.material, job.quadrature_q)


def cmd_validate(job: JobConfig) -> tuple:
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
    return checks


def cmd_faber_table(job: JobConfig) -> tuple:
    table = _table(job)
    prefix = job.output_path
    for name, matrix in (
        ("monomial", table.monomial),
        ("grunsky", table.grunsky),
        ("gamma", table.gamma),
        ("gamma0", table.gamma0[:, None]),
    ):
        # re±imj, signed by the sign bit so -0.0j and -nanj read back as written
        write_csv(
            f"{prefix}_{name}.csv",
            "",
            ",".join(["%.17g%+.17gj"] * matrix.shape[1]) + "\n",
            np.ascontiguousarray(matrix).view(float),
        )
    print(f"wrote {prefix}_{{monomial,grunsky,gamma,gamma0}}.csv")
    return ()


#: every subcommand and its handler, which returns the check records that
#: decide the exit code
_COMMANDS = {
    "solve": cmd_solve,
    "field": cmd_field,
    "validate": cmd_validate,
    "faber-table": cmd_faber_table,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faberelast",
        description="rigid-inclusion plane elastostatics by Faber series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
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
        checks = _COMMANDS[args.command](job)
    # OSError: an output prefix that cannot be written; its text names the file
    except (ConfigError, TruncationError, OSError) as exc:
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
    return EXIT_OK if all(c.ok for c in checks) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
