"""The benchmark's checks must pass real outputs and reject wrong ones.

Run with ``python -m pytest benchmarks/test_checks.py``.  Each test
produces real outputs of fig1 on a small grid, alters one value, and
asserts that the matching check reports a failure.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from faberelast import cli  # noqa: E402
import faberelast as fe  # noqa: E402


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    """fig1 on a 21 x 21 grid, solved, gridded and dumped once."""
    tmp = tmp_path_factory.mktemp("fig1")
    case = inputs.case_from_config("fig1", HERE.parent / "configs" / "fig1.cfg",
                                   np.random.default_rng(0))
    case.grid = (-3.0, 3.0, -3.0, 3.0, 21, 21)
    inputs.write_config(case, tmp / "fig1.cfg")
    prefix = str(tmp / "fig1")
    for command in ("solve", "field", "faber-table"):
        with redirect_stdout(io.StringIO()):
            assert cli.main([command, "--config", str(case.config), "--out", prefix]) == 0
    return case, prefix


def _copy(prefix, tmp_path, suffixes):
    out = str(tmp_path / "copy")
    for suffix in suffixes:
        Path(out + suffix).write_bytes(Path(prefix + suffix).read_bytes())
    return out


def _edit_csv(path, row, col, fn):
    lines = Path(path).read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_real_outputs_pass(job):
    case, prefix = job
    rng = np.random.default_rng(1)
    assert checks.check_solve_outputs(case, prefix) == []
    assert checks.check_field_outputs(case, prefix, rng) == []
    assert checks.check_faber_outputs(case, prefix) == []


# mode 1 carries the linear loading of fig1; mode 4 is zero there
@pytest.mark.parametrize("row", [1, 4])
@pytest.mark.parametrize("col", [1, 2, 3, 4])
def test_perturbed_density_coefficient_fails(job, tmp_path, row, col):
    case, prefix = job
    copy = _copy(prefix, tmp_path, ["_solution.csv", "_summary.txt"])
    _edit_csv(copy + "_solution.csv", row, col, lambda v: repr(float(v) + 1e-4))
    assert checks.check_solve_outputs(case, copy)


def _field_rows(prefix):
    return checks.read_field_csv(Path(prefix + "_field.csv"))[1]


@pytest.mark.parametrize("region,col", [
    ("exterior", 0), ("exterior", 2), ("exterior", 5), ("exterior", 7), ("exterior", 10),
    ("interior", 6), ("interior", 8), ("interior", 9),
])
def test_altered_field_row_fails(job, tmp_path, region, col):
    case, prefix = job
    copy = _copy(prefix, tmp_path, ["_solution.csv", "_summary.txt", "_field.csv"])
    row = 1 + int(np.nonzero(_field_rows(prefix) == region)[0][7])
    _edit_csv(copy + "_field.csv", row, col, lambda v: repr(float(v) * (1 + 1e-5) + 1e-5))
    assert checks.check_field_outputs(case, copy, np.random.default_rng(1))


def test_relabelled_or_missing_field_row_fails(job, tmp_path):
    case, prefix = job
    copy = _copy(prefix, tmp_path, ["_solution.csv", "_summary.txt", "_field.csv"])
    row = 1 + int(np.nonzero(_field_rows(prefix) == "exterior")[0][0])
    _edit_csv(copy + "_field.csv", row, 4, lambda v: "interior")
    assert checks.check_field_outputs(case, copy, np.random.default_rng(1))
    lines = Path(prefix + "_field.csv").read_text().splitlines()
    Path(copy + "_field.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_field_outputs(case, copy, np.random.default_rng(1))


@pytest.mark.parametrize("table,row,col", [("gamma", 5, 2), ("gamma", 30, 0), ("gamma0", 9, 0),
                                           ("grunsky", 3, 6)])
def test_changed_table_entry_fails(job, tmp_path, table, row, col):
    case, prefix = job
    names = ["_grunsky.csv", "_gamma.csv", "_gamma0.csv", "_monomial.csv"]
    copy = _copy(prefix, tmp_path, names)
    _edit_csv(f"{copy}_{table}.csv", row, col,
              lambda v: repr(complex(v) * (1 + 1e-3) + 1e-3).strip("()"))
    assert checks.check_faber_outputs(case, copy)


def _library(case):
    mapping = fe.ExteriorMap(tuple(case.map_coeffs))
    mat = fe.Material.from_figure_params(case.alpha1, case.kappa)
    loading = fe.FarFieldLoading(case.A, case.B)
    table = fe.build_faber(mapping, fe.required_table_order(mapping, case.n))
    sol = fe.solve_full(mapping, loading, mat, case.n, table=table)
    samples = [fe.displacement(sol, table, mapping, mat, loading, w) for w in case.probes]
    return sol, samples


def test_library_checks(job):
    case, _ = job
    sol, samples = _library(case)
    c = (sol.c1, sol.c2, sol.c3)
    dens = checks.Density(case, sol.s, sol.t)
    assert checks.check_solution(case, dens, c) == []
    assert checks.check_probes(case, dens, samples) == []

    s = sol.s.copy()
    s[0] += 1e-4
    assert checks.check_solution(case, checks.Density(case, s, sol.t), c)
    t = sol.t.copy()
    t[6] += 1e-4j
    assert checks.check_solution(case, checks.Density(case, sol.s, t), c)
    assert checks.check_solution(case, dens, (sol.c1, sol.c2 + 1e-4, sol.c3))

    bad = list(samples)
    bad[2] = fe.FieldSample(z=bad[2].z, w=bad[2].w, region=bad[2].region, u0=bad[2].u0,
                            S=bad[2].S + 1e-4, u=bad[2].u + 1e-4)
    assert checks.check_probes(case, dens, bad)


def test_validate_report():
    ok = "\n".join(f"{name}  1.0e-12  (tol 1.0e-06)  pass" for name in checks.VALIDATE_CHECKS)
    assert checks.check_validate_output(ok) == []
    assert checks.check_validate_output(ok.replace("pass", "FAIL", 1))
    assert checks.check_validate_output("\n".join(ok.splitlines()[1:]))
