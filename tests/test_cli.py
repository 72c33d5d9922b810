import hashlib
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from faberelast import build_faber
from faberelast.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, EXIT_VALIDATION, main
from util import HARD_SHAPES, count_univalence_checks, random_univalent_map

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FIG1 = """
map = 0,0 0.1,0.1
alpha1 = 0.5
kappa = 0.3
A = 0,0 1,0
B = 0,0 1,0
truncation_N = 48
quadrature_Q = 2048
grid = -2 2 -2 2 11 11
output_path = {out}
"""


def write_config(tmp_path, text, name="job.cfg", **kw):
    path = tmp_path / name
    path.write_text(text.format(**kw))
    return str(path)


def high_degree_config(tmp_path):
    """A seeded map of order 8 under a random loading of degree 60."""
    rng = np.random.default_rng(860)
    mp = random_univalent_map(rng, 8)
    A = rng.normal(size=61) + 1j * rng.normal(size=61)
    B = rng.normal(size=61) + 1j * rng.normal(size=61)
    text = (
        f"map = {_pairs(mp.coefficient(k) for k in range(9))}\n"
        f"lambda = 1\nmu = 1\nA = {_pairs(A)}\nB = {_pairs(B)}\n"
        "truncation_N = 68\n"
    )
    cfg = tmp_path / "high.cfg"
    cfg.write_text(text)
    return str(cfg)


class TestConfigParsing:
    def test_missing_map(self, tmp_path):
        cfg = write_config(tmp_path, "alpha1 = 0.5\nkappa = 0.3\nA = 1,0\n")
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_both_material_forms(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "map = 0,0 0.1,0\nalpha1 = 0.5\nkappa = 0.3\nlambda = 1\nmu = 1\n",
        )
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = write_config(
            tmp_path, "map = 0,0 0.1,0\nalpha1 = 0.5\nkappa = 0.3\nbogus = 1\n"
        )
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_bad_complex_token(self, tmp_path):
        cfg = write_config(tmp_path, "map = 0,0 zap\nalpha1 = 0.5\nkappa = 0.3\n")
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_missing_file(self):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == EXIT_CONFIG

    def test_truncation_floor(self, tmp_path):
        # an order-3 map with a degree-6 loading cannot run at N = 4
        cfg = write_config(
            tmp_path,
            "map = 0,0 0.1,0.1 0.1,0.1 0.1,0.1\nalpha1 = 0.5\nkappa = 0.3\n"
            "A = 0,0 0,0 0,0 0,0 0,0 0,0 1,0\nB = 0,0\ntruncation_N = 4\n",
        )
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG

    def test_truncation_floor_reads_the_loading_degree(self, tmp_path, monkeypatch):
        # trailing zero coefficients do not raise the loading's degree
        monkeypatch.chdir(tmp_path)
        job = "map = 0,0 0.1,0.1\nalpha1 = 0.5\nkappa = 0.3\nB = 0,0 1,0\ntruncation_N = 3\n"
        for name, A in (("padded", "0,0 1,0 0,0 0,0 0,0"), ("tight", "0,0 1,0")):
            cfg = write_config(tmp_path, job + f"A = {A}\noutput_path = {name}\n", name=name)
            assert main(["solve", "--config", cfg]) == EXIT_OK
        for suffix in ("_solution.csv", "_summary.txt"):
            assert Path("padded" + suffix).read_bytes() == Path("tight" + suffix).read_bytes()

    def test_lame_material_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "map = 0,0 0.1,0\nlambda = 1.0\nmu = 1.0\nA = 0,0 1,0\nB = 0,0 1,0\n"
            "output_path = lame\n",
        )
        assert main(["solve", "--config", cfg]) == EXIT_OK


class TestSolveCommand:
    def test_fig1_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(["solve", "--config", str(CONFIGS / "fig1.cfg"), "--out", "f1"])
            == EXIT_OK
        )
        body = Path("f1_solution.csv").read_text()
        assert body.startswith("m,re_s,im_s,re_t,im_t\n")
        summary = Path("f1_summary.txt").read_text()
        assert "c3 = -0.203125" in summary
        assert "status = pass" in summary

    def test_empty_loading(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "map = 0,0 0.1,0.1\nalpha1 = 0.5\nkappa = 0.3\noutput_path = e\n",
        )
        assert main(["solve", "--config", cfg]) == EXIT_OK
        rows = Path("e_solution.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[1:] == ["0", "0", "0", "0"] for row in rows)

    def test_self_intersecting_map(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "map = 0,0 2,0\nalpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0 1,0\n",
        )
        assert main(["solve", "--config", cfg]) == EXIT_DEGENERATE

    def test_determinism(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = str(CONFIGS / "fig2.cfg")
        main(["solve", "--config", cfg, "--out", "a"])
        main(["solve", "--config", cfg, "--out", "b"])
        assert (
            Path("a_solution.csv").read_bytes() == Path("b_solution.csv").read_bytes()
        )

    def test_order_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG1, out="ovr")
        assert main(["solve", "--config", cfg, "--order", "12"]) == EXIT_OK
        rows = Path("ovr_solution.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 12


class TestNonUnivalentMap:
    """w + 2/w: Psi' has two zeros outside the disk.  The map's check
    raises in the solver, and the CLI maps that to exit 3."""

    CONFIG = (
        "map = 0,0 2,0\nalpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0 1,0\n"
        "truncation_N = 8\nquadrature_Q = 512\ngrid = -3 3 -3 3 11 11\noutput_path = nu\n"
    )
    STDERR = (
        "map failed the univalence check:\n"
        "  min |Psi'| on the boundary samples: 1.000e+00\n"
        "  Psi' has 2 zero(s) outside the unit circle\n"
    )

    @pytest.mark.parametrize("command", ["solve", "field", "validate"])
    def test_exit_3_with_the_report(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.CONFIG)
        assert main([command, "--config", cfg]) == EXIT_DEGENERATE
        out, err = capsys.readouterr()
        assert (out, err) == ("", self.STDERR)
        assert not list(tmp_path.glob("nu_*"))

    def test_faber_table_accepts_the_map(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["faber-table", "--config", write_config(tmp_path, self.CONFIG)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["solve", "field", "validate"])
    def test_fig1_checks_once(self, tmp_path, monkeypatch, command):
        checked = count_univalence_checks(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(CONFIGS / "fig1.cfg"), "--out", "f1"]) == EXIT_OK
        assert len(checked) == 1


class TestFieldCommand:
    def test_writes_grid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG1, out="g")
        assert main(["field", "--config", cfg]) == EXIT_OK
        lines = Path("g_field.csv").read_text().splitlines()
        assert lines[0] == "x,y,re_w,im_w,region,re_u0,im_u0,re_S,im_S,re_u,im_u"
        assert len(lines) == 1 + 11 * 11

    def test_missing_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "map = 0,0 0.1,0.1\nalpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0\n",
        )
        assert main(["field", "--config", cfg]) == EXIT_CONFIG

    def test_degenerate_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "map = 0,0 0.1,0.1\nalpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0\n"
            "grid = -1 1 -1 1 1 1\n",
        )
        assert main(["field", "--config", cfg]) == EXIT_CONFIG

    def test_field_repeat_runs_write_identical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG1, out="t1")
        main(["field", "--config", cfg])
        cfg2 = write_config(tmp_path, FIG1, name="job2.cfg", out="t2")
        main(["field", "--config", cfg2])
        assert (
            Path("t1_field.csv").read_bytes() == Path("t2_field.csv").read_bytes()
        )


class TestValidateCommand:
    def test_fig_configs_pass(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name in ("fig1.cfg", "fig2.cfg", "fig3.cfg"):
            assert main(["validate", "--config", str(CONFIGS / name)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "transmission" in out and "FAIL" not in out

    def test_disk_linear_loading(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "map = 0,0\nalpha1 = 0.75\nkappa = 3\nA = 0,0 1,0\nB = 0,0 1,0\n",
        )
        assert main(["validate", "--config", cfg]) == EXIT_OK

    def test_high_degree_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--config", high_degree_config(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("name", sorted(HARD_SHAPES))
    def test_hard_shapes_pass(self, tmp_path, monkeypatch, capsys, name):
        # on the thin ellipses the interior oracle ring lies within the
        # quadrature standoff; those targets are left out, not an error
        monkeypatch.chdir(tmp_path)
        mp = HARD_SHAPES[name]
        cfg = write_config(
            tmp_path,
            f"map = {_pairs(mp.coefficients)}\nalpha1 = 0.5\nkappa = 0.3\n"
            "A = 0,0 1,0\nB = 0,0 1,0\n",
        )
        assert main(["validate", "--config", cfg]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(line.endswith("  pass") for line in lines)

    def test_table_order_below_five(self, tmp_path, monkeypatch, capsys):
        # truncation_N = 3 on the disk gives a table of order 4, fewer
        # Grunsky rows than the five terms of the strong inequality's lambda
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "map = 0,0\nalpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0 1,0\n"
            "truncation_N = 3\n",
        )
        assert main(["validate", "--config", cfg]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(line.endswith("  pass") for line in lines)


class TestCheckRecords:
    """The CLI prints the oracle's records and adds nothing but the
    univalence row."""

    @staticmethod
    def _config(tmp_path, name):
        if name == "high":
            return high_degree_config(tmp_path)
        return str(CONFIGS / f"{name}.cfg")

    @staticmethod
    def _solved(cfg):
        from faberelast.cli import _solve_job, load_job

        job = load_job(cfg)
        table, sol = _solve_job(job)
        return (sol, job.mapping, table, job.loading, job.material, job.quadrature_q)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "high"])
    def test_validate_prints_the_records(self, tmp_path, monkeypatch, capsys, name):
        from faberelast import validation_checks

        monkeypatch.chdir(tmp_path)
        cfg = self._config(tmp_path, name)
        assert main(["validate", "--config", cfg]) == EXIT_OK
        records = validation_checks(*self._solved(cfg))
        expected = [("univalence", 0.0, 0.5, True)] + [
            (c.name, c.value, c.tol, c.ok) for c in records
        ]
        width = max(len(n) for n, *_ in expected)
        lines = [
            f"{n.ljust(width)}  {v:12.4e}  (tol {t:8.1e})  {'pass' if ok else 'FAIL'}"
            for n, v, t, ok in expected
        ]
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "high"])
    def test_summary_keys_are_the_records(self, tmp_path, monkeypatch, name):
        from faberelast import residual_checks

        monkeypatch.chdir(tmp_path)
        cfg = self._config(tmp_path, name)
        assert main(["solve", "--config", cfg, "--out", "r"]) == EXIT_OK
        keys = [line.split(" = ")[0] for line in Path("r_summary.txt").read_text().splitlines()]
        names = [c.name + "_residual" for c in residual_checks(*self._solved(cfg))]
        assert keys == ["c1", "c2", "c3", *names, "status"]

    def test_check_is_frozen(self):
        import dataclasses

        from faberelast import Check

        check = Check("transmission", 0.0, 1e-6, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.ok = False


class TestParserReuse:
    """main builds its parser once per process; calls must not share state."""

    def test_override_does_not_stick(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = str(CONFIGS / "fig1.cfg")
        assert main(["solve", "--config", cfg, "--order", "60"]) == EXIT_OK
        assert len(Path("fig1_solution.csv").read_text().splitlines()) == 61
        assert main(["solve", "--config", cfg]) == EXIT_OK
        assert len(Path("fig1_solution.csv").read_text().splitlines()) == 49

    def test_usage_error_does_not_break_next_call(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--order", "60"])
        assert exc.value.code == 2
        assert main(["solve", "--config", str(CONFIGS / "fig1.cfg")]) == EXIT_OK
        assert len(Path("fig1_solution.csv").read_text().splitlines()) == 49

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_coarse_quadrature(self, tmp_path, monkeypatch, capsys, name):
        # n = 48 modes on a 64-node rule: modes from 32 on fold.  On fig3
        # the 64-node rule misses the Kelvin kernel at the oracle points
        # by about 2e-6, with the density summed mode by mode as well, so
        # there only that line may fail.
        monkeypatch.chdir(tmp_path)
        cfg = str(CONFIGS / f"{name}.cfg")
        assert main(["solve", "--config", cfg, "--quadrature", "64"]) == EXIT_OK
        code = main(["validate", "--config", cfg, "--quadrature", "64"])
        lines = capsys.readouterr().out.splitlines()[-8:]
        if name != "fig3":
            assert code == EXIT_OK
        failed = [line.split()[0] for line in lines if not line.endswith("  pass")]
        assert failed == ([] if code == EXIT_OK else ["oracle_quadrature"])
        oracle = next(line for line in lines if line.startswith("oracle_quadrature"))
        assert float(oracle.split()[1]) < 1e-5


DATA = Path(__file__).resolve().parent / "data"

#: SHA-256 of the shipped figures' solution CSVs.  The solve's bits hold
#: with and without numpy's AVX2/FMA kernels (numpy picks its SIMD
#: kernels at run time), so these stay exact.
SOLUTION_SHA256 = {
    "fig1": "61506f19a2d36f7487d1b1908c5bf1756edc6131fdb269d537516a4c0d4de9fe",
    "fig2": "5a0b3f8deaeaa45228cbb29cfa839b87f3cbb1685ec4662eb51891ee2c58f944",
    "fig3": "c2cf527d2aaa3bf8d2ad8f140f2c73d7958b6b02b3413ccc7713e06e8de7f2f1",
}

#: interior, boundary and exterior counts of each figure's 201 x 201 grid
FIGURE_REGION_COUNTS = {
    "fig1": (3419, 0, 36982),
    "fig2": (3279, 0, 37122),
    "fig3": (3068, 0, 37333),
}

#: tests/data/<fig>_field_every10.csv holds the header and every 10th row
#: and column of the field CSV, written by tools/field_references.py with
#: numpy 2.4.6 once exterior grid points took a polished Newton preimage;
#: tests/data/<fig>_summary.txt is the summary the per-mode evaluators
#: wrote, which that change did not move.
#: Field values and residuals depend on how numpy's kernels round (with
#: and without FMA they differ by up to 3e-15 of a column's largest
#: value), so they are compared to a tolerance; text columns exactly.
FIELD_GRID_SIZE = 201
FIELD_SAMPLE_STEP = 10
FIELD_REL_TOL = 1e-12
RESIDUAL_LIMIT = 1e-14
_TEXT_COLUMNS = (0, 1, 4)  # x, y and region


def _split_csv(lines):
    rows = [line.split(",") for line in lines]
    text = [[row[c] for c in _TEXT_COLUMNS] for row in rows]
    values = np.array(
        [[float(v) for c, v in enumerate(row) if c not in _TEXT_COLUMNS] for row in rows]
    )
    return text, values


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_figure_outputs_match_reference(tmp_path, name):
    out = str(tmp_path / name)
    cfg = str(CONFIGS / f"{name}.cfg")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["field", "--config", cfg, "--out", out]) == EXIT_OK

    solution = (tmp_path / f"{name}_solution.csv").read_bytes()
    assert hashlib.sha256(solution).hexdigest() == SOLUTION_SHA256[name]

    summary = (tmp_path / f"{name}_summary.txt").read_text().splitlines()
    reference = (DATA / f"{name}_summary.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in summary] == [
        line.split(" = ")[0] for line in reference
    ]
    for line, ref in zip(summary, reference):
        key, value = line.split(" = ")
        if key.endswith("_residual"):
            assert 0.0 <= float(value) <= RESIDUAL_LIMIT, line
        else:
            assert line == ref

    field = (tmp_path / f"{name}_field.csv").read_text().splitlines()
    header, body = field[0], field[1:]
    assert len(body) == FIELD_GRID_SIZE**2
    regions = [line.split(",")[4] for line in body]
    counts = tuple(regions.count(r) for r in ("interior", "boundary", "exterior"))
    assert counts == FIGURE_REGION_COUNTS[name]

    ref_lines = (DATA / f"{name}_field_every10.csv").read_text().splitlines()
    assert header == ref_lines[0]
    picks = range(0, FIELD_GRID_SIZE, FIELD_SAMPLE_STEP)
    sampled = [body[r * FIELD_GRID_SIZE + c] for r in picks for c in picks]
    got_text, got = _split_csv(sampled)
    ref_text, ref = _split_csv(ref_lines[1:])
    assert got_text == ref_text
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    scale = np.nanmax(np.abs(ref), axis=0)
    gap = np.nanmax(np.abs(got - ref), axis=0)
    assert np.all(gap <= FIELD_REL_TOL * scale), gap / scale


class TestFaberTableCommand:
    def test_writes_tables(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG1, out="tbl")
        assert main(["faber-table", "--config", cfg, "--order", "8"]) == EXIT_OK
        for suffix in ("monomial", "grunsky", "gamma", "gamma0"):
            assert os.path.exists(f"tbl_{suffix}.csv")
        first = Path("tbl_gamma0.csv").read_text().splitlines()[0]
        assert first == "1+0j"


class TestNonFiniteConfig:
    CASES = [
        ("map", "0,0 nan,0"),
        ("map", "0,0 0.1,inf"),
        ("A", "0,0 inf,0"),
        ("B", "0,0 1,-inf"),
        ("alpha1", "nan"),
        ("kappa", "inf"),
        ("grid", "-2 nan -2 2 11 11"),
        ("grid", "-inf 2 -2 2 11 11"),
        ("lambda", "nan"),
        ("mu", "inf"),
    ]

    @pytest.mark.parametrize("key,value", CASES)
    @pytest.mark.parametrize("command", ["solve", "field", "validate", "faber-table"])
    def test_rejected_with_config_exit(self, tmp_path, monkeypatch, capsys,
                                       command, key, value):
        monkeypatch.chdir(tmp_path)
        text = FIG1.format(out="nf")
        if key in ("lambda", "mu"):
            lame = {"lambda": "1", "mu": "1", key: value}
            text = text.replace(
                "alpha1 = 0.5\nkappa = 0.3",
                f"lambda = {lame['lambda']}\nmu = {lame['mu']}",
            )
        else:
            lines = text.splitlines()
            text = "\n".join(
                f"{key} = {value}" if line.startswith(f"{key} =") else line
                for line in lines
            )
        cfg = tmp_path / "nf.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("nf_*"))


class TestOutOfRangeMaterial:
    @pytest.mark.parametrize("key,value", [("alpha1", "-0.5"), ("kappa", "0"), ("kappa", "-1")])
    @pytest.mark.parametrize("command", ["solve", "field", "validate", "faber-table"])
    def test_rejected_with_config_exit(self, tmp_path, monkeypatch, capsys,
                                       command, key, value):
        monkeypatch.chdir(tmp_path)
        lines = FIG1.format(out="bad").splitlines()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(
            f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines
        ))
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("bad_*"))


#: fig1 with a grid, one line per key, in this order
BASE = {
    "map": "0,0 0.1,0.1", "alpha1": "0.5", "kappa": "0.3", "A": "0,0 1,0", "B": "0,0 1,0",
    "truncation_N": "48", "quadrature_Q": "2048", "grid": "-2 2 -2 2 11 11",
}


def _entries(**changes):
    """BASE with each change applied: a new value, or None to drop the key."""
    entries = {**BASE, **changes}
    return "".join(f"{key} = {value}\n" for key, value in entries.items() if value is not None)


LAME = {"alpha1": None, "kappa": None, "lambda": "1", "mu": "1"}

#: (config text, or None for a missing file; stderr after "config error: ")
ERROR_PATHS = {
    "missing file": (
        None, "cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'"
    ),
    "no equals sign": ("map 0,0 0.1,0.1\n", "{cfg}:1: expected key = value"),
    "empty value": ("# fig1\nmap =\n", "{cfg}:2: empty key or value"),
    "duplicate key": (_entries() + "map = 0,0 0.2,0\n", "{cfg}:9: duplicate key 'map'"),
    "unknown key": (_entries(zeta="1", sigma="2"), "unknown config keys: ['sigma', 'zeta']"),
    "no map": (_entries(map=None), "missing required key: map"),
    "bad pair": (_entries(map="0,0 0.1"), "map: expected re,im pairs, got '0.1'"),
    "map nan": (_entries(map="0,0 nan,0"), "map: expected a finite number, got 'nan'"),
    "map text": (_entries(map="0,0 x,0"), "map: expected a number, got 'x'"),
    "A inf": (_entries(A="0,0 inf,0"), "A: expected a finite number, got 'inf'"),
    "A text": (_entries(A="0,0 1,y"), "A: expected a number, got 'y'"),
    "B inf": (_entries(B="0,0 1,-inf"), "B: expected a finite number, got '-inf'"),
    "B pair": (_entries(B="0,0 1"), "B: expected re,im pairs, got '1'"),
    "alpha1 nan": (_entries(alpha1="nan"), "alpha1: expected a finite number, got 'nan'"),
    "kappa text": (_entries(kappa="k"), "kappa: expected a number, got 'k'"),
    "lambda inf": (
        _entries(**{**LAME, "lambda": "inf"}), "lambda: expected a finite number, got 'inf'"
    ),
    "mu text": (_entries(**{**LAME, "mu": "one"}), "mu: expected a number, got 'one'"),
    "truncation_N text": (
        _entries(truncation_N="4.5"), "truncation_N: expected an integer, got '4.5'"
    ),
    "quadrature_Q text": (
        _entries(quadrature_Q="2e3"), "quadrature_Q: expected an integer, got '2e3'"
    ),
    "grid nan": (_entries(grid="-2 nan -2 2 11 11"), "grid: expected a finite number, got 'nan'"),
    "grid size text": (_entries(grid="-2 2 -2 2 11 x"), "grid: expected an integer, got 'x'"),
    "no material": (
        _entries(alpha1=None, kappa=None),
        "material must be given as exactly one of (lambda, mu) or (alpha1, kappa)",
    ),
    "both materials": (
        _entries(**{"lambda": "1"}, mu="1"),
        "material must be given as exactly one of (lambda, mu) or (alpha1, kappa)",
    ),
    "no kappa": (_entries(kappa=None), "synthetic material needs both alpha1 and kappa"),
    "no alpha1": (_entries(alpha1=None), "synthetic material needs both alpha1 and kappa"),
    "no mu": (_entries(**{**LAME, "mu": None}), "lame material needs both lambda and mu"),
    "no lambda": (_entries(**{**LAME, "lambda": None}), "lame material needs both lambda and mu"),
    "alpha1 negative": (_entries(alpha1="-0.5"), "synthetic material: alpha1 must be positive"),
    "kappa zero": (_entries(kappa="0"), "synthetic material: kappa must be neither 0 nor -1"),
    "kappa -1": (_entries(kappa="-1"), "synthetic material: kappa must be neither 0 nor -1"),
    "lame rejected": (
        _entries(**{**LAME, "mu": "-1"}),
        "lame material: need mu > 0 and lam + mu > 0, got lam=1.0, mu=-1.0",
    ),
    "truncation_N zero": (_entries(truncation_N="0"), "truncation_N must be positive"),
    "truncation_N negative": (_entries(truncation_N="-3"), "truncation_N must be positive"),
    "truncation_N floor": (
        _entries(A="0,0 1,0 0,0 0,1", truncation_N="2"),
        "truncation_N = 2 is below the solver's floor "
        "max(loading degree, 1) + max(map order - 1, 0) = 3",
    ),
    "quadrature_Q not a power of two": (
        _entries(quadrature_Q="100"),
        "quadrature_Q: node count must be a power of two, at least 64",
    ),
    "quadrature_Q small": (
        _entries(quadrature_Q="32"),
        "quadrature_Q: node count must be a power of two, at least 64",
    ),
    "grid five fields": (_entries(grid="-2 2 -2 2 11"), "grid needs: xmin xmax ymin ymax nx ny"),
    "grid one row": (
        _entries(grid="-2 2 -2 2 11 1"), "grid: grid resolution must be at least 2 per axis"
    ),
    "grid decreasing": (
        _entries(grid="2 -2 -2 2 11 11"), "grid: grid ranges must be increasing"
    ),
    "two errors": (_entries(map=None, grid="1 2"), "missing required key: map"),
}


class TestErrorPaths:
    """The exit code and the exact stderr of every config error."""

    @pytest.mark.parametrize("command", ["solve", "field"])
    @pytest.mark.parametrize("case", ERROR_PATHS)
    def test_config_errors(self, tmp_path, monkeypatch, capsys, command, case):
        monkeypatch.chdir(tmp_path)
        text, message = ERROR_PATHS[case]
        cfg = tmp_path / "job.cfg"
        if text is not None:
            cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message.format(cfg=cfg)}\n")
        assert sorted(os.listdir(tmp_path)) == ([] if text is None else ["job.cfg"])

    @pytest.mark.parametrize("command", ["solve", "field"])
    @pytest.mark.parametrize("case", ["truncation_N text", "quadrature_Q text"])
    def test_overridden_keys_are_parsed(self, tmp_path, monkeypatch, capsys, command, case):
        monkeypatch.chdir(tmp_path)
        text, message = ERROR_PATHS[case]
        cfg = tmp_path / "job.cfg"
        cfg.write_text(text)
        args = [command, "--config", str(cfg), "--order", "12", "--quadrature", "512"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_field_without_grid(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, _entries(grid=None))
        assert main(["field", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: field command needs a grid in the config\n"
        )
        assert main(["solve", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("command,first", [
        ("solve", "solution.csv"), ("field", "field.csv"), ("faber-table", "monomial.csv"),
    ])
    def test_output_prefix_cannot_be_written(self, tmp_path, capsys, command, first):
        cfg = write_config(tmp_path, _entries())
        prefix = tmp_path / "missing" / "x"
        assert main([command, "--config", cfg, "--out", str(prefix)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: [Errno 2] No such file or directory: '{prefix}_{first}'\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["job.cfg"]

    def test_order_at_the_solver_floor(self, tmp_path, monkeypatch, capsys):
        # the floor is max(p, 1) + max(M - 1, 0): 1 on fig1, and 67 on the
        # order-8, degree-60 config, which is rejected before a table is built
        import faberelast.cli as cli

        monkeypatch.chdir(tmp_path)
        fig1 = str(CONFIGS / "fig1.cfg")
        for order in ("1", "2", "48"):
            assert main(["solve", "--config", fig1, "--order", order, "--out", order]) == EXIT_OK
            summary = (tmp_path / f"{order}_summary.txt").read_text().splitlines()
            assert "c3 = -0.20312500000000003" in summary
        high = high_degree_config(tmp_path)
        tables = []
        monkeypatch.setattr(cli, "build_faber", lambda *a: tables.append(a) or build_faber(*a))
        capsys.readouterr()
        assert main(["solve", "--config", high, "--order", "66"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: truncation_N = 66 is below the solver's floor "
            "max(loading degree, 1) + max(map order - 1, 0) = 67\n"
        )
        assert tables == []
        assert main(["solve", "--config", high, "--order", "67", "--out", "high"]) == EXIT_OK


class TestValidateNaN:
    def _check_line(self, capsys, name):
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if l.startswith(name + " ")]
        return line

    def test_nan_oracle_fails(self, tmp_path, monkeypatch, capsys):
        import faberelast.oracle as oracle

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            oracle, "kelvin_single_layer", lambda *a, **k: complex(np.nan, np.nan)
        )
        cfg = str(CONFIGS / "fig1.cfg")
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        line = self._check_line(capsys, "oracle_quadrature")
        assert "nan" in line and line.endswith("FAIL")

    def test_nan_equilibrium_fails(self, tmp_path, monkeypatch, capsys):
        # a NaN behind a finite first moment
        import faberelast.oracle as oracle

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            oracle, "equilibrium_residual", lambda *a, **k: np.array([0.0, np.nan, 0.0])
        )
        cfg = str(CONFIGS / "fig1.cfg")
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        assert self._check_line(capsys, "equilibrium").endswith("FAIL")

    def test_nan_exterior_series_fails(self, tmp_path, monkeypatch, capsys):
        import faberelast.oracle as oracle

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            oracle, "single_layer_exterior",
            lambda *a, **k: np.full(np.shape(a[4]), complex(np.nan, np.nan)),
        )
        cfg = str(CONFIGS / "fig1.cfg")
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split()[0] for line in lines if line.endswith("FAIL")]
        assert failed == ["boundary_continuity", "oracle_quadrature"]


# Frozen copies of the per-value writers the CLI used before every CSV
# file went through one chunked formatter; finite values must come out
# byte for byte as they did.
_FMT = "%.17g"


def _frozen_solution_csv(sol):
    lines = ["m,re_s,im_s,re_t,im_t\n"]
    for m in range(1, sol.order + 1):
        lines.append(
            ",".join(
                _FMT % v
                for v in (
                    m,
                    sol.s[m - 1].real,
                    sol.s[m - 1].imag,
                    sol.t[m - 1].real,
                    sol.t[m - 1].imag,
                )
            )
            + "\n"
        )
    return "".join(lines).encode()


def _frozen_format_complex(value):
    return f"{_FMT % value.real}{'-' if np.signbit(value.imag) else '+'}{_FMT % abs(value.imag)}j"


def _frozen_matrix_csv(matrix):
    return "".join(
        ",".join(_frozen_format_complex(v) for v in row) + "\n" for row in matrix
    ).encode()


def _frozen_vector_csv(values):
    return "".join(_frozen_format_complex(v) + "\n" for v in values).encode()


def _frozen_tables(table):
    return {
        "monomial": _frozen_matrix_csv(table.monomial),
        "grunsky": _frozen_matrix_csv(table.grunsky),
        "gamma": _frozen_matrix_csv(table.gamma),
        "gamma0": _frozen_vector_csv(table.gamma0),
    }


def _pairs(values):
    return " ".join(f"{complex(v).real!r},{complex(v).imag!r}" for v in values)


# Besides zeros, subnormals and NaN: an exact 17-digit tie (1 + 2**-17),
# the %g switch to an exponent at 1e17 (9.9999999999999999e16 reads as
# 1e17), a value next to a power of ten (1e-5) and one outside the range
# the formatter decides itself (1e-250), and a NaN with its sign bit set.
# The spot checks below read entries 0-4 and the last eight.
SPECIAL = [-0.0, 5e-324, 1e300, 1.0 + 2.0**-17, np.nan, 9.9999999999999999e16,
           float(np.nextafter(1e-5, 0)), -0.0, 1e-250, -np.nan, -1e300, np.nan, 0.0,
           1.0 / 3.0, -2.5]


def _complex(re, im):
    # built part by part: re + 1j*im would turn -0.0 parts into +0.0
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


class TestCsvWritersByteIdentical:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "order12"])
    def test_faber_table_matches_frozen_writer(self, tmp_path, name):
        from faberelast.cli import load_job
        from faberelast.faber import build_faber
        from faberelast.solver import required_table_order

        if name == "order12":
            mp = random_univalent_map(np.random.default_rng(12145), 12)
            cfg = tmp_path / "order12.cfg"
            cfg.write_text(
                f"map = {_pairs(mp.coefficient(k) for k in range(13))}\n"
                "alpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0 1,0\n"
            )
            extra = ["--order", "132"]  # table order 132 + 12 + 1 = 145
        else:
            cfg = CONFIGS / f"{name}.cfg"
            extra = []
        out = str(tmp_path / name)
        argv = ["faber-table", "--config", str(cfg), "--out", out, *extra]
        assert main(argv) == EXIT_OK
        job = load_job(str(cfg), order=132 if extra else None)
        table = build_faber(job.mapping, required_table_order(job.mapping, job.truncation_n))
        if name == "order12":
            assert table.order == 145
        for suffix, expected in _frozen_tables(table).items():
            assert (tmp_path / f"{name}_{suffix}.csv").read_bytes() == expected, suffix

    def _run_hand_table(self, tmp_path, monkeypatch, matrix):
        import faberelast.cli as cli

        fake = SimpleNamespace(
            monomial=matrix, grunsky=matrix[:, ::-1], gamma=matrix.T, gamma0=matrix[:, 0]
        )
        monkeypatch.setattr(cli, "build_faber", lambda *a, **k: fake)
        cfg = write_config(tmp_path, FIG1, out=str(tmp_path / "h"))
        assert main(["faber-table", "--config", cfg]) == EXIT_OK
        return fake

    def test_hand_built_tables_match_frozen_writer(self, tmp_path, monkeypatch):
        vals = np.array(SPECIAL)
        matrix = _complex(vals[:, None], vals[None, ::-1])
        matrix[2, 3] = complex(-0.0, -0.0)
        fake = self._run_hand_table(tmp_path, monkeypatch, matrix)
        for suffix, expected in _frozen_tables(fake).items():
            assert (tmp_path / f"h_{suffix}.csv").read_bytes() == expected, suffix
        first = (tmp_path / "h_monomial.csv").read_text().splitlines()[0].split(",")
        assert first[:2] == ["-0-2.5j", "-0+0.33333333333333331j"]
        # the sign comes from the sign bit: -0.0j is written -0j, +nan as +nanj
        assert first[7] == "-0-0j"
        assert first[3] == "-0+nanj"

    def test_infinite_table_entries_written_as_nan(self, tmp_path, monkeypatch):
        matrix = np.array([[complex(np.inf, 1.0), complex(1.0, np.inf)],
                           [complex(-np.inf, -np.inf), complex(2.0, -0.0)]])
        self._run_hand_table(tmp_path, monkeypatch, matrix)
        lines = (tmp_path / "h_monomial.csv").read_text().splitlines()
        assert lines == ["nan+1j,1+nanj", "nan-nanj,2-0j"]
        assert (tmp_path / "h_gamma0.csv").read_text() == "nan+1j\nnan-nanj\n"

    def test_table_dump_reads_back_with_sign_bit(self, tmp_path, monkeypatch):
        vals = np.array([-0.0, 0.0, np.nan, -np.nan, 5e-324, -1e300, 1.0 / 3.0, -2.5])
        assert np.signbit(vals[3]) and not np.signbit(vals[2])
        matrix = _complex(vals[:, None], vals[None, ::-1])
        self._run_hand_table(tmp_path, monkeypatch, matrix)
        text = (tmp_path / "h_monomial.csv").read_text().splitlines()
        back = np.array([[complex(v) for v in line.split(",")] for line in text])
        assert np.array_equal(np.signbit(back.imag), np.signbit(matrix.imag))
        finite = np.isfinite(matrix.real)
        assert np.array_equal(np.signbit(back.real[finite]), np.signbit(matrix.real[finite]))
        assert np.array_equal(back, matrix, equal_nan=True)

    def _write_hand_solution(self, tmp_path, s, t):
        from faberelast.cli import _write_solution
        from faberelast.oracle import Check
        from faberelast.solver import DensitySolution

        sol = DensitySolution(s=np.asarray(s), t=np.asarray(t), c1=0.0, c2=0.0,
                              c3=0.0, order=len(s))
        checks = [Check(name, 0.0, 1.0, True) for name in
                  ("transmission", "equilibrium_1", "equilibrium_2", "equilibrium_3")]
        _write_solution(SimpleNamespace(output_path=str(tmp_path / "h")), sol, checks)
        return sol, (tmp_path / "h_solution.csv").read_bytes()

    def test_hand_built_solution_matches_frozen_writer(self, tmp_path):
        vals = np.array(SPECIAL)
        s = _complex(vals, vals[::-1])
        t = _complex(vals[::-1], vals)
        sol, body = self._write_hand_solution(tmp_path, s, t)
        assert body == _frozen_solution_csv(sol)
        lines = body.decode().splitlines()
        assert lines[1] == "1,-0,-2.5,-2.5,-0"
        assert lines[2] == "2,4.9406564584124654e-324,0.33333333333333331,0.33333333333333331,4.9406564584124654e-324"
        assert lines[3] == "3,1.0000000000000001e+300,0,0,1.0000000000000001e+300"
        assert lines[5] == "5,nan,-1.0000000000000001e+300,-1.0000000000000001e+300,nan"

    def test_infinite_solution_values_written_as_nan(self, tmp_path):
        s = np.array([complex(np.inf, -np.inf), complex(1.0, 2.0)])
        t = np.array([complex(3.0, np.nan), complex(-np.inf, 0.5)])
        _, body = self._write_hand_solution(tmp_path, s, t)
        assert body == b"m,re_s,im_s,re_t,im_t\n1,nan,nan,3,nan\n2,1,2,nan,0.5\n"


class TestCanvasOnFirstRead:
    """The Grunsky canvas is built by the first exterior sum or dump, once per table."""

    def _configs(self, tmp_path):
        rng = np.random.default_rng(1260)
        mp = random_univalent_map(rng, 12)
        A = rng.normal(size=61) + 1j * rng.normal(size=61)
        B = rng.normal(size=61) + 1j * rng.normal(size=61)
        seeded = (
            f"map = {_pairs(mp.coefficient(k) for k in range(13))}\n"
            f"lambda = 1\nmu = 1\nA = {_pairs(A)}\nB = {_pairs(B)}\n"
            "truncation_N = 72\nquadrature_Q = 512\ngrid = -3 3 -3 3 9 9\n"
            "output_path = {out}\n"
        )
        out = str(tmp_path / "out")
        return [write_config(tmp_path, FIG1, "fig1.cfg", out=out),
                write_config(tmp_path, seeded, "seeded.cfg", out=out)]

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        import faberelast.faber as faber

        calls = []
        original = faber._grunsky_wide
        monkeypatch.setattr(faber, "_grunsky_wide",
                            lambda *a: calls.append(a) or original(*a))
        return calls

    @pytest.mark.parametrize("command,builds", [("solve", 0), ("field", 1), ("validate", 1),
                                                ("faber-table", 1)])
    def test_cli_builds(self, tmp_path, monkeypatch, command, builds):
        calls = self._count_builds(monkeypatch)
        for cfg in self._configs(tmp_path):
            calls.clear()
            assert main([command, "--config", cfg]) in (EXIT_OK, EXIT_VALIDATION)
            assert len(calls) == builds, (cfg, command)

    def test_library_builds(self, tmp_path, monkeypatch):
        from faberelast import build_faber, displacement, required_table_order, solve_full
        from faberelast.cli import load_job

        calls = self._count_builds(monkeypatch)
        for cfg in self._configs(tmp_path):
            job = load_job(cfg)
            mp, mat, loading, n = job.mapping, job.material, job.loading, job.truncation_n
            solve_full(mp, loading, mat, n)
            assert len(calls) == 0
            table = build_faber(mp, required_table_order(mp, n))
            sol = solve_full(mp, loading, mat, n, table=table)
            assert len(calls) == 0
            displacement(sol, table, mp, mat, loading, 1.5 + 0.5j)
            assert len(calls) == 1
            displacement(sol, table, mp, mat, loading, -2.0j)
            assert len(calls) == 1
            calls.clear()
