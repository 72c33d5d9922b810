import hashlib
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from faberelast.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, EXIT_VALIDATION, main
from util import random_univalent_map

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
        # map order 8 under a random loading of degree 60
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(860)
        mp = random_univalent_map(rng, 8)

        def pairs(values):
            return " ".join(f"{complex(v).real!r},{complex(v).imag!r}" for v in values)

        A = rng.normal(size=61) + 1j * rng.normal(size=61)
        B = rng.normal(size=61) + 1j * rng.normal(size=61)
        text = (
            f"map = {pairs(mp.coefficient(k) for k in range(9))}\n"
            f"lambda = 1\nmu = 1\nA = {pairs(A)}\nB = {pairs(B)}\n"
            "truncation_N = 68\n"
        )
        cfg = tmp_path / "high.cfg"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK


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
#: and column of the field CSV that the per-mode evaluators wrote with
#: numpy 2.4.6; tests/data/<fig>_summary.txt is the summary written then.
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


class TestValidateNaN:
    def _check_line(self, capsys, name):
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if l.startswith(name + " ")]
        return line

    def test_nan_oracle_fails(self, tmp_path, monkeypatch, capsys):
        import faberelast.cli as cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            cli, "kelvin_single_layer", lambda *a, **k: complex(np.nan, np.nan)
        )
        cfg = str(CONFIGS / "fig1.cfg")
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        line = self._check_line(capsys, "oracle_quadrature")
        assert "nan" in line and line.endswith("FAIL")

    def test_nan_equilibrium_fails(self, tmp_path, monkeypatch, capsys):
        # a NaN behind a finite first moment
        import faberelast.cli as cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            cli, "equilibrium_residual", lambda *a, **k: np.array([0.0, np.nan, 0.0])
        )
        cfg = str(CONFIGS / "fig1.cfg")
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        assert self._check_line(capsys, "equilibrium").endswith("FAIL")


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


SPECIAL = [-0.0, 5e-324, 1e300, -1e300, np.nan, 0.0, 1.0 / 3.0, -2.5]


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
        from faberelast.solver import DensitySolution

        sol = DensitySolution(s=np.asarray(s), t=np.asarray(t), c1=0.0, c2=0.0,
                              c3=0.0, order=len(s))
        summary = {"transmission": 0.0, "equilibrium_1": 0.0,
                   "equilibrium_2": 0.0, "equilibrium_3": 0.0}
        _write_solution(SimpleNamespace(output_path=str(tmp_path / "h")), sol, summary)
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
