import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from faberelast.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, main
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

    def test_field_determinism_across_threads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG1, out="t1")
        main(["field", "--config", cfg])
        monkeypatch.setenv("FABERELAST_THREADS", "3")
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


#: SHA-256 of the shipped figure outputs; any change to these bytes is a
#: change of results, not a refactor
FIGURE_OUTPUT_SHA256 = {
    "fig1_solution.csv": "61506f19a2d36f7487d1b1908c5bf1756edc6131fdb269d537516a4c0d4de9fe",
    "fig2_solution.csv": "5a0b3f8deaeaa45228cbb29cfa839b87f3cbb1685ec4662eb51891ee2c58f944",
    "fig3_solution.csv": "c2cf527d2aaa3bf8d2ad8f140f2c73d7958b6b02b3413ccc7713e06e8de7f2f1",
    "fig1_summary.txt": "1942f478d5a481af60c15faa699a7096f7e25ece20e1e9d42568262f8212fbaa",
    "fig2_summary.txt": "a2687517b00aa1480d499fe440dcec902ae14f6aef4d59584d66ca32c0358012",
    "fig3_summary.txt": "1dfa365a851db2d3a19f818d1eb64c699909abe690fdf4d944f41affd1d9862c",
    "fig1_field.csv": "4ad8e752a7411ba311a8e613a1bca41efcf3d941d22fc579bccb695e2fdf2b88",
    "fig2_field.csv": "ddaf6fe8d36090a0bddc40b6f08999d1282177226c29dd530b43ae1bfa623dad",
    "fig3_field.csv": "56726b6a5a7e52ff4ec3ddf728b6c6277167001172dd76e4439c64edd60ada2c",
}


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_figure_outputs_byte_identical(tmp_path, name):
    out = str(tmp_path / name)
    cfg = str(CONFIGS / f"{name}.cfg")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["field", "--config", cfg, "--out", out]) == EXIT_OK
    for suffix in ("_solution.csv", "_summary.txt", "_field.csv"):
        digest = hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
        assert digest == FIGURE_OUTPUT_SHA256[name + suffix], name + suffix


class TestFaberTableCommand:
    def test_writes_tables(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG1, out="tbl")
        assert main(["faber-table", "--config", cfg, "--order", "8"]) == EXIT_OK
        for suffix in ("monomial", "grunsky", "gamma", "gamma0"):
            assert os.path.exists(f"tbl_{suffix}.csv")
        first = Path("tbl_gamma0.csv").read_text().splitlines()[0]
        assert first == "1+0j"
