"""Print the exit code and sha256 digests of every subcommand's outputs.

    python3 tools/output_digests.py > digests.txt

Runs ``solve``, ``field``, ``validate`` and ``faber-table`` through
``faberelast.cli.main`` on configs/fig1-fig3, on the ``high_degree_cli``
config that benchmarks/inputs.py writes (map order 12, loading degree
120), on the non-univalent map w + 2/w, and on the exterior
Schwarz-Christoffel map of a square cut at order 63 (``square_config``),
each run into a fresh temporary directory.  Prints one line per run
with the exit code and the sha256 of stdout and stderr, where the output
prefix reads ``<out>``, then one indented line per output file with its
sha256.  Then, for fig1 and the high-degree config, one line for the
library path: the config's job through ``build_faber`` and
``solve_full``, then ``displacement`` at the fixed points PROBES in
order, and the sha256 of s, t, c1-c3 and each probe's (u0, S, u).  Run it in two checkouts and diff the text:
byte-identical outputs print identical lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks")]
import inputs  # noqa: E402
import numpy as np  # noqa: E402
from faberelast import build_faber, displacement, required_table_order, solve_full  # noqa: E402
from faberelast.cli import load_job, main  # noqa: E402

COMMANDS = ("solve", "field", "validate", "faber-table")
#: Psi' of w + 2/w has two zeros outside the disk
NON_UNIVALENT = (
    "map = 0,0 2,0\nalpha1 = 0.5\nkappa = 0.3\nA = 0,0 1,0\nB = 0,0 1,0\n"
    "truncation_N = 8\nquadrature_Q = 512\ngrid = -3 3 -3 3 11 11\n"
)


def square_config() -> str:
    """The config of the exterior Schwarz-Christoffel map of a square, cut at
    order 63: a_{4j-1} = -binom(1/2, j)/(4j - 1) for j <= 16."""
    a, binom = [0.0] * 64, 1.0
    for j in range(1, 17):
        binom *= (1.5 - j) / j  # binom(1/2, j)
        a[4 * j - 1] = -binom / (4 * j - 1)
    return ("map = " + " ".join(f"{v!r},0" for v in a) + "\nalpha1 = 0.5\nkappa = 0.3\n"
            "A = 0,0 1,0\nB = 0,0 1,0\ntruncation_N = 64\nquadrature_Q = 512\n"
            "grid = -2 2 -2 2 41 41\n")


#: preimage points of the library probes: three outside the boundary, one on it
PROBES = (1.3 + 0.4j, -2.0j, 1.0, 4.0 - 1.5j)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases(tmp: Path) -> list:
    """(name, config path) of every case; generated configs go into tmp."""
    named = [(fig, REPO / "configs" / f"{fig}.cfg") for fig in ("fig1", "fig2", "fig3")]
    high = inputs.build("high_degree_cli", 1, REPO, tmp).cli_cases[0]
    non_univalent = tmp / "non_univalent.cfg"
    non_univalent.write_text(NON_UNIVALENT)
    square = tmp / "square63.cfg"
    square.write_text(square_config())
    return named + [("high_degree", high.config), ("non_univalent", non_univalent),
                    ("square63", square)]


def digests(name: str, command: str, config: Path, out_dir: Path) -> list:
    """The digest lines of one run of case ``name``, its outputs under out_dir."""
    out_dir.mkdir()
    prefix = str(out_dir / "out")
    streams = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        code = main([command, "--config", str(config), "--out", prefix])
    out, err = (s.getvalue().replace(prefix, "<out>").encode() for s in streams)
    lines = [f"{name} {command} exit {code} stdout {sha(out)} stderr {sha(err)}"]
    lines += [f"  {p.name} {sha(p.read_bytes())}" for p in sorted(out_dir.iterdir())]
    return lines


def library_digest(name: str, config: Path) -> str:
    """The digest line of case ``name`` solved and probed through the library."""
    job = load_job(str(config))
    mapping, mat, loading, n = job.mapping, job.material, job.loading, job.truncation_n
    table = build_faber(mapping, required_table_order(mapping, n))
    sol = solve_full(mapping, loading, mat, n, table=table)
    values = [sol.s, sol.t, np.array([sol.c1, sol.c2, sol.c3])]
    for w in PROBES:
        f = displacement(sol, table, mapping, mat, loading, w)
        values.append(np.array([f.u0, f.S, f.u], dtype=complex))
    return f"{name} library {sha(b''.join(v.tobytes() for v in values))}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in cases(Path(tmp)):
            for command in COMMANDS:
                out_dir = Path(tmp) / f"{name}-{command}"
                print("\n".join(digests(name, command, config, out_dir)))
            if name in ("fig1", "high_degree"):
                print(library_digest(name, config))
