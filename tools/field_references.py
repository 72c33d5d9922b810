"""Regenerate or compare the sampled field references of fig1-fig3.

    python3 tools/field_references.py --diff | --write

Runs ``field`` on configs/<fig>.cfg through ``faberelast.cli.main`` and
keeps the header and every 10th row and column of the 201 x 201 field
CSV, as tests/test_cli.py samples it.  ``--write`` stores that in
tests/data/<fig>_field_every10.csv.  ``--diff`` prints, for each figure
and number column, the largest |new - old| over the column's largest
|old|; tests/test_cli.py checks the x, y and region text exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
from faberelast.cli import main  # noqa: E402

SIZE, STEP, TEXT = 201, 10, (0, 1, 4)  # grid size, sample step, x/y/region columns


def sampled(name: str) -> list:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = str(Path(tmp) / name)
        assert main(["field", "--config", str(REPO / "configs" / f"{name}.cfg"), "--out", out]) == 0
        lines = Path(out + "_field.csv").read_text().splitlines()
    picks = range(0, SIZE, STEP)
    return lines[:1] + [lines[1 + r * SIZE + c] for r in picks for c in picks]


def diff(new: list, old: list) -> str:
    names = [n for c, n in enumerate(old[0].split(",")) if c not in TEXT]
    a, b = (np.array([[float(v) for c, v in enumerate(line.split(",")) if c not in TEXT]
                      for line in lines[1:]]) for lines in (new, old))
    gap = np.nanmax(np.abs(a - b), axis=0) / np.nanmax(np.abs(b), axis=0)
    return " ".join(f"{n} {g:.2g}" for n, g in zip(names, gap))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the references")
    mode.add_argument("--diff", action="store_true", help="print each column's shift")
    write = parser.parse_args().write
    for fig in ("fig1", "fig2", "fig3"):
        path, new = REPO / "tests" / "data" / f"{fig}_field_every10.csv", sampled(fig)
        if write:
            path.write_text("\n".join(new) + "\n")
        else:
            print(fig, diff(new, path.read_text().splitlines()))
