"""Compare the bytes the CSV writer writes with Python's '%.17g' on random bits.

    python3 tools/g17_oracle.py --count 10000000 --seed 13

Draws uniformly random 64-bit patterns, so every finite, subnormal,
infinite and NaN value can occur, writes them a chunk at a time through
``faberelast.csvtext.write_csv``, the writer of every CSV file, to a
temporary file, and compares each line read back with Python's ``%``:
one value a line in a ``%.17g`` row, text ``'%.17g' % x`` (``nan`` for a
non-finite x), and each value as both parts of the Faber-table dumps'
``%.17g%+.17gj`` row, whose imaginary part is "-" or "+" by the sign
bit, then the text of |x|.  So the writer's layout of each row and its
NUL compaction are checked with the digits.  Prints the values checked,
how many lie in the range the formatter decides without ``%``, and the
mismatches of each row; exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faberelast.csvtext import _G17_RANGE, write_csv  # noqa: E402

CHUNK = 1 << 16
#: the row of each form, by plus
ROWS = {False: "%.17g\n", True: "%.17g%+.17gj\n"}


def expected_lines(values: np.ndarray, plus: bool) -> list:
    """The lines Python's ``%`` gives for each float in the row ``ROWS[plus]``."""
    def text(x):
        return b"%.17g" % x if math.isfinite(x) else b"nan"

    def signed(x):
        return (b"-" if math.copysign(1.0, x) < 0 else b"+") + text(abs(x)) + b"j"

    return [text(x) + signed(x) if plus else text(x) for x in values.tolist()]


def mismatches(values: np.ndarray, plus: bool, path: Path) -> np.ndarray:
    """Indices of the floats whose line ``write_csv`` writes to ``path`` is not Python's.

    Every index when the file does not hold one line per value.
    """
    write_csv(path, "", ROWS[plus], np.stack([values, values], axis=1) if plus else values[:, None])
    got = path.read_bytes().split(b"\n")
    if got.pop() != b"" or len(got) != len(values):
        return np.arange(len(values))
    return np.flatnonzero([a != b for a, b in zip(got, expected_lines(values, plus))])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    in_range = 0
    found = {plus: 0 for plus in ROWS}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g17.csv"
        for lo in range(0, args.count, CHUNK):
            n = min(CHUNK, args.count - lo)
            values = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
            a = np.abs(values)
            in_range += np.count_nonzero((a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1]))
            for plus, row in ROWS.items():
                bad = mismatches(values, plus, path)
                for i in bad[: max(0, 10 - found[plus])]:
                    print(f"{row.strip()} mismatch: {values[i]!r}", file=sys.stderr)
                found[plus] += bad.size
    print(f"checked {args.count} values, {in_range} in the fast range, "
          + ", ".join(f"{found[plus]} {row.strip()} mismatches" for plus, row in ROWS.items()))
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
