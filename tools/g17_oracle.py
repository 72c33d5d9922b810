"""Compare the bytes the CSV writer writes with Python's '%.17g' on random bits and short decimals.

    python3 tools/g17_oracle.py --count 10000000 --seed 13

Draws uniformly random 64-bit patterns, so every finite, subnormal,
infinite and NaN value can occur, and as many short decimals: the double
nearest to +-m 10**e, with m of 1 to 17 digits and k = floor(log10 |x|)
from -20 to 20.  Their text moves its dot (1 <= k <= 16) in about 39% of
draws, against 2.6% of random bit patterns, and has trailing zeros to cut
in about 39%, where random bit patterns seldom have more than one.  It
writes each draw a chunk at a time through
``faberelast.csvtext.write_csv``, the writer of every CSV file, to a
temporary file, and compares each line read back with Python's ``%``:
one value a line in a ``%.17g`` row, text ``'%.17g' % x`` (``nan`` for a
non-finite x), and each value as both parts of the Faber-table dumps'
``%.17g%+.17gj`` row, whose imaginary part is "-" or "+" by the sign
bit, then the text of |x|.  So the writer's layout of each row and its
NUL compaction are checked with the digits.  Prints, for each draw, the
values checked, how many lie in the range the formatter decides without
``%``, and the mismatches of each row; exits 1 on any mismatch.
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


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def short_decimals(rng: np.random.Generator, n: int) -> np.ndarray:
    """The doubles nearest to +-m 10**(k + 1 - d): m of d = 1 .. 17 digits, k = -20 .. 20."""
    d = rng.integers(1, 18, size=n)
    m = rng.integers(10 ** (d - 1), 10**d)
    e = rng.integers(-20, 21, size=n) + 1 - d
    sign = rng.choice(["", "-"], size=n)
    return np.array([float(f"{s}{m}e{e}") for s, m, e in zip(sign, m.tolist(), e.tolist())])


#: the draws, in order; draw i > 0 seeds its generator with (--seed, i), so
#: the random bits are those of --seed alone
DRAWS = {"random bits": random_bits, "short decimals": short_decimals}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g17.csv"
        for index, (name, draw) in enumerate(DRAWS.items()):
            rng = np.random.default_rng(args.seed if index == 0 else (args.seed, index))
            in_range = 0
            found = {plus: 0 for plus in ROWS}
            for lo in range(0, args.count, CHUNK):
                values = draw(rng, min(CHUNK, args.count - lo))
                a = np.abs(values)
                in_range += np.count_nonzero((a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1]))
                for plus, row in ROWS.items():
                    bad = mismatches(values, plus, path)
                    for i in bad[: max(0, 10 - found[plus])]:
                        print(f"{name}, {row.strip()} mismatch: {values[i]!r}", file=sys.stderr)
                    found[plus] += bad.size
            counts = [f"{found[plus]} {row.strip()} mismatches" for plus, row in ROWS.items()]
            print(f"{name}: checked {args.count} values, {in_range} in the fast range, "
                  + ", ".join(counts))
            failed |= any(found.values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
