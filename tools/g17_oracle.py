"""Compare the CSV writer's number text with Python's '%.17g' on random bits.

    python3 tools/g17_oracle.py --count 10000000 --seed 13

Draws uniformly random 64-bit patterns, so every finite, subnormal,
infinite and NaN value can occur, formats them a chunk at a time with
the formatter behind every CSV file, and compares each text with
``'%.17g' % x`` (``nan`` for a non-finite x).  Prints the values
checked, how many lie in the range the formatter decides without ``%``,
and the mismatches; exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faberelast.fields import _G17_RANGE, _G17_WIDTH, _g17_text  # noqa: E402

CHUNK = 1 << 16


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    in_range = mismatches = 0
    for lo in range(0, args.count, CHUNK):
        n = min(CHUNK, args.count - lo)
        values = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        a = np.abs(values)
        in_range += np.count_nonzero((a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1]))
        expected = [b"%.17g" % x if np.isfinite(x) else b"nan" for x in values.tolist()]
        expected = np.array(expected, dtype=f"S{_G17_WIDTH}").view(np.uint8)
        bad = np.flatnonzero(
            (_g17_text(values.copy()) != expected.reshape(n, _G17_WIDTH)).any(axis=1))
        for i in bad[: max(0, 10 - mismatches)]:
            print(f"mismatch: {values[i]!r}", file=sys.stderr)
        mismatches += bad.size
    print(f"checked {args.count} values, {in_range} in the fast range, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
