"""Compare the CSV writer's number text with Python's '%.17g' on random bits.

    python3 tools/g17_oracle.py --count 10000000 --seed 13

Draws uniformly random 64-bit patterns, so every finite, subnormal,
infinite and NaN value can occur, formats them a chunk at a time with
the formatter behind every CSV file, and compares each text with
``'%.17g' % x`` (``nan`` for a non-finite x).  The same bits are checked
in the sign-bit form of ``%+.17g`` cells, the imaginary parts of the
Faber-table dumps: "-" or "+" by the sign bit, then the text of |x|.
Prints the values checked, how many lie in the range the formatter
decides without ``%``, and the mismatches of each form; exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import math
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
    in_range = 0
    mismatches = {"%.17g": 0, "%+.17g": 0}
    for lo in range(0, args.count, CHUNK):
        n = min(CHUNK, args.count - lo)
        values = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        a = np.abs(values)
        in_range += np.count_nonzero((a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1]))
        text = [b"%.17g" % x if math.isfinite(x) else b"nan" for x in values.tolist()]
        # the sign-bit form: "-" or "+" by the sign bit, then the text of |x|
        signed = [(b"-" if math.copysign(1.0, x) < 0 else b"+")
                  + (b"%.17g" % abs(x) if math.isfinite(x) else b"nan") for x in values.tolist()]
        for form, plus, expected in (("%.17g", False, text), ("%+.17g", True, signed)):
            expected = np.array(expected, dtype=f"S{_G17_WIDTH}").view(np.uint8)
            bad = np.flatnonzero(
                (_g17_text(values.copy(), plus) != expected.reshape(n, _G17_WIDTH)).any(axis=1))
            for i in bad[: max(0, 10 - mismatches[form])]:
                print(f"{form} mismatch: {values[i]!r}", file=sys.stderr)
            mismatches[form] += bad.size
    print(f"checked {args.count} values, {in_range} in the fast range, "
          + ", ".join(f"{count} {form} mismatches" for form, count in mismatches.items()))
    return 1 if any(mismatches.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
