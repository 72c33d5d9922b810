"""CSV files of '%.17g' number text, computed in numpy.

``write_csv`` is the one writer of every CSV file the package writes.
Each caller keeps its own columns, as a row format of ``%.17g``,
``%+.17g`` and ``%s`` cells, and hands over a float block of numbers and
coded text columns.

A value with 1e-200 <= |x| <= 1e200 is scaled to y = |x| 10**(16-k),
k = floor(log10 |x|), as a double-double h + l: 10**p is stored as
hi + lo, exact to about 2**-106, and Dekker's product of |x| and hi is
exact, so y is known to better than 1e-14 and h >= 2**53 is an integer.
The 17 digits D are y rounded by the fraction of l.  Python's % formats
the values this cannot decide: a fraction within _G17_TIE of 1/2 (an
exact tie, or too close to call), a D outside [1e16, 1e17) (k one off
next to a power of ten, or a carry out of the rounding), and any
nonzero finite value outside the range.

The text of a value is a slot of four little-endian uint64 words, with
every piece at a fixed byte and NUL wherever the value has no byte:
0 the sign, 1-5 the "0.000" of the layouts k = -4 .. -1, 6 the first
digit, 7 the dot, 8-15 and 16-23 the other 16 digits, cut after the
last one that is not a trailing zero, and 24-28 the exponent, "e-05" or
"e+100", of the layouts k < -4 and k > 16.  For k = 1 .. 16 the dot
moves behind the k digits it follows.  The move and the cut are word
operations, on the rows that need either: words 0-2 keep some bytes in
place, take the k digits from one byte up and put the dot behind them,
under three masks per word looked up by k and the digits kept, so no
byte is moved alone.  The writer lays a chunk of lines
out as a byte matrix, slots and texts at fixed columns, and drops the
NULs of the whole chunk with one ``bytes.translate``.
"""

import functools
import re

import numpy as np

from .conformal import _readonly

#: values per chunk of the CSV writer, rounded down to whole lines
_CSV_CHUNK_VALUES = 1 << 14
_G17_RANGE = (1e-200, 1e200)
_G17_TIE = 1e-9
_G17_POW = (-190, 220)  # the p of the 10**p table; p = 16 - k, |k| <= 202
_G17_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_G17_SLOT = 29  # bytes of a slot that can hold text


def _word(text: str, at: int = 0) -> int:
    """The little-endian uint64 with ASCII ``text`` from byte ``at``."""
    return int.from_bytes(bytes(at) + text.encode(), "little")


@functools.cache
def _g17_tables() -> tuple:
    """Powers of ten and the slot words of signs, digits and exponents, built on first use."""
    exact = [(10**p, 1) if p >= 0 else (1, 10**-p) for p in range(_G17_POW[0], _G17_POW[1] + 1)]
    hi = np.array([n / d for n, d in exact])  # int / int rounds correctly
    lo = [(n * hd - hn * d) / (d * hd) for (n, d), (hn, hd) in
          zip(exact, map(float.as_integer_ratio, hi.tolist()))]
    c = _G17_SPLIT * hi
    hh = c - (c - hi)
    pow10 = np.stack([hi, hh, hi - hh, np.array(lo)])

    words = functools.partial(np.array, dtype=np.uint64)
    quads = np.arange(10000)
    quad = (48 + quads[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8).view(np.uint32)
    quad = quad.ravel().astype(np.uint64)  # four ASCII digits in the low bytes
    # digits kept when group i of four ends the text: 4i + its digits up to the last nonzero
    tz4 = sum(quads % 10**j == 0 for j in range(1, 5))
    sig = np.where(quads > 0, 4 - tz4 + 4 * np.arange(4)[:, None], 0).astype(np.int8)
    ks = range(-202, 203)  # exponent k, at k + 202 (|k| <= 202, as in _G17_POW)
    # a text with b digits after the first before the dot, and r up to the last
    # nonzero one, moves its dot behind those b digits and keeps bytes 0 .. 7 + r,
    # or 0 .. 6 + b, without the dot, if r <= b.  At 17 b + r, of words 0-2 read
    # as one int: the bytes kept in place, those taken from one byte up, the dot
    def span(lo, hi):  # bytes lo .. hi - 1
        return (1 << 8 * hi) - (1 << 8 * lo)

    move = []
    for b in range(17):  # at b = 0 byte 7 keeps what it holds, the dot or a NUL
        masks = (span(0, 7) | span(8 + b, 24) if b else span(0, 24), span(7, 7 + b),
                 _word(".", 7 + b) if b else 0)
        move += [[(m & span(0, 8 + r if r > b else 7 + b)) >> 64 * i & (1 << 64) - 1
                  for i in range(3) for m in masks] for r in range(17)]
    return (
        pow10,
        words([0, _word("-"), _word("+"), _word("-")]),  # by signbit + 2 plus
        words([_word(str(d), 6) for d in range(10)]),
        words([_word("0." + "0" * (-k - 1), 1) if -4 <= k < 0 else _word(".", 7) for k in ks]),
        words([0 if -4 <= k <= 16 else _word("e%+03d" % k) for k in ks]),
        quad,
        quad << np.uint64(32),
        sig,
        np.array([k if 0 < k <= 16 else 0 for k in ks]),  # digits after the first before the dot
        words(move).T.copy(),  # [3 word + mask, 17 b + r]
        # 0 and nan for each signbit + 2 plus
        words([[_word(t), 0, 0, 0] for t in ("0", "nan", "-0", "nan", "+0", "+nan", "-0", "-nan")]),
    )


def _g17_slots(v: np.ndarray, plus=False) -> np.ndarray:
    """(n, 4) uint64: the ``'%.17g' % x`` slot of each float, ``nan`` if not finite.

    Where ``plus`` (broadcast against ``v``) is true, the text of |x| gets
    the sign of the sign bit of x, ``-nan`` included.
    """
    sign = (np.signbit(v) + 2 * np.asarray(plus)).ravel()
    v = v.ravel()
    finite = np.isfinite(v)
    digits = finite & (v != 0)
    # zeros and non-finite values take their whole slot from a table
    special = _g17_tables()[-1]
    if 4 * np.count_nonzero(digits) < 3 * len(v):  # mostly zeros: digits for the others alone
        slots = special.take(2 * sign + ~finite, axis=0)
        rows = np.flatnonzero(digits)
        slots[rows] = _g17_digits(v[rows], sign[rows])
        return slots
    slots = _g17_digits(np.where(digits, v, 1.0), sign)
    rows = np.flatnonzero(~digits)
    slots[rows] = special.take(2 * sign[rows] + ~finite[rows], axis=0)
    return slots


def _g17_digits(v: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The slots of nonzero finite floats; sign is signbit + 2 plus."""
    pow10, signs, leads, first, expo, quad, quad_hi, sig, before, move, _ = _g17_tables()
    a = np.abs(v)
    fast = (a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1])
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    # y = a 10**(16 - k) = h + l, with h = a hi and l exact to 2**-106 y
    i = 16 - _G17_POW[0] - k
    hi, hh, hl, lo = (row.take(i) for row in pow10)
    c = _G17_SPLIT * a
    ah = c - (c - a)
    al = a - ah
    h = a * hi
    l = ((ah * hh - h) + ah * hl + al * hh) + al * hl + a * lo
    fl = np.floor(l)
    D, frac = h.astype(np.int64) + fl.astype(np.int64), l - fl
    slow = (D < 10**16) | (np.abs(frac - 0.5) < _G17_TIE)
    D += frac > 0.5
    slow |= (D >= 10**17) | ~fast
    D[slow] = 10**16

    # D is a lead digit and four groups of four; its two halves fit int32,
    # whose division by a constant numpy vectorizes (int64's it does not)
    top = D // 10**8
    low = (D - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**8
    top -= lead * 10**8
    groups = []
    for half in (top, low):
        q = half // 10**4
        groups += [q, half - q * 10**4]
    k += 202
    w = [signs.take(sign) | leads.take(lead) | first.take(k),
         quad.take(groups[0]) | quad_hi.take(groups[1]),
         quad.take(groups[2]) | quad_hi.take(groups[3])]
    # move the dot behind the digits before it and cut trailing zeros, but not
    # those digits, and the dot with no digits after it, on the rows with either
    rows = np.flatnonzero(sig[3].take(groups[3]) - before.take(k) < 16)
    if rows.size:
        at = 17 * before.take(k[rows]) + np.maximum.reduce(
            [s.take(g[rows]) for s, g in zip(sig, groups)])
        x0, x1, x2 = (x.take(rows) for x in w)
        kept0, moved0, _, kept1, moved1, dot1, kept2, moved2, dot2 = move.take(at, axis=1)
        w[0][rows] = x0 & kept0 | (x1 << 56) & moved0
        w[1][rows] = x1 & kept1 | ((x1 >> 8) | (x2 << 56)) & moved1 | dot1
        w[2][rows] = x2 & kept2 | (x2 >> 8) & moved2 | dot2
    slots = np.empty((len(v), 4), dtype=np.uint64)
    for col, word in enumerate(w + [expo.take(k)]):
        slots[:, col] = word
    if slow.any():
        text = [("%+.17g" if c > 1 else "%.17g") % x
                for x, c in zip(v[slow].tolist(), sign[slow].tolist())]
        slots[slow] = np.array(text, dtype="S32").view(np.uint64).reshape(-1, 4)
    return slots


@functools.cache
def _csv_layout(row: str, widths: tuple) -> tuple:
    """How ``write_csv`` lays out ``row`` with text cells of ``widths`` bytes, parsed once.

    A line is a cell per spec, its literal padded to the longest one and
    then its slot or text, and the literal that ends the line.
    """
    specs = re.findall(r"%\+?\.17g|%s", row)
    literals = re.split(r"%\+?\.17g|%s", row)
    lead = max(map(len, literals))
    text_widths = iter(widths)
    at = np.cumsum([0] + [lead + (next(text_widths) if spec == "%s" else _G17_SLOT)
                          for spec in specs]) + lead  # where each cell's slot or text starts
    line = np.zeros(at[-1], dtype=np.uint8)
    for a, text in zip(at - lead, literals):
        line[a : a + len(text)] = list(text.encode())
    num = [i for i, spec in enumerate(specs) if spec != "%s"]
    # (first slot, first column, length) of each run of adjacent number cells
    starts = [j for j in range(len(num)) if j == 0 or num[j] != num[j - 1] + 1]
    runs = [(at[num[a]], a, b - a) for a, b in zip(starts, starts[1:] + [len(num)])]
    return (_readonly(np.array([specs[i] == "%+.17g" for i in num])), runs,
            [at[i] for i, spec in enumerate(specs) if spec == "%s"], _readonly(line),
            lead + _G17_SLOT, max(1, _CSV_CHUNK_VALUES // len(specs)))


def write_csv(path, header: str, row: str, numbers: np.ndarray, texts=()) -> None:
    """Write lines of the format ``row`` from a block of numbers and coded texts.

    ``row`` holds ``%.17g`` or ``%+.17g`` (a number) and ``%s`` (a text)
    cells, with literal text around them.  ``numbers`` is a 2-D float
    block with one column per number cell, in order; ``texts`` holds one
    ``(table, codes)`` pair per text cell, in order, where line i gets
    ``table[codes[i]]``.  A bytes table is written as it is, a float
    table as the ``%.17g`` text of each entry, formatted once.
    Numbers come out as ``'%.17g' % x`` does, non-finite ones as
    ``nan``; ``%+.17g`` puts the sign of the sign bit before the text of
    |x|, so a NaN with its sign bit set is ``-nan``.  A chunk of lines at
    a time becomes a byte matrix with a row per line (``_csv_layout``),
    NUL wherever a slot or text has no byte; each run of adjacent number
    cells is filled by one slice, and the NULs are dropped from the whole
    chunk at once.
    """
    # a float table becomes the slots of its entries, NULs and all, once if cells share it
    tables = {id(table): _g17_slots(table).view("S32").astype(f"S{_G17_SLOT}").ravel()
              for table, _ in texts if table.dtype.kind == "f"}
    texts = [(tables.get(id(table), table), codes) for table, codes in texts]
    widths = tuple(table.itemsize for table, _ in texts)
    plus, runs, text_at, line, stride, step = _csv_layout(row, widths)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        mat = np.tile(line, (min(step, len(numbers)), 1))
        for lo in range(0, len(numbers), step):
            block = numbers[lo : lo + step]
            part = mat[: len(block)]
            slots = _g17_slots(block, plus).view(np.uint8).reshape(len(part), len(plus), 32)
            for at, col, count in runs:
                cells = part[:, at : at + count * stride].reshape(len(part), count, stride)
                cells[:, :, :_G17_SLOT] = slots[:, col : col + count, :_G17_SLOT]
            for at, (table, codes) in zip(text_at, texts):
                cells = table[codes[lo : lo + step], None].view(np.uint8)
                part[:, at : at + cells.shape[1]] = cells
            fh.write(part.tobytes().translate(None, b"\0"))
