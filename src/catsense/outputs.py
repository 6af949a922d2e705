"""CSV text, and all-or-nothing output files: a failed run leaves no half-written set."""

import contextlib
import errno
import os
from typing import Mapping, Sequence

import numpy as np

_CHUNK_ROWS = 1024  # rows formatted at a time, which bounds the scratch arrays
_K_MIN, _K_MAX = -292, 299  # decades the float kernel formats: no product in it over- or underflows
_WORD = np.dtype("<u8")  # byte b of a word is byte b of the text on any machine


def _power_of_ten(j: int) -> tuple[float, float]:
    """hi = 10^j and lo = 10^j - hi, each correctly rounded to a double (int / int is)."""
    n, d = (10**j, 1) if j >= 0 else (1, 10**-j)
    hn, hd = (n / d).as_integer_ratio()
    return hn / hd, (n * hd - hn * d) / (d * hd)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: x = hi + lo exactly, each with at most 26 significant bits."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell layout and per quad of digits, the words that open the quad into its text.

    A cell's digits are E = "0000000" and then its 17 digits: six quads of 4,
    each opened into a word with a point slot after one of its digits.  It
    shows E[7 + min(X, 0) : 7 + max(digits, X + 1)], a point after E[7 + X]
    when a shown digit follows, and a '-' before the first shown digit of a
    negative cell; every other byte is a hole.  The layout is
    ``(cls * 17 + digits - 1) * 2 + negative``: ``cls`` is X + 4 for the
    fixed layout of decade -4 <= X <= 16, or 21 for ``d.ddd...e±XX``, shown
    as X = 0 and then the exponent; ``digits`` counts the digits left once
    trailing zeros are cut.  Returns per layout and quad the mask of the
    bytes that move up to open the slot, the mask of those kept, and the
    bytes or-ed over the rest.
    """
    layout, neg = np.divmod(np.arange(22 * 17 * 2, dtype=np.int16), 2)
    cls, cut = np.divmod(layout, 17)  # cut = digits - 1
    x = np.where(cls < 21, cls - 4, 0)
    start, end = 7 + np.minimum(x, 0), 8 + np.maximum(cut, x)
    start, end, x, neg, cut = (a[:, None, None] for a in (start, end, x, neg, cut))
    q, b = np.arange(6, dtype=np.int16)[:, None], np.arange(8, dtype=np.int16)
    local = 7 + x - 4 * q  # the point's digit within quad q
    point = (cut > x) & (local >= 0) & (local <= 3)
    slot = np.where(point, local + 1, 4)
    e = 4 * q + b - (b > slot)  # E index of byte b
    digit = (b < 5) & (b != slot)
    shown = digit & (e >= start) & (e < end)
    over = np.full(shown.shape, 0xFF, np.uint8)
    over[shown] = 0
    over[point & (b == slot)] = ord(".")
    over[(neg == 1) & digit & (e == start - 1)] = ord("-")
    high = ((b >= slot) & (b < 4)) * np.uint8(0xFF)
    return tuple(t.view(_WORD)[..., 0] for t in (high, shown * np.uint8(0xFF), over))


_HI, _LO = np.array([_power_of_ten(j) for j in range(_K_MIN, 309)]).T
_CEIL = np.where(_LO > 0, np.nextafter(_HI, np.inf), _HI)  # least double >= 10^j
_HI_HI, _HI_LO = (np.ldexp(half, e) for m, e in [np.frexp(_HI)] for half in _split(m))
# a double of biased exponent e + 1023 lies in [2^e, 2^(e+1)), in decade K or K + 1 with
# K = floor(e log10 2), which is exact here: |e log10 2 - n| > 4e-4 for all integers n, |e| < 1100
_DECADE = np.floor((np.arange(2048) - 1023) * np.log10(2)).astype(np.intp)
_NEXT_DECADE = _CEIL[np.clip(_DECADE + 1 - _K_MIN, 0, _CEIL.size - 1)]
_QUADS = (np.indices((10,) * 4, np.uint8).reshape(4, -1) + 48).T.copy()  # "0000" ... "9999"
_QUAD_WORDS = _QUADS.view("<u4")[:, 0].astype(_WORD)
# the trailing zeros of each quad, 4 for "0000"
_QUAD_ZEROS = (_QUADS[:, ::-1] == 48).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
_HIGH, _KEEP, _OVER = _layouts()
_DECADES = range(_K_MIN, _K_MAX + 2)
_CLASS = np.array([(k + 4 if -4 <= k <= 16 else 21) * 17 for k in _DECADES])
_EXPONENT = np.frombuffer(b"".join((b"" if -4 <= k <= 16 else b"e%+03d" % k).ljust(8, b"\xff")
                                   for k in _DECADES), _WORD)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Each float64 x as the bytes of ``'%.17g' % x`` in a 56-byte row padded with holes (0xFF).

    The last byte of a row is always a hole.  For a magnitude v in
    [10^_K_MIN, 10^(_K_MAX + 1)):

    * the decade k = floor(log10 v) is the one of v's binary exponent, or
      the next one if an exact comparison puts v at or above 10^(k+1), so
      T = v 10^(16-k) lies in [10^16, 10^17);
    * v hi(10^(16-k)) = s + e exactly, by Dekker's product of split halves
      (Numer. Math. 18, 224 (1971)), and s >= 2^53 is an integer;
    * t = e + v lo(10^(16-k)) differs from T - s by under 1e-13: |e| <= 8
      and |v lo| < 12, so each of its two roundings errs by under 3e-15,
      and the 10^(16-k) - hi - lo left out contributes under 2e-15;
    * so when frac(t) is more than 1e-6 from 1/2, D = s + round(t) is T
      correctly rounded: the 17 significant digits, with D = 10^17 moving
      up a decade.

    Every other cell (NaN, ±inf, ±0, magnitudes outside the range, near
    ties) is formatted by Python's ``%``, once per distinct bit pattern (a
    float dedupe would merge -0.0 into 0.0); its value never enters the
    arithmetic.
    """
    a = np.abs(x)
    text = ~((a >= _CEIL[0]) & (a < _CEIL[_K_MAX + 1 - _K_MIN]))  # NaN compares False
    v = np.where(text, 1.0, a)
    binary = v.view(np.int64) >> 52
    k = _DECADE[binary] + (v >= _NEXT_DECADE[binary])
    i = 16 - k - _K_MIN
    s = v * _HI[i]
    vh, vl = _split(v)
    ph, pl = _HI_HI[i], _HI_LO[i]
    t = (((vh * ph - s) + vh * pl + vl * ph) + vl * pl) + v * _LO[i]
    r = np.rint(t)
    text |= np.abs(t - r) >= 0.5 - 1e-6
    d = s.astype(np.int64) + r.astype(np.int64)
    up = d == 10**17
    d, k = np.where(up, 10**16, d), k + up
    lead, q8 = d // 10**16, d // 10**8
    hi, lo = q8 - lead * 10**8, d - q8 * 10**8
    h4, l4 = hi // 10**4, lo // 10**4
    quads = np.stack([np.zeros_like(lead), lead, h4, hi - h4 * 10**4, l4, lo - l4 * 10**4], axis=1)
    zeros = _QUAD_ZEROS[quads]  # a quad's trailing zeros are cut when every later quad is 0
    more = zeros[:, 4] + (lo == 0) * (zeros[:, 3] + (quads[:, 3] == 0) * zeros[:, 2])
    digits = 17 - zeros[:, 5] - (quads[:, 5] == 0) * more
    layout = (_CLASS[k - _K_MIN] + digits - 1) * 2 + (x < 0)
    out = np.empty((x.size, 7), _WORD)
    words, moved = out[:, :6], _HIGH.take(layout, axis=0)
    words[...] = _QUAD_WORDS[quads]
    moved &= words
    words += moved * 255  # the moved bytes go up one byte: the point slot opens
    words &= _KEEP.take(layout, axis=0)
    words |= _OVER.take(layout, axis=0)
    out[:, 6] = _EXPONENT[k - _K_MIN]
    out = out.view(np.uint8)
    if text.any():
        bits, back = np.unique(x[text].view(np.int64), return_inverse=True)
        out[text] = _text_cells(bits.view(np.float64).tolist(), "%.17g", out.shape[1])[back]
    return out


def _text_cells(values: list, fmt: str, width: int = 0, end: bytes = b"") -> np.ndarray:
    """Python's ``fmt % value`` of each value and then ``end``, one row each, padded with holes."""
    data = [(fmt % (v,)).encode() + end for v in values]
    width = max([width, *map(len, data)])
    cells = np.frombuffer(b"".join(t.ljust(width, b"\xff") for t in data), np.uint8)
    return cells.reshape(len(data), width)


def _csv_format(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool too: True -> 1
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of a table given as columns, byte for byte Python's ``%`` of each cell.

    A column is a 1-D array or sequence, or one value repeated on every row.
    A column's first cell picks its format: ``%d`` for int and bool,
    ``%.17g`` for float, ``%s`` otherwise.  Float64 array columns go through
    `_float_cells`; every other cell is formatted from its Python value.
    Holes (0xFF, never part of UTF-8) pad every cell and are dropped from
    the text.  Lines end in LF.
    """
    cols = [c if isinstance(c, np.ndarray) and c.ndim == 1 and c.dtype == np.float64
            else np.asarray(c, dtype=object) for c in columns]
    n_rows = next((len(c) for c in cols if c.ndim), 0)
    fmts = [_csv_format(np.atleast_1d(c)[0]) for c in cols] if n_rows else []
    floats = [j for j, c in enumerate(cols) if c.dtype == np.float64]
    ends = [b","] * (len(cols) - 1) + [b"\n"]
    parts = [",".join(header) + "\n"]
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n_rows - start)
        chunk = [c[start:start + rows] if c.ndim else np.atleast_1d(c) for c in cols]
        if floats:
            cells = _float_cells(np.concatenate([chunk[j] for j in floats]))
            cells = cells.reshape(len(floats), rows, -1)
            cells[..., -1] = np.frombuffer(b"".join(ends[j] for j in floats), np.uint8)[:, None]
        blocks = [cells[floats.index(j)] if j in floats
                  else _text_cells(c.tolist(), fmts[j], end=ends[j]) for j, c in enumerate(chunk)]
        stops = np.cumsum([b.shape[1] for b in blocks])
        line = np.empty((rows, stops[-1]), np.uint8)
        for block, stop in zip(blocks, stops):
            line[:, stop - block.shape[1]:stop] = block
        parts.append(line.tobytes().translate(None, b"\xff").decode())
    return "".join(parts)


def write_all(docs: Mapping[str, str]) -> None:
    """Write each ``path -> text`` pair with LF line endings, or none of them.

    Each text is staged in a temporary file beside its target and no target is
    replaced until all are staged; on any error the temporaries are removed.
    """
    # an empty path or a directory would fail only at its rename, after earlier targets
    for path in docs:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged: list[tuple[str, str]] = []
    try:
        for path, text in docs.items():
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                staged.append((tmp, path))
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
