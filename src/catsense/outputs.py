"""The output contract: CSV and SVG-points bytes, and files staged all or none, none named twice."""

import contextlib
import errno
import itertools
import os
from typing import Iterable, Iterator, Mapping, Sequence

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
    hi = x * 134217729.0  # 2^27 + 1
    lo = hi - x
    hi -= lo
    return hi, np.subtract(x, hi, out=lo)


def _masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell layout, the three 4-word rows that turn a cell's words into its text.

    A cell's digits are E = "0000000" and then its 17 digits, held in three
    words (E[7], the leading digit, is byte 7 of the first); a fourth word
    holds the exponent text from byte 1, its bytes 0 and 7 holes.  The cell
    shows E[7 + min(X, 0) : 7 + max(digits, X + 1)], a point after E[7 + X]
    when a shown digit follows, and a '-' before the first shown digit of a
    negative cell; every other byte is a hole.  The layout is
    ``(cls * 17 + digits - 1) * 2 + negative``: ``cls`` is X + 4 for the
    fixed layout of decade -4 <= X <= 16, or 21 for ``d.ddd...e±XX``, shown
    as X = 0 and then the exponent; ``digits`` counts the digits left once
    trailing zeros are cut.  Returns per layout the mask of the bytes kept
    from the four words (the point and all before it, and the exponent
    word's last seven bytes), the mask of those kept from the words shifted
    up one byte (the digits after the point, E[23] landing in byte 0 of the
    exponent word), and the bytes or-ed over the rest.
    """
    layout, neg = np.divmod(np.arange(22 * 17 * 2, dtype=np.int16), 2)
    cls, cut = np.divmod(layout, 17)  # cut = digits - 1
    x = np.where(cls < 21, cls - 4, 0)
    start, x, neg, cut = (a[:, None] for a in (7 + np.minimum(x, 0), x, neg, cut))
    b = np.arange(32, dtype=np.int16)
    keep = ((b >= start) & (b <= 7 + x)) | (b > 24)
    shift = (b > 8 + x) & (b <= 8 + cut)  # none when no shown digit follows the point
    over = np.where(keep | shift, np.uint8(0), np.uint8(0xFF))
    over[(b == 8 + x) & (cut > x)] = ord(".")
    over[(b == start - 1) & (neg == 1)] = ord("-")
    keep, shift = keep * np.uint8(0xFF), shift * np.uint8(0xFF)
    return keep.view(_WORD), shift.view(_WORD), over.view(_WORD)


_HI, _LO = np.array([_power_of_ten(j) for j in range(_K_MIN, 309)]).T
_CEIL = np.where(_LO > 0, np.nextafter(_HI, np.inf), _HI)  # least double >= 10^j
_HI_HI, _HI_LO = (np.ldexp(half, e) for m, e in [np.frexp(_HI)] for half in _split(m))
# a double of biased exponent e + 1023 lies in [2^e, 2^(e+1)), in decade K or K + 1 with
# K = floor(e log10 2), which is exact here: |e log10 2 - n| > 4e-4 for all integers n, |e| < 1100
_DECADE = np.floor((np.arange(2048) - 1023) * np.log10(2)).astype(np.intp)
_NEXT_DECADE = _CEIL[np.clip(_DECADE + 1 - _K_MIN, 0, _CEIL.size - 1)]
_QUADS = (np.indices((10,) * 4, np.uint8).reshape(4, -1) + 48).T.copy()  # "0000" ... "9999"
_QUAD_TEXT = _QUADS.view("<u4")[:, 0]
# the trailing zeros of each quad, 4 for "0000"
_QUAD_ZEROS = (_QUADS[:, ::-1] == 48).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
_KEEP, _SHIFT, _OVER = _masks()
_DECADES = range(_K_MIN, _K_MAX + 2)
_CLASS = np.array([(k + 4 if -4 <= k <= 16 else 21) * 17 for k in _DECADES])
_EXPONENT = np.frombuffer(b"".join((b"\xff" if -4 <= k <= 16 else b"\xffe%+03d" % k)
                                   .ljust(8, b"\xff") for k in _DECADES), _WORD)
# "%.2f" words: the integer part 0...999 after holes (0xFF), and ".dd" then "," (x) or " " (y)
_UNITS = np.frombuffer(b"".join(b"%4d" % k for k in range(1000)).replace(b" ", b"\xff"), "<u4")
_CENTS = np.frombuffer(b"".join(b".%02d%c" % (k, s) for s in b", " for k in range(100)), "<u4")


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Each float64 x as the bytes of ``'%.17g' % x`` in a 32-byte row padded with holes (0xFF).

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
    arithmetic.  The text half splits the 17 digits into quads of four (a
    floor division per quad and one multiply-subtract), writes "0000000" and
    the digits into three words and the exponent text into a fourth, copies
    the flat bytes up one place once, and finishes each cell with its
    layout's rows of `_masks`.
    Both halves compute in place on arrays of their own, each dropped once no
    later stage reads it; ``x`` is only read.
    """
    v = np.abs(x)
    text = ~((v >= _CEIL[0]) & (v < _CEIL[_K_MAX + 1 - _K_MIN]))  # NaN compares False
    v[text] = 1.0
    binary = v.view(np.int64) >> 52
    k = _DECADE.take(binary)
    k += v >= _NEXT_DECADE.take(binary)
    i = 16 - _K_MIN - k
    s = _HI.take(i)
    s *= v
    vh, vl = _split(v)
    ph, pl = _HI_HI.take(i), _HI_LO.take(i)
    t = vh * ph  # t = (((vh ph - s) + vh pl + vl ph) + vl pl) + v lo, in that order
    t -= s
    vh *= pl
    t += vh
    ph *= vl
    t += ph
    pl *= vl
    t += pl
    v *= _LO.take(i)
    t += v
    del binary, i, v, vh, vl, ph, pl
    r = np.rint(t)
    t -= r
    text |= np.abs(t, out=t) >= 0.5 - 1e-6
    d = s.astype(np.int64)
    d += r.astype(np.int64)
    del t, s, r
    up = d == 10**17
    d[up] = 10**16
    k += up
    k -= _K_MIN
    quads = np.empty((5, x.size), np.int64)  # a plane per quad 1 to 5: "000d", then 4 x 4 digits
    for j in range(4):  # d's leading 1, 5, 9 and 13 digits, then d itself
        np.floor_divide(d, 10 ** (16 - 4 * j), out=quads[j])
    quads[4] = d
    quads[1:] -= quads[:-1] * 10**4  # less the digits before each quad
    zeros = _QUAD_ZEROS.take(quads[1:])  # a quad's trailing zeros are cut if every later quad is 0
    more = zeros[2] + (quads[3] == 0) * (zeros[1] + (quads[2] == 0) * zeros[0])
    layout = _CLASS.take(k)
    layout += 16 - zeros[3] - (quads[4] == 0) * more  # digits - 1, uint8 with no wrap
    layout *= 2
    layout += x < 0
    out = np.empty((x.size, 4), _WORD)
    halves = out.view("<u4")  # E's six quads fill the halves of words 0 to 2
    halves[:, 0] = 0x30303030
    halves[:, 1:6] = _QUAD_TEXT.take(quads).T
    out[:, 3] = _EXPONENT.take(k)
    del quads, k
    shifted = np.empty_like(out)  # each byte up one; byte 0, never kept, is left as it is
    shifted.view(np.uint8).reshape(-1)[1:] = out.view(np.uint8).reshape(-1)[:-1]
    shifted &= _SHIFT.take(layout, axis=0)
    out &= _KEEP.take(layout, axis=0)
    out |= shifted
    out |= _OVER.take(layout, axis=0)
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


def points_text(v: np.ndarray) -> bytes:
    """``" ".join("%.2f,%.2f" % xy)`` for the interleaved x and y values v, UTF-8 byte for byte.

    A cell is certified when 0 <= v < 999 with a clear sign bit and
    t = fl(100 v) lies more than 1e-6 from a half-integer.  Below 1000, t
    is 100 v to within half an ulp of 10^5, under 1e-11, so p = rint(t) is
    100 v correctly rounded, the digits ``'%.2f'`` prints.  Every other cell
    (NaN, ±inf, negatives, -0.0, 999 and above, ties and near ties, exact
    binary ones such as k/8 among them) is formatted by Python's ``%``; its
    value never enters the arithmetic.
    """
    ok = (v >= 0.0) & (v < 999.0) & ~np.signbit(v)  # NaN compares False
    t = np.where(ok, v, 0.0) * 100.0
    p = np.rint(t)
    ok &= np.abs(t - p) < 0.5 - 1e-6
    cents = p.astype(np.intp)
    units = cents // 100
    cents -= units * 100
    cents[1::2] += 100  # a y cell ends in " "
    cells = np.empty((v.size, 2), "<u4")
    _UNITS.take(units, out=cells[:, 0], mode="clip")  # in range; "raise" would buffer the out
    _CENTS.take(cents, out=cells[:, 1], mode="clip")
    cells = cells.view(np.uint8)
    if not ok.all():
        text = _text_cells(v[~ok].tolist(), "%.2f", 8, b"\xff")  # the last byte of a row is a hole
        cells = np.pad(cells, ((0, 0), (0, text.shape[1] - 8)), constant_values=0xFF)
        cells[~ok] = text
        cells[~ok, -1] = np.frombuffer(b", ", np.uint8)[np.flatnonzero(~ok) & 1]
    return cells.tobytes().translate(None, b"\xff")[:-1]


def _csv_format(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool too: True -> 1
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def csv_chunks(table: Mapping[str, object]) -> Iterator[bytes]:
    """CSV bytes of a table, CSV header -> column, byte for byte Python's ``%`` of each cell.

    The header is the table's keys in order.  A column is a 1-D array or
    sequence, or one value repeated on every row; a column whose length
    differs from the first is a ValueError, raised by this call before any
    chunk is made.  A column's first cell picks its format: ``%d`` for int
    and bool, ``%.17g`` for float, ``%s`` otherwise.  Float64 array columns go
    through `_float_cells`; every other cell is formatted from its Python
    value.  The header line is the first chunk, each `_CHUNK_ROWS` rows the
    next, each made only when asked for; what is the same in every chunk
    (each column's format and separator, and the cell of a value repeated on
    every row) is built once per table.  Holes (0xFF, never part of UTF-8)
    pad every cell and are dropped from the bytes.  Lines end in LF.
    """
    cols = [c if isinstance(c, np.ndarray) and c.ndim == 1 and c.dtype == np.float64
            else np.asarray(c, dtype=object) for c in table.values()]
    n_rows = next((len(c) for c in cols if c.ndim), 0)
    for name, c in zip(table, cols):
        if c.ndim and c.shape != (n_rows,):
            raise ValueError(f"column {name!r} has shape {c.shape}, not ({n_rows},) like the first")
    return _chunks(",".join(table) + "\n", cols, n_rows)


def _chunks(header: str, cols: list[np.ndarray], n_rows: int) -> Iterator[bytes]:
    yield header.encode()
    if not n_rows:
        return
    fmts = [_csv_format(np.atleast_1d(c)[0]) for c in cols]
    ends = [b","] * (len(cols) - 1) + [b"\n"]
    floats = [j for j, c in enumerate(cols) if c.dtype == np.float64]
    seps = np.frombuffer(b"".join(ends[j] for j in floats), np.uint8)[:, None]
    fixed = {j: _text_cells([c.item()], fmts[j], end=ends[j])
             for j, c in enumerate(cols) if not c.ndim}
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n_rows - start)
        if floats:
            cells = _float_cells(np.concatenate([cols[j][start:start + rows] for j in floats]))
            cells = cells.reshape(len(floats), rows, -1)
            cells[..., -1] = seps
            float_blocks = iter(cells)
        blocks = [np.broadcast_to(fixed[j], (rows, fixed[j].shape[1])) if j in fixed
                  else next(float_blocks) if c.dtype == np.float64
                  else _text_cells(c[start:start + rows].tolist(), fmts[j], end=ends[j])
                  for j, c in enumerate(cols)]
        yield np.concatenate(blocks, axis=1).tobytes().translate(None, b"\xff")


def csv_text(table: Mapping[str, object]) -> str:
    """The CSV text of a table: its `csv_chunks` joined and decoded."""
    return b"".join(csv_chunks(table)).decode()


def write_all(docs: Sequence[tuple[str, Iterable[bytes]]]) -> None:
    """Write each ``(path, byte chunks)`` pair as it streams: stage all or none, then rename.

    Two paths that name one file (by `os.path.realpath`: the same spelling, a
    ``./`` spelling or a symlink), an empty path and a directory are refused
    before anything is staged.  Each file is staged beside its target in
    ``{path}.{pid}.tmp`` or, past files holding that name (a killed run's
    leftovers, never reused or removed), the first free ``{path}.{pid}.{n}.tmp``.
    A failure while staging, making a chunk or writing it (an OSError names the target,
    with its errno), removes the staged files and replaces no target.  The renames then
    run one by one: a failure between two leaves earlier targets new, later ones as they were.
    """
    paths = [path for path, _ in docs]
    if len(paths) > 1 and len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"the outputs {', '.join(map(repr, paths))} name one file")
    # an empty path or a directory would fail only at its rename, after earlier targets
    for path in paths:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged: list[tuple[str, str]] = []
    try:
        for path, chunks in docs:
            try:
                for n in itertools.count():  # pass over a name a killed run's staging file holds
                    tmp = f"{path}.{os.getpid()}.{n}.tmp" if n else f"{path}.{os.getpid()}.tmp"
                    with contextlib.suppress(FileExistsError):
                        fh = open(tmp, "xb")
                        break
                staged.append((tmp, path))
                with fh:
                    for chunk in chunks:
                        fh.write(chunk)
            except OSError as exc:  # name the file asked for, not its temporary
                raise OSError(exc.errno, exc.strerror, path) from None
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
