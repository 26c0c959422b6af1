"""MSB-first bit columns, written and read by array code.

A payload is a sequence of columns.  Most are fields: unsigned integers of
given bit widths, back to back, each most significant bit first.  A column
of width 1 is a bit column, packed with one ``np.packbits``.  Two codes of
variable length are laid out as a bit column plus fields, so that a reader
finds every code's width with whole-array calls:

* a unary code of q >= 0 is q zeros and a one (:func:`unary_bits`); a
  column of them is read by locating its ``count`` first one bits
  (:func:`read_unary`);
* an Elias gamma column of values v >= 1 is the unary codes of every
  bitlen(v) - 1, then every value's bitlen(v) - 1 low bits as fields
  (:func:`gamma_columns`): 2 bitlen(v) - 1 bits per value, as in the
  interleaved code.  A blob's gamma codes are each read alone, as fields
  (``codec._read_table``, and the decoder's landmark count).

Rows of d integers can also be stored as bit planes: row i as its k[i] low
bits, one plane of d bits per bit, most significant plane first
(:func:`plane_bits`, :func:`read_planes`).  :func:`pack_fields` writes
columns of fields and bit columns in one pass.  :func:`read_bits` reads a
bit column as one slice, :func:`read_fields` a column of fields of one
width through the same slice, and :func:`unpack_runs` fields of varying
widths at any bit offsets in one pass.

Every field is at most 64 bits wide and every gamma value lies in
[1, 2^63): a valid blob's gamma values are rank-table lengths, at most
an alphabet that fits a class's values, and a landmark count plus one.
The writer refuses a wider field or a larger value with ValueError, and
the decoder a landmark count whose unary part announces 63 or more low
bits with FormatError, before it reads them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FormatError, _BLOCK_ELEMS

__all__ = [
    "pack_fields",
    "bit_lengths",
    "gamma_widths",
    "gamma_columns",
    "unary_bits",
    "plane_bits",
    "read_bits",
    "read_fields",
    "bit_windows",
    "unpack_runs",
    "read_unary",
    "read_planes",
    "row_blocks",
]


def _words(values, widths) -> tuple[np.ndarray, np.ndarray]:
    """One column's fields as uint64 values and their widths.  Raises
    ValueError when a value is negative or a field is wider than 64 bits."""
    values = np.asarray(values)
    widths = np.broadcast_to(np.asarray(widths), values.shape)
    if values.size and values.min() < 0:
        raise ValueError(f"negative field value {values.min()}")
    if widths.size and widths.max() > 64:
        raise ValueError(f"a field of {widths.max()} bits is wider than 64")
    return values.astype(np.uint64, copy=False), widths


def pack_fields(columns) -> tuple[bytes, int]:
    """The fields of ``columns``, (values, widths) pairs, back to back from
    bit 0, as bytes zero-padded to a whole byte and their bit length: field
    i of a column is ``values[i]`` in ``widths[i]`` bits (or in ``widths``
    bits each).  Values are non-negative integers and widths at most 64.
    A column whose ``widths`` is the scalar 1 is a bit column of 0s and
    1s.  Raises ValueError when a value is negative or does not fit its
    width, or a width exceeds 64."""
    columns = [
        _bits(values) if np.ndim(widths) == 0 and widths == 1 else _words(values, widths)
        for values, widths in columns
    ]
    total = sum(v.size if w is None else int(w.sum()) for v, w in columns)
    out = np.zeros(total // 64 + 2, dtype=np.uint64)
    end = 0
    bit_columns = []
    # each field lies in one 64-bit word of the stream or straddles two: its
    # left-aligned bits go into the first word and any spill into the next
    step = _BLOCK_ELEMS // 32  # a dozen uint64 temporaries: a third of a block
    for values, widths in columns:
        if widths is None:
            bit_columns.append((end, values))
            end += values.size
            continue
        for s in range(0, widths.size, step):
            w = widths[s : s + step].astype(np.int64)
            wu = w.astype(np.uint64)
            if (values[s : s + step] >> wu).any():  # a shift by 64 gives 0
                raise ValueError("a value does not fit its field")
            start = end + np.cumsum(w) - w
            end = int(start[-1] + w[-1])
            word = start >> 6
            off = (start & 63).astype(np.uint64)
            left = values[s : s + step] << (np.uint64(64) - wu)
            first = np.flatnonzero(np.diff(word, prepend=-1))
            out[word[first]] |= np.bitwise_or.reduceat(left >> off, first)
            spill = off + wu > 64
            out[word[spill] + 1] |= left[spill] << (np.uint64(64) - off[spill])
    raw = out.astype(">u8").view(np.uint8)
    for start, bits in bit_columns:
        # packed whole, then moved start & 7 bits right: each packed byte
        # spills its low bits into the next byte of the stream
        packed = np.packbits(bits)
        at, off = start >> 3, start & 7
        raw[at : at + packed.size] |= packed >> off
        if off:
            raw[at + 1 : at + 1 + packed.size] |= packed << (8 - off)
    return raw.tobytes()[: (total + 7) // 8], total


def _bits(values) -> tuple[np.ndarray, None]:
    """A bit column as a uint8 array of 0s and 1s.  Raises ValueError on any
    other value."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 1):
        raise ValueError("a bit column holds a value other than 0 and 1")
    return values.astype(np.uint8, copy=False), None


# 2^0 ... 2^62: an int64 v >= 1 has as many of them at or below it as bits
_POWERS = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """bitlen(v) of every value of a non-negative int64 array, 0 for 0, as
    int64: the number of powers of two at or below v, by one exact
    ``searchsorted``."""
    return np.searchsorted(_POWERS, values, side="right").astype(np.int64)


def gamma_widths(values) -> np.ndarray:
    """Field widths 2 bitlen(v) - 1 of the Elias gamma codes of ``values``,
    as int64, the bit lengths by :func:`bit_lengths`.  Raises ValueError on
    a value outside [1, 2^63)."""
    arr = np.asarray(values)
    if arr.size and (arr.min() < 1 or int(arr.max()) >> 63):
        raise ValueError(
            f"gamma code requires values in [1, 2^63), got {arr.min()} to {arr.max()}"
        )
    return 2 * bit_lengths(arr.astype(np.int64)) - 1


def gamma_columns(values) -> list:
    """The two columns, for :func:`pack_fields`, of an Elias gamma column
    of ``values``: the unary codes of every bitlen(v) - 1, then every
    value's bitlen(v) - 1 low bits.  Raises ValueError on a value outside
    [1, 2^63)."""
    low = gamma_widths(values) // 2
    return [(unary_bits(low), 1), (np.asarray(values, dtype=np.int64) - (1 << low), low)]


def unary_bits(q) -> np.ndarray:
    """The unary codes of ``q`` (each q zeros, then a one), back to back, as
    a bit column."""
    q = np.asarray(q, dtype=np.int64).ravel()
    bits = np.zeros(int(q.sum()) + q.size, dtype=np.uint8)
    end = 0
    for s in range(0, q.size, _BLOCK_ELEMS // 8):  # two int64 temporaries
        ones = np.cumsum(q[s : s + _BLOCK_ELEMS // 8] + 1)
        ones += end - 1
        bits[ones] = 1
        end = int(ones[-1]) + 1
    return bits


def plane_bits(rows, k) -> np.ndarray:
    """The bit planes of an (n, d) uint64 array as a bit column: row i as
    its ``k[i]`` (at most 64) low bits, one plane of d bits per bit, most
    significant plane first, row by row.  The planes are filled for the
    rows of one k at a time, one block of rows and one plane per step."""
    rows = np.asarray(rows, dtype=np.uint64)
    k = np.asarray(k, dtype=np.int64)
    planes = np.empty((int(k.sum()), rows.shape[1]), dtype=np.uint8)
    top = np.cumsum(k) - k  # each row's first plane
    for kk in np.unique(k[k > 0]).tolist():
        g = np.flatnonzero(k == kk)
        for r in row_blocks(g.size, rows.shape[1]):
            part, at = rows[g[r]], top[g[r]]
            for j in range(kk):
                planes[at + j] = (part >> np.uint64(kk - 1 - j)) & np.uint64(1)
    return planes.ravel()


def row_blocks(n: int, d: int) -> list[slice]:
    """Slices of ``n`` rows of ``d`` values, each of at most 1/32 of a float
    block (8,192 values, or one row when a row is longer): the unit of the
    row loops here and in the codec, so that a uint64 temporary of one
    stays at 64 KB."""
    step = max(1, _BLOCK_ELEMS // (32 * d))
    return [slice(s, s + step) for s in range(0, n, step)]


def read_bits(data: bytes, start: int, stop: int) -> np.ndarray:
    """Bits ``start:stop`` of the MSB-first stream ``data`` as a uint8 array
    of 0s and 1s, from one ``np.unpackbits`` over the bytes they touch."""
    first, last = start >> 3, (stop + 7) >> 3
    bits = np.unpackbits(np.frombuffer(data, np.uint8, last - first, first))
    return bits[start - 8 * first : stop - 8 * first]


def read_fields(data: bytes, start: int, count: int, width: int) -> np.ndarray:
    """The ``count`` fields of ``width`` bits (at most 64) that follow one
    another from bit ``start`` of the MSB-first stream ``data``, as uint64:
    one :func:`read_bits` slice as rows of bits, summed against the powers
    of two.  The caller has checked the fields against the stream's
    length."""
    if not count * width:
        return np.zeros(count, dtype=np.uint64)
    bits = read_bits(data, start, start + count * width).reshape(count, width)
    return bits @ (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))


def bit_windows(data: bytes, start: int, limit: int, span: int):
    """Ever longer windows of the stream from bit ``start`` on, each as its
    end and its bits (:func:`read_bits`): ``span`` bits, doubling up to bit
    ``limit``.  Asking for one more raises FormatError."""
    while True:
        stop = min(limit, start + span)
        yield stop, read_bits(data, start, stop)
        if stop == limit:
            raise FormatError("a column runs past the end of the payload")
        span *= 2


def unpack_runs(
    data: bytes, starts: np.ndarray, widths: np.ndarray, count: int
) -> np.ndarray:
    """uint64 array whose row i holds the ``count`` consecutive fields of
    ``widths[i]`` bits (width 0 reads zeros) that start at bit ``starts[i]``
    of the MSB-first stream ``data``.  The caller has checked every run
    against the stream's length, and every width is at most 64."""
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    out = np.empty((starts.size, count), dtype=np.uint64)
    if not out.size:
        return out
    # a copy of just the bytes the runs cover, padded for the last word
    first = int(starts.min()) >> 3
    last = (int((starts + widths * count).max()) + 7) >> 3
    buf = np.frombuffer(bytes(data[first:last]) + bytes(9), dtype=np.uint8)
    words = sliding_window_view(buf, 8)
    # about eight uint64 temporaries per field: together one float block
    step = max(1, _BLOCK_ELEMS // (8 * count))
    for s in range(0, starts.size, step):
        w = widths[s : s + step, None]
        pos = starts[s : s + step, None] + w * np.arange(count) - 8 * first
        byte = pos >> 3
        off = (pos & 7).astype(np.uint64)
        # the 64 bits from pos on: 8 bytes shifted left, then the next byte's top
        hi = words[byte].view(">u8")[..., 0].astype(np.uint64)
        lo = buf[byte + 8].astype(np.uint64)
        word = (hi << off) | (lo >> (np.uint64(8) - off))
        out[s : s + step] = word >> (64 - w).astype(np.uint64)
    return out


def read_unary(
    data: bytes, start: int, count: int, limit: int, span: int = 0
) -> tuple[np.ndarray, int]:
    """The ``count`` unary codes that follow one another from bit ``start``
    of ``data``, as an int64 array of their q, and the bit after the last
    code.  The reader locates the first ``count`` one bits with one
    ``np.unpackbits`` and one ``np.flatnonzero`` per window; the windows
    start at ``span`` bits (by default twice the count, plus 64) and double
    up to bit ``limit``.  Fewer ones than codes before ``limit`` raise
    FormatError."""
    if not count:
        return np.zeros(0, dtype=np.int64), start
    for _, bits in bit_windows(data, start, limit, span or 2 * count + 64):
        ones = np.flatnonzero(bits.view(bool))  # numpy's fast path
        if ones.size >= count:
            break
    q = np.empty(count, dtype=np.int64)
    q[0] = ones[0]
    np.subtract(ones[1:count], ones[: count - 1], out=q[1:])
    q[1:] -= 1
    return q, start + int(ones[count - 1]) + 1


def read_planes(data: bytes, start: int, k: np.ndarray, rows: np.ndarray) -> None:
    """Append to each row of the (len(k), d) uint64 array ``rows``, in place,
    the bit planes that :func:`plane_bits` wrote from bit ``start`` of
    ``data``: row i is shifted left by ``k[i]`` (at most 64) and takes its
    k[i] low bits from them.  The planes come with one ``np.unpackbits``
    for them all, seen as rows of d bits, and one gather per plane of each
    distinct k.  The caller has checked the d * sum(k) bits against the
    stream's length, and that no row overflows."""
    k = np.asarray(k, dtype=np.int64)
    d = rows.shape[1]
    total = int(k.sum()) * d
    if not total:
        return
    planes = read_bits(data, start, start + total).reshape(-1, d)
    top = np.cumsum(k) - k  # each row's first plane
    for kk in np.unique(k[k > 0]).tolist():
        g = np.flatnonzero(k == kk)
        for r in row_blocks(g.size, d):
            at, acc = top[g[r]], rows[g[r]]
            for j in range(kk):
                acc <<= np.uint64(1)
                acc |= planes[at + j]
            rows[g[r]] = acc
