"""MSB-first bit columns, written and read by array code.

A payload is a sequence of fields: unsigned integers of given bit widths,
back to back, each most significant bit first.  An Elias gamma code of
v >= 1 is such a field too, v in 2 bitlen(v) - 1 bits, whose bitlen(v) - 1
leading zeros announce its width.  :func:`pack_fields` writes columns of
fields in one pass; :func:`unpack_runs` reads runs of fixed-width fields at
any bit offsets in one pass, and :func:`read_gammas` walks a column of
gamma codes, whose widths come one code at a time, one step per code.
Fields wider than 64 bits, which no valid blob holds (only hostile gamma
codes and hostile models reach them), are exact Python ints moved as 64-bit
pieces.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FormatError, _BLOCK_ELEMS

__all__ = ["pack_fields", "gamma_widths", "bit_windows", "unpack_runs", "read_gammas"]


def _pieces(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fields cut into pieces of at most 64 bits, top piece first: per piece
    its field, the number of field bits below it, and its width."""
    per = np.maximum(1, -(-widths // 64))
    field = np.repeat(np.arange(widths.size), per)
    low = 64 * (np.repeat(np.cumsum(per), per) - 1 - np.arange(field.size))
    return field, low, np.minimum(64, widths[field] - low)


def _words(values, widths) -> tuple[np.ndarray, np.ndarray]:
    """One column's fields as uint64 values and their widths, a field wider
    than 64 bits cut into 64-bit pieces, top piece first.  Raises
    ValueError when a value is negative or does not fit its width."""
    values = np.asarray(values)
    widths = np.broadcast_to(np.asarray(widths), values.shape)
    if values.size and values.min() < 0:
        raise ValueError(f"negative field value {values.min()}")
    if values.dtype != object:
        return values.astype(np.uint64, copy=False), widths
    widths = widths.astype(np.int64)
    if (values >> widths).any():
        raise ValueError("a value does not fit its field")
    per = np.maximum(1, -(-widths // 64)).tolist()
    raw = b"".join(int(v).to_bytes(8 * k, "big") for v, k in zip(values, per))
    return np.frombuffer(raw, dtype=">u8").astype(np.uint64), _pieces(widths)[2]


def pack_fields(columns) -> tuple[bytes, int]:
    """The fields of ``columns``, (values, widths) pairs, back to back from
    bit 0, as bytes zero-padded to a whole byte and their bit length: field
    i of a column is ``values[i]`` in ``widths[i]`` bits (or in ``widths``
    bits each).  Values are non-negative: an integer array, or exact ints
    (an object array) for fields wider than 64 bits.  Raises ValueError
    when a value is negative or does not fit its width."""
    columns = [_words(values, widths) for values, widths in columns]
    total = sum(int(widths.sum()) for _, widths in columns)
    out = np.zeros(total // 64 + 2, dtype=np.uint64)
    end = 0
    # each field lies in one 64-bit word of the stream or straddles two: its
    # left-aligned bits go into the first word and any spill into the next
    step = _BLOCK_ELEMS // 32  # a dozen uint64 temporaries: a third of a block
    for values, widths in columns:
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
    return out.astype(">u8").tobytes()[: (total + 7) // 8], total


def gamma_widths(values) -> np.ndarray:
    """Field widths 2 bitlen(v) - 1 of the Elias gamma codes of ``values``.
    Raises ValueError on a value below 1."""
    values = [int(v) for v in values]
    if min(values, default=1) < 1:
        raise ValueError(f"gamma code requires values >= 1, got {min(values)}")
    return 2 * np.array([v.bit_length() for v in values], dtype=np.int64) - 1


def bit_windows(data: bytes, start: int, limit: int, span: int):
    """Ever longer windows of the stream from bit ``start`` on, each as its
    end and its bits (a uint8 array of 0s and 1s): ``span`` bits, doubling
    up to bit ``limit``.  Asking for one more raises FormatError."""
    while True:
        stop = min(limit, start + span)
        first, last = start >> 3, (stop + 7) >> 3
        bits = np.unpackbits(np.frombuffer(data, np.uint8, last - first, first))
        yield stop, bits[start - 8 * first : stop - 8 * first]
        if stop == limit:
            raise FormatError("a column runs past the end of the payload")
        span *= 2


def unpack_runs(
    data: bytes, starts: np.ndarray, widths: np.ndarray, count: int
) -> np.ndarray:
    """Array whose row i holds the ``count`` consecutive fields of
    ``widths[i]`` bits (width 0 reads zeros) that start at bit ``starts[i]``
    of the MSB-first stream ``data``: uint64 up to 64 bits, exact ints
    (object) when a field is wider.  The caller has checked every run
    against the stream's length."""
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    if widths.size and widths.max() > 64:
        flat = np.repeat(widths, count)
        field, low, w = _pieces(flat)
        at = (starts[:, None] + widths[:, None] * np.arange(count)).ravel()
        u = unpack_runs(data, at[field] + flat[field] - low - w, w, 1)
        # a field's pieces, each right-aligned in 64 bits, spell its value
        raw = u[:, 0].astype(">u8").tobytes()
        cut = (8 * np.append(np.flatnonzero(np.diff(field, prepend=-1)), field.size)).tolist()
        vals = [int.from_bytes(raw[a:b], "big") for a, b in zip(cut[:-1], cut[1:])]
        return np.array(vals, dtype=object).reshape(-1, count)
    out = np.empty((starts.size, count), dtype=np.uint64)
    if not out.size:
        return out
    buf = np.frombuffer(bytes(data) + bytes(9), dtype=np.uint8)
    words = sliding_window_view(buf, 8)
    # about eight uint64 temporaries per field: together one float block
    step = max(1, _BLOCK_ELEMS // (8 * count))
    for s in range(0, starts.size, step):
        w = widths[s : s + step, None]
        pos = starts[s : s + step, None] + w * np.arange(count)
        byte = pos >> 3
        off = (pos & 7).astype(np.uint64)
        # the 64 bits from pos on: 8 bytes shifted left, then the next byte's top
        hi = words[byte].view(">u8")[..., 0].astype(np.uint64)
        lo = buf[byte + 8].astype(np.uint64)
        word = (hi << off) | (lo >> (np.uint64(8) - off))
        out[s : s + step] = word >> (64 - w).astype(np.uint64)
    return out


def read_gammas(data: bytes, start: int, count: int, limit: int) -> tuple[np.ndarray, int]:
    """The values of the ``count`` Elias gamma codes that follow one another
    from bit ``start`` of ``data`` (as :func:`unpack_runs` gives them), and
    the bit after the last code.

    The walk takes one step per code over a table, for every position of a
    window of the stream, of where a code starting there ends; the window
    doubles while a code runs past it, and a code whose leading zeros leave
    too few bits before bit ``limit`` raises FormatError.
    """
    for stop, bits in bit_windows(data, start, limit, 8 * count + 64):
        at = np.arange(start, stop + 1)
        # the first set bit at or after each position (stop where none), and
        # the end of a code of as many zeros, that bit and as many more bits
        one = np.minimum.accumulate(np.append(np.where(bits, at[:-1], stop), stop)[::-1])
        end = (2 * one[::-1] - at + 1).tolist()
        codes, pos = [], start
        for _ in range(count):
            if end[pos - start] > stop:
                break
            codes.append(pos)
            pos = end[pos - start]
        else:
            break
    codes = np.array(codes, dtype=np.int64)
    width = np.diff(codes, append=pos)
    lead = codes + width // 2  # a code of width 2z+1 has z leading zeros
    return unpack_runs(data, lead, width - width // 2, 1)[:, 0], pos
