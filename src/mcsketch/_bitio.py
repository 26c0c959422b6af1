"""MSB-first bit stream writer/reader with Elias-gamma support.

Values are packed big-endian within the stream: the first bit written is
the most significant bit of the first byte.  The reader is bounded by an
explicit bit length so trailing pad bits can be policed by the caller.

Fixed-width runs (a node's d displacement fields, a landmark's d shift
fields) move whole: :func:`pack_runs` turns rows of fields into one integer
per row for :meth:`BitWriter.write_uint`, and :func:`unpack_runs` reads the
fields of many rows, at any bit offsets, in one vectorized pass.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FormatError, _BLOCK_ELEMS

__all__ = ["BitWriter", "BitReader", "pack_runs", "unpack_runs"]


class BitWriter:
    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nbits

    def write_uint(self, value: int, width: int) -> None:
        value = int(value)
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        full, nbits = divmod(nbits, 8)
        if full:  # every completed byte in one conversion, however wide
            self._buf += (acc >> nbits).to_bytes(full, "big")
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def write_bit(self, bit: int) -> None:
        self.write_uint(1 if bit else 0, 1)

    def write_gamma(self, value: int) -> None:
        """Elias gamma: N zero bits then the (N+1)-bit value, value >= 1."""
        value = int(value)
        if value < 1:
            raise ValueError(f"gamma code requires value >= 1, got {value}")
        n = value.bit_length() - 1
        self.write_uint(0, n)
        self.write_uint(value, n + 1)

    def getvalue(self) -> bytes:
        """Bytes with zero padding in the final partial byte."""
        out = bytes(self._buf)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._limit = 8 * len(data) if bit_length is None else bit_length
        if self._limit > 8 * len(data):
            raise FormatError("bit length exceeds the available bytes")
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._limit - self._pos

    def skip(self, width: int) -> int:
        """Step over ``width`` bits and return the position they start at."""
        if width < 0:
            raise ValueError("negative width")
        if self._pos + width > self._limit:
            raise FormatError("bit stream truncated")
        pos = self._pos
        self._pos = pos + width
        return pos

    def read_uint(self, width: int) -> int:
        pos = self._pos
        end = pos + width
        if width < 0 or end > self._limit:
            self.skip(width)  # raises the matching error
        self._pos = end
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[pos >> 3 : last], "big")
        return (chunk >> (8 * last - end)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_gamma(self) -> int:
        n = 0
        while self.read_uint(1) == 0:
            n += 1
            if n > self._limit:
                raise FormatError("unterminated gamma code")
        return (1 << n) | self.read_uint(n)


def pack_runs(values: np.ndarray, width: int) -> list[int]:
    """Each row of ``values`` (unsigned fields below 2^width, width <= 64)
    concatenated MSB-first into one integer of ``values.shape[1] * width``
    bits, ready for :meth:`BitWriter.write_uint`."""
    values = np.asarray(values, dtype=np.uint64)
    k, count = values.shape
    runs: list[int] = []
    step = max(1, _BLOCK_ELEMS // (8 * count))  # as in unpack_runs
    for s in range(0, k, step):
        chunk = values[s : s + step]
        if width < 64 and (chunk >> np.uint64(width)).any():
            raise ValueError(f"a field does not fit in {width} bits")
        bits = np.empty(chunk.shape + (width,), dtype=np.uint8)
        for j in range(width):
            bits[:, :, j] = (chunk >> np.uint64(width - 1 - j)) & np.uint64(1)
        packed = np.packbits(bits.reshape(len(chunk), count * width), axis=1)
        pad = 8 * packed.shape[1] - count * width
        runs.extend(int.from_bytes(row.tobytes(), "big") >> pad for row in packed)
    return runs


def unpack_runs(
    data: bytes, starts: np.ndarray, widths: np.ndarray, count: int
) -> np.ndarray:
    """uint64 array whose row i holds the ``count`` consecutive fields of
    ``widths[i]`` bits (at most 64) that start at bit ``starts[i]`` of the
    MSB-first stream ``data``.  The caller has checked every run against
    the stream's length."""
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
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
