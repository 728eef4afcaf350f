"""Bit-array helpers shared across the transmit/receive pipeline.

Bit strings are numpy uint8 arrays with values in {0, 1}, ordered
most-significant-bit first within every byte boundary.
"""
from __future__ import annotations

import numpy as np

from .fields import checked_int

BitString = np.ndarray


def _rng(*values: int) -> np.random.Generator:
    """The generator ``np.random.default_rng([v & (2**64 - 1) for v in values])`` gives.

    The one seeding path.  numpy turns each list entry into its 32-bit
    words, low word first and the high word only when non-zero; handing it
    those words as one uint32 array gives the same SeedSequence without its
    per-int coercion.  Each value passes ``checked_int`` as ``seed``.
    """
    words = []
    for v in values:
        v = checked_int("seed", v) & 0xFFFFFFFFFFFFFFFF
        words.append(v & 0xFFFFFFFF)
        if v >> 32:
            words.append(v >> 32)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _bit_array(bits, what: str) -> BitString:
    """``bits`` as uint8; a ValueError unless it is a 1-D bool or integer array of 0s and 1s."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError(f"{what} must be 1-D, not of shape {bits.shape}")
    # One reduction: the OR of every value lies in [0, 1] only when each value does.
    if bits.dtype.kind not in "biu" or not 0 <= np.bitwise_or.reduce(bits, axis=None) <= 1:
        raise ValueError(f"{what} must be a bool or integer array of 0s and 1s")
    return bits.astype(np.uint8, copy=False)


def bits_from_bytes(data: bytes, nbits: int | None = None) -> BitString:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if nbits is not None:
        nbits = checked_int("nbits", nbits, 0)
        if nbits > bits.size:
            raise ValueError(f"requested {nbits} bits from {bits.size}-bit buffer")
        bits = bits[:nbits]
    return bits


def bytes_from_bits(bits: BitString) -> bytes:
    """Pack bits MSB-first; the final byte is zero-padded on the right."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def int_from_bits(bits: BitString) -> int:
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits)
    return int.from_bytes(packed.tobytes(), "big") >> (packed.size * 8 - bits.size)


def hex_from_bits(bits: BitString) -> str:
    if len(bits) % 8:
        raise ValueError("hex encoding requires a whole number of bytes")
    return bytes_from_bits(bits).hex()


def xor_bits(a: BitString, b: BitString) -> BitString:
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a ^ b
