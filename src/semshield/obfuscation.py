"""XOR encryption plus subcarrier-level data obfuscation.

The encrypted bitstream is partitioned into data units.  Each unit spans
``s`` OFDM symbols of ``N_d`` subcarriers; ``k`` of those subcarriers are
dummies carrying decoy tokens from the semantic encoder, and the rest
carry payload.  Per-unit (s, k) and the dummy placement are drawn from a
seeded keystream, so a receiver holding the seed re-derives the layout
exactly and an eavesdropper sees independently scrambled structure.

Stream discipline per frame is fixed and normative, and ``derive_layout``
is the one place it lives: the "xor" stream yields the l_d encryption
bits first, then per unit s, k, and the k location draws, in that order,
ending with the (s, k) draw that stops the unit loop.  ``obfuscate``,
``deobfuscate`` and ``recover_bits`` all take their layout from it.
Dummy bits come from a second stream keyed by seed2 (label "dummy");
tail padding from a "pad" stream.  Deviating from this order
desynchronizes the two ends.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .bits import BitString, bytes_from_bits, xor_bits
from .codec import CodecModel, _check_types, encode
from .keying import Keystream, _seed_bytes


class DesyncError(ValueError):
    """Frame metadata disagrees with the layout re-derived from the seed."""


class FrameFormatError(ValueError):
    """A wire frame is truncated, malformed or outside the parameters' range."""


@dataclass(frozen=True)
class ObfuscationParams:
    s_max: int = 4
    k_max: int = 10
    n_d: int = 64
    b: int = 4

    def __post_init__(self):
        _check_types(self, ints=("s_max", "k_max", "n_d", "b"))
        for name in ("s_max", "k_max", "n_d", "b"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # guarantees k < s*n_d for every drawable (s, k)
        if self.k_max >= self.n_d:
            raise ValueError("k_max must be < n_d")

    @property
    def symbol_bits(self) -> int:
        return self.n_d * self.b


@dataclass(frozen=True)
class DataUnit:
    """One obfuscated unit: s OFDM symbols with k dummy subcarriers.

    ``payload_bits`` is the full on-air content, s*n_d*b bits with dummy
    and data subcarriers interleaved (b bits per subcarrier, MSB first).
    """

    s: int
    k: int
    dummy_locations: np.ndarray
    payload_bits: BitString

    def __post_init__(self):
        locs = np.asarray(self.dummy_locations, dtype=np.int64)
        object.__setattr__(self, "dummy_locations", locs)
        object.__setattr__(self, "payload_bits", np.asarray(self.payload_bits, dtype=np.uint8))
        if locs.shape != (self.k,):
            raise ValueError("locations must be a flat list of k entries")
        # k is at most k_max, so Python ints check faster than numpy calls
        ints = locs.tolist()
        if ints and (ints[0] < 0 or any(a >= b for a, b in zip(ints, ints[1:]))):
            raise ValueError("locations must be strictly increasing and non-negative")

    def capacity_bits(self, p: ObfuscationParams) -> int:
        return _capacity(self.s, self.k, p)


@dataclass(frozen=True)
class ObfuscatedFrame:
    units: tuple
    tail_bits: BitString
    l_d: int

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "tail_bits", np.asarray(self.tail_bits, dtype=np.uint8))

    def n_units(self) -> int:
        return len(self.units)


def derive_seed2(seed: BitString) -> bytes:
    """Second stream key for dummy data, bound to the frame seed."""
    return hashlib.sha256(_seed_bytes(seed) + b"dummy").digest()


def draw_unit_params(ks: Keystream, p: ObfuscationParams) -> tuple[int, int]:
    s = 1 + ks.draw_uniform(p.s_max)
    k = 1 + ks.draw_uniform(p.k_max)
    return s, k


def dummy_locations(ks: Keystream, s: int, k: int, n_d: int) -> np.ndarray:
    """k distinct dummy indices in [0, s*n_d), one stream draw per pick."""
    n = s * n_d
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < s*n_d")
    pool = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = i + ks.draw_uniform(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    chosen = pool[:k]
    chosen.sort()
    return chosen


def generate_dummy_bits(seed2_stream: Keystream, k: int, b: int, model: CodecModel) -> BitString:
    """Decoy content: uniformly drawn tokens, semantically encoded, k*b bits."""
    if k < 1 or b < 1:
        raise ValueError("k and b must be >= 1")
    n_tokens = -(-(k * b) // model.token_bits)
    tokens = [seed2_stream.draw_uniform(model.vocab_size) for _ in range(n_tokens)]
    return encode(tokens, model)[: k * b]


def _capacity(s: int, k: int, p: ObfuscationParams) -> int:
    """Data bits one unit carries: its s*n_d subcarriers minus k dummies."""
    return (s * p.n_d - k) * p.b


def _expected_tail_bits(remaining: int, p: ObfuscationParams) -> int:
    """On-air tail length: ``remaining`` bits padded to whole OFDM symbols."""
    return -(-remaining // p.symbol_bits) * p.symbol_bits


def derive_layout(seed: BitString, l_d: int, p: ObfuscationParams) -> tuple[BitString, list, int]:
    """Replay the "xor" stream for an ``l_d``-bit payload.

    Returns ``(xor_bits, units, tail)``: the l_d encryption bits, the
    ``(s, k, dummy_locations)`` of every unit in order, and the number of
    encrypted bits left for the tail.  The unit loop stops at the first
    drawn (s, k) whose capacity exceeds what is left; that stopping draw
    is consumed but makes no unit.
    """
    ks = Keystream.from_seed_bits(seed, "xor")
    xbits = ks.bits(l_d)
    units = []
    remaining = l_d
    while True:
        s, k = draw_unit_params(ks, p)
        cap = _capacity(s, k, p)
        if cap > remaining:
            return xbits, units, remaining
        units.append((s, k, dummy_locations(ks, s, k, p.n_d)))
        remaining -= cap


def _data_mask(units: list, p: ObfuscationParams) -> np.ndarray:
    """(subcarrier, bit) mask over the units laid end to end, True on data.

    Data subcarriers ascend within a unit and units follow stream order,
    so the mask's True entries in C order are the encrypted bits in order.
    The mask is a broadcast view: boolean indexing with it builds no
    integer index array.
    """
    mask = np.ones(sum(s for s, _, _ in units) * p.n_d, dtype=bool)
    off = 0
    for s, _, locs in units:
        mask[off + locs] = False
        off += s * p.n_d
    return np.broadcast_to(mask[:, None], (mask.size, p.b))


def _gather(air: np.ndarray, units: list, p: ObfuscationParams) -> np.ndarray:
    """Encrypted bits of an air string cut to its layout: unit data, then tail."""
    if not units:
        return air
    mask = _data_mask(units, p)
    return np.concatenate([air[: mask.size].reshape(mask.shape)[mask], air[mask.size:]])


def obfuscate(data: BitString, seed: BitString, p: ObfuscationParams, model: CodecModel) -> ObfuscatedFrame:
    """Encrypt ``data`` and pack it into dummy-laced units plus a padded tail.

    The units are those of ``derive_layout``; each unit's dummy subcarriers
    carry decoy bits from the "dummy" stream.  Leftover encrypted bits go
    to the tail, padded with "pad" stream bits to a whole number of OFDM
    symbols.
    """
    data = np.asarray(data, dtype=np.uint8)
    if data.size == 0:
        raise ValueError("data must be non-empty")
    xbits, layout, tail = derive_layout(seed, data.size, p)
    enc = xor_bits(data, xbits)

    units = []
    if layout:
        mask = _data_mask(layout, p)
        slots = np.empty(mask.shape, dtype=np.uint8)
        slots[mask] = enc[: enc.size - tail]
        dummy_ks = Keystream(derive_seed2(seed), "dummy")
        off = 0
        for s, k, locs in layout:
            unit = slots[off:off + s * p.n_d]
            unit[locs] = generate_dummy_bits(dummy_ks, k, p.b, model).reshape(k, p.b)
            units.append(DataUnit(s, k, locs, unit.ravel()))
            off += s * p.n_d

    pad = Keystream.from_seed_bits(seed, "pad").bits(_expected_tail_bits(tail, p) - tail)
    return ObfuscatedFrame(tuple(units), np.concatenate([enc[enc.size - tail:], pad]), data.size)


def ota_bits(frame: ObfuscatedFrame) -> BitString:
    """The over-the-air bit string: unit payloads in order, then the tail."""
    return np.concatenate([u.payload_bits for u in frame.units] + [frame.tail_bits])


def deobfuscate(frame: ObfuscatedFrame, seed: BitString, p: ObfuscationParams) -> BitString:
    """Exact inverse of obfuscate for a trusted frame.

    Demands that the frame's recorded layout match the one derived from
    the seed bit for bit; any disagreement raises DesyncError.
    """
    xbits, layout, tail = derive_layout(seed, frame.l_d, p)
    if len(frame.units) != len(layout):
        raise DesyncError(f"frame has {len(frame.units)} units, the seed derives {len(layout)}")
    for unit, (s, k, locs) in zip(frame.units, layout):
        if (s, k) != (unit.s, unit.k):
            raise DesyncError(f"unit params ({unit.s},{unit.k}) != derived ({s},{k})")
        if not np.array_equal(locs, unit.dummy_locations):
            raise DesyncError("dummy locations disagree with the derived placement")
        if unit.payload_bits.size != s * p.symbol_bits:
            raise DesyncError("unit payload has the wrong length")
    if frame.tail_bits.size != _expected_tail_bits(tail, p):
        raise DesyncError("tail length disagrees with the derived layout")
    air = ota_bits(frame)
    return xor_bits(_gather(air[: air.size - frame.tail_bits.size + tail], layout, p), xbits)


def recover_bits(ota: BitString, l_d: int, seed: BitString, p: ObfuscationParams) -> BitString:
    """Seed-driven deobfuscation of a raw over-the-air bit string.

    Unlike deobfuscate there is no metadata to cross-check: the layout is
    taken entirely from the seed, short input is zero padded and excess
    ignored, so demodulation bit errors (or a wrong seed) degrade the
    output instead of aborting it.
    """
    ota = np.asarray(ota, dtype=np.uint8)
    if l_d < 0:
        raise ValueError("l_d must be >= 0")
    xbits, layout, tail = derive_layout(seed, l_d, p)
    air = np.zeros(sum(s for s, _, _ in layout) * p.symbol_bits + tail, dtype=np.uint8)
    got = ota[: air.size]
    air[: got.size] = got
    return xor_bits(_gather(air, layout, p), xbits)


# --- serialization ----------------------------------------------------------

_MAGIC = b"SOBF"
_VERSION = 1
_HEADER = struct.Struct(">4sBQI")  # magic, version, l_d, unit count
_UNIT_HEADER = struct.Struct(">HH")  # s, k


def serialize_frame(frame: ObfuscatedFrame) -> bytes:
    """Pack a frame for the wire between simulator stages (big-endian)."""
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, frame.l_d, len(frame.units)))
    for u in frame.units:
        out += _UNIT_HEADER.pack(u.s, u.k)
        out += struct.pack(f">{u.k}I", *u.dummy_locations.tolist())
        out += bytes_from_bits(u.payload_bits)
    out += bytes_from_bits(frame.tail_bits)
    return bytes(out)


def deserialize_frame(buf: bytes, p: ObfuscationParams) -> ObfuscatedFrame:
    """Parse a wire frame; any malformed input raises FrameFormatError.

    Every field is checked against ``p`` and against the bytes left in
    ``buf`` before anything is allocated from it.
    """
    if len(buf) < _HEADER.size:
        raise FrameFormatError(f"{len(buf)}-byte buffer is shorter than the frame header")
    magic, version, l_d, n_units = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise FrameFormatError("bad magic")
    if version != _VERSION:
        raise FrameFormatError(f"unsupported version {version}")
    if l_d == 0:
        raise FrameFormatError("l_d is 0; a frame carries at least one payload bit")
    off = _HEADER.size
    units = []
    remaining = l_d
    for i in range(n_units):
        if len(buf) < off + _UNIT_HEADER.size:
            raise FrameFormatError(f"frame truncated in the header of unit {i}")
        s, k = _UNIT_HEADER.unpack_from(buf, off)
        if not (1 <= s <= p.s_max and 1 <= k <= p.k_max):
            raise FrameFormatError(f"unit {i} params ({s},{k}) outside [1,{p.s_max}] x [1,{p.k_max}]")
        nbits = s * p.symbol_bits
        locs_off = off + _UNIT_HEADER.size
        payload_off = locs_off + 4 * k
        off = payload_off + (nbits + 7) // 8
        if len(buf) < off:
            raise FrameFormatError(f"frame truncated in the body of unit {i}")
        locs = np.frombuffer(buf, dtype=">u4", count=k, offset=locs_off).astype(np.int64)
        if locs.max() >= s * p.n_d:
            raise FrameFormatError(f"unit {i} has a dummy location past its {s * p.n_d} subcarriers")
        payload = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, count=off - payload_off,
                                              offset=payload_off))[:nbits]
        try:
            units.append(DataUnit(s, k, locs, payload))
        except ValueError as exc:
            raise FrameFormatError(f"unit {i}: {exc}") from None
        remaining -= _capacity(s, k, p)
    if remaining < 0:
        raise FrameFormatError("unit capacities exceed l_d")
    tail_len = _expected_tail_bits(remaining, p)
    tail_bytes = (tail_len + 7) // 8
    if len(buf) - off != tail_bytes:
        raise FrameFormatError("trailing bytes disagree with the derived tail length")
    tail = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, count=tail_bytes, offset=off))[:tail_len]
    return ObfuscatedFrame(tuple(units), tail, l_d)
