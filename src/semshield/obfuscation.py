"""XOR encryption plus subcarrier-level data obfuscation.

The encrypted bitstream is partitioned into data units.  Each unit spans
``s`` OFDM symbols of ``N_d`` subcarriers; ``k`` of those subcarriers are
dummies carrying decoy tokens from the semantic encoder, and the rest
carry payload.  Per-unit (s, k) and the dummy placement are drawn from a
seeded keystream, so a receiver holding the seed re-derives the layout
exactly and an eavesdropper sees independently scrambled structure.

A frame is its layout as arrays (per-unit ``s`` and ``k``, and one flat
array of frame-level dummy subcarrier indices) plus one on-air bit array:
the units laid end to end, ``b`` bits per subcarrier, then the tail.

Stream discipline per frame is fixed and normative: the "xor" stream
yields the l_d encryption bits first, then per unit s, k, and the k
location draws, in that order, ending with the (s, k) draw that stops the
unit loop.  Every draw is a ``Keystream.draw_uniform`` draw: one 32-bit
word, skipped when it is at or above the largest multiple of the range.
``draw_unit_params`` and ``dummy_locations`` make these draws one at a
time; ``derive_layout``, the one replay the frame functions use, must
equal them.  Its one plain-int loop walks the units with no rejection
check: each unit's s, k and capacity, then the next unit's start.  Then it
runs the partial Fisher-Yates shuffles (Knuth's Algorithm P) of all units
at once.  No draw rejects a word below safe = min(lim_s, lim_k, 2**32 -
s_max*n_d + 1), lim_s and lim_k being the (s, k) draws' limits, so one
max over the words the draws read shows whether the walk holds; a frame
that reads a word at or above safe is replayed with the single draws.
A payload shorter than the smallest unit, (n_d - k_max)*b bits, reads
only its encryption bits: every (s, k) draw would stop the loop.
Dummy bits come from a second stream keyed by seed2 (label "dummy"),
every unit's tokens in unit order; tail padding from a "pad" stream.
Deviating from this order desynchronizes the two ends.

Both ends of a link run in this one process, and they derive each frame's
layout in turn, so ``derive_layout`` keeps the last layout it made in one
module-level entry, keyed by the stream key, l_d and the params.  The
entry holds the units' s and k and the dummy locations, as read-only
arrays, and the tail count: what ``serialize_frame`` already puts on the
wire, never the XOR pad.  A call that matches it reads only its l_d
encryption bits, from a fresh "xor" stream.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bit_array, xor_bits
from .codec import CodecModel, encode
from .fields import check_fields, checked_int
from .keying import _WORD, Keystream, _draw_limit, _seed_bytes, _stream_key, _words, expand_seed

_NO_UNITS = np.zeros(0, dtype=np.int64)
_NO_UNITS.flags.writeable = False
# The last layout derive_layout made: ((stream key, l_d, params), (s, k,
# dummy_locations, tail)), arrays read-only; None before the first.
_last_layout = None


class DesyncError(ValueError):
    """Frame metadata disagrees with the layout re-derived from the seed."""


class FrameFormatError(ValueError):
    """A wire frame is truncated, malformed or outside the parameters' range."""


# The wire's unit header holds s and k as >u2.
_PARAMS_RULES = {**dict.fromkeys(("s_max", "k_max"), (int, 1, 0xFFFF)),
                 **dict.fromkeys(("n_d", "b"), (int, 1, None))}


@dataclass(frozen=True)
class ObfuscationParams:
    s_max: int = 4
    k_max: int = 10
    n_d: int = 64
    b: int = 4

    def __post_init__(self):
        check_fields(self, _PARAMS_RULES)
        # guarantees k < s*n_d for every drawable (s, k)
        if self.k_max >= self.n_d:
            raise ValueError("k_max must be < n_d")
        # The wire holds each location as >u4, and s*n_d is also the
        # largest range a location draw takes.
        if self.s_max * self.n_d > _WORD:
            raise ValueError("s_max*n_d must be <= 2**32, the wire's 32-bit dummy location")

    @property
    def symbol_bits(self) -> int:
        return self.n_d * self.b


def _subcarriers(bits: np.ndarray, b: int) -> np.ndarray:
    """A contiguous bit array seen as one ``b``-byte element per subcarrier."""
    return bits.view(np.dtype((np.void, b)))


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of consecutive runs: ``starts[i]`` up to ``starts[i] + lengths[i]``, run after run."""
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return shift + np.arange(shift.size)


@dataclass(frozen=True, eq=False)
class DataUnit:
    """One obfuscated unit: s OFDM symbols with k dummy subcarriers.

    ``dummy_locations`` are the unit's own subcarrier indices, and
    ``payload_bits`` is its full on-air content, s*n_d*b bits with dummy
    and data subcarriers interleaved (b bits per subcarrier, MSB first).
    Only ``ObfuscatedFrame.units`` builds units, from a frame whose layout
    ``obfuscate`` or ``deserialize_frame`` has already checked.
    """

    s: int
    k: int
    dummy_locations: np.ndarray
    payload_bits: BitString


@dataclass(frozen=True, eq=False)
class ObfuscatedFrame:
    """A frame of an ``l_d``-bit payload (an integer >= 1): its layout as
    arrays plus one on-air bit array.

    ``s`` and ``k`` hold each unit's symbol and dummy counts in stream
    order.  ``dummy_locations`` holds every dummy's frame-level subcarrier
    index, ascending: unit u's subcarriers follow those of units 0..u-1.
    ``air`` is the on-air content, each unit's s*n_d*b bits laid end to
    end, then the tail.  ``obfuscate`` builds frames from the seed's
    layout; a frame from elsewhere is checked where it enters:
    ``deserialize_frame`` checks its layout against the params and
    ``deobfuscate`` against the seed.
    """

    l_d: int
    params: ObfuscationParams
    s: np.ndarray
    k: np.ndarray
    dummy_locations: np.ndarray
    air: BitString

    def __post_init__(self):
        object.__setattr__(self, "l_d", checked_int("l_d", self.l_d, 1))
        for name, dtype in (("s", np.int64), ("k", np.int64), ("dummy_locations", np.int64), ("air", np.uint8)):
            value = np.asarray(getattr(self, name))
            # The cast below would truncate floats; an empty list is float64.
            if value.size and value.dtype.kind not in "biu":
                raise ValueError(f"frame {name} must be a bool or integer array, not {value.dtype}")
            object.__setattr__(self, name, np.ascontiguousarray(value, dtype=dtype))

    @property
    def unit_bits(self) -> int:
        """On-air bits of the units; the tail follows them."""
        return _unit_subcarriers(self.s, self.params) * self.params.b

    @property
    def tail_bits(self) -> BitString:
        return self.air[self.unit_bits:]

    @property
    def units(self) -> tuple:
        """Every unit: its locations a slice of one int64 array, its payload a view into ``air``."""
        p = self.params
        n = self.s * p.n_d
        local = self.dummy_locations - np.repeat(np.cumsum(n) - n, self.k)
        locs = np.split(local, np.cumsum(self.k)[:-1])
        bits = np.split(self.air[:self.unit_bits], np.cumsum(self.s * p.symbol_bits)[:-1])
        return tuple(map(DataUnit, self.s.tolist(), self.k.tolist(), locs, bits))


def _seed2(packed: bytes) -> bytes:
    """Second stream key for dummy data, bound to the frame seed packed by ``_seed_bytes``."""
    return hashlib.sha256(packed + b"dummy").digest()


def draw_unit_params(ks: Keystream, p: ObfuscationParams) -> tuple[int, int]:
    """One unit's (s, k), one draw each: the draws ``derive_layout`` must equal."""
    s = 1 + ks.draw_uniform(p.s_max)
    k = 1 + ks.draw_uniform(p.k_max)
    return s, k


def dummy_locations(ks: Keystream, s: int, k: int, n_d: int) -> np.ndarray:
    """k distinct dummy indices in [0, s*n_d), one stream draw per pick: the
    location draws ``derive_layout`` must equal."""
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


def generate_dummy_bits(seed2_stream: Keystream, k: np.ndarray, b: int, model: CodecModel) -> BitString:
    """Decoy content of units with ``k`` dummies each: k*b bits per unit, in unit order.

    Each unit draws ceil(k*b / token_bits) uniform tokens, in unit order,
    and keeps the first k*b bits of their encoding.
    """
    need = np.asarray(k, dtype=np.int64) * b
    if b < 1 or np.any(need < 1):
        raise ValueError("k and b must be >= 1")
    n_tokens = -(-need // model.token_bits)
    tokens = seed2_stream.draw_uniform(model.vocab_size, int(n_tokens.sum()))
    return encode(tokens, model)[_runs((np.cumsum(n_tokens) - n_tokens) * model.token_bits, need)]


def _unit_subcarriers(s: np.ndarray, p: ObfuscationParams) -> int:
    """Subcarriers of units of ``s`` symbols each, laid end to end."""
    return int(s.sum()) * p.n_d


def _capacity(s: int, k: int, p: ObfuscationParams) -> int:
    """Data bits one unit carries: its s*n_d subcarriers minus k dummies."""
    return (s * p.n_d - k) * p.b


def _expected_tail_bits(remaining: int, p: ObfuscationParams) -> int:
    """On-air tail length: ``remaining`` bits padded to whole OFDM symbols."""
    return -(-remaining // p.symbol_bits) * p.symbol_bits


def derive_layout(seed: BitString, l_d: int, p: ObfuscationParams) -> tuple:
    """Replay the "xor" stream for an ``l_d``-bit payload.

    Returns ``(xor_bits, s, k, dummy_locations, tail)``: the l_d encryption
    bits, every unit's s and k in stream order, the dummies' frame-level
    subcarrier indices, and the number of encrypted bits left for the
    tail.  The unit loop stops at the first drawn (s, k) whose capacity
    exceeds what is left; that stopping draw is consumed but makes no unit.

    The loop walks the units with no rejection check.  If a word its draws
    read is at or above ``safe`` (module docstring), the frame is replayed
    with ``draw_unit_params`` and ``dummy_locations`` instead, which skip
    rejected words.  A payload shorter than the smallest unit,
    (n_d - k_max)*b bits, holds no unit and reads only its encryption bits.

    The last layout derived is kept (module docstring), so the receiving
    end of a frame just sent reads only the encryption bits; the arrays
    of a frame with units are read-only.
    """
    return _layout(expand_seed(seed), l_d, p)


def _layout(key: bytes, l_d: int, p: ObfuscationParams) -> tuple:
    """``derive_layout`` for the stream key ``key``, ``expand_seed(seed)``."""
    global _last_layout
    n_d, b, s_max, k_max = p.n_d, p.b, p.s_max, p.k_max
    ks = Keystream(key, "xor")
    # Every (s, k) draw would stop the loop, so skipping the stopping draw
    # changes no output; about half of the sentence frames end here.
    if l_d < (n_d - k_max) * b:
        return ks.bits(l_d), _NO_UNITS, _NO_UNITS, _NO_UNITS, l_d
    memo_key = (key, l_d, p)
    # One read: an entry is a whole (key, layout) pair, so a thread that
    # replaces it between calls costs a miss, never a wrong layout.
    last = _last_layout
    if last is not None and last[0] == memo_key:
        return (ks.bits(l_d), *last[1])
    # The (s, k) draws' limits, and a bound no location draw's limit lies
    # below: a draw from [0, m) rejects from _draw_limit(m) > 2**32 - m,
    # and m <= s_max*n_d.
    safe = min(_draw_limit(s_max), _draw_limit(k_max), _WORD - s_max * n_d + 1)
    # One read covers the encryption bits and the words of the units an
    # l_d-bit frame holds on average, plus two units' worth; the loop reads
    # a quarter as many words again whenever it runs out.
    mean_cap = ((s_max + 1) * n_d - k_max - 1) * b / 2
    chunk = int(l_d / mean_cap * (k_max + 5) / 2) + 2 * (k_max + 2)
    more = chunk // 4 + k_max + 2
    first = ks.bits(l_d + 32 * chunk)
    chunks = [_words(first[l_d:])]
    words = chunks[0].tolist()
    remaining, s_of, k_of = l_d, [], []
    i = 0  # next word, counted from the end of the encryption bits
    while True:
        # The most words one unit's draws read, 2 + k_max, are always there.
        if len(words) < i + 2 + k_max:
            chunks.append(_words(ks.bits(32 * more)))
            words += chunks[-1].tolist()
        s, k = 1 + words[i] % s_max, 1 + words[i + 1] % k_max
        cap = (s * n_d - k) * b
        if cap > remaining:
            break
        remaining -= cap
        i += 2 + k
        s_of.append(s)
        k_of.append(k)

    stream = np.concatenate(chunks)
    # stream[:i + 2] holds every word the walk read as a draw, the stopping
    # (s, k) draw's too.  No draw rejects a word below safe, so the walk
    # equals the single draws unless one of those words reaches it.
    if stream[:i + 2].max() >= safe:
        layout = _single_draws(key, l_d, p)
    elif not s_of:
        layout = _NO_UNITS, _NO_UNITS, _NO_UNITS, remaining
    else:
        s, k = np.array(s_of), np.array(k_of)
        # Each unit's words follow the last unit's, 2 + k of them; its
        # locations start at its third.
        layout = s, k, _place_dummies(stream, np.cumsum(k + 2) - k, s, k, max(k_of), p), remaining
    # Frames keep these arrays without a copy, and the memo hands them out again.
    for arr in layout[:3]:
        arr.flags.writeable = False
    _last_layout = (memo_key, layout)
    return (first[:l_d], *layout)


def _single_draws(key: bytes, l_d: int, p: ObfuscationParams) -> tuple:
    """``derive_layout``'s s, k, dummy locations and tail, replayed with
    ``draw_unit_params`` and ``dummy_locations`` from past the l_d
    encryption bits: the layout of a frame whose draws read a word at or
    above safe, about one 1e6-bit frame in 1,400 at the default params."""
    ks = Keystream(key, "xor")
    ks.bits(l_d)
    s_of, k_of, locs = [], [], [_NO_UNITS]
    remaining, offset = l_d, 0
    while True:
        s, k = draw_unit_params(ks, p)
        cap = _capacity(s, k, p)
        if cap > remaining:
            s, k = np.array(s_of, dtype=np.int64), np.array(k_of, dtype=np.int64)
            return s, k, np.concatenate(locs), remaining
        remaining -= cap
        locs.append(offset + dummy_locations(ks, s, k, p.n_d))
        offset += s * p.n_d
        s_of.append(s)
        k_of.append(k)


def _place_dummies(words, loc_word, s, k, k_hi, p) -> np.ndarray:
    """Frame-level dummy indices: every unit's partial Fisher-Yates shuffle at once.

    Row u of the pool holds unit u's subcarriers, numbered frame-wide.
    Swap t exchanges each row's entry t with entry t + w % (s*n_d - t), w
    being the unit's t-th location word, ``words[loc_word[u] + t]``.  A
    row's first k entries are then what ``dummy_locations`` picks for its
    unit.  Swaps past a unit's k only move entries past its first k, and
    the words they read exist: the unit loop kept k_max words past every
    unit.
    """
    n = s * p.n_d
    start = np.cumsum(n) - n
    width = p.s_max * p.n_d
    draws = np.arange(k_hi)[:, None]
    at = np.arange(0, s.size * width, width) + draws
    to = at + words[loc_word + draws].astype(np.int64) % (n - draws)
    dtype = np.int32 if int(start[-1]) + width < 2**31 else np.int64
    pool = (start.astype(dtype)[:, None] + np.arange(width, dtype=dtype)).ravel()
    # One gather and one scatter per swap: each row's two entries trade places.
    for dst, src in zip(np.hstack([at, to]), np.hstack([to, at])):
        pool[dst] = pool[src]
    # Each unit's picks lie in its own subcarrier range, so one sort of the
    # whole frame sorts every unit.
    locs = pool.reshape(s.size, width)[:, :k_hi][draws.T < k[:, None]].astype(np.int64)
    locs.sort()
    return locs


def _data_mask(locs: np.ndarray, n_sub: int) -> np.ndarray:
    """Mask over the units' ``n_sub`` subcarriers laid end to end, True on data.

    Data subcarriers ascend within a unit and units follow stream order,
    so the data subcarriers in mask order carry the encrypted bits in order.
    """
    mask = np.ones(n_sub, dtype=bool)
    mask[locs] = False
    return mask


def _decrypt(air: np.ndarray, xbits: BitString, locs: np.ndarray, n_sub: int,
             p: ObfuscationParams) -> BitString:
    """Payload of an air string cut to its layout, ``n_sub`` unit subcarriers
    and the tail: the units' data subcarriers, then the tail, XORed with ``xbits``."""
    # A tail-only frame, as most short sentence frames are, skips the empty
    # layout cut, a measurable share of a short call.
    if not n_sub:
        return xor_bits(air, xbits)
    data = _subcarriers(air[: n_sub * p.b], p.b)[_data_mask(locs, n_sub)].view(np.uint8)
    # Each part XORed straight into its place, without joining them first.
    out = np.empty_like(xbits)
    np.bitwise_xor(data, xbits[:data.size], out=out[:data.size])
    np.bitwise_xor(air[n_sub * p.b:], xbits[data.size:], out=out[data.size:])
    return out


def obfuscate(data: BitString, seed: BitString, p: ObfuscationParams, model: CodecModel) -> ObfuscatedFrame:
    """Encrypt ``data`` and pack it into dummy-laced units plus a padded tail.

    The units are those of ``derive_layout``; their dummy subcarriers carry
    decoy bits from the "dummy" stream.  Leftover encrypted bits go to the
    tail, padded with "pad" stream bits to a whole number of OFDM symbols.
    """
    data = _bit_array(data, "data")
    if data.size == 0:
        raise ValueError("data must be non-empty")
    # The seed is checked and packed once for all three streams.
    packed = _seed_bytes(seed)
    key = _stream_key(packed)
    xbits, s, k, locs, tail = _layout(key, data.size, p)
    enc = xor_bits(data, xbits)
    pad = Keystream(key, "pad").bits(_expected_tail_bits(tail, p) - tail)
    # A tail-only frame, as short sentence frames often are, skips the slot
    # arrays and the dummy stream, which would nearly double its cost.
    if not s.size:
        return ObfuscatedFrame(data.size, p, s, k, locs, np.concatenate([enc, pad]))

    n_sub = _unit_subcarriers(s, p)
    unit_bits = n_sub * p.b
    air = np.empty(unit_bits + tail + pad.size, dtype=np.uint8)
    slots = _subcarriers(air[:unit_bits], p.b)
    slots[_data_mask(locs, n_sub)] = _subcarriers(enc[: enc.size - tail], p.b)
    dummy = generate_dummy_bits(Keystream(_seed2(packed), "dummy"), k, p.b, model)
    slots[locs] = _subcarriers(dummy, p.b)
    air[unit_bits:unit_bits + tail] = enc[enc.size - tail:]
    air[unit_bits + tail:] = pad
    return ObfuscatedFrame(data.size, p, s, k, locs, air)


def ota_bits(frame: ObfuscatedFrame) -> BitString:
    """The over-the-air bit string, a fresh copy: unit payloads in order, then the tail."""
    return frame.air.copy()


def deobfuscate(frame: ObfuscatedFrame, seed: BitString, p: ObfuscationParams) -> BitString:
    """Exact inverse of obfuscate for a trusted frame.

    Demands that the frame's recorded layout match the one derived from
    the seed bit for bit; any disagreement raises DesyncError.  Air
    values other than 0 and 1 raise ValueError.
    """
    if frame.params != p:
        raise DesyncError(f"frame params {frame.params} != {p}")
    _bit_array(frame.air, "frame air")  # the frame holds it as uint8 already
    xbits, s, k, locs, tail = derive_layout(seed, frame.l_d, p)
    if frame.s.size != s.size:
        raise DesyncError(f"frame has {frame.s.size} units, the seed derives {s.size}")
    bad = np.flatnonzero((frame.s != s) | (frame.k != k))
    if bad.size:
        i = bad[0]
        raise DesyncError(f"unit {i} params ({frame.s[i]},{frame.k[i]}) != derived ({s[i]},{k[i]})")
    if not np.array_equal(frame.dummy_locations, locs):
        raise DesyncError("dummy locations disagree with the derived placement")
    n_sub = _unit_subcarriers(s, p)
    unit_bits = n_sub * p.b
    if frame.air.size < unit_bits:
        raise DesyncError(f"{frame.air.size} on-air bits end inside the {unit_bits} unit bits")
    if frame.air.size - unit_bits != _expected_tail_bits(tail, p):
        raise DesyncError("tail length disagrees with the derived layout")
    return _decrypt(frame.air[: unit_bits + tail], xbits, locs, n_sub, p)


def recover_bits(ota: BitString, l_d: int, seed: BitString, p: ObfuscationParams) -> BitString:
    """Seed-driven deobfuscation of a raw over-the-air bit string.

    Unlike deobfuscate there is no metadata to cross-check: the layout is
    taken entirely from the seed, short input is zero padded and excess
    ignored, so demodulation bit errors (or a wrong seed) degrade the
    output instead of aborting it.  An ``ota`` that is not 1-D or holds
    values other than 0 and 1, and an ``l_d`` that is not an integer >= 0,
    raise ValueError.
    """
    ota = np.ascontiguousarray(_bit_array(ota, "ota"))
    l_d = checked_int("l_d", l_d, 0)
    xbits, s, k, locs, tail = derive_layout(seed, l_d, p)
    n_sub = _unit_subcarriers(s, p)
    n_air = n_sub * p.b + tail
    air = ota[:n_air]
    if air.size < n_air:
        air = np.concatenate([air, np.zeros(n_air - air.size, dtype=np.uint8)])
    return _decrypt(air, xbits, locs, n_sub, p)


# --- serialization ----------------------------------------------------------

_MAGIC = b"SOBF"
_VERSION = 1
_HEADER = struct.Struct(">4sBQI")  # magic, version, l_d, unit count
_UNIT_HEADER = struct.Struct(">HH")  # s, k


def serialize_frame(frame: ObfuscatedFrame) -> bytes:
    """Pack a frame for the wire between simulator stages (big-endian).

    Each unit is its (s, k) header, its k unit-level dummy locations and
    its on-air bits padded to whole bytes; the tail, padded likewise, ends
    the frame.
    """
    p, s, k = frame.params, frame.s, frame.k
    header = _HEADER.pack(_MAGIC, _VERSION, frame.l_d, s.size)
    bits = s * p.symbol_bits
    pay = -(-bits // 8)
    if p.symbol_bits % 8 == 0:
        # Every unit is whole bytes: pack the units and the tail at once.
        # The padding path below takes 2-5x as long on the default geometry.
        body = np.packbits(frame.air)
    else:
        padded = np.zeros(8 * int(pay.sum()), dtype=np.uint8)
        padded[_runs(8 * (np.cumsum(pay) - pay), bits)] = frame.air[: frame.unit_bits]
        body = np.concatenate([np.packbits(padded), np.packbits(frame.tail_bits)])
    heads = np.stack([s, k], axis=1).astype(">u2").view(np.uint8).ravel()
    n = s * p.n_d
    local = frame.dummy_locations - np.repeat(np.cumsum(n) - n, k)
    locs = local.astype(">u4").view(np.uint8)
    # Interleave the three byte streams unit by unit: header, locations, payload.
    src = np.concatenate([heads, locs, body])
    starts = np.stack([4 * np.arange(s.size), heads.size + 4 * (np.cumsum(k) - k),
                       heads.size + locs.size + np.cumsum(pay) - pay], axis=1).ravel()
    lengths = np.stack([np.full(s.size, 4), 4 * k, pay], axis=1).ravel()
    return header + src[_runs(starts, lengths)].tobytes() + body[int(pay.sum()):].tobytes()


def deserialize_frame(buf: bytes, p: ObfuscationParams) -> ObfuscatedFrame:
    """Parse a wire frame; any malformed input raises FrameFormatError.

    Every field is checked against ``p`` and against the bytes left in
    ``buf`` before anything is allocated from it.  Padding bits must be 0,
    so ``buf`` is ``serialize_frame`` of the frame returned.
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
    s_of, k_of, locs_at = [], [], []
    remaining = l_d
    # The walk reads every unit header, so it works on locals alone.
    size, head, unpack = len(buf), _UNIT_HEADER.size, _UNIT_HEADER.unpack_from
    s_max, k_max, n_d, b, symbol_bits = p.s_max, p.k_max, p.n_d, p.b, p.symbol_bits
    for i in range(n_units):
        if size < off + head:
            raise FrameFormatError(f"frame truncated in the header of unit {i}")
        s, k = unpack(buf, off)
        if not (1 <= s <= s_max and 1 <= k <= k_max):
            raise FrameFormatError(f"unit {i} params ({s},{k}) outside [1,{s_max}] x [1,{k_max}]")
        off += head
        locs_at.append(off)
        off += 4 * k + (s * symbol_bits + 7) // 8
        if size < off:
            raise FrameFormatError(f"frame truncated in the body of unit {i}")
        s_of.append(s)
        k_of.append(k)
        remaining -= (s * n_d - k) * b
    if remaining < 0:
        raise FrameFormatError("unit capacities exceed l_d")
    tail_len = _expected_tail_bits(remaining, p)
    tail_bytes = (tail_len + 7) // 8
    if len(buf) - off != tail_bytes:
        raise FrameFormatError("trailing bytes disagree with the derived tail length")

    raw = np.frombuffer(buf, dtype=np.uint8)
    s, k = np.array(s_of, dtype=np.int64), np.array(k_of, dtype=np.int64)
    locs_at = np.array(locs_at, dtype=np.int64)
    bits = s * p.symbol_bits
    pay = (bits + 7) // 8
    locs = raw[_runs(locs_at, 4 * k)].view(">u4").astype(np.int64)
    body = np.unpackbits(np.concatenate([raw[_runs(locs_at + 4 * k, pay)], raw[off:]]))
    unit_bits = int(bits.sum())
    if p.symbol_bits % 8 == 0:
        # Whole-byte units have no padding to cut out: one slice instead of
        # the gather below, which takes 1.3-4x as long on the default geometry.
        air = body[: unit_bits + tail_len]
    else:
        air = body[_runs(np.append(8 * (np.cumsum(pay) - pay), 8 * int(pay.sum())),
                         np.append(bits, tail_len))]
        # Every bit is 0 or 1, so the padding cut out holds a 1 exactly when
        # the counts differ; a wire with one would not be the frame's own.
        if np.count_nonzero(body) != np.count_nonzero(air):
            raise FrameFormatError("padding bits must be 0")
    n = s * p.n_d
    end = np.repeat(np.cumsum(n), k)
    locs += end - np.repeat(n, k)
    # In its own unit's range each location is above the previous unit's,
    # so one frame-wide ascent check covers the order within every unit.
    past = locs >= end
    bad = past.copy()
    bad[1:] |= locs[1:] <= locs[:-1]
    if bad.any():
        first = np.flatnonzero(bad)[0]
        i = np.searchsorted(np.cumsum(k), first, side="right")
        if past[first]:
            raise FrameFormatError(f"unit {i} has a dummy location past its {n[i]} subcarriers")
        raise FrameFormatError(f"unit {i}: dummy locations must be strictly increasing")
    return ObfuscatedFrame(l_d, p, s, k, locs, air)
