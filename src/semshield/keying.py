"""Key material: channel-derived bits, score-derived keys, deterministic streams.

Two independent secrets feed the link.  A physical-layer key (PLK) is
distilled from reciprocal channel-gain probes through guard-band
quantization, parity reconciliation, and hash-based amplification.  A
second key (SKey) hashes the weighted sum of the four n-gram scores of a
transmitted sentence; the weights come from a keyed stream so the sum is
unpredictable even when the scores cluster.  ``seed_key = SKey XOR PLK``
seeds every keystream used by encryption and obfuscation.

All streams are ChaCha20 (RFC 8439 semantics: 256-bit key, 96-bit nonce,
32-bit block counter).  Nonces are derived from short label strings so
differently-labeled streams are independent.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .bits import BitString, _bit_array, _rng, bits_from_bytes, bytes_from_bits, int_from_bits, xor_bits
from .codec import BleuScores
from .fields import check_fields, checked_int

DEFAULT_KEY_BITS = 128
CHACHA_BLOCK_BYTES = 64
_WORD = 1 << 32


def _words(bits: BitString) -> np.ndarray:
    """The 32-bit words of ``bits`` as a native uint32 array."""
    return np.packbits(bits).view(">u4").astype(np.uint32)


def _draw_limit(m: int) -> int:
    """The least word a draw from [0, m) rejects: the largest multiple of ``m`` not above 2**32."""
    return _WORD - _WORD % m


def _check_count(name: str, value) -> None:
    """A ValueError unless ``value`` is an integer, not a bool, of at least 1."""
    if not isinstance(value, int) or type(value) is bool:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def skey_hash(data: bytes, nbits: int) -> BitString:
    """SHA-256 truncated to ``nbits``, the hash behind all key derivation."""
    if nbits < 1 or nbits > 256:
        raise ValueError("nbits must lie in [1, 256]")
    return bits_from_bytes(hashlib.sha256(data).digest(), nbits)


def chacha20_stream(key: bytes, nonce: bytes, counter: int, nbytes: int) -> bytes:
    """Raw ChaCha20 keystream bytes starting at the given 64-byte block."""
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    if not 0 <= counter < _WORD:
        raise ValueError("block counter must fit in 32 bits")
    full_nonce = struct.pack("<I", counter) + nonce
    cipher = Cipher(algorithms.ChaCha20(key, full_nonce), mode=None)
    return cipher.encryptor().update(bytes(nbytes))


def _seed_bytes(seed: BitString) -> bytes:
    """Pack seed bits into bytes; a seed must be a whole number of bytes,
    and a bool or integer array of 0s and 1s.

    Packing pads the last byte with zeros, so a ragged seed and the same
    bits plus trailing zeros would otherwise name the same key; a 2 or
    a -1 would pack like a 1, and a 0.5 like a 0.
    """
    seed = _bit_array(seed, "seed")
    if seed.size % 8:
        raise ValueError(f"seed length {seed.size} is not a multiple of 8 bits")
    return bytes_from_bits(seed)


def expand_seed(seed: BitString) -> bytes:
    """Map seed bits (a multiple of 8 long) to a 32-byte stream key.

    A 256-bit seed is used verbatim; anything else is hashed.
    """
    return _stream_key(_seed_bytes(seed))


def _stream_key(packed: bytes) -> bytes:
    """``expand_seed`` of a seed already packed by ``_seed_bytes``."""
    if len(packed) == 32:
        return packed
    return hashlib.sha256(packed).digest()


def label_nonce(label: bytes) -> bytes:
    return hashlib.sha256(label).digest()[:12]


class Keystream:
    """Deterministic bit stream: ChaCha20 keyed by ``seed``, nonce from ``label``.

    The stream is a pure function of (seed, label, position); bits are
    served most-significant-first within each keystream byte.  Instances
    are stateful and single-owner, and every stream starts at position 0.

    Every read starts at ``position``: ``bits`` returns the next bits and
    advances past them.  ``draw_uniform`` reads its 32-bit words through
    ``bits`` and reads no further than its last accepted word, so any
    interleaving of the two reads the stream in order.

    ChaCha20 is counter mode, so the stream keeps no cipher blocks: each
    read of at least one bit generates exactly the blocks that cover it,
    from the block counter of ``position``, and a read of 0 bits generates
    nothing.
    """

    def __init__(self, seed: bytes, label: bytes | str):
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes; use Keystream.from_seed_bits for bit strings")
        if isinstance(label, str):
            label = label.encode("utf-8")
        self.seed = seed
        self.position = 0
        self._nonce = label_nonce(label)

    @classmethod
    def from_seed_bits(cls, seed_bits: BitString, label: bytes | str) -> "Keystream":
        return cls(expand_seed(seed_bits), label)

    def bits(self, nbits: int) -> BitString:
        """Return the next ``nbits`` of the stream and advance the position."""
        nbits = checked_int("nbits", nbits, 0)
        if not nbits:
            return np.zeros(0, dtype=np.uint8)
        block_bits = 8 * CHACHA_BLOCK_BYTES
        first, offset = divmod(self.position, block_bits)
        self.position += nbits
        n_blocks = -(-self.position // block_bits) - first
        raw = chacha20_stream(self.seed, self._nonce, first, n_blocks * CHACHA_BLOCK_BYTES)
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[offset:offset + nbits]

    def draw_uniform(self, m: int, n: int | None = None) -> int | list[int]:
        """Unbiased draws from [0, m) by rejection on 32-bit stream words.

        ``n=None`` returns one draw as an int, an int ``n >= 0`` a list of
        ``n`` draws.  Each round reads the words still needed and keeps those
        below the largest multiple of ``m``, in stream order; a rejected
        word is consumed and skipped.  The position ends right after the
        last accepted word, where ``n`` single draws would end.
        """
        m = checked_int("m", m, 1)
        if m > _WORD:
            raise ValueError("m must lie in [1, 2^32]")
        want = 1 if n is None else checked_int("n", n, 0)
        limit = _draw_limit(m)
        out = []
        for _ in range(1000):
            need = want - len(out)
            if not need:
                return out if n is not None else out[0]
            # int64: for m = 2**32 the limit itself does not fit in uint32.
            words = _words(self.bits(32 * need)).astype(np.int64)
            out += (words[words < limit] % m).tolist()
        raise RuntimeError("rejection sampling failed to terminate")


@dataclass(frozen=True)
class WeightVector:
    """Four score weights as raw fixed-point integers with ``l_weight`` fractional bits."""

    w1: int
    w2: int
    w3: int
    w4: int
    l_weight: int = 16

    def __post_init__(self):
        top = 1 << self.l_weight
        for value in (self.w1, self.w2, self.w3, self.w4):
            if not 0 <= value < top:
                raise ValueError(f"weight {value} outside [0, 2^{self.l_weight})")


def weight_generator(ks, l_weight: int = 16) -> WeightVector:
    """Draw four weights from the stream, ``l_weight`` bits each, in order w1..w4."""
    raw = int_from_bits(ks.bits(4 * l_weight))
    mask = (1 << l_weight) - 1
    return WeightVector(*((raw >> (l_weight * i)) & mask for i in (3, 2, 1, 0)), l_weight=l_weight)


def generated_bleu(scores: BleuScores, w: WeightVector) -> int:
    """Fractional part of the weighted score sum as a raw Q0.32 integer.

    Q0.32 scores times raw weights accumulate exactly; the sum is aligned
    back to Q0.32 and reduced mod 1 by keeping the low 32 bits.
    """
    acc = (
        scores.s1 * w.w1
        + scores.s2 * w.w2
        + scores.s3 * w.w3
        + scores.s4 * w.w4
    )
    return (acc >> w.l_weight) & 0xFFFFFFFF


def generate_skey(scores: BleuScores, w: WeightVector, l_skey: int = DEFAULT_KEY_BITS) -> BitString:
    """Hash the weighted score sum into an ``l_skey``-bit key."""
    gb = generated_bleu(scores, w)
    return skey_hash(gb.to_bytes(4, "big"), l_skey)


@dataclass(eq=False)
class KeyMaterial:
    """The three key strings of one session."""

    plk: BitString
    skey: BitString
    seed_key: BitString = field(init=False)

    def __post_init__(self):
        skey = np.asarray(self.skey, dtype=np.uint8)
        target = len(self.plk)
        if skey.size < target:
            skey = np.concatenate([skey, np.zeros(target - skey.size, dtype=np.uint8)])
        elif skey.size > target:
            skey = skey[:target]
        self.seed_key = xor_bits(skey, np.asarray(self.plk, dtype=np.uint8))


# --- physical-layer key simulation -----------------------------------------

# ChannelTrace's per-field rules (fields.check_fields), the rule kinds of
# ExperimentConfig's probe_coherence and probe_noise_std.
_TRACE_RULES = {"coherence": (int, 1, None), "probe_noise_std": (float, 0, None)}


@dataclass(frozen=True)
class ChannelTrace:
    """A probed channel-gain record.

    ``samples`` holds the underlying gain process; each value is observed
    for ``coherence`` consecutive probes.  Each party sees the probes plus
    its own Gaussian observation noise of std ``probe_noise_std``.  Samples
    must be 1-D and finite, ``coherence`` an int >= 1, the std finite and >= 0.
    """

    samples: np.ndarray
    coherence: int = 1
    probe_noise_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError(f"trace samples must be 1-D and non-empty, not of shape {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise ValueError("trace samples must be finite")
        check_fields(self, _TRACE_RULES)

    def probes(self) -> np.ndarray:
        return self.samples if self.coherence == 1 else np.repeat(self.samples, self.coherence)


def rayleigh_trace(n_probes: int, seed: int, coherence: int = 1, probe_noise_std: float = 0.0) -> ChannelTrace:
    """I.i.d. Rayleigh gain magnitudes, a dynamic-environment trace."""
    _check_count("n_probes", n_probes)
    _check_count("coherence", coherence)
    rng = _rng(seed, 0x7261)
    n_values = -(-n_probes // coherence)
    samples = rng.rayleigh(scale=1.0 / math.sqrt(2.0), size=n_values)
    return ChannelTrace(samples, coherence=coherence, probe_noise_std=probe_noise_std)


def constant_trace(n_probes: int, value: float = 1.0, probe_noise_std: float = 0.0) -> ChannelTrace:
    """A static-environment trace: one gain value held for the whole record."""
    _check_count("n_probes", n_probes)
    return ChannelTrace(np.full(1, value), coherence=n_probes, probe_noise_std=probe_noise_std)


class InsufficientEntropyError(ValueError):
    """Too few agreed bits survived quantization and reconciliation."""

    def __init__(self, entropy_estimate: float, agreed_bits: int):
        super().__init__(
            f"only {agreed_bits} agreed bits before amplification "
            f"(entropy estimate {entropy_estimate:.4f} bits/bit)"
        )
        self.entropy_estimate = entropy_estimate
        self.agreed_bits = agreed_bits


def quantize_samples(samples: np.ndarray, guard_band: float) -> tuple[BitString, np.ndarray]:
    """Guard-band quantization around the sample median.

    Emits 1 above median + guard_band*std, 0 below median - guard_band*std,
    and discards everything in between.  Returns (bits, kept_indices).
    Raises ValueError when the samples are not 1-D or their std is not
    finite, or when ``guard_band`` is negative or NaN.
    """
    if not guard_band >= 0:  # NaN too: it would keep no bit
        raise ValueError("guard_band must be >= 0")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, not of shape {samples.shape}")
    n = samples.size
    with np.errstate(over="ignore", invalid="ignore"):
        # The median as np.median takes it: the middle value, or the mean of
        # the two.  The lower of the two is the largest value left of the pivot.
        half = n // 2
        part = np.partition(samples, half)
        if n % 2:
            median = float(part[half])
        else:
            median = float((part[:half].max() + part[half]) / 2)
        # np.std's own steps, without its Python wrappers: the same doubles.
        dev = samples - np.add.reduce(samples) / n
        dev *= dev
        std = math.sqrt(np.add.reduce(dev) / n)
    if not math.isfinite(std):
        raise ValueError(f"samples have a non-finite std ({std})")
    hi = median + guard_band * std
    lo = median - guard_band * std
    ones = samples > hi
    zeros = samples < lo
    kept = np.flatnonzero(ones | zeros)
    return ones[kept].astype(np.uint8), kept


def empirical_bit_entropy(bits: BitString) -> float:
    """Order-0 Shannon entropy per bit of a 0/1 string (0.0 for empty input)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return 0.0
    p = np.count_nonzero(bits) / bits.size
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _amplify(agreed: BitString, target_bits: int) -> BitString:
    # skey_hash in counter mode over the agreed bits (length-prefixed): whole
    # 256-bit blocks, cut once to target_bits.
    material = struct.pack(">Q", len(agreed)) + bytes_from_bits(agreed)
    blocks = [skey_hash(material + struct.pack(">I", c), 256) for c in range(-(-target_bits // 256))]
    return np.concatenate(blocks)[:target_bits]


def simulate_plk(
    trace: ChannelTrace,
    target_bits: int,
    guard_band: float,
    noise_seed: int = 0,
) -> tuple[BitString, float]:
    """Distill a shared key from reciprocal channel probes.

    Both parties observe the probe sequence plus independent Gaussian
    noise, quantize with a guard band around their own median, keep only
    indices where both emitted a bit, and drop 8-bit blocks whose parity
    disagrees.  With noise-free probes both parties see the same samples
    and share one quantization.  The surviving bits are hashed (counter
    mode) down to exactly ``target_bits``.  Returns (plk, entropy_estimate)
    where the estimate is the empirical per-bit entropy of the
    pre-amplification string.  Raises InsufficientEntropyError when fewer
    than 8 bits agree.
    """
    _check_count("target_bits", target_bits)
    probes = trace.probes()
    obs_a = obs_b = probes
    if trace.probe_noise_std:
        rng_a = _rng(noise_seed, 0xA11CE)
        rng_b = _rng(noise_seed, 0xB0B)
        obs_a = probes + rng_a.normal(0.0, trace.probe_noise_std, size=probes.size)
        obs_b = probes + rng_b.normal(0.0, trace.probe_noise_std, size=probes.size)

    bits_a, kept_a = quantize_samples(obs_a, guard_band)
    if obs_b is obs_a:
        # Both parties hold the same bits, so every block's parities agree.
        agreed = bits_a[: 8 * (bits_a.size // 8)]
    else:
        bits_b, kept_b = quantize_samples(obs_b, guard_band)
        # Keep the bits at indices both parties kept, in index order.
        in_a = np.zeros(probes.size, dtype=bool)
        in_b = np.zeros(probes.size, dtype=bool)
        in_a[kept_a] = True
        in_b[kept_b] = True
        a = bits_a[in_b[kept_a]]
        b = bits_b[in_a[kept_b]]

        # Parity reconciliation: compare 8-bit block parities, discard
        # disagreeing blocks and the ragged tail.
        n_blocks = a.size // 8
        blk_a = a[: n_blocks * 8].reshape(n_blocks, 8)
        blk_b = b[: n_blocks * 8].reshape(n_blocks, 8)
        keep = (blk_a.sum(axis=1) & 1) == (blk_b.sum(axis=1) & 1)
        agreed = blk_a[keep].ravel()

    entropy = empirical_bit_entropy(agreed)
    if agreed.size < 8:
        raise InsufficientEntropyError(entropy, int(agreed.size))
    return _amplify(agreed, target_bits), entropy
