"""Deterministic token codec and n-gram similarity scoring.

A sentence is a sequence of integer token ids.  The codec serializes
tokens to bits and, on decode, substitutes each token independently with
probability ``deviation_rate``, a controllable stand-in for the
prediction deviations of a learned encoder/decoder pair.  Sentence
similarity is measured by clipped n-gram precision scores (orders 1-4)
with a brevity penalty, quantized to 32 fractional bits so downstream
key derivation is bit-exact.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .bits import BitString

TokenSequence = np.ndarray

Q32_ONE = 1 << 32
Q32_MAX = Q32_ONE - 1  # saturated fixed-point encoding of 1.0


def quantize_q32(x: float) -> int:
    """Quantize ``x`` in [0, 1] to Q0.32, round-to-nearest ties away from zero.

    Exact 1.0 saturates to ``Q32_MAX``.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"value {x} outside [0, 1]")
    return min(int(math.floor(x * Q32_ONE + 0.5)), Q32_MAX)


def _check_types(obj, ints=(), reals=(), error=ValueError) -> None:
    """Raise ``error`` unless the ``ints`` fields of ``obj`` are ints and its
    ``reals`` fields ints or floats of finite float value; a bool is neither."""
    for name in ints:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{name} must be an integer, not {value!r}")
    for name in reals:
        value = getattr(obj, name)
        # Also false for NaN, and for an int too large to convert to a float.
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= float_info.max:
            raise error(f"{name} must be a finite number, not {value!r}")


class InvalidTokenError(ValueError):
    """A token id is outside the codec vocabulary."""


@dataclass(frozen=True)
class CodecModel:
    """Configuration of the deterministic token codec.

    ``token_bits`` defaults to ceil(log2(vocab_size)).  ``deviation_rate``
    is the per-token substitution probability applied on decode.
    """

    vocab_size: int = 4096
    token_bits: int | None = None
    deviation_rate: float = 0.1
    codec_seed: int = 0

    def __post_init__(self):
        _check_types(self, ints=("vocab_size", "codec_seed"), reals=("deviation_rate",))
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if not 0.0 <= self.deviation_rate <= 1.0:
            raise ValueError("deviation_rate must lie in [0, 1]")
        min_bits = max(1, (self.vocab_size - 1).bit_length())
        if self.token_bits is None:
            object.__setattr__(self, "token_bits", min_bits)
        _check_types(self, ints=("token_bits",))
        if self.token_bits < min_bits:
            raise ValueError(f"token_bits={self.token_bits} cannot hold ids below {self.vocab_size}")


def encode(seq: TokenSequence, model: CodecModel) -> BitString:
    """Serialize token ids to bits, big-endian, ``token_bits`` per token."""
    tokens = np.asarray(seq, dtype=np.int64)
    if tokens.size and (int(tokens.min()) < 0 or int(tokens.max()) >= model.vocab_size):
        raise InvalidTokenError(f"token ids must lie in [0, {model.vocab_size})")
    shifts = np.arange(model.token_bits - 1, -1, -1)
    return ((tokens[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def decode(bits: BitString, model: CodecModel, noise_seed: int) -> TokenSequence:
    """Recover tokens from bits, then apply seeded random substitution.

    Each token is independently replaced with probability
    ``deviation_rate`` by a uniformly random *different* token.  The draw
    sequence is fixed by (codec_seed, noise_seed) and token position, so
    identical inputs always decode identically.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % model.token_bits:
        raise ValueError(f"bit length {bits.size} not divisible by token_bits={model.token_bits}")
    fields = bits.reshape(-1, model.token_bits).astype(np.int64)
    weights = 1 << np.arange(model.token_bits - 1, -1, -1, dtype=np.int64)
    tokens = fields @ weights
    if model.deviation_rate == 0.0 or tokens.size == 0:
        return tokens
    rng = np.random.default_rng([model.codec_seed & 0xFFFFFFFFFFFFFFFF, noise_seed & 0xFFFFFFFFFFFFFFFF])
    substitute = rng.random(tokens.size) < model.deviation_rate
    # Uniform over the vocab minus the original token.
    draws = rng.integers(0, model.vocab_size - 1, size=tokens.size)
    replacements = draws + (draws >= tokens)
    return np.where(substitute, replacements, tokens)


@dataclass(frozen=True)
class BleuScores:
    """Per-order similarity scores, stored as raw Q0.32 integers."""

    s1: int
    s2: int
    s3: int
    s4: int

    def __post_init__(self):
        for value in (self.s1, self.s2, self.s3, self.s4):
            if not 0 <= value <= Q32_MAX:
                raise ValueError(f"score {value} outside Q0.32 range")

    def as_floats(self) -> tuple[float, float, float, float]:
        return tuple(v / Q32_ONE for v in (self.s1, self.s2, self.s3, self.s4))


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _clipped_precision(hypothesis: list, reference: list, n: int) -> float:
    counts = _ngrams(hypothesis, n)
    if not counts:
        return 0.0
    ref_counts = _ngrams(reference, n)
    clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
    return clipped / (len(hypothesis) - n + 1)


def bleu_scores(reference: TokenSequence, hypothesis: TokenSequence) -> BleuScores:
    """Score ``hypothesis`` against a single ``reference`` for orders 1-4.

    Each order's score is the clipped n-gram precision times the brevity
    penalty BP = 1 if len(hyp) >= len(ref) else exp(1 - r/c).  An order
    with no hypothesis n-grams, or zero precision, scores 0.
    """
    ref = list(np.asarray(reference).tolist())
    hyp = list(np.asarray(hypothesis).tolist())
    if not ref or not hyp:
        raise ValueError("sequences must be non-empty")
    c, r = len(hyp), len(ref)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    raw = []
    for n in range(1, 5):
        p = _clipped_precision(hyp, ref, n)
        raw.append(quantize_q32(bp * p) if p > 0.0 else 0)
    return BleuScores(*raw)


def make_corpus(
    n_sentences: int,
    model: CodecModel,
    seed: int,
    min_len: int = 4,
    max_len: int = 30,
) -> list[TokenSequence]:
    """Deterministically generate a corpus of random sentences."""
    if min_len < 1 or max_len < min_len:
        raise ValueError("need 1 <= min_len <= max_len")
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x5EED])
    lengths = rng.integers(min_len, max_len + 1, size=n_sentences)
    return [rng.integers(0, model.vocab_size, size=int(n)) for n in lengths]

