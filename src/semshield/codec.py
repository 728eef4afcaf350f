"""Deterministic token codec and n-gram similarity scoring.

A sentence is a sequence of integer token ids.  The codec serializes
tokens to bits and, on decode, substitutes each token independently with
probability ``deviation_rate``, a controllable stand-in for the
prediction deviations of a learned encoder/decoder pair.  ``decode`` is
bits to tokens followed by ``_substitute``, the one substitution draw,
which a caller that holds the tokens (the key ceremony) applies to them
directly instead of encoding and decoding them.  Sentence
similarity is measured by clipped n-gram precision scores (orders 1-4)
with a brevity penalty, quantized to 32 fractional bits so downstream
key derivation is bit-exact.  ``bleu_scores_many`` is the one scorer: it
counts the n-grams of many (reference, hypothesis) pairs in one pass of
array operations, and ``bleu_scores`` is its one-pair form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bit_array, _rng
from .fields import check_fields, is_int

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


class InvalidTokenError(ValueError):
    """A token id is outside the codec vocabulary."""


_CODEC_RULES = {
    # generate_dummy_bits draws decoy tokens with Keystream.draw_uniform,
    # whose range is at most 2**32.
    "vocab_size": (int, 2, 2**32),
    "token_bits": (int, 1, None),
    "deviation_rate": (float, 0, 1),
    "codec_seed": (int, None, None),
}


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
        # token_bits defaults to the fewest bits that hold every id below
        # vocab_size; a vocab_size that is no integer fails the table instead.
        if self.token_bits is None and is_int(self.vocab_size):
            object.__setattr__(self, "token_bits", (int(self.vocab_size) - 1).bit_length())
        check_fields(self, _CODEC_RULES)
        if self.token_bits < (self.vocab_size - 1).bit_length():
            raise ValueError(f"token_bits={self.token_bits} cannot hold ids below {self.vocab_size}")


def _tokens(seq) -> TokenSequence:
    """``seq`` as an array; InvalidTokenError unless a 1-D bool or integer sequence."""
    tokens = np.asarray(seq)
    if tokens.ndim != 1 or (tokens.size and tokens.dtype.kind not in "biu"):
        raise InvalidTokenError(f"tokens must be a 1-D bool or integer sequence, not {tokens.dtype} of shape {tokens.shape}")
    return tokens


def encode(seq: TokenSequence, model: CodecModel) -> BitString:
    """Serialize token ids to bits, big-endian, ``token_bits`` per token.

    Tokens that are not a 1-D bool or integer sequence (empty for no
    tokens), or ids outside the vocabulary, raise InvalidTokenError.
    """
    tokens = _tokens(seq)
    if tokens.size and (int(tokens.min()) < 0 or int(tokens.max()) >= model.vocab_size):
        raise InvalidTokenError(f"token ids must lie in [0, {model.vocab_size})")
    # Every id fits 32 bits (vocab_size <= 2**32); wider tokens lead with zeros.
    bits = np.unpackbits(tokens.astype(">u4").view(np.uint8)).reshape(-1, 32)
    if model.token_bits > 32:
        bits = np.concatenate([np.zeros((tokens.size, model.token_bits - 32), dtype=np.uint8), bits], axis=1)
    # The last token_bits of each row as one element, copied out in one pass.
    return bits[:, -model.token_bits:].view(np.dtype((np.void, model.token_bits))).ravel().view(np.uint8)


def decode(bits: BitString, model: CodecModel, noise_seed: int) -> TokenSequence:
    """Recover tokens from bits, then apply seeded random substitution.

    Each token is independently replaced with probability
    ``deviation_rate`` by a uniformly random *different* token.  The draw
    sequence is fixed by (codec_seed, noise_seed) and token position, so
    identical inputs always decode identically.

    Bits are decoded along the last axis: a stack of equal-length rows,
    shape ``(rows, n_bits)``, gives ``(rows, n_tokens)`` tokens, and every
    row is decoded with the one draw sequence, exactly as if alone.  Bits
    that are not a bool or integer array of 0s and 1s raise ValueError.
    """
    bits = np.atleast_1d(bits)
    bits = _bit_array(bits.ravel(), "bits").reshape(bits.shape)
    if bits.shape[-1] % model.token_bits:
        raise ValueError(f"bit length {bits.shape[-1]} not divisible by token_bits={model.token_bits}")
    fields = bits.reshape(*bits.shape[:-1], -1, model.token_bits).astype(np.int64)
    weights = 1 << np.arange(model.token_bits - 1, -1, -1, dtype=np.int64)
    return _substitute(fields @ weights, model, noise_seed)


def _substitute(tokens: TokenSequence, model: CodecModel, noise_seed: int) -> TokenSequence:
    """``decode``'s substitution on tokens along the last axis: what
    ``decode(encode(tokens, model), model, noise_seed)`` returns for ids in
    the vocabulary."""
    rng = _rng(model.codec_seed, noise_seed)
    n_tokens = tokens.shape[-1]
    substitute = rng.random(n_tokens) < model.deviation_rate
    # Uniform over the vocab minus the original token.
    draws = rng.integers(0, model.vocab_size - 1, size=n_tokens)
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


def bleu_scores_many(pairs) -> list[BleuScores]:
    """Score each (reference, hypothesis) pair for orders 1-4; the one scorer.

    Each order's score is the clipped n-gram precision times the brevity
    penalty BP = 1 if len(hyp) >= len(ref) else exp(1 - r/c).  An order
    with no hypothesis n-grams, or zero precision, scores 0.

    All pairs are counted together.  Every n-gram gets a dense id that is
    unique within its pair: the order-1 id ranks (pair, token rank), the
    order-n id ranks (order-(n-1) id, next token rank).  Ids stay below the
    square of the token count, so int64 holds them for any call under
    about 3e9 tokens.  Counting the ids on each side, clipping and summing
    per pair gives every clipped count at once.

    A pair that is not exactly one reference and one hypothesis, or a
    sequence that is empty, raises ValueError, and a sequence that is not
    1-D bool or integer InvalidTokenError.
    """
    seqs = [_tokens(s) for ref, hyp in pairs for s in (ref, hyp)]  # ref 0, hyp 0, ref 1, ...
    if not seqs:
        return []
    lengths = np.array([s.size for s in seqs])
    if not lengths.all():
        raise ValueError("sequences must be non-empty")
    n_pairs = lengths.size // 2
    pair, is_hyp = np.divmod(np.repeat(np.arange(lengths.size), lengths), 2)  # per token
    stop = np.repeat(np.cumsum(lengths), lengths)  # end of each token's sequence
    vocab, tok = np.unique(np.concatenate(seqs), return_inverse=True)
    pos = np.arange(tok.size)  # where the n-grams of the current order start
    ids = pair * vocab.size + tok
    clipped = np.zeros((n_pairs, 4), dtype=np.int64)
    for n in range(1, 5):
        if n > 1:
            more = pos + n - 1 < stop[pos]
            pos = pos[more]
            ids = ids[more] * vocab.size + tok[pos + n - 1]
        uniq, ids = np.unique(ids, return_inverse=True)
        hyp_side = is_hyp[pos] == 1
        ref = np.bincount(ids[~hyp_side], minlength=uniq.size)
        hyp = np.bincount(ids[hyp_side], minlength=uniq.size)
        owner = np.empty(uniq.size, dtype=np.int64)
        owner[ids] = pair[pos]
        clipped[:, n - 1] = np.bincount(owner, weights=np.minimum(ref, hyp), minlength=n_pairs)

    out = []
    for (r, c), counts in zip(lengths.reshape(-1, 2).tolist(), clipped.tolist()):
        bp = 1.0 if c >= r else math.exp(1.0 - r / c)
        # A non-zero clipped count means the hypothesis has n-grams of order n.
        out.append(BleuScores(*(quantize_q32(bp * (m / (c - n + 1))) if m else 0
                                for n, m in enumerate(counts, 1))))
    return out


def bleu_scores(reference: TokenSequence, hypothesis: TokenSequence) -> BleuScores:
    """Score ``hypothesis`` against a single ``reference``; see ``bleu_scores_many``."""
    return bleu_scores_many([(reference, hypothesis)])[0]


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
    rng = _rng(seed, 0x5EED)
    lengths = rng.integers(min_len, max_len + 1, size=n_sentences)
    return [rng.integers(0, model.vocab_size, size=int(n)) for n in lengths]

