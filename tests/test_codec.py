import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semshield.codec import (
    Q32_MAX,
    BleuScores,
    CodecModel,
    InvalidTokenError,
    _substitute,
    bleu_scores,
    bleu_scores_many,
    decode,
    encode,
    make_corpus,
    quantize_q32,
)
from semshield.keying import Keystream
from semshield.obfuscation import generate_dummy_bits

from spec import bleu_reference


class TestQuantizeQ32:
    def test_endpoints(self):
        assert quantize_q32(0.0) == 0
        assert quantize_q32(1.0) == Q32_MAX  # saturates instead of overflowing

    def test_midpoint(self):
        assert quantize_q32(0.5) == 1 << 31

    def test_ties_round_away_from_zero(self):
        assert quantize_q32(0.5 / (1 << 32)) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_q32(-0.1)
        with pytest.raises(ValueError):
            quantize_q32(1.1)


class TestModel:
    def test_token_bits_derived_from_vocab(self):
        assert CodecModel(vocab_size=4096).token_bits == 12
        assert CodecModel(vocab_size=16).token_bits == 4
        assert CodecModel(vocab_size=17).token_bits == 5

    def test_token_bits_too_small_rejected(self):
        with pytest.raises(ValueError):
            CodecModel(vocab_size=4096, token_bits=11)

    def test_deviation_rate_range(self):
        with pytest.raises(ValueError):
            CodecModel(deviation_rate=1.5)

    def test_vocab_size_at_most_two_to_the_32(self):
        # Decoy tokens are drawn with Keystream.draw_uniform, whose range is at most 2**32.
        model = CodecModel(vocab_size=2**32)
        assert model.token_bits == 32
        assert generate_dummy_bits(Keystream(bytes(32), "dummy"), np.array([3]), 4, model).size == 12
        with pytest.raises(ValueError, match="vocab_size"):
            CodecModel(vocab_size=2**32 + 1)


class TestEncodeDecode:
    def test_zero_token_is_zero_bits(self):
        model = CodecModel(vocab_size=4096)
        assert encode([0], model).tolist() == [0] * 12

    def test_big_endian_fields(self):
        model = CodecModel(vocab_size=16)
        assert encode([1, 2], model).tolist() == [0, 0, 0, 1, 0, 0, 1, 0]

    def test_token_out_of_vocab(self):
        with pytest.raises(InvalidTokenError):
            encode([16], CodecModel(vocab_size=16))

    def test_round_trip_without_deviation(self):
        model = CodecModel(vocab_size=4096, deviation_rate=0.0)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            seq = rng.integers(0, model.vocab_size, size=int(rng.integers(1, 40)))
            assert np.array_equal(decode(encode(seq, model), model, noise_seed=0), seq)

    def test_zero_deviation_returns_the_framed_tokens(self):
        model = CodecModel(vocab_size=4096, deviation_rate=0.0)
        rows = np.array([[5, 0, 4095], [7, 7, 1]])
        out = decode(np.stack([encode(row, model) for row in rows]), model, noise_seed=3)
        assert out.dtype == np.int64 and out.shape == (2, 3)
        assert np.array_equal(out, rows)
        empty = decode(np.zeros(0, dtype=np.uint8), model, noise_seed=3)
        assert empty.dtype == np.int64 and empty.shape == (0,)

    def test_bad_framing(self):
        with pytest.raises(ValueError):
            decode(np.zeros(13, dtype=np.uint8), CodecModel(vocab_size=4096), noise_seed=0)

    def test_forced_substitution_binary_vocab(self):
        model = CodecModel(vocab_size=2, deviation_rate=1.0)
        out = decode(encode([0, 0, 0], model), model, noise_seed=4)
        assert out.tolist() == [1, 1, 1]

    def test_substitution_rate(self):
        model = CodecModel(vocab_size=4096, deviation_rate=0.1)
        rng = np.random.default_rng(5)
        seq = rng.integers(0, model.vocab_size, size=100_000)
        out = decode(encode(seq, model), model, noise_seed=77)
        fraction = np.mean(out != seq)
        assert 0.094 <= fraction <= 0.106

    def test_decode_deterministic(self):
        model = CodecModel(vocab_size=4096, deviation_rate=0.3)
        bits = encode(np.arange(50), model)
        a = decode(bits, model, noise_seed=9)
        b = decode(bits, model, noise_seed=9)
        assert np.array_equal(a, b)
        c = decode(bits, model, noise_seed=10)
        assert not np.array_equal(a, c)

    def test_ragged_rows_rejected(self):
        model = CodecModel(vocab_size=16)
        with pytest.raises(ValueError):
            decode([[0] * 8, [0] * 4], model, noise_seed=0)
        with pytest.raises(ValueError, match="not divisible"):
            decode(np.zeros((2, 6), dtype=np.uint8), model, noise_seed=0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), deviation_rate=st.sampled_from([0.0, 0.1, 1.0]),
       vocab_size=st.sampled_from([2, 2**32]), noise_seed=st.integers(0, 2**64 - 1))
def test_decode_stack_matches_each_row_alone(data, deviation_rate, vocab_size, noise_seed):
    model = CodecModel(vocab_size=vocab_size, deviation_rate=deviation_rate)
    n = data.draw(st.integers(0, 30))
    sentence = st.lists(st.integers(0, vocab_size - 1), min_size=n, max_size=n)
    rows = [encode(data.draw(sentence), model) for _ in range(2)]
    stacked = decode(np.stack(rows), model, noise_seed)
    assert stacked.shape == (2, n)
    for got, bits in zip(stacked, rows):
        assert np.array_equal(got, decode(bits, model, noise_seed))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), deviation_rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       vocab_size=st.sampled_from([2, 16, 4096, 2**32]), codec_seed=st.integers(-2**70, 2**70),
       noise_seed=st.integers(-2**70, 2**70))
def test_substitute_is_decode_of_encode(data, deviation_rate, vocab_size, codec_seed, noise_seed):
    # The key ceremony substitutes a sentence's tokens directly; it must get
    # what the bits round trip gives.
    model = CodecModel(vocab_size=vocab_size, deviation_rate=deviation_rate, codec_seed=codec_seed)
    tokens = np.array(data.draw(st.lists(st.integers(0, vocab_size - 1), max_size=40)), dtype=np.int64)
    got = _substitute(tokens, model, noise_seed)
    want = decode(encode(tokens, model), model, noise_seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestBleuScores:
    def test_identity_sentence(self):
        seq = [5, 6, 7, 8, 9]
        scores = bleu_scores(seq, seq)
        assert scores.s1 == scores.s2 == scores.s3 == scores.s4 == Q32_MAX

    def test_disjoint_tokens(self):
        scores = bleu_scores([1, 2, 3, 4], [5, 6, 7, 8])
        assert (scores.s1, scores.s2, scores.s3, scores.s4) == (0, 0, 0, 0)

    def test_short_hypothesis_with_brevity_penalty(self):
        # hyp is a 2-token prefix of a 3-token ref: unigram and bigram
        # precision are 1, orders 3 and 4 have no n-grams.
        scores = bleu_scores([10, 11, 12], [10, 11])
        expected = quantize_q32(math.exp(1.0 - 3.0 / 2.0))
        assert scores.s1 == expected
        assert scores.s2 == expected
        assert scores.s3 == 0
        assert scores.s4 == 0

    def test_clipping_caps_repeated_tokens(self):
        # "the the the the" against a reference with two "the"s: p1 = 2/4
        scores = bleu_scores([7, 1, 7, 2], [7, 7, 7, 7])
        assert scores.s1 == quantize_q32(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bleu_scores([], [1])
        with pytest.raises(ValueError):
            bleu_scores([1], [])

    def test_pure_function(self):
        a = bleu_scores([1, 2, 3, 4, 5], [1, 2, 9, 4, 5])
        b = bleu_scores([1, 2, 3, 4, 5], [1, 2, 9, 4, 5])
        assert a == b

    def test_range_validation(self):
        with pytest.raises(ValueError):
            BleuScores(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            BleuScores(1 << 32, 0, 0, 0)


class TestCorpus:
    def test_deterministic(self, tmp_path):
        model = CodecModel()
        a = make_corpus(20, model, seed=3)
        b = make_corpus(20, model, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_lengths_within_bounds(self):
        corpus = make_corpus(200, CodecModel(), seed=4, min_len=4, max_len=30)
        assert all(4 <= len(s) <= 30 for s in corpus)


# A four-token vocabulary, so n-grams repeat within and across sentences.
_SMALL_VOCAB_SENTENCE = st.lists(st.integers(0, 3), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(reference=_SMALL_VOCAB_SENTENCE, hypothesis=_SMALL_VOCAB_SENTENCE)
def test_bleu_scores_match_reference(reference, hypothesis):
    assert bleu_scores(np.array(reference), np.array(hypothesis)) == \
        bleu_reference(reference, hypothesis)


# Tokens from {0..3}, so n-grams repeat within and across pairs, or from the
# top of a 2**32 vocabulary, where n-gram ids grow largest; lengths from 1 to
# 40, so some hypotheses are shorter than the order.
_WIDE_SENTENCE = st.lists(st.one_of(st.integers(0, 3), st.integers(2**32 - 4, 2**32 - 1)),
                          min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(_SMALL_VOCAB_SENTENCE | _WIDE_SENTENCE, _WIDE_SENTENCE), max_size=30))
def test_bleu_scores_many_match_reference(pairs):
    assert bleu_scores_many([(np.array(r), np.array(h)) for r, h in pairs]) == \
        [bleu_reference(r, h) for r, h in pairs]


def test_bleu_scores_many_empty_input():
    assert bleu_scores_many([]) == []
    for pairs in ([([], [1])], [([1, 2], [1]), ([3], [])]):
        with pytest.raises(ValueError, match="non-empty"):
            bleu_scores_many(pairs)


# SHA-256 over the raw scores of 200 decoded sentences of a 16-token
# vocabulary against their references; see test_bleu_scores_pinned.
BLEU_SCORES_SHA256 = "83642f5db98431da7a02a768f457abfe681def285cde582cef00cd6714aa4fc1"


def test_bleu_scores_pinned():
    model = CodecModel(vocab_size=16, deviation_rate=0.3)
    h = hashlib.sha256()
    for i, sentence in enumerate(make_corpus(200, model, seed=11, min_len=1, max_len=30)):
        # Every third hypothesis is cut short so the brevity penalty applies.
        hyp = decode(encode(sentence, model), model, noise_seed=i)[:max(1, len(sentence) - i % 3)]
        s = bleu_scores(sentence, hyp)
        h.update(struct.pack(">4I", s.s1, s.s2, s.s3, s.s4))
    assert h.hexdigest() == BLEU_SCORES_SHA256
