import hashlib
import math
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semshield.bits import bits_from_bytes, bytes_from_bits, hex_from_bits, int_from_bits, xor_bits
from semshield.codec import BleuScores, quantize_q32
from semshield import keying
from semshield.keying import (
    ChannelTrace,
    InsufficientEntropyError,
    KeyMaterial,
    Keystream,
    WeightVector,
    chacha20_stream,
    constant_trace,
    empirical_bit_entropy,
    expand_seed,
    generate_skey,
    generated_bleu,
    label_nonce,
    quantize_samples,
    rayleigh_trace,
    simulate_plk,
    skey_hash,
    weight_generator,
)

from spec import RawReader, plk_reference

DATA_DIR = Path(__file__).parent / "data"

# Stream-cipher keystream for the all-zero 256-bit key and all-zero 96-bit
# nonce, first two 64-byte blocks (counter 0 and 1).  Published reference
# vectors for this cipher.
ZERO_KEYSTREAM_BLOCK0 = bytes.fromhex(
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
    "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
)
ZERO_KEYSTREAM_BLOCK1 = bytes.fromhex(
    "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
    "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
)


class TestRawStreamCipher:
    def test_zero_key_block0(self):
        assert chacha20_stream(bytes(32), bytes(12), 0, 64) == ZERO_KEYSTREAM_BLOCK0

    def test_zero_key_block1(self):
        assert chacha20_stream(bytes(32), bytes(12), 1, 64) == ZERO_KEYSTREAM_BLOCK1

    def test_counter_advances_through_blocks(self):
        two = chacha20_stream(bytes(32), bytes(12), 0, 128)
        assert two == ZERO_KEYSTREAM_BLOCK0 + ZERO_KEYSTREAM_BLOCK1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            chacha20_stream(bytes(31), bytes(12), 0, 8)
        with pytest.raises(ValueError):
            chacha20_stream(bytes(32), bytes(11), 0, 8)
        with pytest.raises(ValueError):
            chacha20_stream(bytes(32), bytes(12), 1 << 32, 8)


class TestKeystream:
    def test_nonce_override_reproduces_reference_vector(self):
        with mock.patch.object(keying, "label_nonce", lambda label: bytes(12)):
            ks = Keystream(bytes(32), b"anything")
        assert bytes_from_bits(ks.bits(512)) == ZERO_KEYSTREAM_BLOCK0

    def test_label_nonce_is_hash_prefix(self):
        assert label_nonce(b"xor") == hashlib.sha256(b"xor").digest()[:12]

    def test_two_instances_agree(self):
        a = Keystream(bytes(32), "xor")
        b = Keystream(bytes(32), "xor")
        assert np.array_equal(a.bits(1024), b.bits(1024))

    def test_zero_read_keeps_position(self):
        ks = Keystream(bytes(32), "xor")
        out = ks.bits(0)
        assert out.size == 0 and ks.position == 0
        assert np.array_equal(ks.bits(16), Keystream(bytes(32), "xor").bits(16))

    def test_split_reads_match_one_shot(self):
        a = Keystream(bytes(32), "pad")
        b = Keystream(bytes(32), "pad")
        chunks = np.concatenate([a.bits(7), a.bits(500), a.bits(93)])
        assert np.array_equal(chunks, b.bits(600))

    def test_bits_after_the_first_block_are_cipher_block_1(self):
        # reading on from 512 bits in = reading the second cipher block
        ks = Keystream(bytes(32), "xor")
        ks.bits(512)
        nonce = label_nonce(b"xor")
        expected = chacha20_stream(bytes(32), nonce, 1, 64)
        assert bytes_from_bits(ks.bits(512)) == expected

    def test_bits_are_msb_first(self):
        ks = Keystream(bytes(32), "xor")
        nonce = label_nonce(b"xor")
        first_byte = chacha20_stream(bytes(32), nonce, 0, 1)[0]
        got = ks.bits(8)
        assert int_from_bits(got) == first_byte
        assert int_from_bits(got[:3]) == first_byte >> 5
        assert int_from_bits(got[:0]) == 0

    def test_distinct_labels_disagree(self):
        labels = ["xor", "dummy", "pad", "weights", "skey-transport"]
        streams = {lab: Keystream(bytes(32), lab).bits(128) for lab in labels}
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                assert not np.array_equal(streams[a], streams[b])

    def test_from_seed_bits_hashes_short_seeds(self):
        seed_bits = np.zeros(128, dtype=np.uint8)
        ks = Keystream.from_seed_bits(seed_bits, "xor")
        expected_key = hashlib.sha256(bytes(16)).digest()
        direct = Keystream(expected_key, "xor")
        assert np.array_equal(ks.bits(64), direct.bits(64))

    def test_ragged_seed_rejected(self):
        # 127 bits and the same bits plus a 0 would pack to the same bytes
        seed = np.random.default_rng(4).integers(0, 2, 128).astype(np.uint8)
        seed[-1] = 0
        for bad in (seed[:127], seed[:1], np.ones(255, dtype=np.uint8)):
            with pytest.raises(ValueError):
                expand_seed(bad)
            with pytest.raises(ValueError):
                Keystream.from_seed_bits(bad, "xor")
        assert expand_seed(seed) == hashlib.sha256(bytes_from_bits(seed)).digest()

    # A 2 or a -1 used to pack like a 1 and a 0.5 like a 0, so each of these
    # named the key of the all-one or all-zero seed.
    @pytest.mark.parametrize("bad", [
        np.full(128, 2), -np.ones(128, dtype=np.int64), np.full(128, 0.5), np.ones(128),
        np.array(["1"] * 128), np.array([1] * 127 + [None]), np.full(128, 256, dtype=np.uint16),
    ], ids=["two", "minus_one", "half", "float_ones", "strings", "objects", "uint16_256"])
    def test_non_bit_seed_rejected(self, bad):
        with pytest.raises(ValueError, match="seed must be a bool or integer array of 0s and 1s"):
            expand_seed(bad)
        with pytest.raises(ValueError, match="seed must be"):
            Keystream.from_seed_bits(bad, "xor")

    def test_bool_and_integer_seeds_name_the_same_key(self):
        seed = np.random.default_rng(5).integers(0, 2, 128).astype(np.uint8)
        key = expand_seed(seed)
        for same in (seed.astype(bool), seed.astype(np.int64), seed.astype(np.uint32), seed.tolist()):
            assert expand_seed(same) == key
        assert expand_seed(np.zeros(0, dtype=np.uint8)) == hashlib.sha256(b"").digest()

    def test_expand_seed_passthrough_at_256(self):
        bits = bits_from_bytes(bytes(range(32)))
        assert expand_seed(bits) == bytes(range(32))

    def test_golden_fixture_file(self):
        for line in (DATA_DIR / "keystream_golden.txt").read_text().splitlines():
            label, seed_hex, stream_hex = [part.strip() for part in line.split(",")]
            ks = Keystream(bytes.fromhex(seed_hex), label)
            assert bytes_from_bits(ks.bits(512)).hex() == stream_hex, label

    def test_mutating_returned_bits_leaves_the_stream_alone(self):
        ks = Keystream(bytes(32), "xor")
        twin = Keystream(bytes(32), "xor")
        ks.bits(3)
        twin.bits(3)
        for n in (13, 600, 40_000):
            out = ks.bits(n)
            expected = twin.bits(n)
            assert np.array_equal(out, expected)
            out ^= 1
            assert ks.draw_uniform(1 << 32) == twin.draw_uniform(1 << 32)
        assert np.array_equal(ks.bits(1000), twin.bits(1000))


class TestDrawUniform:
    def test_single_outcome_consumes_one_word(self):
        ks = Keystream(bytes(32), "xor")
        assert ks.draw_uniform(1) == 0
        assert ks.position == 32

    def test_full_range_returns_raw_word(self):
        ks = Keystream(bytes(32), "xor")
        word = int_from_bits(Keystream(bytes(32), "xor").bits(32))
        assert ks.draw_uniform(1 << 32) == word

    def test_out_of_range_m(self):
        ks = Keystream(bytes(32), "xor")
        with pytest.raises(ValueError):
            ks.draw_uniform(0)
        with pytest.raises(ValueError):
            ks.draw_uniform((1 << 32) + 1)

    def test_empty_batch_reads_nothing_and_a_negative_one_raises(self):
        ks = Keystream(bytes(32), "xor")
        ks.bits(5)
        assert ks.draw_uniform(10, 0) == []
        assert ks.position == 5
        with pytest.raises(ValueError):
            ks.draw_uniform(10, -1)

    # 2.5 and 7.0 used to draw from [0, 2.5) and [0, 7.0) and return floats,
    # a True count to read one bit or draw once, and a float bit or draw
    # count to end in cryptography's TypeError.
    @pytest.mark.parametrize("name, read", [
        ("m", lambda ks: ks.draw_uniform(2.5, 3)),
        ("m", lambda ks: ks.draw_uniform(np.float64(7.0), 2)),
        ("m", lambda ks: ks.draw_uniform(True)),
        ("n", lambda ks: ks.draw_uniform(10, 2.0)),
        ("n", lambda ks: ks.draw_uniform(10, True)),
        ("nbits", lambda ks: ks.bits(True)),
        ("nbits", lambda ks: ks.bits(np.True_)),
        ("nbits", lambda ks: ks.bits(2.5)),
    ], ids=["float_m", "numpy_float_m", "bool_m", "float_n", "bool_n", "bool_nbits", "numpy_bool_nbits",
            "float_nbits"])
    def test_counts_must_be_integers(self, name, read):
        ks = Keystream(bytes(32), "xor")
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            read(ks)
        assert ks.position == 0

    def test_numpy_int_counts_read_like_python_ints(self):
        # A uint8 m used to overflow in the rejection limit.
        ks, twin = Keystream(bytes(32), "xor"), Keystream(bytes(32), "xor")
        ks.bits(200)
        twin.bits(200)
        assert np.array_equal(ks.bits(np.int8(100)), twin.bits(100))
        assert ks.draw_uniform(np.uint8(200), np.int16(3)) == twin.draw_uniform(200, 3)
        assert ks.position == twin.position and type(ks.position) is int

    def test_residue_frequencies_uniform(self):
        ks = Keystream(bytes(32), "draws")
        counts = np.zeros(10, dtype=np.int64)
        n = 100_000
        for _ in range(n):
            counts[ks.draw_uniform(10)] += 1
        sigma = np.sqrt(n * 0.1 * 0.9)
        assert np.all(np.abs(counts - n / 10) <= 3 * sigma)


class TestKeystreamGeneration:
    """Which cipher blocks a stream generates, counted at chacha20_stream."""

    @pytest.fixture
    def generated(self, monkeypatch):
        calls = []  # (block counter, bytes) of each generation

        def counting(key, nonce, counter, nbytes):
            calls.append((counter, nbytes))
            return chacha20_stream(key, nonce, counter, nbytes)

        monkeypatch.setattr(keying, "chacha20_stream", counting)
        return calls

    def test_short_read_generates_one_block(self, generated):
        Keystream(bytes(32), "weights").bits(64)
        assert generated == [(0, 64)]

    def test_every_read_generates_exactly_its_covering_blocks(self, generated):
        ks = Keystream(bytes(32), "xor")
        ks.bits(3)
        ks.bits(500)
        ks.bits(9)  # ends on the block boundary
        ks.bits(0)
        assert generated == [(0, 64), (0, 64), (0, 64)]
        assert ks.draw_uniform(1 << 32) == int_from_bits(
            bits_from_bytes(chacha20_stream(bytes(32), label_nonce(b"xor"), 1, 4)))
        assert generated == [(0, 64), (0, 64), (0, 64), (1, 64)]

    @pytest.mark.parametrize("position", [0, 3, 512, 1003])
    def test_empty_read_generates_nothing(self, generated, position):
        ks = Keystream(bytes(32), "xor")
        ks.bits(position)
        generated.clear()
        out = ks.bits(0)
        assert generated == []
        assert out.size == 0 and out.dtype == np.uint8 and ks.position == position

    @pytest.mark.parametrize("first,n,call", [
        (3, 1000, (0, 128)),       # ends in block 1, starts again at block 0
        (512, 1, (1, 64)),         # starts on a block boundary
        (1003, 600, (1, 192)),     # blocks 1 to 3
        (1003, 70_001, (1, 8832)),  # blocks 1 to 138
    ])
    def test_read_past_the_kept_blocks_generates_exactly_the_covering_blocks(self, generated, first, n, call):
        ks = Keystream(bytes(32), "xor")
        ks.bits(first)
        generated.clear()
        out = ks.bits(n)
        assert generated == [call]
        raw = bits_from_bytes(chacha20_stream(bytes(32), label_nonce(b"xor"), *call))
        offset = first - 512 * call[0]
        assert np.array_equal(out, raw[offset:offset + n])

    def test_long_stream_read_in_small_pieces(self, generated):
        # 1 Mbit in 1000-bit reads: each read runs past the blocks of the
        # one before, so each makes one call.
        ks = Keystream(bytes(32), "xor")
        ks.bits(3)
        reads = [ks.bits(1000) for _ in range(1000)]
        assert len(generated) == 1 + len(reads)
        ref = Keystream(bytes(32), "xor")
        ref.bits(3)
        assert np.array_equal(np.concatenate(reads), ref.bits(1000 * len(reads)))


# m = 2^31 + 1 rejects about half of all words; m = 1 and m = 2^32 reject none.
_DRAW_M = st.one_of(st.sampled_from([1, 2, 3, 10, 1 << 31, (1 << 31) + 1, 1 << 32]),
                    st.integers(1, 1 << 32))
_STREAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("bits"), st.one_of(st.integers(0, 70), st.integers(0, 40_000))),
    st.tuples(st.just("draw"), _DRAW_M, st.integers(1, 1200)),
    st.tuples(st.just("draws"), _DRAW_M, st.integers(0, 1200)),
), min_size=1, max_size=10)


@settings(max_examples=80, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), label=st.sampled_from(["xor", "dummy", "pad"]),
       position=st.one_of(st.integers(0, 100), st.integers(0, 70_000)), ops=_STREAM_OPS)
# From an odd offset: 1100 single full-range draws cross 69 cipher blocks,
# then a bit read and more draws read on from position.
@example(seed=bytes(32), label="xor", position=3,
         ops=[("draw", 1 << 32, 1100), ("bits", 5), ("draw", (1 << 31) + 1, 1200),
              ("bits", 40_000), ("draw", 1, 3)])
# From odd positions, reads that end inside the last read's cipher blocks
# and reads that cross past them, by one block and by many.
@example(seed=bytes(32), label="xor", position=517,
         ops=[("bits", 3), ("bits", 600), ("draw", 1 << 32, 40), ("bits", 2100),
              ("draws", 641, 300), ("bits", 9000)])
@example(seed=bytes(32), label="pad", position=1031,
         ops=[("bits", 63)] * 9 + [("draw", 5, 30), ("bits", 1500), ("draws", 3, 100)])
# Reads on from inside the first cipher block, by whole bytes and not.
@example(seed=bytes(32), label="pad", position=8, ops=[("bits", 5), ("draw", 10, 20), ("bits", 9)])
@example(seed=bytes(32), label="pad", position=19, ops=[("draw", 3, 40), ("bits", 70)])
# One bit read across more than 136 cipher blocks, from an odd offset, after
# single draws.
@example(seed=bytes(32), label="dummy", position=77,
         ops=[("draw", 10, 5), ("bits", 70_001), ("draw", 1 << 32, 3)])
# Empty reads at an odd position, before and between other reads.
@example(seed=bytes(32), label="xor", position=1001,
         ops=[("bits", 0), ("draw", 7, 2), ("bits", 0), ("bits", 11), ("draw", 7, 2)])
# Batched draws: the full range, where the limit is 2**32 itself; a range
# that rejects about half of all words, so one batch takes several rounds;
# an empty batch, which reads nothing; and a batch after single draws and a
# bit read that leave the position odd.
@example(seed=bytes(32), label="xor", position=0, ops=[("draws", 1 << 32, 700), ("draws", 1 << 32, 1)])
@example(seed=bytes(32), label="dummy", position=5,
         ops=[("draws", (1 << 31) + 1, 1200), ("bits", 3), ("draws", (1 << 31) + 1, 1)])
@example(seed=bytes(32), label="pad", position=9, ops=[("draws", 10, 0), ("bits", 1), ("draws", 1, 0)])
@example(seed=bytes(32), label="xor", position=2,
         ops=[("draw", 3, 4), ("bits", 13), ("draws", 641, 900), ("draw", 641, 2)])
def test_interleaved_reads_follow_the_raw_stream(seed, label, position, ops):
    # Each stream reads and discards its first ``position`` bits.
    ks = Keystream(seed, label)
    ref = RawReader(seed, label)
    ks.bits(position)
    ref.bits(position)
    for op in ops:
        if op[0] == "bits":
            assert np.array_equal(ks.bits(op[1]), ref.bits(op[1]))
        elif op[0] == "draw":
            _, m, count = op
            assert [ks.draw_uniform(m) for _ in range(count)] == \
                [ref.draw_uniform(m) for _ in range(count)]
        else:
            _, m, count = op
            assert ks.draw_uniform(m, count) == [ref.draw_uniform(m) for _ in range(count)]
        assert ks.position == ref.position


class _StubStream:
    """Duck-typed stand-in feeding a fixed bit pattern to weight drawing."""

    def __init__(self, bits):
        self._bits = np.asarray(bits, dtype=np.uint8)
        self._pos = 0

    def bits(self, nbits):
        out = self._bits[self._pos:self._pos + nbits]
        self._pos += nbits
        return out


class TestWeights:
    def test_all_zero_stream_gives_zero_weights(self):
        w = weight_generator(_StubStream(np.zeros(64, dtype=np.uint8)))
        assert (w.w1, w.w2, w.w3, w.w4) == (0, 0, 0, 0)

    def test_msb_pattern_is_half(self):
        pattern = np.zeros(64, dtype=np.uint8)
        pattern[0] = 1  # w1 = 0x8000
        w = weight_generator(_StubStream(pattern))
        assert (w.w1, w.w2, w.w3, w.w4) == (0x8000, 0, 0, 0)

    def test_golden_zero_seed_weights(self):
        ks = Keystream.from_seed_bits(np.zeros(128, dtype=np.uint8), "weights")
        w = weight_generator(ks)
        assert (w.w1, w.w2, w.w3, w.w4) == (10206, 10967, 10995, 31988)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            WeightVector(1 << 16, 0, 0, 0)


class TestGeneratedBleuAndSkey:
    def test_zero_scores_any_weights(self):
        scores = BleuScores(0, 0, 0, 0)
        w = WeightVector(1, 2, 3, 4)
        assert generated_bleu(scores, w) == 0

    def test_saturated_scores_zero_weights(self):
        one = quantize_q32(1.0)
        scores = BleuScores(one, one, one, one)
        assert generated_bleu(scores, WeightVector(0, 0, 0, 0)) == 0

    def test_exact_wraparound(self):
        half_score = quantize_q32(0.5)
        half_weight = 1 << 15
        scores = BleuScores(*([half_score] * 4))
        w = WeightVector(*([half_weight] * 4))
        assert generated_bleu(scores, w) == 0  # sum is exactly 1.0 -> wraps

    def test_zero_sum_skey_digest(self):
        skey = generate_skey(BleuScores(0, 0, 0, 0), WeightVector(0, 0, 0, 0))
        assert hex_from_bits(skey) == hashlib.sha256(bytes(4)).hexdigest()[:32]
        assert skey.size == 128

    def test_high_score_bit_flip_changes_sum(self):
        # flips below the truncation width can vanish; a high bit cannot
        base = BleuScores(12345, 678, 90, 4000)
        w = WeightVector(3, 5, 7, 11)
        flipped = BleuScores(12345 ^ (1 << 24), 678, 90, 4000)
        assert generated_bleu(base, w) != generated_bleu(flipped, w)

    def test_bits_from_bytes_rejects_a_negative_count(self):
        # -1 used to slice off the last bit and return 7.
        with pytest.raises(ValueError, match=">= 0"):
            bits_from_bytes(b"\xff", -1)
        assert bits_from_bytes(b"\xff", 0).size == 0

    # True used to hash to 1 bit, and 2.5 or 3.0 to end in a slice TypeError.
    @pytest.mark.parametrize("call", [lambda n: skey_hash(b"x", n), lambda n: bits_from_bytes(b"ab", n)],
                             ids=["skey_hash", "bits_from_bytes"])
    def test_bit_counts_must_be_integers(self, call):
        assert np.array_equal(call(np.int64(3)), call(3))
        for bad in (True, np.True_, 2.5, 3.0):
            with pytest.raises(ValueError, match="^nbits must be an integer, not "):
                call(bad)
        with pytest.raises(ValueError, match="^requested 17 bits from 16-bit buffer$"):
            bits_from_bytes(b"ab", np.int64(17))

    def test_skey_hash_range(self):
        with pytest.raises(ValueError):
            skey_hash(b"x", 0)
        with pytest.raises(ValueError):
            skey_hash(b"x", 257)


class TestSeedKey:
    def test_xor_properties(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, 128).astype(np.uint8)
        b = rng.integers(0, 2, 128).astype(np.uint8)
        assert np.array_equal(KeyMaterial(a, a).seed_key, np.zeros(128, dtype=np.uint8))
        assert np.array_equal(KeyMaterial(np.zeros(128, dtype=np.uint8), a).seed_key, a)
        assert np.array_equal(KeyMaterial(b, KeyMaterial(b, a).seed_key).seed_key, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bits(np.zeros(128, dtype=np.uint8), np.zeros(64, dtype=np.uint8))

    def test_key_material_pads_short_skey(self):
        plk = np.ones(128, dtype=np.uint8)
        skey = np.ones(64, dtype=np.uint8)
        km = KeyMaterial(plk, skey)
        assert km.seed_key.size == 128
        assert np.array_equal(km.seed_key[:64], np.zeros(64, dtype=np.uint8))
        assert np.array_equal(km.seed_key[64:], np.ones(64, dtype=np.uint8))

    def test_key_material_truncates_long_skey(self):
        plk = np.zeros(64, dtype=np.uint8)
        skey = np.ones(128, dtype=np.uint8)
        km = KeyMaterial(plk, skey)
        assert km.seed_key.size == 64
        assert np.all(km.seed_key == 1)


class TestPlkSimulation:
    def test_constant_trace_collapses(self):
        with pytest.raises(InsufficientEntropyError) as exc:
            simulate_plk(constant_trace(1000), 128, 0.2)
        assert exc.value.entropy_estimate == 0.0

    def test_alternating_trace_quantizes_cleanly(self):
        samples = np.array([5.0, 1.0] * 8)
        bits, kept = quantize_samples(samples, 0.1)
        assert bits.tolist() == [1, 0] * 8
        assert np.array_equal(kept, np.arange(16))

    def test_rayleigh_trace_entropy(self):
        plk, entropy = simulate_plk(rayleigh_trace(10_000, seed=5), 128, 0.0)
        assert entropy >= 0.95
        assert plk.size == 128

    def test_exact_target_length(self):
        for target in (1, 8, 100, 256, 300):
            plk, _ = simulate_plk(rayleigh_trace(4096, seed=1), target, 0.1)
            assert plk.size == target

    def test_deterministic(self):
        trace = rayleigh_trace(4096, seed=9, probe_noise_std=0.05)
        a, ea = simulate_plk(trace, 128, 0.3, noise_seed=4)
        b, eb = simulate_plk(trace, 128, 0.3, noise_seed=4)
        assert np.array_equal(a, b) and ea == eb

    def test_guard_band_discards_midrange(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(0, 1, 1000)
        bits_narrow, kept_narrow = quantize_samples(samples, 0.1)
        bits_wide, kept_wide = quantize_samples(samples, 1.0)
        assert kept_wide.size < kept_narrow.size

    def test_entropy_helper(self):
        assert empirical_bit_entropy(np.zeros(0, dtype=np.uint8)) == 0.0
        assert empirical_bit_entropy(np.ones(16, dtype=np.uint8)) == 0.0
        assert empirical_bit_entropy(np.array([0, 1] * 8, dtype=np.uint8)) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_trace_rejects_non_finite_samples(self, bad):
        # A NaN trace used to quantize to nothing and key the frame with the all-zero PLK.
        samples = np.ones(16)
        samples[5] = bad
        with pytest.raises(ValueError, match="finite"):
            ChannelTrace(samples)

    # At coherence 1 a (64, 64) trace used to end in numpy's "kth(=2048) out
    # of bounds (64)"; at 2 it was flattened into 8,192 probes and keyed a PLK.
    @pytest.mark.parametrize("coherence", [1, 2])
    def test_trace_samples_must_be_1d(self, coherence):
        samples = np.random.default_rng(0).rayleigh(size=(64, 64))
        with pytest.raises(ValueError, match="1-D"):
            simulate_plk(ChannelTrace(samples, coherence=coherence), 128, 0.2)

    def test_quantized_samples_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            quantize_samples(np.random.default_rng(0).rayleigh(size=(64, 64)), 0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_trace_rejects_non_finite_noise_std(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rayleigh_trace(64, seed=0, probe_noise_std=bad)

    def test_trace_rejects_bool_noise_std(self):
        # True used to pass as a noise std of 1.0, which the config refuses.
        with pytest.raises(ValueError, match="probe_noise_std must be a finite number"):
            rayleigh_trace(64, 0, probe_noise_std=True)

    def test_non_finite_std_raises(self):
        # Probe noise of std 1e300 used to overflow np.std with a RuntimeWarning
        # and leave a silent all-zero PLK.
        with pytest.raises(ValueError, match="std"):
            quantize_samples(np.array([1e300, -1e300, 1e300]), 0.2)
        with pytest.raises(ValueError, match="std"):
            simulate_plk(rayleigh_trace(64, seed=0, probe_noise_std=1e300), 128, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_plk(rayleigh_trace(100, seed=0), 0, 0.1)
        with pytest.raises(ValueError):
            simulate_plk(rayleigh_trace(100, seed=0), 10, -0.5)
        # 128.0 used to end in a slice TypeError.
        for bad in (128.0, True):
            with pytest.raises(ValueError, match="target_bits must be an integer"):
                simulate_plk(rayleigh_trace(100, seed=0), bad, 0.2)

    def test_nan_guard_band_rejected(self):
        # A NaN guard band used to keep no bit, so the ceremony fell back to
        # the all-zero PLK without a word.
        with pytest.raises(ValueError, match="guard_band"):
            quantize_samples(np.arange(16.0), math.nan)
        with pytest.raises(ValueError, match="guard_band"):
            simulate_plk(rayleigh_trace(100, seed=0), 128, math.nan)
        with pytest.raises(ValueError, match="guard_band"):
            quantize_samples(np.arange(16.0), -0.5)

    @pytest.mark.parametrize("coherence", [0, -2])
    def test_rayleigh_trace_rejects_coherence_below_one(self, coherence):
        # 0 used to raise ZeroDivisionError, -2 numpy's "negative dimensions".
        with pytest.raises(ValueError, match="coherence must be >= 1"):
            rayleigh_trace(4096, 1, coherence=coherence)

    @pytest.mark.parametrize("n_probes", [0, -5])
    def test_rayleigh_trace_rejects_n_probes_below_one(self, n_probes):
        with pytest.raises(ValueError, match="n_probes must be >= 1"):
            rayleigh_trace(n_probes, 1)

    # A float coherence or probe count used to give 2 probes for 2.5, or end
    # in numpy's TypeError for rayleigh_trace's 1.5.
    @pytest.mark.parametrize("name, make", [
        ("coherence", lambda: ChannelTrace([1.0], coherence=2.5)),
        ("coherence", lambda: ChannelTrace([1.0], coherence=True)),
        ("n_probes", lambda: constant_trace(2.5)),
        ("coherence", lambda: rayleigh_trace(64, 1, coherence=1.5)),
        ("n_probes", lambda: rayleigh_trace(64.0, 1)),
        ("n_probes", lambda: rayleigh_trace(True, 1)),
    ], ids=["trace_coherence", "trace_bool_coherence", "constant_trace", "rayleigh_coherence",
            "rayleigh_n_probes", "rayleigh_bool_n_probes"])
    def test_counts_must_be_integers(self, name, make):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make()


# --- pinned key-ceremony bytes ----------------------------------------------


def _plk_outcome(trace, target_bits, guard_band, noise_seed):
    """``("key", plk, entropy)`` or ``("insufficient", agreed_bits, entropy)``."""
    try:
        plk, entropy = simulate_plk(trace, target_bits, guard_band, noise_seed=noise_seed)
    except InsufficientEntropyError as exc:
        return "insufficient", exc.agreed_bits, exc.entropy_estimate
    except ValueError as exc:
        if "non-finite std" not in str(exc):
            raise
        return "non-finite std", None, None
    return "key", plk.tolist(), entropy


# SHA-256 over simulate_plk on 40 seeds x probe noise {0, 0.05, 0.5} x
# coherence {1, 8} x guard band {0, 0.2, 1}; see test_plk_grid_bytes_pinned.
PLK_GRID_SHA256 = "5ad30a04e67100ce631e8e78e9eb67b6c762b1d72234de97fcb1d62b3dd4afcd"


class TestPlkPinned:
    def test_plk_grid_bytes_pinned(self):
        h = hashlib.sha256()
        for seed in range(40):
            target = (1, 128, 300)[seed % 3]
            for noise_std in (0.0, 0.05, 0.5):
                for coherence in (1, 8):
                    trace = rayleigh_trace(4096, seed, coherence, noise_std)
                    for guard_band in (0.0, 0.2, 1.0):
                        kind, value, entropy = _plk_outcome(trace, target, guard_band, seed)
                        if kind == "key":
                            h.update(b"K" + bytes_from_bits(np.array(value, dtype=np.uint8)))
                        else:
                            h.update(b"I" + struct.pack(">Q", value))
                        h.update(struct.pack(">d", entropy))
        assert h.hexdigest() == PLK_GRID_SHA256

    @pytest.mark.parametrize("n_probes", [1, 8, 4096])
    @pytest.mark.parametrize("value", [0.0, 1.0, -2.5])
    @pytest.mark.parametrize("guard_band", [0.0, 0.2])
    def test_constant_trace_error_pinned(self, n_probes, value, guard_band):
        kind, agreed_bits, entropy = _plk_outcome(
            constant_trace(n_probes, value), 128, guard_band, noise_seed=n_probes)
        assert (kind, agreed_bits, entropy) == ("insufficient", 0, 0.0)


# Gains of either sign, and short traces of magnitudes up to the float limit,
# where the squares (and near the limit the sums) overflow and the std is
# not finite.
_PLK_SAMPLES = st.one_of(
    st.lists(st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([0.0, 0.5, 1.0, -1.0])),
             min_size=1, max_size=300),
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e308, 1e308),
                       st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308])),
             min_size=1, max_size=40),
)


# About half the examples draw the huge-magnitude traces.
@settings(max_examples=300, deadline=None)
@given(samples=_PLK_SAMPLES, coherence=st.integers(1, 9),
       noise_std=st.one_of(st.sampled_from([0.0, 0.05, 0.5]), st.floats(0.0, 2.0)),
       guard_band=st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 2.0)),
       target_bits=st.integers(1, 600), noise_seed=st.integers(0, (1 << 64) - 1))
# A full-size trace of distinct values: with no guard band every bit depends on
# which value the even-length median takes as the lower middle.  After
# np.partition at the upper middle of this trace, the value just left of the
# pivot is not the lower middle.
@example(samples=np.random.default_rng(98).rayleigh(size=4096).tolist(), coherence=1,
         noise_std=0.0, guard_band=0.0, target_bits=128, noise_seed=0)
# Squares that overflow: np.std is inf.  Sums that overflow: np.std is NaN.
@example(samples=[1e200, -1e200, 3.0], coherence=2, noise_std=0.5, guard_band=0.2,
         target_bits=128, noise_seed=1)
@example(samples=[1.7e308, 1.7e308, 1.0], coherence=1, noise_std=0.0, guard_band=0.2,
         target_bits=128, noise_seed=2)
# Magnitudes near the square root of the float limit, whose std stays finite.
@example(samples=[1e150, -1e150, 2e150, 0.0] * 20, coherence=1, noise_std=0.05, guard_band=0.2,
         target_bits=300, noise_seed=3)
def test_simulate_plk_matches_reference(samples, coherence, noise_std, guard_band,
                                        target_bits, noise_seed):
    trace = ChannelTrace(np.array(samples), coherence=coherence, probe_noise_std=noise_std)
    assert _plk_outcome(trace, target_bits, guard_band, noise_seed) == \
        plk_reference(trace, target_bits, guard_band, noise_seed)
