import contextlib
import dataclasses
import hashlib
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semshield import keying, obfuscation
from semshield.bits import bits_from_bytes, bytes_from_bits
from semshield.codec import CodecModel, decode, encode
from semshield.keying import Keystream, expand_seed, label_nonce
from semshield.obfuscation import (
    DataUnit,
    DesyncError,
    FrameFormatError,
    ObfuscatedFrame,
    ObfuscationParams,
    deobfuscate,
    derive_layout,
    deserialize_frame,
    draw_unit_params,
    dummy_locations,
    generate_dummy_bits,
    obfuscate,
    ota_bits,
    recover_bits,
    serialize_frame,
)
from semshield.obfuscation import _NO_UNITS, _capacity

from spec import draw_by_draw

MODEL = CodecModel(vocab_size=4096, deviation_rate=0.0)


def _seed(tag: int) -> np.ndarray:
    rng = np.random.default_rng(tag)
    return rng.integers(0, 2, 128).astype(np.uint8)


def _forget_layout():
    """Clear derive_layout's memo, so the next derivation replays the stream."""
    obfuscation._last_layout = None


class TestParams:
    def test_defaults(self):
        p = ObfuscationParams()
        assert (p.s_max, p.k_max, p.n_d, p.b) == (4, 10, 64, 4)

    def test_k_max_must_stay_below_n_d(self):
        with pytest.raises(ValueError):
            ObfuscationParams(k_max=64, n_d=64)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            ObfuscationParams(s_max=0)

    def test_params_fit_the_wire_fields(self):
        # s and k travel as >u2 and each dummy location as >u4.
        ObfuscationParams(s_max=0xFFFF, k_max=1, n_d=2, b=1)
        ObfuscationParams(s_max=2, k_max=1, n_d=2**31, b=1)
        for kwargs in ({"s_max": 0x10000, "k_max": 1, "n_d": 2},
                       {"s_max": 1, "k_max": 0x10000, "n_d": 0x10001},
                       {"s_max": 2, "k_max": 1, "n_d": 2**31 + 1}):
            with pytest.raises(ValueError):
                ObfuscationParams(**kwargs, b=1)


def _data_subcarrier_bits(frame, p):
    """Encrypted bits read off a frame by hand: unit data subcarriers, then tail."""
    parts = []
    for unit in frame.units:
        mask = np.ones(unit.s * p.n_d, dtype=bool)
        mask[unit.dummy_locations] = False
        parts.append(unit.payload_bits.reshape(-1, p.b)[mask].ravel())
    return np.concatenate(parts + [frame.tail_bits])[: frame.l_d]


class TestEncryption:
    def test_zero_payload_carries_the_xor_stream(self):
        p = ObfuscationParams()
        seed = _seed(1)
        frame = obfuscate(np.zeros(10_000, dtype=np.uint8), seed, p, MODEL)
        xbits = derive_layout(seed, frame.l_d, p)[0]
        assert np.array_equal(_data_subcarrier_bits(frame, p), xbits)

    def test_involution(self):
        p = ObfuscationParams()
        seed = _seed(2)
        data = np.random.default_rng(1).integers(0, 2, 5000).astype(np.uint8)
        frame = obfuscate(data, seed, p, MODEL)
        xbits = derive_layout(seed, frame.l_d, p)[0]
        assert np.array_equal(_data_subcarrier_bits(frame, p) ^ xbits, data)
        assert np.array_equal(recover_bits(ota_bits(frame), frame.l_d, seed, p), data)
        assert np.array_equal(deobfuscate(frame, seed, p), data)

    def test_ciphertext_weight_near_half(self):
        p = ObfuscationParams()
        frame = obfuscate(np.zeros(10_000, dtype=np.uint8), _seed(3), p, MODEL)
        assert len(frame.units) > 0
        assert 4600 <= int(_data_subcarrier_bits(frame, p).sum()) <= 5400


class TestDrawUnitParams:
    def test_degenerate_bounds(self):
        ks = Keystream(bytes(32), "xor")
        p = ObfuscationParams(s_max=1, k_max=1, n_d=4, b=1)
        assert draw_unit_params(ks, p) == (1, 1)

    def test_ranges(self):
        ks = Keystream(bytes(32), "xor")
        p = ObfuscationParams()
        for _ in range(1000):
            s, k = draw_unit_params(ks, p)
            assert 1 <= s <= 4 and 1 <= k <= 10
            assert s * p.n_d > k

    def test_s_frequencies_uniform(self):
        ks = Keystream(bytes(32), "freq")
        p = ObfuscationParams()
        n = 100_000
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(n):
            s, _ = draw_unit_params(ks, p)
            counts[s - 1] += 1
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 3 * sigma)


class TestDummyLocations:
    def test_two_outcome_case(self):
        ks = Keystream(bytes(32), "loc")
        locs = dummy_locations(ks, 1, 1, 2)
        assert locs.size == 1 and locs[0] in (0, 1)

    def test_near_full_selection(self):
        ks = Keystream(bytes(32), "loc")
        locs = dummy_locations(ks, 1, 7, 8)
        assert locs.size == 7
        assert np.all(np.diff(locs) > 0)
        assert set(range(8)) - set(locs.tolist())  # exactly one left out

    def test_rejects_overfull(self):
        ks = Keystream(bytes(32), "loc")
        with pytest.raises(ValueError):
            dummy_locations(ks, 1, 4, 4)

    def test_inclusion_frequency_uniform(self):
        ks = Keystream(bytes(32), "loc-freq")
        trials = 10_000
        counts = np.zeros(64, dtype=np.int64)
        for _ in range(trials):
            counts[dummy_locations(ks, 1, 10, 64)] += 1
        expect = trials * 10 / 64
        sigma = np.sqrt(trials * (10 / 64) * (1 - 10 / 64))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)


class TestDummyBits:
    def test_single_token_exact_fit(self):
        ks = Keystream(bytes(32), "dummy")
        out = generate_dummy_bits(ks, [3], 4, MODEL)  # 12 bits = one token
        assert out.size == 12

    def test_deterministic(self):
        a = generate_dummy_bits(Keystream(bytes(32), "dummy"), [5], 4, MODEL)
        b = generate_dummy_bits(Keystream(bytes(32), "dummy"), [5], 4, MODEL)
        assert np.array_equal(a, b)

    def test_truncates_to_requested_bits(self):
        ks = Keystream(bytes(32), "dummy")
        assert generate_dummy_bits(ks, [5], 4, MODEL).size == 20

    def test_units_take_their_own_tokens_in_order(self):
        # k*b = 15 bits takes two 12-bit tokens and keeps 15 of their 24 bits.
        ks = Keystream(bytes(32), "dummy")
        tokens = [ks.draw_uniform(MODEL.vocab_size) for _ in range(5)]
        expect = np.concatenate([encode(tokens[0:2], MODEL)[:15], encode(tokens[2:3], MODEL)[:12],
                                 encode(tokens[3:5], MODEL)[:15]])
        got = generate_dummy_bits(Keystream(bytes(32), "dummy"), [5, 4, 5], 3, MODEL)
        assert np.array_equal(got, expect)

    def test_decoded_dummies_are_valid_tokens(self):
        for case in range(100):
            seed2 = hashlib.sha256(f"case{case}".encode()).digest()
            ks = Keystream(seed2, "dummy")
            bits = generate_dummy_bits(ks, [3], 4, MODEL)  # 12 bits -> 1 token
            tokens = decode(bits, MODEL, noise_seed=0)
            assert np.all(tokens >= 0) and np.all(tokens < MODEL.vocab_size)


class TestObfuscate:
    def test_hand_trace_two_units(self):
        p = ObfuscationParams(s_max=1, k_max=1, n_d=4, b=1)
        model = CodecModel(vocab_size=4, deviation_rate=0.0)
        data = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        frame = obfuscate(data, _seed(10), p, model)
        assert len(frame.units) == 2
        assert frame.tail_bits.size == 0
        assert frame.l_d == 6
        for unit in frame.units:
            assert unit.s == 1 and unit.k == 1
            assert unit.payload_bits.size == 4
            assert _capacity(unit.s, unit.k, p) == 3

    @pytest.mark.parametrize("n_bits", [5, 300, 5000])
    def test_units_cut_the_layout_and_air_in_order(self, n_bits):
        p = ObfuscationParams(s_max=3, k_max=5, n_d=16, b=3)
        frame = obfuscate(np.ones(n_bits, dtype=np.uint8), _seed(12), p, MODEL)
        units = frame.units
        assert [f.name for f in dataclasses.fields(DataUnit)] == ["s", "k", "dummy_locations", "payload_bits"]
        assert [(u.s, u.k) for u in units] == list(zip(frame.s.tolist(), frame.k.tolist()))
        start = np.cumsum(frame.s * p.n_d) - frame.s * p.n_d
        assert np.array_equal(np.concatenate([_NO_UNITS] + [u.dummy_locations + at for u, at in zip(units, start)]),
                              frame.dummy_locations)
        assert np.array_equal(np.concatenate([_NO_UNITS] + [u.payload_bits for u in units]),
                              frame.air[:frame.unit_bits])
        assert [u.payload_bits.size for u in units] == [s * p.symbol_bits for s in frame.s.tolist()]

    def test_short_payload_goes_to_padded_tail(self):
        p = ObfuscationParams()
        data = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        frame = obfuscate(data, _seed(11), p, MODEL)
        assert len(frame.units) == 0
        assert frame.tail_bits.size == p.n_d * p.b  # one whole symbol
        assert frame.l_d == 5

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            obfuscate(np.zeros(0, dtype=np.uint8), _seed(12), ObfuscationParams(), MODEL)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(77)
        for case in range(50):
            s_max = int(rng.integers(1, 5))
            n_d = int(rng.integers(2, 65))
            k_max = int(rng.integers(1, min(n_d, 11)))
            b = int(rng.choice([1, 2, 4]))
            p = ObfuscationParams(s_max=s_max, k_max=k_max, n_d=n_d, b=b)
            data = rng.integers(0, 2, int(rng.integers(1, 2000))).astype(np.uint8)
            seed = rng.integers(0, 2, 128).astype(np.uint8)
            frame = obfuscate(data, seed, p, MODEL)
            assert np.array_equal(deobfuscate(frame, seed, p), data), case

    def test_layout_is_seed_deterministic(self):
        p = ObfuscationParams()
        data = np.random.default_rng(5).integers(0, 2, 5000).astype(np.uint8)
        f1 = obfuscate(data, _seed(20), p, MODEL)
        _forget_layout()
        f2 = obfuscate(data, _seed(20), p, MODEL)
        f3 = obfuscate(data, _seed(21), p, MODEL)
        assert [(u.s, u.k) for u in f1.units] == [(u.s, u.k) for u in f2.units]
        assert [(u.s, u.k) for u in f1.units] != [(u.s, u.k) for u in f3.units]

    def test_unit_structure_invariants(self):
        p = ObfuscationParams()
        data = np.random.default_rng(6).integers(0, 2, 20_000).astype(np.uint8)
        frame = obfuscate(data, _seed(22), p, MODEL)
        cap = 0
        for unit in frame.units:
            assert 1 <= unit.s <= p.s_max and 1 <= unit.k <= p.k_max
            assert unit.s * p.n_d > unit.k
            assert unit.payload_bits.size == unit.s * p.n_d * p.b
            assert np.all(np.diff(unit.dummy_locations) > 0)
            assert unit.dummy_locations[-1] < unit.s * p.n_d
            cap += _capacity(unit.s, unit.k, p)
        assert cap + frame.tail_bits.size >= frame.l_d
        assert frame.tail_bits.size % (p.n_d * p.b) == 0

    def test_seed2_is_bound_to_seed(self):
        # The decoys come from the "dummy" stream keyed by SHA-256(packed seed || "dummy").
        p, seed = ObfuscationParams(), _seed(30)
        frame = obfuscate(np.ones(5000, dtype=np.uint8), seed, p, MODEL)
        seed2 = hashlib.sha256(bytes_from_bits(seed) + b"dummy").digest()
        decoys = generate_dummy_bits(Keystream(seed2, "dummy"), frame.k, p.b, MODEL)
        slots = frame.air[:frame.unit_bits].reshape(-1, p.b)
        assert np.array_equal(slots[frame.dummy_locations].ravel(), decoys)

    def test_ragged_seed_rejected(self):
        # packing would pad 127 bits with a 0 and collide with this 128-bit seed
        seed = _seed(31)
        seed[-1] = 0
        with pytest.raises(ValueError):
            obfuscate(np.ones(10, dtype=np.uint8), seed[:127], ObfuscationParams(), MODEL)

    # [2, 0, 1]*100 used to pass: the wire round trip returned other bits
    # and qam16_map raised a bare IndexError on the frame's air.
    @pytest.mark.parametrize("bad", [
        np.array([2, 0, 1] * 100), -np.ones(300, dtype=np.int64), np.full(300, 0.5),
        np.ones(300), np.array(["1"] * 300),
    ], ids=["two", "minus_one", "half", "float_ones", "strings"])
    def test_non_bit_payload_rejected(self, bad):
        with pytest.raises(ValueError, match="data must be a bool or integer array of 0s and 1s"):
            obfuscate(bad, _seed(32), ObfuscationParams(), MODEL)

    def test_non_bit_seed_rejected(self):
        for bad in (np.full(128, 2), np.full(128, 0.5)):
            with pytest.raises(ValueError, match="seed must be"):
                obfuscate(np.ones(300, dtype=np.uint8), bad, ObfuscationParams(), MODEL)

    # A (2, 2500) payload used to fail in xor_bits with "length mismatch:
    # 5000 vs 5000", and a (16, 8) seed was flattened into a 128-bit seed.
    def test_payload_must_be_1d(self):
        with pytest.raises(ValueError, match="data must be 1-D"):
            obfuscate(np.ones((2, 2500), dtype=np.uint8), _seed(32), ObfuscationParams(), MODEL)

    def test_seed_must_be_1d(self):
        with pytest.raises(ValueError, match="seed must be 1-D"):
            obfuscate(np.ones(300, dtype=np.uint8), _seed(32).reshape(16, 8), ObfuscationParams(), MODEL)

    def test_bool_payload_is_its_uint8_bits(self):
        data = np.random.default_rng(33).integers(0, 2, 3000).astype(np.uint8)
        seed, p = _seed(33), ObfuscationParams()
        want = serialize_frame(obfuscate(data, seed, p, MODEL))
        for same in (data.astype(bool), data.astype(np.int64), data.tolist()):
            _forget_layout()
            assert serialize_frame(obfuscate(same, seed, p, MODEL)) == want


def _frame_with(frame, **fields):
    """``frame`` with some of its fields replaced."""
    keep = dict(l_d=frame.l_d, params=frame.params, s=frame.s, k=frame.k,
                dummy_locations=frame.dummy_locations, air=frame.air)
    return ObfuscatedFrame(**{**keep, **fields})


class TestFrame:
    def test_units_are_views_into_the_air(self):
        p = ObfuscationParams()
        frame = obfuscate(np.ones(5000, dtype=np.uint8), _seed(25), p, MODEL)
        units = frame.units
        assert len(units) == frame.s.size > 1
        assert sum(u.payload_bits.size for u in units) + frame.tail_bits.size == frame.air.size
        for unit in units:
            assert np.shares_memory(unit.payload_bits, frame.air)
        off = frame.s[0] * p.n_d
        assert np.array_equal(units[1].dummy_locations + off,
                              frame.dummy_locations[frame.k[0]:frame.k[0] + frame.k[1]])

    def test_ota_bits_is_a_fresh_copy(self):
        p = ObfuscationParams()
        frame = obfuscate(np.ones(5000, dtype=np.uint8), _seed(26), p, MODEL)
        air = ota_bits(frame)
        air ^= 1
        assert np.array_equal(ota_bits(frame) ^ 1, air)

    # The integer cast used to truncate floats: air of 0.5 became zeros, and
    # deobfuscate returned pad-XORed bits with no error.
    @pytest.mark.parametrize("name", ["s", "k", "dummy_locations", "air"])
    def test_float_fields_rejected(self, name):
        seed, p = _seed(27), ObfuscationParams()
        frame = obfuscate(np.ones(5000, dtype=np.uint8), seed, p, MODEL)
        assert frame.k.sum() > 0
        with pytest.raises(ValueError, match=f"frame {name} must be a bool or integer array"):
            _frame_with(frame, **{name: getattr(frame, name) * 0.5})
        with pytest.raises(ValueError, match=f"frame {name} must be"):
            _frame_with(frame, **{name: getattr(frame, name).astype(float)})

    # A float l_d built and then failed in deobfuscate with a TypeError; 0, -4
    # and True failed there with a misleading DesyncError or "nbits must be
    # non-negative".
    @pytest.mark.parametrize("l_d, message", [
        (3000.0, "l_d must be an integer, not 3000.0"),
        (0, "l_d must be >= 1"),
        (-4, "l_d must be >= 1"),
        (True, "l_d must be an integer, not True"),
    ], ids=["float", "zero", "negative", "bool"])
    def test_l_d_must_be_a_positive_integer(self, l_d, message):
        frame = obfuscate(np.ones(3000, dtype=np.uint8), _seed(29), ObfuscationParams(), MODEL)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _frame_with(frame, l_d=l_d)

    def test_numpy_int_l_d_accepted(self):
        seed, p = _seed(29), ObfuscationParams()
        data = np.random.default_rng(29).integers(0, 2, 3000).astype(np.uint8)
        frame = _frame_with(obfuscate(data, seed, p, MODEL), l_d=np.uint16(3000))
        assert type(frame.l_d) is int
        assert np.array_equal(deobfuscate(frame, seed, p), data)

    def test_empty_lists_build_a_tail_only_frame(self):
        seed, p = _seed(28), ObfuscationParams()
        data = np.random.default_rng(28).integers(0, 2, 100).astype(np.uint8)
        frame = obfuscate(data, seed, p, MODEL)
        assert frame.s.size == 0
        rebuilt = _frame_with(frame, s=[], k=[], dummy_locations=[], air=frame.air.tolist())
        assert rebuilt.s.dtype == rebuilt.dummy_locations.dtype == np.int64
        assert np.array_equal(deobfuscate(rebuilt, seed, p), data)


class TestDeobfuscate:
    def test_tail_only_frame(self):
        p = ObfuscationParams()
        data = np.random.default_rng(8).integers(0, 2, 100).astype(np.uint8)
        seed = _seed(31)
        frame = obfuscate(data, seed, p, MODEL)
        assert len(frame.units) == 0
        assert np.array_equal(deobfuscate(frame, seed, p), data)

    def test_wrong_seed_desyncs_trusted_frame(self):
        p = ObfuscationParams()
        data = np.random.default_rng(9).integers(0, 2, 10_000).astype(np.uint8)
        seed = _seed(32)
        frame = obfuscate(data, seed, p, MODEL)
        wrong = seed.copy()
        wrong[0] ^= 1
        with pytest.raises(DesyncError):
            deobfuscate(frame, wrong, p)

    def test_other_params_desync(self):
        p = ObfuscationParams()
        seed = _seed(32)
        frame = obfuscate(np.ones(3000, dtype=np.uint8), seed, p, MODEL)
        with pytest.raises(DesyncError, match="params"):
            deobfuscate(frame, seed, ObfuscationParams(k_max=9))

    def test_tampered_unit_metadata_desyncs(self):
        p = ObfuscationParams()
        data = np.random.default_rng(10).integers(0, 2, 10_000).astype(np.uint8)
        seed = _seed(33)
        frame = obfuscate(data, seed, p, MODEL)
        s0 = int(frame.s[0])
        bad_s = s0 + 1 if s0 < p.s_max else s0 - 1
        s = frame.s.copy()
        s[0] = bad_s
        air = np.concatenate([np.zeros(bad_s * p.symbol_bits, dtype=np.uint8),
                              frame.air[s0 * p.symbol_bits:]])
        with pytest.raises(DesyncError, match=r"unit 0 params"):
            deobfuscate(_frame_with(frame, s=s, air=air), seed, p)

    def test_truncated_frame_desyncs(self):
        p = ObfuscationParams()
        data = np.random.default_rng(11).integers(0, 2, 10_000).astype(np.uint8)
        seed = _seed(34)
        frame = obfuscate(data, seed, p, MODEL)
        last = frame.unit_bits - int(frame.s[-1]) * p.symbol_bits
        truncated = _frame_with(
            frame, s=frame.s[:-1], k=frame.k[:-1],
            dummy_locations=frame.dummy_locations[:-int(frame.k[-1])],
            air=np.concatenate([frame.air[:last], frame.tail_bits]))
        with pytest.raises(DesyncError, match="units"):
            deobfuscate(truncated, seed, p)

    def test_moved_dummy_desyncs(self):
        p = ObfuscationParams()
        seed = _seed(36)
        frame = obfuscate(np.ones(10_000, dtype=np.uint8), seed, p, MODEL)
        locs = frame.dummy_locations.copy()
        gap = int(np.flatnonzero(np.diff(locs) > 1)[0])
        locs[gap] += 1
        with pytest.raises(DesyncError, match="dummy locations"):
            deobfuscate(_frame_with(frame, dummy_locations=locs), seed, p)

    def test_air_ending_inside_the_units_desyncs(self):
        p = ObfuscationParams()
        seed = _seed(37)
        frame = obfuscate(np.ones(10_000, dtype=np.uint8), seed, p, MODEL)
        short = _frame_with(frame, air=frame.air[: frame.unit_bits - 1])
        with pytest.raises(DesyncError, match="inside"):
            deobfuscate(short, seed, p)

    def test_bad_tail_length_desyncs(self):
        p = ObfuscationParams()
        data = np.random.default_rng(12).integers(0, 2, 300).astype(np.uint8)
        seed = _seed(35)
        frame = obfuscate(data, seed, p, MODEL)
        padded = _frame_with(
            frame, air=np.concatenate([frame.air, np.zeros(p.n_d * p.b, dtype=np.uint8)]))
        with pytest.raises(DesyncError, match="tail length"):
            deobfuscate(padded, seed, p)

    def test_non_bit_air_rejected(self):
        p = ObfuscationParams()
        seed = _seed(38)
        frame = obfuscate(np.ones(3000, dtype=np.uint8), seed, p, MODEL)
        air = frame.air.copy()
        air[5] = 2
        with pytest.raises(ValueError, match="frame air must be"):
            deobfuscate(_frame_with(frame, air=air), seed, p)


class TestRecoverBits:
    # A 2 on the air used to come back as a 3 in the payload, and a 0.5 as a 0.
    @pytest.mark.parametrize("bad", [2, 0.5], ids=["two", "half"])
    def test_non_bit_air_rejected(self, bad):
        p = ObfuscationParams()
        seed = _seed(35)
        frame = obfuscate(np.ones(300, dtype=np.uint8), seed, p, MODEL)
        air = ota_bits(frame).astype(type(bad))
        air[7] = bad
        with pytest.raises(ValueError, match="ota must be"):
            recover_bits(air, frame.l_d, seed, p)

    # A (2, 5000) air raised numpy's bare IndexError, and a (2, 150) air
    # with l_d 200 said "length mismatch: 300 vs 200".
    @pytest.mark.parametrize("shape, l_d", [((2, 5000), 5000), ((2, 150), 200)])
    def test_air_must_be_1d(self, shape, l_d):
        with pytest.raises(ValueError, match="ota must be 1-D"):
            recover_bits(np.zeros(shape, dtype=np.uint8), l_d, _seed(35), ObfuscationParams())

    # A float l_d raised a bare TypeError, and True recovered one bit.
    @pytest.mark.parametrize("l_d, message", [
        (3000.0, "l_d must be an integer, not 3000.0"),
        (True, "l_d must be an integer, not True"),
        (-1, "l_d must be >= 0"),
        ("3000", "l_d must be an integer, not '3000'"),
    ], ids=["float", "bool", "negative", "string"])
    def test_l_d_must_be_a_non_negative_integer(self, l_d, message):
        p, seed = ObfuscationParams(), _seed(39)
        air = ota_bits(obfuscate(np.ones(3000, dtype=np.uint8), seed, p, MODEL))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            recover_bits(air, l_d, seed, p)

    @pytest.mark.parametrize("kind", [np.int64, np.uint16])
    def test_numpy_int_l_d_accepted(self, kind):
        p, seed = ObfuscationParams(), _seed(39)
        data = np.random.default_rng(39).integers(0, 2, 3000).astype(np.uint8)
        air = ota_bits(obfuscate(data, seed, p, MODEL))
        assert np.array_equal(recover_bits(air, kind(3000), seed, p), data)

    def test_exact_recovery_from_clean_air(self):
        p = ObfuscationParams()
        data = np.random.default_rng(13).integers(0, 2, 7000).astype(np.uint8)
        seed = _seed(36)
        frame = obfuscate(data, seed, p, MODEL)
        assert np.array_equal(recover_bits(ota_bits(frame), frame.l_d, seed, p), data)

    def test_wrong_seed_avalanche(self):
        p = ObfuscationParams()
        data = np.random.default_rng(14).integers(0, 2, 10_000).astype(np.uint8)
        seed = _seed(37)
        frame = obfuscate(data, seed, p, MODEL)
        wrong = seed.copy()
        wrong[64] ^= 1
        out = recover_bits(ota_bits(frame), frame.l_d, wrong, p)
        ber = float(np.mean(out != data))
        assert 0.45 <= ber <= 0.55

    def test_short_input_zero_padded(self):
        p = ObfuscationParams()
        data = np.random.default_rng(15).integers(0, 2, 5000).astype(np.uint8)
        seed = _seed(38)
        frame = obfuscate(data, seed, p, MODEL)
        ota = ota_bits(frame)
        out = recover_bits(ota[: ota.size // 2], frame.l_d, seed, p)
        assert out.size == frame.l_d  # degraded, never truncated

    def test_excess_input_ignored(self):
        p = ObfuscationParams()
        data = np.random.default_rng(16).integers(0, 2, 5000).astype(np.uint8)
        seed = _seed(39)
        frame = obfuscate(data, seed, p, MODEL)
        ota = np.concatenate([ota_bits(frame), np.ones(512, dtype=np.uint8)])
        assert np.array_equal(recover_bits(ota, frame.l_d, seed, p), data)

    def test_single_air_bit_flip_is_single_data_bit_flip(self):
        p = ObfuscationParams()
        data = np.random.default_rng(17).integers(0, 2, 5000).astype(np.uint8)
        seed = _seed(40)
        frame = obfuscate(data, seed, p, MODEL)
        ota = ota_bits(frame)
        flipped = ota.copy()
        # pick a payload (non-dummy) position inside the first unit
        unit = frame.units[0]
        mask = np.ones(unit.s * p.n_d, dtype=bool)
        mask[unit.dummy_locations] = False
        slot = int(np.flatnonzero(mask)[0])
        flipped[slot * p.b] ^= 1
        out = recover_bits(flipped, frame.l_d, seed, p)
        assert int(np.sum(out != data)) == 1


class TestSerialization:
    def test_round_trip(self):
        p = ObfuscationParams()
        data = np.random.default_rng(18).integers(0, 2, 9000).astype(np.uint8)
        seed = _seed(41)
        frame = obfuscate(data, seed, p, MODEL)
        blob = serialize_frame(frame)
        assert blob[:4] == b"SOBF"
        back = deserialize_frame(blob, p)
        assert back.l_d == frame.l_d
        assert back.params == frame.params
        for name in ("s", "k", "dummy_locations", "air"):
            assert np.array_equal(getattr(back, name), getattr(frame, name)), name
        assert np.array_equal(deobfuscate(back, seed, p), data)

    def test_round_trip_at_the_largest_s(self):
        p = ObfuscationParams(s_max=0xFFFF, k_max=1, n_d=2, b=1)
        data = np.random.default_rng(19).integers(0, 2, 400_000).astype(np.uint8)
        seed = _seed(44)
        frame = obfuscate(data, seed, p, MODEL)
        assert frame.s.max() > 0x8000
        back = deserialize_frame(serialize_frame(frame), p)
        assert np.array_equal(back.s, frame.s) and np.array_equal(back.k, frame.k)
        assert np.array_equal(back.dummy_locations, frame.dummy_locations)
        assert np.array_equal(deobfuscate(back, seed, p), data)

    def test_bad_magic_rejected(self):
        p = ObfuscationParams()
        frame = obfuscate(np.ones(10, dtype=np.uint8), _seed(42), p, MODEL)
        blob = bytearray(serialize_frame(frame))
        blob[0] ^= 0xFF
        with pytest.raises(ValueError):
            deserialize_frame(bytes(blob), p)

    def test_bad_version_rejected(self):
        p = ObfuscationParams()
        frame = obfuscate(np.ones(10, dtype=np.uint8), _seed(43), p, MODEL)
        blob = bytearray(serialize_frame(frame))
        blob[4] = 99
        with pytest.raises(ValueError):
            deserialize_frame(bytes(blob), p)

    def test_air_representation_is_payload_only(self):
        p = ObfuscationParams(s_max=2, k_max=3, n_d=8, b=2)
        data = np.random.default_rng(19).integers(0, 2, 200).astype(np.uint8)
        frame = obfuscate(data, _seed(44), p, MODEL)
        total = sum(u.payload_bits.size for u in frame.units) + frame.tail_bits.size
        assert ota_bits(frame).size == total

    def test_truncated_buffers_rejected(self):
        p = ObfuscationParams()
        data = np.random.default_rng(20).integers(0, 2, 9000).astype(np.uint8)
        frame = obfuscate(data, _seed(45), p, MODEL)
        blob = serialize_frame(frame)
        for cut in (0, 4, 10, 16, 20, 40, len(blob) - 1):
            with pytest.raises(FrameFormatError):
                deserialize_frame(blob[:cut], p)
        # A cut inside unit i's 4-byte (s, k) header names the header, one
        # right after it the body.
        assert frame.s.size >= 3
        off = 17  # unit 0's header, after the frame header
        for i, (s, k) in enumerate(zip(frame.s[:3].tolist(), frame.k[:3].tolist())):
            with pytest.raises(FrameFormatError, match=f"the header of unit {i}$"):
                deserialize_frame(blob[:off + 3], p)
            with pytest.raises(FrameFormatError, match=f"the body of unit {i}$"):
                deserialize_frame(blob[:off + 4], p)
            off += 4 + 4 * k + (s * p.symbol_bits + 7) // 8

    def test_every_truncation_of_a_small_frame_rejected(self):
        p = ObfuscationParams(s_max=2, k_max=3, n_d=8, b=2)
        data = np.random.default_rng(21).integers(0, 2, 150).astype(np.uint8)
        blob = serialize_frame(obfuscate(data, _seed(46), p, MODEL))
        for cut in range(len(blob)):
            with pytest.raises(FrameFormatError):
                deserialize_frame(blob[:cut], p)

    def test_bare_header_with_zero_l_d_rejected(self):
        # obfuscate refuses an empty payload, so no sender writes this frame
        blob = b"SOBF\x01" + struct.pack(">QI", 0, 0)
        with pytest.raises(FrameFormatError):
            deserialize_frame(blob, ObfuscationParams())

    # One unit (s=1, k=2, dummies at 1 and 3) and no tail, laid out as
    # header [0:17], s [17:19], k [19:21], locations [21:29], payload [29:31].
    _HAND_PARAMS = ObfuscationParams(s_max=2, k_max=3, n_d=8, b=2)
    _HAND_BLOB = serialize_frame(ObfuscatedFrame(
        12, _HAND_PARAMS, [1], [2], [1, 3], np.zeros(16, dtype=np.uint8)))

    @pytest.mark.parametrize("offset,patch", [
        (17, b"\0\0"),                  # s = 0
        (19, b"\0\0"),                  # k = 0
        (17, b"\0\3"),                  # s > s_max
        (19, b"\0\4"),                  # k > k_max
        (25, b"\0\0\0\x08"),          # location == s*n_d
        (25, b"\0\0\0\x01"),          # repeated location
        (5, (11).to_bytes(8, "big")),   # unit capacity exceeds l_d
        (13, (2).to_bytes(4, "big")),   # unit count past the end of the buffer
        (31, b"\0"),                    # trailing byte
    ])
    def test_malformed_fields_rejected(self, offset, patch):
        p = self._HAND_PARAMS
        assert len(deserialize_frame(self._HAND_BLOB, p).units) == 1
        blob = bytearray(self._HAND_BLOB)
        blob[offset:offset + len(patch)] = patch
        with pytest.raises(FrameFormatError):
            deserialize_frame(bytes(blob), p)


    # A set padding bit used to parse to the same frame as the clear one:
    # two wires for one frame.  The first unit's payload is 3*s bits, and
    # the last byte's low bit pads the tail or the last unit.
    @pytest.mark.parametrize("where", ["unit", "last"])
    def test_nonzero_padding_bits_rejected(self, where):
        p = _RAGGED_PARAMS
        frame = obfuscate(np.random.default_rng(23).integers(0, 2, 40).astype(np.uint8), _seed(49), p, MODEL)
        blob = bytearray(serialize_frame(frame))
        blob[17 + 4 + 4 * int(frame.k[0]) if where == "unit" else -1] ^= 1
        with pytest.raises(FrameFormatError, match="padding bits must be 0"):
            deserialize_frame(bytes(blob), p)

    @pytest.mark.parametrize("kind,message", [("past", "past its"), ("repeated", "increasing")])
    def test_bad_location_names_its_unit(self, kind, message):
        p = ObfuscationParams()
        frame = obfuscate(np.ones(5000, dtype=np.uint8), _seed(48), p, MODEL)
        assert frame.k[2] >= 2
        blob = bytearray(serialize_frame(frame))
        first = 17 + 4  # unit 2's first location, after the frame and unit headers
        for s, k in zip(frame.s[:2].tolist(), frame.k[:2].tolist()):
            first += 4 + 4 * k + s * p.symbol_bits // 8
        if kind == "past":
            blob[first:first + 4] = (int(frame.s[2]) * p.n_d).to_bytes(4, "big")
        else:
            blob[first:first + 4] = blob[first + 4:first + 8]
        with pytest.raises(FrameFormatError, match=f"unit 2.*{message}"):
            deserialize_frame(bytes(blob), p)


_FUZZ_PARAMS = ObfuscationParams(s_max=2, k_max=3, n_d=8, b=2)
_FUZZ_BLOB = serialize_frame(obfuscate(
    np.random.default_rng(22).integers(0, 2, 200).astype(np.uint8), _seed(47), _FUZZ_PARAMS, MODEL))
# Units and tail of 3-bit symbols, padded to whole bytes on the wire.
_RAGGED_PARAMS = ObfuscationParams(s_max=2, k_max=2, n_d=3, b=1)
_RAGGED_BLOB = serialize_frame(obfuscate(
    np.random.default_rng(24).integers(0, 2, 40).astype(np.uint8), _seed(50), _RAGGED_PARAMS, MODEL))


def _check_fuzzed(base, p, cut, flips):
    """``base`` cut to ``cut`` bytes, each (pos, mask) XORed in, must raise
    FrameFormatError or parse to a frame whose wire it is."""
    blob = bytearray(base[:cut])
    for pos, mask in flips:
        if pos < len(blob):
            blob[pos] ^= mask
    try:
        frame = deserialize_frame(bytes(blob), p)
    except FrameFormatError:
        return
    assert isinstance(frame, ObfuscatedFrame)
    assert frame.l_d >= 1
    assert serialize_frame(frame) == blob


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, len(_FUZZ_BLOB)),
       flips=st.lists(st.tuples(st.integers(0, len(_FUZZ_BLOB) - 1), st.integers(1, 255)), max_size=4))
# The header alone with the low bytes of l_d and of the unit count cleared:
# l_d = 0 and no units.
@example(cut=17, flips=[(12, _FUZZ_BLOB[12]), (16, _FUZZ_BLOB[16])])
def test_fuzzed_frames_parse_or_raise_frame_format_error(cut, flips):
    _check_fuzzed(_FUZZ_BLOB, _FUZZ_PARAMS, cut, flips)


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, len(_RAGGED_BLOB)),
       flips=st.lists(st.tuples(st.integers(0, len(_RAGGED_BLOB) - 1), st.integers(1, 255)), max_size=4))
# The last byte's low bit, which pads the tail or the last unit.
@example(cut=len(_RAGGED_BLOB), flips=[(len(_RAGGED_BLOB) - 1, 1)])
def test_fuzzed_ragged_frames_parse_or_raise_frame_format_error(cut, flips):
    _check_fuzzed(_RAGGED_BLOB, _RAGGED_PARAMS, cut, flips)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derive_layout_is_the_frame_layout(draw):
    k_max = draw.draw(st.integers(1, 10))
    p = ObfuscationParams(s_max=draw.draw(st.integers(1, 4)), k_max=k_max,
                          n_d=draw.draw(st.integers(k_max + 1, 64)),
                          b=draw.draw(st.sampled_from([1, 2, 3, 4])))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    l_d = draw.draw(st.integers(1, 3000))
    # Stream words after the encryption bits, each overwritten with a value
    # near 2**32 that some draws reject.
    near_top = st.one_of(st.integers(1, 16), st.integers(1, 2 * p.s_max * p.n_d))
    hits = draw.draw(st.lists(st.tuples(st.integers(0, 127), near_top), max_size=12))
    data = rng.integers(0, 2, l_d).astype(np.uint8)
    seed = rng.integers(0, 2, 128).astype(np.uint8)
    patches = _word_patches(seed, l_d, {word: 2**32 - below for word, below in hits}) if hits else {}

    with _patch_stream(seed, b"xor", patches):
        xbits, s, k, locs, tail = derive_layout(seed, data.size, p)
        frame = obfuscate(data, seed, p, MODEL)
        assert xbits.size == data.size
        assert np.array_equal(frame.s, s) and np.array_equal(frame.k, k)
        assert np.array_equal(frame.dummy_locations, locs)
        assert (s.tolist(), k.tolist(), locs.tolist(), tail) == draw_by_draw(seed, data.size, p)[:4]
        assert sum(_capacity(u.s, u.k, p) for u in frame.units) + tail == data.size
        assert frame.tail_bits.size == -(-tail // p.symbol_bits) * p.symbol_bits
        assert np.array_equal(recover_bits(ota_bits(frame), frame.l_d, seed, p), data)
        assert np.array_equal(deobfuscate(frame, seed, p), data)
        assert np.array_equal(deobfuscate(deserialize_frame(serialize_frame(frame), p), seed, p), data)


# --- pinned layout bytes --------------------------------------------------------

# (params, payload bits, payload rng seed, frame seed tag) per case.  "small"
# exercises a non-default geometry; "tail_only" has no unit at all and
# "exact_fit" fills its units with no tail left over.  "ragged" has units
# that are not whole bytes and k*b that does not fill whole 12-bit tokens.
LAYOUT_CASES = {
    "default": (ObfuscationParams(), 20_000, 101, 50),
    "small": (ObfuscationParams(s_max=2, k_max=3, n_d=8, b=2), 700, 102, 51),
    "tail_only": (ObfuscationParams(), 100, 103, 52),
    "exact_fit": (ObfuscationParams(s_max=1, k_max=1, n_d=4, b=1), 6, 104, 10),
    "ragged": (ObfuscationParams(s_max=3, k_max=5, n_d=7, b=3), 3000, 105, 53),
}

# SHA-256 of serialize_frame(obfuscate(...)) and of recover_bits over the
# on-air bits with every 37th bit flipped (full length, then cut to a third),
# pinned from the reference implementation.  Any change to the stream
# order, the slot order or the tail padding moves them.
LAYOUT_GOLDENS = {
    'default': (
        '346c5017d0ddf76e6ddd829b330def654e57855b8d11e8a98f261cb07e340544',
        'fdf93571cce833dc683e18146c880bf6bb3fb34d9c3691ab7ebde561ab596e52',
        '8cd620acd77f2e0a07e0349dca2be9b60427e850569ec040aec16ccbae4f3a1f',
    ),
    'exact_fit': (
        '65da23708b3ba3875b1a0a1640b34e499f41450b79307289e77e43ea3d09c57a',
        '5c62e091b8c0565f1bafad0dad5934276143ae2ccef7a5381e8ada5b1a8d26d2',
        '3f39d5c348e5b79d06e842c114e6cc571583bbf44e4b0ebfda1a01ec05745d43',
    ),
    'ragged': (
        '84cc4a07ffa505d4f50ac0dd30ec60e57db303d90e506641ee8c1308ff4e0376',
        '06ec6f437ec6e1745ca48c53252bcd0308cf7c20bbc39ee80d2aae506c530e36',
        '999e9c4538033c08066ea31f6e6fdd6943b19c92025560612803938f43618170',
    ),
    'small': (
        '18917aa8234ce73c0dd7c54d84b5eb7862837ca0a4bdec438cdd7b541bb0b3e6',
        'c67b9d9cd4b3291390fe8d51a6f706f9bd45ab0871229463481241cf886a2a11',
        '4867801eefbaf72b7e930bd22885b8ceb8d2235ff1463d7df3f14d0690978865',
    ),
    'tail_only': (
        '083c3aa9fc123cd8bbb2c427b618390f2fd11e6be1b9d3f2d3459e5702e6531f',
        '71fa50f41e47601b32fb878196d3c7fe4f0b6af96bceb9f73376d97b22480f71',
        '4e87779b0480a19c427f116cf75e5d90d9f8e598ac90129f878d364047f135bb',
    ),
}


def _layout_digests(case: str) -> tuple:
    p, n_bits, data_seed, seed_tag = LAYOUT_CASES[case]
    data = np.random.default_rng(data_seed).integers(0, 2, n_bits).astype(np.uint8)
    seed = _seed(seed_tag)
    frame = obfuscate(data, seed, p, MODEL)
    air = ota_bits(frame)
    air[::37] ^= 1
    noisy = recover_bits(air, frame.l_d, seed, p)
    short = recover_bits(air[: air.size // 3], frame.l_d, seed, p)
    return tuple(hashlib.sha256(blob).hexdigest() for blob in (
        serialize_frame(frame), bytes_from_bits(noisy), bytes_from_bits(short)))


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_layout_bytes_pinned(case):
    assert _layout_digests(case) == LAYOUT_GOLDENS[case]


# --- rejected stream words --------------------------------------------------------

def _word_patches(seed, l_d, words):
    """Patches for ``_patch_stream`` that write ``words`` ({index: value})
    over the "xor" stream's 32-bit words, counted from the end of the l_d
    encryption bits, whether or not l_d is whole bytes."""
    end = -(-(l_d + 32 * (max(words) + 1)) // 8) * 8
    bits = Keystream.from_seed_bits(seed, "xor").bits(end).copy()
    for index, value in words.items():
        bits[l_d + 32 * index:l_d + 32 * index + 32] = bits_from_bytes(value.to_bytes(4, "big"))
    return {0: bytes_from_bits(bits)}


@contextlib.contextmanager
def _patch_stream(seed, label, patches):
    """A context that overwrites bytes of one ChaCha20 stream: ``patches``
    maps a byte offset in the stream to the bytes written there.

    derive_layout's memo is cleared on entry and on exit, so no layout of
    the real stream is read inside the context and none of the patched
    stream outside it.
    """
    key, nonce = expand_seed(seed), label_nonce(label)
    real = keying.chacha20_stream

    def stream(k, n, counter, nbytes):
        out = bytearray(real(k, n, counter, nbytes))
        if (k, n) == (key, nonce):
            base = counter * keying.CHACHA_BLOCK_BYTES
            for at, blob in patches.items():
                for i, byte in enumerate(blob):
                    if 0 <= at + i - base < nbytes:
                        out[at + i - base] = byte
        return bytes(out)

    _forget_layout()
    try:
        with mock.patch.object(keying, "chacha20_stream", stream):
            yield
    finally:
        _forget_layout()


_RAGGED = ObfuscationParams(s_max=3, k_max=5, n_d=7, b=3)
# 2**32 mod 641 == 640, so 2**32 - 640 is the smallest word a draw from
# [0, 641) rejects, and 2**32 - 641 the largest it keeps.  It is also
# derive_layout's safe bound, 2**32 - s_max*n_d + 1, below which no draw
# rejects a word.
_WIDE = ObfuscationParams(s_max=1, k_max=3, n_d=641, b=1)
# The default params' smallest unit, s = 1 with k = k_max, carries
# (64 - 10) * 4 = 216 bits.
_DEFAULT = ObfuscationParams()

# (params, l_d, [(unit, draw, word)]).  Draw 0 is the unit's s, 1 its k,
# 2.. its locations, -1 its last; unit -1 is the stopping (s, k) draw.
REJECTION_CASES = {
    "s_draw": (_RAGGED, 3000, [(4, 0, 0xFFFFFFFF)]),
    "k_draw": (_RAGGED, 3000, [(1, 1, 0xFFFFFFFF)]),
    # The s word is dropped, then the k word at the same place is read as s.
    "s_and_k_draw": (_RAGGED, 3000, [(3, 0, 0xFFFFFFFF), (3, 1, 0xFFFFFFFF)]),
    "first_location": (_RAGGED, 3000, [(3, 2, 0xFFFFFFFF)]),
    "last_location": (_RAGGED, 3000, [(6, -1, 0xFFFFFFFF)]),
    # Unit 10 has k = k_max: its last location is the last word its draws
    # read, so the last word derive_layout tests against its safe bound.
    "last_location_of_a_full_unit": (_RAGGED, 3000, [(10, -1, 0xFFFFFFFF)]),
    "two_in_a_row": (_RAGGED, 3000, [(8, 2, 0xFFFFFFFF), (8, 3, 0xFFFFFFFF)]),
    "several_units": (_RAGGED, 3000, [(2, 1, 0xFFFFFFFF), (6, 2, 0xFFFFFFFF),
                                      (7, -1, 0xFFFFFFFF)]),
    # Units 91 to 101 draw from words past derive_layout's first read of
    # the stream; it reads them in later chunks.
    "past_the_first_read": (_RAGGED, 3000, [(95, 0, 0xFFFFFFFF), (97, -1, 0xFFFFFFFF)]),
    # 2**32 - 20 is _RAGGED's safe bound, so the frame is replayed with the
    # single draws, though no draw of _RAGGED rejects it.
    "kept_at_the_safe_bound": (_RAGGED, 3000, [(3, 2, 2**32 - 20)]),
    # The next words then draw a unit that fits the tail, so the loop goes on.
    "stopping_s_draw": (_RAGGED, 288, [(-1, 0, 0xFFFFFFFF)]),
    "stopping_k_draw": (_RAGGED, 2968, [(-1, 1, 0xFFFFFFFF)]),
    "smallest_rejected": (_WIDE, 3200, [(2, 2, 2**32 - 640)]),
    "largest_kept": (_WIDE, 3200, [(2, 2, 2**32 - 641)]),
    "one_unit_frame": (_WIDE, 640, [(0, 2, 0xFFFFFFFF)]),
    # The first draw is the smallest unit: it fills a 216-bit frame, and one
    # bit less holds no unit, whatever the stream.
    "smallest_unit": (_DEFAULT, 216, [(-1, 0, 0), (-1, 1, 9)]),
    "below_the_smallest_unit": (_DEFAULT, 215, [(-1, 0, 0), (-1, 1, 9)]),
}


def _planted(seed, case):
    """``_patch_stream`` patches that plant REJECTION_CASES[case]'s words in
    ``seed``'s "xor" stream."""
    p, l_d, patches = REJECTION_CASES[case]
    _, k_of, _, _, first_word = draw_by_draw(seed, l_d, p)
    words = {first_word[unit] + (draw if draw >= 0 else 2 + k_of[unit] + draw): word
             for unit, draw, word in patches}
    return _word_patches(seed, l_d, words)


@pytest.mark.parametrize("case", sorted(REJECTION_CASES))
def test_rejected_words_replay_like_single_draws(case):
    p, l_d, _ = REJECTION_CASES[case]
    seed = _seed(60)
    clean = derive_layout(seed, l_d, p)
    with _patch_stream(seed, b"xor", _planted(seed, case)):
        xbits, s, k, locs, tail = derive_layout(seed, l_d, p)
        ref_s, ref_k, ref_locs, ref_tail, _ = draw_by_draw(seed, l_d, p)
    assert np.array_equal(xbits, clean[0])
    assert s.tolist() == ref_s and k.tolist() == ref_k
    assert locs.tolist() == ref_locs and tail == ref_tail
    # Every patch moves the layout but the one below the smallest unit.
    moved = (s.tolist(), k.tolist(), locs.tolist()) != \
        (clean[1].tolist(), clean[2].tolist(), clean[3].tolist())
    assert moved == (case != "below_the_smallest_unit")


def test_clean_frames_make_no_single_draw():
    # A replay that fell back to the single draws on every frame would keep
    # every byte, so only a count sees it; at 64 kbit it costs about 50x.
    real, calls = obfuscation.draw_unit_params, []

    def counting(ks, p):
        calls.append(p)
        return real(ks, p)

    with mock.patch.object(obfuscation, "draw_unit_params", counting):
        for tag in (66, 67, 68):
            for l_d in (64_000, 10**6):
                _forget_layout()
                derive_layout(_seed(tag), l_d, _DEFAULT)
        assert not calls
        p, l_d, _ = REJECTION_CASES["first_location"]
        seed = _seed(60)
        with _patch_stream(seed, b"xor", _planted(seed, "first_location")):
            derive_layout(seed, l_d, p)
    assert calls


# --- the layout memo ------------------------------------------------------------

class TestLayoutMemo:
    def test_hit_arrays_are_read_only(self):
        p, seed = ObfuscationParams(), _seed(61)
        frame = obfuscate(np.ones(5000, dtype=np.uint8), seed, p, MODEL)
        _, s, k, locs, _ = derive_layout(seed, frame.l_d, p)
        assert s is frame.s and k is frame.k and locs is frame.dummy_locations
        for arr in (s, k, locs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_memo_holds_no_pad(self):
        p, seed = ObfuscationParams(), _seed(62)
        xbits = derive_layout(seed, 5000, p)[0]
        (key, l_d, params), layout = obfuscation._last_layout
        assert (key, l_d, params) == (expand_seed(seed), 5000, p)
        assert len(layout) == 4
        assert not any(np.shares_memory(xbits, arr) for arr in layout[:3])

    def test_seed_a_then_b_then_a(self):
        p = ObfuscationParams()
        for seed in (_seed(63), _seed(64), _seed(63)):
            xbits, s, k, locs, tail = derive_layout(seed, 5000, p)
            assert (s.tolist(), k.tolist(), locs.tolist(), tail) == draw_by_draw(seed, 5000, p)[:4]
            assert np.array_equal(xbits, Keystream.from_seed_bits(seed, "xor").bits(5000))

    def test_tampered_wire_frame_desyncs_after_obfuscate(self):
        p, seed = ObfuscationParams(), _seed(65)
        frame = obfuscate(np.ones(5000, dtype=np.uint8), seed, p, MODEL)
        # Move unit 0's first dummy into a gap: the frame still parses.
        locs = frame.units[0].dummy_locations
        j = int(np.flatnonzero(np.diff(np.append(locs, frame.s[0] * p.n_d)) > 1)[0])
        blob = bytearray(serialize_frame(frame))
        at = 17 + 4 + 4 * j + 3  # frame header, unit header, low byte of location j
        blob[at] += 1
        tampered = deserialize_frame(bytes(blob), p)
        with pytest.raises(DesyncError, match="dummy locations"):
            deobfuscate(tampered, seed, p)

    def test_wrong_seed_right_after_the_right_one(self):
        p, seed = ObfuscationParams(), _seed(66)
        wrong = seed.copy()
        wrong[0] ^= 1
        data = np.random.default_rng(66).integers(0, 2, 5000).astype(np.uint8)
        frame = obfuscate(data, seed, p, MODEL)
        air = ota_bits(frame)
        _forget_layout()
        want = recover_bits(air, frame.l_d, wrong, p)
        frame = obfuscate(data, seed, p, MODEL)
        assert np.array_equal(recover_bits(air, frame.l_d, seed, p), data)
        assert np.array_equal(recover_bits(air, frame.l_d, wrong, p), want)
        assert not np.array_equal(want, data)
