import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from semshield.experiments import load_config, render_output
from semshield.ofdm import (
    BITS_PER_SYMBOL,
    CP_LEN,
    MAX_SNR_DB,
    N_FFT,
    ChannelModel,
    apply_channel,
    measure_ber,
    ofdm_demodulate_equalize,
    ofdm_modulate,
    qam16_demap,
    qam16_map,
    realize_taps,
)

import test_seed_pins
from spec import ber_16qam_awgn_theory, ref_channel, ref_demap, ref_map, ref_modulate

SCALE = 1.0 / np.sqrt(10.0)


def _bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)


_ALL_NIBBLES = np.array([(v >> (3 - j)) & 1 for v in range(16) for j in range(4)], dtype=np.uint8)
_CHANNELS = [
    ChannelModel(kind=kind, snr_db=snr_db, taps=taps, channel_seed=seed)
    for kind, taps in (("awgn", 1), ("rayleigh_flat", 1), ("rayleigh_multipath", 3))
    for snr_db in (7.5, MAX_SNR_DB, -MAX_SNR_DB, math.inf)
    for seed in (0, 2**64 + 5)
]


class TestSameBytesAsReference:
    @pytest.mark.parametrize("bits", [_ALL_NIBBLES, _bits(100_000, 30), np.zeros(0, dtype=np.uint8)],
                             ids=["all_nibbles", "random", "empty"])
    def test_map(self, bits):
        assert qam16_map(bits).tobytes() == ref_map(bits).tobytes()

    @pytest.mark.parametrize("n_blocks", [1, 3, 400])
    def test_modulate(self, n_blocks):
        syms = ref_map(_bits(n_blocks * N_FFT * 4, 31 + n_blocks))
        assert ofdm_modulate(syms).tobytes() == ref_modulate(syms).tobytes()

    @pytest.mark.parametrize("ch", _CHANNELS, ids=lambda ch: f"{ch.kind}-{ch.snr_db}-{ch.channel_seed}")
    def test_channel(self, ch):
        # 25 symbols, and the 1- and 2-symbol frames (80 and 160 samples) of
        # bleu_compare's sentences.
        for n_symbols in (25, 1, 2):
            x = ref_modulate(ref_map(_bits(n_symbols * N_FFT * 4, 32)))
            assert x.size == n_symbols * (N_FFT + CP_LEN)
            assert apply_channel(x, ch).tobytes() == ref_channel(x, ch).tobytes(), n_symbols

    def test_channel_on_a_strided_view(self):
        # A frame split out of a longer transmission is a view of it.
        x = ref_modulate(ref_map(_bits(8 * N_FFT * 4, 33)))
        view = x[::2]
        ch = ChannelModel(kind="rayleigh_multipath", snr_db=4.0, taps=5, channel_seed=34)
        assert apply_channel(view, ch).tobytes() == ref_channel(view, ch).tobytes()


def _kernel_probe():
    """The apply_channel seed pin's digest and a small multipath ber_sweep."""
    cfg = load_config(scenario="ber_sweep", channel_kind="rayleigh_multipath", n_bits=20_000,
                      snr_list=(4.0, 12.0))
    return test_seed_pins._digest(test_seed_pins._apply_channel) + "\n" + render_output(cfg)


@pytest.mark.parametrize("coretype", ["Haswell", "Nehalem"])
def test_same_samples_under_every_blas_kernel(coretype):
    # OpenBLAS picks its kernels from the CPU, or from OPENBLAS_CORETYPE: the
    # same config must give the same samples and text under each of them.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
    code = "import test_ofdm; print(test_ofdm._kernel_probe(), end='')"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout == _kernel_probe()


class TestShapes:
    @pytest.mark.parametrize("ch", _CHANNELS, ids=lambda ch: f"{ch.kind}-{ch.snr_db}-{ch.channel_seed}")
    def test_only_one_dimension(self, ch):
        for shape in ((2, 80), (), (1, 1, 4)):
            with pytest.raises(ValueError, match="1-D"):
                apply_channel(np.ones(shape, dtype=np.complex128), ch)

    @pytest.mark.parametrize("ch", _CHANNELS, ids=lambda ch: f"{ch.kind}-{ch.snr_db}-{ch.channel_seed}")
    def test_empty_gives_empty(self, ch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_channel(np.zeros(0), ch)
        assert out.dtype == np.complex128 and out.shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 8191, 8192, 8193, 16384 + 5])
    def test_channel_at_block_edges(self, n):
        # Frames shorter than the taps, and frames ending at and just past a
        # block of the convolution.
        x = np.random.default_rng(n).standard_normal(2 * n).view(np.complex128)
        ch = ChannelModel(kind="rayleigh_multipath", snr_db=6.0, taps=CP_LEN, channel_seed=n)
        assert apply_channel(x, ch).tobytes() == ref_channel(x, ch).tobytes()


class TestInputsUnchanged:
    @pytest.mark.parametrize("ch", _CHANNELS, ids=lambda ch: f"{ch.kind}-{ch.snr_db}-{ch.channel_seed}")
    def test_apply_channel(self, ch):
        tx = ref_modulate(ref_map(_bits(4 * N_FFT * 4, 35)))
        before = tx.copy()
        # both a whole array and the frame slices a transmission is cut into
        edge = 2 * (N_FFT + CP_LEN)
        for part in (tx, tx[:edge], tx[edge:]):
            out = apply_channel(part, ch)
            assert not np.shares_memory(out, tx)
        assert tx.tobytes() == before.tobytes()

    def test_map_modulate_demap(self):
        bits = _bits(4 * N_FFT * 4, 36)
        bits_before = bits.copy()
        syms = qam16_map(bits)
        syms_before = syms.copy()
        ofdm_modulate(syms)
        qam16_demap(syms)
        assert bits.tobytes() == bits_before.tobytes()
        assert syms.tobytes() == syms_before.tobytes()


class TestQam16Map:
    def test_corner_points(self):
        # first two bits set I, last two set Q
        sym = qam16_map(np.array([0, 0, 0, 0], dtype=np.uint8))
        assert sym[0] == pytest.approx((-3 - 3j) * SCALE)
        sym = qam16_map(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert sym[0] == pytest.approx((3 + 1j) * SCALE)
        sym = qam16_map(np.array([0, 1, 1, 0], dtype=np.uint8))
        assert sym[0] == pytest.approx((-1 + 3j) * SCALE)

    def test_unit_average_energy(self):
        patterns = np.array(
            [[(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1] for v in range(16)],
            dtype=np.uint8).reshape(-1)
        syms = qam16_map(patterns)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            qam16_map(np.zeros(6, dtype=np.uint8))

    # A 2 used to raise a bare IndexError from the point table.
    @pytest.mark.parametrize("bad", [np.array([2, 0, 1, 0] * 8, dtype=np.uint8), np.full(32, 0.5)],
                             ids=["two", "half"])
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="bits must be"):
            qam16_map(bad)


class TestQam16Demap:
    def test_identity_on_clean_symbols(self):
        bits = _bits(4000, 1)
        assert np.array_equal(qam16_demap(qam16_map(bits)), bits)

    def test_robust_under_small_perturbation(self):
        bits = _bits(4000, 2)
        syms = qam16_map(bits)
        rng = np.random.default_rng(3)
        # half the minimum distance is 1/sqrt(10); stay safely inside
        jitter = 0.4 * SCALE * (rng.uniform(-1, 1, syms.size)
                                + 1j * rng.uniform(-1, 1, syms.size))
        assert np.array_equal(qam16_demap(syms + jitter), bits)

    def test_saturates_outer_region(self):
        far = np.array([10 + 10j, -10 - 10j])
        assert np.array_equal(qam16_demap(far),
                              np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=np.uint8))

    def test_matches_the_per_axis_rule(self):
        # The demap against the per-axis decision, at the decision edges, just
        # past them and far out.
        edges = SCALE * np.array([0.0, 2.0, -2.0, 4.0, -4.0, 1e9, -1e9])
        axis_values = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        rng = np.random.default_rng(6)
        syms = np.concatenate([
            (axis_values[:, None] + 1j * axis_values[None, :]).ravel(),
            2.0 * (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)),
        ])
        assert np.array_equal(qam16_demap(syms), ref_demap(syms))

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf),
                                     complex(-math.inf, 1)])
    def test_rejects_non_finite_symbols(self, bad):
        syms = qam16_map(_bits(64, 5))
        syms[7] = bad
        with pytest.raises(ValueError, match="finite"):
            qam16_demap(syms)


class TestOfdmModulate:
    def test_output_framing(self):
        syms = qam16_map(_bits(N_FFT * 4 * 2, 4))
        tx = ofdm_modulate(syms)
        assert tx.size == 2 * (N_FFT + CP_LEN)

    def test_cyclic_prefix_is_a_copy(self):
        syms = qam16_map(_bits(N_FFT * 4, 5))
        tx = ofdm_modulate(syms)
        assert np.allclose(tx[:CP_LEN], tx[N_FFT:N_FFT + CP_LEN])

    def test_single_bin_gives_flat_magnitude(self):
        syms = np.zeros(N_FFT, dtype=np.complex128)
        syms[7] = 1.0
        tx = ofdm_modulate(syms)[CP_LEN:]
        assert np.allclose(np.abs(tx), 1.0 / np.sqrt(N_FFT))

    def test_energy_preserved_per_block(self):
        syms = qam16_map(_bits(N_FFT * 4, 6))
        tx = ofdm_modulate(syms)[CP_LEN:]
        assert np.sum(np.abs(tx) ** 2) == pytest.approx(
            np.sum(np.abs(syms) ** 2), rel=1e-12)

    def test_rejects_partial_block(self):
        with pytest.raises(ValueError):
            ofdm_modulate(np.zeros(N_FFT + 1, dtype=np.complex128))


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(kind="bogus")
        with pytest.raises(ValueError):
            ChannelModel(kind="rayleigh_multipath", taps=CP_LEN + 1)
        with pytest.raises(ValueError):
            ChannelModel(kind="awgn", taps=2)

    @pytest.mark.parametrize("field, value", [
        ("taps", 2.5), ("taps", True), ("taps", "3"), ("channel_seed", 1.5), ("channel_seed", False),
        ("channel_seed", None), ("snr_db", "10"), ("snr_db", True), ("snr_db", None), ("snr_db", 3j),
    ])
    def test_rejects_field_types(self, field, value):
        # taps=2.5 used to build and fail in apply_channel with numpy's bare
        # TypeError, and channel_seed=1.5 in the seeding helper.
        fields = dict(kind="rayleigh_multipath", snr_db=10.0, taps=3, channel_seed=1)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            ChannelModel(**fields)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinite_snr(self, snr_db):
        # -inf dB is all noise; it used to pass the noise-off test in apply_channel.
        with pytest.raises(ValueError, match="snr_db"):
            ChannelModel(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [1e308, -1e308, MAX_SNR_DB + 1, -MAX_SNR_DB - 1])
    def test_rejects_snr_past_bound(self, snr_db):
        # 1e308 dB used to overflow 10 ** (snr_db / 10) in apply_channel, and
        # -1e308 dB to underflow it to 0 and divide by zero.
        with pytest.raises(ValueError, match="snr_db"):
            ChannelModel(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [MAX_SNR_DB, -MAX_SNR_DB])
    def test_snr_at_bound_gives_finite_samples(self, snr_db):
        y = apply_channel(np.ones(64, dtype=np.complex128), ChannelModel(snr_db=snr_db, channel_seed=1))
        assert np.isfinite(y).all()

    def test_realized_tap_power_is_unity(self):
        for seed in range(50):
            h = realize_taps(ChannelModel(kind="rayleigh_multipath", taps=5,
                                          channel_seed=seed))
            assert np.sum(np.abs(h) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_flat_fade_is_pure_phase(self):
        h = realize_taps(ChannelModel(kind="rayleigh_flat", channel_seed=9))
        assert h.size == 1
        assert np.abs(h[0]) == pytest.approx(1.0, rel=1e-12)

    def test_awgn_tap_is_exact_identity(self):
        h = realize_taps(ChannelModel(kind="awgn", channel_seed=3))
        assert np.array_equal(h, np.ones(1, dtype=np.complex128))

    def test_noiseless_awgn_passthrough(self):
        x = np.exp(1j * np.linspace(0, 3, 100))
        y = apply_channel(x, ChannelModel(kind="awgn"))
        assert np.array_equal(y, x)

    def test_measured_snr_matches_request(self):
        rng = np.random.default_rng(10)
        x = (rng.normal(size=100_000) + 1j * rng.normal(size=100_000)) / np.sqrt(2)
        ch = ChannelModel(kind="awgn", snr_db=10.0, channel_seed=11)
        noise = apply_channel(x, ch) - x
        snr = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
        assert abs(snr - 10.0) <= 0.3

    def test_channel_is_seed_deterministic(self):
        x = np.ones(64, dtype=np.complex128)
        ch = ChannelModel(kind="rayleigh_multipath", taps=3, snr_db=5.0,
                          channel_seed=21)
        assert np.array_equal(apply_channel(x, ch), apply_channel(x, ch))


class TestDemodulate:
    def test_unitary_round_trip(self):
        syms = qam16_map(_bits(N_FFT * 4 * 3, 12))
        rx = ofdm_demodulate_equalize(ofdm_modulate(syms),
                                      ChannelModel(kind="awgn"))
        assert np.max(np.abs(rx - syms)) < 1e-9

    def test_noiseless_multipath_equalizes_exactly(self):
        bits = _bits(N_FFT * 4 * 8, 13)
        syms = qam16_map(bits)
        ch = ChannelModel(kind="rayleigh_multipath", taps=6, channel_seed=14)
        rx = ofdm_demodulate_equalize(apply_channel(ofdm_modulate(syms), ch), ch)
        assert np.array_equal(qam16_demap(rx), bits)

    def test_frames_back_to_back_match_one_call_each(self):
        # Frames sent back to back, each through its own channel, equalize to
        # exactly what one call per frame gives.
        chs = [ChannelModel(kind="rayleigh_multipath", snr_db=9.0, taps=taps, channel_seed=seed)
               for taps, seed in ((3, 17), (16, 18), (1, 19))]
        n_symbols = [2, 5, 1]
        rx = [apply_channel(ofdm_modulate(qam16_map(_bits(N_FFT * 4 * n, 20 + n))), ch)
              for n, ch in zip(n_symbols, chs)]
        one_by_one = np.concatenate([ofdm_demodulate_equalize(r, ch) for r, ch in zip(rx, chs)])
        assert np.array_equal(ofdm_demodulate_equalize(np.concatenate(rx), chs, n_symbols), one_by_one)

    @pytest.mark.parametrize("n_symbols", [[2, 2], [1, 1, 1], [3]])
    def test_rejects_symbol_counts_that_do_not_fit(self, n_symbols):
        rx = ofdm_modulate(qam16_map(_bits(N_FFT * 4 * 3, 21)))
        with pytest.raises(ValueError, match="symbol counts"):
            ofdm_demodulate_equalize(rx, [ChannelModel(kind="awgn")] * 2, n_symbols)

    def test_flat_fade_high_snr_symbol_errors_rare(self):
        n_sym = 156 * N_FFT  # 9984 symbols
        bits = _bits(n_sym * 4, 15)
        syms = qam16_map(bits)
        ch = ChannelModel(kind="rayleigh_flat", snr_db=24.0, channel_seed=16)
        rx = ofdm_demodulate_equalize(apply_channel(ofdm_modulate(syms), ch), ch)
        hard = qam16_map(qam16_demap(rx))
        ser = np.mean(np.abs(hard - syms) > 1e-9)
        assert ser < 0.01

    def test_rejects_partial_symbol(self):
        with pytest.raises(ValueError):
            ofdm_demodulate_equalize(np.zeros(N_FFT + CP_LEN + 1,
                                              dtype=np.complex128),
                                     ChannelModel(kind="awgn"))


class TestBerHelpers:
    def test_measure_ber_basics(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert measure_ber(a, a) == 0.0
        assert measure_ber(a, 1 - a) == 1.0
        assert measure_ber(a, np.array([0, 1, 0, 1], dtype=np.uint8)) == 0.5
        with pytest.raises(ValueError):
            measure_ber(a, a[:3])

    def test_theory_curve_shape(self):
        snrs = np.arange(0, 25, 3, dtype=float)
        vals = [ber_16qam_awgn_theory(s) for s in snrs]
        assert all(0 < v < 0.5 for v in vals)
        assert all(x > y for x, y in zip(vals, vals[1:]))  # monotone drop

    def test_simulated_awgn_tracks_theory(self):
        snr_db = 12.0
        n_bits = 4096 * N_FFT * 4  # 2^20 bits, whole blocks
        bits = _bits(n_bits, 17)
        syms = qam16_map(bits)
        ch = ChannelModel(kind="awgn", snr_db=snr_db, channel_seed=18)
        out = qam16_demap(ofdm_demodulate_equalize(
            apply_channel(ofdm_modulate(syms), ch), ch))
        ber = measure_ber(bits, out)
        theory = ber_16qam_awgn_theory(snr_db)
        assert abs(ber - theory) <= 0.25 * theory

    def test_bits_per_symbol_constant(self):
        assert BITS_PER_SYMBOL == 4
