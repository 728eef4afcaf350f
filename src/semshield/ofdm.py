"""16QAM OFDM baseband: mapping, modulation, block-fading channels, BER.

The chain is map -> unitary IFFT + cyclic prefix -> channel -> strip CP +
unitary FFT -> genie one-tap zero-forcing equalizer -> hard-decision
demap.  All 64 subcarriers carry data and the channel is constant within
a frame; realized tap power is normalized to exactly 1 so the per-bin
SNR tracks the configured value for every seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bit_array

N_FFT = 64
CP_LEN = 16
BITS_PER_SYMBOL = 4

_SCALE = 1.0 / math.sqrt(10.0)
# Gray map per axis: 2-bit value b_hi b_lo indexes the level.
_LEVEL_BY_VALUE = np.array([-3.0, -1.0, 3.0, 1.0])  # 00, 01, 10, 11
# The point of the four bits b0 b1 b2 b3, at index 8*b0 + 4*b1 + 2*b2 + b3.
_POINTS = _SCALE * (np.repeat(_LEVEL_BY_VALUE, 4) + 1j * np.tile(_LEVEL_BY_VALUE, 4))

KIND_AWGN = "awgn"
KIND_RAYLEIGH_FLAT = "rayleigh_flat"
KIND_RAYLEIGH_MULTIPATH = "rayleigh_multipath"
_KINDS = (KIND_AWGN, KIND_RAYLEIGH_FLAT, KIND_RAYLEIGH_MULTIPATH)
# Largest finite |snr_db|: 10 ** (snr_db / 10) and the noise variance it
# divides stay finite and non-zero.
MAX_SNR_DB = 300.0


def qam16_map(bits: BitString) -> np.ndarray:
    """Gray-mapped 16QAM: per 4 bits, I from the first pair, Q from the second.

    Values other than 0 and 1 raise ValueError.
    """
    bits = _bit_array(bits, "bits")
    if bits.size % 4:
        raise ValueError("bit count must be divisible by 4")
    quads = bits.reshape(-1, 4)
    return _POINTS[8 * quads[:, 0] + 4 * quads[:, 1] + 2 * quads[:, 2] + quads[:, 3]]


def qam16_demap(symbols: np.ndarray) -> BitString:
    """Hard-decision inverse of qam16_map (nearest constellation point).

    Per axis, with ``z = (x/_SCALE + 4)/2`` the nearest of the levels -3, -1,
    1, 3 (times _SCALE) has index ``clip(floor(z), 0, 3)``; its Gray bits are
    ``z >= 2`` and ``1 <= z < 3``.  Raises ValueError for NaN or infinite
    symbols, which have no nearest point.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if not np.isfinite(symbols).all():
        raise ValueError("symbols must be finite")
    bits = np.empty((symbols.size, 4), dtype=np.uint8)
    for col, x in ((0, symbols.real), (2, symbols.imag)):
        z = x / _SCALE
        z += 4.0
        z /= 2.0
        np.greater_equal(z, 2.0, out=bits[:, col])
        np.logical_and(z >= 1.0, z < 3.0, out=bits[:, col + 1])
    return bits.ravel()


def ofdm_modulate(symbols: np.ndarray) -> np.ndarray:
    """Unitary 64-point IFFT per block with a 16-sample cyclic prefix."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size % N_FFT:
        raise ValueError(f"symbol count must be divisible by {N_FFT}")
    blocks = symbols.reshape(-1, N_FFT)
    time = np.fft.ifft(blocks, norm="ortho", axis=1)
    with_cp = np.concatenate([time[:, -CP_LEN:], time], axis=1)
    return with_cp.ravel()


@dataclass(frozen=True)
class ChannelModel:
    """Block-fading channel configuration; taps are drawn per realization.

    ``snr_db`` lies in [-MAX_SNR_DB, MAX_SNR_DB] or is +inf, which turns
    the noise off.
    """

    kind: str = KIND_AWGN
    snr_db: float = math.inf
    taps: int = 1
    channel_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if not (abs(self.snr_db) <= MAX_SNR_DB or self.snr_db == math.inf):
            raise ValueError(f"snr_db must lie in [-{MAX_SNR_DB}, {MAX_SNR_DB}] or be +inf, not {self.snr_db}")
        if not 1 <= self.taps <= CP_LEN:
            raise ValueError(f"taps must lie in [1, {CP_LEN}]")
        if self.kind != KIND_RAYLEIGH_MULTIPATH and self.taps != 1:
            raise ValueError("multiple taps require the multipath kind")


def realize_taps(ch: ChannelModel) -> np.ndarray:
    """Impulse response for one frame; realized power is normalized to 1."""
    if ch.kind == KIND_AWGN:
        return np.ones(1, dtype=np.complex128)
    rng = np.random.default_rng([ch.channel_seed & 0xFFFFFFFFFFFFFFFF, 0x74])
    n = 1 if ch.kind == KIND_RAYLEIGH_FLAT else ch.taps
    # exponential power-delay profile, 3 dB per tap
    pdp = 10.0 ** (-0.3 * np.arange(n))
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(pdp / 2.0)
    return h / np.sqrt(np.sum(np.abs(h) ** 2))


def apply_channel(samples: np.ndarray, ch: ChannelModel) -> np.ndarray:
    """Convolve with the realized taps and add seeded complex AWGN.

    Noise variance per sample is Es/SNR_lin with Es the mean energy of
    the input samples; snr_db = +inf disables noise.  The real parts of
    the noise are drawn first, then the imaginary parts, each added into
    the output in place; the input is never written.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    out = samples.copy() if ch.kind == KIND_AWGN else np.convolve(samples, realize_taps(ch))[: samples.size]
    if ch.snr_db == math.inf:
        return out
    # One float buffer holds |samples|**2 for Es, then each half of the noise.
    buf = np.abs(samples)
    buf *= buf
    # Es as np.mean takes it, without its Python wrapper: the same double.
    noise_var = float(np.add.reduce(buf) / buf.size) / (10.0 ** (ch.snr_db / 10.0))
    std = math.sqrt(noise_var / 2.0)
    rng = np.random.default_rng([ch.channel_seed & 0xFFFFFFFFFFFFFFFF, 0x6E])
    for part in (out.real, out.imag):
        rng.standard_normal(out=buf)
        buf *= std
        part += buf
    return out


def ofdm_demodulate_equalize(samples: np.ndarray, ch, n_symbols=None) -> np.ndarray:
    """Strip CP, unitary FFT, divide by the genie channel response per bin.

    ``ch`` is one ChannelModel for every OFDM symbol, or a sequence of them
    where ``ch[i]`` covers the next ``n_symbols[i]`` symbols: frames sent
    back to back, each through its own channel.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    sym_len = N_FFT + CP_LEN
    if samples.size % sym_len:
        raise ValueError(f"sample count must be divisible by {sym_len}")
    freq = np.fft.fft(samples.reshape(-1, sym_len)[:, CP_LEN:], norm="ortho", axis=1)
    if n_symbols is None:
        ch, n_symbols = (ch,), (len(freq),)
    if sum(n_symbols) != len(freq) or len(n_symbols) != len(ch):
        raise ValueError("the channels' symbol counts must add up to the symbols received")
    # Every channel's zero-padded taps in one array, for one FFT.
    responses = np.zeros((len(ch), N_FFT), dtype=np.complex128)
    for row, c in zip(responses, ch):
        taps = realize_taps(c)
        row[:taps.size] = taps
    start = 0
    for response, n in zip(np.fft.fft(responses, axis=1), n_symbols):
        freq[start:start + n] /= response
        start += n
    return freq.ravel()


def measure_ber(tx: BitString, rx: BitString) -> float:
    tx = np.asarray(tx, dtype=np.uint8)
    rx = np.asarray(rx, dtype=np.uint8)
    if tx.size != rx.size or tx.size == 0:
        raise ValueError("bit strings must have equal nonzero length")
    return float(np.count_nonzero(tx != rx)) / tx.size


def ber_16qam_awgn_theory(snr_db: float) -> float:
    """Gray-16QAM AWGN approximation: (3/8) erfc(sqrt(SNR_lin / 10))."""
    snr_lin = 10.0 ** (snr_db / 10.0)
    return 0.375 * math.erfc(math.sqrt(snr_lin / 10.0))
