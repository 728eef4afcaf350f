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

from .bits import BitString

N_FFT = 64
CP_LEN = 16
BITS_PER_SYMBOL = 4

_SCALE = 1.0 / math.sqrt(10.0)
# Gray map per axis: 2-bit value b_hi b_lo indexes the level.
_LEVEL_BY_VALUE = np.array([-3.0, -1.0, 3.0, 1.0])  # 00, 01, 10, 11
_BITS_BY_LEVEL_IDX = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)

KIND_AWGN = "awgn"
KIND_RAYLEIGH_FLAT = "rayleigh_flat"
KIND_RAYLEIGH_MULTIPATH = "rayleigh_multipath"
_KINDS = (KIND_AWGN, KIND_RAYLEIGH_FLAT, KIND_RAYLEIGH_MULTIPATH)


def qam16_map(bits: BitString) -> np.ndarray:
    """Gray-mapped 16QAM: per 4 bits, I from the first pair, Q from the second."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 4:
        raise ValueError("bit count must be divisible by 4")
    quads = bits.reshape(-1, 4)
    i_val = (quads[:, 0] << 1) | quads[:, 1]
    q_val = (quads[:, 2] << 1) | quads[:, 3]
    return _SCALE * (_LEVEL_BY_VALUE[i_val] + 1j * _LEVEL_BY_VALUE[q_val])


def _axis_decide(x: np.ndarray) -> np.ndarray:
    """Index 0-3 of the nearest of the four levels -3, -1, 1, 3 (times _SCALE)."""
    idx = np.floor((x / _SCALE + 4.0) / 2.0)
    return np.clip(idx, 0, 3).astype(np.int64)


def qam16_demap(symbols: np.ndarray) -> BitString:
    """Hard-decision inverse of qam16_map (nearest constellation point).

    Raises ValueError for NaN or infinite symbols, which have no nearest point.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if not np.isfinite(symbols).all():
        raise ValueError("symbols must be finite")
    i_idx = _axis_decide(symbols.real)
    q_idx = _axis_decide(symbols.imag)
    out = np.empty((symbols.size, 4), dtype=np.uint8)
    out[:, :2] = _BITS_BY_LEVEL_IDX[i_idx]
    out[:, 2:] = _BITS_BY_LEVEL_IDX[q_idx]
    return out.ravel()


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

    ``snr_db`` is a finite number or +inf, which turns the noise off.
    """

    kind: str = KIND_AWGN
    snr_db: float = math.inf
    taps: int = 1
    channel_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or +inf, not {self.snr_db}")
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
    the input samples; snr_db = +inf disables noise.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    h = realize_taps(ch)
    out = np.convolve(samples, h)[: samples.size] if h.size > 1 or h[0] != 1.0 else samples.copy()
    if ch.snr_db == math.inf:
        return out
    es = float(np.mean(np.abs(samples) ** 2))
    noise_var = es / (10.0 ** (ch.snr_db / 10.0))
    rng = np.random.default_rng([ch.channel_seed & 0xFFFFFFFFFFFFFFFF, 0x6E])
    noise = rng.standard_normal(samples.size) + 1j * rng.standard_normal(samples.size)
    return out + noise * math.sqrt(noise_var / 2.0)


def ofdm_demodulate_equalize(samples: np.ndarray, ch: ChannelModel) -> np.ndarray:
    """Strip CP, unitary FFT, divide by the genie channel response per bin."""
    samples = np.asarray(samples, dtype=np.complex128)
    sym_len = N_FFT + CP_LEN
    if samples.size % sym_len:
        raise ValueError(f"sample count must be divisible by {sym_len}")
    blocks = samples.reshape(-1, sym_len)[:, CP_LEN:]
    freq = np.fft.fft(blocks, norm="ortho", axis=1)
    h = realize_taps(ch)
    response = np.fft.fft(h, n=N_FFT)
    return (freq / response).ravel()


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
