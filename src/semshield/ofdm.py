"""16QAM OFDM baseband: mapping, modulation, block-fading channels, BER.

The chain is map -> unitary IFFT + cyclic prefix -> channel -> strip CP +
unitary FFT -> genie one-tap zero-forcing equalizer -> hard-decision
demap.  All 64 subcarriers carry data and the channel is constant within
a frame; realized tap power is normalized to exactly 1 so the per-bin
SNR tracks the configured value for every seed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bit_array, _rng
from .fields import check_fields, describe

N_FFT = 64
CP_LEN = 16
BITS_PER_SYMBOL = 4

_SCALE = 1.0 / math.sqrt(10.0)
# Gray map per axis: 2-bit value b_hi b_lo indexes the level.
_LEVEL_BY_VALUE = np.array([-3.0, -1.0, 3.0, 1.0])  # 00, 01, 10, 11
# The point of the four bits b0 b1 b2 b3, at index 8*b0 + 4*b1 + 2*b2 + b3.
_POINTS = _SCALE * (np.repeat(_LEVEL_BY_VALUE, 4) + 1j * np.tile(_LEVEL_BY_VALUE, 4))
# The two points of each packed byte: its high nibble's, then its low nibble's.
_POINT_PAIRS = _POINTS[np.arange(256)[:, None] >> np.array([4, 0]) & 15]
# Per axis value x, the least doubles at which demap's z = (x/_SCALE + 4)/2
# reaches 1, 2 and 3 in float64: -2*_SCALE, -_SCALE * 2**-52 (4 - 2**-52
# rounds to 4, so the high bit is set a little below 0) and the double below
# 2*_SCALE.
_Z1 = float.fromhex("-0x1.43d136248490fp-1")
_Z2 = float.fromhex("-0x1.43d136248490fp-54")
_Z3 = float.fromhex("0x1.43d136248490ep-1")

KIND_AWGN = "awgn"
KIND_RAYLEIGH_FLAT = "rayleigh_flat"
KIND_RAYLEIGH_MULTIPATH = "rayleigh_multipath"
_KINDS = (KIND_AWGN, KIND_RAYLEIGH_FLAT, KIND_RAYLEIGH_MULTIPATH)
# Largest finite |snr_db|: 10 ** (snr_db / 10) and the noise variance it
# divides stay finite and non-zero.
MAX_SNR_DB = 300.0
# Per tap, sqrt(p / 2) of an exponential power-delay profile p falling
# 3 dB per tap: the std of a realized tap's real and imaginary parts.
_TAP_STD = np.sqrt(10.0 ** (-0.3 * np.arange(CP_LEN)) / 2.0)
# Samples per block of _convolve: each float64 operand of a block is about
# 128 KB, so all of them stay in L2.
_BLOCK = 8192


def qam16_map(bits: BitString) -> np.ndarray:
    """Gray-mapped 16QAM: per 4 bits, I from the first pair, Q from the second.

    Values other than 0 and 1 raise ValueError.
    """
    bits = _bit_array(bits, "bits")
    if bits.size % 4:
        raise ValueError("bit count must be divisible by 4")
    # One table read per packed byte; an odd last nibble's partner is dropped.
    return _POINT_PAIRS.take(np.packbits(bits), axis=0).ravel()[:bits.size // 4]


def qam16_demap(symbols: np.ndarray) -> BitString:
    """Hard-decision inverse of qam16_map (nearest constellation point).

    Per axis, with ``z = (x/_SCALE + 4)/2`` the nearest of the levels -3, -1,
    1, 3 (times _SCALE) has index ``clip(floor(z), 0, 3)``; its Gray bits are
    ``z >= 2`` and ``1 <= z < 3``, read off ``x`` at the doubles _Z1-_Z3.
    Symbols that are not 1-D, or NaN or infinite ones, raise ValueError.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 1:
        raise ValueError(f"symbols must be 1-D, not of shape {symbols.shape}")
    x = np.ascontiguousarray(symbols).view(np.float64)  # re, im, re, im, ...
    if not np.isfinite(x).all():
        raise ValueError("symbols must be finite")
    low = x >= _Z1
    low ^= x >= _Z3
    # Per axis one little-endian uint16: the high bit in its first byte, the
    # low bit in its second, so that its bytes are the axis's two bits.
    bits = low.astype("<u2")
    bits <<= 8
    bits |= x >= _Z2
    return bits.view(np.uint8)


def ofdm_modulate(symbols: np.ndarray) -> np.ndarray:
    """Unitary 64-point IFFT per block with a 16-sample cyclic prefix."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size % N_FFT:
        raise ValueError(f"symbol count must be divisible by {N_FFT}")
    frame = np.empty((symbols.size // N_FFT, CP_LEN + N_FFT), dtype=np.complex128)
    np.fft.ifft(symbols.reshape(-1, N_FFT), norm="ortho", axis=1, out=frame[:, CP_LEN:])
    frame[:, :CP_LEN] = frame[:, N_FFT:]
    return frame.ravel()


# The rules of the ChannelModel fields other than snr_db, which may be +inf.
_CHANNEL_RULES = {
    "kind": (_KINDS, None, None),
    "taps": (int, 1, CP_LEN),
    "channel_seed": (int, None, None),
}


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
        check_fields(self, _CHANNEL_RULES)
        if isinstance(self.snr_db, bool) or not isinstance(self.snr_db, numbers.Real):
            raise ValueError(f"snr_db must be a real number, not {describe(self.snr_db)}")
        if not (abs(self.snr_db) <= MAX_SNR_DB or self.snr_db == math.inf):
            raise ValueError(f"snr_db must lie in [-{MAX_SNR_DB}, {MAX_SNR_DB}] or be +inf, not {self.snr_db}")
        if self.kind != KIND_RAYLEIGH_MULTIPATH and self.taps != 1:
            raise ValueError("multiple taps require the multipath kind")


def realize_taps(ch: ChannelModel) -> np.ndarray:
    """Impulse response for one frame; realized power is normalized to 1."""
    if ch.kind == KIND_AWGN:
        return np.ones(1, dtype=np.complex128)
    n = 1 if ch.kind == KIND_RAYLEIGH_FLAT else ch.taps
    # n real parts, then n imaginary parts
    z = _rng(ch.channel_seed, 0x74).standard_normal(2 * n)
    h = (z[:n] + 1j * z[n:]) * _TAP_STD[:n]
    power = np.abs(h)
    power *= power
    return h / math.sqrt(np.add.reduce(power))


def _convolve(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The first ``samples.size`` outputs of the convolution with ``taps``,
    in float64 multiplies and adds only, the same doubles on every CPU.

    ``samples`` is contiguous complex128.  Each tap ``a + ib`` adds
    ``a * (re, im)`` and then ``b * (-im, re)`` into the output delayed by
    its index, tap by tap in order; tap 0's a-term is written, not added.
    The work runs in blocks of _BLOCK samples.
    """
    x = samples.view(np.float64)
    out = np.empty_like(samples)
    y = out.view(np.float64)
    a, b = taps.real.tolist(), taps.imag.tolist()
    reach = 2 * taps.size - 2  # floats of history a block reads
    step = 2 * _BLOCK
    swapped = np.empty(min(x.size, step + reach))
    term = np.empty(min(x.size, step))
    for start in range(0, x.size, step):
        stop = min(start + step, x.size)
        low = max(start - reach, 0)
        src = x[low:stop]
        # (-im, re) per sample of the block and its history
        swap = swapped[:src.size]
        np.negative(src[1::2], out=swap[0::2])
        swap[1::2] = src[0::2]
        dst, t = y[start:stop], term[:stop - start]
        lag = start - low  # src[lag:] lines up with dst
        np.multiply(src[lag:], a[0], out=dst)
        np.multiply(swap[lag:], b[0], out=t)
        dst += t
        for k in range(1, taps.size):
            lag -= 2
            # Before the first sample no history exists: skip those outputs.
            cut = max(-lag, 0)
            if cut >= dst.size:
                break
            out_k, term_k, i = dst[cut:], t[cut:], lag + cut
            np.multiply(src[i:i + term_k.size], a[k], out=term_k)
            out_k += term_k
            np.multiply(swap[i:i + term_k.size], b[k], out=term_k)
            out_k += term_k
    return out


def apply_channel(samples: np.ndarray, ch: ChannelModel) -> np.ndarray:
    """Convolve with the realized taps and add seeded complex AWGN.

    Noise variance per sample is Es/SNR_lin with Es the mean energy of
    the input samples; snr_db = +inf disables noise.  The real parts of
    the noise are drawn first, then the imaginary parts, each added into
    the output in place; the input is never written.  For every kind, a
    ``samples`` that is not 1-D raises ValueError and an empty one comes
    back as an empty array.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, not of shape {samples.shape}")
    if not samples.size:
        return samples.copy()
    out = samples.copy() if ch.kind == KIND_AWGN else _convolve(np.ascontiguousarray(samples), realize_taps(ch))
    if ch.snr_db == math.inf:
        return out
    # One float buffer holds |samples|**2 for Es, then each half of the noise.
    buf = np.abs(samples)
    buf *= buf
    # Es as np.mean takes it, without its Python wrapper: the same double.
    noise_var = float(np.add.reduce(buf) / buf.size) / (10.0 ** (ch.snr_db / 10.0))
    std = math.sqrt(noise_var / 2.0)
    rng = _rng(ch.channel_seed, 0x6E)
    for part in (out.real, out.imag):
        rng.standard_normal(out=buf)
        buf *= std
        part += buf
    return out


def ofdm_demodulate_equalize(samples: np.ndarray, ch, n_symbols) -> np.ndarray:
    """Strip CP, unitary FFT, divide by the genie channel response per bin.

    ``ch`` is a sequence of ChannelModels where ``ch[i]`` covers the next
    ``n_symbols[i]`` OFDM symbols: frames sent back to back, each through
    its own channel.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    sym_len = N_FFT + CP_LEN
    if samples.size % sym_len:
        raise ValueError(f"sample count must be divisible by {sym_len}")
    freq = np.fft.fft(samples.reshape(-1, sym_len)[:, CP_LEN:], norm="ortho", axis=1)
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
