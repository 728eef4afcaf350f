"""16QAM OFDM baseband: mapping, modulation, block-fading channels, BER.

The chain is map -> unitary IFFT + cyclic prefix -> channel -> strip CP +
unitary FFT -> genie one-tap zero-forcing equalizer -> hard-decision
demap.  All 64 subcarriers carry data and the channel is constant within
a frame; realized tap power is normalized to exactly 1 so the per-bin
SNR tracks the configured value for every seed.

The channel runs in blocks of _BLOCK_SYMBOLS = 102 OFDM symbols (8,160
samples), and the experiments stream the whole chain in those blocks.
The noise of a frame has one fixed order: all its real parts are drawn
first, then the imaginary parts block by block, from one generator.
Blocks change no output byte.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bit_array, _rng
from .fields import check_fields, describe, is_int

N_FFT = 64
CP_LEN = 16
SYMBOL_LEN = N_FFT + CP_LEN
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
# OFDM symbols per block of the streamed chain, 102 (8,160 samples): each
# complex array of a block is about 128 KB, so a block's arrays stay in L2.
_BLOCK_SYMBOLS = 8192 // SYMBOL_LEN


def qam16_map(bits: BitString) -> np.ndarray:
    """Gray-mapped 16QAM: per 4 bits, I from the first pair, Q from the second.

    Bits that are not 1-D, or values other than 0 and 1, raise ValueError.
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


def ofdm_modulate(symbols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary 64-point IFFT per OFDM symbol with a 16-sample cyclic prefix.

    The samples are written into ``out`` when it is given: a complex128
    array of one row of SYMBOL_LEN samples per OFDM symbol.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size % N_FFT:
        raise ValueError(f"symbol count must be divisible by {N_FFT}")
    shape = (symbols.size // N_FFT, SYMBOL_LEN)
    if out is None:
        frame = np.empty(shape, dtype=np.complex128)
    elif out.shape == shape and out.dtype == np.complex128:
        frame = out
    else:
        raise ValueError(f"out must be a complex128 array of shape {shape}")
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


def _convolve(samples: np.ndarray, start: int, stop: int, taps: np.ndarray) -> np.ndarray:
    """Outputs ``start`` to ``stop`` of the convolution of ``samples`` with
    ``taps``, in float64 multiplies and adds only, the same doubles on every
    CPU and for every split into blocks.

    ``samples`` is contiguous complex128.  Each tap ``a + ib`` adds
    ``a * (re, im)`` and then ``b * (-im, re)`` into the output delayed by
    its index, tap by tap in order; tap 0's a-term is written, not added.
    """
    x = samples.view(np.float64)
    out = np.empty(stop - start, dtype=np.complex128)
    dst = out.view(np.float64)
    low = max(2 * start - 2 * taps.size + 2, 0)  # the history the block reads
    src = x[low:2 * stop]
    t = np.empty_like(dst)
    lag = 2 * start - low  # src[lag:] lines up with dst
    for k, (a, b) in enumerate(zip(taps.real.tolist(), taps.imag.tolist())):
        # Before the first sample no history exists: skip those outputs.
        cut = max(-lag, 0)
        if cut >= dst.size:
            break
        y, term, x_k = dst[cut:], t[cut:], src[lag + cut:lag + dst.size]
        if k:
            np.multiply(x_k, a, out=term)
            y += term
        else:
            np.multiply(x_k, a, out=y)
        # b * (-im, re), added as y.re - b*im and y.im + b*re: the same doubles
        np.multiply(x_k, b, out=term)
        y[0::2] -= term[1::2]
        y[1::2] += term[0::2]
        lag -= 2
    return out


def _add_noise(out: np.ndarray, real: np.ndarray, imag: np.ndarray, std: float) -> None:
    """Add ``std * real`` into the real parts of ``out``, then ``std * imag``
    into its imaginary parts; the draws are scaled in place and let go of
    on return."""
    real *= std
    out.real += real
    imag *= std
    out.imag += imag


def _channel_blocks(samples: np.ndarray, ch: ChannelModel, taps: np.ndarray):
    """Yield the channel output of ``samples`` block by block.

    ``samples`` is 1-D contiguous complex128, ``taps`` the realized taps of
    ``ch``.  Each block holds _BLOCK_SYMBOLS symbols' samples, the last one
    fewer.  Es is the mean of |samples|**2 over all of them.  Every real
    part of the noise is drawn first, one array per block that goes with
    its block; each block draws its imaginary parts as it is made.  The
    generator lets go of a block before it makes the next one.
    """
    step = _BLOCK_SYMBOLS * SYMBOL_LEN
    starts = range(0, samples.size, step)
    noisy = ch.snr_db != math.inf
    if noisy:
        power = np.abs(samples)
        power *= power
        # Es as np.mean takes it, without its Python wrapper: the same double.
        noise_var = float(np.add.reduce(power) / power.size) / (10.0 ** (ch.snr_db / 10.0))
        del power  # the real parts of the noise take its place
        std = math.sqrt(noise_var / 2.0)
        rng = _rng(ch.channel_seed, 0x6E)
        reals = [rng.standard_normal(min(step, samples.size - start)) for start in starts]
    for start in starts:
        stop = min(start + step, samples.size)
        out = samples[start:stop].copy() if ch.kind == KIND_AWGN else _convolve(samples, start, stop, taps)
        if noisy:
            _add_noise(out, reals.pop(0), rng.standard_normal(stop - start), std)
        yield out
        del out


def apply_channel(samples: np.ndarray, ch: ChannelModel) -> np.ndarray:
    """Convolve with the realized taps and add seeded complex AWGN.

    Noise variance per sample is Es/SNR_lin with Es the mean energy of
    the input samples; snr_db = +inf disables noise.  The real parts of
    the noise are drawn first, then the imaginary parts; the input is
    never written.  For every kind, a ``samples`` that is not 1-D raises
    ValueError and an empty one comes back as an empty array.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, not of shape {samples.shape}")
    if not samples.size:
        return samples.copy()
    return np.concatenate(list(_channel_blocks(np.ascontiguousarray(samples), ch, realize_taps(ch))))


def ofdm_demodulate_equalize(samples: np.ndarray, taps, n_symbols) -> np.ndarray:
    """Strip CP, unitary FFT, divide by the genie channel response per bin.

    ``taps`` is a sequence of realized impulse responses (realize_taps)
    where ``taps[i]`` covers the next ``n_symbols[i]`` OFDM symbols: frames
    sent back to back, each through its own channel.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.size % SYMBOL_LEN:
        raise ValueError(f"sample count must be divisible by {SYMBOL_LEN}")
    freq = np.fft.fft(samples.reshape(-1, SYMBOL_LEN)[:, CP_LEN:], norm="ortho", axis=1)
    if not all(is_int(n) and n >= 0 for n in n_symbols) or sum(n_symbols) != len(freq) or len(n_symbols) != len(taps):
        raise ValueError("the channels' symbol counts must be >= 0 and add up to the symbols received")
    # Every channel's zero-padded taps in one array, for one FFT.
    responses = np.zeros((len(taps), N_FFT), dtype=np.complex128)
    for row, h in zip(responses, taps):
        row[:h.size] = h
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
