"""Pinned draws of every seeded numpy generator at the seed values where the
entropy words of a seed change shape, and the one seeding helper.

A seed value is masked to 64 bits and split into 32-bit words: one word
below 2**32, two from 2**32 up.  Each digest hashes one function's output
for all of ``SEEDS``, so a change in how any seed becomes a generator
changes it.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semshield.bits import _rng

from semshield.codec import CodecModel, decode, encode, make_corpus
from semshield.experiments import derive_rng
from semshield.keying import InsufficientEntropyError, rayleigh_trace, simulate_plk
from semshield.ofdm import ChannelModel, apply_channel, realize_taps

# -1 masks to 2**64 - 1.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1)

_SENTENCE = np.arange(1, 41) * 97 % 4096
_SIGNAL = np.exp(2j * np.pi * np.arange(160) / 7.0) * (1 + np.arange(160) % 3)


def _decode(seed):
    bits = encode(_SENTENCE, CodecModel())
    return [decode(bits, CodecModel(deviation_rate=0.5, codec_seed=seed), noise_seed=3),
            decode(bits, CodecModel(deviation_rate=0.5, codec_seed=3), noise_seed=seed)]


def _make_corpus(seed):
    return make_corpus(4, CodecModel(), seed)


def _rayleigh_trace(seed):
    return [rayleigh_trace(64, seed, coherence=2).samples]


def _simulate_plk(seed):
    trace = rayleigh_trace(4096, 7, probe_noise_std=0.3)
    try:
        plk, entropy = simulate_plk(trace, 128, 0.2, noise_seed=seed)
    except InsufficientEntropyError as exc:
        return [np.array([exc.agreed_bits, exc.entropy_estimate])]
    return [plk, np.array([entropy])]


def _apply_channel(seed):
    ch = ChannelModel(kind="rayleigh_multipath", snr_db=10.0, taps=3, channel_seed=seed)
    return [realize_taps(ch), apply_channel(_SIGNAL, ch)]


def _derive_rng(seed):
    return [derive_rng(seed, "pin", 2).integers(0, 2**63, 8)]


def _digest(function):
    h = hashlib.sha256()
    for seed in SEEDS:
        for array in function(seed):
            array = np.asarray(array)
            h.update(array.astype(array.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


PINS = {
    _decode:
        "4c05787b59d90607391baaa34c55103d1d5027d3570fee2202ee03eb313b255a",
    _make_corpus:
        "31c88f3c466542520296307b9356f4bce466abbb256ab4e743bf7287cb3df07d",
    _rayleigh_trace:
        "17ac471810141cb94be3d6a58e2b15a6a2c4af109c66c6121d8afb200ef1f955",
    _simulate_plk:
        "e1f6456723f71a36ecc3d0a0829f76db2215dc053a35daa566930e88f77b141f",
    _apply_channel:
        "44a6ebeadd5a7c52ad7b14c4e81a67b1e719511ea0436f4c922919c8bcbacc2b",
    _derive_rng:
        "d66e6355d32eec745ba4b117fda09bc8170080bf1bdd8b2fbe2f02e92519e1c8",
}


@pytest.mark.parametrize("function", PINS, ids=lambda f: f.__name__.lstrip("_"))
def test_seed_edges_pinned(function):
    assert _digest(function) == PINS[function]


@pytest.mark.parametrize("function", [_decode, _make_corpus, _rayleigh_trace, _simulate_plk,
                                      _apply_channel], ids=lambda f: f.__name__.lstrip("_"))
def test_negative_seed_is_its_64_bit_mask(function):
    for a, b in zip(function(-1), function(2**64 - 1)):
        assert np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(SEEDS), st.integers(-2**70, 2**70),
                                 st.integers(0, 2**32)), min_size=1, max_size=4))
@example(values=[0])
@example(values=[2**32, 0])
@example(values=[2**64 + 7, -2**32])
def test_rng_draws_what_default_rng_of_the_masked_list_draws(values):
    want = np.random.default_rng([v & 0xFFFFFFFFFFFFFFFF for v in values])
    got = _rng(*values)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**63, 4).tolist() == want.integers(0, 2**63, 4).tolist()
