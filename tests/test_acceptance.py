"""End-to-end acceptance checks.

Each test prints one summary line so a verbose run reads as a checklist.
Numeric fixtures (golden keys, dispersion entropies) were pinned from a
reference run of this package and guard against silent drift.
"""
import math
import time

import numpy as np
import pytest

from semshield.bits import hex_from_bits
from semshield.codec import CodecModel, bleu_scores, decode, encode, make_corpus
from semshield.experiments import (
    ExperimentConfig,
    run_ber_sweep,
    run_bleu_compare,
    run_dispersion,
    run_keygen_demo,
)
from semshield.keying import (
    Keystream,
    chacha20_stream,
    generate_skey,
    weight_generator,
)
from semshield.obfuscation import (
    ObfuscationParams,
    deobfuscate,
    obfuscate,
    ota_bits,
    recover_bits,
)
from semshield.ofdm import (
    N_FFT,
    ChannelModel,
    apply_channel,
    measure_ber,
    ofdm_demodulate_equalize,
    ofdm_modulate,
    qam16_demap,
    qam16_map,
)
from semshield.security import (
    analyze,
    ss_dummy_location,
    ss_dummy_location_dynamic,
    ss_seedkey_baseline,
    ss_seedkey_dynamic,
)

from spec import ber_16qam_awgn_theory, brute_force_placements

CHACHA_ZERO_KEYSTREAM = (
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
    "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
)

# SKey hex values pinned from the reference run over the frozen corpus
GOLDEN_SKEYS = {
    0: "6045abad4357bfa18653e6e4dec68704",
    1: "993a4a347ce5523af2f43c744a893174",
    2: "af7fc92737d6088221f0de61c43739cc",
    99: "7f4f68691bb613855a999821091f667b",
}

# (distinct value count, histogram entropy in bits) per score channel,
# pinned from the reference dispersion run
DISPERSION_PINS = {
    "s1": (82, 3.6797470458753274),
    "s2": (122, 4.342543678244893),
    "s3": (139, 4.664521112559244),
    "s4": (151, 4.7959848464931305),
    "weighted_sum": (1000, 5.952400286756305),
}


def _noiseless_chain(ota, pad_rng):
    """Modulate, pass through a clean channel, and demodulate the air bits."""
    grid = N_FFT * 4
    total = -(-ota.size // grid) * grid
    filler = pad_rng.integers(0, 2, total - ota.size).astype(np.uint8)
    padded = np.concatenate([ota, filler]) if filler.size else ota
    ch = ChannelModel(kind="awgn")
    rx = qam16_demap(ofdm_demodulate_equalize(
        apply_channel(ofdm_modulate(qam16_map(padded)), ch), ch))
    return rx[: ota.size]


def test_acceptance_1_round_trip_identity():
    start = time.monotonic()
    rng = np.random.default_rng(0xC1)
    for case in range(200):
        s_max = int(rng.integers(1, 5))
        n_d = int(rng.integers(2, 65))
        k_max = int(rng.integers(1, min(n_d, 11)))
        b = int(rng.choice([1, 2, 4]))
        vocab = int(rng.choice([16, 256, 4096]))
        p = ObfuscationParams(s_max=s_max, k_max=k_max, n_d=n_d, b=b)
        model = CodecModel(vocab_size=vocab, deviation_rate=0.0)
        data = rng.integers(0, 2, int(rng.integers(1, 3000))).astype(np.uint8)
        seed = rng.integers(0, 2, 128).astype(np.uint8)

        frame = obfuscate(data, seed, p, model)
        assert np.array_equal(deobfuscate(frame, seed, p), data), case

        rx = _noiseless_chain(ota_bits(frame), rng)
        out = recover_bits(rx, frame.l_d, seed, p)
        assert measure_ber(data, out) == 0.0, case
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"acceptance 1 (round-trip identity, 200 cases): PASS [{elapsed:.2f}s]")


def test_acceptance_2_eavesdropper_collapse():
    start = time.monotonic()
    cfg = ExperimentConfig(scenario="ber_sweep", n_bits=100_000, master_seed=0)
    rows = run_ber_sweep(cfg)
    assert len(rows) == 9
    for row in rows:
        assert 0.47 <= row["ber_eavesdropper"] <= 0.53, row
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"acceptance 2 (wrong-seed receiver pinned at ~0.5): PASS [{elapsed:.2f}s]")


def test_acceptance_3_transparency():
    cfg = ExperimentConfig(scenario="ber_sweep", n_bits=1_000_000, master_seed=0)
    for row in run_ber_sweep(cfg):
        p_hat = 0.5 * (row["ber_legit"] + row["ber_plain"])
        sigma = math.sqrt(2.0 * p_hat * (1.0 - p_hat) / cfg.n_bits)
        diff = abs(row["ber_legit"] - row["ber_plain"])
        assert diff <= 3.0 * sigma, row

    bleu_cfg = ExperimentConfig(scenario="bleu_compare", snr_list=(math.inf,),
                                n_sentences=120, master_seed=3)
    rows = run_bleu_compare(bleu_cfg)
    assert len(rows) == 4
    for row in rows:
        assert row["bleu_enc"] == row["bleu_noenc"], row
    print("acceptance 3 (encryption transparent to the legitimate link): PASS")


def test_acceptance_4_phy_error_rates_track_theory():
    start = time.monotonic()
    n_bits = 4096 * N_FFT * 4  # whole OFDM blocks, > 10^6 bits
    for snr_db in (8.0, 12.0, 16.0):
        rng = np.random.default_rng([0xC4, int(snr_db)])
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        ch = ChannelModel(kind="awgn", snr_db=snr_db,
                          channel_seed=int(snr_db) + 777)
        rx = qam16_demap(ofdm_demodulate_equalize(
            apply_channel(ofdm_modulate(qam16_map(bits)), ch), ch))
        ber = measure_ber(bits, rx)
        theory = ber_16qam_awgn_theory(snr_db)
        assert abs(ber - theory) <= 0.25 * theory, (snr_db, ber, theory)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"acceptance 4 (uncoded 16QAM tracks closed form): PASS [{elapsed:.2f}s]")


def test_acceptance_5_search_space_oracle():
    # closed form equals exhaustive enumeration on every tractable shape
    checked = 0
    for n_d in range(1, 25):
        for s in range(1, 24 // n_d + 1):
            for k in range(1, s * n_d):
                assert ss_dummy_location(s, k, n_d).exact == \
                    brute_force_placements(n_d, s, k)
                checked += 1
    assert checked > 500

    # compositional identities as exact integers
    for s_max, k_max, n_d in [(2, 2, 4), (3, 7, 16), (4, 10, 64)]:
        total = sum(
            ss_dummy_location(s, k, n_d).exact
            for s in range(1, s_max + 1)
            for k in range(1, k_max + 1)
            if k < s * n_d
        )
        assert ss_dummy_location_dynamic(s_max, k_max, n_d).exact == total
    for s_max, k_max, n_d, n_unit in [(2, 2, 4, 3), (4, 10, 64, 16)]:
        dyn = ss_dummy_location_dynamic(s_max, k_max, n_d).exact
        eq5 = analyze(s_max=s_max, k_max=k_max, n_d=n_d, n_unit=n_unit)["eq5"]
        assert int(eq5["exact"]) == dyn ** n_unit
    report = analyze(s_max=4, k_max=10, n_d=64, n_unit=16, l_seedkey=128)
    combined = int(report["eq11"]["exact"])
    assert combined == (int(report["eq5"]["exact"])
                        * ss_seedkey_dynamic(4, 10, 16, 128).exact)

    # layered defaults strictly beat the fixed-parameter baseline
    baseline = ss_seedkey_baseline(4, 10, 128).exact
    assert combined > baseline
    print(f"acceptance 5 (search-space oracle, {checked} shapes): PASS")


def _skey_series():
    model = CodecModel()  # 10% substitution noise
    corpus = make_corpus(100, model, seed=2026)
    ks = Keystream(bytes(32), "weights")
    hexes = []
    for i, sentence in enumerate(corpus):
        decoded = decode(encode(sentence, model), model, noise_seed=i)
        scores = bleu_scores(sentence, decoded)
        weights = weight_generator(ks)
        hexes.append(hex_from_bits(generate_skey(scores, weights, 128)))
    return hexes


def test_acceptance_6_key_determinism_and_distinctness():
    first = _skey_series()
    second = _skey_series()
    assert first == second
    for idx, expect in GOLDEN_SKEYS.items():
        assert first[idx] == expect, idx
    assert len(set(first)) >= 99

    # a static environment collapses channel-derived entropy but the
    # seed key keeps its full length
    cfg = ExperimentConfig(scenario="keygen_demo", static_channel=True,
                           n_probes=512)
    report = run_keygen_demo(cfg)
    assert report["plk_entropy_estimate"] == 0.0
    assert report["insufficient_entropy"] is True
    assert len(report["seed_hex"]) * 4 == 128
    print(f"acceptance 6 (deterministic keys, {len(set(first))}/100 distinct): PASS")


def test_acceptance_7_keystream_conformance():
    out = chacha20_stream(bytes(32), bytes(12), 0, 64)
    assert out.hex() == CHACHA_ZERO_KEYSTREAM

    # the bit-level reader reproduces the same stream when handed the
    # reference nonce directly
    ks = Keystream(bytes(32), "unused-label", nonce=bytes(12))
    packed = np.packbits(ks.bits(512)).tobytes()
    assert packed.hex() == CHACHA_ZERO_KEYSTREAM
    print("acceptance 7 (stream cipher matches published vector): PASS")


def test_acceptance_8_score_dispersion():
    cfg = ExperimentConfig(scenario="dispersion", n_sentences=1000,
                           master_seed=0)
    report = run_dispersion(cfg)
    channels = report["channels"]
    for name, (distinct, entropy) in DISPERSION_PINS.items():
        assert channels[name]["distinct"] == distinct, name
        assert channels[name]["entropy"] == pytest.approx(entropy, rel=1e-12)
    weighted = channels["weighted_sum"]["entropy"]
    for gram in ("s1", "s2", "s3", "s4"):
        assert weighted >= channels[gram]["entropy"]
    print(f"acceptance 8 (weighted scores disperse, {weighted:.2f} bits): PASS")
