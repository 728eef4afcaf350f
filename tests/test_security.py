import math

import numpy as np
import pytest

from semshield.codec import Q32_MAX, CodecModel, bleu_scores, make_corpus
from semshield.keying import Keystream
from semshield.security import (
    N_HISTOGRAM_BINS,
    analyze,
    bleu_dispersion_report,
    brute_force_placements,
    histogram_entropy,
    score_histogram,
    ss_data,
    ss_dummy_location,
    ss_dummy_location_dynamic,
    ss_seedkey,
    ss_seedkey_baseline,
    ss_seedkey_dynamic,
    ss_skey,
    ss_total,
    ss_weight,
)


class TestPerUnitCounts:
    def test_single_dummy_single_symbol(self):
        r = ss_dummy_location(1, 1, 64)
        assert r.exact == 64
        assert r.log2 == pytest.approx(6.0)

    def test_known_binomial(self):
        assert ss_dummy_location(2, 2, 64).exact == math.comb(128, 2) == 8128

    def test_matches_exhaustive_enumeration(self):
        assert ss_dummy_location(1, 3, 4).exact == brute_force_placements(4, 1, 3)
        assert ss_dummy_location(1, 3, 4).exact == 4

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            ss_dummy_location(1, 4, 4)

    def test_dynamic_small_cases(self):
        assert ss_dummy_location_dynamic(1, 1, 64).exact == 64
        # sum over s in 1..2, k in 1..2 of C(4s, k)
        assert ss_dummy_location_dynamic(2, 2, 4).exact == 46

    def test_dynamic_equals_binomial_sum(self):
        # k_max reaches past s*n_d for the small units, where k < s*n_d drops terms.
        for s_max in (1, 2, 3):
            for k_max in (1, 2, 5, 9):
                for n_d in (1, 2, 3, 8):
                    total = sum(math.comb(s * n_d, k) for s in range(1, s_max + 1)
                                for k in range(1, k_max + 1) if k < s * n_d)
                    if total:
                        assert ss_dummy_location_dynamic(s_max, k_max, n_d).exact == total
                    else:
                        with pytest.raises(ValueError, match=">= 1"):
                            ss_dummy_location_dynamic(s_max, k_max, n_d)

    def test_dynamic_past_4300_digits_refused(self):
        # The running sum passes 10**4300 at k = 1,286, long before k = 2**19.
        with pytest.raises(ValueError, match="eq4 has more than 4300 decimal digits"):
            ss_dummy_location_dynamic(1, 2**19, 2**20)

    def test_dynamic_monotone_in_bounds(self):
        base = ss_dummy_location_dynamic(2, 3, 16).exact
        assert ss_dummy_location_dynamic(3, 3, 16).exact > base
        assert ss_dummy_location_dynamic(2, 4, 16).exact > base


class TestFrameCounts:
    def test_single_unit_equals_dynamic(self):
        assert ss_data(3, 5, 32, 1).exact == \
            ss_dummy_location_dynamic(3, 5, 32).exact

    def test_power_law(self):
        assert ss_data(1, 1, 64, 2).exact == 64 ** 2 == 4096
        assert ss_data(2, 2, 4, 3).exact == 46 ** 3 == 97336

    def test_log2_consistent(self):
        r = ss_data(4, 10, 64, 16)
        assert r.log2 == pytest.approx(math.log2(r.exact), rel=1e-12)


class TestKeyCounts:
    def test_weights(self):
        assert ss_weight(1).exact == 16
        assert ss_weight(16).exact == 2 ** 64
        for lw in (1, 5, 16, 32):
            assert ss_weight(lw).log2 == pytest.approx(4.0 * lw)

    def test_semantic_key(self):
        assert ss_skey(1).exact == 2
        assert ss_skey(128).exact == 2 ** 128
        assert ss_skey(128).log2 == pytest.approx(128.0)

    def test_seed_key(self):
        assert ss_seedkey(1).exact == 2
        assert ss_seedkey(256).log2 == pytest.approx(256.0)

    def test_baseline_single_layer(self):
        assert ss_seedkey_baseline(1, 1, 7).exact == 2 ** 7
        assert ss_seedkey_baseline(3, 4, 0).exact == 12
        assert ss_seedkey_baseline(4, 10, 128).exact == 40 * 2 ** 128

    def test_dynamic_seedkey_layer(self):
        assert ss_seedkey_dynamic(1, 1, 5, 8).exact == 2 ** 8
        assert ss_seedkey_dynamic(4, 10, 2, 128).exact == 1600 * 2 ** 128
        assert ss_seedkey_dynamic(2, 3, 3, 0).exact == 216

    def test_total_composition(self):
        assert ss_total(1, 1, 64, 1, 0).exact == 64
        assert ss_total(2, 2, 4, 1, 0).exact == 184
        combined = ss_total(4, 10, 64, 16, 128)
        assert combined.exact == (ss_data(4, 10, 64, 16).exact
                                  * ss_seedkey_dynamic(4, 10, 16, 128).exact)
        assert combined.log2 == pytest.approx(math.log2(combined.exact), rel=1e-12)

    def test_validation(self):
        for fn, args in [
            (ss_weight, (0,)),
            (ss_skey, (0,)),
            (ss_seedkey, (-1,)),
            (ss_data, (1, 1, 64, 0)),
            (ss_seedkey_dynamic, (0, 1, 5, 8)),
        ]:
            with pytest.raises(ValueError):
                fn(*args)


class TestBruteForce:
    def test_small_cases(self):
        assert brute_force_placements(4, 1, 1) == 4
        assert brute_force_placements(4, 1, 3) == 4
        assert brute_force_placements(4, 2, 2) == 28  # C(8, 2)

    def test_agrees_with_closed_form(self):
        for n_d, s, k in [(3, 2, 4), (8, 3, 5), (12, 2, 7)]:
            assert brute_force_placements(n_d, s, k) == \
                ss_dummy_location(s, k, n_d).exact

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            brute_force_placements(64, 4, 2)


class TestAnalyze:
    def test_default_report_keys_and_structure(self):
        report = analyze()
        for key in ("eq3", "eq4", "eq5", "eq6", "eq7", "eq8", "eq9",
                    "eq10", "eq11"):
            assert key in report
            entry = report[key]
            assert set(entry) == {"exact", "log2", "inputs"}
            assert int(entry["exact"]) >= 2
            assert entry["log2"] == pytest.approx(
                math.log2(int(entry["exact"])), abs=1e-6)

    def test_layered_exceeds_single_layer(self):
        report = analyze()
        assert int(report["eq11"]["exact"]) > int(report["eq9"]["exact"])

    def test_exact_values_are_decimal_strings(self):
        report = analyze(s_max=2, k_max=2, n_d=4, n_unit=1, l_weight=1,
                         l_skey=1, l_seedkey=1)
        assert report["eq4"]["exact"] == "46"
        # eq11 = eq5 * eq10 = 46 * ((2*2)^1 * 2^1)
        assert report["eq11"]["exact"] == str(46 * 8)


class TestDispersion:
    def test_histogram_and_entropy_helpers(self):
        uniform = np.linspace(0, 1, N_HISTOGRAM_BINS, endpoint=False) \
            + 0.5 / N_HISTOGRAM_BINS
        counts = score_histogram(uniform)
        assert counts.sum() == N_HISTOGRAM_BINS
        assert np.all(counts == 1)
        assert histogram_entropy(counts) == pytest.approx(6.0)

    def test_entropy_of_point_mass_is_zero(self):
        counts = np.zeros(N_HISTOGRAM_BINS, dtype=np.int64)
        counts[3] = 500
        assert histogram_entropy(counts) == 0.0

    def test_requires_minimum_corpus(self):
        model = CodecModel()
        corpus = make_corpus(50, model, seed=1)
        with pytest.raises(ValueError):
            bleu_dispersion_report(corpus, model, Keystream(bytes(32), "weights"))

    def test_noiseless_scores_collapse_but_weights_disperse(self):
        model = CodecModel(deviation_rate=0.0)
        corpus = make_corpus(120, model, seed=3)
        report = bleu_dispersion_report(corpus, model,
                                        Keystream(bytes(32), "weights"))
        assert report["n_sentences"] == 120
        for gram in ("s1", "s2", "s3", "s4"):
            ch = report["channels"][gram]
            assert ch["distinct"] == 1
            assert ch["entropy"] == 0.0
        # weighted channel varies sentence to sentence through the weights
        ws = report["channels"]["weighted_sum"]
        assert ws["distinct"] > 1
        assert ws["entropy"] > 0.0

    def test_perfect_scores_under_zero_deviation(self):
        model = CodecModel(deviation_rate=0.0)
        sentence = make_corpus(1, model, seed=9)[0]
        scores = bleu_scores(sentence, sentence)
        assert (scores.s1, scores.s2, scores.s3, scores.s4) == (Q32_MAX,) * 4
