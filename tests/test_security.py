import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semshield.codec import Q32_MAX, CodecModel, bleu_scores, make_corpus
from semshield.experiments import ConfigError
from semshield.keying import Keystream
from semshield.security import (
    N_HISTOGRAM_BINS,
    analyze,
    bleu_dispersion_report,
    histogram_entropy,
    score_histogram,
)

import spec
from spec import brute_force_placements


def _exact(formula, **params):
    """The exact count of one formula of ``analyze``."""
    return int(analyze(**params)[formula]["exact"])


class TestPerUnitCounts:
    def test_single_dummy_single_symbol(self):
        r = analyze(s_max=1, k_max=1, n_d=64)["eq3"]
        assert r["exact"] == "64"
        assert r["log2"] == pytest.approx(6.0)

    def test_known_binomial(self):
        assert _exact("eq3", s_max=2, k_max=2, n_d=64) == math.comb(128, 2) == 8128

    def test_matches_exhaustive_enumeration(self):
        assert _exact("eq3", s_max=1, k_max=3, n_d=4) == brute_force_placements(4, 1, 3)
        assert _exact("eq3", s_max=1, k_max=3, n_d=4) == 4

    def test_rejects_overfull(self):
        with pytest.raises(ValueError, match=r"k_max < s_max\*n_d"):
            analyze(s_max=1, k_max=4, n_d=4)

    def test_dynamic_small_cases(self):
        assert _exact("eq4", s_max=1, k_max=1, n_d=64) == 64
        # sum over s in 1..2, k in 1..2 of C(4s, k)
        assert _exact("eq4", s_max=2, k_max=2, n_d=4) == 46

    def test_dynamic_equals_binomial_sum(self):
        # k_max reaches past s*n_d for the small units, where k < s*n_d drops
        # terms; a k_max that no unit can hold is refused.
        for s_max in (1, 2, 3):
            for k_max in (1, 2, 5, 9):
                for n_d in (1, 2, 3, 8):
                    if k_max >= s_max * n_d:
                        with pytest.raises(ValueError, match=r"k_max < s_max\*n_d"):
                            analyze(s_max=s_max, k_max=k_max, n_d=n_d)
                        continue
                    total = sum(math.comb(s * n_d, k) for s in range(1, s_max + 1)
                                for k in range(1, k_max + 1) if k < s * n_d)
                    assert _exact("eq4", s_max=s_max, k_max=k_max, n_d=n_d) == total

    def test_dynamic_past_4300_digits_refused(self):
        # eq3 is C(2**19 + 1, 2**19) = 2**19 + 1, but the running sum of eq4
        # passes 10**4300 at k = 1,436, long before k = 2**19.
        with pytest.raises(ValueError, match="eq4 has more than 4300 decimal digits"):
            analyze(s_max=1, k_max=2**19, n_d=2**19 + 1)

    def test_dynamic_monotone_in_bounds(self):
        base = _exact("eq4", s_max=2, k_max=3, n_d=16)
        assert _exact("eq4", s_max=3, k_max=3, n_d=16) > base
        assert _exact("eq4", s_max=2, k_max=4, n_d=16) > base


class TestFrameCounts:
    def test_single_unit_equals_dynamic(self):
        report = analyze(s_max=3, k_max=5, n_d=32, n_unit=1)
        assert report["eq5"]["exact"] == report["eq4"]["exact"]

    def test_power_law(self):
        assert _exact("eq5", s_max=1, k_max=1, n_d=64, n_unit=2) == 64 ** 2 == 4096
        assert _exact("eq5", s_max=2, k_max=2, n_d=4, n_unit=3) == 46 ** 3 == 97336

    def test_log2_consistent(self):
        r = analyze()["eq5"]
        assert r["log2"] == pytest.approx(math.log2(int(r["exact"])), rel=1e-12)


class TestKeyCounts:
    def test_weights(self):
        assert _exact("eq6", l_weight=1) == 16
        assert _exact("eq6", l_weight=16) == 2 ** 64
        for lw in (1, 5, 16, 32):
            assert analyze(l_weight=lw)["eq6"]["log2"] == pytest.approx(4.0 * lw)

    def test_semantic_key(self):
        assert _exact("eq7", l_skey=1) == 2
        assert _exact("eq7", l_skey=128) == 2 ** 128
        assert analyze(l_skey=128)["eq7"]["log2"] == pytest.approx(128.0)

    def test_seed_key(self):
        assert _exact("eq8", l_seedkey=1) == 2
        assert analyze(l_seedkey=256)["eq8"]["log2"] == pytest.approx(256.0)

    def test_baseline_single_layer(self):
        # analyze takes keys of at least one bit.
        assert _exact("eq9", s_max=1, k_max=1, l_seedkey=7) == 2 ** 7
        assert _exact("eq9", s_max=3, k_max=4, l_seedkey=1) == 24
        assert _exact("eq9", s_max=4, k_max=10, l_seedkey=128) == 40 * 2 ** 128

    def test_dynamic_seedkey_layer(self):
        assert _exact("eq10", s_max=1, k_max=1, n_unit=5, l_seedkey=8) == 2 ** 8
        assert _exact("eq10", s_max=4, k_max=10, n_unit=2, l_seedkey=128) == 1600 * 2 ** 128
        assert _exact("eq10", s_max=2, k_max=3, n_unit=3, l_seedkey=1) == 216 * 2

    def test_total_composition(self):
        # eq10 = (s_max*k_max)**n_unit * 2 with one-bit keys.
        assert _exact("eq11", s_max=1, k_max=1, n_d=64, n_unit=1, l_seedkey=1) == 64 * 2
        assert _exact("eq11", s_max=2, k_max=2, n_d=4, n_unit=1, l_seedkey=1) == 46 * 8
        report = analyze()
        combined = report["eq11"]
        assert int(combined["exact"]) == int(report["eq5"]["exact"]) * int(report["eq10"]["exact"])
        assert combined["log2"] == pytest.approx(math.log2(int(combined["exact"])), rel=1e-12)

    # True used to count as 1, 4.0 to end in math.comb's TypeError, and a
    # numpy int in a math domain error or an OverflowError.
    @pytest.mark.parametrize("name", ["s_max", "k_max", "n_d", "n_unit", "l_weight", "l_skey", "l_seedkey"])
    def test_parameters_follow_the_integer_rule(self, name):
        count = inspect.signature(analyze).parameters[name].default
        expected = json.dumps(analyze())
        for value in (np.int64(count), np.uint16(count)):
            assert json.dumps(analyze(**{name: value})) == expected
        for bad in (True, np.True_, float(count)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, not "):
                analyze(**{name: bad})

    def test_validation(self):
        for name, bad in (("l_weight", 0), ("l_skey", 0), ("l_seedkey", -1), ("n_unit", 0), ("s_max", 0)):
            with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
                analyze(**{name: bad})


class TestBruteForce:
    def test_small_cases(self):
        assert brute_force_placements(4, 1, 1) == 4
        assert brute_force_placements(4, 1, 3) == 4
        assert brute_force_placements(4, 2, 2) == 28  # C(8, 2)

    def test_agrees_with_closed_form(self):
        for n_d, s, k in [(3, 2, 4), (8, 3, 5), (12, 2, 7)]:
            assert brute_force_placements(n_d, s, k) == _exact("eq3", s_max=s, k_max=k, n_d=n_d)

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

    # Small shapes, with unit counts and key lengths that reach past 4300
    # digits now and then, so both sides sometimes refuse.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), s_max=st.integers(1, 6), n_d=st.integers(1, 64), n_unit=st.integers(1, 400),
           l_weight=st.integers(1, 3700), l_skey=st.integers(1, 14500), l_seedkey=st.integers(1, 14500))
    def test_equals_the_spec(self, data, s_max, n_d, n_unit, l_weight, l_skey, l_seedkey):
        if s_max * n_d == 1:
            n_d = 2
        k_max = data.draw(st.integers(1, min(s_max * n_d - 1, 80)))
        params = (s_max, k_max, n_d, n_unit, l_weight, l_skey, l_seedkey)
        try:
            want = spec.search_space(*params)
        except ConfigError:
            with pytest.raises(ValueError, match=r"search space eq\d+ has more than 4300 decimal digits"):
                analyze(*params)
            return
        assert analyze(*params) == want


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
