"""Attack search spaces as exact big integers, plus score-dispersion stats.

Every search-space quantity is an arbitrary-precision count with a
derived log2, so "much larger" comparisons are strict integer
inequalities instead of float hand-waving.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Q32_ONE, CodecModel, _substitute, bleu_scores_many
from .keying import Keystream, generated_bleu, weight_generator


# The most decimal digits an exact count may have: the report writes each
# count with str(), which refuses longer ints (CPython's default
# int_max_str_digits).  2**_MAX_COUNT_BITS is the first power of two past
# the largest count.
_MAX_COUNT_DIGITS = 4300
_COUNT_LIMIT = 10 ** _MAX_COUNT_DIGITS
_MAX_COUNT_BITS = _COUNT_LIMIT.bit_length()
_TOO_LARGE = f"has more than {_MAX_COUNT_DIGITS} decimal digits"


@dataclass(frozen=True)
class SearchSpaceReport:
    formula_id: str
    exact: int
    log2: float
    inputs: dict

    def to_json_dict(self) -> dict:
        return {"exact": str(self.exact), "log2": self.log2, "inputs": dict(self.inputs)}


def _report(formula_id: str, exact: int, **inputs) -> SearchSpaceReport:
    if exact < 1:
        raise ValueError("search space must be >= 1")
    if exact >= _COUNT_LIMIT:
        raise ValueError(f"search space {formula_id} {_TOO_LARGE}")
    return SearchSpaceReport(formula_id, exact, math.log2(exact), inputs)


def _power(formula_id: str, base: int, exp: int) -> int:
    """``base ** exp``, refused before it is built when it is too large to report."""
    if (base.bit_length() - 1) * exp >= _MAX_COUNT_BITS:
        raise ValueError(f"search space {formula_id} {_TOO_LARGE}")
    return base ** exp


def ss_dummy_location(s: int, k: int, n_d: int) -> SearchSpaceReport:
    """Placements of k dummies in one unit of s*n_d subcarriers: C(s*n_d, k)."""
    if k < 1 or s < 1 or n_d < 1 or s * n_d <= k:
        raise ValueError("need s, n_d >= 1 and 1 <= k < s*n_d")
    return _report("eq3", math.comb(s * n_d, k), s=s, k=k, n_d=n_d)


def ss_dummy_location_dynamic(s_max: int, k_max: int, n_d: int) -> SearchSpaceReport:
    """Placements summed over every drawable (s, k) pair: C(s*n_d, k) for
    1 <= s <= s_max and 1 <= k <= k_max with k < s*n_d.

    Each C(N, k) comes from C(N, k-1) by the running product, and the sum is
    refused as soon as it is too large to report.
    """
    if s_max < 1 or k_max < 1 or n_d < 1:
        raise ValueError("parameters must be >= 1")
    total = 0
    for s in range(1, s_max + 1):
        n = s * n_d
        comb = 1  # C(n, 0)
        for k in range(1, min(k_max, n - 1) + 1):
            comb = comb * (n - k + 1) // k
            total += comb
            if total >= _COUNT_LIMIT:
                raise ValueError(f"search space eq4 {_TOO_LARGE}")
    return _report("eq4", total, s_max=s_max, k_max=k_max, n_d=n_d)


def _data(eq4: SearchSpaceReport, n_unit: int) -> SearchSpaceReport:
    if n_unit < 1:
        raise ValueError("n_unit must be >= 1")
    return _report("eq5", _power("eq5", eq4.exact, n_unit), **eq4.inputs, n_unit=n_unit)


def ss_weight(l_weight: int) -> SearchSpaceReport:
    if l_weight < 1:
        raise ValueError("l_weight must be >= 1")
    return _report("eq6", _power("eq6", 2, 4 * l_weight), l_weight=l_weight)


def ss_skey(l_skey: int) -> SearchSpaceReport:
    if l_skey < 1:
        raise ValueError("l_skey must be >= 1")
    return _report("eq7", 1 << l_skey, l_skey=l_skey)


def ss_seedkey(l_seedkey: int) -> SearchSpaceReport:
    if l_seedkey < 1:
        raise ValueError("l_seedkey must be >= 1")
    return _report("eq8", 1 << l_seedkey, l_seedkey=l_seedkey)


def ss_seedkey_baseline(s: int, k: int, l: int) -> SearchSpaceReport:
    """Fixed-(s, k) baseline: s * k * 2^L."""
    if s < 1 or k < 1 or l < 0:
        raise ValueError("need s, k >= 1 and l >= 0")
    return _report("eq9", s * k * (1 << l), s=s, k=k, l=l)


def ss_seedkey_dynamic(s_max: int, k_max: int, n_unit: int, l: int) -> SearchSpaceReport:
    """Per-unit (s, k) uncertainty compounded over units, times the key space."""
    if s_max < 1 or k_max < 1 or n_unit < 1 or l < 0:
        raise ValueError("need s_max, k_max, n_unit >= 1 and l >= 0")
    return _report(
        "eq10", _power("eq10", s_max * k_max, n_unit) * (1 << l),
        s_max=s_max, k_max=k_max, n_unit=n_unit, l=l,
    )


def _total(eq5: SearchSpaceReport, eq10: SearchSpaceReport) -> SearchSpaceReport:
    return _report("eq11", eq5.exact * eq10.exact, **eq5.inputs, l=eq10.inputs["l"])


def analyze(
    s_max: int = 4,
    k_max: int = 10,
    n_d: int = 64,
    n_unit: int = 16,
    l_weight: int = 16,
    l_skey: int = 128,
    l_seedkey: int = 128,
) -> dict:
    """All search-space figures for one parameter set, keyed by formula id.

    Each formula is built once: eq5 from eq4, and eq11 from eq5 and eq10.
    """
    eq3 = ss_dummy_location(s_max, k_max, n_d)
    eq4 = ss_dummy_location_dynamic(s_max, k_max, n_d)
    eq5 = _data(eq4, n_unit)
    eq6_to_9 = [
        ss_weight(l_weight),
        ss_skey(l_skey),
        ss_seedkey(l_seedkey),
        ss_seedkey_baseline(s_max, k_max, l_seedkey),
    ]
    eq10 = ss_seedkey_dynamic(s_max, k_max, n_unit, l_seedkey)
    reports = [eq3, eq4, eq5, *eq6_to_9, eq10, _total(eq5, eq10)]
    return {r.formula_id: r.to_json_dict() for r in reports}


# --- score dispersion -------------------------------------------------------

N_HISTOGRAM_BINS = 64
# Fewest sentences a dispersion report is drawn from.
MIN_DISPERSION_SENTENCES = 100


def score_histogram(values) -> np.ndarray:
    """Counts over 64 uniform bins of [0, 1]."""
    counts, _ = np.histogram(np.asarray(values, dtype=np.float64), bins=N_HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts


def histogram_entropy(counts) -> float:
    """Shannon entropy (bits) of a histogram's empirical distribution."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def bleu_dispersion_report(corpus, model: CodecModel, ks: Keystream) -> dict:
    """Per-channel spread of the four gram scores and the weighted sum.

    Each sentence is scored against its decoded version, the codec's
    substitution with the sentence's index as the noise seed (what
    ``decode(encode(sentence))`` returns), and combined with a fresh
    weight draw.
    """
    corpus = list(corpus)
    if len(corpus) < MIN_DISPERSION_SENTENCES:
        raise ValueError(f"need at least {MIN_DISPERSION_SENTENCES} sentences")
    raw = {"s1": [], "s2": [], "s3": [], "s4": [], "weighted_sum": []}
    pairs = [(sentence, _substitute(np.asarray(sentence), model, i)) for i, sentence in enumerate(corpus)]
    for scores in bleu_scores_many(pairs):
        w = weight_generator(ks)
        raw["s1"].append(scores.s1)
        raw["s2"].append(scores.s2)
        raw["s3"].append(scores.s3)
        raw["s4"].append(scores.s4)
        raw["weighted_sum"].append(generated_bleu(scores, w))
    channels = {}
    for name, values in raw.items():
        hist = score_histogram(np.array(values, dtype=np.float64) / Q32_ONE)
        channels[name] = {
            "distinct": len(set(values)),
            "histogram": hist.tolist(),
            "entropy": histogram_entropy(hist),
        }
    return {"n_sentences": len(corpus), "channels": channels}
