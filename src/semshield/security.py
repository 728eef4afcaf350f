"""Attack search spaces as exact big integers, plus score-dispersion stats.

Every search-space quantity is an arbitrary-precision count with a
derived log2, so "much larger" comparisons are strict integer
inequalities instead of float hand-waving.
"""
from __future__ import annotations

import math

import numpy as np

from .codec import Q32_ONE, CodecModel, _substitute, bleu_scores_many
from .fields import checked_int
from .keying import Keystream, generated_bleu, weight_generator


# The most decimal digits an exact count may have: the report writes each
# count with str(), which refuses longer ints (CPython's default
# int_max_str_digits).  2**_MAX_COUNT_BITS is the first power of two past
# the largest count.
_MAX_COUNT_DIGITS = 4300
_COUNT_LIMIT = 10 ** _MAX_COUNT_DIGITS
_MAX_COUNT_BITS = _COUNT_LIMIT.bit_length()


def _too_large(formula_id: str) -> ValueError:
    return ValueError(f"search space {formula_id} has more than {_MAX_COUNT_DIGITS} decimal digits")


def _power(formula_id: str, base: int, exp: int) -> int:
    """``base ** exp``, refused before it is built when it is too large to report."""
    if (base.bit_length() - 1) * exp >= _MAX_COUNT_BITS:
        raise _too_large(formula_id)
    return base ** exp


def _entry(formula_id: str, exact: int, **inputs) -> dict:
    if exact >= _COUNT_LIMIT:
        raise _too_large(formula_id)
    return {"exact": str(exact), "log2": math.log2(exact), "inputs": inputs}


def analyze(s_max: int = 4, k_max: int = 10, n_d: int = 64, n_unit: int = 16,
            l_weight: int = 16, l_skey: int = 128, l_seedkey: int = 128) -> dict:
    """All search-space figures for one parameter set, keyed by formula id,
    each ``{"exact": decimal string, "log2": float, "inputs": dict}``:

    - eq3, placements of k_max dummies in one unit: C(s_max*n_d, k_max);
    - eq4, placements summed over every drawable (s, k): C(s*n_d, k) for
      1 <= s <= s_max and 1 <= k <= k_max with k < s*n_d;
    - eq5, placements of a frame of n_unit units: eq4**n_unit;
    - eq6, eq7 and eq8, the weights, SKey and seed key: 2**(4*l_weight),
      2**l_skey and 2**l_seedkey;
    - eq9, the fixed-(s, k) baseline: s_max * k_max * 2**l_seedkey;
    - eq10, per-unit (s, k) over n_unit units times the seed-key space:
      (s_max*k_max)**n_unit * 2**l_seedkey;
    - eq11, the layered total: eq5 * eq10.

    Every parameter is an integer >= 1 with k_max < s_max*n_d.  The counts
    are built in that order; the first of over 4300 digits raises ValueError.
    """
    params = dict(s_max=s_max, k_max=k_max, n_d=n_d, n_unit=n_unit, l_weight=l_weight, l_skey=l_skey, l_seedkey=l_seedkey)
    s_max, k_max, n_d, n_unit, l_weight, l_skey, l_seedkey = (checked_int(name, v, 1) for name, v in params.items())
    if k_max >= s_max * n_d:
        raise ValueError(f"need k_max < s_max*n_d, not k_max={k_max} with s_max*n_d={s_max * n_d}")
    units = dict(s_max=s_max, k_max=k_max, n_d=n_d)
    report = {"eq3": _entry("eq3", math.comb(s_max * n_d, k_max), s=s_max, k=k_max, n_d=n_d)}
    # Each C(n, k) comes from C(n, k-1) by the running product, and the sum
    # is refused as soon as it is too large to report.
    eq4 = 0
    for s in range(1, s_max + 1):
        n = s * n_d
        comb = 1  # C(n, 0)
        for k in range(1, min(k_max, n - 1) + 1):
            comb = comb * (n - k + 1) // k
            eq4 += comb
            if eq4 >= _COUNT_LIMIT:
                raise _too_large("eq4")
    report["eq4"] = _entry("eq4", eq4, **units)
    eq5 = _power("eq5", eq4, n_unit)
    report["eq5"] = _entry("eq5", eq5, **units, n_unit=n_unit)
    report["eq6"] = _entry("eq6", _power("eq6", 2, 4 * l_weight), l_weight=l_weight)
    report["eq7"] = _entry("eq7", _power("eq7", 2, l_skey), l_skey=l_skey)
    report["eq8"] = _entry("eq8", _power("eq8", 2, l_seedkey), l_seedkey=l_seedkey)
    report["eq9"] = _entry("eq9", s_max * k_max << l_seedkey, s=s_max, k=k_max, l=l_seedkey)
    eq10 = _power("eq10", s_max * k_max, n_unit) << l_seedkey
    report["eq10"] = _entry("eq10", eq10, s_max=s_max, k_max=k_max, n_unit=n_unit, l=l_seedkey)
    report["eq11"] = _entry("eq11", eq5 * eq10, **units, n_unit=n_unit, l=l_seedkey)
    return report


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


def bleu_dispersion_report(corpus, model: CodecModel, ks: Keystream, l_weight: int = 16) -> dict:
    """Per-channel spread of the four gram scores and the weighted sum.

    Each sentence is scored against its decoded version, the codec's
    substitution with the sentence's index as the noise seed (what
    ``decode(encode(sentence))`` returns), and combined with a fresh
    draw of ``l_weight``-bit weights.
    """
    corpus = list(corpus)
    if len(corpus) < MIN_DISPERSION_SENTENCES:
        raise ValueError(f"need at least {MIN_DISPERSION_SENTENCES} sentences")
    pairs = [(sentence, _substitute(np.asarray(sentence), model, i)) for i, sentence in enumerate(corpus)]
    scored = bleu_scores_many(pairs)
    raw = {name: [getattr(scores, name) for scores in scored] for name in ("s1", "s2", "s3", "s4")}
    # One weight draw per sentence, in corpus order.
    raw["weighted_sum"] = [generated_bleu(scores, weight_generator(ks, l_weight)) for scores in scored]
    channels = {}
    for name, values in raw.items():
        hist = score_histogram(np.array(values, dtype=np.float64) / Q32_ONE)
        channels[name] = {
            "distinct": len(set(values)),
            "histogram": hist.tolist(),
            "entropy": histogram_entropy(hist),
        }
    return {"n_sentences": len(corpus), "channels": channels}
