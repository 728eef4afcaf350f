"""The plain reference of the simulator: every scenario, one frame at a time.

``render(cfg)`` writes what ``experiments.render_output(cfg)`` must write,
for any of the six scenarios, the slow and obvious way:

- streams are read straight from ChaCha20 output (``RawReader``), and
  each layout is replayed one draw at a time with ``draw_unit_params``
  and ``dummy_locations`` (``draw_by_draw``);
- each frame is obfuscated, padded, mapped, modulated, sent through its
  own channel, equalized, demapped and recovered on its own;
- each received row is decoded by its own ``decode`` call and scored
  against its reference from n-gram Counters (``bleu_reference``);
- a point's mean scores are summed sentence by sentence, in corpus order;
- search spaces are sums of ``math.comb`` terms and plain powers.

Besides ``render``, the layer references here are what the tests compare
the production layers with: ``RawReader`` for ``Keystream``,
``plk_reference`` for ``simulate_plk``, ``bleu_reference`` for the
scorer, ``ref_map``/``ref_modulate``/``ref_channel``/``ref_demap`` for
the OFDM chain, and ``brute_force_placements`` and
``ber_16qam_awgn_theory`` as oracles of the closed forms.  Configs are
the small ones of the tests: search spaces are built in full before
they are checked against the limit.
"""
import hashlib
import json
import math
import struct
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np

from semshield import keying
from semshield.bits import bits_from_bytes, bytes_from_bits
from semshield.codec import Q32_ONE, BleuScores, decode, encode, make_corpus, quantize_q32
from semshield.experiments import ConfigError, derive_digest, derive_int
from semshield.keying import (
    KeyMaterial,
    constant_trace,
    expand_seed,
    generate_skey,
    generated_bleu,
    label_nonce,
    rayleigh_trace,
    weight_generator,
)
from semshield.obfuscation import draw_unit_params, dummy_locations
from semshield.ofdm import CP_LEN, N_FFT, realize_taps

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _generator(*values):
    """The numpy generator of ``values``, seeded as numpy documents: a list of ints."""
    return np.random.default_rng([v & _MASK64 for v in values])


def _scope_rng(master_seed, *parts):
    """``experiments.derive_rng``: a generator of the scope digest's four 64-bit words."""
    return _generator(*struct.unpack("<4Q", derive_digest(master_seed, *parts)))


# --- streams ------------------------------------------------------------------


class RawReader:
    """Reference reader: bits and rejection draws taken straight from cipher bytes."""

    def __init__(self, seed: bytes, label: str):
        self._seed, self._nonce = seed, label_nonce(label.encode())
        self._bits = np.zeros(0, dtype=np.uint8)
        self.position = 0

    def bits(self, n):
        start = self.position
        if start + n > self._bits.size:
            # Looked up on the module at each read, so a test that patches
            # keying.chacha20_stream patches this reader too.
            raw = keying.chacha20_stream(self._seed, self._nonce, 0, (start + n) // 4 + 64)
            self._bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        self.position += n
        return self._bits[start:start + n]

    def draw_uniform(self, m):
        limit = (1 << 32) // m * m
        while True:
            word = int.from_bytes(np.packbits(self.bits(32)).tobytes(), "big")
            if word < limit:
                return word % m


# --- search spaces --------------------------------------------------------------

_ENUM_BOUND = 24


@lru_cache(maxsize=None)
def _count_subsets(n: int, k: int) -> int:
    return sum(1 for _ in combinations(range(n), k))


def brute_force_placements(n_d: int, s: int, k: int) -> int:
    """Count k-subsets of s*n_d positions by explicit enumeration (oracle).

    The count depends only on (s*n_d, k), so repeated shapes are served
    from a cache instead of re-enumerating.
    """
    n = s * n_d
    if n > _ENUM_BOUND:
        raise ValueError(f"enumeration limited to s*n_d <= {_ENUM_BOUND}")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < s*n_d")
    return _count_subsets(n, k)


def search_space(s_max, k_max, n_d, n_unit, l_weight, l_skey, l_seedkey) -> dict:
    """What ``security.analyze`` reports: {formula id: {"exact", "log2", "inputs"}}.

    The report writes each count in decimal, so a count past 4300 digits
    raises ConfigError, as the scenario does.
    """
    eq4 = sum(math.comb(s * n_d, k) for s in range(1, s_max + 1) for k in range(1, k_max + 1)
              if k < s * n_d)
    eq10 = (s_max * k_max) ** n_unit * 2 ** l_seedkey
    counts = {
        "eq3": (math.comb(s_max * n_d, k_max), dict(s=s_max, k=k_max, n_d=n_d)),
        "eq4": (eq4, dict(s_max=s_max, k_max=k_max, n_d=n_d)),
        "eq5": (eq4 ** n_unit, dict(s_max=s_max, k_max=k_max, n_d=n_d, n_unit=n_unit)),
        "eq6": (2 ** (4 * l_weight), dict(l_weight=l_weight)),
        "eq7": (2 ** l_skey, dict(l_skey=l_skey)),
        "eq8": (2 ** l_seedkey, dict(l_seedkey=l_seedkey)),
        "eq9": (s_max * k_max * 2 ** l_seedkey, dict(s=s_max, k=k_max, l=l_seedkey)),
        "eq10": (eq10, dict(s_max=s_max, k_max=k_max, n_unit=n_unit, l=l_seedkey)),
        "eq11": (eq4 ** n_unit * eq10, dict(s_max=s_max, k_max=k_max, n_d=n_d, n_unit=n_unit, l=l_seedkey)),
    }
    if any(exact >= 10 ** 4300 for exact, _ in counts.values()):
        raise ConfigError("a search space has more than 4300 decimal digits")
    return {eq: {"exact": str(exact), "log2": math.log2(exact), "inputs": inputs}
            for eq, (exact, inputs) in counts.items()}


# --- key ceremony ---------------------------------------------------------------


def plk_reference(trace, target_bits, guard_band, noise_seed):
    """By-hand distillation: noisy observations, guard-band quantization, index
    intersection, 8-bit parity reconciliation and counter-mode SHA-256.

    Returns ``("key", plk bits, entropy)``, ``("insufficient", agreed bits,
    entropy)`` or ``("non-finite std", None, None)``.
    """
    probes = np.repeat(trace.samples, trace.coherence)
    observed = []
    for party in (0xA11CE, 0xB0B):
        noise = _generator(noise_seed, party).normal(0.0, trace.probe_noise_std, size=probes.size)
        observed.append(probes + noise if trace.probe_noise_std else probes)
    bits, kept = [], []
    for obs in observed:
        with np.errstate(over="ignore", invalid="ignore"):
            median, std = float(np.median(obs)), float(np.std(obs))
        if not math.isfinite(std):
            return "non-finite std", None, None
        ones = obs > median + guard_band * std
        k = np.flatnonzero(ones | (obs < median - guard_band * std))
        bits.append(ones[k].astype(np.uint8))
        kept.append(k)
    _, idx_a, idx_b = np.intersect1d(kept[0], kept[1], return_indices=True)
    a, b = bits[0][idx_a], bits[1][idx_b]
    agreed = []
    for i in range(0, a.size - 7, 8):
        if a[i:i + 8].sum() % 2 == b[i:i + 8].sum() % 2:
            agreed.extend(a[i:i + 8].tolist())
    p = sum(agreed) / len(agreed) if agreed else 0.0
    entropy = -p * math.log2(p) - (1 - p) * math.log2(1 - p) if 0 < p < 1 else 0.0
    if len(agreed) < 8:
        return "insufficient", len(agreed), entropy
    material = struct.pack(">Q", len(agreed)) + bytes_from_bits(np.array(agreed, dtype=np.uint8))
    out = []
    for c in range(-(-target_bits // 256)):
        block = hashlib.sha256(material + struct.pack(">I", c)).digest()
        out.extend(bits_from_bytes(block, min(256, target_bits - 256 * c)).tolist())
    return "key", out, entropy


def bleu_reference(reference, hypothesis):
    """Clipped n-gram precision (orders 1-4) with the brevity penalty, from
    Counters of list slices."""
    ref, hyp = list(reference), list(hypothesis)
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    raw = []
    for n in range(1, 5):
        hyp_counts = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
        ref_counts = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        if not hyp_counts:
            raw.append(0)
            continue
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        p = clipped / sum(hyp_counts.values())
        raw.append(quantize_q32(bp * p) if p > 0.0 else 0)
    return BleuScores(*raw)


def _ceremony(cfg, scope):
    """One key ceremony: (KeyMaterial, PLK entropy estimate, insufficient entropy)."""
    m = cfg.master_seed
    if cfg.static_channel:
        trace = constant_trace(cfg.n_probes, 1.0, cfg.probe_noise_std)
    else:
        trace = rayleigh_trace(cfg.n_probes, derive_int(m, *scope, "trace"), cfg.probe_coherence,
                               cfg.probe_noise_std)
    outcome, plk, entropy = plk_reference(trace, cfg.l_seedkey, cfg.guard_band,
                                          derive_int(m, *scope, "probe-noise"))
    assert outcome != "non-finite std"
    insufficient = outcome == "insufficient"
    plk = np.zeros(cfg.l_seedkey, dtype=np.uint8) if insufficient else np.array(plk, dtype=np.uint8)
    sentence = make_corpus(1, cfg.codec, derive_int(m, *scope, "sentence"))[0]
    decoded = decode(encode(sentence, cfg.codec), cfg.codec, derive_int(m, *scope, "decode"))
    weights = weight_generator(RawReader(expand_seed(plk), "weights"), cfg.l_weight)
    skey = generate_skey(bleu_reference(sentence, decoded), weights, cfg.l_skey)
    return KeyMaterial(plk, skey), entropy, insufficient


# --- obfuscation ----------------------------------------------------------------


def draw_by_draw(seed, l_d, p):
    """The layout replayed with draw_unit_params and dummy_locations, one draw
    at a time: (s per unit, k per unit, frame-level dummy locations, tail
    bits, words), words being the word each unit's draws start at and, last,
    the word the stopping draw starts at."""
    ks = RawReader(expand_seed(seed), "xor")
    ks.bits(l_d)
    s_of, k_of, locs, first_word = [], [], [], []
    remaining, offset = l_d, 0
    while True:
        word = (ks.position - l_d) // 32
        s, k = draw_unit_params(ks, p)
        capacity = (s * p.n_d - k) * p.b
        if capacity > remaining:
            return s_of, k_of, locs, remaining, first_word + [word]
        locs += (offset + dummy_locations(ks, s, k, p.n_d)).tolist()
        s_of.append(s)
        k_of.append(k)
        first_word.append(word)
        remaining -= capacity
        offset += s * p.n_d


def _data_subcarriers(s_of, locs, p):
    """Mask over the units' subcarriers, True where payload rides."""
    mask = np.ones(sum(s_of) * p.n_d, dtype=bool)
    mask[locs] = False
    return mask


def _obfuscate(data, seed, p, model):
    """On-air bits of one frame: its units, data and decoy subcarriers
    interleaved, then the tail and its pad."""
    key = expand_seed(seed)
    enc = data ^ RawReader(key, "xor").bits(data.size)
    s_of, k_of, locs, tail, _ = draw_by_draw(seed, data.size, p)
    decoys = RawReader(hashlib.sha256(bytes_from_bits(seed) + b"dummy").digest(), "dummy")
    decoy = []
    for k in k_of:
        tokens = [decoys.draw_uniform(model.vocab_size) for _ in range(-(-k * p.b // model.token_bits))]
        decoy += encode(tokens, model)[:k * p.b].tolist()
    mask = _data_subcarriers(s_of, locs, p)
    units = np.empty((mask.size, p.b), dtype=np.uint8)
    units[mask] = enc[:enc.size - tail].reshape(-1, p.b)
    units[~mask] = np.reshape(decoy, (-1, p.b))
    pad = RawReader(key, "pad").bits(-tail % p.symbol_bits)
    return np.concatenate([units.ravel(), enc[enc.size - tail:], pad])


def _recover(rx, l_d, seed, p):
    """The payload of received bits: the layout's data subcarriers and the
    tail, short input zero padded, XORed with the encryption bits."""
    s_of, _, locs, tail, _ = draw_by_draw(seed, l_d, p)
    mask = _data_subcarriers(s_of, locs, p)
    air = np.zeros(mask.size * p.b + tail, dtype=np.uint8)
    air[:min(rx.size, air.size)] = rx[:air.size]
    enc = np.concatenate([air[:mask.size * p.b].reshape(-1, p.b)[mask].ravel(), air[mask.size * p.b:]])
    return enc ^ RawReader(expand_seed(seed), "xor").bits(l_d)


# --- OFDM -------------------------------------------------------------------------

_SCALE = 1.0 / math.sqrt(10.0)
_GRAY_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])  # axis value 2*b_hi + b_lo -> level
_GRAY_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)  # level index -> bits


def ref_map(bits):
    quads = np.asarray(bits, dtype=np.uint8).reshape(-1, 4)
    i_val = (quads[:, 0] << 1) | quads[:, 1]
    q_val = (quads[:, 2] << 1) | quads[:, 3]
    return _SCALE * (_GRAY_LEVELS[i_val] + 1j * _GRAY_LEVELS[q_val])


def ref_modulate(symbols):
    time = np.fft.ifft(np.asarray(symbols).reshape(-1, N_FFT), norm="ortho", axis=1)
    return np.concatenate([time[:, -CP_LEN:], time], axis=1).ravel()


def ref_convolve(samples, taps):
    """The first ``samples.size`` outputs of the convolution, tap by tap on
    the real and imaginary parts: tap k = a + ib adds a*re - b*im to the
    real part and a*im + b*re to the imaginary part, k samples later."""
    re, im = samples.real.copy(), samples.imag.copy()
    out_re, out_im = np.empty_like(re), np.empty_like(im)
    n = samples.size
    for k, (a, b) in enumerate(zip(taps.real[:n], taps.imag[:n])):
        if k == 0:
            out_re[:] = a * re
            out_im[:] = a * im
        else:
            out_re[k:] += a * re[:n - k]
            out_im[k:] += a * im[:n - k]
        out_re[k:] += b * -im[:n - k]
        out_im[k:] += b * re[:n - k]
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = out_re, out_im
    return out


def ref_channel(samples, ch):
    h = realize_taps(ch)
    out = ref_convolve(samples, h) if h.size > 1 or h[0] != 1.0 else samples.copy()
    if ch.snr_db == math.inf:
        return out
    noise_var = float(np.mean(np.abs(samples) ** 2)) / (10.0 ** (ch.snr_db / 10.0))
    rng = _generator(ch.channel_seed, 0x6E)
    a = rng.standard_normal(samples.size)
    b = rng.standard_normal(samples.size)
    return out + (a + 1j * b) * math.sqrt(noise_var / 2.0)


def ref_demap(symbols):
    """Per axis, the nearest level's index clip(floor(z), 0, 3), z = (x/scale + 4)/2, as Gray bits."""
    axes = [_GRAY_BITS[np.clip(np.floor((x / _SCALE + 4.0) / 2.0), 0, 3).astype(np.int64)]
            for x in (symbols.real, symbols.imag)]
    return np.concatenate(axes, axis=1).ravel()


def ber_16qam_awgn_theory(snr_db: float) -> float:
    """Gray-16QAM AWGN approximation: (3/8) erfc(sqrt(SNR_lin / 10))."""
    snr_lin = 10.0 ** (snr_db / 10.0)
    return 0.375 * math.erfc(math.sqrt(snr_lin / 10.0))


def _equalized(bits, master_seed, pad_scope, ch):
    """One frame padded with filler from its scope to whole OFDM symbols, sent
    through ``ch`` alone and equalized by its response."""
    fill = -bits.size % (N_FFT * 4)
    if fill:
        bits = np.concatenate([bits, _scope_rng(master_seed, *pad_scope).integers(0, 2, fill).astype(np.uint8)])
    rx = ref_channel(ref_modulate(ref_map(bits)), ch)
    freq = np.fft.fft(rx.reshape(-1, N_FFT + CP_LEN)[:, CP_LEN:], norm="ortho", axis=1)
    taps = realize_taps(ch)
    return (freq / np.fft.fft(np.append(taps, np.zeros(N_FFT - taps.size)))).ravel()


def _received(bits, master_seed, pad_scope, ch):
    """The demapped bits of one frame, as many as were sent."""
    return ref_demap(_equalized(bits, master_seed, pad_scope, ch))[:bits.size]


# --- scenarios --------------------------------------------------------------------


def _csv(header, rows):
    return "".join(",".join(f"{v:.8f}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [header, *rows])


def _json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _corpus_bits(cfg, scope):
    tokens = _scope_rng(cfg.master_seed, *scope, "data").integers(
        0, cfg.codec.vocab_size, size=-(-cfg.n_bits // cfg.codec.token_bits))
    return encode(tokens, cfg.codec)[:cfg.n_bits]


def _ber(sent, got):
    return np.count_nonzero(sent != got) / sent.size


def _ber_sweep(cfg):
    m, p = cfg.master_seed, cfg.obfuscation
    rows = []
    for i, snr in enumerate(cfg.snr_list):
        scope = ("ber_sweep", i)
        data = _corpus_bits(cfg, scope)
        seed = _ceremony(cfg, scope)[0].seed_key
        air = _obfuscate(data, seed, p, cfg.codec)
        legit = _received(air, m, (*scope, "pad"), cfg.channel(snr, derive_int(m, *scope, "ch-legit")))
        eve = _received(air, m, (*scope, "pad"), cfg.channel(snr, derive_int(m, *scope, "ch-eve")))
        wrong = _scope_rng(m, *scope, "eve-seed").integers(0, 2, cfg.l_seedkey).astype(np.uint8)
        if np.array_equal(wrong, seed):
            wrong[0] ^= 1
        plain = _received(data, m, (*scope, "pad-plain"), cfg.channel(snr, derive_int(m, *scope, "ch-plain")))
        rows.append([snr, _ber(data, plain), _ber(data, _recover(legit, data.size, seed, p)),
                     _ber(data, _recover(eve, data.size, wrong, p)), cfg.n_bits])
    return _csv(["snr_db", "ber_plain", "ber_legit", "ber_eavesdropper", "n_bits"], rows)


def _bleu_compare(cfg):
    m, p = cfg.master_seed, cfg.obfuscation
    corpus = make_corpus(cfg.n_sentences, cfg.codec, derive_int(m, "bleu", "corpus"))
    means = []
    for i, snr in enumerate(cfg.snr_list):
        scope = ("bleu_compare", i)
        if cfg.key_refresh == "per_point":
            seeds = [_ceremony(cfg, scope)[0].seed_key] * len(corpus)
        else:
            seeds = [_ceremony(cfg, (*scope, j))[0].seed_key for j in range(len(corpus))]
        sums = {"enc": [0.0] * 4, "plain": [0.0] * 4}
        for j, (sentence, seed) in enumerate(zip(corpus, seeds)):
            bits = encode(sentence, cfg.codec)
            air = _obfuscate(bits, seed, p, cfg.codec)
            rx = _received(air, m, (*scope, j, "pad"), cfg.channel(snr, derive_int(m, *scope, j, "ch")))
            rows = {
                "enc": _recover(rx, bits.size, seed, p),
                "plain": _received(bits, m, (*scope, j, "pad-plain"),
                                   cfg.channel(snr, derive_int(m, *scope, j, "ch-plain"))),
            }
            for role, row in rows.items():
                scores = bleu_reference(sentence, decode(row, cfg.codec, noise_seed=j))
                sums[role] = [total + v for total, v in zip(sums[role], scores.as_floats())]
        means.append({role: [total / len(corpus) for total in totals] for role, totals in sums.items()})
    rows = [[gram, snr, mean["enc"][gram - 1], mean["plain"][gram - 1]]
            for gram in range(1, 5) for snr, mean in zip(cfg.snr_list, means)]
    return _csv(["gram", "snr_db", "bleu_enc", "bleu_noenc"], rows)


def _constellation(cfg):
    m, scope = cfg.master_seed, ("constellation", 0)
    symbols = _equalized(_corpus_bits(cfg, scope), m, (*scope, "pad"),
                         cfg.channel(cfg.snr_list[0], derive_int(m, *scope, "ch")))
    return "re,im\n" + "".join(f"{s.real:.9f},{s.imag:.9f}\n" for s in symbols)


def _hex(bits):
    return bytes_from_bits(bits).hex()


def _keygen_demo(cfg):
    km, entropy, insufficient = _ceremony(cfg, ("keygen", 0))
    pad = RawReader(expand_seed(km.plk), "skey-transport").bits(cfg.l_skey)
    transport = km.skey ^ pad
    seed_rx = KeyMaterial(km.plk, transport ^ pad).seed_key
    return _json({
        "scenario": "keygen_demo",
        "static_channel": cfg.static_channel,
        "plk_entropy_estimate": entropy,
        "insufficient_entropy": insufficient,
        "plk_hex": _hex(km.plk),
        "skey_hex": _hex(km.skey),
        "seed_hex": _hex(km.seed_key),
        "skey_transport_hex": _hex(transport),
        "match": bool(np.array_equal(seed_rx, km.seed_key)),
        "l_skey": cfg.l_skey,
        "l_seedkey": cfg.l_seedkey,
    })


def _search_space(cfg):
    p = cfg.obfuscation
    report = search_space(p.s_max, p.k_max, p.n_d, cfg.n_unit, cfg.l_weight, cfg.l_skey, cfg.l_seedkey)
    report["scenario"] = "search_space"
    report["ours_exceeds_baseline"] = int(report["eq11"]["exact"]) > int(report["eq9"]["exact"])
    return _json(report)


def _dispersion(cfg):
    m = cfg.master_seed
    corpus = make_corpus(cfg.n_sentences, cfg.codec, derive_int(m, "dispersion", "corpus"))
    weights = RawReader(derive_digest(m, "dispersion", "weights"), "weights")
    raw = {"s1": [], "s2": [], "s3": [], "s4": [], "weighted_sum": []}
    for i, sentence in enumerate(corpus):
        scores = bleu_reference(sentence, decode(encode(sentence, cfg.codec), cfg.codec, noise_seed=i))
        for name, value in zip(raw, (scores.s1, scores.s2, scores.s3, scores.s4,
                                     generated_bleu(scores, weight_generator(weights)))):
            raw[name].append(value)
    channels = {}
    for name, values in raw.items():
        hist = np.histogram(np.array(values, dtype=np.float64) / Q32_ONE, bins=64, range=(0.0, 1.0))[0]
        share = hist[hist > 0] / hist.sum()
        channels[name] = {"distinct": len(set(values)), "histogram": hist.tolist(),
                          "entropy": float(-(share * np.log2(share)).sum())}
    return _json({"n_sentences": len(corpus), "channels": channels, "scenario": "dispersion", "master_seed": m})


_SCENARIOS = {
    "ber_sweep": _ber_sweep,
    "bleu_compare": _bleu_compare,
    "constellation": _constellation,
    "keygen_demo": _keygen_demo,
    "search_space": _search_space,
    "dispersion": _dispersion,
}


def render(cfg) -> str:
    """The file content of ``cfg``'s scenario; a search space too large to
    write raises ConfigError, as the scenario does."""
    return _SCENARIOS[cfg.scenario](cfg)
