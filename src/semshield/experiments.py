"""End-to-end experiment scenarios with deterministic, file-based output.

Every scenario is a pure function of its config: all randomness flows
through SHA-256-derived substreams of (master_seed, scenario, point
index, role), so re-running a config reproduces its output files byte
for byte and points can be computed in any order.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .bits import BitString, _rng, hex_from_bits, xor_bits
from .codec import CodecModel, _substitute, bleu_scores_many, decode, encode, make_corpus
from .fields import check_fields, describe
from .keying import (
    InsufficientEntropyError,
    KeyMaterial,
    Keystream,
    constant_trace,
    generate_skey,
    rayleigh_trace,
    simulate_plk,
    weight_generator,
)
from .obfuscation import ObfuscationParams, obfuscate, ota_bits, recover_bits
from .ofdm import (
    BITS_PER_SYMBOL,
    CP_LEN,
    KIND_RAYLEIGH_MULTIPATH,
    N_FFT,
    ChannelModel,
    apply_channel,
    measure_ber,
    ofdm_demodulate_equalize,
    ofdm_modulate,
    qam16_demap,
    qam16_map,
)
from . import security

DEFAULT_SNR_GRID = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0)
# How often the key ceremony reruns: once per frame or once per SNR point.
KEY_REFRESH = ("per_frame", "per_point")


class ConfigError(ValueError):
    """The experiment configuration is missing, malformed, or inconsistent."""


def snr_values(value) -> tuple:
    """An ``snr_list`` as sorted floats.  It must be a list or tuple of real
    numbers that fit a float; bools and strings are rejected."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"snr_list must be a list of numbers, not {describe(value)}")
    for snr in value:
        if isinstance(snr, bool) or not isinstance(snr, numbers.Real):
            raise ConfigError(f"snr_list entries must be numbers, not {describe(snr)}")
    try:
        return tuple(sorted(float(snr) for snr in value))
    except OverflowError:  # an int too large for a float
        raise ConfigError("snr_list entries must fit a float") from None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "ber_sweep"
    snr_list: tuple = DEFAULT_SNR_GRID
    n_bits: int = 1_000_000
    n_sentences: int = 500
    obfuscation: ObfuscationParams = field(default_factory=ObfuscationParams)
    codec: CodecModel = field(default_factory=CodecModel)
    channel_kind: str = "awgn"
    channel_taps: int = 3
    master_seed: int = 0
    static_channel: bool = False
    key_refresh: str = "per_frame"
    output_path: str | None = None
    n_unit: int = 16
    l_weight: int = 16
    l_skey: int = 128
    l_seedkey: int = 128
    guard_band: float = 0.2
    n_probes: int = 4096
    probe_coherence: int = 1
    probe_noise_std: float = 0.0

    def __post_init__(self):
        check_fields(self, _CONFIG_RULES, error=ConfigError)
        object.__setattr__(self, "snr_list", snr_values(self.snr_list))
        if SCENARIOS[self.scenario].needs_snr and not self.snr_list:
            raise ConfigError("snr_list must be non-empty for channel scenarios")
        if self.output_path == "":
            raise ConfigError("output_path must name a file, not ''")
        if self.l_skey % 8 or self.l_seedkey % 8:
            raise ConfigError("key lengths must be whole bytes (multiples of 8 bits)")
        if self.scenario == "dispersion" and self.n_sentences < security.MIN_DISPERSION_SENTENCES:
            raise ConfigError(f"dispersion needs n_sentences >= {security.MIN_DISPERSION_SENTENCES}")
        try:
            for snr in self.snr_list or (math.inf,):
                self.channel(snr, channel_seed=0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def channel(self, snr_db: float, channel_seed: int) -> ChannelModel:
        taps = self.channel_taps if self.channel_kind == KIND_RAYLEIGH_MULTIPATH else 1
        return ChannelModel(self.channel_kind, snr_db, taps, channel_seed)


def load_config(path: str | Path | None = None, /, **values) -> ExperimentConfig:
    """The config of the JSON file at ``path`` (none when None) with
    ``values`` in place of its fields; every failure is a ConfigError.

    The scenario rules see the combined config.  A file value that
    ``values`` replaces must still pass its own rule: its class for an
    ``obfuscation`` or ``codec`` section, snr_values and the dB range for
    ``snr_list``, the ChannelModel check for ``channel_kind``, and its
    _CONFIG_RULES row for any other field.
    """
    file = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except ValueError as exc:  # JSONDecodeError, bytes that are not UTF-8, an int past the digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError("config is nested too deeply to parse") from None
        if not isinstance(file, dict):
            raise ConfigError("config root must be a JSON object")
    data = {**file, **values}
    replaced = {name: file[name] for name in values if name in file}
    try:
        for raw in (data, replaced):
            for name, section in (("obfuscation", ObfuscationParams), ("codec", CodecModel)):
                if isinstance(raw.get(name), dict):
                    raw[name] = section(**raw[name])
        cfg = ExperimentConfig(**data)
        if "snr_list" in replaced:  # an empty file list passes alone; the combined SNRs stand in
            replaced["snr_list"] = snr_values(replaced["snr_list"]) or cfg.snr_list
        by_channel = {name: replaced.pop(name) for name in ("snr_list", "channel_kind") if name in replaced}
        if by_channel:
            replace(cfg, **by_channel)
        check_fields(SimpleNamespace(**replaced), {name: _CONFIG_RULES[name] for name in replaced})
    except (TypeError, ValueError) as exc:  # a ConfigError comes out with its message
        raise ConfigError(str(exc)) from None
    return cfg


# --- deterministic substreams ------------------------------------------------


def derive_digest(master_seed: int, *parts) -> bytes:
    tag = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    return hashlib.sha256(tag.encode("ascii")).digest()


def derive_rng(master_seed: int, *parts) -> np.random.Generator:
    return _rng(*struct.unpack("<4Q", derive_digest(master_seed, *parts)))


def derive_int(master_seed: int, *parts) -> int:
    return int.from_bytes(derive_digest(master_seed, *parts)[:8], "big")


# --- shared chain pieces ------------------------------------------------------


def _n_symbols(nbits: int) -> int:
    """OFDM symbols that carry ``nbits`` bits, the last one padded."""
    return -(-nbits // (N_FFT * BITS_PER_SYMBOL))


def _pad_to_grid(bits: BitString, master_seed: int, pad_scope: tuple) -> np.ndarray:
    """Extend a bit string with random filler so it fills whole OFDM symbols.

    The filler is drawn from the substream of ``pad_scope``, which is built
    only when filler is needed.
    """
    total = _n_symbols(bits.size) * N_FFT * BITS_PER_SYMBOL
    if total == bits.size:
        return bits
    filler = derive_rng(master_seed, *pad_scope).integers(0, 2, total - bits.size).astype(np.uint8)
    return np.concatenate([bits, filler])


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate, without copying a lone part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _transmit(master_seed: int, frames: list[BitString], pad_scopes: list[tuple]) -> np.ndarray:
    """Pad each frame with filler from its own substream; map and modulate them back to back."""
    padded = [_pad_to_grid(bits, master_seed, scope) for bits, scope in zip(frames, pad_scopes)]
    return ofdm_modulate(qam16_map(_join(padded)))


def _equalize(tx: np.ndarray, channels: list[ChannelModel], sizes: list[int]) -> np.ndarray:
    """Pass each frame of ``sizes[i]`` bits in ``tx`` through its own channel;
    return the equalized symbols of all frames."""
    n_symbols = [_n_symbols(n) for n in sizes]
    parts, start = [], 0
    for ch, m in zip(channels, n_symbols):
        stop = start + m * (N_FFT + CP_LEN)
        parts.append(apply_channel(tx[start:stop], ch))
        start = stop
    return ofdm_demodulate_equalize(_join(parts), channels, n_symbols)


def _receive(tx: np.ndarray, channels: list[ChannelModel], sizes: list[int]) -> list[BitString]:
    """The received bits of each frame in ``tx``, as ``_equalize`` sees them."""
    bits = qam16_demap(_equalize(tx, channels, sizes))
    starts = np.cumsum([0] + [_n_symbols(n) for n in sizes]) * N_FFT * BITS_PER_SYMBOL
    return [bits[start:start + n] for start, n in zip(starts, sizes)]


def _corpus_bits(cfg: ExperimentConfig, n_bits: int, rng: np.random.Generator) -> BitString:
    """Payload bits drawn as a uniformly random token stream."""
    n_tokens = -(-n_bits // cfg.codec.token_bits)
    tokens = rng.integers(0, cfg.codec.vocab_size, size=n_tokens)
    return encode(tokens, cfg.codec)[:n_bits]


def _derive_key_materials(cfg: ExperimentConfig, scopes: list[tuple]) -> list[tuple[KeyMaterial, dict]]:
    """Run the whole keying ceremony for each frame scope.

    PLK from a channel trace (constant when static_channel), SKey from
    the n-gram scores of one reference sentence against its decoded
    version, weights drawn from a PLK-seeded stream.  The decoded version
    is the codec's substitution applied to the sentence's tokens, the
    tokens ``decode`` would return for the sentence's own bits.  Every
    scope keeps its own trace, noise, sentence and substitution seeds; the
    sentences of all scopes are scored in one call.
    """
    plks, infos, pairs = [], [], []
    for scope in scopes:
        if cfg.static_channel:
            trace = constant_trace(cfg.n_probes, 1.0, cfg.probe_noise_std)
        else:
            trace = rayleigh_trace(
                cfg.n_probes,
                derive_int(cfg.master_seed, *scope, "trace"),
                cfg.probe_coherence,
                cfg.probe_noise_std,
            )
        # simulate_plk reads the noise seed only for noisy probes.
        noise_seed = derive_int(cfg.master_seed, *scope, "probe-noise") if cfg.probe_noise_std else 0
        try:
            plk, entropy = simulate_plk(trace, cfg.l_seedkey, cfg.guard_band, noise_seed=noise_seed)
            insufficient = False
        except InsufficientEntropyError as exc:
            plk = np.zeros(cfg.l_seedkey, dtype=np.uint8)
            entropy = exc.entropy_estimate
            insufficient = True
        plks.append(plk)
        infos.append({"plk_entropy_estimate": entropy, "insufficient_entropy": insufficient})

        sentence = make_corpus(1, cfg.codec, derive_int(cfg.master_seed, *scope, "sentence"))[0]
        decoded = _substitute(sentence, cfg.codec, derive_int(cfg.master_seed, *scope, "decode"))
        pairs.append((sentence, decoded))

    out = []
    for plk, info, scores in zip(plks, infos, bleu_scores_many(pairs)):
        weights = weight_generator(Keystream.from_seed_bits(plk, "weights"), cfg.l_weight)
        out.append((KeyMaterial(plk, generate_skey(scores, weights, cfg.l_skey)), info))
    return out


# --- scenarios ----------------------------------------------------------------


def run_ber_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Plain, legitimate, and wrong-seed receiver BER at each SNR point."""
    rows = []
    p = cfg.obfuscation
    for i, snr in enumerate(cfg.snr_list):
        scope = ("ber_sweep", i)
        data = _corpus_bits(cfg, cfg.n_bits, derive_rng(cfg.master_seed, *scope, "data"))

        [(km, _)] = _derive_key_materials(cfg, [scope])
        frame = obfuscate(data, km.seed_key, p, cfg.codec)
        ota = ota_bits(frame)
        tx = _transmit(cfg.master_seed, [ota], [(*scope, "pad")])

        ch_legit = cfg.channel(snr, derive_int(cfg.master_seed, *scope, "ch-legit"))
        [rx_legit] = _receive(tx, [ch_legit], [ota.size])
        ber_legit = measure_ber(data, recover_bits(rx_legit, frame.l_d, km.seed_key, p))

        # Eavesdropper: own independent channel, correct demodulation,
        # uniformly random wrong seed.
        ch_eve = cfg.channel(snr, derive_int(cfg.master_seed, *scope, "ch-eve"))
        [rx_eve] = _receive(tx, [ch_eve], [ota.size])
        wrong_seed = derive_rng(cfg.master_seed, *scope, "eve-seed").integers(
            0, 2, cfg.l_seedkey).astype(np.uint8)
        if np.array_equal(wrong_seed, km.seed_key):
            wrong_seed = xor_bits(wrong_seed, np.eye(1, cfg.l_seedkey, dtype=np.uint8)[0])
        ber_eve = measure_ber(data, recover_bits(rx_eve, frame.l_d, wrong_seed, p))

        ch_plain = cfg.channel(snr, derive_int(cfg.master_seed, *scope, "ch-plain"))
        tx_plain = _transmit(cfg.master_seed, [data], [(*scope, "pad-plain")])
        [rx_plain] = _receive(tx_plain, [ch_plain], [data.size])
        ber_plain = measure_ber(data, rx_plain)

        rows.append({
            "snr_db": snr,
            "ber_plain": ber_plain,
            "ber_legit": ber_legit,
            "ber_eavesdropper": ber_eve,
            "n_bits": cfg.n_bits,
        })
    return rows


def run_bleu_compare(cfg: ExperimentConfig) -> list[dict]:
    """Corpus-mean n-gram scores with and without the encryption chain.

    Each SNR point sends all its frames, encrypted and plain, through one
    modulate/demodulate pass; every frame keeps its own key, pad filler,
    channel realization and noise.  A point is known by its index, so a
    repeated SNR gets its own rows, in ``snr_list`` order within each gram.
    """
    corpus = make_corpus(cfg.n_sentences, cfg.codec, derive_int(cfg.master_seed, "bleu", "corpus"))
    p = cfg.obfuscation
    n = len(corpus)
    # Encoded once for every point: obfuscate, _transmit and decode only read these.
    plain = [encode(sentence, cfg.codec) for sentence in corpus]
    n_points = len(cfg.snr_list)
    # Per sentence, its received rows: (encrypted, plain) of each point in turn.
    received = [np.empty((2 * n_points, bits.size), dtype=np.uint8) for bits in plain]
    for i, snr in enumerate(cfg.snr_list):
        scope = ("bleu_compare", i)
        if cfg.key_refresh == "per_point":
            keys = [km.seed_key for km, _ in _derive_key_materials(cfg, [scope])] * n
        else:
            keys = [km.seed_key for km, _ in _derive_key_materials(cfg, [(*scope, j) for j in range(n)])]
        frames = [obfuscate(bits, key, p, cfg.codec) for bits, key in zip(plain, keys)]
        # The n encrypted frames, then the n plain ones.
        sent = [ota_bits(frame) for frame in frames] + plain
        roles = [(j, role) for role in ("", "-plain") for j in range(n)]
        tx = _transmit(cfg.master_seed, sent, [(*scope, j, "pad" + r) for j, r in roles])
        channels = [cfg.channel(snr, derive_int(cfg.master_seed, *scope, j, "ch" + r)) for j, r in roles]
        rx = _receive(tx, channels, [bits.size for bits in sent])
        for j in range(n):
            received[j][2 * i] = recover_bits(rx[j], frames[j].l_d, keys[j], p)
            received[j][2 * i + 1] = rx[n + j]

    # Every received copy of sentence j shares its substitution draws, so the
    # copies of all points are decoded as one stack.  Each point's pairs
    # (enc j, plain j) are scored in one call: a call over the whole run
    # holds the n-gram arrays of every pair at once.
    decoded = [decode(rows, cfg.codec, noise_seed=j) for j, rows in enumerate(received)]
    table = np.array([
        [score.as_floats() for score in bleu_scores_many(
            (corpus[j], hyp) for j in range(n) for hyp in decoded[j][2 * i:2 * i + 2])]
        for i in range(n_points)
    ]).reshape(n_points, n, 2, 4)
    # Summed frame by frame, in corpus order, as the means are defined.
    means = np.cumsum(table, axis=1)[:, -1] / n
    return [{"gram": gram, "snr_db": snr, "bleu_enc": float(enc[gram - 1]), "bleu_noenc": float(noenc[gram - 1])}
            for gram in range(1, 5) for snr, (enc, noenc) in zip(cfg.snr_list, means)]


def emit_constellation(cfg: ExperimentConfig) -> np.ndarray:
    """Received equalized symbols at the first configured SNR."""
    snr = cfg.snr_list[0]
    scope = ("constellation", 0)
    bits = _corpus_bits(cfg, cfg.n_bits, derive_rng(cfg.master_seed, *scope, "data"))
    tx = _transmit(cfg.master_seed, [bits], [(*scope, "pad")])
    ch = cfg.channel(snr, derive_int(cfg.master_seed, *scope, "ch"))
    return _equalize(tx, [ch], [bits.size])


def run_keygen_demo(cfg: ExperimentConfig) -> dict:
    """One full key ceremony plus the SKey transport round trip."""
    [(km, info)] = _derive_key_materials(cfg, [("keygen", 0)])
    transport = xor_bits(km.skey, Keystream.from_seed_bits(km.plk, "skey-transport").bits(cfg.l_skey))
    skey_rx = xor_bits(transport, Keystream.from_seed_bits(km.plk, "skey-transport").bits(cfg.l_skey))
    seed_rx = KeyMaterial(km.plk, skey_rx).seed_key
    return {
        "scenario": "keygen_demo",
        "static_channel": cfg.static_channel,
        "plk_entropy_estimate": info["plk_entropy_estimate"],
        "insufficient_entropy": info["insufficient_entropy"],
        "plk_hex": hex_from_bits(km.plk),
        "skey_hex": hex_from_bits(km.skey),
        "seed_hex": hex_from_bits(km.seed_key),
        "skey_transport_hex": hex_from_bits(transport),
        "match": bool(np.array_equal(seed_rx, km.seed_key)),
        "l_skey": cfg.l_skey,
        "l_seedkey": cfg.l_seedkey,
    }


def run_search_space(cfg: ExperimentConfig) -> dict:
    p = cfg.obfuscation
    try:
        report = security.analyze(
            s_max=p.s_max, k_max=p.k_max, n_d=p.n_d, n_unit=cfg.n_unit,
            l_weight=cfg.l_weight, l_skey=cfg.l_skey, l_seedkey=cfg.l_seedkey,
        )
    except ValueError as exc:  # a count too large to write
        raise ConfigError(str(exc)) from None
    report["scenario"] = "search_space"
    report["ours_exceeds_baseline"] = int(report["eq11"]["exact"]) > int(report["eq9"]["exact"])
    return report


def run_dispersion(cfg: ExperimentConfig) -> dict:
    corpus = make_corpus(cfg.n_sentences, cfg.codec, derive_int(cfg.master_seed, "dispersion", "corpus"))
    ks = Keystream(derive_digest(cfg.master_seed, "dispersion", "weights"), "weights")
    report = security.bleu_dispersion_report(corpus, cfg.codec, ks)
    report["scenario"] = "dispersion"
    report["master_seed"] = cfg.master_seed
    return report


# --- output -------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.8f}"
    return str(value)


def _csv_text(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _render_constellation(cfg: ExperimentConfig) -> str:
    lines = ["re,im"] + [f"{s.real:.9f},{s.imag:.9f}" for s in emit_constellation(cfg)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Scenario:
    """How one scenario is run and written: file extension, whether it
    needs an SNR grid, and the renderer of its canonical file content."""

    ext: str
    needs_snr: bool
    render: Callable[[ExperimentConfig], str]


# The scenario registry; iteration order is the CLI's listing order.  The
# renderers call the scenario functions by module-global name, so a function
# patched on this module is the one that runs.
SCENARIOS = {
    "ber_sweep": Scenario("csv", True, lambda cfg: _csv_text(
        ["snr_db", "ber_plain", "ber_legit", "ber_eavesdropper", "n_bits"], run_ber_sweep(cfg))),
    "bleu_compare": Scenario("csv", True, lambda cfg: _csv_text(
        ["gram", "snr_db", "bleu_enc", "bleu_noenc"], run_bleu_compare(cfg))),
    "constellation": Scenario("csv", True, _render_constellation),
    "keygen_demo": Scenario("json", False, lambda cfg: _json_text(run_keygen_demo(cfg))),
    "search_space": Scenario("json", False, lambda cfg: _json_text(run_search_space(cfg))),
    "dispersion": Scenario("json", False, lambda cfg: _json_text(run_dispersion(cfg))),
}

# ExperimentConfig's per-field rules (fields.check_fields), after SCENARIOS,
# whose names are the scenarios it takes.  snr_values checks snr_list, and
# ChannelModel checks channel_kind and the bounds of channel_taps.
_CONFIG_RULES = {
    "scenario": (tuple(SCENARIOS), None, None),
    "key_refresh": (KEY_REFRESH, None, None),
    "obfuscation": (ObfuscationParams, None, None),
    "codec": (CodecModel, None, None),
    "static_channel": (bool, None, None),
    "output_path": ((str, type(None)), None, None),
    **dict.fromkeys(("n_bits", "n_sentences", "n_unit", "l_weight", "n_probes", "probe_coherence"), (int, 1, None)),
    **dict.fromkeys(("l_skey", "l_seedkey"), (int, 1, 256)),
    **dict.fromkeys(("channel_taps", "master_seed"), (int, None, None)),
    "guard_band": (float, 0, None),
    # Far above the unit-power gains it blurs, and small enough that the
    # std of the noisy probes stays finite.
    "probe_noise_std": (float, 0, 1e6),
}


def render_output(cfg: ExperimentConfig) -> str:
    """Run the configured scenario and render its canonical file content."""
    return SCENARIOS[cfg.scenario].render(cfg)


def run_to_file(cfg: ExperimentConfig, out_path: str | Path) -> Path:
    text = render_output(cfg)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="ascii")
    return out
