"""The benchmark's workloads: seeded inputs, the timed program call, output checks.

A workload turns ``--seed`` into a *pass*: a short list of samples with
distinct inputs.  The benchmark cycles through the pass until its time
is up, so every input is timed several times and its output digest must
repeat exactly.  Each sample's ``run`` is the only code timed; checking
its output happens afterwards.

Program functions are looked up on their modules at call time (``ob.obfuscate``,
never a name bound at import) so the traced run's wrappers see every call.

Why these three workloads:

* ``bulk_sweep`` - few, long frames: seed-driven layout replay
  (``obfuscate``/``recover_bits`` via ``Keystream.draw_uniform``) and
  large-array OFDM plus multipath convolution.  One key ceremony per
  SNR point.
* ``sentence_frames`` - thousands of 48-360-bit sentence frames, each with
  its own key ceremony: ``simulate_plk``, weights, SKey, n-gram scoring,
  decode and the fixed cost of each call on tiny arrays.
* ``frame_wire`` - the library path without OFDM or key ceremony:
  obfuscate, wire round trip, trusted-frame deobfuscate, lossy replay.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from semshield import codec, experiments as ex, obfuscation as ob

WORKLOADS = ("bulk_sweep", "sentence_frames", "frame_wire")

# High enough that 16QAM over AWGN is error-free for every seed (the
# decision margin is about 45 noise standard deviations), so the
# encrypted chain must score exactly like the plain one.
ERROR_FREE_SNR_DB = 40.0


@dataclass
class Sample:
    """One timed unit of work and how to judge its output."""

    label: str
    payload_bits: int
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]


def _sub_seed(workload: str, seed: int, k: int) -> int:
    tag = f"perfbench|{workload}|{seed}|{k}".encode("ascii")
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _text_digest(text: str) -> str:
    return _sha(text.encode("ascii"))


def _csv_rows(text: str) -> list[dict]:
    header, *lines = text.strip().split("\n")
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines]


# --- bulk_sweep -----------------------------------------------------------------

BULK_SNRS = (0.0, 8.0, 16.0, 24.0)


def _bulk_check(n_bits: int, snr: float):
    # The eavesdropper's bits are independent of the data: Binomial(n, 1/2),
    # so 8 standard deviations never trip by chance.
    eve_tol = 8 * 0.5 / math.sqrt(n_bits)

    def check(text: str) -> list:
        rows = _csv_rows(text)
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        row = rows[0]
        errors = []
        if float(row["snr_db"]) != snr or int(row["n_bits"]) != n_bits:
            errors.append(f"row describes the wrong point: {row}")
        for col in ("ber_plain", "ber_legit"):
            if not 0.0 <= float(row[col]) <= 0.5:
                errors.append(f"{col}={row[col]} outside [0, 0.5]")
        if abs(float(row["ber_eavesdropper"]) - 0.5) > eve_tol:
            errors.append(f"eavesdropper BER {row['ber_eavesdropper']} not near 0.5")
        return errors

    return check


def bulk_sweep(seed: int, small: bool = False) -> list[Sample]:
    """ber_sweep over 3-tap Rayleigh multipath, 1e6 bits per SNR point."""
    n_bits = 20_000 if small else 1_000_000
    base = ex.ExperimentConfig(
        scenario="ber_sweep", channel_kind="rayleigh_multipath", channel_taps=3, n_bits=n_bits)
    samples = []
    for k, snr in enumerate(BULK_SNRS):
        cfg = replace(base, snr_list=(snr,), master_seed=_sub_seed("bulk_sweep", seed, k))
        samples.append(Sample(
            label=f"ber_sweep snr={snr} master_seed={cfg.master_seed}",
            payload_bits=n_bits,
            run=lambda cfg=cfg: ex.render_output(cfg),
            check=_bulk_check(n_bits, snr),
            digest=_text_digest,
        ))
    return samples


# --- sentence_frames ------------------------------------------------------------

SENTENCE_SNRS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0)


def _sentence_check(snrs: tuple):
    def check(text: str) -> list:
        rows = _csv_rows(text)
        errors = []
        if len(rows) != 4 * len(snrs):
            errors.append(f"expected {4 * len(snrs)} rows, got {len(rows)}")
        for row in rows:
            for col in ("bleu_enc", "bleu_noenc"):
                if not 0.0 <= float(row[col]) <= 1.0:
                    errors.append(f"{col}={row[col]} outside [0, 1]")
            if float(row["snr_db"]) == ERROR_FREE_SNR_DB and row["bleu_enc"] != row["bleu_noenc"]:
                errors.append(f"error-free point scores differ: {row}")
        return errors

    return check


def sentence_frames(seed: int, small: bool = False) -> list[Sample]:
    """bleu_compare over AWGN with a key ceremony for every sentence frame."""
    n_sentences = 4 if small else 40
    samples = []
    for k, snr in enumerate(SENTENCE_SNRS):
        cfg = ex.ExperimentConfig(
            scenario="bleu_compare", channel_kind="awgn", key_refresh="per_frame",
            n_sentences=n_sentences, snr_list=(snr, ERROR_FREE_SNR_DB),
            master_seed=_sub_seed("sentence_frames", seed, k))
        corpus = codec.make_corpus(
            cfg.n_sentences, cfg.codec, ex.derive_int(cfg.master_seed, "bleu", "corpus"))
        sentence_bits = sum(s.size for s in corpus) * cfg.codec.token_bits
        samples.append(Sample(
            label=f"bleu_compare snr={snr},{ERROR_FREE_SNR_DB} master_seed={cfg.master_seed}",
            payload_bits=sentence_bits * len(cfg.snr_list),
            run=lambda cfg=cfg: ex.render_output(cfg),
            check=_sentence_check(cfg.snr_list),
            digest=_text_digest,
        ))
    return samples


# --- frame_wire -----------------------------------------------------------------

WIRE_MIN_BITS = 2_000
WIRE_MAX_BITS = 64_000
WIRE_PASS = 6


def _wire_frames(seed: int, k: int, n_frames: int, max_bits: int) -> list:
    """Payloads stratified over [WIRE_MIN_BITS, max_bits] so every sample
    carries about the same total while units per frame vary."""
    rng = np.random.default_rng([seed, k, 0x57])
    width = (max_bits - WIRE_MIN_BITS) / n_frames
    frames = []
    for i in rng.permutation(n_frames):
        n = WIRE_MIN_BITS + int((i + rng.random()) * width)
        data = rng.integers(0, 2, n).astype(np.uint8)
        key = rng.integers(0, 2, 128).astype(np.uint8)
        frames.append((data, key))
    return frames


def _wire_run(frames, p, model):
    out = []
    for data, key in frames:
        frame = ob.obfuscate(data, key, p, model)
        air = ob.ota_bits(frame)
        wire = ob.serialize_frame(frame)
        back = ob.deobfuscate(ob.deserialize_frame(wire, p), key, p)
        replay = ob.recover_bits(air, frame.l_d, key, p)
        out.append((wire, air.size, back, replay))
    return out


def _wire_check(frames, p):
    def check(out) -> list:
        errors = []
        for i, ((data, _), (_, n_air, back, replay)) in enumerate(zip(frames, out)):
            if not np.array_equal(back, data):
                errors.append(f"frame {i}: wire round trip changed the payload")
            if not np.array_equal(replay, data):
                errors.append(f"frame {i}: replay from on-air bits changed the payload")
            if n_air % p.symbol_bits:
                errors.append(f"frame {i}: {n_air} on-air bits is not whole OFDM symbols")
        return errors

    return check


def _wire_digest(out) -> str:
    return _sha(*(wire + np.packbits(back).tobytes() + np.packbits(replay).tobytes()
                  for wire, _, back, replay in out))


def frame_wire(seed: int, small: bool = False) -> list[Sample]:
    """obfuscate -> ota_bits -> serialize -> deserialize -> deobfuscate, plus recover_bits."""
    n_frames, max_bits = (2, 8_000) if small else (16, WIRE_MAX_BITS)
    p = ob.ObfuscationParams()
    model = codec.CodecModel()
    samples = []
    for k in range(WIRE_PASS):
        frames = _wire_frames(seed, k, n_frames, max_bits)
        samples.append(Sample(
            label=f"frame_wire batch={k} frames={n_frames}",
            payload_bits=sum(data.size for data, _ in frames),
            run=lambda frames=frames: _wire_run(frames, p, model),
            check=_wire_check(frames, p),
            digest=_wire_digest,
        ))
    return samples


BUILDERS = {"bulk_sweep": bulk_sweep, "sentence_frames": sentence_frames, "frame_wire": frame_wire}
