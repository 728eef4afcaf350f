import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semshield import experiments
from semshield.cli import build_parser, main
from semshield.codec import CodecModel, encode, make_corpus
from semshield.experiments import (
    DEFAULT_SNR_GRID,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    derive_digest,
    derive_int,
    derive_rng,
    emit_constellation,
    load_config,
    render_output,
    run_ber_sweep,
    run_bleu_compare,
    run_keygen_demo,
    run_search_space,
    run_to_file,
)
from semshield.fields import DESCRIBE_MAX_CHARS
from semshield.obfuscation import ObfuscationParams
from semshield.ofdm import BITS_PER_SYMBOL, N_FFT, qam16_map

import spec


SRC = Path(__file__).resolve().parents[1] / "src"


def _fast_cfg(**kw):
    base = dict(scenario="ber_sweep", snr_list=(math.inf,), n_bits=2000,
                n_sentences=10, n_probes=512)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.scenario == "ber_sweep"
        assert cfg.snr_list == DEFAULT_SNR_GRID
        assert cfg.n_bits == 1_000_000
        assert cfg.n_sentences == 500
        assert cfg.key_refresh == "per_frame"

    def test_scenarios_enumerated(self):
        assert set(SCENARIOS) == {"ber_sweep", "bleu_compare", "constellation",
                                  "keygen_demo", "search_space", "dispersion"}

    def test_snr_list_is_sorted(self):
        cfg = ExperimentConfig(snr_list=(12, 0, 6))
        assert cfg.snr_list == (0.0, 6.0, 12.0)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="nope")

    def test_rejects_bad_key_refresh(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(key_refresh="sometimes")

    def test_rejects_oversize_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(l_skey=257)

    @pytest.mark.parametrize("field", ["l_skey", "l_seedkey"])
    def test_rejects_key_lengths_that_are_not_whole_bytes(self, field):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: 100})

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_rejects_nan_and_negative_infinite_snr(self, snr_db):
        # ber_sweep at -inf dB used to run noise-free and report ber_plain 0.
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig(scenario="ber_sweep", snr_list=(snr_db,))

    @pytest.mark.parametrize("field", ["n_bits", "n_sentences", "n_unit", "l_weight", "l_skey",
                                       "l_seedkey", "n_probes", "probe_coherence",
                                       "channel_taps", "master_seed"])
    @pytest.mark.parametrize("value", [8.0, True, "8"])
    def test_rejects_integer_fields_of_other_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["guard_band", "probe_noise_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.1", True,
                                       pytest.param(10**400, id="401_digits")])
    def test_rejects_non_finite_real_fields(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    # repr fails for an int past Python's 4300-digit limit for str and for a
    # list nested past the recursion limit; naming such a value in the message
    # used to raise a plain ValueError (or RecursionError), not ConfigError.
    @pytest.mark.parametrize("field", ["guard_band", "scenario", "output_path", "snr_list"])
    @pytest.mark.parametrize("value", [
        pytest.param(10**5000, id="5001_digits"),
        pytest.param([[10**5000]], id="5001_digits_in_a_list"),
        pytest.param(functools.reduce(lambda inner, _: [inner], range(10_000), []), id="10000_deep"),
    ])
    def test_rejects_values_repr_cannot_print(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    # A 100,000-character scenario used to give a 100,109-character message.
    @pytest.mark.parametrize("field,value", [
        ("scenario", "x" * 100_000),
        ("output_path", functools.reduce(lambda inner, _: [inner], range(500), [])),
    ])
    def test_error_messages_cut_long_values(self, field, value):
        with pytest.raises(ConfigError, match=field) as exc:
            ExperimentConfig(**{field: value})
        assert str(exc.value).endswith(", not " + repr(value)[:DESCRIBE_MAX_CHARS] + "...")

    def test_rejects_short_dispersion_corpus(self):
        # It used to pass the config check and fail at run time (exit 3).
        with pytest.raises(ConfigError, match="n_sentences"):
            ExperimentConfig(scenario="dispersion", n_sentences=99)

    @pytest.mark.parametrize("field,value", [
        ("obfuscation", {"s_max": 2}), ("obfuscation", None),
        ("codec", {"vocab_size": 16}), ("codec", ObfuscationParams()),
    ])
    def test_rejects_sections_that_are_not_their_classes(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_channel_helper_passes_taps_only_for_multipath(self):
        cfg = ExperimentConfig(channel_kind="rayleigh_multipath", channel_taps=5)
        assert cfg.channel(10.0, 1).taps == 5
        cfg = ExperimentConfig(channel_kind="awgn", channel_taps=5)
        assert cfg.channel(10.0, 1).taps == 1

    def test_load_config_nested_sections(self):
        cfg = load_config(**{
            "scenario": "ber_sweep",
            "snr_list": [3, 0],
            "obfuscation": {"s_max": 2, "k_max": 3, "n_d": 8, "b": 2},
            "codec": {"vocab_size": 256, "deviation_rate": 0.0},
        })
        assert cfg.obfuscation.n_d == 8
        assert cfg.codec.token_bits == 8
        assert cfg.snr_list == (0.0, 3.0)

    def test_load_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            load_config(scenario="ber_sweep", bogus=1)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "search_space", "n_unit": 4}),
                        encoding="utf-8")
        cfg = load_config(path)
        assert cfg.scenario == "search_space"
        assert cfg.n_unit == 4

    def test_load_config_values_replace_file_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "search_space", "n_bits": 5, "n_unit": 4, "codec": {"vocab_size": 16}}),
                        encoding="utf-8")
        cfg = load_config(path, n_bits=7, codec={"vocab_size": 256})
        assert (cfg.n_bits, cfg.n_unit, cfg.codec) == (7, 4, CodecModel(vocab_size=256))

    def test_load_config_without_a_file_is_the_default(self):
        assert load_config() == ExperimentConfig()

    # Each combined config is valid, but the file value it replaces is not.
    @pytest.mark.parametrize("entry, values", [
        ('"n_bits": "x"', {"n_bits": 2000}),
        ('"snr_list": [NaN]', {"snr_list": [3.0]}),
        ('"snr_list": 3', {"snr_list": [3.0]}),
        ('"channel_kind": "bogus"', {"channel_kind": "awgn"}),
        ('"codec": {"vocab_size": 1}', {"codec": {}}),
        ('"obfuscation": []', {"obfuscation": ObfuscationParams()}),
    ])
    def test_load_config_checks_replaced_file_values(self, tmp_path, entry, values):
        path = tmp_path / "cfg.json"
        path.write_text("{%s}" % entry, encoding="utf-8")
        assert load_config(**values)
        with pytest.raises(ConfigError):
            load_config(path, **values)


# JSON-shaped values as Python's json module reads them: NaN and Infinity
# included, integers of any length (401 digits is too large for a float), and
# strings some fields accept.  A fixed alphabet spares hypothesis building its
# Unicode table, about 3 s per session.
_TEXT = st.text("az_.0 \x00\u00e9\U0001f600", max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 300), st.integers(), st.integers(min_value=2**64),
    st.integers(max_value=-2**64), st.just(10**400), st.floats(), _TEXT,
    st.sampled_from([*SCENARIOS, "per_frame", "per_point", "awgn", "rayleigh_multipath"]),
)
_NESTED = st.lists(_JSON_SCALARS, max_size=3) | st.dictionaries(_TEXT, _JSON_SCALARS, max_size=3)
_JSON = _JSON_SCALARS | _NESTED | st.lists(_NESTED, max_size=2)


def _fields_of(cls, **strategies):
    """Some of ``cls``'s fields, each a JSON value unless ``strategies`` names it."""
    optional = {f.name: strategies.get(f.name, _JSON) for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries({}, optional=optional)


def _section(cls):
    """A nested section: a dict of ``cls``'s own fields, or as often any JSON value."""
    return st.booleans().flatmap(lambda own: _fields_of(cls) if own else _JSON)


@settings(max_examples=120, deadline=None)
@given(raw=_fields_of(ExperimentConfig, obfuscation=_section(ObfuscationParams), codec=_section(CodecModel)))
@example(raw={"n_bits": 10**400, "guard_band": 10**400})
@example(raw={"scenario": [], "key_refresh": {}})
@example(raw={"obfuscation": [], "codec": "x"})
@example(raw={"obfuscation": {"s_max": math.nan}, "codec": {"vocab_size": 2**33}})
@example(raw={"codec": {"vocab_size": 2**32, "token_bits": None}})
def test_load_config_returns_a_config_or_raises_config_error(raw):
    try:
        cfg = load_config(**raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


@settings(max_examples=120, deadline=None)
@given(fields=_fields_of(ExperimentConfig))
@example(fields={"scenario": []})
@example(fields={"scenario": {}})
@example(fields={"key_refresh": []})
@example(fields={"output_path": {}, "static_channel": None})
def test_constructor_raises_only_config_error(fields):
    try:
        ExperimentConfig(**fields)
    except ConfigError:
        pass


# Small configs of each scenario, sized so that a run takes milliseconds.
# Fields stay mostly in range, so most configs run; a few SNRs lie past the
# bound, and search_space may ask for a count too large to write.
def _small_run(scenario):
    return st.fixed_dictionaries(
        {
            "scenario": st.just(scenario),
            "snr_list": st.lists(st.floats(-310, 310) | st.just(math.inf), min_size=1, max_size=2),
            "n_bits": st.integers(1, 2000),
            "n_sentences": st.integers(100, 101) if scenario == "dispersion" else st.integers(1, 8),
        },
        optional={
            "obfuscation": st.fixed_dictionaries({}, optional={
                "s_max": st.integers(1, 4), "k_max": st.integers(1, 8),
                "n_d": st.integers(9, 64), "b": st.integers(1, 8)}),
            "codec": st.fixed_dictionaries({}, optional={
                "vocab_size": st.sampled_from([2, 3, 16, 4096, 2**32]),
                "token_bits": st.integers(32, 40),
                "deviation_rate": st.floats(0, 1),
                "codec_seed": st.integers()}),
            "channel_kind": st.sampled_from(["awgn", "rayleigh_flat", "rayleigh_multipath"]),
            "channel_taps": st.integers(1, 16),
            "master_seed": st.integers(),
            "static_channel": st.booleans(),
            "key_refresh": st.sampled_from(["per_frame", "per_point"]),
            "n_unit": st.integers(1, 300),
            "l_weight": st.integers(1, 64),
            "l_skey": st.sampled_from([8, 128, 256]),
            "l_seedkey": st.sampled_from([8, 128, 256]),
            "guard_band": st.floats(0, 3),
            "n_probes": st.integers(1, 600),
            "probe_coherence": st.integers(1, 20),
            "probe_noise_std": st.floats(0, 2),
        },
    )


# Each config that loads must write what the spec writes, byte for byte; one
# example per scenario runs a config that loads.  The bleu_compare example
# keys all of a point's frames alike (per_point), so its frames share a
# stream key at different lengths, and its 6-dB point gives the encrypted
# and plain copies of a sentence different bit errors.
@settings(max_examples=150, deadline=None)
@given(raw=st.sampled_from(sorted(SCENARIOS)).flatmap(_small_run))
@example(raw={"scenario": "ber_sweep", "snr_list": [3.0, math.inf], "n_bits": 2000, "n_sentences": 1,
              "channel_kind": "rayleigh_multipath", "obfuscation": {"n_d": 32}})
@example(raw={"scenario": "bleu_compare", "snr_list": [6.0, 40.0], "n_bits": 1, "n_sentences": 8,
              "key_refresh": "per_point", "n_probes": 512})
@example(raw={"scenario": "constellation", "snr_list": [12.0], "n_bits": 1500, "n_sentences": 1,
              "channel_kind": "rayleigh_flat"})
@example(raw={"scenario": "keygen_demo", "snr_list": [0.0], "n_bits": 1, "n_sentences": 1,
              "n_probes": 500, "probe_coherence": 3, "probe_noise_std": 0.3})
@example(raw={"scenario": "search_space", "snr_list": [0.0], "n_bits": 1, "n_sentences": 1,
              "obfuscation": {"s_max": 3, "k_max": 8, "n_d": 9}, "n_unit": 20})
@example(raw={"scenario": "dispersion", "snr_list": [0.0], "n_bits": 1, "n_sentences": 100,
              "codec": {"vocab_size": 16, "deviation_rate": 0.3}})
def test_every_accepted_config_runs(raw):
    try:
        cfg = load_config(**raw)
    except ConfigError:
        return
    try:
        text = render_output(cfg)
    except ConfigError:  # a search space too large to write
        assert cfg.scenario == "search_space"
        with pytest.raises(ConfigError):
            spec.render(cfg)
        return
    assert text == spec.render(cfg)


class TestDerivation:
    def test_digest_deterministic_and_scoped(self):
        assert derive_digest(0, "a", 1) == derive_digest(0, "a", 1)
        assert derive_digest(0, "a", 1) != derive_digest(0, "a", 2)
        assert derive_digest(0, "a") != derive_digest(1, "a")

    def test_rng_streams_reproducible(self):
        a = derive_rng(7, "x").integers(0, 1000, 10)
        b = derive_rng(7, "x").integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_int_is_stable(self):
        assert derive_int(3, "tag") == derive_int(3, "tag")
        assert 0 <= derive_int(3, "tag") < 2 ** 64


class TestBerSweep:
    def test_noiseless_point_is_error_free_for_legitimate_parties(self):
        rows = run_ber_sweep(_fast_cfg())
        assert len(rows) == 1
        row = rows[0]
        assert row["ber_plain"] == 0.0
        assert row["ber_legit"] == 0.0
        assert 0.4 <= row["ber_eavesdropper"] <= 0.6
        assert row["n_bits"] == 2000

    def test_rows_cover_grid_in_order(self):
        cfg = _fast_cfg(snr_list=(12.0, 0.0))
        rows = run_ber_sweep(cfg)
        assert [r["snr_db"] for r in rows] == [0.0, 12.0]

    def test_deterministic_output(self):
        cfg = _fast_cfg(snr_list=(6.0,), master_seed=42)
        assert render_output(cfg) == render_output(cfg)


class TestBleuCompare:
    def test_noiseless_channel_gives_identical_columns(self):
        cfg = _fast_cfg(scenario="bleu_compare")
        rows = run_bleu_compare(cfg)
        assert len(rows) == 4  # 4 grams x 1 snr
        for row in rows:
            assert row["bleu_enc"] == pytest.approx(row["bleu_noenc"], abs=0.0)

    def test_zero_deviation_noiseless_scores_are_perfect(self):
        cfg = load_config(**{
            "scenario": "bleu_compare", "snr_list": [math.inf],
            "n_sentences": 10, "n_probes": 512,
            "codec": {"deviation_rate": 0.0},
        })
        for row in run_bleu_compare(cfg):
            assert row["bleu_enc"] == pytest.approx(1.0, abs=1e-9)
            assert row["bleu_noenc"] == pytest.approx(1.0, abs=1e-9)

    def test_row_order_gram_major(self):
        cfg = _fast_cfg(scenario="bleu_compare", snr_list=(0.0, 12.0),
                        n_sentences=4)
        rows = run_bleu_compare(cfg)
        assert [(r["gram"], r["snr_db"]) for r in rows] == \
            [(g, s) for g in (1, 2, 3, 4) for s in (0.0, 12.0)]

    def test_repeated_snr_gets_its_own_rows(self):
        # A point is known by its index: the first 3-dB point draws what the
        # lone point of [3] draws, the second what the 3-dB point of [2, 3] draws.
        def lines(snr_list):
            cfg = _fast_cfg(scenario="bleu_compare", snr_list=snr_list, n_sentences=6, n_probes=256)
            return render_output(cfg).splitlines()[1:]

        repeated, alone, pair = lines([3, 3]), lines([3]), lines([2, 3])
        assert repeated[0::2] == alone
        assert repeated[1::2] == pair[1::2]
        assert repeated[0] != repeated[1]

    # At 16 bits per token a 16-token sentence fills one OFDM symbol, so some
    # plain frames need no filler either.
    @pytest.mark.parametrize("codec", [CodecModel(), CodecModel(vocab_size=2**16)])
    def test_pad_generators_built_only_for_filler(self, monkeypatch, codec):
        pad_scopes = []
        real = experiments.derive_rng

        def counting(master_seed, *parts):
            if str(parts[-1]).startswith("pad"):
                pad_scopes.append(parts)
            return real(master_seed, *parts)

        monkeypatch.setattr(experiments, "derive_rng", counting)
        cfg = _fast_cfg(scenario="bleu_compare", snr_list=(6.0, 40.0), n_sentences=30, codec=codec)
        run_bleu_compare(cfg)
        corpus = make_corpus(cfg.n_sentences, codec, derive_int(cfg.master_seed, "bleu", "corpus"))
        short = sum(encode(s, codec).size % (N_FFT * BITS_PER_SYMBOL) != 0 for s in corpus)
        # Encrypted frames fill whole symbols at the default geometry and build none.
        assert [scope[-1] for scope in pad_scopes] == ["pad-plain"] * (len(cfg.snr_list) * short)


class TestConstellation:
    def test_noiseless_points_sit_on_ideal_grid(self):
        cfg = _fast_cfg(scenario="constellation", n_bits=4096)
        symbols = emit_constellation(cfg)
        assert symbols.size == 1024
        ideal = qam16_map(np.array(
            [[(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1] for v in range(16)],
            dtype=np.uint8).reshape(-1))
        dist = np.min(np.abs(symbols[:, None] - ideal[None, :]), axis=1)
        assert np.max(dist) < 1e-9

    def test_high_snr_points_cluster(self):
        cfg = _fast_cfg(scenario="constellation", snr_list=(24.0,), n_bits=4096)
        symbols = emit_constellation(cfg)
        ideal = qam16_map(np.array(
            [[(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1] for v in range(16)],
            dtype=np.uint8).reshape(-1))
        dist = np.min(np.abs(symbols[:, None] - ideal[None, :]), axis=1)
        half_min = 1.0 / np.sqrt(10.0)
        assert np.mean(dist < half_min) >= 0.99

    def test_csv_shape(self):
        cfg = _fast_cfg(scenario="constellation", n_bits=4096)
        lines = render_output(cfg).strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) == 1 + 1024
        re, im = lines[1].split(",")
        float(re), float(im)  # parseable


class TestKeygenDemo:
    def test_static_channel_yields_degenerate_plk(self):
        cfg = _fast_cfg(scenario="keygen_demo", static_channel=True)
        report = run_keygen_demo(cfg)
        assert report["static_channel"] is True
        assert report["insufficient_entropy"] is True
        assert report["plk_entropy_estimate"] == 0.0
        assert report["plk_hex"] == "0" * 32
        assert len(report["seed_hex"]) == 32
        assert report["match"] is True

    def test_fading_channel_yields_usable_key(self):
        cfg = _fast_cfg(scenario="keygen_demo", n_probes=4096)
        report = run_keygen_demo(cfg)
        assert report["insufficient_entropy"] is False
        assert report["plk_entropy_estimate"] > 0.5
        assert report["plk_hex"] != "0" * 32
        assert report["match"] is True
        assert len(report["skey_hex"]) == 32
        assert report["skey_transport_hex"] != report["skey_hex"]

    def test_transport_hides_skey(self):
        cfg = _fast_cfg(scenario="keygen_demo", master_seed=5)
        report = run_keygen_demo(cfg)
        # transport word is the XOR of the skey with a PLK-derived stream
        t = int(report["skey_transport_hex"], 16) ^ int(report["skey_hex"], 16)
        assert t != 0


class TestSearchSpaceScenario:
    def test_default_log2_identity(self):
        cfg = ExperimentConfig(scenario="search_space")
        report = run_search_space(cfg)
        assert report["scenario"] == "search_space"
        assert report["ours_exceeds_baseline"] is True
        expect = 16 * math.log2(40) + 128
        assert report["eq10"]["log2"] == pytest.approx(expect, rel=1e-12)

    def test_json_renders_sorted(self):
        cfg = ExperimentConfig(scenario="search_space")
        text = render_output(cfg)
        parsed = json.loads(text)
        assert parsed["eq11"]["exact"] == str(
            int(parsed["eq5"]["exact"]) * int(parsed["eq10"]["exact"]))

    @pytest.mark.parametrize("largest", [dict(n_unit=223), dict(l_weight=3571)])
    def test_largest_writable_counts_still_run(self, largest):
        # One more unit (or weight bit) and the count passes 4300 digits.
        report = json.loads(render_output(ExperimentConfig(scenario="search_space", **largest)))
        assert max(len(r["exact"]) for k, r in report.items() if k.startswith("eq")) <= 4300

    @pytest.mark.parametrize("too_large", [dict(n_unit=224), dict(n_unit=10**9), dict(l_weight=3572),
                                           dict(l_weight=10**12)])
    def test_count_past_4300_digits_is_a_config_error(self, too_large):
        # The huge ones are refused before the power is built.
        with pytest.raises(ConfigError, match="more than 4300 decimal digits"):
            run_search_space(ExperimentConfig(scenario="search_space", **too_large))


class TestDispersionScenario:
    def test_report_shape(self):
        cfg = ExperimentConfig(scenario="dispersion", n_sentences=100)
        text = render_output(cfg)
        parsed = json.loads(text)
        assert parsed["scenario"] == "dispersion"
        assert parsed["n_sentences"] == 100
        assert set(parsed["channels"]) == {"s1", "s2", "s3", "s4", "weighted_sum"}


class TestOutput:
    def test_run_to_file_creates_parents(self, tmp_path):
        cfg = ExperimentConfig(scenario="search_space")
        out = run_to_file(cfg, tmp_path / "deep" / "dir" / "out.json")
        assert out.exists()
        json.loads(out.read_text())

    def test_float_formatting_is_fixed_width(self):
        cfg = _fast_cfg(snr_list=(6.0,))
        body = render_output(cfg).strip().split("\n")[1]
        fields = body.split(",")
        assert fields[0] == "6.00000000"
        assert len(fields) == 5


class TestCli:
    def test_every_flag_names_a_config_field(self):
        dests = set(vars(build_parser().parse_args(["search_space"]))) - {"config", "out"}
        assert dests <= {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_module_runs_in_a_fresh_interpreter(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = tmp_path / "space.json"
        done = subprocess.run([sys.executable, "-m", "semshield.cli", "search_space", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == render_output(ExperimentConfig(scenario="search_space")).encode("ascii")
        done = subprocess.run([sys.executable, "-m", "semshield.cli", "ber_sweep", "--snr", "abc",
                               "--out", str(tmp_path / "x.csv")], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "config error: bad --snr value 'abc'" in done.stderr

    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "space.json"
        assert main(["search_space", "--out", str(out)]) == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_config_plus_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "keygen_demo", "static_channel": True,
            "n_probes": 512,
        }), encoding="utf-8")
        out = tmp_path / "demo.json"
        rc = main(["keygen_demo", "--config", str(cfg_path), "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["static_channel"] is True

    def test_output_path_from_config(self, tmp_path):
        target = tmp_path / "from_config.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "search_space", "output_path": str(target),
        }), encoding="utf-8")
        assert main(["search_space", "--config", str(cfg_path)]) == 0
        assert target.exists()

    def test_bad_snr_exits_two(self, tmp_path, capsys):
        rc = main(["ber_sweep", "--snr", "abc", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{oops", encoding="utf-8")
        rc = main(["search_space", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_config_root_not_an_object_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[]", encoding="utf-8")
        rc = main(["search_space", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "config error: config root must be a JSON object" in capsys.readouterr().err

    def test_search_space_too_large_to_write_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "search_space", "n_unit": 400}), encoding="utf-8")
        rc = main(["search_space", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "config error: search space eq5 has more than 4300 decimal digits" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"output_path": "\xff.json"}')
        rc = main(["search_space", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_ragged_key_length_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "keygen_demo", "l_skey": 100}),
                            encoding="utf-8")
        rc = main(["keygen_demo", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_nan_or_negative_infinite_snr_exits_two(self, tmp_path, capsys, snr):
        rc = main(["ber_sweep", f"--snr={snr}", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    # 1e308 dB used to overflow 10 ** (snr_db / 10) and -1e308 dB to divide
    # by zero, both at run time (exit 3).
    @pytest.mark.parametrize("snr", ["1e308", "-1e308"])
    def test_snr_past_bound_exits_two(self, tmp_path, capsys, snr):
        rc = main(["ber_sweep", f"--snr={snr}", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "snr_db" in capsys.readouterr().err

    def test_short_dispersion_corpus_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_sentences": 99}), encoding="utf-8")
        rc = main(["dispersion", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    # JSON as Python's json module reads it: NaN and Infinity are accepted literals.
    # A truthy string used to run the static channel, a non-string path to
    # fail only when the output was written (exit 3), a fractional
    # vocab_size to end in an AttributeError traceback (exit 1), and an
    # snr_list of "30" to run at 0 and 3 dB, [true, 6] at 1 and 6 dB, and an
    # s_max of 70000 to write s mod 2**16 into the wire's unit header.  A
    # 401-digit integer, too large for a float, used to end in an
    # OverflowError traceback (exit 1), and a 5000-digit one, past the digit
    # limit of Python's int parsing, in a ValueError traceback (exit 1).  A
    # vocab_size of 2**33 used to fail when the decoy tokens were drawn (exit 3),
    # and a probe_noise_std of 1e300 to overflow np.std and run with a zero PLK.
    @pytest.mark.parametrize("entry", [
        '"n_bits": 2000.0', '"n_bits": true', '"guard_band": NaN', '"probe_noise_std": Infinity',
        '"static_channel": "false"', '"static_channel": 0',
        '"output_path": 5', '"output_path": ["x.json"]',
        '"codec": {"vocab_size": 4096.5}', '"codec": {"token_bits": 12.0}',
        '"codec": {"codec_seed": 1.5}', '"codec": {"deviation_rate": true}',
        '"obfuscation": {"s_max": true}', '"obfuscation": {"s_max": 4.0}',
        '"obfuscation": {"k_max": true}', '"obfuscation": {"n_d": 64.0}',
        '"obfuscation": {"b": 2.0}',
        '"obfuscation": {"s_max": 70000, "k_max": 1, "n_d": 2, "b": 1}',
        '"snr_list": "30"', '"snr_list": [true, 6]', '"snr_list": {"12": 1}', '"snr_list": ["12"]',
        *(pytest.param(entry % 10**400, id=entry % "<401 digits>") for entry in (
            '"snr_list": [%s]', '"guard_band": %s', '"probe_noise_std": %s',
            '"codec": {"deviation_rate": %s}')),
        pytest.param('"n_bits": %s' % ("1" * 5000), id='"n_bits": <5000 digits>'),
        '"n_bits": 2000, "codec": {"vocab_size": 8589934592}',
        '"probe_noise_std": 1e300',
        # Values that the scenario argument and --snr replace.
        '"scenario": "bogus"', '"snr_list": [NaN]',
    ])
    def test_bad_field_type_or_value_exits_two(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"scenario": "ber_sweep", %s}' % entry, encoding="utf-8")
        rc = main(["ber_sweep", "--config", str(cfg_path), "--snr", "30",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    # JSON nested past the recursion limit, at the root (100,000 arrays) and
    # in a field, used to end in a RecursionError traceback (exit 1).
    @pytest.mark.parametrize("text", [
        pytest.param("[" * 100_000 + "]" * 100_000, id="root"),
        pytest.param('{"output_path": %s}' % ("[" * 5000 + "]" * 5000), id="field"),
    ])
    def test_config_nested_too_deeply_exits_two(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text(text, encoding="utf-8")
        rc = main(["ber_sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_symbols_exit_three(self, tmp_path, capsys, monkeypatch):
        # A channel that returns NaN samples reaches the demapper, a runtime failure.
        monkeypatch.setattr("semshield.experiments.apply_channel",
                            lambda samples, ch: np.full(np.shape(samples), np.nan, dtype=complex))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_bits": 2000, "n_probes": 512}), encoding="utf-8")
        rc = main(["ber_sweep", "--config", str(cfg_path), "--snr", "30",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "symbols must be finite" in capsys.readouterr().err

    # Each used to run as if it were left out: an empty --config on the
    # defaults, an empty --out or output_path into <scenario>.<ext>.
    @pytest.mark.parametrize("argv, message", [
        (["--config", ""], "cannot read config"),
        (["--out", ""], "--out must name a file"),
        (["--config", "empty_path.json"], "output_path must name a file"),
        (["--config", "empty_path.json", "--out", "x.json"], "output_path must name a file"),
    ], ids=["config", "out", "output_path", "output_path_and_out"])
    def test_empty_path_exits_two(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty_path.json").write_text('{"output_path": ""}', encoding="utf-8")
        assert main(["search_space", *argv]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["empty_path.json"]

    def test_runtime_failure_exits_three(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        rc = main(["search_space", "--out", str(blocker / "out.json")])
        assert rc == 3
        assert "runtime error" in capsys.readouterr().err

    def test_overrides_are_checked_together(self, tmp_path):
        # An empty snr_list is valid for search_space; the ber_sweep that the
        # scenario argument and --snr make of it together is valid too.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "search_space", "snr_list": [], "n_bits": 2000}),
                            encoding="utf-8")
        out = tmp_path / "ber.csv"
        rc = main(["ber_sweep", "--config", str(cfg_path), "--snr", "30", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("30.00000000,")

    def test_flags_complete_a_config_the_scenario_rules_reject(self, tmp_path):
        # An empty snr_list in a ber_sweep file is valid once --snr fills it.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "ber_sweep", "snr_list": [], "n_bits": 2000}),
                            encoding="utf-8")
        out = tmp_path / "ber.csv"
        rc = main(["ber_sweep", "--config", str(cfg_path), "--snr", "30", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("30.00000000,")

    def test_dispersion_rule_skipped_for_another_scenario(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "dispersion", "n_sentences": 50}), encoding="utf-8")
        out = tmp_path / "space.json"
        assert main(["search_space", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["scenario"] == "search_space"

    def test_static_channel_flag(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["keygen_demo", "--static-channel", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["static_channel"] is True
        cfg = ExperimentConfig(scenario="keygen_demo", static_channel=True)
        assert out.read_text() == render_output(cfg)

    def test_key_refresh_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"snr_list": [3], "n_sentences": 6, "n_probes": 256}),
                            encoding="utf-8")
        out = tmp_path / "bleu.csv"
        rc = main(["bleu_compare", "--config", str(cfg_path), "--key-refresh", "per_point", "--out", str(out)])
        assert rc == 0
        cfg = ExperimentConfig(scenario="bleu_compare", snr_list=[3], n_sentences=6, n_probes=256,
                               key_refresh="per_point")
        assert out.read_text() == render_output(cfg)

    def test_snr_without_values_exits_two(self, tmp_path, capsys):
        rc = main(["ber_sweep", "--snr", ",", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--snr must list at least one value" in capsys.readouterr().err

    def test_scenario_argument_wins_over_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "ber_sweep"}),
                            encoding="utf-8")
        out = tmp_path / "space.json"
        rc = main(["search_space", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["scenario"] == "search_space"


# SHA-256 of render_output for small bleu_compare configs, one per key
# refresh policy and probe noise level; recorded before the key ceremony
# was made cheaper and unchanged by it.
BLEU_COMPARE_SHA256 = {
    ("per_frame", 0.0): "fb817ea61aa55525e901503a89b0b45ff83d5eab133017670a0241882c6163fb",
    ("per_frame", 0.1): "7200fdd921d4a15e0c1e15c569f85d2d48488550133b5c6208f28552b06d598d",
    ("per_point", 0.0): "fa328a0498c01525e3cf25772232adb9028c6b3826a7f89e84301ef9ba41ff20",
    ("per_point", 0.1): "a645db1f2b600768d0898611857b79f1f9440eb8b73fc96da6b4947d09725d8e",
}


@pytest.mark.parametrize("key_refresh,probe_noise_std", sorted(BLEU_COMPARE_SHA256))
def test_bleu_compare_output_pinned(key_refresh, probe_noise_std):
    cfg = _fast_cfg(scenario="bleu_compare", snr_list=(6.0, 40.0), n_sentences=8,
                    key_refresh=key_refresh, probe_noise_std=probe_noise_std)
    digest = hashlib.sha256(render_output(cfg).encode("ascii")).hexdigest()
    assert digest == BLEU_COMPARE_SHA256[key_refresh, probe_noise_std]


# SHA-256 of render_output for a four-point bleu_compare config with a
# repeated SNR, one per key refresh policy.  Every sentence is decoded with
# the same substitution draws at each point, so these check that each point
# still sums its own scores; recorded while every point decoded its own
# sentences.
BLEU_COMPARE_POINTS_SHA256 = {
    "per_frame": "a97fe3f8a6ebfa12580f190d1099592b06a41aa6d452209d2be198b003c977cc",
    "per_point": "f29e1e0035b9f41c639e7dcb4cd8c84c7ba599b080dd78bf521cc5a5f9d2643b",
}


@pytest.mark.parametrize("key_refresh", sorted(BLEU_COMPARE_POINTS_SHA256))
def test_bleu_compare_repeated_points_pinned(key_refresh):
    cfg = _fast_cfg(scenario="bleu_compare", snr_list=(3.0, 3.0, 12.0, 40.0), n_sentences=8,
                    key_refresh=key_refresh)
    digest = hashlib.sha256(render_output(cfg).encode("ascii")).hexdigest()
    assert digest == BLEU_COMPARE_POINTS_SHA256[key_refresh]


# SHA-256 of render_output for small bleu_compare configs over the two fading
# channels, one per key refresh policy.  Every frame has its own channel
# response here, so these check that each frame is equalized by its own taps;
# recorded while each frame still ran its own modulate/demodulate pass.
BLEU_COMPARE_FADING_SHA256 = {
    ("rayleigh_flat", "per_frame"): "ad571f3a8b07bfbad03f55e8f50ca8ff835d3334ade9dc70cc9e11d56e2bcf22",
    ("rayleigh_flat", "per_point"): "cb3bd4f1fc401333f9914fee3eac46c605d95a82bcdc3cbfecfa5584c03a3eac",
    ("rayleigh_multipath", "per_frame"):
        "2599b2a748b37d0c7808630dffb5b55022e235bd0a68f9b4e100218a335c4534",
    ("rayleigh_multipath", "per_point"):
        "1cc01458cdb74a5ad736fb3df77c61a71f0a99d720a4c7df69cd761a16ec1735",
}


@pytest.mark.parametrize("channel_kind,key_refresh", sorted(BLEU_COMPARE_FADING_SHA256))
def test_bleu_compare_fading_output_pinned(channel_kind, key_refresh):
    cfg = _fast_cfg(scenario="bleu_compare", snr_list=(6.0, 40.0), n_sentences=8,
                    channel_kind=channel_kind, key_refresh=key_refresh)
    digest = hashlib.sha256(render_output(cfg).encode("ascii")).hexdigest()
    assert digest == BLEU_COMPARE_FADING_SHA256[channel_kind, key_refresh]


# SHA-256 of render_output for small configs whose n-gram scoring and key
# ceremony take paths the default config does not: a vocabulary of 2**32 token
# ids, a static channel (every frame takes the zero-PLK fallback), and the
# dispersion corpus.  Recorded while each sentence was still scored alone.
SCORING_OUTPUT_SHA256 = {
    "vocab_2**32": "498538ec2b7c97e9be3de0095d3d28c23cb6180a2dee39927eaf426700ba6e12",
    "static_channel": "34878b8d5288ee5d8b39cd21c47d0eefdcd249e749431da810f5239a4bb59227",
    "dispersion": "56d80f8aedbc8ace86bae821fafc195dbdda904f5585c9cbf4d551f4d29c4af3",
}
_SCORING_CONFIGS = {
    "vocab_2**32": dict(scenario="bleu_compare", snr_list=(6.0, 40.0), n_sentences=8,
                        codec=CodecModel(vocab_size=2**32)),
    "static_channel": dict(scenario="bleu_compare", snr_list=(6.0, 40.0), n_sentences=8,
                           static_channel=True, key_refresh="per_frame"),
    "dispersion": dict(scenario="dispersion", n_sentences=100),
}


@pytest.mark.parametrize("name", sorted(SCORING_OUTPUT_SHA256))
def test_scoring_output_pinned(name):
    digest = hashlib.sha256(render_output(_fast_cfg(**_SCORING_CONFIGS[name])).encode("ascii")).hexdigest()
    assert digest == SCORING_OUTPUT_SHA256[name]


# SHA-256 of render_output for small constellation and ber_sweep configs over
# each channel kind.  The AWGN and multipath digests were recorded before the
# two scenarios were made to share one transmit/receive chain, the flat-fading
# ones before the map, the demap and the channel noise were rewritten to build
# fewer full-size temporaries; each change left them as they were.
CHAIN_OUTPUT_SHA256 = {
    ("constellation", "awgn"): "50e66788984c925ca5f9131647cf910ddb536555136c7087b434e1d6280602a4",
    ("constellation", "rayleigh_flat"):
        "d13264399ad24e76c630a4a9e70696f24972bf1b0cbbb0e35d63b52d25432f98",
    ("constellation", "rayleigh_multipath"):
        "9fc0e00d58ac69a3fe905f659ee2bc190130cefe8b02644381d198fa97139b4c",
    ("ber_sweep", "awgn"): "9f2fcc6f444d1972ab3b8596727ddde7b8e7ea432c0313ca9111e471bbf13e40",
    ("ber_sweep", "rayleigh_flat"):
        "d1af06e3a94f3ac5bbd428be5a50d77e5589cfb949d0c6ab9b9e978c1c5bf517",
    ("ber_sweep", "rayleigh_multipath"):
        "b98876ce5286cca4e1d83be7bdff6a7d0cb1490d0b54a90cfde3f70635aae695",
}


def _chain_cfg(scenario, channel_kind):
    if scenario == "constellation":
        return _fast_cfg(scenario=scenario, snr_list=(12.0,), n_bits=4096, channel_kind=channel_kind)
    return _fast_cfg(scenario=scenario, snr_list=(3.0, 40.0), n_bits=3000, channel_kind=channel_kind)


@pytest.mark.parametrize("scenario,channel_kind", sorted(CHAIN_OUTPUT_SHA256))
def test_chain_output_pinned(scenario, channel_kind):
    digest = hashlib.sha256(render_output(_chain_cfg(scenario, channel_kind)).encode("ascii")).hexdigest()
    assert digest == CHAIN_OUTPUT_SHA256[scenario, channel_kind]


# SHA-256 of render_output for small ber_sweep and bleu_compare configs with
# 32 subcarriers per obfuscation symbol.  Their 128-bit symbols leave some
# encrypted frames short of a whole 256-bit OFDM symbol, so the pad filler of
# encrypted frames is drawn too, as it never is at the default geometry.
# Recorded before the pad generators were built only where filler is drawn.
PAD_OUTPUT_SHA256 = {
    "ber_sweep": "57a944d7115576c5e9de2f6dc93b157762bedb0182a630b9f26edb3aa0b88bad",
    "bleu_compare": "39fdaa0476879c979dc671e9f74cd805a37635c4a9dec4a4415866ac344f34c2",
}


def _short_symbol_cfg(scenario):
    if scenario == "ber_sweep":
        return _fast_cfg(scenario=scenario, snr_list=(3.0, 40.0), n_bits=3000,
                         obfuscation=ObfuscationParams(n_d=32))
    return _fast_cfg(scenario=scenario, snr_list=(6.0, 40.0), n_sentences=8,
                     obfuscation=ObfuscationParams(n_d=32))


@pytest.mark.parametrize("scenario", sorted(PAD_OUTPUT_SHA256))
def test_short_symbol_output_pinned(scenario):
    digest = hashlib.sha256(render_output(_short_symbol_cfg(scenario)).encode("ascii")).hexdigest()
    assert digest == PAD_OUTPUT_SHA256[scenario]


# SHA-256 of render_output for the search_space and keygen_demo scenarios:
# search_space at its defaults and at (s_max, k_max, n_d, n_unit) =
# (400, 200, 256, 1), keygen_demo at its defaults, over a static channel and
# with noisy probes.  Recorded before the search-space report built each
# formula once.
REPORT_OUTPUT_SHA256 = {
    ("search_space", "defaults"): "825a6ba5424a5463b49cb49c9468837158ea938503ceb1ae53a9701f98463682",
    ("search_space", "400,200,256,1"): "de0a5dabed11b500db5ed7951f2b08201bce96baf42a1561b471f6b54759fc36",
    ("keygen_demo", "defaults"): "8cb89380203add3a5917f40b751018d7eb112fb38928cf97378fb5b25280e38f",
    ("keygen_demo", "static_channel"): "448e01bbbfdd2cf84d39963ee6c523ccd809e649e9f155d015b5c7b42f9d67df",
    ("keygen_demo", "probe_noise_std=0.3"): "1aaad084a0f14edeecdd6019ee2471b307b0f91cb8724cb4a754dbdb08888d12",
}
_REPORT_CONFIGS = {
    "defaults": {},
    "400,200,256,1": dict(obfuscation=ObfuscationParams(s_max=400, k_max=200, n_d=256), n_unit=1),
    "static_channel": dict(static_channel=True),
    "probe_noise_std=0.3": dict(probe_noise_std=0.3),
}


@pytest.mark.parametrize("scenario,name", sorted(REPORT_OUTPUT_SHA256))
def test_report_output_pinned(scenario, name):
    cfg = ExperimentConfig(scenario=scenario, **_REPORT_CONFIGS[name])
    digest = hashlib.sha256(render_output(cfg).encode("ascii")).hexdigest()
    assert digest == REPORT_OUTPUT_SHA256[scenario, name]


# The spec against the pins above, so that it answers to the recorded bytes
# and not only to src/.  The search space at (400, 200, 256, 1) is left out:
# the spec sums its 80,000 binomials one math.comb call at a time (0.7 s).
_SPEC_PINS = {
    **{f"scoring-{name}": (_fast_cfg(**_SCORING_CONFIGS[name]), digest)
       for name, digest in SCORING_OUTPUT_SHA256.items()},
    **{f"{scenario}-{name}": (ExperimentConfig(scenario=scenario, **_REPORT_CONFIGS[name]), digest)
       for (scenario, name), digest in REPORT_OUTPUT_SHA256.items() if name != "400,200,256,1"},
    **{f"short_symbol-{scenario}": (_short_symbol_cfg(scenario), digest)
       for scenario, digest in PAD_OUTPUT_SHA256.items()},
    **{f"chain-{scenario}-{kind}": (_chain_cfg(scenario, kind), digest)
       for (scenario, kind), digest in CHAIN_OUTPUT_SHA256.items()},
}


@pytest.mark.parametrize("name", sorted(_SPEC_PINS))
def test_spec_output_pinned(name):
    cfg, digest = _SPEC_PINS[name]
    assert hashlib.sha256(spec.render(cfg).encode("ascii")).hexdigest() == digest
