import ast
import importlib
import inspect
import json
import re
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest

import semshield
from semshield import bits
from semshield.codec import CodecModel, decode, encode, make_corpus
from semshield.experiments import ConfigError, load_config, render_output
from semshield.keying import ChannelTrace, Keystream, constant_trace, rayleigh_trace, simulate_plk
from semshield.obfuscation import ObfuscationParams, obfuscate, ota_bits, recover_bits

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "semshield"

# The names README.md imports from the package root.
QUICK_START_NAMES = {
    "ObfuscationParams", "CodecModel", "obfuscate", "ota_bits", "recover_bits",
    "rayleigh_trace", "simulate_plk", "KeyMaterial", "Keystream", "weight_generator", "generate_skey",
}


def test_readme_blocks_run_on_exactly_the_root_names():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    imported = {name.strip() for names in re.findall(r"^from semshield import (.+)$", text, re.M)
                for name in names.split(",")}
    public = {name for name, value in vars(semshield).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == imported == QUICK_START_NAMES



def test_benchmark_names_resolve_to_traced_functions():
    # The traced benchmark wraps the public functions of each layer module and
    # the public methods of its classes, and stops when a declared function
    # metric was not measured: renaming, hiding or moving one must fail here.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    functions = [name.split(".") for name in names
                 if name.count(".") in (2, 3) and name.rsplit(".", 1)[1] in ("calls", "busy_s", "self_s")]
    assert functions
    for layer, *path, _stat in functions:
        module = importlib.import_module(f"semshield.{layer}")
        name = ".".join([layer, *path])
        assert not any(part.startswith("_") for part in path), name
        member = vars(module).get(path[0])
        if len(path) == 2:
            assert inspect.isclass(member) and member.__module__ == module.__name__, name
            member = vars(member).get(path[1])
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
        assert inspect.isfunction(member) and member.__module__ == module.__name__, name


def test_one_seeding_path():
    # Every numpy generator of the package comes from bits._rng, so how a seed
    # becomes entropy words has one implementation.  A seeding call anywhere
    # else, say np.random.default_rng([seed, tag]) or np.random.Generator(...),
    # must fail here.
    helper = inspect.getsource(bits._rng)
    seeding = re.compile(r"default_rng\(|np\.random\.\w+\(|\b(?:PCG64|SeedSequence|RandomState)\(")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "bits.py":
            assert text.count(helper) == 1
            text = text.replace(helper, "")
        assert not seeding.findall(text), path.name


def test_one_integer_rule():
    # fields.is_int is the package's one test of "is this an integer", and
    # fields.checked_int its one count check, so a numpy int, a bool and a
    # float meet the same rule at every boundary.  An isinstance(..., int) or
    # a type(...) is bool test anywhere else must fail here.
    integer_test = re.compile(r"isinstance\([^)]*\bint\b|type\([^)]*\)\s+is\s+(?:not\s+)?bool\b")
    for path in sorted(SRC.glob("*.py")):
        if path.name != "fields.py":
            assert not integer_test.findall(path.read_text(encoding="utf-8")), path.name


# Each count boundary below takes one count and returns the int it holds or
# returns for it (None when it keeps none) and a result to compare.


def _config_l_skey(n):
    cfg = load_config(scenario="keygen_demo", l_skey=n)
    return cfg.l_skey, render_output(cfg)


def _params_s_max(n):
    params = ObfuscationParams(s_max=n)
    return params.s_max, params


def _codec_vocab_size(n):
    model = CodecModel(vocab_size=n)
    return model.vocab_size, (model, model.token_bits)


def _trace_coherence(n):
    trace = ChannelTrace([1.0, 2.0], coherence=n)
    return trace.coherence, trace.probes().tolist()


def _rayleigh_trace_coherence(n):
    trace = rayleigh_trace(64, 1, coherence=n)
    return trace.coherence, trace.samples.tolist()


def _constant_trace_n_probes(n):
    trace = constant_trace(n, 0.5)
    return trace.coherence, trace.probes().tolist()


def _simulate_plk_target_bits(n):
    key, entropy = simulate_plk(rayleigh_trace(512, 3, probe_noise_std=0.05), n, 0.2, noise_seed=1)
    return None, (key.tolist(), entropy)


def _keystream_nbits(n):
    ks = Keystream(bytes(32), "count")
    bits = ks.bits(n).tolist()
    return ks.position, bits


def _recover_bits_l_d(n):
    seed, p = np.random.default_rng(7).integers(0, 2, 128).astype(np.uint8), ObfuscationParams()
    air = ota_bits(obfuscate(np.ones(3000, dtype=np.uint8), seed, p, CodecModel()))
    return None, recover_bits(air, n, seed, p).tolist()


COUNT_BOUNDARIES = {
    "config_l_skey": ("l_skey", 128, _config_l_skey),
    "params_s_max": ("s_max", 4, _params_s_max),
    "codec_vocab_size": ("vocab_size", 4096, _codec_vocab_size),
    "trace_coherence": ("coherence", 3, _trace_coherence),
    "rayleigh_trace_coherence": ("coherence", 4, _rayleigh_trace_coherence),
    "constant_trace_n_probes": ("n_probes", 64, _constant_trace_n_probes),
    "simulate_plk_target_bits": ("target_bits", 300, _simulate_plk_target_bits),
    "keystream_nbits": ("nbits", 70, _keystream_nbits),
    "recover_bits_l_d": ("l_d", 3000, _recover_bits_l_d),
}


@pytest.mark.parametrize("name, count, call", COUNT_BOUNDARIES.values(), ids=COUNT_BOUNDARIES)
def test_count_boundaries_follow_one_rule(name, count, call):
    # A numpy int used to be refused by the config tables and the trace
    # checks, while checked_int took it.  Every count boundary now takes what
    # fields.is_int takes, holds it as a Python int, and refuses the rest in
    # one message format.
    held, expected = call(count)
    assert held is None or (held == count and type(held) is int)
    for value in (np.int64(count), np.uint16(count), IntEnum("Count", [("N", count)]).N):
        held, result = call(value)
        assert result == expected
        assert held is None or type(held) is int
    error = ConfigError if name == "l_skey" else ValueError
    for bad in (True, np.True_, 2.0):
        with pytest.raises(error, match=f"^{name} must be an integer, not "):
            call(bad)


@pytest.mark.parametrize("make", [
    lambda seed: rayleigh_trace(64, seed).samples.tolist(),
    lambda seed: [s.tolist() for s in make_corpus(2, CodecModel(), seed)],
    lambda seed: decode(encode(np.arange(40), CodecModel()), CodecModel(), seed).tolist(),
    lambda seed: simulate_plk(rayleigh_trace(256, 0, probe_noise_std=0.1), 128, 0.2, noise_seed=seed)[0].tolist(),
], ids=["rayleigh_trace", "make_corpus", "decode", "simulate_plk"])
def test_seeds_follow_the_integer_rule(make):
    # An np.int64 seed used to overflow in bits._rng's 64-bit mask, and a
    # float seed to end in numpy's TypeError.
    expected = make(3)
    for seed in (np.int64(3), np.uint16(3), IntEnum("Seed", [("N", 3)]).N):
        assert make(seed) == expected
    assert make(-1) == make(np.int64(-1))
    for bad in (3.0, True, np.True_):
        with pytest.raises(ValueError, match="^seed must be an integer, not "):
            make(bad)


def test_no_blas_routed_calls():
    # For float and complex input numpy hands these to BLAS, which picks its
    # kernel, and so its summation order, from the CPU: samples made with one
    # would differ from machine to machine.  ofdm._convolve adds in one fixed
    # order instead.
    routed = {"convolve", "correlate", "dot", "vdot", "inner"}
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in routed and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert calls == []


def test_every_public_definition_is_used():
    # A public top-level def or class must be used somewhere in src/, be named
    # in README.md, or be named by a per-layer benchmark metric: code that only
    # tests call belongs under tests/, as the references of tests/spec.py do.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    named = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        named.update(metric["name"].split("."))
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and node.name not in used | named]
    assert unused == []
