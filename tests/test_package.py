import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import semshield
from semshield import bits

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
