import inspect
import re
from pathlib import Path

import semshield

README = Path(__file__).resolve().parents[1] / "README.md"

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
