"""Semantic-key encryption and subcarrier obfuscation over a simulated OFDM link.

The root holds the quick-start names of README.md; everything else is
imported from its module.
"""

from .codec import CodecModel
from .keying import (
    KeyMaterial,
    Keystream,
    generate_skey,
    rayleigh_trace,
    simulate_plk,
    weight_generator,
)
from .obfuscation import ObfuscationParams, obfuscate, ota_bits, recover_bits

__version__ = "0.1.0"
