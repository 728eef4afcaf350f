"""Command-line entry point for the experiment scenarios."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    KEY_REFRESH,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    load_config,
    run_to_file,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semshield",
        description="Deterministic simulator for semantic-key encryption and "
                    "subcarrier obfuscation over a 16QAM OFDM link.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="experiment to run")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="PATH", help="output file (default: <scenario>.<ext>)")
    parser.add_argument("--seed", type=int, metavar="N", help="override master_seed")
    parser.add_argument("--snr", metavar="a,b,c", help="override snr_list (comma-separated dB)")
    parser.add_argument("--static-channel", action="store_true",
                        help="use a constant channel trace for key generation")
    parser.add_argument("--key-refresh", choices=KEY_REFRESH,
                        help="how often the key ceremony reruns")
    return parser


def _parse_snr(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad --snr value {text!r}") from None
    if not values:
        raise ConfigError("--snr must list at least one value")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # All overrides in one replace, so only the combined config is checked.
        overrides = {"scenario": args.scenario}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.snr is not None:
            overrides["snr_list"] = _parse_snr(args.snr)
        if args.static_channel:
            overrides["static_channel"] = True
        if args.key_refresh:
            overrides["key_refresh"] = args.key_refresh
        cfg = replace(load_config(args.config), **overrides) if args.config else ExperimentConfig(**overrides)
        out_path = args.out or cfg.output_path or f"{args.scenario}.{SCENARIOS[args.scenario].ext}"
        # A run finds config errors too, such as a search space too large to write.
        written = run_to_file(cfg, out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(written)
    return 0

if __name__ == "__main__":
    sys.exit(main())
