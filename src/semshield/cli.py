"""Command-line entry point for the experiment scenarios."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    _CONFIG_RULES,
    KEY_REFRESH,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    _read_json,
    run_to_file,
    snr_values,
)
from .fields import check_fields

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
        overrides = {"scenario": args.scenario}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.snr is not None:
            overrides["snr_list"] = _parse_snr(args.snr)
        if args.static_channel:
            overrides["static_channel"] = True
        if args.key_refresh:
            overrides["key_refresh"] = args.key_refresh
        raw = _read_json(args.config) if args.config else {}
        # The combined config is checked once, so the rules that depend on the
        # scenario see the values that run.  A file value that a flag replaces
        # must still pass its own rule: an snr_list its type and dB range, in
        # the combined config, and any other field its _CONFIG_RULES row.
        cfg = ExperimentConfig.from_dict({**raw, **overrides} if isinstance(raw, dict) else raw)
        replaced = {name: raw[name] for name in overrides if name in raw}
        if "snr_list" in replaced:
            replace(cfg, snr_list=snr_values(replaced.pop("snr_list")) or cfg.snr_list)
        check_fields(argparse.Namespace(**replaced), {name: _CONFIG_RULES[name] for name in replaced}, ConfigError)
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
