"""Command-line entry point for the experiment scenarios."""
from __future__ import annotations

import argparse
import sys

from .experiments import KEY_REFRESH, SCENARIOS, ConfigError, load_config, run_to_file

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semshield",
        description="Deterministic simulator for semantic-key encryption and "
                    "subcarrier obfuscation over a 16QAM OFDM link.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="experiment to run")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="PATH", help="output file (default: <scenario>.<ext>)")
    # Every other flag stores into the config field it replaces; None is unset.
    parser.add_argument("--seed", type=int, dest="master_seed", metavar="N", help="override master_seed")
    parser.add_argument("--snr", dest="snr_list", metavar="a,b,c", help="override snr_list (comma-separated dB)")
    parser.add_argument("--static-channel", action="store_const", const=True,
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
    flags = vars(build_parser().parse_args(argv))
    config, out = flags.pop("config"), flags.pop("out")
    try:
        if flags["snr_list"] is not None:
            flags["snr_list"] = _parse_snr(flags["snr_list"])
        # An empty --out, like an empty --config, is more likely an unset
        # shell variable than a wish for the default.
        if out == "":
            raise ConfigError("--out must name a file, not ''")
        cfg = load_config(config, **{name: value for name, value in flags.items() if value is not None})
        out_path = out or cfg.output_path or f"{cfg.scenario}.{SCENARIOS[cfg.scenario].ext}"
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
