"""Command-line entry point.

    riskscen <experiment> --config cfg.json --seed 123 --jobs 4 --out results/

Experiments: prob-table, stability, reduction-error, case-study, project,
classify. Exit codes: 0 success, 2 config error, 3 solver error. The config
JSON schema is documented in the README.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, SolverError
from . import experiments

_TABLE_COMMANDS = {
    "prob-table": experiments.run_prob_table,
    "stability": experiments.run_stability,
    "reduction-error": experiments.run_reduction_error,
    "case-study": experiments.run_case_study,
}
_ECHO_COMMANDS = {
    "project": experiments.run_project,
    "classify": experiments.run_classify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskscen",
                                     description="risk-region scenario experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_TABLE_COMMANDS) + list(_ECHO_COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config JSON")
        p.add_argument("--seed", type=int, required=True, help="master 64-bit seed")
        p.add_argument("--jobs", type=int, default=1, help="worker process cap")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg_path = Path(args.config)
        try:
            config = json.loads(cfg_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {cfg_path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cfg_path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"{cfg_path}: the config must be a JSON object")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command in _TABLE_COMMANDS:
            paths = _TABLE_COMMANDS[args.command](config, args.seed, out, args.jobs)
            for p in paths:
                print(p)
        else:
            print(_ECHO_COMMANDS[args.command](config, args.seed, out))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
