"""Command-line driver.

Exit codes (frozen, scriptable):
  0  run completed (verdicts are in the summary, not the exit code)
  2  malformed or unreadable config
  3  unknown experiment name
  4  hypothesis violation (parameter outside a stated validity range)
  5  invalid argument surfaced from the library
  1  unexpected failure
"""

from __future__ import annotations

import argparse
import sys

from .exponents import HypothesisViolation
from .experiments import ConfigError, UnknownExperiment, _fractions_from_str, classify_lattice, list_experiments, run

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN_EXPERIMENT = 3
EXIT_HYPOTHESIS = 4
EXIT_INVALID_ARGUMENT = 5


def _cmd_run(args) -> int:
    code, report = run(args.config)
    for line in report.lines:
        print(line)
    return code


def _cmd_list(args) -> int:
    for name, desc, anchor in list_experiments():
        print(f"{name:26s} {desc}  [{anchor}]")
    return EXIT_OK


def _cmd_admissible(args) -> int:
    rows = classify_lattice(args.m, args.n, args.grid, _fractions_from_str(args.indices))
    header = list(rows[0].keys())
    print(",".join(header))
    for row in rows:
        print(",".join(str(row[h]) for h in header))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersia",
        description="Dispersive-decay experiments on product domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="sectioned key=value config file")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_adm = sub.add_parser("admissible", help="classify the exponent lattice exactly")
    p_adm.add_argument("--m", type=int, required=True)
    p_adm.add_argument("--n", type=int, required=True)
    p_adm.add_argument("--grid", type=int, default=12, help="lattice denominator")
    p_adm.add_argument("--indices", default="1/2,1,3/2,2,3", help="comma-separated a+b values")
    p_adm.set_defaults(fn=_cmd_admissible)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnknownExperiment as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_EXPERIMENT
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_INVALID_ARGUMENT
    except Exception as exc:
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
