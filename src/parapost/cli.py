"""Command-line entry point: run, sweep, reproduce, selftest."""

import argparse
import sys

from .harness import (
    ExperimentConfig,
    TABLE_REGISTRY,
    emit_report,
    reproduce_table,
    require_one_mode,
    run_experiment,
    sweep_configs,
)


def _emit(args, records, sweep_param=None):
    """Emit records in --format to --out, or without --out to stdout."""
    text = emit_report(records, fmt=args.format, path=args.out,
                       sweep_param=sweep_param)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_run(args):
    return _emit(args, [run_experiment(ExperimentConfig.from_file(args.config))])


def _cmd_sweep(args):
    # every config, and the report's columns, are checked before any runs
    configs = sweep_configs(ExperimentConfig.from_file(args.config),
                            args.param, args.values.split(","))
    require_one_mode(args.format, (c.mode for c in configs))
    return _emit(args, [run_experiment(c) for c in configs], args.param)


def _cmd_reproduce(args):
    records, param, _ = reproduce_table(args.table)
    return _emit(args, records, param)


def _cmd_selftest(args):
    from .selftest import run_selftest

    failures = run_selftest(verbose=True)
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="parapost",
        description="Parareal / space-time parallel parabolic solver with "
                    "adjoint-based a posteriori error decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one parameter over a list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 1,2,3")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a named benchmark sweep")
    p_rep.add_argument("--table", required=True, choices=sorted(TABLE_REGISTRY))
    p_rep.set_defaults(func=_cmd_reproduce)

    for p in (p_run, p_sweep, p_rep):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None)

    p_self = sub.add_parser("selftest",
                            help="run quick internal consistency checks")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
