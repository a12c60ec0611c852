"""Command-line entry point: run, sweep, reproduce, selftest."""

import argparse
import sys

from .harness import (
    ExperimentConfig,
    TABLE_REGISTRY,
    emit_report,
    reproduce_table,
    run_experiment,
    run_sweep,
)


def _report(args, cfg, records, **sweep):
    """Emit records in the --format/--out of args, else the config's format
    and path; without a path the report goes to stdout."""
    path = args.out or cfg.path or None
    text = emit_report(records, fmt=args.format or cfg.format, path=path,
                       **sweep)
    if not path:
        sys.stdout.write(text)
    return 0


def _cmd_run(args):
    cfg = ExperimentConfig.from_file(args.config)
    return _report(args, cfg, [run_experiment(cfg)])


def _cmd_sweep(args):
    cfg = ExperimentConfig.from_file(args.config)
    records = run_sweep(cfg, args.param, args.values.split(","))
    return _report(args, cfg, records, sweep_param=args.param,
                   sweep_values=[r.config[args.param] for r in records])


def _cmd_reproduce(args):
    if args.table not in TABLE_REGISTRY:
        sys.stderr.write(
            f"unknown table {args.table!r}; known tables:\n"
            + "\n".join(f"  {n}" for n in sorted(TABLE_REGISTRY)) + "\n"
        )
        return 2
    records, param, values = reproduce_table(args.table)
    text = emit_report(records, fmt=args.format, path=args.out or None,
                       sweep_param=param, sweep_values=values)
    if not args.out:
        sys.stdout.write(text)
    return 0


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
    p_run.add_argument("--format", choices=["csv", "json"], default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one parameter over a list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 1,2,3")
    p_sweep.add_argument("--format", choices=["csv", "json"], default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a named benchmark sweep")
    p_rep.add_argument("--table", required=True)
    p_rep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_reproduce)

    p_self = sub.add_parser("selftest",
                            help="run quick internal consistency checks")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
