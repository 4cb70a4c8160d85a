"""Command-line entry point.

Subcommands: run, ablate, compare-optimizers, pso-study, gradcheck, synth.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .gradcheck import composed_gradcheck_suite
from .harness import (
    ExperimentSpec,
    ablation_specs,
    build_configs,
    optimizer_specs,
    run_ablation_suite,
    run_experiment,
    run_optimizer_comparison,
    run_pso_distribution_study,
)
from .ops import check_value
from .preprocessing import SyntheticSpec, synthesize_series, write_csv

# SyntheticSpec field -> the synth option that sets it
SYNTH_OPTIONS = {
    "length": "--length", "feature_count": "--features", "seasonal_period": "--period",
    "trend_slope": "--slope", "noise_std": "--noise", "seed": "--seed",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _checked(kind, **rule):
    """An argparse type: a ``kind`` that ``rule`` admits, as ``ops.declared`` spells it."""

    def value_of(text: str):
        try:
            value = kind(text)
            check_value("value", value, kind, rule)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return value_of


_count, _seed = _checked(int, ge=1), _checked(int, ge=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="ltpnet", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the spec's seeds (data/init/shuffle/swarm = seed..seed+3); "
                            "the data seed is recorded but unused until folds are wired in")
        p.add_argument("--out-dir", default=None, help="override the output directory")

    p_run = sub.add_parser("run", parents=[], help="run one experiment from a JSON spec")
    p_run.add_argument("--config", required=True, help="path to an experiment spec JSON")
    common(p_run)

    p_abl = sub.add_parser("ablate", help="run the four-variant ablation suite")
    p_abl.add_argument("--config", required=True)
    common(p_abl)

    p_cmp = sub.add_parser("compare-optimizers", help="adam vs adaptive-momentum vs sgd+pso")
    p_cmp.add_argument("--config", required=True)
    common(p_cmp)

    p_pso = sub.add_parser("pso-study", help="swarm run-distribution study")
    p_pso.add_argument("--objective", default="sphere", choices=["sphere", "rastrigin"])
    p_pso.add_argument("--runs", type=_count, default=10)
    p_pso.add_argument("--dim", type=_count, default=5)
    common(p_pso)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--seeds", type=_count, default=20, help="number of random configurations")
    p_grad.add_argument("--tolerance", type=_checked(float, gt=0), default=1e-4)
    p_grad.add_argument("--seed", type=_seed, default=0, help="seed of the first configuration")

    p_synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p_synth.add_argument("--out", required=True)
    for f in fields(SyntheticSpec):  # each checked as in a spec's dataset.synthetic
        p_synth.add_argument(SYNTH_OPTIONS[f.name], dest=f.name, default=f.default,
                             type=_checked(f.type, **f.metadata))
    return parser


def _load_spec(args, rows=None) -> ExperimentSpec:
    """The spec at ``args.config``, with the command-line overrides applied.

    Every spec the command will run (``rows(spec)`` for a suite, else the
    spec itself) has its configs built here, so a spec the run would reject
    (an unknown key, variant or value) is a usage error before any output
    directory or dataset exists.
    """
    try:
        spec = ExperimentSpec.from_json_file(args.config)
        if args.out_dir is not None:
            spec = replace(spec, output_dir=args.out_dir)
        if args.seed is not None:
            spec.seeds.data = args.seed
            spec.seeds.init = args.seed + 1
            spec.seeds.shuffle = args.seed + 2
            spec.seeds.swarm = args.seed + 3
        for run_spec in (rows(spec).values() if rows else (spec,)):
            build_configs(run_spec)
    except (OSError, TypeError, ValueError) as exc:  # OSError: an unreadable file
        raise UsageError(f"invalid spec {args.config}: {exc}") from exc
    return spec


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_help(), file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the program
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        report = run_experiment(_load_spec(args))
        print(json.dumps(report.deterministic_payload()["eval"], indent=2))
        print(f"report version {report.version}")
        return 0

    if args.command == "ablate":
        result = run_ablation_suite(_load_spec(args, ablation_specs))
        print(f"ablation table: {result['summary']['table']}")
        return 0

    if args.command == "compare-optimizers":
        result = run_optimizer_comparison(_load_spec(args, optimizer_specs))
        print(f"optimizer table: {result['summary']['table']}")
        return 0

    if args.command == "pso-study":
        summary = run_pso_distribution_study(
            args.objective,
            run_count=args.runs,
            out_dir=args.out_dir or "out",
            dim=args.dim,
            base_seed=args.seed or 0,
        )
        for config, stats in summary["configs"].items():
            print(
                f"{args.objective}/{config}: median best {stats['median']:.6g}, "
                f"mean {stats['mean']:.6g}"
            )
        return 0

    if args.command == "gradcheck":
        cases = composed_gradcheck_suite(n_seeds=args.seeds, seed_base=args.seed)
        errors = [c.error for c in cases]
        worst = max(errors, key=lambda e: (math.isnan(e), e))  # a NaN is the worst
        print(f"max relative error over {len(cases)} seeds: {worst:.3e}")
        failing = [c for c in cases if not c.error < args.tolerance]  # a NaN error fails
        if failing:
            for c in failing:  # a kink explains an error; it exempts none
                kink = "straddles a ReLU kink" if c.kink else "straddles no ReLU kink"
                print(f"seed {c.seed}: error {c.error:.3e}; its worst element {kink}", file=sys.stderr)
            print(f"FAIL: exceeds tolerance {args.tolerance:g}", file=sys.stderr)
            return 2
        print(f"PASS: within tolerance {args.tolerance:g}")
        return 0

    if args.command == "synth":
        spec = SyntheticSpec(**{name: getattr(args, name) for name in SYNTH_OPTIONS})
        table = synthesize_series(spec)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_csv(table, args.out)
        print(f"wrote {table.n_rows} rows x {len(table.names)} columns to {args.out}")
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
