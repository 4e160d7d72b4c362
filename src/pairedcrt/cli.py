"""Command line interface for matching, assignment, analysis and simulation.

Subcommands compose into a pipeline over CSV files::

    pairedcrt match    --clusters c.csv --mode nn_xn --out design.csv
    pairedcrt assign   --clusters c.csv --design design.csv --seed 7 --out ct.csv
    pairedcrt analyze  --units u.csv --clusters ct.csv --design design.csv
    pairedcrt randtest --units u.csv --clusters ct.csv --design design.csv --mode exact
    pairedcrt simulate --preset null --pairs 50 --reps 200 --seed 1

Results go to stdout as JSON (with a ``schema_version`` field); CSV outputs
go to the ``--out`` paths. Exit codes: 0 on success, 2 on invalid data
(with a JSON error object on stderr), 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .assignment import assign_within_pairs
from .core import load_dataset, read_clusters, write_clusters
from .errors import DataError, PairedCrtError
from .estimation import arm_means, kernel_inputs
from .inference import infer
from .matching import MATCH_MODES, imbalance_report, match_clusters, read_design, write_design
from .randtest import MIN_DRAWS, randomization_test
from .simulation import PRESET_NAMES, DgpSpec, SimConfig, monte_carlo, preset

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A seed argument: an integer in [0, 2**64), the range of a Philox key."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text!r}")
    return value


def _finite(text: str) -> float:
    """A float argument that must be finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _draws(text: str) -> int:
    """A draw count for a stochastic randomization test: an integer of at
    least ``MIN_DRAWS``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < MIN_DRAWS:
        raise argparse.ArgumentTypeError(f"must be an integer >= {MIN_DRAWS}, got {text!r}")
    return value


def _check_alpha(args) -> None:
    if not 0.0 < args.alpha < 1.0:
        args.subparser.error("--alpha must be strictly between 0 and 1")


def cmd_match(args) -> dict:
    clusters = read_clusters(args.clusters)
    design = match_clusters(clusters, args.mode)
    write_design(design, clusters, args.out)
    report = imbalance_report(design, clusters)
    return {
        "pairs": design.pair_count,
        "mode": args.mode,
        "matched_on_size": design.matched_on_size,
        "out": str(args.out),
        "imbalance": report.to_json_dict(),
    }


def cmd_assign(args) -> dict:
    clusters = read_clusters(args.clusters)
    design = read_design(args.design, clusters)
    treatments = assign_within_pairs(design, args.seed)
    write_clusters(clusters.with_treatments(treatments), args.out)
    return {
        "pairs": design.pair_count,
        "seed": args.seed,
        "n_treated": int(treatments.sum()),
        "out": str(args.out),
    }


def _load_for_analysis(args):
    dataset = load_dataset(args.units, args.clusters)
    design = read_design(args.design, dataset)
    if args.matched_on_size and not design.matched_on_size:
        raise DataError(
            f"the design CSV was matched in mode {design.mode!r}, not on size (nn_xn)"
        )
    return dataset, design


def cmd_analyze(args) -> dict:
    _check_alpha(args)
    dataset, design = _load_for_analysis(args)
    result = infer(dataset, design, alpha=args.alpha, delta0=args.delta0)
    # the equal-weighted estimate: arm means with a weight of 1 per cluster
    n, ybar, d = kernel_inputs(dataset)
    mu1_equal, mu0_equal, _, _ = arm_means(np.ones_like(n), ybar, d)
    return {
        "pairs": design.pair_count,
        "match_mode": design.mode,
        **result.to_json_dict(),
        "delta_hat_equal": float(mu1_equal - mu0_equal),
    }


def cmd_randtest(args) -> dict:
    _check_alpha(args)
    if args.mode == "stochastic":
        if args.draws is None:
            args.subparser.error("--draws is required in stochastic mode")
        if args.seed is None:
            args.subparser.error("--seed is required in stochastic mode")
    elif args.draws is not None:
        args.subparser.error("--draws applies only with --mode stochastic")
    dataset, design = _load_for_analysis(args)
    result = randomization_test(
        dataset,
        design,
        alpha=args.alpha,
        delta0=args.delta0,
        mode=args.mode,
        draws=args.draws,
        seed=args.seed,
    )
    return {"pairs": design.pair_count, "match_mode": design.mode, **result.to_json_dict()}


def cmd_simulate(args) -> dict:
    _check_alpha(args)
    if args.rand_mode == "stochastic" and args.rand_draws is None:
        args.subparser.error("--rand-draws is required with --rand-mode stochastic")
    if args.rand_mode != "stochastic" and args.rand_draws is not None:
        args.subparser.error("--rand-draws applies only with --rand-mode stochastic")
    if args.pairs < 2:
        args.subparser.error("--pairs must be at least 2")
    if args.reps < 1:
        args.subparser.error("--reps must be at least 1")
    if args.preset is not None:
        dgp = preset(args.preset)
    else:
        with open(args.dgp_json, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise DataError(f"--dgp-json {args.dgp_json}: {exc}") from None
        dgp = DgpSpec.from_json_dict(payload)
    config = SimConfig(
        dgp=dgp,
        pair_count=args.pairs,
        replications=args.reps,
        match_mode=args.match_mode,
        alpha=args.alpha,
        null_delta=args.null_delta,
        seed=args.seed,
        rand_mode=args.rand_mode,
        rand_draws=args.rand_draws,
    )
    return monte_carlo(config).to_json_dict()


def build_parser() -> _Parser:
    parser = _Parser(prog="pairedcrt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="pair clusters on baseline features")
    p_match.add_argument("--clusters", required=True, help="clusters CSV")
    p_match.add_argument("--mode", choices=MATCH_MODES, default="nn_xn")
    p_match.add_argument("--out", required=True, help="design CSV to write")
    p_match.set_defaults(func=cmd_match)

    p_assign = sub.add_parser("assign", help="randomize treatment within pairs")
    p_assign.add_argument("--clusters", required=True, help="clusters CSV")
    p_assign.add_argument("--design", required=True, help="design CSV")
    p_assign.add_argument("--seed", type=_seed, required=True)
    p_assign.add_argument("--out", required=True, help="clusters CSV to write, with treatment")
    p_assign.set_defaults(func=cmd_assign)

    def add_analysis_inputs(p):
        p.add_argument("--units", required=True, help="units CSV")
        p.add_argument("--clusters", required=True, help="clusters CSV with treatment")
        p.add_argument("--design", required=True, help="design CSV")
        p.add_argument(
            "--matched-on-size",
            action="store_true",
            help="check that the design was matched on cluster size as well as "
            "covariates (its mode is nn_xn)",
        )
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--delta0", type=_finite, default=0.0, help="hypothesized effect")

    p_analyze = sub.add_parser("analyze", help="estimate the effect and test it")
    add_analysis_inputs(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_rand = sub.add_parser("randtest", help="randomization test over pair swaps")
    add_analysis_inputs(p_rand)
    p_rand.add_argument("--mode", choices=("exact", "stochastic"), default="exact")
    p_rand.add_argument("--draws", type=_draws, help="draw count for stochastic mode")
    p_rand.add_argument("--seed", type=_seed, help="seed for stochastic mode")
    p_rand.set_defaults(func=cmd_randtest)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study of a DGP")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--dgp-json", help="JSON file describing a DGP")
    p_sim.add_argument("--pairs", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--match-mode", choices=MATCH_MODES, default="nn_xn")
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--null-delta", type=_finite, default=0.0)
    p_sim.add_argument("--seed", type=_seed, required=True)
    p_sim.add_argument("--rand-mode", choices=("exact", "stochastic"), default=None)
    p_sim.add_argument("--rand-draws", type=_draws, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    for p in (p_match, p_assign, p_analyze, p_rand, p_sim):
        p.set_defaults(subparser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command returns its payload; the envelope is written here, once
        envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
        print(json.dumps({**envelope, **args.func(args)}, indent=2))
    except PairedCrtError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_DATA
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
