"""The benchmark's workloads, each driving ``pairedcrt.cli.main`` in process.

A workload prepares its inputs, runs one warm-up operation and then hands
out rounds of operations. An operation is a list of CLI invocations timed
together; its check runs afterwards, untimed, against ``reference``.
``setup`` returns the CPU seconds of program set-up it spent: input generation
and CSV writes (repeated where cheap, median taken) plus the warm-up.
Reference results the checks need are computed during set-up but outside
that time, since they are the benchmark's work and not the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import inputs
import reference as ref
from reference import close, expect

PREPARE_REPEATS = 3


class OpFailed(Exception):
    """A CLI invocation exited non-zero or raised."""


def run_cli(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any crash of the program is a failed operation
        raise OpFailed(f"{argv[0]}: {type(exc).__name__}: {exc}") from exc
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}")
    return buf.getvalue()


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


class Op:
    """One operation: a named list of CLI calls and a check of their outputs."""

    def __init__(self, label: str, argvs: list[list[str]], check):
        self.label = label
        self.argvs = argvs
        self.check = check

    def run(self, cli) -> list[dict]:
        raw = [run_cli(cli, argv) for argv in self.argvs]
        return [json.loads(text) for text in raw]


class TrialFiles:
    """A generated trial on disk, matched and assigned through the CLI."""

    def __init__(self, workdir: Path, tag: str, trial: inputs.Trial):
        self.trial = trial
        self.clusters = workdir / f"{tag}-clusters.csv"
        self.units = workdir / f"{tag}-units.csv"
        self.design = workdir / f"{tag}-design.csv"
        self.treated = workdir / f"{tag}-treated.csv"

    def match_argv(self) -> list[str]:
        return ["match", "--clusters", str(self.clusters), "--mode", "nn_xn", "--out", str(self.design)]

    def assign_argv(self, seed: int) -> list[str]:
        return [
            "assign", "--clusters", str(self.clusters), "--design", str(self.design),
            "--seed", str(seed), "--out", str(self.treated),
        ]  # fmt: skip

    def analysis_argv(self, command: str, delta0: float) -> list[str]:
        return [
            command, "--units", str(self.units), "--clusters", str(self.treated),
            "--design", str(self.design), "--matched-on-size", "--delta0", repr(delta0),
        ]  # fmt: skip

    def write_units(self) -> np.ndarray:
        """Write the units CSV under the treatment ``assign`` wrote; returns it."""
        treated = ref.read_clusters(self.treated).treatment
        inputs.write_units(self.trial, treated, self.units)
        return treated

    def pair_data(self) -> ref.PairData:
        clusters = ref.read_clusters(self.treated)
        pairs = ref.read_pairs(self.design, clusters)
        return ref.pair_data(clusters, ref.unit_means(self.units, clusters.ids), pairs)


def check_analysis(got: dict, want: dict, alpha: float) -> None:
    for key, value in want.items():
        if isinstance(value, bool):
            expect(got[key] is value, f"analyze {key}: program {got[key]!r}, reference {value!r}")
        else:
            close(f"analyze {key}", got[key], value)
    expect(got["alpha"] == alpha, "analyze echoes another alpha")


class CliPipeline:
    """match -> assign -> analyze -> stochastic randtest on one trial's CSVs."""

    name = "cli_pipeline"

    def __init__(self, workdir: Path, seed: int, tiny: bool):
        self.seed = seed
        self.pairs = 40 if tiny else 1000
        self.draws = 199 if tiny else 1999
        self.assign_seed = derive_seed(seed, 1)
        self.rand_seed = derive_seed(seed, 2)
        self.workdir = workdir

    def setup(self, cli) -> float:
        prepare_s = []
        for _ in range(PREPARE_REPEATS):
            start = time.process_time()
            trial = inputs.draw_trial(derive_seed(self.seed, 0), self.pairs)
            self.files = TrialFiles(self.workdir, "pipeline", trial)
            inputs.write_clusters(trial, self.files.clusters)
            prepare_s.append(time.process_time() - start)
        self.delta0 = trial.effect
        match, assign, analyze, randtest = self.op().argvs
        start = time.process_time()
        for argv in (match, assign):
            run_cli(cli, argv)
        self.treatment = self.files.write_units()
        for argv in (analyze, randtest):
            run_cli(cli, argv)
        warm_s = time.process_time() - start
        clusters = ref.read_clusters(self.files.clusters)
        self.ybar = ref.unit_means(self.files.units, clusters.ids)
        return statistics.median(prepare_s) + warm_s

    def op(self) -> Op:
        f = self.files
        argvs = [
            f.match_argv(),
            f.assign_argv(self.assign_seed),
            f.analysis_argv("analyze", self.delta0),
            f.analysis_argv("randtest", self.delta0) + [
                "--mode", "stochastic", "--draws", str(self.draws), "--seed", str(self.rand_seed),
            ],  # fmt: skip
        ]
        return Op("pipeline", argvs, self.check)

    def rounds(self) -> list[Op]:
        return [self.op()]

    def check(self, outputs: list[dict]) -> None:
        match, assign, analyze, randtest = outputs
        f = self.files
        base = ref.read_clusters(f.clusters)
        pairs = ref.read_pairs(f.design, base)
        expect(match["pairs"] == self.pairs == len(pairs), "match reports another pair count")
        expect(match["matched_on_size"] is True, "match nn_xn not marked as matched on size")
        want = ref.imbalance(base, pairs, on_size=True)
        for family, values in want.items():
            got = match["imbalance"][family]
            expect(set(got) == set(values), f"match {family}: keys {sorted(got)}")
            for key, value in values.items():
                close(f"match {family}{key}", got[key], value)
        z = ref.zscore(ref.match_features(base, on_size=True))
        matched = ref.mean_pair_distance(z, pairs)
        shuffled = ref.mean_pair_distance(z, ref.random_pairing(len(base.ids), self.seed))
        expect(matched < 0.25 * shuffled, f"mean pair distance {matched} vs random {shuffled}")

        treated = ref.read_clusters(f.treated)
        expect(treated.ids == base.ids, "assign changed the clusters")
        expect(bool(np.all(treated.treatment[pairs].sum(axis=1) == 1)), "assign: not one treated per pair")
        expect(assign["n_treated"] == self.pairs, "assign reports another treated count")
        expect(
            bool(np.array_equal(treated.treatment, self.treatment)),
            "assign wrote another treatment than the units CSV was generated under",
        )

        p = ref.pair_data(treated, self.ybar, pairs)
        want = ref.analysis(p, 0.05, self.delta0)
        check_analysis(analyze, want, 0.05)
        expect(
            abs(analyze["delta_hat"] - self.delta0) <= 5 * want["se"],
            f"delta_hat {analyze['delta_hat']} far from the known effect {self.delta0}",
        )

        close("randtest t_observed", randtest["t_observed"], ref.t_observed(p, self.delta0))
        hits = randtest["p_value"] * self.draws
        expect(
            randtest["draws"] == self.draws and abs(hits - round(hits)) < 1e-6 and 1 <= round(hits) <= self.draws,
            f"stochastic p {randtest['p_value']} is not k/{self.draws} with 1 <= k <= draws",
        )


class McStudy:
    """Three ``simulate`` studies of the size_heterogeneous preset, one per match mode."""

    name = "mc_study"
    MODES = ("sorted_x", "nn_x", "nn_xn")

    def __init__(self, workdir: Path, seed: int, tiny: bool):
        self.pairs = 30 if tiny else 500
        self.reps = 4 if tiny else 10
        self.seeds = [derive_seed(seed, 10 + i) for i in range(len(self.MODES))]

    def setup(self, cli) -> float:
        op = self.op()
        start = time.process_time()
        self.first = op.run(cli)
        return time.process_time() - start

    def op(self) -> Op:
        argvs = [
            [
                "simulate", "--preset", "size_heterogeneous", "--pairs", str(self.pairs),
                "--reps", str(self.reps), "--match-mode", mode, "--seed", str(seed),
            ]  # fmt: skip
            for mode, seed in zip(self.MODES, self.seeds)
        ]
        return Op("studies", argvs, self.check)

    def rounds(self) -> list[Op]:
        return [self.op()]

    def check(self, outputs: list[dict]) -> None:
        delta = ref.size_heterogeneous_delta()
        for mode, report, first in zip(self.MODES, outputs, self.first):
            expect(report == first, f"simulate {mode}: a rerun with the same seed differs")
            expect(
                (report["match_mode"], report["pair_count"], report["replications"])
                == (mode, self.pairs, self.reps),
                f"simulate {mode}: report echoes another configuration",
            )
            close(f"simulate {mode} true_delta", report["true_delta"], delta, rtol=1e-12)
            mc_se = report["empirical_sd"] / math.sqrt(self.pairs * self.reps)
            expect(
                abs(report["mean_delta_hat"] - delta) <= 5 * mc_se,
                f"simulate {mode}: mean_delta_hat {report['mean_delta_hat']} vs {delta} (MC se {mc_se})",
            )
            expect(report["rejection_rate_rand"] is None, f"simulate {mode}: ran a randomization test")


class ExactRandtest:
    """Exact ``randtest`` on small trials, rotating over trials and delta0."""

    name = "exact_randtest"
    TRIALS = 3

    def __init__(self, workdir: Path, seed: int, tiny: bool):
        self.seed = seed
        self.pairs = 8 if tiny else 18
        self.workdir = workdir

    def setup(self, cli) -> float:
        prepare_s = []
        for _ in range(PREPARE_REPEATS):
            start = time.process_time()
            self.trials = []
            for k in range(self.TRIALS):
                files = TrialFiles(
                    self.workdir, f"exact{k}", inputs.draw_trial(derive_seed(self.seed, 20 + k), self.pairs)
                )
                inputs.write_clusters(files.trial, files.clusters)
                self.trials.append(files)
            prepare_s.append(time.process_time() - start)
        start = time.process_time()
        for k, files in enumerate(self.trials):
            run_cli(cli, files.match_argv())
            run_cli(cli, files.assign_argv(derive_seed(self.seed, 30 + k)))
            files.write_units()
        ops = self.rounds()
        ops[0].run(cli)
        warm_s = time.process_time() - start
        self.expected = {}
        for files in self.trials:
            p = files.pair_data()
            for delta0 in self.delta0s(files):
                self.expected[(files.design, delta0)] = (p, ref.exact_count(p, delta0))
        return statistics.median(prepare_s) + warm_s

    @staticmethod
    def delta0s(files: TrialFiles) -> tuple[float, float]:
        return (0.0, files.trial.effect)

    def rounds(self) -> list[Op]:
        ops = []
        for files in self.trials:
            for delta0 in self.delta0s(files):
                argv = files.analysis_argv("randtest", delta0) + ["--mode", "exact"]
                ops.append(Op("exact", [argv], self._checker(files.design, delta0)))
        return ops

    def _checker(self, key, delta0: float):
        def check(outputs: list[dict]) -> None:
            (result,) = outputs
            p, count = self.expected[(key, delta0)]
            total = 1 << self.pairs
            expect(result["mode"] == "exact" and result["draws"] == total, "exact test: wrong draw count")
            close("exact t_observed", result["t_observed"], ref.t_observed(p, delta0))
            expect(
                result["p_value"] == count / total,
                f"exact p {result['p_value']} != reference {count}/{total}",
            )
            hits = result["p_value"] * total
            expect(hits == int(hits) and int(hits) % 2 == 0, f"exact p*2^G = {hits} is not even")

        return check


WORKLOADS = {w.name: w for w in (CliPipeline, McStudy, ExactRandtest)}
