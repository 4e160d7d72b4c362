import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    OVERFLOWING_ORACLE_JSON,
    OVERFLOWING_OUTCOMES,
    identity_design,
    make_dataset,
    package_env,
    strict_json,
    trial_units,
    unit_dataset,
    with_outcomes,
    write_dataset,
)
from pairedcrt import cli
from pairedcrt.assignment import assign_within_pairs
from pairedcrt.core import build_dataset
from pairedcrt.inference import infer
from pairedcrt.matching import match_clusters, write_design
from pairedcrt.simulation import SizeLaw, oracle_variance, preset


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_analysis_fixture(tmp_path, ds, design):
    units = tmp_path / "units.csv"
    clusters = tmp_path / "clusters.csv"
    design_path = tmp_path / "design.csv"
    write_dataset(ds, units, clusters)
    write_design(design, ds, design_path)
    return str(units), str(clusters), str(design_path)


def unit_fixture(tmp_path):
    ds = make_dataset(
        sizes=[1, 1, 1, 1], ybars=[3.0, 1.0, 1.0, 1.0], treatments=[1, 0, 1, 0]
    )
    return write_analysis_fixture(tmp_path, ds, identity_design(2))


class TestPipeline:
    def test_match_assign_analyze_randtest(self, tmp_path, capsys):
        full, _ = trial_units(preset("size_heterogeneous"), 6, "nn_xn", seed=3)
        bare = dataclasses.replace(full, treatment=None)
        units = tmp_path / "units.csv"
        clusters = tmp_path / "clusters.csv"
        write_dataset(bare, units, clusters)
        design = tmp_path / "design.csv"
        treated = tmp_path / "treated.csv"

        code, out, _ = run_cli(
            ["match", "--clusters", str(clusters), "--mode", "nn_xn", "--out", str(design)],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["schema_version"] == 1
        assert payload["pairs"] == 6
        assert payload["matched_on_size"] is True
        assert "(1,0)" in payload["imbalance"]["pair_discrepancies"]

        code, out, _ = run_cli(
            [
                "assign",
                "--clusters", str(clusters),
                "--design", str(design),
                "--seed", "7",
                "--out", str(treated),
            ],
            capsys,
        )
        assert code == 0
        assert strict_json(out)["n_treated"] == 6

        code, out, _ = run_cli(
            [
                "analyze",
                "--units", str(units),
                "--clusters", str(treated),
                "--design", str(design),
                "--matched-on-size",
            ],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["command"] == "analyze"
        assert payload["v2"] > 0
        assert payload["ci_low"] < payload["delta_hat"] < payload["ci_high"]
        assert isinstance(payload["delta_hat_equal"], float)

        code, out, _ = run_cli(
            [
                "randtest",
                "--units", str(units),
                "--clusters", str(treated),
                "--design", str(design),
                "--matched-on-size",
                "--mode", "exact",
            ],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["draws"] == 64
        assert 2 / 64 <= payload["p_value"] <= 1.0


class TestAnalyze:
    def test_unit_fixture_values(self, tmp_path, capsys):
        units, clusters, design = unit_fixture(tmp_path)
        code, out, _ = run_cli(
            ["analyze", "--units", units, "--clusters", clusters, "--design", design],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["delta_hat"] == pytest.approx(1.0)
        assert payload["v2"] == pytest.approx(1.5)
        assert payload["delta_hat_equal"] == pytest.approx(1.0)
        assert payload["degenerate"] is False

    def test_degenerate_serializes_nulls(self, tmp_path, capsys):
        ds = make_dataset(
            sizes=[1, 1, 1, 1], ybars=[2.0, 2.0, 2.0, 2.0], treatments=[1, 0, 0, 1]
        )
        units, clusters, design = write_analysis_fixture(tmp_path, ds, identity_design(2))
        code, out, _ = run_cli(
            ["analyze", "--units", units, "--clusters", clusters, "--design", design],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["degenerate"] is True
        assert payload["se"] is None
        assert payload["ci_low"] is None
        assert payload["ci_high"] is None
        assert payload["p_value"] == 1.0

    @pytest.mark.parametrize("ybars", [[3.0, 1.0, 1.0, 2.0], [2.0, 2.0, 2.0, 2.0]])
    def test_payload_keys_in_order(self, tmp_path, capsys, ybars):
        ds = make_dataset(sizes=[1, 1, 1, 1], ybars=ybars, treatments=[1, 0, 0, 1])
        units, clusters, design = write_analysis_fixture(tmp_path, ds, identity_design(2))
        code, out, _ = run_cli(
            ["analyze", "--units", units, "--clusters", clusters, "--design", design], capsys
        )
        assert code == 0
        payload = strict_json(out)
        assert list(payload) == [
            "schema_version", "command", "pairs", "match_mode",
            "delta_hat", "mu1", "mu0", "n1", "n0", "estimand",
            "tau2", "lambda2", "v2", "clamped",
            "se", "z", "p_value", "ci_low", "ci_high", "alpha", "delta0",
            "degenerate", "delta_hat_equal",
        ]  # fmt: skip
        assert payload["degenerate"] is payload["clamped"] is (len(set(ybars)) == 1)

    def test_outcome_scale_overflowing_the_kernel_is_data_error(self, tmp_path, capsys):
        ds, design = trial_units(preset("size_heterogeneous"), 20, "nn_xn", seed=3)
        base = infer(ds, design).v2
        for factor, code_wanted in ((1e100, 0), (1e160, 2)):
            scaled = with_outcomes(ds, lambda y, _: y * factor)
            units, clusters, design_path = write_analysis_fixture(tmp_path, scaled, design)
            argv = ["analyze", "--units", units, "--clusters", clusters, "--design", design_path]
            code, out, err = run_cli(argv, capsys)
            assert code == code_wanted
            if code == 0:
                assert strict_json(out)["v2"] == pytest.approx(factor**2 * base, rel=1e-9)
            else:
                assert out == ""
                payload = strict_json(err)
                assert payload["error"] == "DataError"
                assert "rescale the outcomes" in payload["message"]

    @pytest.mark.parametrize("command", ["analyze", "randtest"])
    def test_outcomes_near_float_range_give_one_json_error(self, tmp_path, command):
        # without the suite's warning filter: stderr holds the error alone
        ds, design = trial_units(preset("size_heterogeneous"), 20, "nn_xn", seed=3)
        scaled = with_outcomes(ds, lambda y, _: y * 1e305)
        units, clusters, design_path = write_analysis_fixture(tmp_path, scaled, design)
        proc = subprocess.run(
            [sys.executable, "-m", "pairedcrt.cli", command,
             "--units", units, "--clusters", clusters, "--design", design_path],
            capture_output=True, text=True, env=package_env(),
        )  # fmt: skip
        assert (proc.returncode, proc.stdout) == (2, "")
        payload = strict_json(proc.stderr)
        assert payload["error"] == "DataError"
        assert payload["message"].startswith("outcomes at scale ")
        assert "scale inf" not in payload["message"]
        assert payload["message"].endswith(" at 20 pairs; rescale the outcomes")

    def test_alpha_out_of_range_is_usage_error(self, tmp_path, capsys):
        units, clusters, design = unit_fixture(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "analyze",
                    "--units", units,
                    "--clusters", clusters,
                    "--design", design,
                    "--alpha", "1.5",
                ]
            )
        assert excinfo.value.code == 64


def analyze_v2(tmp_path, capsys, design_path, *flags, command="analyze"):
    code, out, err = run_cli(
        [command, "--units", str(tmp_path / "units.csv"), "--clusters",
         str(tmp_path / "clusters.csv"), "--design", str(design_path), *flags],
        capsys,
    )  # fmt: skip
    return code, (strict_json(out).get("v2") if code == 0 else strict_json(err))


class TestDesignMode:
    """The design CSV records its match mode, so analysis orders the pairs on
    the features they were matched on, as ``infer`` does in memory."""

    @pytest.mark.parametrize("flags", [(), ("--matched-on-size",)])
    def test_nn_xn_design_with_or_without_flag(self, tmp_path, capsys, flags):
        ds, design = trial_units(preset("size_heterogeneous"), 200, "nn_xn", seed=3)
        _, _, design_path = write_analysis_fixture(tmp_path, ds, design)
        want = infer(ds, design).v2
        assert want == pytest.approx(2.8168, abs=1e-4)
        assert analyze_v2(tmp_path, capsys, design_path, *flags) == (0, want)

    def test_sorted_x_design_on_two_covariates(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (400, 2))
        n = rng.choice([10, 50], 400)
        ids = [f"c{i:04d}" for i in range(400)]
        design = match_clusters(build_dataset(ids, n, x), "sorted_x")
        t = assign_within_pairs(design, 11)
        y = 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 1] + 0.5 * t + rng.normal(0.0, 1.0, 400)
        ds = unit_dataset(ids, n, x, t, y, np.arange(401))
        _, _, design_path = write_analysis_fixture(tmp_path, ds, design)
        assert analyze_v2(tmp_path, capsys, design_path) == (0, infer(ds, design).v2)

    @pytest.mark.parametrize("command", ["analyze", "randtest"])
    @pytest.mark.parametrize("mode", ["sorted_x", "nn_x"])
    def test_flag_conflicting_with_mode_is_data_error(self, tmp_path, capsys, command, mode):
        ds, design = trial_units(preset("null"), 6, mode, seed=1)
        _, _, design_path = write_analysis_fixture(tmp_path, ds, design)
        code, err = analyze_v2(
            tmp_path, capsys, design_path, "--matched-on-size", command=command
        )
        assert code == 2
        assert err == {
            "error": "DataError",
            "message": f"the design CSV was matched in mode '{mode}', not on size (nn_xn)",
        }

    def test_design_without_mode_column_is_data_error(self, tmp_path, capsys):
        # read as nn_x, this design would give v2 = 2.6465 instead of 2.8168
        ds, design = trial_units(preset("size_heterogeneous"), 200, "nn_xn", seed=3)
        _, _, design_path = write_analysis_fixture(tmp_path, ds, design)
        rows = Path(design_path).read_text().splitlines()
        Path(design_path).write_text("".join(r.rsplit(",", 1)[0] + "\n" for r in rows))
        message = (
            "design CSV has no mode column naming the match mode, "
            "one of ('sorted_x', 'nn_x', 'nn_xn')"
        )
        for command in ("analyze", "randtest"):
            for flags in ((), ("--matched-on-size",)):
                code, err = analyze_v2(tmp_path, capsys, design_path, *flags, command=command)
                assert (code, err) == (2, {"error": "DataError", "message": message})

    @pytest.mark.parametrize("command", ["analyze", "randtest"])
    @pytest.mark.parametrize("mode", ["sorted_x", "nn_x", "nn_xn"])
    def test_result_echoes_the_match_mode(self, tmp_path, capsys, command, mode):
        ds, design = trial_units(preset("null"), 6, mode, seed=2)
        units, clusters, design_path = write_analysis_fixture(tmp_path, ds, design)
        argv = [command, "--units", units, "--clusters", clusters, "--design", design_path]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = strict_json(out)
        assert (payload["schema_version"], payload["match_mode"]) == (1, mode)

    @pytest.mark.parametrize(
        "spoil,message",
        [
            (lambda rows: rows[:5] + ["2,0,c004,optimal"] + rows[6:],
             "design CSV line 6: unknown mode 'optimal'"),
            (lambda rows: rows[:3] + ["1,0,c002,nn_xn"] + rows[4:],
             "design CSV line 4: mode 'nn_xn' where earlier rows have 'nn_x'"),
        ],
    )  # fmt: skip
    def test_bad_or_mixed_mode_is_data_error(self, tmp_path, capsys, spoil, message):
        ds = make_dataset(sizes=[1] * 8, ybars=[3.0, 1.0, 2.0, 0.0, 5.0, 1.0, 4.0, 2.0],
                          treatments=[1, 0] * 4)  # fmt: skip
        _, _, design_path = write_analysis_fixture(tmp_path, ds, identity_design(4))
        rows = Path(design_path).read_text().splitlines()
        Path(design_path).write_text("\n".join(spoil(rows)) + "\n")
        code, err = analyze_v2(tmp_path, capsys, design_path)
        assert code == 2
        assert err == {"error": "DataError", "message": message}


class TestRandtest:
    def test_constant_outcomes(self, tmp_path, capsys):
        ds = make_dataset(
            sizes=[1, 1, 1, 1], ybars=[2.0, 2.0, 2.0, 2.0], treatments=[1, 0, 0, 1]
        )
        units, clusters, design = write_analysis_fixture(tmp_path, ds, identity_design(2))
        code, out, _ = run_cli(
            ["randtest", "--units", units, "--clusters", clusters, "--design", design],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["p_value"] == 1.0
        assert payload["t_observed"] == 0.0
        assert payload["reject"] is False

    def test_stochastic_requires_draws_and_seed(self, tmp_path, capsys):
        units, clusters, design = unit_fixture(tmp_path)
        common = ["randtest", "--units", units, "--clusters", clusters, "--design", design]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(common + ["--mode", "stochastic", "--seed", "1"])
        assert excinfo.value.code == 64
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(common + ["--mode", "stochastic", "--draws", "100"])
        assert excinfo.value.code == 64

    def test_effect_overflowing_the_kernel_is_data_error(self, tmp_path, capsys):
        ds, design = trial_units(preset("size_heterogeneous"), 20, "nn_xn", seed=3)
        units, clusters, design_path = write_analysis_fixture(tmp_path, ds, design)
        argv = ["randtest", "--units", units, "--clusters", clusters, "--design", design_path]
        code, out, err = run_cli(argv + ["--delta0", "1e160"], capsys)
        assert (code, out) == (2, "")
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert payload["message"].startswith("outcomes at scale ")
        assert payload["message"].endswith(" at 20 pairs; rescale the outcomes")

    def test_draws_without_stochastic_mode_is_usage_error(self, tmp_path, capsys):
        # the flag is checked before any file is read, so none need exist
        missing = str(tmp_path / "missing.csv")
        argv = ["randtest", "--units", missing, "--clusters", missing, "--design", missing,
                "--mode", "exact", "--draws", "100"]  # fmt: skip
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--draws applies only with --mode stochastic" in captured.err

    @pytest.mark.parametrize("draws", ["5", "18", "x"])
    @pytest.mark.parametrize("command", ["randtest", "simulate"])
    def test_too_few_draws_is_usage_error(self, tmp_path, capsys, command, draws):
        # argparse rejects the count before any file is read or trial drawn
        if command == "randtest":
            units, clusters, design = unit_fixture(tmp_path)
            argv = ["randtest", "--units", units, "--clusters", clusters, "--design", design,
                    "--mode", "stochastic", "--seed", "1", "--draws", draws]  # fmt: skip
        else:
            argv = ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2", "--seed", "1",
                    "--rand-mode", "stochastic", "--rand-draws", draws]  # fmt: skip
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be an integer >= 19, got '{draws}'" in captured.err

    def test_stochastic_runs(self, tmp_path, capsys):
        units, clusters, design = unit_fixture(tmp_path)
        code, out, _ = run_cli(
            [
                "randtest",
                "--units", units,
                "--clusters", clusters,
                "--design", design,
                "--mode", "stochastic",
                "--draws", "99",
                "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["mode"] == "stochastic"
        assert payload["draws"] == 99
        assert payload["seed"] == 5
        p = payload["p_value"]
        assert payload["mc_standard_error"] == pytest.approx((p * (1 - p) / 99) ** 0.5)
        assert payload["schema_version"] == 1

    def test_exact_has_no_monte_carlo_error(self, tmp_path, capsys):
        units, clusters, design = unit_fixture(tmp_path)
        code, out, _ = run_cli(
            ["randtest", "--units", units, "--clusters", clusters, "--design", design],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["mode"] == "exact"
        assert payload["mc_standard_error"] is None


class TestUsageAndDataErrors:
    def test_assign_requires_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "assign",
                    "--clusters", str(tmp_path / "c.csv"),
                    "--design", str(tmp_path / "d.csv"),
                    "--out", str(tmp_path / "o.csv"),
                ]
            )
        assert excinfo.value.code == 64

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 64

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = cli.main(
            [
                "match",
                "--clusters", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "design.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert strict_json(err)["error"] == "OSError"

    def test_invalid_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "clusters.csv"
        bad.write_text("cluster_id,n_total,x1\na,2,0.5\nb,3,0.7\nc,1,0.2\n")
        code = cli.main(
            ["match", "--clusters", str(bad), "--out", str(tmp_path / "design.csv")]
        )
        assert code == 2
        payload = strict_json(capsys.readouterr().err)
        assert payload["error"] == "DataError"
        assert payload["message"] == "need an even cluster count >= 4, got 3"

    def test_simulate_rejects_both_dgp_sources(self, tmp_path, capsys):
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps(preset("null").to_json_dict()))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "simulate",
                    "--preset", "null",
                    "--dgp-json", str(path),
                    "--pairs", "4",
                    "--reps", "2",
                    "--seed", "1",
                ]
            )
        assert excinfo.value.code == 64


def clusters_csv(tmp_path, bad_row):
    """A 4-cluster CSV whose cluster c has the given n_total and x1, and a design."""
    clusters = tmp_path / "clusters.csv"
    n_total, x1 = bad_row
    clusters.write_text(
        f"cluster_id,n_total,x1\na,2,0.1\nb,3,0.4\nc,{n_total},{x1}\nd,2,0.9\n"
    )
    design = tmp_path / "design.csv"
    design.write_text("pair_index,position,cluster_id\n0,0,a\n0,1,b\n1,0,c\n1,1,d\n")
    return str(clusters), str(design)


class TestInputValidation:
    @pytest.mark.parametrize(
        "bad_row", [("2", "nan"), ("2", "inf"), ("2", "-inf"), ("0", "0.5"), ("-1", "0.5")]
    )
    @pytest.mark.parametrize("command", ["match", "assign"])
    def test_bad_cluster_is_data_error(self, tmp_path, capsys, command, bad_row):
        clusters, design = clusters_csv(tmp_path, bad_row)
        out = str(tmp_path / "out.csv")
        if command == "match":
            argv = ["match", "--clusters", clusters, "--mode", "nn_xn", "--out", out]
        else:
            argv = ["assign", "--clusters", clusters, "--design", design, "--seed", "1",
                    "--out", out]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 2
        assert stdout == ""
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert "'c'" in payload["message"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["assign", "randtest", "simulate"])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, command, seed):
        units, clusters, design = unit_fixture(tmp_path)
        argv = {
            "assign": ["assign", "--clusters", clusters, "--design", design,
                       "--out", str(tmp_path / "o.csv")],
            "randtest": ["randtest", "--units", units, "--clusters", clusters,
                         "--design", design, "--mode", "stochastic", "--draws", "99"],
            "simulate": ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + [f"--seed={seed}"])
        assert excinfo.value.code == 64
        assert "--seed" in capsys.readouterr().err

    def test_overflowing_covariate_is_data_error(self, tmp_path, capsys):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text(
            "cluster_id,n_total,x1\na,2,1e308\nb,3,-1e308\nc,2,0\nd,2,1\ne,2,2\nf,2,3\n"
        )
        code, stdout, err = run_cli(
            ["match", "--clusters", str(clusters), "--out", str(tmp_path / "d.csv")], capsys
        )
        assert code == 2
        assert stdout == ""
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert "column 0" in payload["message"]

    @pytest.mark.parametrize("command", ["analyze", "randtest"])
    def test_design_over_part_of_the_data_is_data_error(self, tmp_path, capsys, command):
        ds = make_dataset(
            sizes=[1] * 8, ybars=[3.0, 1.0, 2.0, 0.0, 5.0, 1.0, 4.0, 2.0], treatments=[1, 0] * 4
        )
        units, clusters, design = write_analysis_fixture(tmp_path, ds, identity_design(4))
        with open(design, "w", encoding="utf-8") as fh:
            fh.write("pair_index,position,cluster_id\n0,0,c000\n0,1,c001\n1,0,c002\n1,1,c003\n")
        code, stdout, err = run_cli(
            [command, "--units", units, "--clusters", clusters, "--design", design], capsys
        )
        assert code == 2
        assert stdout == ""
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert "4 clusters" in payload["message"] and "8 clusters" in payload["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    @pytest.mark.parametrize("command", ["analyze", "randtest", "simulate"])
    def test_nonfinite_effect_is_usage_error(self, tmp_path, capsys, command, value):
        units, clusters, design = unit_fixture(tmp_path)
        argv = {
            "analyze": ["analyze", "--units", units, "--clusters", clusters, "--design", design,
                        f"--delta0={value}"],
            "randtest": ["randtest", "--units", units, "--clusters", clusters, "--design", design,
                         f"--delta0={value}"],
            "simulate": ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2",
                         "--seed", "1", f"--null-delta={value}"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 64
        assert "finite number" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, tmp_path, capsys):
        _, clusters, design = unit_fixture(tmp_path)
        code, out, _ = run_cli(
            ["assign", "--clusters", clusters, "--design", design,
             "--seed", str(2**64 - 1), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 0
        assert strict_json(out)["seed"] == 2**64 - 1


class TestBoundaryErrors:
    """Malformed input of every kind exits 2 with a typed JSON error."""

    def run_analyze(self, tmp_path, capsys, spoil):
        units, clusters, design = unit_fixture(tmp_path)
        spoil(units=units, clusters=clusters, design=design)
        return run_cli(
            ["analyze", "--units", units, "--clusters", clusters, "--design", design], capsys
        )

    @staticmethod
    def append(path, data: bytes):
        with open(path, "ab") as fh:
            fh.write(data)

    @pytest.mark.parametrize(
        "kind,row",
        [
            ("units", b"c000,u2,2,5\n"),  # a decimal comma adds a field
            ("clusters", b"c004,2,0,1,1\n"),
            ("design", b"2,0,c004,nn_x,extra\n"),
        ],
    )
    def test_row_with_another_field_count(self, tmp_path, capsys, kind, row):
        code, stdout, err = self.run_analyze(
            tmp_path, capsys, lambda **paths: self.append(paths[kind], row)
        )
        assert (code, stdout) == (2, "")
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert f"{kind} CSV line" in payload["message"]
        assert "fields where the header has" in payload["message"]

    def test_design_with_bad_pair_index(self, tmp_path, capsys):
        def spoil(design, **_):
            with open(design, "w", encoding="utf-8") as fh:
                fh.write("pair_index,position,cluster_id\n0,0,c000\n0,1,c001\nx,0,c002\n1,1,c003\n")

        code, _, err = self.run_analyze(tmp_path, capsys, spoil)
        assert code == 2
        payload = strict_json(err)
        assert payload == {"error": "DataError", "message": "design CSV line 4: bad pair_index 'x'"}

    @pytest.mark.parametrize("kind", ["units", "clusters", "design"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, kind):
        code, _, err = self.run_analyze(
            tmp_path, capsys, lambda **paths: self.append(paths[kind], b"\xff\xfe\n")
        )
        assert code == 2
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert "is not UTF-8" in payload["message"]

    def test_sorted_matching_without_covariates(self, tmp_path, capsys):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text("cluster_id,n_total\na,2\nb,3\nc,2\nd,2\n")
        code, _, err = run_cli(
            ["match", "--clusters", str(clusters), "--mode", "sorted_x",
             "--out", str(tmp_path / "d.csv")],
            capsys,
        )
        assert code == 2
        assert strict_json(err)["error"] == "DataError"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{", "Expecting property name"),
            ('{"outcomes": 1', "delimiter"),
            (json.dumps({**preset("null").to_json_dict(), "outcomes": {"alpha0": 1.0, "alpha1": 1.0, "gamma": 2.0}}),
             "unexpected keyword argument 'gamma'"),
            (json.dumps({**preset("null").to_json_dict(), "covariates": {"kind": "uniform", "params": [0.0]}}),
             "exactly two parameters"),
            (json.dumps([1, 2]), "TypeError"),
        ],
    )  # fmt: skip
    def test_bad_dgp_json(self, tmp_path, capsys, text, message):
        path = tmp_path / "dgp.json"
        path.write_text(text)
        code, stdout, err = run_cli(
            ["simulate", "--dgp-json", str(path), "--pairs", "4", "--reps", "2", "--seed", "1"],
            capsys,
        )
        assert (code, stdout) == (2, "")
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert message in payload["message"]

    def test_unbounded_size_law_is_data_error(self, tmp_path, capsys, monkeypatch):
        def enumerate_support(self):
            raise AssertionError("support enumerated")

        monkeypatch.setattr(SizeLaw, "support", enumerate_support)
        path = tmp_path / "dgp.json"
        sizes = {"kind": "uniform_int", "params": [1, 10**12]}
        path.write_text(json.dumps({**preset("null").to_json_dict(), "sizes": sizes}))
        code, stdout, err = run_cli(
            ["simulate", "--dgp-json", str(path), "--pairs", "4", "--reps", "2", "--seed", "1"],
            capsys,
        )
        assert (code, stdout) == (2, "")
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert "more than 1000000 sizes" in payload["message"]

    @pytest.mark.parametrize("outcomes", OVERFLOWING_OUTCOMES.values(), ids=OVERFLOWING_OUTCOMES)
    def test_overflowing_dgp_gives_one_json_error(self, tmp_path, outcomes):
        # without the suite's warning filter: stderr holds the error alone
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps({**preset("size_heterogeneous").to_json_dict(), "outcomes": outcomes}))
        proc = subprocess.run(
            [sys.executable, "-m", "pairedcrt.cli", "simulate", "--dgp-json", str(path),
             "--pairs", "20", "--reps", "2", "--seed", "1"],
            capture_output=True, text=True, env=package_env(),
        )  # fmt: skip
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1
        payload = strict_json(proc.stderr)
        assert payload["error"] == "DataError"
        assert re.fullmatch(r"cluster 'c\d{6}': outcome (inf|-inf|nan)", payload["message"])

    def test_huge_trial_is_data_error(self, tmp_path, capsys):
        # 8 clusters of 10^12 units each, all sampled: refused before any draw
        path = tmp_path / "dgp.json"
        sizes = {"kind": "fixed", "params": [10**12]}
        path.write_text(json.dumps({**preset("null").to_json_dict(), "sizes": sizes}))
        code, stdout, err = run_cli(
            ["simulate", "--dgp-json", str(path), "--pairs", "4", "--reps", "2", "--seed", "1"],
            capsys,
        )
        assert (code, stdout) == (2, "")
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert "samples 8000000000000 units" in payload["message"]

    @pytest.mark.parametrize("size", [7.9, 1e300])
    def test_fractional_or_huge_size_is_data_error(self, tmp_path, capsys, size):
        path = tmp_path / "dgp.json"
        sizes = {"kind": "fixed", "params": [size]}
        path.write_text(json.dumps({**preset("null").to_json_dict(), "sizes": sizes}))
        code, stdout, err = run_cli(
            ["simulate", "--dgp-json", str(path), "--pairs", "4", "--reps", "2", "--seed", "1"],
            capsys,
        )
        assert (code, stdout) == (2, "")
        payload = strict_json(err)
        assert payload["error"] == "DataError"
        assert f"sizes must be integers up to 2**62, got {size!r}" in payload["message"]

    @pytest.mark.parametrize("flag,value", [("--pairs", "1"), ("--reps", "0")])
    def test_simulate_size_out_of_range_is_usage_error(self, capsys, flag, value):
        argv = ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + [flag, value])
        assert excinfo.value.code == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--rand-mode", "exact"]])
    def test_rand_draws_without_stochastic_mode_is_usage_error(self, capsys, mode):
        argv = ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + mode + ["--rand-draws", "100"])
        assert excinfo.value.code == 64
        assert "--rand-draws" in capsys.readouterr().err

    def test_stochastic_mode_without_rand_draws_is_usage_error(self, capsys):
        argv = ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--rand-mode", "stochastic"])
        assert excinfo.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--rand-draws is required with --rand-mode stochastic" in captured.err

    def test_oracle_draws_is_an_unknown_argument(self, capsys):
        # the oracle variance is exact, so there are no draws to set
        argv = ["simulate", "--preset", "null", "--pairs", "4", "--reps", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--oracle-draws", "1000"])
        assert excinfo.value.code == 64
        assert "unrecognized arguments: --oracle-draws" in capsys.readouterr().err


class TestSimulate:
    def test_preset_run(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "null", "--pairs", "4", "--reps", "5", "--seed", "9"],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "simulate"
        assert payload["replications"] == 5
        assert payload["true_delta"] == pytest.approx(0.0)
        assert payload["rejection_rate_rand"] is None
        assert 0.0 <= payload["coverage"] <= 1.0
        assert payload["oracle_variance"] == oracle_variance(preset("null"), "nn_xn")

    def test_one_replication_has_no_empirical_sd(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "null", "--pairs", "4", "--reps", "1", "--seed", "9"],
            capsys,
        )
        assert code == 0
        assert strict_json(out)["empirical_sd"] is None
        assert '"empirical_sd": null' in out

    def test_dgp_json_run(self, tmp_path, capsys):
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps(preset("constant_effect").to_json_dict()))
        code, out, _ = run_cli(
            [
                "simulate",
                "--dgp-json", str(path),
                "--pairs", "4",
                "--reps", "3",
                "--seed", "2",
                "--rand-mode", "exact",
            ],
            capsys,
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["true_delta"] == pytest.approx(1.0)
        assert payload["rejection_rate_rand"] is not None


    def test_oracle_beyond_float_range_is_null(self, tmp_path, capsys):
        # every replication runs; only the closed-form oracle overflows
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps(OVERFLOWING_ORACLE_JSON))
        code, out, err = run_cli(
            ["simulate", "--dgp-json", str(path), "--pairs", "4", "--reps", "2", "--seed", "1"],
            capsys,
        )
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["oracle_variance"] is None
        assert payload["replications"] == 2 and payload["mean_v2"] is not None


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairedcrt.cli", "--help"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0
        for name in ("match", "assign", "analyze", "randtest", "simulate"):
            assert name in proc.stdout
