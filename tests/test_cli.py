import argparse
import json
import math
import re
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import dense
from ntkalign import alignment, cli, core
from ntkalign.cli import main
from ntkalign.core import NtkMatrix, stack
from ntkalign.dataio import load_csv, save_csv
from ntkalign.models import (
    InitConfig,
    flatten_params,
    gnn2_forward,
    gnn2_jacobian,
    init_gnn2,
    unflatten_params,
)
from ntkalign.ntk import TapStack, empirical_ntk, filter_ntk
from ntkalign.shiftops import AsymmetricShift, covariance, cross_covariance
from ntkalign.training import linearized_dynamics, predicted_param_movement


def run(*argv):
    return main([str(a) for a in argv])


def flag_error(subcommand, flag, value, low=None):
    """The last stderr line when a positive flag (an integer flag >= ``low``) is out of domain."""
    reason = (f"expected an integer >= {low}, got {value!r}" if low is not None
              else f"value must be positive and finite, got {float(value)}")
    return f"ntkalign {subcommand}: error: argument --{flag}: {reason}"


def fraction_error(subcommand, flag, value, domain="(0, 1]"):
    """The last stderr line when a fraction flag is outside its domain."""
    reason = f"expected a value in {domain}, got {value!r}"
    return f"ntkalign {subcommand}: error: argument --{flag}: {reason}"


# every flag that rejects the non-positive and non-finite reals, by subcommand
POSITIVE_FLAGS = [
    ("optimize-gso", "mu"), ("optimize-gso", "alpha"), ("optimize-gso", "eta"),
    ("train", "eta"), ("train", "kappa"), ("compare", "eta"), ("compare", "kappa"),
]

# every flag whose domain is the integers >= 1, by subcommand
SIZE_FLAGS = [
    ("gen-data", "n"), ("gen-data", "len"), ("gen-data", "m-train"),
    ("ntk", "k"), ("ntk", "width"), ("align", "k"),
    ("train", "k"), ("train", "width"),
    ("compare", "k"), ("compare", "width"), ("compare", "reps"), ("compare", "m-train"),
]

# every flag whose domain is the integers >= 0, by subcommand
COUNT_FLAGS = [
    ("gen-data", "dt"), ("gen-data", "m-test"),
    ("train", "epochs"), ("train", "batch-size"), ("compare", "epochs"), ("compare", "batch-size"),
    ("compare", "dt"), ("compare", "m-test"),
    *((subcommand, "seed") for subcommand in cli.COMMANDS),
]


@pytest.fixture
def tiny_data(tmp_path):
    """Small paired CSVs plus the shift-operator source data."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 12))
    y = 0.8 * x + 0.1 * rng.standard_normal((5, 12))
    scale = np.linalg.norm(np.concatenate([x, y], axis=1), axis=0).max()
    x, y = x / scale, y / scale
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_csv(x, x_path)
    save_csv(y, y_path)
    return x, y, x_path, y_path


class TestUsageErrors:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run() == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_input_file_reports_path(self, tmp_path, capsys):
        code = run("ntk", "--x", tmp_path / "nope.csv", "--y", tmp_path / "nope.csv",
                   "--out-dir", tmp_path)
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_required_input_names_the_flag(self, tmp_path, capsys):
        assert run("ntk", "--out-dir", tmp_path) == 2
        assert "--x" in capsys.readouterr().err

    def test_non_finite_gso_file_names_the_fault(self, tiny_data, tmp_path, capsys):
        # the symmetrize hint belongs to the asymmetry error alone
        _, _, x_path, y_path = tiny_data
        bad = tmp_path / "nan.csv"
        bad.write_text("1,nan\nnan,1\n")
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--gso-file", bad,
                   "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --gso-file: array contains non-finite entries"]
        assert not out.exists()

    def test_gso_file_of_another_size_names_both_sizes(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        big = tmp_path / "big.csv"
        save_csv(np.eye(20), big)
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--gso-file", big,
                   "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --gso-file: shift operator is 20 x 20, but the data have 5 nodes"]
        assert not out.exists()

    def test_asymmetric_gso_file_rejected(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        bad = tmp_path / "asym.csv"
        save_csv(np.array([[0.0, 1.0], [0.0, 0.0]]), bad)
        code = run("ntk", "--x", x_path, "--y", y_path, "--gso-file", bad,
                   "--out-dir", tmp_path / "out")
        assert code == 2
        assert "symmetriz" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("subcommand, flag", POSITIVE_FLAGS)
    def test_positive_flag_rejects_bad_value(
        self, tiny_data, tmp_path, capsys, subcommand, flag, value
    ):
        # an unused flag is checked too: optimize-gso --mu never reads --alpha or --eta
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run(subcommand, "--x", x_path, "--y", y_path, f"--{flag}={value}",
                   "--out-dir", out) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == flag_error(subcommand, flag, value)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("subcommand, flag", SIZE_FLAGS)
    def test_size_flag_rejects_bad_value(
        self, tiny_data, tmp_path, capsys, subcommand, flag, value
    ):
        # at parse time, with the flag's name: numpy's "negative dimensions" names none
        _, _, x_path, y_path = tiny_data
        inputs = [] if subcommand == "gen-data" else ["--x", x_path, "--y", y_path]
        out = tmp_path / "out"
        assert run(subcommand, *inputs, f"--{flag}", value, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == flag_error(subcommand, flag, value, low=1)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "0", "-2"])
    def test_solver_taps_reject_fewer_than_two(self, tmp_path, capsys, value):
        # K = 1 leaves optimize-gso no tap to solve for; it exits before reading
        # the data, so inputs that do not exist are never opened
        missing = tmp_path / "missing.csv"
        out = tmp_path / "out"
        assert run("optimize-gso", "--x", missing, "--y", missing, "--k", value,
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == flag_error("optimize-gso", "k", value, low=2)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "-3"])
    @pytest.mark.parametrize("subcommand, flag", COUNT_FLAGS)
    def test_count_flag_rejects_negative_value(
        self, tiny_data, tmp_path, capsys, subcommand, flag, value
    ):
        # at parse time, with the flag's name: the TrainConfig and
        # PairExtractionConfig checks and numpy's seed check name none
        _, _, x_path, y_path = tiny_data
        inputs = [] if subcommand == "gen-data" else ["--x", x_path, "--y", y_path]
        out = tmp_path / "out"
        assert run(subcommand, *inputs, f"--{flag}", value, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == flag_error(subcommand, flag, value, low=0)
        assert not out.exists()

    def test_align_has_no_xi_flag(self, tiny_data, tmp_path, capsys):
        # the certified checks assume no alignment level, so there is none to pass
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--xi", "0.5", "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "ntkalign: error: unrecognized arguments: --xi 0.5")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["eta", "alpha", "nu"])
    def test_align_has_no_budget_or_spectral_flags(self, tiny_data, tmp_path, capsys, flag):
        # A, its bounds and the constants depend on (S, X, Y, K) alone
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, f"--{flag}", "1", "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ntkalign: error: unrecognized arguments: --{flag} 1")
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_gen_data_non_finite_noise_exit_2(self, tmp_path, capsys, noise):
        out = tmp_path / "out"
        assert run("gen-data", "--n", 5, "--len", 50, "--noise", noise, "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == flag_error("gen-data", "noise", noise)
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, domain",
        [("strength", "0", "(0, 1)"), ("strength", "1", "(0, 1)"), ("strength", "nan", "(0, 1)"),
         ("anisotropy", "0", "(0, 1]"), ("anisotropy", "1.5", "(0, 1]"),
         ("anisotropy", "-inf", "(0, 1]")],
    )
    def test_gen_data_fraction_flag_rejects_bad_value(self, tmp_path, capsys, flag, value, domain):
        out = tmp_path / "out"
        assert run("gen-data", "--n", 5, "--len", 50, f"--{flag}={value}", "--out-dir", out) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == fraction_error("gen-data", flag, value, domain)
        assert not out.exists()

    def test_gen_data_failing_pair_extraction_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("gen-data", "--n", 5, "--len", 50, "--m-train", 200, "--dt", 1,
                   "--out-dir", out)
        assert code == 2
        assert "only 49 fit the horizon" in capsys.readouterr().err
        assert not (out / "series.csv").exists()

    def test_gen_data_without_nodes_exit_2(self, tmp_path, capsys):
        assert run("gen-data", "--n", 0, "--out-dir", tmp_path) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == flag_error("gen-data", "n", "0", low=1)

    @pytest.mark.parametrize("command", ["ntk", "align"])
    def test_row_norm_beyond_series_reach_exit_2(self, tmp_path, capsys, command):
        x = np.zeros((3, 2))
        x[0, 0] = 5.0  # stacked row 0 has norm at least 5
        x[:, 1] = [0.2, -0.1, 0.3]
        save_csv(x, tmp_path / "x.csv")
        save_csv(0.5 * x, tmp_path / "y.csv")
        extra = ["--kind", "gnn"] if command == "ntk" else []
        code = run(command, "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv", *extra,
                   "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: series residual") and err.count("\n") == 1
        assert "beyond the reach" in err

    def test_correlation_overshoot_exit_2(self, tiny_data, tmp_path, capsys, monkeypatch):
        from ntkalign.ntk import CorrelationOvershootError

        def overshoot(*args, **kwargs):
            raise CorrelationOvershootError("correlation overshoot 1.000e-06 exceeds round-off")

        monkeypatch.setattr(cli, "gnn_infinite_ntk", overshoot)
        _, _, x_path, y_path = tiny_data
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "gnn",
                   "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "error: correlation overshoot 1.000e-06 exceeds round-off\n"
        )

    def test_divergent_training_exits_with_hint(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        code = run("train", "--x", x_path, "--y", y_path, "--model", "filter",
                   "--optimizer", "gd", "--eta", "1e4", "--epochs", "50",
                   "--out-dir", tmp_path / "out")
        assert code == 2
        assert "--eta" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        pytest.param(("--optimizer", "gd", "--eta", "1e300"), id="gd"),
        pytest.param(("--optimizer", "adam", "--eta", "1e300"), id="adam"),
        # Adam's second moment g * g overflows in the first minibatch's step
        pytest.param(("--optimizer", "adam", "--kappa", "1e300", "--batch-size", 2),
                     id="adam-kappa-minibatch"),
        # a GNN's taps turn non-finite in the first step: its loss does, too
        pytest.param(("--optimizer", "gd", "--kappa", "1e300", "--eta", "1e300"),
                     id="gd-kappa-eta"),
        pytest.param(("--optimizer", "adam", "--kappa", "1e300", "--eta", "1e300"),
                     id="adam-kappa-eta"),
    ])
    @pytest.mark.parametrize("model", ["filter", "gnn2"])
    def test_diverging_run_prints_only_its_error_line(self, tiny_data, tmp_path, capsys, model,
                                                      flags):
        # the loss overflows; the divergence rule reports it, and numpy does not warn
        self.assert_diverges(capsys, "train", *tiny_data[2:], "--model", model, "--width", 3,
                             *flags, "--epochs", 3, "--out-dir", tmp_path / "out")

    def test_diverging_gnn_comparison_prints_only_its_error_line(self, tiny_data, tmp_path,
                                                                 capsys):
        self.assert_diverges(capsys, "compare", *tiny_data[2:], "--model", "gnn2", "--width", 3,
                             "--reps", 2, "--optimizer", "gd", "--kappa", "1e300",
                             "--eta", "1e300", "--epochs", 3, "--out-dir", tmp_path / "out")

    @staticmethod
    def assert_diverges(capsys, command, x_path, y_path, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # every warning a shell would show
            code = run(command, "--x", x_path, "--y", y_path, *argv)
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged at epoch 1; reduce --eta or --kappa"
        ]
        assert not (argv[-1] / "report.json").exists()

    @pytest.mark.parametrize("flag, value, code", [
        ("--kappa", "1e300", 2),  # the first loss is inf
        ("--eta", "1e300", 2),
        ("--kappa", "1e-300", 0),
        ("--eta", "5e-324", 0),  # the steps are subnormal or 0
    ])
    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_filter_float_descent_at_extreme_scales(self, tiny_data, tmp_path, capsys, optimizer,
                                                    flag, value, code):
        # a full-batch filter descends on Python floats, which raise where numpy
        # warns (** overflow, division by 0): the run still ends in the divergence
        # rule's one line or in success, as the numpy descent did
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", "--x", x_path, "--y", y_path, "--model", "filter",
                       "--optimizer", optimizer, flag, value, "--epochs", 3,
                       "--out-dir", out) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if code:
            assert err.splitlines() == ["error: training diverged at epoch 1; reduce --eta or --kappa"]
        else:
            assert err == ""
            report = json.loads((out / "report.json").read_text())
            assert math.isfinite(report["final_train_loss"])
            assert math.isfinite(report["param_movement"])

    @pytest.mark.parametrize("argv, message", [
        # ||mu C||_F^2 overflows before any product is taken
        (("optimize-gso", "--mu", "1e300"), "||mu C||_F = "),
    ], ids=["optimize-gso-mu"])
    def test_input_beyond_reach_prints_only_its_error_line(self, tiny_data, tmp_path, capsys,
                                                           argv, message):
        _, _, x_path, y_path = tiny_data
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv, "--x", x_path, "--y", y_path, "--out-dir", tmp_path / "out")
        assert code == 2
        assert [str(w.message) for w in caught] == []
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not (tmp_path / "out").exists()


class TestConfigResolution:
    def test_flags_beat_file_beats_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nlen = 120\nstrength = 0.7\n# trailing comment\n")
        out = tmp_path / "out"
        assert run("gen-data", "--config", cfg, "--n", 4, "--out-dir", out) == 0
        snap = json.loads((out / "manifest.json").read_text())["config"]
        assert snap["n"] == 4  # flag
        assert snap["len"] == 120 and snap["strength"] == 0.7  # file
        assert snap["noise"] == 1.0  # default

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run("gen-data", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_line_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nnot a pair\n")
        assert run("gen-data", "--config", cfg, "--out-dir", tmp_path) == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, error",
        [
            ('k = "two"', "argument --k: expected an integer >= 1, got 'two'"),
            ("k = 2.5", "argument --k: expected an integer >= 1, got '2.5'"),
            ('eta = "fast"', "argument --eta: invalid float value: 'fast'"),
            ("batch_size = 2.5", "argument --batch-size: expected an integer >= 0, got '2.5'"),
            ('width = "x"', "argument --width: expected an integer >= 1, got 'x'"),
            ("k = [1, 2]", "argument --k: expected an integer >= 1, got '[1, 2]'"),
        ],
        ids=["k-string", "k-float", "eta-string", "batch-size-float", "width-string", "k-list"],
    )
    def test_file_values_are_checked_like_flags(self, tiny_data, tmp_path, capsys, line, error):
        _, _, x_path, y_path = tiny_data
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = \"gnn2\"\n{line}\n")
        out = tmp_path / "out"
        assert run("train", "--config", cfg, "--x", x_path, "--y", y_path,
                   "--epochs", 2, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1] == f"ntkalign train: error: {error}"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line, flag",
        [
            (["optimize-gso", "--mu", 2.5], "normalize = false", "--no-normalize"),
            (["compare", "--model", "filter", "--epochs", 3, "--reps", 2], "raw_cxy = true",
             "--raw-cxy"),
        ],
        ids=["normalize", "raw-cxy"],
    )
    def test_file_switches_match_their_flags(self, tiny_data, tmp_path, command, line, flag):
        _, _, x_path, y_path = tiny_data
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        args = [*command, "--x", x_path, "--y", y_path]
        assert run(*args, "--config", cfg, "--out-dir", tmp_path / "file") == 0
        assert run(*args, flag, "--out-dir", tmp_path / "flag") == 0
        from_file = (tmp_path / "file" / "report.json").read_bytes()
        assert from_file == (tmp_path / "flag" / "report.json").read_bytes()

    def test_null_keeps_the_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = null\nlen = 120\nm_test = null\n")
        out = tmp_path / "out"
        assert run("gen-data", "--config", cfg, "--dt", 1, "--m-train", 30, "--out-dir", out) == 0
        snap = json.loads((out / "manifest.json").read_text())["config"]
        assert snap["n"] == 20 and snap["len"] == 120 and snap["m_test"] is None
        assert load_csv(out / "x_test.csv").shape == (20, 3)  # m_train / 10

    def test_list_value_gives_a_multi_value_flag_its_values(self, tmp_path):
        for seed in (1, 2):
            assert run("gen-data", "--n", 5, "--len", 120, "--seed", seed,
                       "--out-dir", tmp_path / f"d{seed}") == 0
        files = [str(tmp_path / f"d{seed}" / "series.csv") for seed in (1, 2)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"series = {json.dumps(files)}\n")
        common = ["--m-train", 20, "--model", "filter", "--epochs", 3, "--reps", 2]
        assert run("compare", "--config", cfg, *common, "--out-dir", tmp_path / "file") == 0
        assert run("compare", "--series", *files, *common, "--out-dir", tmp_path / "flag") == 0
        for name in ("report.json", "curves.csv"):
            from_file = (tmp_path / "file" / name).read_bytes()
            assert from_file == (tmp_path / "flag" / name).read_bytes()

    @pytest.mark.parametrize("command, key, names", [
        (["verify-bounds", "--instances", 2, "--optimality-instances", 0], "checks",
         ["filter_lower_bound", "linear_lower_bound"]),
        (["compare", "--x", "{x}", "--y", "{y}", "--model", "filter", "--epochs", 2,
          "--reps", 1], "gso", ["cxx", "cxy"]),
    ], ids=["checks", "gso"])
    def test_list_value_gives_a_comma_list_flag_its_names(
        self, tiny_data, tmp_path, command, key, names
    ):
        # as the manifest records them, so its config snapshot reads back
        _, _, x_path, y_path = tiny_data
        command = [str(a).format(x=x_path, y=y_path) for a in command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {json.dumps(names)}\n")
        assert run(*command, "--config", cfg, "--out-dir", tmp_path / "file") == 0
        assert run(*command, f"--{key}", ",".join(names), "--out-dir", tmp_path / "flag") == 0
        from_file = (tmp_path / "file" / "report.json").read_bytes()
        assert from_file == (tmp_path / "flag" / "report.json").read_bytes()
        snap = json.loads((tmp_path / "file" / "manifest.json").read_text())["config"]
        assert snap[key] == names

    def test_hash_inside_quotes_is_not_a_comment(self, tiny_data, tmp_path):
        x, y, _, _ = tiny_data
        (tmp_path / "d#1").mkdir()
        x_file, y_file = tmp_path / "d#1" / "x_train.csv", tmp_path / "d#1" / "y_train.csv"
        save_csv(x, x_file)
        save_csv(y, y_file)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'x = "{x_file}"  # inputs\ny = "{y_file}"\nk = 3  # taps\n')
        out = tmp_path / "out"
        assert run("ntk", "--config", cfg, "--out-dir", out) == 0
        snap = json.loads((out / "manifest.json").read_text())["config"]
        assert snap["x"] == str(x_file) and snap["k"] == 3


XY = ["--x", "X", "--y", "Y"]
SUBCOMMAND_RUNS = {
    "gen-data": ["gen-data", "--n", 5, "--len", 60, "--dt", 1, "--m-train", 20],
    "ntk-filter": ["ntk", *XY],
    "ntk-gnn": ["ntk", "--kind", "gnn", *XY],
    "ntk-gnn-mc": ["ntk", "--kind", "gnn-mc", "--width", 8, *XY],
    "align": ["align", "--json", *XY],
    "optimize-gso": ["optimize-gso", *XY],
    "train-filter": ["train", "--epochs", 5, *XY],
    "train-gnn2": ["train", "--model", "gnn2", "--width", 6, "--epochs", 3, *XY],
    "compare": ["compare", "--model", "filter", "--epochs", 3, "--reps", 2, *XY],
    "verify-bounds": ["verify-bounds", "--instances", 2, "--optimality-instances", 2],
    "verify-bounds-empty": ["verify-bounds", "--instances", 0, "--optimality-instances", 2],
    "verify-hermite": ["verify-hermite", "--json"],
}


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as RFC 8259 parsers do."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def resolve(report: dict, path: str):
    """The value at a dotted key path such as ``comparison.final_test.cxy.1``."""
    for key in path.split("."):
        report = report[int(key)] if isinstance(report, list) else report[key]
    return report


class TestStrictJson:
    @pytest.mark.parametrize("name", list(SUBCOMMAND_RUNS))
    def test_reports_parse_as_strict_json(self, tiny_data, tmp_path, name):
        _, _, x_path, y_path = tiny_data
        argv = [{"X": x_path, "Y": y_path}.get(a, a) for a in SUBCOMMAND_RUNS[name]]
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 0
        for artifact in ("report.json", "manifest.json"):
            strict_json((out / artifact).read_text())
        report = strict_json((out / "report.json").read_text())
        for path in report["nonfinite"]:
            assert resolve(report, path) is None, path

    def test_missing_values_are_null(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        assert run("compare", "--x", x_path, "--y", y_path, "--model", "filter",
                   "--epochs", 2, "--reps", 2, "--out-dir", tmp_path / "compare") == 0
        report = strict_json((tmp_path / "compare" / "report.json").read_text())
        assert report["comparison"]["final_test"] == {"cxy": [None, None], "cxx": [None, None]}
        assert report["nonfinite"] == [f"comparison.final_test.{arm}.{rep}"
                                       for arm in ("cxy", "cxx") for rep in (0, 1)]
        assert run("verify-bounds", "--instances", 0, "--optimality-instances", 2,
                   "--out-dir", tmp_path / "bounds") == 0
        report = strict_json((tmp_path / "bounds" / "report.json").read_text())
        assert {sweep["worst_margin"] for sweep in report["sweeps"].values()} == {None}
        assert sorted(report["nonfinite"]) == sorted(
            f"sweeps.{name}.worst_margin" for name in report["sweeps"])
        assert run("verify-bounds", "--instances", 2, "--optimality-instances", 2,
                   "--out-dir", tmp_path / "full") == 0
        assert strict_json((tmp_path / "full" / "report.json").read_text())["nonfinite"] == []

    def test_a_non_finite_value_cannot_be_written(self):
        with pytest.raises(ValueError):
            cli._dumps({"value": float("nan")})

    def test_numpy_values_become_json_types(self):
        nonfinite = []
        report = cli._finite({"n": np.int64(3), "ok": np.bool_(True), "x": np.float32(0.5),
                              "v": np.array([1.0, np.inf]), "bad": np.float64("nan")},
                             "", nonfinite)
        assert report == {"n": 3, "ok": True, "x": 0.5, "v": [1.0, None], "bad": None}
        assert [type(report[k]) for k in ("n", "ok", "x")] == [int, bool, float]
        assert nonfinite == ["v.1", "bad"]
        assert cli._dumps(report)


class TestOneArtifactWriter:
    """``_finish`` writes every artifact, and the manifest lists exactly those files."""

    @pytest.mark.parametrize("name", list(SUBCOMMAND_RUNS))
    def test_manifest_outputs_are_the_out_dir(self, tiny_data, tmp_path, name):
        _, _, x_path, y_path = tiny_data
        argv = [{"X": x_path, "Y": y_path}.get(a, a) for a in SUBCOMMAND_RUNS[name]]
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs[-1] == "report.json" and len(set(outputs)) == len(outputs)
        assert set(outputs) == {p.name for p in out.iterdir()} - {"manifest.json"}

    def test_a_run_failing_after_parsing_leaves_no_out_dir(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--optimizer", "gd", "--eta", "1e4",
                   "--epochs", 50, "--out-dir", out) == 2
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()


class TestSharedParser:
    """Calls of ``main`` in one process share one parser and nothing else."""

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\n")
        assert run("gen-data", "--len", 50, "--out-dir", tmp_path / "a") == 0
        assert len(built) == 1 + len(cli.COMMANDS)  # the root parser and one per subcommand
        assert run("gen-data", "--config", cfg, "--len", 50, "--out-dir", tmp_path / "b") == 0
        assert run("frobnicate") == 2
        assert len(built) == 1 + len(cli.COMMANDS)

    def test_config_run_leaves_the_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nnoise = 2\n")
        assert run("gen-data", "--config", cfg, "--len", 50, "--out-dir", tmp_path / "file") == 0
        assert run("gen-data", "--len", 50, "--out-dir", tmp_path / "plain") == 0
        snap = json.loads((tmp_path / "plain" / "manifest.json").read_text())["config"]
        assert (snap["n"], snap["noise"], snap["config"]) == (20, 1.0, None)

    def test_failed_run_leaves_no_settings_behind(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        args = ["optimize-gso", "--x", x_path, "--y", y_path]
        cli.build_parser.cache_clear()
        assert run(*args, "--out-dir", tmp_path / "alone") == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text('normalize = false\nk = "two"\n')
        assert run(*args, "--config", bad, "--out-dir", tmp_path / "bad") == 2
        assert run(*args, "--no-normalize", "--mu", "x", "--out-dir", tmp_path / "bad") == 2
        assert not (tmp_path / "bad").exists()
        assert run(*args, "--out-dir", tmp_path / "after") == 0
        alone = (tmp_path / "alone" / "report.json").read_bytes()
        assert (tmp_path / "after" / "report.json").read_bytes() == alone

    @pytest.mark.parametrize("name", list(SUBCOMMAND_RUNS))
    def test_second_run_matches_the_first(self, tiny_data, tmp_path, capsys, name):
        _, _, x_path, y_path = tiny_data
        argv = [{"X": x_path, "Y": y_path}.get(a, a) for a in SUBCOMMAND_RUNS[name]]
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            code = run(*argv, "--out-dir", out)
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            del manifest["timestamp"]
            runs.append((code, capsys.readouterr().out, manifest, files))
            shutil.rmtree(out)
        assert runs[0][0] == 0
        assert runs[0] == runs[1]  # exit code, stdout, manifest; report.json and CSVs byte for byte


class TestGenData:
    def test_writes_series_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run("gen-data", "--n", 6, "--len", 80, "--seed", 5, "--out-dir", out) == 0
        series = load_csv(out / "series.csv")
        assert series.shape == (6, 80)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen-data"
        assert set(manifest["outputs"]) == {"series.csv", "report.json"}
        assert manifest["seed"] == 5
        report = json.loads((out / "report.json").read_text())
        assert report["spectral_radius"] < 1.0

    def test_dt_also_writes_train_and_test_pairs(self, tmp_path):
        out = tmp_path / "out"
        assert run("gen-data", "--n", 5, "--len", 200, "--dt", 2, "--m-train", 40,
                   "--out-dir", out) == 0
        x = load_csv(out / "x_train.csv")
        y = load_csv(out / "y_train.csv")
        assert x.shape == y.shape == (5, 40)
        # default test split is a tenth of the training one
        assert load_csv(out / "x_test.csv").shape == (5, 4)
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert {"x_train.csv", "y_train.csv", "x_test.csv", "y_test.csv"} <= set(outputs)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("gen-data", "--n", 5, "--len", 150, "--dt", 1, "--seed", 9,
                "--m-train", 20, "--m-test", 5)
        assert run(*args, "--out-dir", tmp_path / "a") == 0
        assert run(*args, "--out-dir", tmp_path / "b") == 0
        for name in ("series.csv", "x_train.csv", "y_train.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_anisotropy_is_a_usage_error(self, tmp_path, capsys):
        assert run("gen-data", "--anisotropy", 0, "--out-dir", tmp_path) == 2
        assert "anisotropy" in capsys.readouterr().err


def written_factor(out, kernel, y):
    """The factor.csv of an ``ntk`` run, checked against the library ``kernel`` it factors.

    Width min(nM, r), F F' within 1e-12 of the kernel (relative Frobenius), the
    report's alignment ||F' y||^2, and no ntk.csv.
    """
    assert json.loads((out / "manifest.json").read_text())["outputs"] == [
        "factor.csv", "report.json"]
    assert not (out / "ntk.csv").exists()
    written = load_csv(out / "factor.csv")
    assert written.shape == (kernel.size, min(kernel.factor.shape))
    expected = dense(kernel)
    assert np.linalg.norm(written @ written.T - expected) <= 1e-12 * np.linalg.norm(expected)
    w = written.T @ stack(y)
    report = json.loads((out / "report.json").read_text())
    assert report["alignment"] == pytest.approx(float(w @ w), rel=1e-12)
    return written, report


class TestNtkCommand:
    def test_filter_kernel_matches_library(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--k", 2, "--out-dir", out) == 0
        written, _ = written_factor(out, filter_ntk(cross_covariance(x, y), x, 2), y)
        assert written.shape == (60, 2)

    def test_filter_kernel_is_written_as_its_spectral_factor(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "filter", "--k", 2,
                   "--out-dir", out) == 0
        kernel = filter_ntk(cross_covariance(x, y), x, 2)
        dense_theta = NtkMatrix(dense(kernel))
        written, report = written_factor(out, kernel, y)
        # U diag(sqrt(lambda)), leading pair first: orthogonal columns of norm^2 lambda
        gram = written.T @ written
        evals = np.diag(gram)
        assert np.all(np.diff(evals) <= 0.0)
        assert np.abs(gram - np.diag(evals)).max() <= 1e-12 * evals[0]
        np.testing.assert_allclose(evals, dense_theta.eigenvalues[::-1][:2], rtol=1e-10)
        assert report["rank_estimate"] == dense_theta.rank_estimate() == 2
        assert report["operator_norm"] == pytest.approx(dense_theta.operator_norm, rel=1e-10)
        assert report["alignment"] == pytest.approx(
            dense_theta.quadratic_form(stack(y)), rel=1e-10)

    def test_gnn_kernel_is_psd_and_reported(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "gnn",
                   "--out-dir", out) == 0
        assert not (out / "factor.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "ntk.csv", "report.json"]
        kernel = load_csv(out / "ntk.csv")
        np.testing.assert_allclose(kernel, kernel.T, atol=1e-10)
        eigs = np.linalg.eigvalsh(kernel)
        assert eigs.min() > -1e-8 * eigs.max()
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "gnn" and report["size"] == kernel.shape[0]
        layers = report["info"]["layers"]
        assert layers["second"]["method"] == "series"
        assert layers["first"]["method"] == "first_layer_series"
        assert layers["second"]["max_degree"] % 2 == 1
        assert layers["first"]["max_degree"] % 2 == 0
        for layer in layers.values():
            assert 0.0 <= layer["truncation_residual"] <= 1e-10

    def test_gnn_row_norm_past_the_first_rule(self, tmp_path):
        # with K = 1 the shift profile of entry (0, 0) is x[0, 0] itself
        x = np.array([[2.5, 0.2], [-0.4, 0.7], [0.1, -1.2]])
        save_csv(x, tmp_path / "x.csv")
        save_csv(0.5 * x, tmp_path / "y.csv")
        out = tmp_path / "out"
        assert run("ntk", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv", "--kind", "gnn",
                   "--k", 1, "--out-dir", out) == 0
        layers = json.loads((out / "report.json").read_text())["info"]["layers"]
        assert layers["second"]["n_points"] == 1024
        assert layers["first"]["n_points"] == 2048
        # both layers are PSD and, at K = 1, add up to the kernel
        scale = load_csv(out / "ntk.csv").diagonal().max()
        for layer in layers.values():
            assert layer["max_degree"] > 256
            assert 0.0 < layer["truncation_residual"] <= 1e-10 * scale

    def test_gnn_report_keeps_zero_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        x = 0.3 * rng.standard_normal((3, 2))
        x[:, 0] = 0.0  # sample 0 has a zero shift profile: stacked rows 0..2
        y = 0.3 * rng.standard_normal((3, 2))
        save_csv(x, tmp_path / "x.csv")
        save_csv(y, tmp_path / "y.csv")
        out = tmp_path / "out"
        assert run("ntk", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
                   "--kind", "gnn", "--out-dir", out) == 0
        layers = json.loads((out / "report.json").read_text())["info"]["layers"]
        assert layers["second"]["zero_rows"] == [0, 1, 2]
        assert layers["first"]["zero_rows"] == [0, 1, 2]

    def test_monte_carlo_kind_runs(self, tiny_data, tmp_path):
        # at the default --width 256, J is 60 x 1024: the factor is 60 wide
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "gnn-mc", "--out-dir", out) == 0
        params = init_gnn2(256, 2, InitConfig(1.0, 0))
        kernel = empirical_ntk(cross_covariance(x, y), params, x)
        assert kernel.factor.shape == (60, 1024)
        written, report = written_factor(out, kernel, y)
        assert written.shape == (60, 60)
        assert report["info"] == {"model": "gnn2", "width": 256, "num_taps": 2}
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 0

    def test_monte_carlo_kind_is_trains_initial_kernel(self, tiny_data, tmp_path):
        # gnn-mc is J0 J0' at the parameters train --model gnn2 starts from
        x, y, x_path, y_path = tiny_data
        data = ["--x", x_path, "--y", y_path, "--width", 8, "--seed", 3]
        assert run("train", *data, "--model", "gnn2", "--epochs", 0,
                   "--out-dir", tmp_path / "train") == 0
        assert run("ntk", *data, "--kind", "gnn-mc", "--out-dir", tmp_path / "ntk") == 0
        header, flat = (tmp_path / "train" / "params.txt").read_text().splitlines()
        assert json.loads(header)["width"] == 8
        like = init_gnn2(8, 2, InitConfig(1.0, 0))  # a shape template only
        params0 = unflatten_params(np.array(flat.split(","), dtype=float), like)
        jac = gnn2_jacobian(cross_covariance(x, y), params0, x)
        written, _ = written_factor(tmp_path / "ntk", NtkMatrix(jac, factored=True), y)
        assert written.shape == (60, 32)  # J is 60 x 2KF = 60 x 32

    def test_monte_carlo_kind_validates_one_kernel(self, tiny_data, tmp_path, monkeypatch):
        x, _, x_path, y_path = tiny_data
        calls = {"kernel": 0}
        big_eigs = []
        init = NtkMatrix.__init__

        def counted_init(self, *args, **kwargs):
            calls["kernel"] += 1
            init(self, *args, **kwargs)

        def counted(original):
            def eig(a, *args, **kwargs):
                if np.shape(a)[-1] >= x.size:
                    big_eigs.append(np.shape(a)[-1])
                return original(a, *args, **kwargs)

            return eig

        monkeypatch.setattr(NtkMatrix, "__init__", counted_init)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "gnn-mc",
                   "--width", 8, "--out-dir", tmp_path / "out") == 0
        assert calls == {"kernel": 1}
        assert big_eigs == []  # the kernel is factored: its spectrum is a thin SVD


class TestAlignCommand:
    def test_report_has_functionals_and_checks(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--k", 2, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        block = report["alignment"]
        # rho is the floor of both layers, so there is no rho_first_layer
        assert set(block) == {
            "a", "a_filt", "a_first_layer", "a_lin", "a_lin_lower", "a_lower", "c_data",
            "c_data_first_layer", "constraint_lhs", "xi_observed", "rho", "beta", "beta_first_layer",
        }
        assert block["a_filt"] >= block["a_lower"] - 1e-9
        checks = report["conditional_checks"]
        assert set(checks) == {"gnn_alignment_lower_bound",
                               "first_layer_alignment_lower_bound"}
        factors = {"gnn_alignment_lower_bound": block["c_data"],
                   "first_layer_alignment_lower_bound": block["c_data_first_layer"]}
        for name, entry in checks.items():
            assert set(entry) == {"verdict", "passed", "vacuous", "margin", "details"}
            assert entry["details"] == {"c_data": factors[name]}
            # the bound holds on every instance; it says something where c_data > 0
            assert entry["verdict"] == ("passed" if factors[name] > 0 else "vacuous")
        assert not any(key.startswith(("gain_", "penalty_", "xi_threshold")) for key in block)
        assert report["summary"].startswith(f"A = {block['a']:.6g}, c_data = ")
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert not {"eta", "alpha", "nu"} & set(config)  # A depends on (S, X, Y, K) alone

    def test_report_gives_the_first_layer_alignment(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        block = report["alignment"]
        expected = alignment.alignment_report(cross_covariance(x, y), core.Dataset(x, y), 2)
        assert block["a_first_layer"] == expected.a_first_layer
        margin = report["conditional_checks"]["first_layer_alignment_lower_bound"]["margin"]
        assert margin == block["a_first_layer"] - block["c_data_first_layer"] * block["a_lin"]

    def test_readme_data_certifies_both_layers(self, tmp_path):
        data = tmp_path / "data"
        assert run("gen-data", "--n", 20, "--len", 1000, "--dt", 1, "--m-train", 100,
                   "--anisotropy", 0.6, "--seed", 1, "--out-dir", data) == 0
        out = tmp_path / "out"
        assert run("align", "--x", data / "x_train.csv", "--y", data / "y_train.csv",
                   "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["alignment"]["c_data"] == pytest.approx(0.8805, abs=1e-4)
        assert report["alignment"]["c_data_first_layer"] == pytest.approx(0.8627, abs=1e-4)
        for entry in report["conditional_checks"].values():
            assert entry["verdict"] == "passed" and entry["passed"]

    def test_each_kernel_builder_runs_once(self, tiny_data, tmp_path, monkeypatch):
        calls = {}

        def counted(name):
            original = getattr(alignment, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(alignment, name, wrapper)

        for name in ("expectation_series",
                     "expectation_E_quadrature", "expectation_E_first_layer",
                     "z_vectors", "expansion_constants"):
            counted(name)
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--out-dir", out) == 0
        assert calls == {
            "expectation_series": 2,  # once per layer
            "z_vectors": 2,  # the inputs' and the targets' shift profiles
            "expansion_constants": 1,
        }
        layers = json.loads((out / "report.json").read_text())["info"]["layers"]
        assert layers["second"]["method"] == "series"
        assert layers["first"]["method"] == "first_layer_series"

    def test_json_flag_prints_the_report(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        assert run("align", "--x", x_path, "--y", y_path, "--json",
                   "--out-dir", tmp_path / "out") == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["schema_version"] == cli.SCHEMA_VERSION
        assert printed["subcommand"] == "align"


class TestOptimizeGso:
    @pytest.mark.parametrize(
        "flags, name",
        [(["--mu"], "mu"), (["--eta", "1", "--alpha"], "alpha"), (["--alpha", "1", "--eta"], "eta")],
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_rejects_non_positive_or_non_finite(
        self, tiny_data, tmp_path, capsys, flags, name, value
    ):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("optimize-gso", "--x", x_path, "--y", y_path, *flags, value,
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == flag_error("optimize-gso", name, value)
        assert not out.exists()

    def test_writes_symmetric_solution_with_small_residual(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("optimize-gso", "--x", x_path, "--y", y_path, "--k", 2,
                   "--alpha", 1.0, "--eta", 0.5, "--out-dir", out) == 0
        gso = load_csv(out / "gso.csv")
        np.testing.assert_allclose(gso, gso.T, atol=1e-12)
        report = json.loads((out / "report.json").read_text())
        assert report["residual"] < 1e-8
        assert math.isclose(report["mu"], math.sqrt(1.0 / (0.5 * 12)), rel_tol=1e-12)

    def test_direction_mode_normalizes_by_default(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("optimize-gso", "--x", x_path, "--y", y_path, "--k", 2,
                   "--out-dir", out) == 0
        assert math.isclose(np.linalg.norm(load_csv(out / "gso.csv")), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("flags, message", [
        ({"mu": 0.5, "alpha": 1, "eta": 0.1},
         "ntkalign optimize-gso: error: argument --alpha: not allowed with argument --mu"),
        ({"mu": 0.5, "eta": 0.1},
         "error: --alpha and --eta set the budget together: pass both or neither"),
        ({"alpha": 1},
         "error: --alpha and --eta set the budget together: pass both or neither"),
        ({"c": "c.csv", "alpha": 1, "eta": 0.1},
         "error: budget mode needs --x/--y for the sample count; use --mu with --c"),
    ], ids=["mu-and-alpha", "eta-without-alpha", "alpha-without-eta", "budget-with-c"])
    def test_budget_flags_are_refused_before_any_data_is_read(
        self, tmp_path, capsys, source, flags, message
    ):
        # the inputs do not exist, so a refusal after reading would name them instead
        missing = tmp_path / "missing.csv"
        settings = {"x": missing, "y": missing, **flags}
        if source == "flags":
            argv = [a for key, value in settings.items() for a in (f"--{key}", value)]
        else:
            cfg = tmp_path / "gso.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
            argv = ["--config", cfg]
        out = tmp_path / "out"
        assert run("optimize-gso", *argv, "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not out.exists()

    def test_explicit_matrix_input(self, tmp_path):
        c = np.array([[2.0, 0.3], [0.3, 1.5]])
        c_path = tmp_path / "c.csv"
        save_csv(c, c_path)
        out = tmp_path / "out"
        assert run("optimize-gso", "--c", c_path, "--k", 2, "--mu", 1.0,
                   "--out-dir", out) == 0
        np.testing.assert_allclose(load_csv(out / "gso.csv"), c - np.eye(2), atol=1e-12)

    def test_asymmetric_matrix_input_names_the_flag(self, tmp_path, capsys):
        c_path = tmp_path / "c.csv"
        save_csv(np.array([[2.0, 0.3], [0.0, 1.5]]), c_path)
        out = tmp_path / "out"
        assert run("optimize-gso", "--c", c_path, "--mu", 1.0, "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --c: shift operator not symmetric: max |S - S^T| = 3.000e-01; "
            "symmetrize the matrix first"]
        assert not out.exists()

    def test_non_square_matrix_input_names_the_fault(self, tmp_path, capsys):
        c_path = tmp_path / "c.csv"
        save_csv(np.ones((20, 100)), c_path)
        out = tmp_path / "out"
        assert run("optimize-gso", "--c", c_path, "--mu", 1.0, "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --c: shift operator must be square, got (20, 100)"]
        assert not out.exists()

    def test_normalize_rescales_the_plain_solution(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        reports = {}
        for mode in ("--no-normalize", "--normalize"):
            out = tmp_path / mode
            assert run("optimize-gso", "--x", x_path, "--y", y_path, "--mu", 1.7, mode,
                       "--out-dir", out) == 0
            reports[mode] = json.loads((out / "report.json").read_text())
        plain, unit = (load_csv(tmp_path / mode / "gso.csv") for mode in reports)
        assert reports["--no-normalize"]["scale"] == 1.0
        assert reports["--normalize"]["scale"] == 1.0 / np.linalg.norm(plain)
        assert math.isclose(reports["--normalize"]["frobenius_norm"], 1.0, rel_tol=1e-15)
        assert np.abs(unit - plain / np.linalg.norm(plain)).max() <= 1e-15
        # the residual is checked before rescaling, so both report the same value
        assert reports["--normalize"]["residual"] == reports["--no-normalize"]["residual"]


class TestTrainCommand:
    def test_trace_has_one_row_per_epoch(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--model", "filter",
                   "--epochs", 8, "--out-dir", out) == 0
        trace = load_csv(out / "trace.csv")
        assert trace.shape == (9, 4)
        assert trace[0, 3] == 0.0  # no movement at initialization
        assert trace[-1, 1] < trace[0, 1]  # training made progress
        assert (out / "params.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["predicted_param_movement"] > 0

    def test_filter_model_stays_factored(self, tiny_data, tmp_path, monkeypatch):
        x, y, x_path, y_path = tiny_data
        stacked_size = x.size
        big_eigs = []

        def counted(original):
            def eig(a, *args, **kwargs):
                if np.shape(a)[-1] >= stacked_size:
                    big_eigs.append(np.shape(a)[-1])
                return original(a, *args, **kwargs)

            return eig

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--model", "filter", "--k", 2,
                   "--epochs", 8, "--out-dir", out) == 0
        assert big_eigs == []
        monkeypatch.undo()
        s = cross_covariance(x, y)
        dense_theta = NtkMatrix(dense(filter_ntk(s, x, 2)))
        oracle = predicted_param_movement(dense_theta, stack(y))
        report = json.loads((out / "report.json").read_text())
        assert report["predicted_param_movement"] == pytest.approx(oracle, rel=1e-10)

    def test_filter_report_carries_kernel_rank_and_step_size(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--model", "filter", "--k", 3,
                   "--epochs", 4, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        theta = filter_ntk(cross_covariance(x, y), x, 3)
        dynamics = linearized_dynamics(theta, stack(y), np.zeros(x.size), report["eta"], 4)
        assert report["eta_lambda_max"] == pytest.approx(dynamics.eta_lambda_max, rel=1e-12)
        assert report["kernel_rank"] == theta.rank_estimate() == 3

    def test_gnn_model_with_test_split(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        test_x, test_y = tmp_path / "tx.csv", tmp_path / "ty.csv"
        save_csv(x[:, :4], test_x)
        save_csv(y[:, :4], test_y)
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--x-test", test_x,
                   "--y-test", test_y, "--model", "gnn2", "--width", 8,
                   "--epochs", 5, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_test_loss"] is not None
        assert report["eta"] == 0.0125  # protocol default for the GNN

    def test_test_flags_must_come_in_pairs(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        assert run("train", "--x", x_path, "--y", y_path, "--x-test", x_path,
                   "--out-dir", tmp_path) == 2
        assert "--y-test" in capsys.readouterr().err


class TestCompareCommand:
    def test_series_extraction_runs_both_arms(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("gen-data", "--n", 5, "--len", 300, "--seed", 2, "--out-dir", gen) == 0
        out = tmp_path / "out"
        assert run("compare", "--series", gen / "series.csv", "--dt", 1,
                   "--m-train", 25, "--m-test", 6, "--model", "filter",
                   "--epochs", 4, "--reps", 2, "--out-dir", out) == 0
        curves = load_csv(out / "curves.csv")
        assert curves.shape == (5, 5)  # epoch + (train, test) x (cxy, cxx)
        report = json.loads((out / "report.json").read_text())
        assert report["wins"]["out_of"] == 2
        assert set(report["comparison"]["names"]) == {"cxy", "cxx"}

    @pytest.mark.parametrize("model", ["filter", "gnn2"])
    def test_several_series_pool_single_series_runs(self, tmp_path, model):
        # draw i of --series runs exactly as that file alone at --seed + i
        series = []
        for seed in (0, 1):
            gen = tmp_path / f"gen{seed}"
            assert run("gen-data", "--n", 4, "--len", 80, "--seed", seed, "--out-dir", gen) == 0
            series.append(gen / "series.csv")
        argv = ["--m-train", 10, "--m-test", 3, "--model", model, "--width", 3,
                "--epochs", 3, "--reps", 2]

        def compare(out, *paths, seed=5):
            assert run("compare", "--series", *paths, *argv, "--seed", seed,
                       "--out-dir", tmp_path / out) == 0
            return json.loads((tmp_path / out / "report.json").read_text())

        pooled = compare("pooled", *series)
        alone = [compare("first", series[0]), compare("second", series[1], seed=6)]
        for split in ("final_train", "final_test"):
            for name in ("cxy", "cxx"):
                runs = [value for report in alone for value in report["comparison"][split][name]]
                assert pooled["comparison"][split][name] == runs
        assert pooled["wins"]["out_of"] == pooled["comparison"]["num_reps"] == 4
        assert pooled["wins"]["cxy_over_cxx"] == sum(r["wins"]["cxy_over_cxx"] for r in alone)
        assert [(d["series"], d["seed"]) for d in pooled["draws"]] == [
            (str(series[0]), 5), (str(series[1]), 6)]
        for draw, report in zip(pooled["draws"], alone):
            assert (draw["wins"], draw["final_gap"]) == (report["wins"], report["final_gap"])
            assert report["draws"] == [draw]

    @pytest.mark.parametrize("flag", ["--x", "--y", "--x-test", "--y-test"])
    def test_series_with_xy_is_a_usage_error(self, tiny_data, tmp_path, capsys, flag):
        _, _, x_path, _ = tiny_data
        out = tmp_path / "out"
        assert run("compare", "--series", x_path, flag, x_path, "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --series cannot be combined with {flag}; pass one or the other"]
        assert not out.exists()

    def test_raw_cxy_renames_the_arm(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("compare", "--x", x_path, "--y", y_path, "--gso", "cxy",
                   "--raw-cxy", "--model", "filter", "--epochs", 3, "--reps", 2,
                   "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["comparison"]["names"] == ["cxy_raw"]

    def test_raw_cxy_gnn2_matches_jacobian_reference(self, tiny_data, tmp_path):
        # the raw arm is an AsymmetricShift, whose gradient needs powers of S'
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        eta, epochs, width = 0.05, 4, 6
        assert run("compare", "--x", x_path, "--y", y_path, "--x-test", x_path,
                   "--y-test", y_path, "--gso", "cxy,cxx", "--raw-cxy", "--model", "gnn2",
                   "--width", width, "--k", 2, "--optimizer", "gd", "--eta", eta,
                   "--kappa", 1.0, "--epochs", epochs, "--reps", 2, "--seed", 0,
                   "--out-dir", out) == 0
        comparison = json.loads((out / "report.json").read_text())["comparison"]
        x, y = load_csv(x_path), load_csv(y_path)
        arms = {
            "cxy_raw": cross_covariance(x, y, symmetrize=False),
            "cxx": covariance(x),
        }
        assert isinstance(arms["cxy_raw"], AsymmetricShift)

        def half_loss(s, params):
            r = gnn2_forward(s, params, x) - y
            return 0.5 * float(np.sum(r * r))

        for name, s in arms.items():
            for rep in range(2):
                params = init_gnn2(width, 2, InitConfig(kappa=1.0, seed=rep))
                for _ in range(epochs):
                    resid = stack(gnn2_forward(s, params, x) - y)
                    flat = flatten_params(params) - eta * (gnn2_jacobian(s, params, x).T @ resid)
                    params = unflatten_params(flat, params)
                expected = half_loss(s, params)
                for split in ("final_train", "final_test"):
                    assert comparison[split][name][rep] == pytest.approx(expected, rel=1e-10)

    def test_unknown_arm_is_a_usage_error(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        assert run("compare", "--x", x_path, "--y", y_path, "--gso", "cxy,laplacian",
                   "--out-dir", tmp_path) == 2
        assert "laplacian" in capsys.readouterr().err

    @pytest.mark.parametrize("arms, error", [
        ("cxy,laplacian", "unknown arm 'laplacian'; choose from cxy, cxx"),
        ("cxy,cxy", "arm 'cxy' is named twice"),
        (" , ", "expected at least one arm, got ' , '"),
    ], ids=["unknown", "repeated", "empty"])
    def test_bad_arm_list_exits_before_reading_data(self, tmp_path, capsys, arms, error):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "out"
        assert run("compare", "--x", missing, "--y", missing, f"--gso={arms}",
                   "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ntkalign compare: error: argument --gso: {error}")
        assert not out.exists()

    def test_zero_width_is_a_usage_error(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        assert run("compare", "--x", x_path, "--y", y_path, "--model", "gnn2",
                   "--width", 0, "--epochs", 2, "--reps", 1, "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == flag_error("compare", "width", "0", low=1)
        assert "diverged" not in err

    def test_zero_reps_is_a_usage_error(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("compare", "--x", x_path, "--y", y_path, "--model", "filter",
                   "--epochs", 2, "--reps", 0, "--out-dir", out) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == flag_error("compare", "reps", "0", low=1)
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_zero_filter_taps_is_a_usage_error(self, tiny_data, tmp_path, capsys, command):
        _, _, x_path, y_path = tiny_data
        assert run(command, "--x", x_path, "--y", y_path, "--model", "filter", "--k", 0,
                   "--epochs", 2, "--out-dir", tmp_path / "out") == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == flag_error(command, "k", "0", low=1)


class TestOneTapStack:
    """Each data split's tap stack [S^k x]_k is built once per (S, split, K).

    The count is of ``core.krylov_sequence`` calls on a split's
    signals, which every ``powers_applied`` goes through.  The GNN
    pullback's powers of the residual go through ``models``' own binding
    and are not counted; nor are the powers of S alone (on the identity).
    """

    @pytest.fixture
    def splits(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        x_test, y_test = x[:, :4], y[:, :4]
        save_csv(x_test, tmp_path / "x_test.csv")
        save_csv(y_test, tmp_path / "y_test.csv")
        paths = ["--x", x_path, "--y", y_path]
        test_paths = ["--x-test", tmp_path / "x_test.csv", "--y-test", tmp_path / "y_test.csv"]
        arrays = {"x": x, "y": y, "x_test": x_test, "y_test": y_test}
        return arrays, paths, test_paths

    @staticmethod
    def stacks_built(monkeypatch, arrays, *argv):
        """Run the command; count stacks by (split, S, K), each split matched by value."""
        built = {}
        powers_applied = core.krylov_sequence

        def counted(matrix, signals, num_taps):
            for name, a in arrays.items():
                if np.shape(signals) == a.shape and np.array_equal(signals, a):
                    key = (name, matrix.tobytes(), num_taps)
                    built[key] = built.get(key, 0) + 1
            return powers_applied(matrix, signals, num_taps)

        monkeypatch.setattr(core, "krylov_sequence", counted)
        assert run(*argv) == 0
        monkeypatch.undo()
        return sorted((name, count) for (name, _, _), count in built.items())

    @pytest.mark.parametrize("kind", ["filter", "gnn"])
    def test_ntk(self, splits, tmp_path, monkeypatch, kind):
        arrays, paths, _ = splits
        built = self.stacks_built(monkeypatch, arrays, "ntk", *paths, "--kind", kind,
                                  "--out-dir", tmp_path / "out")
        assert built == [("x", 1)]

    def test_align(self, splits, tmp_path, monkeypatch):
        arrays, paths, _ = splits
        built = self.stacks_built(monkeypatch, arrays, "align", *paths, "--out-dir", tmp_path / "o")
        assert built == [("x", 1), ("y", 1)]

    @pytest.mark.parametrize("batch_size", [0, 5], ids=["full-batch", "minibatch"])
    @pytest.mark.parametrize("model", ["filter", "gnn2"])
    def test_train(self, splits, tmp_path, monkeypatch, model, batch_size):
        arrays, paths, test_paths = splits
        built = self.stacks_built(monkeypatch, arrays, "train", *paths, *test_paths,
                                  "--model", model, "--width", 4, "--epochs", 3,
                                  "--batch-size", batch_size, "--out-dir", tmp_path / "out")
        assert built == [("x", 1), ("x_test", 1)]

    @pytest.mark.parametrize("argv", [["ntk", "--kind", "gnn"], ["align"]], ids=["ntk", "align"])
    def test_one_gram_matrix_per_run(self, splits, tmp_path, monkeypatch, argv):
        # the correlations form Z Z' once; E1 reuses them rather than a second Z Z'
        _, paths, _ = splits
        formed = []
        gram = TapStack.gram
        monkeypatch.setattr(TapStack, "gram", lambda z: formed.append(z) or gram(z))
        assert run(*argv, *paths, "--out-dir", tmp_path / "out") == 0
        assert len(formed) == 1

    @pytest.mark.parametrize("model", ["filter", "gnn2"])
    def test_compare(self, splits, tmp_path, monkeypatch, model):
        arrays, paths, test_paths = splits
        built = self.stacks_built(monkeypatch, arrays, "compare", *paths, *test_paths,
                                  "--model", model, "--width", 4, "--epochs", 3, "--reps", 3,
                                  "--out-dir", tmp_path / "out")
        # once per arm (cxy, cxx), for all three repetitions
        assert built == [("x", 1), ("x", 1), ("x_test", 1), ("x_test", 1)]


class TestVerifyCommands:
    def test_verify_hermite_reports_beta(self, tmp_path, capsys):
        assert run("verify-hermite", "--json", "--out-dir", tmp_path / "out") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["beta"]["value"] - (math.pi - 2) / 2) < 1e-3
        assert report["violations"] == 0
        excess = report["bessel_excess"]
        assert excess["n_points"] == 512 and excess["passed"]
        assert 0.0 <= excess["value"] <= excess["bound"] == 1e-12

    def test_verify_hermite_carries_the_cli_schema_version(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SCHEMA_VERSION", 99)
        out = tmp_path / "out"
        assert run("verify-hermite", "--out-dir", out) == 0
        for name in ("report.json", "manifest.json"):
            assert json.loads((out / name).read_text())["schema_version"] == 99

    def test_verify_bounds_small_sweep_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run("verify-bounds", "--instances", 8, "--optimality-instances", 10,
                   "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["sweeps"]) == {
            "filter_lower_bound",
            "linear_lower_bound",
            "budget_implies_kernel_bound",
            "first_term_lower_bound",
            "series_tail_domination",
        }
        assert report["passed"] is True
        assert report["optimality"]["passed"] is True

    @pytest.mark.parametrize("flag", ["alpha", "eta"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_verify_bounds_rejects_a_bad_budget(self, tmp_path, capsys, flag, value):
        # the optimality sweep's verdict is the same at every budget, so
        # verify-bounds takes no budget at all, on the command line or in a config
        out = tmp_path / "out"
        assert run("verify-bounds", "--instances", 2, "--optimality-instances", 2,
                   f"--{flag}", value, "--out-dir", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ntkalign: error: unrecognized arguments: --{flag} {value}")
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        assert run("verify-bounds", "--config", cfg, "--out-dir", out) == 2
        assert f"unknown key '{flag}'" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_hermite_has_one_quadrature_rule(self, tmp_path, capsys):
        assert run("verify-hermite", "--n-points", 64, "--out-dir", tmp_path) == 2
        cfg = tmp_path / "hermite.cfg"
        cfg.write_text("n_points = 64\n")
        assert run("verify-hermite", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "unknown key 'n_points'" in capsys.readouterr().err

    def test_verify_bounds_has_no_taps_flag(self, tmp_path, capsys):
        # the optimality sweep runs at K = 2; --optimality-instances 0 turns it off
        assert run("verify-bounds", "--k", 3, "--out-dir", tmp_path / "out") == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    def test_verify_bounds_unknown_check_is_a_usage_error(self, tmp_path, capsys):
        assert run("verify-bounds", "--instances", 2, "--checks", "nonsense",
                   "--out-dir", tmp_path) == 2
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--checks", "first_term_lower_bound,series_tail_domination,nonsense"],
             "argument --checks: unknown check 'nonsense'"),
            (["--instances", "-1"], "argument --instances: expected an integer >= 0, got '-1'"),
            (["--optimality-instances", "-1"],
             "argument --optimality-instances: expected an integer >= 0, got '-1'"),
            (["--instances", "two"], "argument --instances: expected an integer >= 0, got 'two'"),
            (["--checks=", "--optimality-instances", "0"],
             "argument --checks: expected at least one sweep name, got ''"),
            (["--checks", "filter_lower_bound,filter_lower_bound"],
             "argument --checks: check 'filter_lower_bound' is named twice"),
        ],
        ids=["unknown-after-known", "instances", "optimality-instances", "not-int", "no-checks",
             "repeated"],
    )
    def test_verify_bounds_rejects_bad_input_before_any_sweep(
        self, tmp_path, capsys, monkeypatch, args, error
    ):
        calls = []
        monkeypatch.setattr(alignment, "_run_check", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "optimality_sweep", lambda **kw: calls.append(kw))
        out = tmp_path / "out"
        assert run("verify-bounds", *args, "--out-dir", out) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith(f"ntkalign verify-bounds: error: {error}")
        assert calls == []
        assert not out.exists()


class TestReadme:
    """The README's command lines must parse with the current parser."""

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def blocks(self, lang):
        return re.findall(rf"^```{lang}\n(.*?)^```", self.text, flags=re.M | re.S)

    def test_every_command_line_parses(self):
        parser = cli.build_parser()
        commands = []
        for block in self.blocks("sh"):
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line)
                if words[:1] == ["ntkalign"]:
                    commands.append(words[1:])
        assert len(commands) >= 4
        for words in commands:
            ns = parser.parse_args(words)
            assert ns.subcommand == words[0]

    def test_python_quickstart_runs(self, monkeypatch, capsys):
        import ntkalign

        (block,) = self.blocks("python")
        full = ntkalign.compare_gso
        monkeypatch.setattr(
            ntkalign, "compare_gso", lambda *args, **kwargs: full(*args, **{**kwargs, "reps": 1})
        )
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.endswith(" of 1\n")

    def test_config_example_runs(self, tmp_path):
        (example,) = [b for b in self.blocks("ini") if b.startswith("# gen.cfg")]
        (tmp_path / "gen.cfg").write_text(example)
        out = tmp_path / "data"
        assert run("gen-data", "--config", tmp_path / "gen.cfg", "--seed", 3, "--out-dir", out) == 0
        snap = json.loads((out / "manifest.json").read_text())["config"]
        assert (snap["n"], snap["len"], snap["dt"], snap["m_train"]) == (20, 1000, 1, 200)
        assert snap["anisotropy"] == 0.6 and snap["seed"] == 3
        assert load_csv(out / "x_train.csv").shape == (20, 200)
