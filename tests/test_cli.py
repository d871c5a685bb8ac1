import argparse
import json
import math
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from ntkalign import alignment, cli
from ntkalign.cli import main
from ntkalign.core import NtkKind, NtkMatrix, stack
from ntkalign.dataio import load_csv, save_csv
from ntkalign.models import (
    InitConfig,
    flatten_params,
    gnn2_forward,
    gnn2_jacobian,
    init_gnn2,
    unflatten_params,
)
from ntkalign.ntk import b_lin, filter_ntk
from ntkalign.shiftops import AsymmetricShift, covariance, cross_covariance
from ntkalign.training import linearized_dynamics, predicted_param_movement


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_asymmetric_gso_file_rejected(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        bad = tmp_path / "asym.csv"
        save_csv(np.array([[0.0, 1.0], [0.0, 0.0]]), bad)
        code = run("ntk", "--x", x_path, "--y", y_path, "--gso-file", bad,
                   "--out-dir", tmp_path / "out")
        assert code == 2
        assert "symmetriz" in capsys.readouterr().err

    def test_constants_beyond_series_reach_exit_2(self, tiny_data, tmp_path, capsys):
        # --nu 3 at K = 3 puts the first-layer constant at squared norm 91
        _, _, x_path, y_path = tiny_data
        code = run("align", "--x", x_path, "--y", y_path, "--k", 3, "--nu", 3,
                   "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "degree 1024" in err and "2048-point rule" in err

    def test_constants_within_series_reach_resolve(self, tiny_data, tmp_path):
        # K = 2 with --nu 3 puts the first-layer constant at squared norm 10,
        # which needs more degrees than the 512-point rule certifies
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--k", 2, "--nu", 3,
                   "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        beta_first = report["alignment"]["beta_first_layer"]
        assert beta_first == pytest.approx(1.8101377588354324, rel=1e-12)

    @pytest.mark.parametrize("nu", ["nan", "inf"])
    def test_non_finite_spectral_bound_exit_2(self, tiny_data, tmp_path, capsys, nu):
        _, _, x_path, y_path = tiny_data
        code = run("align", "--x", x_path, "--y", y_path, "--nu", nu,
                   "--out-dir", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: spectral_bound must be positive and finite\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("xi", "nan"), ("xi", "inf"), ("xi", "-0.5"), ("alpha", "nan"), ("eta", "inf")],
    )
    def test_align_rejects_non_positive_or_non_finite(
        self, tiny_data, tmp_path, capsys, flag, value
    ):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        code = run("align", "--x", x_path, "--y", y_path, f"--{flag}", value, "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must be positive and finite, got {float(value)}\n"
        )
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flag, value", [("eta", "inf"), ("alpha", "nan"), ("xi", "-1")])
    def test_align_rejects_budget_before_building_a_kernel(
        self, tiny_data, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_kernels(*args, **kwargs):
            raise AssertionError("the kernels were built before the flags were checked")

        monkeypatch.setattr(cli, "gnn_alignment_terms", no_kernels)
        _, _, x_path, y_path = tiny_data
        code = run("align", "--x", x_path, "--y", y_path, f"--{flag}", value,
                   "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be positive and finite, got {float(value)}\n"

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_gen_data_non_finite_noise_exit_2(self, tmp_path, capsys, noise):
        out = tmp_path / "out"
        assert run("gen-data", "--n", 5, "--len", 50, "--noise", noise, "--out-dir", out) == 2
        assert capsys.readouterr().err == "error: noise_scale must be positive and finite\n"
        assert not (out / "series.csv").exists()

    def test_gen_data_without_nodes_exit_2(self, tmp_path, capsys):
        assert run("gen-data", "--n", 0, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err == "error: num_nodes must be >= 1\n"

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
            ('k = "two"', "argument --k: invalid int value: 'two'"),
            ("k = 2.5", "argument --k: invalid int value: '2.5'"),
            ('eta = "fast"', "argument --eta: invalid float value: 'fast'"),
            ("batch_size = 2.5", "argument --batch-size: invalid int value: '2.5'"),
            ('width = "x"', "argument --width: invalid int value: 'x'"),
        ],
        ids=["k-string", "k-float", "eta-string", "batch-size-float", "width-string"],
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
    "verify-hermite": ["verify-hermite", "--json"],
}


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


class TestNtkCommand:
    def test_filter_kernel_matches_library(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--k", 2, "--out-dir", out) == 0
        written = load_csv(out / "ntk.csv")
        s = cross_covariance(x, y).as_shift_operator()
        expected = filter_ntk(s, x, 2).matrix
        np.testing.assert_allclose(written, expected, rtol=1e-12)

    def test_filter_kernel_is_written_dense(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "filter", "--k", 2,
                   "--out-dir", out) == 0
        blin = b_lin(cross_covariance(x, y).as_shift_operator(), x, 2)
        assert np.array_equal(load_csv(out / "ntk.csv"), blin)
        dense = NtkMatrix(blin, NtkKind.FILTER_ANALYTIC)
        report = json.loads((out / "report.json").read_text())
        assert report["rank_estimate"] == dense.rank_estimate() == 2
        assert report["operator_norm"] == pytest.approx(dense.operator_norm, rel=1e-10)
        assert report["alignment"] == pytest.approx(dense.quadratic_form(stack(y)), rel=1e-10)

    def test_gnn_kernel_is_psd_and_reported(self, tiny_data, tmp_path):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "gnn",
                   "--out-dir", out) == 0
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
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("ntk", "--x", x_path, "--y", y_path, "--kind", "gnn-mc",
                   "--width", 32, "--out-dir", out) == 0
        assert load_csv(out / "ntk.csv").shape == (60, 60)
        layers = json.loads((out / "report.json").read_text())["info"]["layers"]
        assert layers["second"]["num_features"] == layers["first"]["num_features"] == 32
        assert (layers["second"]["seed"], layers["first"]["seed"]) == (0, 1)

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
        for key in ("a", "a_filt", "a_lin", "a_lower", "xi_observed", "beta", "budget"):
            assert key in block
        assert block["a_filt"] >= block["a_lower"] - 1e-9
        checks = report["conditional_checks"]
        assert set(checks) == {"gnn_alignment_lower_bound",
                               "first_layer_alignment_lower_bound"}
        for entry in checks.values():
            assert entry["passed"] or entry["skipped"]

    def test_each_kernel_builder_runs_once(self, tiny_data, tmp_path, monkeypatch):
        calls = {}

        def counted(name):
            original = getattr(alignment, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(alignment, name, wrapper)

        for name in ("expectation_E_series", "expectation_E_first_layer_series",
                     "expectation_E_quadrature", "expectation_E_first_layer",
                     "z_vectors", "expansion_constants"):
            counted(name)
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("align", "--x", x_path, "--y", y_path, "--out-dir", out) == 0
        assert calls == {
            "expectation_E_series": 1,
            "expectation_E_first_layer_series": 1,
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
        assert printed["schema_version"] == 1
        assert printed["subcommand"] == "align"


class TestOptimizeGso:
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

    def test_budget_mode_requires_eta(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        assert run("optimize-gso", "--x", x_path, "--y", y_path, "--alpha", 1.0,
                   "--out-dir", tmp_path) == 2
        assert "--eta" in capsys.readouterr().err

    def test_explicit_matrix_input(self, tmp_path):
        c = np.array([[2.0, 0.3], [0.3, 1.5]])
        c_path = tmp_path / "c.csv"
        save_csv(c, c_path)
        out = tmp_path / "out"
        assert run("optimize-gso", "--c", c_path, "--k", 2, "--mu", 1.0,
                   "--out-dir", out) == 0
        np.testing.assert_allclose(load_csv(out / "gso.csv"), c - np.eye(2), atol=1e-12)


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
        big_eigs, dense_reads = [], []

        def counted(original):
            def eig(a, *args, **kwargs):
                if np.shape(a)[-1] >= stacked_size:
                    big_eigs.append(np.shape(a)[-1])
                return original(a, *args, **kwargs)

            return eig

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        dense = NtkMatrix.matrix
        monkeypatch.setattr(
            NtkMatrix, "matrix", property(lambda self: dense_reads.append(self) or dense.fget(self))
        )
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--model", "filter", "--k", 2,
                   "--epochs", 8, "--out-dir", out) == 0
        assert big_eigs == [] and dense_reads == []
        monkeypatch.undo()
        s = cross_covariance(x, y).as_shift_operator()
        dense_theta = NtkMatrix(b_lin(s, x, 2), NtkKind.FILTER_ANALYTIC)
        oracle = predicted_param_movement(dense_theta, stack(y))
        report = json.loads((out / "report.json").read_text())
        assert report["predicted_param_movement"] == pytest.approx(oracle, rel=1e-10)

    def test_filter_report_carries_kernel_rank_and_step_size(self, tiny_data, tmp_path):
        x, y, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("train", "--x", x_path, "--y", y_path, "--model", "filter", "--k", 3,
                   "--epochs", 4, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        theta = filter_ntk(cross_covariance(x, y).as_shift_operator(), x, 3)
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
            "cxy_raw": cross_covariance(x, y, symmetrize=False).as_experiment_operator(),
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

    def test_zero_width_is_a_usage_error(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        assert run("compare", "--x", x_path, "--y", y_path, "--model", "gnn2",
                   "--width", 0, "--epochs", 2, "--reps", 1, "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "width must be >= 1, got 0" in err
        assert "diverged" not in err

    def test_zero_reps_is_a_usage_error(self, tiny_data, tmp_path, capsys):
        _, _, x_path, y_path = tiny_data
        out = tmp_path / "out"
        assert run("compare", "--x", x_path, "--y", y_path, "--model", "filter",
                   "--epochs", 2, "--reps", 0, "--out-dir", out) == 2
        assert "reps must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_zero_filter_taps_is_a_usage_error(self, tiny_data, tmp_path, capsys, command):
        _, _, x_path, y_path = tiny_data
        assert run(command, "--x", x_path, "--y", y_path, "--model", "filter", "--k", 0,
                   "--epochs", 2, "--out-dir", tmp_path / "out") == 2
        assert "num_taps must be >= 1, got 0" in capsys.readouterr().err


class TestVerifyCommands:
    def test_verify_hermite_reports_beta(self, tmp_path, capsys):
        assert run("verify-hermite", "--json", "--out-dir", tmp_path / "out") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["beta"]["value"] - (math.pi - 2) / 2) < 1e-3
        assert report["violations"] == 0

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

    def test_verify_bounds_unknown_check_is_a_usage_error(self, tmp_path, capsys):
        assert run("verify-bounds", "--instances", 2, "--checks", "nonsense",
                   "--out-dir", tmp_path) == 2
        assert "nonsense" in capsys.readouterr().err


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

    def test_config_example_runs(self, tmp_path):
        (example,) = [b for b in self.blocks("ini") if b.startswith("# gen.cfg")]
        (tmp_path / "gen.cfg").write_text(example)
        out = tmp_path / "data"
        assert run("gen-data", "--config", tmp_path / "gen.cfg", "--seed", 3, "--out-dir", out) == 0
        snap = json.loads((out / "manifest.json").read_text())["config"]
        assert (snap["n"], snap["len"], snap["dt"], snap["m_train"]) == (20, 1000, 1, 200)
        assert snap["anisotropy"] == 0.6 and snap["seed"] == 3
        assert load_csv(out / "x_train.csv").shape == (20, 200)
