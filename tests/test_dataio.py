import csv

import numpy as np
import pytest

from ntkalign import dataio
from ntkalign.shiftops import cross_covariance_matrix
from ntkalign.dataio import (
    CsvFormatError,
    EmptyInputError,
    PairExtractionConfig,
    UnstableProcessError,
    VarProcessConfig,
    extract_pairs,
    generate_var,
    load_csv,
    planted_transition,
    save_csv,
    spectral_radius,
)
from ntkalign.cli import main


class TestVarProcessConfig:
    def test_rejects_unstable_transition(self):
        with pytest.raises(UnstableProcessError, match="spectral radius"):
            VarProcessConfig(3, 100, np.eye(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="transition"):
            VarProcessConfig(3, 100, np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "kwargs", [{"num_steps": 0}, {"noise_scale": 0.0}, {"noise_scale": -1.0}]
    )
    def test_rejects_bad_scalars(self, kwargs):
        merged = {"num_nodes": 2, "num_steps": 10, "transition": 0.5 * np.eye(2)}
        merged.update(kwargs)
        with pytest.raises(ValueError):
            VarProcessConfig(**merged)

    def test_nonsymmetric_stable_transition_is_accepted(self):
        a = np.array([[0.5, 0.4], [0.0, 0.5]])
        assert spectral_radius(a) < 1
        VarProcessConfig(2, 10, a)


class TestGenerateVar:
    def test_deterministic_and_shaped(self):
        cfg = VarProcessConfig(4, 50, 0.3 * np.eye(4), seed=7)
        first = generate_var(cfg)
        assert first.shape == (4, 50)
        assert np.array_equal(first, generate_var(cfg))

    def test_longer_run_extends_shorter_one(self):
        # burn-in and noise draws are shared, so the short series is a prefix
        a = 0.4 * np.eye(3)
        short = generate_var(VarProcessConfig(3, 5, a, seed=1))
        long = generate_var(VarProcessConfig(3, 12, a, seed=1))
        assert np.array_equal(long[:, :5], short)

    def test_white_noise_has_no_lag_structure(self):
        t_len = 20_000
        z = generate_var(VarProcessConfig(3, t_len, np.zeros((3, 3)), seed=5))
        lag1 = z[:, 1:] @ z[:, :-1].T / (t_len - 1)
        assert np.abs(lag1).max() <= 3.0 / np.sqrt(t_len)

    def test_scalar_transition_matches_stationary_closed_form(self):
        # for z' = 0.9 z + w the stationary covariance is I/(1 - 0.81)
        # and the lag-1 cross-covariance is 0.9 times it
        t_len = 50_000
        z = generate_var(VarProcessConfig(3, t_len, 0.9 * np.eye(3), seed=2))
        lag1 = z[:, 1:] @ z[:, :-1].T / (t_len - 1)
        target = 0.9 / (1.0 - 0.81)
        assert np.abs(np.diag(lag1) - target).max() <= 0.3
        assert np.abs(lag1 - np.diag(np.diag(lag1))).max() <= 0.3


class TestPlantedTransition:
    def test_planted_direction_is_the_dominant_eigenvector(self):
        a, u = planted_transition(6, seed=3, strength=0.8, background=0.1)
        assert np.allclose(a, a.T)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.allclose(a @ u, 0.8 * u)
        assert spectral_radius(a) == pytest.approx(0.8)

    def test_background_spectrum_is_sign_mixed_and_bounded(self):
        a, u = planted_transition(9, seed=5, strength=0.9, background=0.3)
        eigs = np.sort(np.linalg.eigvalsh(a))
        assert eigs[-1] == pytest.approx(0.9)
        np.testing.assert_allclose(eigs[:-1], np.linspace(-0.3, 0.3, 8), atol=1e-12)

    @pytest.mark.parametrize(
        "strength,background", [(1.0, 0.2), (0.5, 0.6), (0.5, -0.1), (0.9, 0.9)]
    )
    def test_rejects_bad_spectrum(self, strength, background):
        with pytest.raises(ValueError, match="background"):
            planted_transition(4, strength=strength, background=background)

    def test_lag_cross_covariance_recovers_the_direction(self):
        for seed in range(3):
            a, u = planted_transition(12, seed=seed, strength=0.9, background=0.15)
            z = generate_var(VarProcessConfig(12, 6000, a, seed=seed + 100))
            c = cross_covariance_matrix(z[:, :-1], z[:, 1:])
            _, vecs = np.linalg.eigh(c)
            assert abs(vecs[:, -1] @ u) > 0.9


class TestExtractPairs:
    def test_columns_are_offset_by_the_horizon(self):
        # column t holds 2^t, so y/x = 2^horizon regardless of the scale
        series = np.vstack([2.0 ** np.arange(20)])
        cfg = PairExtractionConfig(horizon=3, num_train=6, num_test=4, seed=0)
        train, test = extract_pairs(series, cfg)
        assert np.allclose(train.y / train.x, 8.0)
        assert np.allclose(test.y / test.x, 8.0)

    def test_zero_horizon_copies_inputs(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal((4, 15))
        train, _ = extract_pairs(series, PairExtractionConfig(0, num_train=5))
        assert np.array_equal(train.x, train.y)

    def test_train_and_test_indices_are_disjoint(self):
        series = np.vstack([3.0 ** np.arange(30)])  # distinct values tag the index
        cfg = PairExtractionConfig(horizon=1, num_train=10, num_test=10, seed=4)
        train, test = extract_pairs(series, cfg)
        assert not set(train.x[0]) & set(test.x[0])

    def test_joint_normalization_peaks_at_one(self):
        rng = np.random.default_rng(2)
        series = 5.0 * rng.standard_normal((4, 40))
        cfg = PairExtractionConfig(horizon=2, num_train=12, num_test=6, seed=3)
        train, test = extract_pairs(series, cfg)
        norms = [
            np.linalg.norm(block, axis=0).max()
            for block in (train.x, train.y, test.x, test.y)
        ]
        assert max(norms) == pytest.approx(1.0, abs=1e-12)
        assert train.max_column_norm <= 1.0 + 1e-12

    def test_no_test_split_returns_none(self):
        series = np.ones((2, 10))
        train, test = extract_pairs(series, PairExtractionConfig(1, num_train=4))
        assert test is None
        assert train.num_samples == 4

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        series = rng.standard_normal((3, 25))
        cfg = PairExtractionConfig(horizon=1, num_train=8, num_test=4, seed=9)
        a_train, a_test = extract_pairs(series, cfg)
        b_train, b_test = extract_pairs(series, cfg)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.y, b_test.y)

    def test_insufficient_length_raises(self):
        series = np.ones((2, 10))
        with pytest.raises(ValueError, match="fit the horizon"):
            extract_pairs(series, PairExtractionConfig(horizon=4, num_train=5, num_test=2))

    def test_zero_series_cannot_be_normalized(self):
        with pytest.raises(ValueError, match="zero"):
            extract_pairs(np.zeros((2, 10)), PairExtractionConfig(1, num_train=3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": -1, "num_train": 3},
            {"horizon": 1, "num_train": 0},
            {"horizon": 1, "num_train": 3, "num_test": -1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PairExtractionConfig(**kwargs)


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((5, 7))
        path = tmp_path / "m.csv"
        save_csv(matrix, path)
        assert np.array_equal(load_csv(path), matrix)

    def test_header_row_is_detected_and_skipped(self, tmp_path):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((3, 4))
        path = tmp_path / "h.csv"
        save_csv(matrix, path, header=["a", "b", "c", "d"])
        assert np.array_equal(load_csv(path), matrix)

    def test_single_row_stays_two_dimensional(self, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(np.array([1.0, 2.0, 3.0]), path)
        assert load_csv(path).shape == (1, 3)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(EmptyInputError, match="no data"):
            load_csv(path)

    def test_header_only_file_raises(self, tmp_path):
        path = tmp_path / "ho.csv"
        path.write_text("alpha,beta\n")
        with pytest.raises(EmptyInputError, match="no data"):
            load_csv(path)

    def test_ragged_rows_are_reported_with_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(path)

    def test_non_numeric_cell_is_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError, match="row 2, column 2"):
            load_csv(path)

    def test_trailing_blank_line_is_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n\n")
        assert np.array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def per_cell_load_csv(path):
    """The cell-by-cell loader that ``load_csv`` replaced, kept as its oracle."""
    with open(path, newline="") as fh:
        rows = [(i + 1, cells) for i, cells in enumerate(csv.reader(fh))]
    while rows and not any(cell.strip() for cell in rows[-1][1]):
        rows.pop()
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        rows = rows[1:]  # header row
        if not rows:
            raise EmptyInputError(f"{path}: header only, no data rows") from None
    width = len(rows[0][1])
    out = []
    for number, cells in rows:
        if len(cells) != width:
            raise CsvFormatError(f"row {number}: expected {width} columns, got {len(cells)}")
        values = np.empty(width)
        for j, cell in enumerate(cells):
            try:
                values[j] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"row {number}, column {j + 1}: not numeric: {cell.strip()!r}"
                ) from None
        out.append(values)
    return np.array(out)


class TestLoadCsvMatchesPerCellParser:
    def assert_same_array(self, path):
        new, old = load_csv(path), per_cell_load_csv(path)
        assert (new.shape, new.dtype) == (old.shape, old.dtype)
        assert new.tobytes() == old.tobytes()  # bit for bit, signed zeros and NaNs too

    def test_gen_data_outputs(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--n", "6", "--len", "80", "--dt", "1", "--m-train", "40",
                     "--out-dir", str(out)]) == 0
        paths = sorted(out.glob("*.csv"))
        assert [p.name for p in paths] == [
            "series.csv", "x_test.csv", "x_train.csv", "y_test.csv", "y_train.csv"
        ]
        for path in paths:
            self.assert_same_array(path)

    def test_edge_cells_header_and_trailing_blank_rows(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(
            "a,b,c,d,e\n"
            '" 1 ",1_000,1e400,-0,"-2.5"\n'
            "nan,-iNF,\uff11\uff12,Infinity,-nan\n"
            "+.5,1E-320,-1e400,1.,\t7 \n"
            "3.141592653589793238462643383279,0.1e-5_0,\u0663,1_0.5,\"1e5\"\n"
            "\n"
            ",,,,\n"
            "\n",
            encoding="utf-8",
        )
        assert load_csv(path).shape == (4, 5)
        self.assert_same_array(path)

    @pytest.mark.parametrize(
        "text",
        [
            "1\x0c,2\n3,\x854\n5,6\u2028\n",
            "a,b\r1,2\r3,4\r",
            "a,b\r\n1,2\r\n3,4\r\n",
            "1,2\r\n3,4\r5,6\n7,8\r\r\n\r",
            "1,2\n3,4",
            '"a","b"\n"1",2\n3," 4 "\n\n',
        ],
        ids=["cells-with-splitlines-breaks", "lone-cr", "crlf", "mixed-line-ends",
             "no-final-newline", "quoted"],
    )
    def test_line_ends_and_quoted_cells(self, tmp_path, text):
        path = tmp_path / "lines.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_csv(path).shape[1] == 2
        self.assert_same_array(path)

    @pytest.mark.parametrize(
        "text",
        [
            "1,2,3\n4,5\n",
            "1,2\n3,oops\n",
            "1,2\n3,\n",
            "x,y\n1,2\n 3 ,0x10\n",
            '1,2\n"1,5",2\n',
            "",
            "\n,\n",
            "alpha,beta\n",
            "alpha,beta\n\n",
            "1,2\n3\x0c4,5\n",
            "1,2\n3,4\x855\n",
            "1,2\n3\u20284,5\n",
            "1,2\n\n3,4\n",
            "1,2\r\n\r\n3,4\r\n",
            "1,2\r3\r",
            "1,2\n3",
            '1,2\n"x",3\n',
        ],
        ids=["short-row", "non-numeric", "empty-cell", "hex-after-header", "comma-decimal",
             "empty-file", "blank-rows-only", "header-only", "header-and-blank-row",
             "form-feed-in-cell", "nel-in-cell", "line-separator-in-cell", "blank-middle-row",
             "blank-middle-row-crlf", "lone-cr-short-row", "no-final-newline-short-row",
             "quoted-non-numeric"],
    )
    def test_same_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as new:
            load_csv(path)
        with pytest.raises(ValueError) as old:
            per_cell_load_csv(path)
        assert type(new.value) in (CsvFormatError, EmptyInputError)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


def savetxt_save_csv(matrix, path, header=None):
    """The ``np.savetxt`` writer that ``save_csv`` replaced, kept as its oracle."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    head = ",".join(header) if header is not None else ""
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g", header=head, comments="")


class TestSaveCsvMatchesSavetxt:
    def assert_same_bytes(self, tmp_path, matrix, header=None):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(matrix, new, header=header)
        savetxt_save_csv(matrix, old, header=header)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("header", [None, [], ["a", "b", "c"]], ids=["none", "empty", "list"])
    def test_special_values(self, tmp_path, header):
        matrix = np.array([
            [np.nan, np.inf, -np.inf],
            [-0.0, 0.0, 5e-324],
            [1e308, -1.7976931348623157e308, 2.2250738585072014e-308],
            [0.1, -1 / 3, 123456789012345678.0],
        ])
        self.assert_same_bytes(tmp_path, matrix, header)

    @pytest.mark.parametrize(
        "matrix",
        [np.array([1.5, -0.0, np.nan]), np.zeros((1, 0)), np.zeros((0, 3)), np.float64(2.5)],
        ids=["1-d", "1x0", "0x3", "0-d"],
    )
    def test_degenerate_shapes(self, tmp_path, matrix):
        self.assert_same_bytes(tmp_path, matrix)
        self.assert_same_bytes(tmp_path, matrix, header=["h"])

    def test_several_blocks_ending_in_a_partial_block(self, tmp_path):
        cols = 7
        step = dataio.BLOCK_CELLS // cols
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((3 * step + 5, cols)) * 10.0 ** rng.integers(-300, 300, cols)
        self.assert_same_bytes(tmp_path, matrix, header=[f"c{j}" for j in range(cols)])
        self.assert_same_bytes(tmp_path, np.asfortranarray(matrix))

    def test_row_wider_than_a_block(self, tmp_path):
        rng = np.random.default_rng(12)
        self.assert_same_bytes(tmp_path, rng.standard_normal((3, dataio.BLOCK_CELLS + 9)))

    def test_three_dimensional_input_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="got 3D array"):
            save_csv(np.zeros((2, 2, 2)), tmp_path / "cube.csv")


def test_cli_round_trip_uses_neither_savetxt_nor_csv_reader(tmp_path, monkeypatch):
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "savetxt", recording("savetxt", np.savetxt))
    monkeypatch.setattr(csv, "reader", recording("reader", csv.reader))
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["gen-data", "--n", "5", "--len", "120", "--dt", "1", "--m-train", "40",
                 "--seed", "2", "--out-dir", str(data)]) == 0
    xy = ["--x", str(data / "x_train.csv"), "--y", str(data / "y_train.csv")]
    assert main(["train", *xy, "--model", "filter", "--k", "2", "--epochs", "3",
                 "--out-dir", str(out / "train")]) == 0
    assert main(["ntk", *xy, "--kind", "filter", "--k", "2", "--out-dir", str(out / "ntk")]) == 0
    assert main(["compare", "--series", str(data / "series.csv"), "--dt", "1", "--m-train", "30",
                 "--m-test", "5", "--gso", "cxy,cxx", "--k", "2", "--model", "filter",
                 "--epochs", "3", "--reps", "1", "--out-dir", str(out / "compare")]) == 0
    written = sorted(data.glob("*.csv")) + sorted(out.glob("*/*.csv"))
    assert {p.name for p in written} >= {"series.csv", "trace.csv", "factor.csv", "curves.csv"}
    for path in written:
        assert load_csv(path).size > 0
    assert calls == []
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('"1",2\n')
    assert np.array_equal(load_csv(quoted), [[1.0, 2.0]])
    assert calls == ["reader"]
