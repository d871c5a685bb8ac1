"""The benchmark's three workloads: inputs, one operation, output checks.

Every workload feeds the ntkalign CLI files that ``gen-data`` makes from
an input seed, then runs one operation through ``ntkalign.cli.main``.
``check`` reads the outputs back and returns the problems it finds; an
operation fails on a nonzero exit or on any problem.

The checks recompute the outputs with the plain-numpy oracles in
``oracles.py``, for every seed.  Outputs are also compared with
``references.json``, recorded from the seed commit, when the input seed is
a recorded one.  Both use the relative tolerance ``RTOL``: loose enough for
the planned fast paths (Hermite series against quadrature agree to about
1e-9, a fused backward pass to about 1e-15 per step), tight enough that a
wrong kernel, a dropped layer term or a changed optimizer step fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

RTOL = 1e-6
# Outputs that the program writes twice (report and CSV, both at 17
# significant digits) must agree to round-off.
SAME_RTOL = 1e-12
# Relative size of the change the benchmark's self-test makes to one output.
PERTURBATION = 1e-5

NODES = 20
SERIES_LENGTH = 1000
ANISOTROPY = 0.6
TAPS = 2
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    m_train: int
    m_test: int
    stacked_dim: int  # eigendecompositions at least this large are counted
    reaches: tuple  # modules the traced run must see called
    perturb_key: str  # output the self-test changes

    def gen_data_argv(self, seed: int, data: Path) -> list:
        return [
            "gen-data", "--n", str(NODES), "--len", str(SERIES_LENGTH), "--dt", "1",
            "--anisotropy", str(ANISOTROPY), "--m-train", str(self.m_train),
            "--m-test", str(self.m_test), "--seed", str(seed), "--out-dir", str(data),
        ]  # fmt: skip

    def op_argvs(self, seed: int, data: Path, out: Path) -> list:
        return OPS[self.name](seed, data, out)


def _xy(data: Path, split: str = "train") -> list:
    suffix = "" if split == "train" else "-test"
    return [f"--x{suffix}", str(data / f"x_{split}.csv"), f"--y{suffix}", str(data / f"y_{split}.csv")]


def _shared(seed: int, out: Path) -> list:
    return ["--k", str(TAPS), "--seed", str(seed), "--threads", "1", "--out-dir", str(out)]


COMPARE_EPOCHS = 8
COMPARE_REPS = 2
COMPARE_WIDTH = 50
FILTER_EPOCHS = 150

OPS = {
    "compare-gnn2": lambda seed, data, out: [
        ["compare", *_xy(data), *_xy(data, "test"), "--gso", "cxy,cxx", "--model", "gnn2",
         "--width", str(COMPARE_WIDTH), "--epochs", str(COMPARE_EPOCHS), "--reps", str(COMPARE_REPS),
         *_shared(seed, out)],
    ],
    "kernel-gnn": lambda seed, data, out: [
        ["ntk", "--kind", "gnn", *_xy(data), *_shared(seed, out / "ntk")],
        ["align", *_xy(data), *_shared(seed, out / "align")],
    ],
    "filter-large": lambda seed, data, out: [
        ["train", "--model", "filter", "--epochs", str(FILTER_EPOCHS), *_xy(data),
         *_shared(seed, out)],
    ],
}  # fmt: skip

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-gnn2", 200, 50, NODES * 200,
            ("cli", "dataio", "shiftops", "models", "training"), "final_test_cxy",
        ),
        Workload(
            "kernel-gnn", 3, 1, NODES * 3,
            ("cli", "dataio", "shiftops", "core", "hermite", "ntk", "alignment"), "alignment_a",
        ),
        Workload(
            "filter-large", 100, 1, NODES * 100,
            ("cli", "dataio", "shiftops", "core", "ntk", "models", "training"),
            "predicted_param_movement",
        ),
    )
}  # fmt: skip


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _table(path: Path) -> tuple:
    """(header, rows) of a CSV written with one header line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(a, b, rtol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=0.0, equal_nan=True))


def _inputs(data: Path, split: str = "train") -> tuple:
    return tuple(np.loadtxt(data / f"{v}_{split}.csv", delimiter=",", ndmin=2) for v in "xy")


# --- compare-gnn2 ------------------------------------------------------------


def _read_compare(out: Path, data: Path) -> dict:
    report = _report(out)
    comparison = report["comparison"]
    return {
        "final_train_cxy": comparison["final_train"]["cxy"],
        "final_train_cxx": comparison["final_train"]["cxx"],
        "final_test_cxy": comparison["final_test"]["cxy"],
        "final_test_cxx": comparison["final_test"]["cxx"],
        "wins": report["wins"]["cxy_over_cxx"],
        "wins_out_of": report["wins"]["out_of"],
    }


def _check_compare(o: dict, out: Path, data: Path, seed: int) -> list:
    problems = []
    x, y = _inputs(data)
    x_test, y_test = _inputs(data, "test")
    arms = {"cxy": oracles.cross_covariance(x, y), "cxx": oracles.covariance(x)}
    for arm, s in arms.items():
        for rep in range(COMPARE_REPS):
            expected = oracles.train_gnn2(
                s, x, y, x_test, y_test, COMPARE_WIDTH, TAPS, seed + rep, COMPARE_EPOCHS
            )
            for split, value in zip(("train", "test"), expected):
                got = o[f"final_{split}_{arm}"]
                if len(got) != COMPARE_REPS or not _close(got[rep], value, RTOL):
                    problems.append(f"final {split} loss of {arm} rep {rep} != oracle {value!r}")
    wins = int(np.sum(np.asarray(o["final_test_cxy"]) < np.asarray(o["final_test_cxx"])))
    if o["wins"] != wins or o["wins_out_of"] != COMPARE_REPS:
        problems.append(f"win count {o['wins']}/{o['wins_out_of']} != {wins}/{COMPARE_REPS}")
    header, rows = _table(out / "curves.csv")
    for arm in arms:
        for split in ("train", "test"):
            curve = rows[:, header.index(f"{arm}_{split}_mean")]
            if len(curve) != COMPARE_EPOCHS + 1 or not _close(
                curve[-1], np.mean(o[f"final_{split}_{arm}"]), SAME_RTOL
            ):
                problems.append(f"curves.csv {arm}_{split}_mean disagrees with the report")
    return problems


# --- kernel-gnn --------------------------------------------------------------


def _probe(size: int) -> np.ndarray:
    return np.random.default_rng(20231017).standard_normal(size)


def _read_kernel(out: Path, data: Path) -> dict:
    theta = np.loadtxt(out / "ntk" / "ntk.csv", delimiter=",", ndmin=2)
    return {
        "ntk_trace": float(np.trace(theta)),
        "ntk_fro": float(np.linalg.norm(theta)),
        "ntk_probe": (theta @ _probe(theta.shape[0])).tolist(),
        "ntk_alignment": _report(out / "ntk")["alignment"],
        "alignment_a": _report(out / "align")["alignment"]["a"],
    }


def _check_kernel(o: dict, out: Path, data: Path, seed: int) -> list:
    problems = []
    x, y = _inputs(data)
    second, first = oracles.gnn_kernel_layers(x, y, TAPS)
    expected = second + first
    theta = np.loadtxt(out / "ntk" / "ntk.csv", delimiter=",", ndmin=2)
    if theta.shape != expected.shape:
        return [f"ntk.csv has shape {theta.shape}, expected {expected.shape}"]
    if not np.linalg.norm(theta - expected) <= RTOL * np.linalg.norm(expected):
        problems.append("ntk.csv differs from the quadrature oracle")
    yv = oracles.stack(y)
    if not _close(o["ntk_alignment"], yv @ theta @ yv, SAME_RTOL * 1e3):
        problems.append("ntk report alignment != y' ntk.csv y")
    if not _close(o["alignment_a"], yv @ second @ yv, RTOL):
        problems.append(f"align a = {o['alignment_a']!r} != oracle {yv @ second @ yv!r}")
    return problems


# --- filter-large ------------------------------------------------------------


def _read_filter(out: Path, data: Path) -> dict:
    report = _report(out)
    return {
        "final_train_loss": report["final_train_loss"],
        "param_movement": report["param_movement"],
        "predicted_param_movement": report["predicted_param_movement"],
    }


def _check_filter(o: dict, out: Path, data: Path, seed: int) -> list:
    problems = []
    x, y = _inputs(data)
    expected = oracles.train_filter(x, y, TAPS, seed, FILTER_EPOCHS)
    for key, value in expected.items():
        if not _close(o[key], value, RTOL):
            problems.append(f"{key} {o[key]!r} != oracle {value!r}")
    header, rows = _table(out / "trace.csv")
    if rows.shape[0] != FILTER_EPOCHS + 1 or not _close(
        rows[-1, header.index("train_loss")], o["final_train_loss"], SAME_RTOL
    ):
        problems.append("trace.csv disagrees with the report")
    # The filter kernel is Z Z' with Z = [stack(x), stack(S x)], so
    # y' pinv(Z Z') y = (Z'y)' (Z'Z)^-2 (Z'y) in K x K algebra.
    s = oracles.cross_covariance(x, y)
    z = np.column_stack([oracles.stack(x), oracles.stack(s @ x)])
    zy = z.T @ oracles.stack(y)
    gram = z.T @ z
    predicted = math.sqrt(zy @ np.linalg.solve(gram, np.linalg.solve(gram, zy)))
    if not _close(o["predicted_param_movement"], predicted, RTOL):
        problems.append(
            f"predicted_param_movement {o['predicted_param_movement']!r} != oracle {predicted!r}"
        )
    return problems


READERS = {
    "compare-gnn2": (_read_compare, _check_compare),
    "kernel-gnn": (_read_kernel, _check_kernel),
    "filter-large": (_read_filter, _check_filter),
}


def read_outputs(name: str, out: Path, data: Path) -> dict:
    return READERS[name][0](out, data)


def perturb(name: str, outputs: dict) -> dict:
    """Copy of ``outputs`` with one value off by PERTURBATION."""
    key = WORKLOADS[name].perturb_key
    changed = dict(outputs)
    value = changed[key]
    if isinstance(value, list):
        changed[key] = [value[0] * (1.0 + PERTURBATION), *value[1:]]
    else:
        changed[key] = value * (1.0 + PERTURBATION)
    return changed


def compare(outputs: dict, expected: dict, rtol: float) -> list:
    """Counts and flags must be equal, numbers close to ``rtol``."""
    problems = []
    for key, want in expected.items():
        got = outputs.get(key)
        if isinstance(want, int):  # bool included
            if got != want:
                problems.append(f"{key} = {got!r}, expected {want!r}")
        elif got is None or not _close(got, want, rtol):
            problems.append(f"{key} = {got!r} differs from {want!r} beyond rtol {rtol:g}")
    return problems


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())["workloads"]


def check(name: str, outputs: dict, out: Path, data: Path, seed: int, reference) -> list:
    """Problems with one operation's outputs; empty when they are correct."""
    problems = READERS[name][1](outputs, out, data, seed)
    if reference is not None:
        problems += compare(outputs, reference, RTOL)
    return problems
