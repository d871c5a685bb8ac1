"""The problem's symmetries as exact oracles, at any size.

Relabelling the n nodes by a permutation P (S -> P S P', X -> P X,
Y -> P Y) and reordering the M samples permutes every stacked kernel by
one index map, Θ(PSP', PX) = (I_M ⊗ P) Θ(S, X) (I_M ⊗ P)' with the sample
blocks reordered too, and leaves the alignment report and full-batch
training curves unchanged: the filters' taps are shared across nodes, and
a full batch sums over samples.  The same relabelling of the data carries
the alignment-optimal shift S* to P S* P'.  The GNN's expectation matrices depend on
the tap stack Z only through the Gram matrix of its rows, so rotating Z's
K columns by an orthogonal Q leaves them unchanged.  None of these needs a
slow reference path, so they hold at sizes no oracle reaches.  And the
filter kernel is quadratic in the inputs: Θ(S, cX) = c^2 Θ(S, X).
"""

import dataclasses
import json

import numpy as np
import pytest

from conftest import dense
from ntkalign.alignment import alignment_report, random_instance
from ntkalign.cli import main
from ntkalign.core import Dataset, ShiftOperator
from ntkalign.dataio import load_csv, save_csv
from ntkalign.models import InitConfig, init_filter, init_gnn2
from ntkalign.ntk import (
    TapStack,
    conjugated_power_sum,
    empirical_ntk,
    expectation_series,
    filter_ntk,
    gnn_infinite_ntk,
    z_vectors,
)
from ntkalign.shiftops import covariance, cross_covariance, solve_optimal_gso
from ntkalign.training import TrainConfig, compare_gso, train

# One tolerance for every identity, relative to the largest magnitude compared.
RTOL = 1e-13
SEEDS = range(6)


def relabel(rng, s, data):
    """(P S P', P X, P Y) with the samples reordered too, and the stacked index map.

    P and the sample order are drawn from rng.  Row i*n + a of the
    relabelled instance's stacked kernels is row idx[i*n + a] of the
    original's, so Θ' = Θ[idx][:, idx].
    """
    n, m = data.x.shape
    nodes, samples = rng.permutation(n), rng.permutation(m)
    idx = (samples[:, None] * n + nodes[None, :]).ravel()
    cells = np.ix_(nodes, samples)
    return ShiftOperator(s.matrix[np.ix_(nodes, nodes)]), Dataset(data.x[cells], data.y[cells]), idx


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.abs(got - want).max(initial=0.0) <= RTOL * np.abs(want).max(initial=0.0)


def assert_permuted(theta, relabelled, idx):
    assert_close(relabelled, theta[np.ix_(idx, idx)])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_kernel_route_is_relabelled_with_the_instance(seed):
    s, data, num_taps = random_instance(seed)
    s2, data2, idx = relabel(np.random.default_rng(seed), s, data)
    assert_permuted(dense(filter_ntk(s, data, num_taps)),
                    dense(filter_ntk(s2, data2, num_taps)), idx)
    assert_permuted(gnn_infinite_ntk(s, data, num_taps, layer="both").matrix,
                    gnn_infinite_ntk(s2, data2, num_taps, layer="both").matrix, idx)
    params = init_gnn2(8, num_taps, InitConfig(1.0, seed))  # taps shared across nodes
    assert_permuted(dense(empirical_ntk(s, params, data)),
                    dense(empirical_ntk(s2, params, data2)), idx)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layer", ["second", "first"])
def test_each_gnn_layer_is_relabelled_with_the_instance(seed, layer):
    s, data, num_taps = random_instance(seed)
    s2, data2, idx = relabel(np.random.default_rng(seed), s, data)
    assert_permuted(gnn_infinite_ntk(s, data, num_taps, layer=layer).matrix,
                    gnn_infinite_ntk(s2, data2, num_taps, layer=layer).matrix, idx)


@pytest.mark.parametrize("seed", SEEDS)
def test_filter_kernel_is_quadratic_in_the_inputs(seed):
    s, data, num_taps = random_instance(seed)
    scale = 2.7
    assert_close(dense(filter_ntk(s, scale * data.x, num_taps)),
                 scale**2 * dense(filter_ntk(s, data.x, num_taps)))


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("num_taps", [2, 3])
def test_optimal_shift_is_relabelled_with_the_data(seed, num_taps):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 30))
    data = Dataset(x, x + 0.1 * rng.standard_normal(x.shape))
    c = cross_covariance(data.x, data.y)
    mu = 2.0 / np.linalg.eigvalsh(c.matrix)[0]  # C is positive definite: every root is real
    s_star = solve_optimal_gso(c, num_taps, mu).operator
    s2, data2, _ = relabel(rng, s_star, data)  # P S* P' and the relabelled data
    relabelled = solve_optimal_gso(cross_covariance(data2.x, data2.y), num_taps, mu).operator
    assert_close(relabelled.matrix, s2.matrix)


def test_power_sum_is_relabelled_with_the_instance_at_nm_2000():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20))
    s = ShiftOperator(a + a.T).normalized()
    data = Dataset(rng.standard_normal((20, 100)), rng.standard_normal((20, 100)))
    s2, _, idx = relabel(rng, s, data)
    f = rng.standard_normal((2000, 6))
    theta = conjugated_power_sum(s, f @ f.T, 3, 100)
    assert_permuted(theta, conjugated_power_sum(s2, f[idx] @ f[idx].T, 3, 100), idx)


@pytest.mark.parametrize("seed", SEEDS)
def test_alignment_report_is_invariant(seed):
    s, data, num_taps = random_instance(seed)
    s2, data2, _ = relabel(np.random.default_rng(seed), s, data)
    report, relabelled = alignment_report(s, data, num_taps), alignment_report(s2, data2, num_taps)
    floats, relabelled_floats = report.to_dict(), relabelled.to_dict()
    # the alignments are quadratic forms of one target on one scale, their
    # largest; a lower bound can sit far below it, as a square of a sum
    # that cancels
    alignments = [key for key in floats if key.startswith("a")]
    assert_close([relabelled_floats[k] for k in alignments], [floats[k] for k in alignments])
    for key in floats.keys() - alignments:
        assert_close(relabelled_floats[key], floats[key])
    for layer, info in report.layers.items():
        for key, value in info.items():
            if isinstance(value, float):
                assert_close(relabelled.layers[layer][key], value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layer", ["second", "first"])
def test_expectation_series_depends_on_the_tap_gram_only(seed, layer):
    s, data, num_taps = random_instance(seed)
    z = z_vectors(s, data, num_taps)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((num_taps, num_taps)))
    rotated = TapStack((z.matrix @ q).T.reshape(z.powers.shape))  # Z Q
    assert_close(expectation_series(rotated, layer).matrix, expectation_series(z, layer).matrix)


def assert_training_invariant(seed, model, optimizer):
    s, data, num_taps = random_instance(seed)
    s2, data2, _ = relabel(np.random.default_rng(seed), s, data)
    init = InitConfig(1.0, seed)
    params = init_filter(num_taps, init) if model == "filter" else init_gnn2(8, num_taps, init)
    cfg = TrainConfig(eta=0.05, epochs=20, optimizer=optimizer)
    trace, relabelled = train(params, s, data, cfg), train(params, s2, data2, cfg)
    for field in ("train_losses", "param_movement"):
        assert_close(getattr(relabelled, field), getattr(trace, field))
    for got, want in zip(dataclasses.astuple(relabelled.final_params),
                         dataclasses.astuple(trace.final_params)):
        assert_close(got, want)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("model", ["filter", "gnn2"])
def test_full_batch_training_curves_are_invariant(seed, model):
    assert_training_invariant(seed, model, "gd")


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("model", ["filter", "gnn2"])
def test_adam_training_curves_are_invariant(seed, model):
    assert_training_invariant(seed, model, "adam")


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("model", ["filter", "gnn2"])
def test_compare_arms_are_invariant(seed, model):
    # each arm's operator is built from the relabelled data, as compare builds it
    s, data, num_taps = random_instance(seed)
    _, data2, _ = relabel(np.random.default_rng(seed), s, data)
    cfg = TrainConfig(eta=0.05, epochs=10, optimizer="adam", seed=seed)
    results = [
        compare_gso(d, num_taps, cfg, [("cxy", cross_covariance(d.x, d.y)),
                                       ("cxy_raw", cross_covariance(d.x, d.y, symmetrize=False)),
                                       ("cxx", covariance(d.x))],
                    model=model, width=6, reps=2)
        for d in (data, data2)
    ]
    for name in results[0].names:
        assert_close(results[1].train_curves[name], results[0].train_curves[name])


def report_numbers(value, path=""):
    """Every number in a JSON report, by its dotted key path."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in report_numbers(item, f"{path}{key}.").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in report_numbers(item, f"{path}{i}.").items()}
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return {path[:-1]: value} if is_number else {}


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_cli_runs_on_a_relabelled_csv_pair(seed, tmp_path):
    # ntk and align build their shift, C_XY, from the CSVs themselves
    s, data, num_taps = random_instance(seed)
    _, data2, idx = relabel(np.random.default_rng(seed), s, data)
    for name, d in (("original", data), ("relabelled", data2)):
        save_csv(d.x, tmp_path / f"{name}_x.csv")
        save_csv(d.y, tmp_path / f"{name}_y.csv")
        xy = ["--x", f"{tmp_path}/{name}_x.csv", "--y", f"{tmp_path}/{name}_y.csv",
              "--k", str(num_taps)]
        for command in (["ntk", "--kind", "gnn"], ["align"]):
            assert main([*command, *xy, "--out-dir", str(tmp_path / name / command[0])]) == 0
    assert_permuted(load_csv(tmp_path / "original" / "ntk" / "ntk.csv"),
                    load_csv(tmp_path / "relabelled" / "ntk" / "ntk.csv"), idx)
    for command in ("ntk", "align"):
        want, got = (report_numbers(json.loads((tmp_path / name / command / "report.json")
                                               .read_text()))
                     for name in ("original", "relabelled"))
        assert got.keys() == want.keys()
        for key in want:
            if key.endswith("truncation_residual"):
                # a tail: totals of at most K (tanh^2 <= 1, sech^4 |z|^2 <= K) less the
                # coefficients' energy, so its round-off is on the totals' scale
                assert abs(got[key] - want[key]) <= RTOL * num_taps
            else:
                assert_close(got[key], want[key])


@pytest.mark.parametrize("kind", ["filter", "gnn-mc"])
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_cli_factor_is_relabelled_with_its_kernel(seed, kind, tmp_path):
    # a spectral factor is unique only up to rotations within an eigenspace,
    # so the identity is checked on the kernel F F' that each factor.csv gives
    s, data, num_taps = random_instance(seed)
    _, data2, idx = relabel(np.random.default_rng(seed), s, data)
    kernels = []
    for name, d in (("original", data), ("relabelled", data2)):
        save_csv(d.x, tmp_path / f"{name}_x.csv")
        save_csv(d.y, tmp_path / f"{name}_y.csv")
        assert main(["ntk", "--kind", kind, "--width", "8", "--k", str(num_taps),
                     "--x", f"{tmp_path}/{name}_x.csv", "--y", f"{tmp_path}/{name}_y.csv",
                     "--out-dir", str(tmp_path / name)]) == 0
        factor = load_csv(tmp_path / name / "factor.csv")
        kernels.append(factor @ factor.T)
    assert_permuted(*kernels, idx)
