#!/usr/bin/env python3
"""Train matched models on cross-covariance vs covariance shift operators.

For each seed: draw a planted VAR series, extract prediction pairs, build
both operators from the training split, and train a graph filter and a
two-layer GNN per operator with the replication protocol (Adam at the
CLI's rates: ``cli.GNN_LEARNING_RATE`` for the GNN and
``cli.FILTER_RATE_MULTIPLIER`` times that for the filter), one
``compare_gso`` repetition per seed.
Prints a win table and writes the mean training curves per arm to CSV.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ntkalign.cli import (
    FILTER_RATE_MULTIPLIER,
    GNN_LEARNING_RATE,
    _count,
    _fraction,
    _size,
    refuse_bad_input,
)
from ntkalign.dataio import (
    PairExtractionConfig,
    VarProcessConfig,
    extract_pairs,
    generate_var,
    planted_transition,
    save_csv,
)
from ntkalign.shiftops import covariance, cross_covariance
from ntkalign.training import TrainConfig, compare_gso

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_size, default=10, help="independent data draws")
    parser.add_argument("--n", type=_size, default=20, help="number of nodes")
    parser.add_argument("--len", type=_size, default=1000, dest="t_len", help="series length")
    parser.add_argument("--dt", type=_count, default=1, help="prediction horizon")
    parser.add_argument("--m-train", type=_size, default=200)
    parser.add_argument("--m-test", type=_count, default=50)
    parser.add_argument("--strength", type=_fraction, default=0.9)
    parser.add_argument("--background", type=float, default=0.35)
    parser.add_argument("--k", type=_size, default=2, help="filter taps")
    parser.add_argument("--width", type=_size, default=50, help="GNN hidden features")
    parser.add_argument("--epochs", type=_size, default=150)
    parser.add_argument("--out-dir", default="compare_out")
    return parser.parse_args(argv)


def main(argv=None):
    return refuse_bad_input(run, parse_args(argv))


def run(args):
    models = {"filter": GNN_LEARNING_RATE * FILTER_RATE_MULTIPLIER, "gnn2": GNN_LEARNING_RATE}
    curves = {(m, a): [] for m in models for a in ("cxy", "cxx")}
    wins = {m: {"train": 0, "test": 0} for m in models}

    for seed in range(args.seeds):
        transition, _ = planted_transition(
            args.n, seed=seed, strength=args.strength, background=args.background
        )
        series = generate_var(
            VarProcessConfig(args.n, args.t_len, transition, 1.0, seed=seed)
        )
        train_split, test_split = extract_pairs(
            series, PairExtractionConfig(args.dt, args.m_train, args.m_test, seed=seed)
        )
        arms = [
            ("cxy", cross_covariance(train_split.x, train_split.y)),
            ("cxx", covariance(train_split.x)),
        ]
        for model, eta in models.items():
            cfg = TrainConfig(eta=eta, epochs=args.epochs, optimizer="adam", kappa=1.0, seed=seed)
            result = compare_gso(train_split, args.k, cfg, arms, model=model, width=args.width,
                                 reps=1, test_data=test_split)
            for arm, _ in arms:
                curves[(model, arm)].append(result.train_curves[arm][0])
            for metric in ("train", "test"):
                wins[model][metric] += result.win_count("cxy", "cxx", metric=metric)
        print(f"seed {seed} done")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, columns = ["epoch"], [np.arange(args.epochs + 1, dtype=float)]
    for (model, arm), runs in curves.items():
        header.append(f"{model}_{arm}_train_mean")
        columns.append(np.mean(runs, axis=0))
    save_csv(np.column_stack(columns), out_dir / "mean_curves.csv", header=header)

    print(f"\n{args.seeds} seeds, {args.epochs} epochs, K={args.k}, F={args.width}")
    for model in models:
        print(
            f"  {model:6s}: cxy beats cxx on train {wins[model]['train']}/{args.seeds}, "
            f"on test {wins[model]['test']}/{args.seeds}"
        )
    print(f"mean curves -> {out_dir / 'mean_curves.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
