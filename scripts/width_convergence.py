#!/usr/bin/env python3
"""Finite-width behavior of the GNN tangent kernel.

Two sweeps on one random instance: Monte Carlo kernel error against the
infinite-width series reference as the feature count grows, and the
relative kernel drift over a short training run at each width.  Writes
both tables to CSV and prints them.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ntkalign.core import Dataset, ShiftOperator
from ntkalign.dataio import save_csv
from ntkalign.ntk import gnn_infinite_ntk, gnn_monte_carlo_ntk
from ntkalign.training import ntk_drift


def make_instance(seed, n, m):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    s = ShiftOperator(sym / np.linalg.norm(sym), frobenius_unit=True)
    data = Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()
    return s, data


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+",
                        default=[64, 128, 256, 512, 1024, 2048, 4096])
    parser.add_argument("--seeds", type=int, default=5, help="Monte Carlo draws per width")
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--k", type=int, default=2, help="filter taps")
    parser.add_argument("--eta", type=float, default=0.1, help="drift-run learning rate")
    parser.add_argument("--steps", type=int, default=15, help="drift-run length")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    parser.add_argument("--out-dir", default="width_out")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    s, data = make_instance(args.seed, args.n, args.m)

    reference = gnn_infinite_ntk(s, data, args.k, layer="both").matrix
    ref_norm = np.linalg.norm(reference)
    print(f"instance n={args.n} m={args.m} K={args.k}, reference norm {ref_norm:.4f}\n")

    rows = []
    print("width   mc error (mean over seeds)")
    for width in args.widths:
        errors = []
        for seed in range(args.seeds):
            total = (
                gnn_monte_carlo_ntk(s, data, args.k, width, seed).matrix
                + gnn_monte_carlo_ntk(
                    s, data, args.k, width, seed, which_layer="first"
                ).matrix
            )
            errors.append(np.linalg.norm(total - reference) / ref_norm)
        rows.append([width, np.mean(errors), np.std(errors)])
        print(f"{width:6d}  {rows[-1][1]:.5f} +- {rows[-1][2]:.5f}")
    save_csv(np.array(rows, dtype=float), out_dir / "mc_error.csv",
             header=["width", "mean_error", "std_error"])

    drift_rows = []
    print("\nwidth   kernel drift (mean over seeds)")
    for width in args.widths:
        drifts = [
            ntk_drift(s, data, args.k, [width], args.eta, args.steps, seed)[0].drift
            for seed in range(args.seeds)
        ]
        drift_rows.append([width, np.mean(drifts), np.std(drifts)])
        print(f"{width:6d}  {drift_rows[-1][1]:.6f} +- {drift_rows[-1][2]:.6f}")
    save_csv(np.array(drift_rows, dtype=float), out_dir / "drift.csv",
             header=["width", "mean_drift", "std_drift"])

    print(f"\ntables -> {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
