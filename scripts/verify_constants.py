#!/usr/bin/env python3
"""Run every numeric verification in one pass and print a summary table.

Covers the activation-expansion self-check (constants, orthonormality,
sign/ratio grids), the alignment inequality sweeps on random instances,
and the closed-form optimal-operator sweep.  Exits 1 on any violation.
"""

import argparse
import sys

from ntkalign.alignment import optimality_sweep, run_inequality_sweeps
from ntkalign.cli import _count, refuse_bad_input
from ntkalign.hermite import self_check


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=_count, default=500, help="per inequality sweep")
    parser.add_argument("--optimality-instances", type=_count, default=1000)
    parser.add_argument("--seed", type=_count, default=0)
    return refuse_bad_input(run, parser.parse_args(argv))


def run(args):
    failures = 0

    payload = self_check()
    beta = payload["beta"]["value"]
    sup = payload["sigma_hat_sup"]["unnormalized"]
    print(f"tail constant beta       {beta:.6f}  (target 0.570796)")
    beta_first = payload["beta_first_layer_3"].get("value", float("nan"))
    excess = payload["bessel_excess"]
    print(f"first-layer beta (K=3)   {beta_first:.6f}")
    print(f"slope-transform supremum {sup:.6f}  (bound 2.51, bare-weight scale)")
    print(f"{excess['n_points']}-point Bessel excess {excess['value']:.3e}  "
          f"(bound {excess['bound']:.1e})")
    print(f"expansion self-check     {payload['violations']} violations")
    failures += payload["violations"]

    sweeps = run_inequality_sweeps(num_instances=args.instances, base_seed=args.seed)
    for name, result in sweeps.items():
        status = "ok" if result.passed else f"FAIL (seeds {result.failing_seeds})"
        print(f"sweep {name:32s} {result.num_instances} instances  {status}")
        failures += result.violations

    opt = optimality_sweep(num_instances=args.optimality_instances, seed=args.seed)
    status = "ok" if opt.passed else f"FAIL (excess {opt.max_excess:.3e})"
    print(f"optimal-operator sweep {opt.num_instances} candidates  {status}")
    failures += 0 if opt.passed else 1

    print("all checks passed" if failures == 0 else f"{failures} violations")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
