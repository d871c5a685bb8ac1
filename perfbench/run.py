"""ntkalign benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kernel-gnn --seed 3 --seconds 15 --trace 0

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  ``--workload all`` runs every workload in turn.
``--self-test`` checks that a corrupted output makes operations fail.
``--record-references 0-31`` records the outputs of runs 0-31 in references.json.

Each run starts ``PROCESSES`` worker processes one after another (see
worker.py).  Each pays the full set-up, and ``setup_s`` is the median of
their set-up times; the measured seconds are split between them and
``op_s_min`` is the fastest of all their timed operations (the median,
``op_s_p50``, is printed too).  Worker i of a
run with seed s makes its inputs from input seed ``PROCESSES * s + i``:
operation time depends on the inputs by several percent, so every run
spreads its operations over the same number of different inputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
PROCESSES = 3
# Each worker must end within this many seconds plus its share of the run,
# so that a run with a hung worker still ends within 180 s.
WORKER_GRACE_S = 40

sys.path.insert(0, str(HERE))

from layers import PER_LAYER, per_layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# op_s_min, not the median, is the gated time: on a host shared with other
# tenants, busy phases slowed whole runs' median by up to 70% (see README).
END_TO_END = (("setup_s", "s"), ("op_s_min", "s"), ("peak_rss_mb", "MB"))


class BenchmarkError(RuntimeError):
    """A worker process crashed or timed out; no result can be reported."""


def run_worker(workload: str, seed: int, seconds: float, trace: int, perturb=False):
    """Run one worker process on input seed ``seed`` and return its result."""
    work = WORK / f"{workload}-input{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--work", str(work),
        "--result", str(result_path),
    ]  # fmt: skip
    if perturb:
        cmd.append("--perturb")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker timed out") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared by both processes.
    result["setup_s"] = result["first_op_at"] - started - result["setup_check_s"]
    spans = work / "spans.csv"
    if spans.exists():
        spans.replace(WORK / f"spans-{workload}-input{seed}.csv")
    shutil.rmtree(work)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    results = [
        run_worker(workload, PROCESSES * seed + i, seconds / PROCESSES, trace)
        for i in range(PROCESSES)
    ]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    ops = [t for r in results for t in r["op_seconds"]]
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in results for e in r["errors"]],
        "ops": len(ops),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "op_s_min": min(ops),
        "op_s_p50": statistics.median(ops),
        "peak_rss_mb": max(r["peak_rss_kib"] for r in results) / 1024.0,
        "ops_failed_frac": failed / attempted,
    }
    if trace:
        out["layers"] = per_layer_values(results)
    return out


def _print_human(workload: str, out: dict, trace: int) -> None:
    print(f"== {workload}: {out['attempted']} ops attempted, {out['failed']} failed")
    if trace:
        for name, unit, _, note in PER_LAYER:
            print(f"  {name:58s} {out['layers'][name]:.6g} {unit}{note}")
    else:
        print(f"  setup_s          {out['setup_s']:.4f} s (median of {PROCESSES} set-ups)")
        print(f"  op_s_min         {out['op_s_min']:.4f} s (fastest of {out['ops']} ops)")
        print(f"  op_s_p50         {out['op_s_p50']:.4f} s (median of {out['ops']} ops)")
        print(f"  peak_rss_mb      {out['peak_rss_mb']:.1f} MB")
        print(f"  ops_failed_frac  {out['ops_failed_frac']:.4f} (failed / attempted)")
    for error in out["errors"][:5]:
        print(f"  FAILED: {error}")


def _metrics(out: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": out["layers"][name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    return {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END}


def bench(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        out = run_workload(name, args.seed, args.seconds, args.trace)
        _print_human(name, out, args.trace)
        attempted += out["attempted"]
        failed += out["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in _metrics(out, args.trace).items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


# An input seed with no recorded reference: only the oracles check it.
UNRECORDED_SEED = 1_000_003


def self_test() -> int:
    """Outputs must pass when intact and fail when one value is corrupted."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = [w["name"] for w in spec["workloads"]] == list(WORKLOADS) and [
        m["name"] for m in spec["per_layer"]
    ] == [m[0] for m in PER_LAYER]
    print("BENCHMARK.json matches workloads.py and layers.py:", "ok" if ok else "WRONG")
    for name in WORKLOADS:
        for seed in (0, UNRECORDED_SEED):
            for perturb in (False, True):
                result = run_worker(name, seed, 0.0, 0, perturb)
                frac = result["failed"] / result["attempted"]
                passed = frac == (1.0 if perturb else 0.0)
                ok &= passed
                label = f"input seed {seed}, {'perturbed' if perturb else 'intact'}"
                print(f"{name:13s} {label:32s} ops_failed_frac {frac:.2f}", "ok" if passed else "WRONG")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def record_references(seeds) -> int:
    """Record this checkout's outputs for the inputs of runs with ``seeds``.

    Entries for other input seeds already in references.json are kept.
    """
    from workloads import REFERENCES, RTOL, load_references

    inputs = [PROCESSES * seed + i for seed in seeds for i in range(PROCESSES)]
    refs = load_references()
    for name in WORKLOADS:
        for seed in inputs:
            result = run_worker(name, seed, 0.0, 0)
            if result["failed"]:
                print(f"{name} input seed {seed}: {result['errors']}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = result["outputs"]
    recorded = sorted({int(k) for per_seed in refs.values() for k in per_seed})
    payload = {"rtol": RTOL, "input_seeds": recorded, "workloads": refs}
    REFERENCES.write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"recorded {len(inputs)} input seeds x {len(WORKLOADS)} workloads -> {REFERENCES}")
    return 0


def _seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ntkalign benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-references", metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.record_references:
            return record_references(_seed_range(args.record_references))
        return bench(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
