"""One benchmark process: set up one workload, then time checked operations.

``run.py`` starts this script once per set-up it measures; each process
runs only its workload, so its peak RSS is the workload's.  The process:

1. imports ntkalign from the checkout's ``src/`` (and refuses any other copy),
2. runs ``gen-data`` for the workload seed,
3. runs one checked warm-up operation, which fills ``lru_cache`` and other
   lazy state,
4. runs checked operations until its share of ``--seconds`` is used, at
   least ``MIN_OPS`` of them.  With ``--trace 1`` the operations alternate
   untraced and traced, so the tracing overhead is measured in one process.

It writes one JSON result to ``--result``; ``run.py`` turns the results of
all processes into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 2

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _import_cli():
    import ntkalign.cli

    where = Path(ntkalign.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"ntkalign imported from {where}, not from {SRC}")
    return ntkalign.cli


def _run_cli(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Operation:
    """Runs and checks one operation of a workload; counts failures."""

    def __init__(self, cli, workload, seed, work: Path, perturbed: bool):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.data = work / "data"
        self.out = work / "out"
        self.perturbed = perturbed
        self.reference = workloads.load_references().get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = None  # outputs of the first operation that passed every check
        self.check_seconds = 0.0

    def setup_data(self) -> None:
        code = _run_cli(self.cli, self.workload.gen_data_argv(self.seed, self.data))
        if code != 0:
            raise RuntimeError(f"gen-data exited {code}")

    def __call__(self, tracer=None) -> float:
        """Wall seconds of the CLI calls; failures are counted, not raised.

        With a tracer, its wrappers are installed around the CLI calls only,
        not around the output checks.
        """
        self.attempted += 1
        problems = []
        start = time.perf_counter()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                for argv in self.workload.op_argvs(self.seed, self.data, self.out):
                    code = _run_cli(self.cli, argv)
                    if code != 0:
                        problems.append(f"{argv[0]} exited {code}")
                        break
        except Exception:  # a crash inside the program is a failed operation
            problems.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        if not problems:
            problems = self._check()
        self.check_seconds += time.perf_counter() - start - elapsed
        if problems:
            self.failed += 1
            self.errors.extend(problems[: 5 - len(self.errors)])
        return elapsed

    def _check(self) -> list:
        """Full checks until one operation passes them; then equality with it.

        Every operation runs on the same inputs, so later outputs must
        repeat the checked ones to round-off.
        """
        try:
            outputs = workloads.read_outputs(self.workload.name, self.out, self.data)
            if self.perturbed:
                outputs = workloads.perturb(self.workload.name, outputs)
            if self.outputs is not None:
                return workloads.compare(outputs, self.outputs, workloads.SAME_RTOL)
            problems = workloads.check(
                self.workload.name, outputs, self.out, self.data, self.seed, self.reference
            )
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable outputs: {exc!r}"]
        if not problems:
            self.outputs = outputs
        return problems


def _trace_result(tracer, workload, traced_ops: int) -> dict:
    summary = tracer.summary()
    seen = {name.split(".", 1)[0] for name, stats in summary.items() if stats.get("calls")}
    missing = [m for m in workload.reaches if m not in seen]
    if missing:
        raise RuntimeError(f"traced run recorded no calls into {', '.join(missing)}")
    rule = sys.modules["ntkalign.hermite"].gauss_hermite_rule
    return {
        "traced_ops": traced_ops,
        "summary": summary,
        "rule_misses": rule.cache_info().misses,
    }


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    cli = _import_cli()
    op = Operation(cli, workload, args.seed, work, args.perturb)
    op.setup_data()
    op()  # warm-up
    first_op_at = time.monotonic()
    result = {
        "first_op_at": first_op_at,
        "setup_check_s": op.check_seconds,
        "op_seconds": [],
        "traced_op_seconds": [],
    }
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(min_eig_side=workload.stacked_dim)
    deadline = first_op_at + args.seconds
    done = 0
    while done < MIN_OPS or time.monotonic() < deadline:
        if tracer is not None and done % 2 == 1:
            result["traced_op_seconds"].append(op(tracer))
        else:
            result["op_seconds"].append(op())
        done += 1
    if tracer is not None:
        if op.outputs is None:
            raise RuntimeError("no operation succeeded; nothing to trace")
        result["trace"] = _trace_result(tracer, workload, len(result["traced_op_seconds"]))
        tracer.write_spans(work / "spans.csv")
    result.update(
        attempted=op.attempted,
        failed=op.failed,
        errors=op.errors,
        outputs=op.outputs,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true", help="self-test: corrupt one output")
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
