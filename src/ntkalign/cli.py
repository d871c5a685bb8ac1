"""Command-line experiment runner and verification driver.

Every subcommand resolves its settings as flags > config file > defaults,
does its work, and hands ``_finish`` a report and a map from artifact name to
a writer.  ``_finish`` is the one place that writes: it creates --out-dir,
writes those artifacts, then ``report.json`` and a run manifest whose
``outputs`` are exactly those names followed by ``report.json``.  A run that
fails before then leaves no out-dir.  Numeric CSV output is fixed to 17
significant digits, so a rerun with the same manifest is byte-identical.

Exit codes: 0 success, 1 property-violation findings, 2 usage or input
errors, including inputs beyond a numerical method's reach (a Hermite
series that cannot certify its residual, correlations that overshoot
round-off).

The parser is built once per process, so ``main`` may be called repeatedly
in-process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    DEFAULT_SWEEP_CHECKS,
    alignment_report,
    check_first_layer_alignment_lower_bound,
    check_gnn_alignment_lower_bound,
    check_names,
    optimality_sweep,
    run_inequality_sweeps,
)
from .core import (
    Dataset,
    DivergenceError,
    NtkMatrix,
    ShiftOperator,
    require_positive_finite,
    stack,
)
from .dataio import (
    PairExtractionConfig,
    VarProcessConfig,
    extract_pairs,
    generate_var,
    load_csv,
    planted_transition,
    save_csv,
    spectral_radius,
)
from .hermite import TruncationError, self_check
from .models import InitConfig, init_filter, init_gnn2, save_params
from .ntk import CorrelationOvershootError, empirical_ntk, filter_ntk, gnn_infinite_ntk
from .shiftops import covariance, cross_covariance, mu_from_budget, solve_optimal_gso
from .training import (
    GsoComparison,
    TrainConfig,
    compare_gso,
    predicted_param_movement,
    train,
)

SCHEMA_VERSION = 4
GNN_LEARNING_RATE = 0.0125
FILTER_RATE_MULTIPLIER = 50.0


class CliError(Exception):
    """Usage or input problem; the message tells the user what to change."""


# A double-quoted string (kept whole, so a '#' inside it stays) or a comment.
_QUOTED_OR_COMMENT = re.compile(r'("(?:[^"\\]|\\.)*")|#.*')


def _config_flags(ns: argparse.Namespace) -> list:
    """The flags a ``key = value`` settings file stands for.

    ``#`` starts a comment unless it is inside a double-quoted value.
    Values are parsed as JSON when possible and kept as strings otherwise.
    ``true`` / ``false`` give ``--key`` / ``--no-key``, ``null`` gives
    nothing (the default stays), a list gives ``--key item ...`` for a flag
    declared with ``nargs`` and ``--key=a,b`` for a comma-list flag
    (``--checks``, compare's ``--gso``: the manifest records them as lists),
    and any other value gives ``--key=value``, which argparse then checks
    exactly like a flag typed on the command line.
    """
    path, allowed = ns.config, set(vars(ns)) - {"subcommand", "config", "emit_json"}
    subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
    actions = subparsers.choices[ns.subcommand]._actions
    multi = {a.dest for a in actions if a.nargs in ("+", "*")}
    comma = {a.dest for a in actions if a.type in (_sweep_names, _arm_names)}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    flags = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _QUOTED_OR_COMMENT.sub(r"\1", line).strip()
        if not body:
            continue
        if "=" not in body:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in allowed:
            raise CliError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(sorted(allowed))}"
            )
        value = value.strip()
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        flag = key.replace("_", "-")
        if isinstance(parsed, bool):
            flags.append(f"--{flag}" if parsed else f"--no-{flag}")
        elif isinstance(parsed, list) and key in multi:
            flags += [f"--{flag}", *map(str, parsed)]
        elif isinstance(parsed, list) and key in comma:
            flags.append(f"--{flag}={','.join(map(str, parsed))}")
        elif parsed is not None:
            flags.append(f"--{flag}={parsed if isinstance(parsed, str) else value}")
    return flags


def _require(cfg: dict, key: str, flag: str):
    if cfg.get(key) is None:
        raise CliError(f"missing required input: pass {flag} (or set it in --config)")
    return cfg[key]


def _load_matrix(path, what: str) -> np.ndarray:
    try:
        return load_csv(path)
    except OSError as exc:
        raise CliError(f"cannot read {what} from {path}: {exc}") from None


def _load_dataset(cfg: dict, x_key: str = "x", y_key: str = "y") -> Dataset:
    x = _load_matrix(_require(cfg, x_key, f"--{x_key.replace('_', '-')}"), "inputs")
    y = _load_matrix(_require(cfg, y_key, f"--{y_key.replace('_', '-')}"), "targets")
    try:
        return Dataset(x, y)
    except ValueError as exc:
        raise CliError(f"inputs and targets do not form a dataset: {exc}") from None


def _maybe_test_dataset(cfg: dict):
    has_x, has_y = cfg.get("x_test") is not None, cfg.get("y_test") is not None
    if has_x != has_y:
        raise CliError("--x-test and --y-test must be given together")
    return _load_dataset(cfg, "x_test", "y_test") if has_x else None


# The data-derived shift operators by arm name: --gso's choices, ``_shift_from``
# and compare's arms read it; ``raw`` is compare's --raw-cxy.  The lambdas look up
# cross_covariance and covariance when called, so perfbench's tracer, which
# rebinds module attributes, sees every call.
GSO_ARMS = {
    "cxy": lambda data, raw=False: cross_covariance(data.x, data.y, symmetrize=not raw),
    "cxx": lambda data, raw=False: covariance(data.x),
}


def _load_shift(path, flag: str, what: str) -> ShiftOperator:
    try:
        return ShiftOperator(_load_matrix(path, what))
    except ValueError as exc:
        hint = "; symmetrize the matrix first" if "not symmetric" in str(exc) else ""
        raise CliError(f"{flag}: {exc}{hint}") from None


def _shift_from(cfg: dict, data: Dataset) -> ShiftOperator:
    if not cfg.get("gso_file"):
        return GSO_ARMS[cfg["gso"]](data)
    s = _load_shift(cfg["gso_file"], "--gso-file", "shift operator")
    if s.num_nodes != data.num_nodes:
        raise CliError(f"--gso-file: shift operator is {s.num_nodes} x {s.num_nodes}, "
                       f"but the data have {data.num_nodes} nodes")
    return s


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _finite(value, path: str, nonfinite: list):
    """``value`` in JSON types (numpy scalars and arrays converted), each NaN or
    infinity as None; their dotted key paths go to ``nonfinite``."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _finite(v, f"{path}{k}.", nonfinite) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v, f"{path}{i}.", nonfinite) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        nonfinite.append(path[:-1])
        return None
    return value


def _csv(matrix: np.ndarray, header=None):
    """An artifact writer of ``matrix`` as CSV; ``save_csv`` is looked up when it writes."""
    return lambda path: save_csv(matrix, path, header=header)


def _finish(cfg: dict, subcommand: str, report: dict, files: dict, exit_code: int = 0) -> int:
    """Write ``files`` (artifact name -> writer taking its path), the report and the manifest.

    The report's NaNs and infinities are written as null, their key paths
    listed in ``nonfinite``.  The manifest's ``outputs`` are the names of
    ``files`` in order, then ``report.json``.
    """
    nonfinite = []
    report = _finite(report, "", nonfinite)
    report = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand, **report,
              "nonfinite": nonfinite}
    text = _dumps(report) + "\n"
    files = {**files, "report.json": lambda path: path.write_text(text)}
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out_dir / name)
    outputs = list(files)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "emit_json"},
        "seed": cfg.get("seed"),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "ntkalign": __version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(_dumps(manifest) + "\n")
    if cfg["emit_json"]:
        print(_dumps(report))
    else:
        summary = report.get("summary", f"wrote {len(outputs)} files")
        print(f"{subcommand}: {summary} -> {out_dir}")
    return exit_code


def _extract_pairs(cfg: dict, series: np.ndarray, seed: int):
    """Train and test pairs at horizon dt; m_test defaults to a tenth of m_train."""
    m_test = cfg["m_test"] if cfg["m_test"] is not None else max(1, cfg["m_train"] // 10)
    return extract_pairs(series, PairExtractionConfig(cfg["dt"], cfg["m_train"], m_test, seed))


def _cmd_gen_data(cfg: dict) -> int:
    background = cfg["strength"] * (1.0 - cfg["anisotropy"])
    transition, direction = planted_transition(
        cfg["n"], seed=cfg["seed"], strength=cfg["strength"], background=background
    )
    series = generate_var(
        VarProcessConfig(cfg["n"], cfg["len"], transition, cfg["noise"], cfg["seed"])
    )
    files = {"series.csv": _csv(series)}
    report = {
        "num_nodes": cfg["n"],
        "num_steps": cfg["len"],
        "spectral_radius": spectral_radius(transition),
        "planted_direction": direction,
        "summary": f"series {cfg['n']} x {cfg['len']}",
    }
    if cfg["dt"] is not None:
        for name, split in zip(("train", "test"), _extract_pairs(cfg, series, cfg["seed"])):
            if split is not None:
                files.update({f"x_{name}.csv": _csv(split.x), f"y_{name}.csv": _csv(split.y)})
                report[f"num_{name}"] = split.num_samples
        report["summary"] += f", pairs at dt={cfg['dt']}"
    return _finish(cfg, "gen-data", report, files)


def _compute_ntk(cfg: dict, s: ShiftOperator, data: Dataset) -> NtkMatrix:
    kind = cfg["kind"]
    if kind == "filter":
        return filter_ntk(s, data.x, cfg["k"])
    if kind == "gnn":
        return gnn_infinite_ntk(s, data.x, cfg["k"], layer="both")
    # the kernel `train --model gnn2` starts from at its default --kappa 1
    params = init_gnn2(cfg["width"], cfg["k"], InitConfig(1.0, cfg["seed"]))
    return empirical_ntk(s, params, data.x)


def _cmd_ntk(cfg: dict) -> int:
    data = _load_dataset(cfg)
    s = _shift_from(cfg, data)
    theta = _compute_ntk(cfg, s, data)
    rank = theta.rank_estimate()
    report = {
        "kind": cfg["kind"],
        "size": theta.size,
        "rank_estimate": rank,
        "operator_norm": theta.operator_norm,
        "alignment": theta.quadratic_form(stack(data.y)),
        "info": theta.info,
        "summary": f"{cfg['kind']} kernel, size {theta.size}, rank {rank}",
    }
    if theta.factor is None:
        return _finish(cfg, "ntk", report, {"ntk.csv": _csv(theta.matrix)})
    # the spectral factor U diag(sqrt(lambda)), leading pair first: Theta = F F'
    evals, vecs = theta.eigenpairs
    factor = vecs[:, ::-1] * np.sqrt(evals[::-1])
    return _finish(cfg, "ntk", report, {"factor.csv": _csv(factor)})


def _cmd_align(cfg: dict) -> int:
    data = _load_dataset(cfg)
    s = _shift_from(cfg, data)
    rep = alignment_report(s, data, cfg["k"])
    checks = {}
    for check in (check_gnn_alignment_lower_bound, check_first_layer_alignment_lower_bound):
        result = check(rep)
        checks[result.name] = {key: getattr(result, key) for key in (
            "verdict", "passed", "vacuous", "margin", "details")}
    failed = [n for n, c in checks.items() if c["verdict"] == "failed"]
    vacuous = [n for n, c in checks.items() if c["verdict"] == "vacuous"]
    report = {
        "alignment": rep.to_dict(),
        "conditional_checks": checks,
        "info": {"layers": rep.layers},
        "summary": f"A = {rep.a:.6g}, c_data = {rep.c_data:.4f}, "
        f"c_data_first_layer = {rep.c_data_first_layer:.4f}"
        + (f", vacuous: {', '.join(vacuous)}" if vacuous else "")
        + (f", FAILED: {', '.join(failed)}" if failed else ""),
    }
    return _finish(cfg, "align", report, {}, exit_code=1 if failed else 0)


def _cmd_optimize_gso(cfg: dict) -> int:
    # argparse keeps --mu and --alpha apart; the budget needs both halves and M
    budget = cfg["alpha"] is not None
    if budget != (cfg["eta"] is not None):
        raise CliError("--alpha and --eta set the budget together: pass both or neither")
    if budget and cfg["c"] is not None:
        raise CliError("budget mode needs --x/--y for the sample count; use --mu with --c")
    mu, normalize = cfg["mu"], cfg["normalize"]
    if cfg["c"] is not None:
        c = _load_shift(cfg["c"], "--c", "cross-covariance")
    else:
        data = _load_dataset(cfg)
        c = cross_covariance(data.x, data.y)
        if budget:
            mu = mu_from_budget(cfg["alpha"], cfg["eta"], data.num_samples)
    if normalize is None:  # only the direction is asked for when no scale is given
        normalize = mu is None
    try:
        solution = solve_optimal_gso(c, num_taps=cfg["k"], mu=1.0 if mu is None else mu)
        s = solution.operator.normalized() if normalize else solution.operator
    except ValueError as exc:
        raise CliError(f"no shift operator solves the system: {exc}") from None
    report = {
        "mu": solution.mu,
        "residual": solution.residual,
        "scale": 1.0 / np.linalg.norm(solution.operator.matrix) if normalize else 1.0,
        "num_taps": cfg["k"],
        "frobenius_norm": np.linalg.norm(s.matrix),
        "summary": f"mu = {solution.mu:.6g}, residual = {solution.residual:.3e}",
    }
    return _finish(cfg, "optimize-gso", report, {"gso.csv": _csv(s.matrix)})


def _default_eta(cfg: dict) -> float:
    if cfg["eta"] is not None:
        return cfg["eta"]
    if cfg["model"] == "gnn2":
        return GNN_LEARNING_RATE
    return GNN_LEARNING_RATE * FILTER_RATE_MULTIPLIER


def _train_config(cfg: dict, eta: float) -> TrainConfig:
    return TrainConfig(eta=eta, epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                       optimizer=cfg["optimizer"], kappa=cfg["kappa"], seed=cfg["seed"])


def _cmd_train(cfg: dict) -> int:
    data = _load_dataset(cfg)
    test_data = _maybe_test_dataset(cfg)
    s = _shift_from(cfg, data)
    eta = _default_eta(cfg)
    train_cfg = _train_config(cfg, eta)
    init = InitConfig(kappa=cfg["kappa"], seed=cfg["seed"])
    if cfg["model"] == "filter":
        params0 = init_filter(cfg["k"], init)
    else:
        params0 = init_gnn2(cfg["width"], cfg["k"], init)
    trace = train(params0, s, data, train_cfg, test_data=test_data)

    epochs = np.arange(trace.num_epochs + 1, dtype=float)
    table = np.column_stack([epochs, trace.train_losses, trace.test_losses, trace.param_movement])
    files = {
        "trace.csv": _csv(table, ["epoch", "train_loss", "test_loss", "param_movement"]),
        "params.txt": lambda path: save_params(path, trace.final_params),
    }
    report = {
        "model": cfg["model"],
        "eta": eta,
        "final_train_loss": trace.train_losses[-1],
        "final_test_loss": trace.test_losses[-1],
        "param_movement": trace.param_movement[-1],
        "summary": f"{cfg['model']} trained {trace.num_epochs} epochs, "
        f"final loss {trace.train_losses[-1]:.6g}",
    }
    if cfg["model"] == "filter":
        theta = trace.tap_stack.kernel()  # the stack the filter trained on
        report["predicted_param_movement"] = predicted_param_movement(theta, stack(data.y))
        report["kernel_rank"] = theta.rank_estimate()
        report["eta_lambda_max"] = eta * theta.operator_norm
    return _finish(cfg, "train", report, files)


def _compare_draws(cfg: dict) -> list:
    """(series path, seed, train split, test split) per data draw.

    Draw i is the i-th --series file, its pairs extracted at --seed + i;
    without --series the one draw is --x/--y (and --x-test/--y-test) at --seed.
    """
    if cfg["series"] is None:
        return [(None, cfg["seed"], _load_dataset(cfg), _maybe_test_dataset(cfg))]
    given = [f"--{key.replace('_', '-')}" for key in ("x", "y", "x_test", "y_test")
             if cfg[key] is not None]
    if given:
        raise CliError(f"--series cannot be combined with {'/'.join(given)}; pass one or the other")
    return [(path, seed, *_extract_pairs(cfg, _load_matrix(path, "series"), seed))
            for seed, path in enumerate(cfg["series"], start=cfg["seed"])]


def _comparison_arms(cfg: dict, data: Dataset):
    arms = []
    for name in cfg["gso"]:  # checked by _arm_names as it was parsed
        raw = cfg["raw_cxy"] and name == "cxy"
        arms.append((f"{name}_raw" if raw else name, GSO_ARMS[name](data, raw)))
    return arms


def _head_to_head(result: GsoComparison, metric: str) -> dict:
    """Wins of the first arm over the second, and their mean final gap, on ``metric``."""
    if len(result.names) < 2:
        return {}
    first, second = result.names[:2]
    return {
        "wins": {f"{first}_over_{second}": result.win_count(first, second, metric=metric),
                 "out_of": result.num_reps},
        "final_gap": result.gap(first, second, metric=metric),
    }


def _cmd_compare(cfg: dict) -> int:
    draws = _compare_draws(cfg)
    eta = _default_eta(cfg)
    train_cfg = _train_config(cfg, eta)
    results = [
        compare_gso(data, cfg["k"], dataclasses.replace(train_cfg, seed=seed),
                    _comparison_arms(cfg, data), model=cfg["model"], width=cfg["width"],
                    reps=cfg["reps"], test_data=test_data)
        for _, seed, data, test_data in draws
    ]
    result = GsoComparison.pooled(results)
    epochs = np.arange(cfg["epochs"] + 1, dtype=float)
    columns, header = [epochs], ["epoch"]
    for name in result.names:
        columns.append(result.mean_train_curve(name))
        header.append(f"{name}_train_mean")
        columns.append(result.test_curves[name].mean(axis=0))
        header.append(f"{name}_test_mean")

    metric = "train" if draws[0][3] is None else "test"  # draws share --m-test
    report = {
        "model": cfg["model"],
        "eta": eta,
        "reps": cfg["reps"],
        "metric": metric,
        "comparison": result.to_dict(),
        "summary": f"{' vs '.join(result.names)} over {result.num_reps} reps",
    }
    pair = _head_to_head(result, metric)
    if pair:
        report.update(pair)
        wins, out_of = pair["wins"].values()
        report["summary"] += f"; {result.names[0]} wins {wins}/{out_of} on {metric}"
    if cfg["series"] is not None:
        report["draws"] = [{"series": path, "seed": seed, **_head_to_head(r, metric)}
                           for (path, seed, _, _), r in zip(draws, results)]
    return _finish(cfg, "compare", report, {"curves.csv": _csv(np.column_stack(columns), header)})


def _cmd_verify_bounds(cfg: dict) -> int:
    opt = None
    if cfg["optimality_instances"] > 0:
        opt = optimality_sweep(num_instances=cfg["optimality_instances"], seed=cfg["seed"])
    sweeps = run_inequality_sweeps(cfg["instances"], cfg["seed"], cfg["checks"])
    violations = sum(res.violations for res in sweeps.values())
    violations += 0 if opt is None or opt.passed else 1
    report = {
        "sweeps": {name: res.to_dict() for name, res in sweeps.items()},
        "optimality": None if opt is None else opt.to_dict(),
        "total_violations": violations,
        "passed": violations == 0,
        "summary": f"{len(cfg['checks'])} sweeps x {cfg['instances']} instances, "
        f"{violations} violations",
    }
    return _finish(cfg, "verify-bounds", report, {}, exit_code=0 if violations == 0 else 1)


def _cmd_verify_hermite(cfg: dict) -> int:
    payload = self_check()
    payload["summary"] = (
        f"beta = {payload['beta']['value']:.6g}, {payload['violations']} violations"
    )
    code = 0 if payload["violations"] == 0 else 1
    return _finish(cfg, "verify-hermite", payload, {}, exit_code=code)


COMMANDS = {
    "gen-data": _cmd_gen_data,
    "ntk": _cmd_ntk,
    "align": _cmd_align,
    "optimize-gso": _cmd_optimize_gso,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "verify-bounds": _cmd_verify_bounds,
    "verify-hermite": _cmd_verify_hermite,
}


def _add_shared_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_count, default=0, help="master RNG seed")
    sp.add_argument("--out-dir", default=".", help="directory for artifacts")
    sp.add_argument("--config", help="key = value settings file (flags win)")
    sp.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    sp.add_argument(
        "--json", dest="emit_json", action="store_true", help="print the JSON report to stdout"
    )


def _count(text: str, low: int = 0) -> int:
    """argparse type of a count (instances, epochs, batch size, horizon) or seed: an int >= ``low``."""
    if not re.fullmatch(r"\s*\+?\d+\s*", text) or int(text) < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return int(text)


_size = functools.partial(_count, low=1)  # taps, width, nodes, series length, samples, reps
_solver_taps = functools.partial(_count, low=2)  # optimize-gso --k: K = 1 has no tap to solve for


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _positive(text: str) -> float:
    """argparse type of a flag whose domain is positive: ``core.require_positive_finite``."""
    value = _float(text)
    try:
        require_positive_finite("value", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _fraction(text: str, closed: bool = False) -> float:
    """argparse type of a fraction: a float in (0, 1), or in (0, 1] when ``closed``."""
    value, domain = _float(text), "(0, 1]" if closed else "(0, 1)"
    if not (0.0 < value < 1.0 or (closed and value == 1.0)):
        raise argparse.ArgumentTypeError(f"expected a value in {domain}, got {text!r}")
    return value


_closed_fraction = functools.partial(_fraction, closed=True)  # --anisotropy


def _sweep_names(text: str) -> tuple:
    """argparse type of --checks: a comma list of at least one known sweep name."""
    try:
        names = check_names(t.strip() for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one sweep name, got {text!r}")
    return names


def _arm_names(text: str) -> tuple:
    """argparse type of compare's --gso: a comma list of at least one distinct GSO_ARMS name."""
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    for i, name in enumerate(names):
        if name not in GSO_ARMS:
            raise argparse.ArgumentTypeError(
                f"unknown arm {name!r}; choose from {', '.join(GSO_ARMS)}")
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"arm {name!r} is named twice")
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one arm, got {text!r}")
    return names


def _add_gso_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--gso", choices=list(GSO_ARMS), default="cxy",
                    help="data-derived shift operator")
    sp.add_argument("--gso-file", help="shift operator CSV")


def _add_data_flags(sp: argparse.ArgumentParser, test: bool = False) -> None:
    """--x and --y, and with ``test`` the test split's --x-test and --y-test."""
    sp.add_argument("--x", help="inputs CSV (nodes x samples)")
    sp.add_argument("--y", help="targets CSV (nodes x samples)")
    if test:
        sp.add_argument("--x-test", help="test inputs CSV")
        sp.add_argument("--y-test", help="test targets CSV")


def _add_training_flags(sp: argparse.ArgumentParser, model: str, epochs: int) -> None:
    """The model and optimizer flags ``train`` and ``compare`` share, after their
    ``_add_data_flags(sp, test=True)``; only the --model and --epochs defaults differ."""
    sp.add_argument("--k", type=_size, default=2, help="filter taps")
    sp.add_argument("--model", choices=["filter", "gnn2"], default=model, help="model class")
    sp.add_argument("--width", type=_size, default=50, help="hidden features for gnn2")
    sp.add_argument("--eta", type=_positive, help="learning rate")
    sp.add_argument("--epochs", type=_count, default=epochs, help="training epochs")
    sp.add_argument("--kappa", type=_positive, default=1.0, help="initialization scale")
    sp.add_argument("--optimizer", choices=["gd", "adam"], default="adam", help="update rule")
    sp.add_argument("--batch-size", type=_count, default=0, help="0 = full batch")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ntkalign`` parser, built once and shared: parse with it, never change it."""
    parser = argparse.ArgumentParser(
        prog="ntkalign",
        description="Tangent-kernel alignment toolkit: data, kernels, bounds, training",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="generate a planted VAR series (and pairs)")
    p.add_argument("--n", type=_size, default=20, help="number of nodes")
    p.add_argument("--len", type=_size, default=1000, help="series length")
    p.add_argument("--strength", type=_fraction, default=0.9, help="planted eigenvalue in (0, 1)")
    p.add_argument("--anisotropy", type=_closed_fraction, default=0.8,
                   help="planted-direction dominance in (0, 1]")
    p.add_argument("--noise", type=_positive, default=1.0, help="innovation scale")
    p.add_argument("--dt", type=_count, help="also extract pairs at this horizon")
    p.add_argument("--m-train", type=_size, default=200, help="training pairs")
    p.add_argument("--m-test", type=_count, help="test pairs (default m_train/10)")
    _add_shared_flags(p)

    p = sub.add_parser("ntk", help="compute a stacked tangent kernel")
    _add_data_flags(p)
    p.add_argument("--k", type=_size, default=2, help="filter taps")
    p.add_argument(
        "--kind", choices=["filter", "gnn", "gnn-mc"], default="filter", help="kernel kind"
    )
    p.add_argument("--width", type=_size, default=256, help="hidden features for gnn-mc")
    _add_gso_flags(p)
    _add_shared_flags(p)

    p = sub.add_parser("align", help="alignment report and certified bound checks")
    _add_data_flags(p)
    p.add_argument("--k", type=_size, default=2, help="filter taps")
    _add_gso_flags(p)
    _add_shared_flags(p)

    p = sub.add_parser("optimize-gso", help="solve for the alignment-optimal shift operator")
    _add_data_flags(p)
    p.add_argument("--c", help="cross-covariance CSV (overrides --x/--y)")
    p.add_argument("--k", type=_solver_taps, default=2, help="filter taps (>= 2)")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--mu", type=_positive, help="explicit multiplier")
    scale.add_argument("--alpha", type=_positive, help="budget numerator for mu (with --eta)")
    p.add_argument("--eta", type=_positive, help="learning rate for mu")
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        help="rescale the solution to unit Frobenius norm",
    )
    _add_shared_flags(p)

    p = sub.add_parser("train", help="train one model and write its trace")
    _add_data_flags(p, test=True)
    _add_training_flags(p, model="filter", epochs=100)
    _add_gso_flags(p)
    _add_shared_flags(p)

    p = sub.add_parser("compare", help="train matched models across shift operators")
    p.add_argument("--series", nargs="+",
                   help="series CSVs to extract pairs from, one data draw each")
    p.add_argument("--dt", type=_count, default=1, help="pair horizon for --series")
    p.add_argument("--m-train", type=_size, default=200, help="training pairs")
    p.add_argument("--m-test", type=_count, help="test pairs (default m_train/10)")
    _add_data_flags(p, test=True)
    p.add_argument("--gso", type=_arm_names, default=",".join(GSO_ARMS),
                   help=f"comma list of arms from {{{', '.join(GSO_ARMS)}}}")
    p.add_argument(
        "--raw-cxy",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="use the unsymmetrized cross-covariance for the cxy arm",
    )
    _add_training_flags(p, model="gnn2", epochs=50)
    p.add_argument("--reps", type=_size, default=10, help="seeded repetitions")
    _add_shared_flags(p)

    p = sub.add_parser("verify-bounds", help="run the inequality and optimality sweeps")
    p.add_argument("--instances", type=_count, default=500, help="instances per inequality sweep")
    p.add_argument("--checks", type=_sweep_names, default=",".join(DEFAULT_SWEEP_CHECKS),
                   help="comma list of sweep names")
    p.add_argument(
        "--optimality-instances",
        type=_count,
        default=1000,
        help="instances for the optimal-GSO sweep, which runs at K = 2 (0 disables)",
    )
    _add_shared_flags(p)

    p = sub.add_parser("verify-hermite", help="self-check the activation-expansion layer")
    _add_shared_flags(p)

    return parser


def refuse_bad_input(run, *args) -> int:
    """``run(*args)``, or exit 2 with one ``error:`` line when the input is bad or out of reach."""
    try:
        return run(*args)
    except DivergenceError as exc:
        print(
            f"error: training diverged at epoch {exc.step}; reduce --eta or --kappa",
            file=sys.stderr,
        )
        return 2
    except (CliError, ValueError, OSError, TruncationError, CorrelationOvershootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(argv: list) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        # file flags go before the command line's, so a flag given there wins
        ns = parser.parse_args([argv[0], *_config_flags(ns), *argv[1:]])
    cfg = vars(ns)
    return COMMANDS[cfg.pop("subcommand")](cfg)


def main(argv=None) -> int:
    try:
        return refuse_bad_input(_run, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
