"""Command-line experiment runner and verification driver.

Every subcommand resolves its settings as flags > config file > defaults,
writes a JSON report plus CSV artifacts into --out-dir, and records a run
manifest listing every output file.  Numeric CSV output is fixed to 17
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
import functools
import json
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
    gnn_alignment_terms,
    optimality_sweep,
    require_positive_finite,
    run_inequality_sweeps,
)
from .core import Dataset, DivergenceError, NtkMatrix, ShiftOperator, stack
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
from .ntk import CorrelationOvershootError, filter_ntk, gnn_infinite_ntk, gnn_monte_carlo_ntk
from .shiftops import covariance, cross_covariance, mu_from_budget, solve_optimal_gso
from .training import (
    TrainConfig,
    compare_gso,
    predicted_param_movement,
    train,
)

SCHEMA_VERSION = 1
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
    nothing (the default stays), and any other value gives ``--key=value``,
    which argparse then checks exactly like a flag typed on the command line.
    """
    path, allowed = ns.config, set(vars(ns)) - {"subcommand", "config", "emit_json"}
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


def _shift_from(cfg: dict, data: Dataset) -> ShiftOperator:
    if cfg.get("gso_file"):
        matrix = _load_matrix(cfg["gso_file"], "shift operator")
        try:
            return ShiftOperator(matrix)
        except ValueError as exc:
            raise CliError(f"--gso-file: {exc}; symmetrize the matrix first") from None
    if cfg["gso"] == "cxy":
        return cross_covariance(data.x, data.y).as_shift_operator()
    return covariance(data.x)


def _numpy_value(value):
    """json.dumps hook for the numpy scalars and arrays that json cannot encode."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_numpy_value)


def _finish(cfg: dict, subcommand: str, report: dict, outputs, exit_code: int = 0) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand, **report}
    report_path = out_dir / "report.json"
    report_path.write_text(_dumps(report) + "\n")
    outputs = [*outputs, report_path.name]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "emit_json"},
        "seed": cfg.get("seed"),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "ntkalign": __version__,
        },
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


def _extract_pairs(cfg: dict, series: np.ndarray):
    """Train and test pairs at horizon dt; m_test defaults to a tenth of m_train."""
    m_test = cfg["m_test"] if cfg["m_test"] is not None else max(1, cfg["m_train"] // 10)
    return extract_pairs(
        series, PairExtractionConfig(cfg["dt"], cfg["m_train"], m_test, cfg["seed"])
    )


def _cmd_gen_data(cfg: dict) -> int:
    if not 0.0 < cfg["anisotropy"] <= 1.0:
        raise CliError("--anisotropy must be in (0, 1]")
    background = cfg["strength"] * (1.0 - cfg["anisotropy"])
    transition, direction = planted_transition(
        cfg["n"], seed=cfg["seed"], strength=cfg["strength"], background=background
    )
    series = generate_var(
        VarProcessConfig(cfg["n"], cfg["len"], transition, cfg["noise"], cfg["seed"])
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(series, out_dir / "series.csv")
    outputs = ["series.csv"]
    report = {
        "num_nodes": cfg["n"],
        "num_steps": cfg["len"],
        "spectral_radius": spectral_radius(transition),
        "planted_direction": direction.tolist(),
        "summary": f"series {cfg['n']} x {cfg['len']}",
    }
    if cfg["dt"] is not None:
        train_split, test_split = _extract_pairs(cfg, series)
        save_csv(train_split.x, out_dir / "x_train.csv")
        save_csv(train_split.y, out_dir / "y_train.csv")
        outputs += ["x_train.csv", "y_train.csv"]
        report["num_train"] = train_split.num_samples
        if test_split is not None:
            save_csv(test_split.x, out_dir / "x_test.csv")
            save_csv(test_split.y, out_dir / "y_test.csv")
            outputs += ["x_test.csv", "y_test.csv"]
            report["num_test"] = test_split.num_samples
        report["summary"] += f", pairs at dt={cfg['dt']}"
    return _finish(cfg, "gen-data", report, outputs)


def _compute_ntk(cfg: dict, s: ShiftOperator, data: Dataset) -> NtkMatrix:
    kind = cfg["kind"]
    if kind == "filter":
        return filter_ntk(s, data.x, cfg["k"])
    if kind == "gnn":
        return gnn_infinite_ntk(s, data.x, cfg["k"], layer="both")
    return gnn_monte_carlo_ntk(s, data.x, cfg["k"], cfg["width"], cfg["seed"], which_layer="both")


def _cmd_ntk(cfg: dict) -> int:
    data = _load_dataset(cfg)
    s = _shift_from(cfg, data)
    theta = _compute_ntk(cfg, s, data)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(theta.matrix, out_dir / "ntk.csv")
    report = {
        "kind": cfg["kind"],
        "size": theta.size,
        "rank_estimate": theta.rank_estimate(),
        "operator_norm": theta.operator_norm,
        "alignment": theta.quadratic_form(stack(data.y)),
        "info": theta.info,
        "summary": f"{cfg['kind']} kernel, size {theta.size}, rank {theta.rank_estimate()}",
    }
    return _finish(cfg, "ntk", report, ["ntk.csv"])


def _cmd_align(cfg: dict) -> int:
    # the library rejects these too, but only after the kernels are built
    for name in ("eta", "alpha", "xi"):
        if cfg[name] is not None:
            require_positive_finite(name, cfg[name])
    data = _load_dataset(cfg)
    s = _shift_from(cfg, data)
    terms = gnn_alignment_terms(s, data, cfg["k"], spectral_bound=cfg["nu"])
    rep = alignment_report(
        s, data, cfg["k"], eta=cfg["eta"], alpha=cfg["alpha"], spectral_bound=cfg["nu"], terms=terms
    )
    checks = {}
    for name, fn in (
        ("gnn_alignment_lower_bound", check_gnn_alignment_lower_bound),
        ("first_layer_alignment_lower_bound", check_first_layer_alignment_lower_bound),
    ):
        result = fn(s, data, cfg["k"], spectral_bound=cfg["nu"], xi=cfg["xi"], terms=terms)
        checks[name] = {
            "passed": result.passed,
            "skipped": result.skipped,
            "reason": result.reason,
            "margin": None if not np.isfinite(result.margin) else result.margin,
            "details": {k: v for k, v in result.details.items()},
        }
    failed = [n for n, c in checks.items() if not c["passed"] and not c["skipped"]]
    report = {
        "alignment": rep.to_dict(),
        "conditional_checks": checks,
        "info": {"layers": terms.layers},
        "summary": f"A = {rep.a:.6g}, xi_observed = {rep.xi_observed:.4f}"
        + (f", FAILED: {', '.join(failed)}" if failed else ""),
    }
    return _finish(cfg, "align", report, [], exit_code=1 if failed else 0)


def _cmd_optimize_gso(cfg: dict) -> int:
    num_samples = None
    if cfg["c"] is not None:
        c = _load_matrix(cfg["c"], "cross-covariance")
    else:
        data = _load_dataset(cfg)
        c = cross_covariance(data.x, data.y)
        num_samples = data.num_samples

    if cfg["mu"] is not None:
        mu, normalize = cfg["mu"], bool(cfg["normalize"])
    elif cfg["alpha"] is not None:
        if cfg["eta"] is None:
            raise CliError("--alpha needs --eta to determine the budget")
        if num_samples is None:
            raise CliError("budget mode needs --x/--y for the sample count; use --mu with --c")
        mu = mu_from_budget(cfg["alpha"], cfg["eta"], num_samples)
        normalize = bool(cfg["normalize"])
    else:
        mu = 1.0
        normalize = True if cfg["normalize"] is None else cfg["normalize"]

    try:
        solution = solve_optimal_gso(c, num_taps=cfg["k"], mu=mu, normalize=normalize)
    except ValueError as exc:
        raise CliError(f"no shift operator solves the system: {exc}") from None
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(solution.operator.matrix, out_dir / "gso.csv")
    report = {
        "mu": solution.mu,
        "residual": solution.residual,
        "scale": solution.scale,
        "num_taps": cfg["k"],
        "frobenius_norm": float(np.linalg.norm(solution.operator.matrix)),
        "summary": f"mu = {solution.mu:.6g}, residual = {solution.residual:.3e}",
    }
    return _finish(cfg, "optimize-gso", report, ["gso.csv"])


def _default_eta(cfg: dict) -> float:
    if cfg["eta"] is not None:
        return cfg["eta"]
    if cfg["model"] == "gnn2":
        return GNN_LEARNING_RATE
    return GNN_LEARNING_RATE * FILTER_RATE_MULTIPLIER


def _train_config(cfg: dict, eta: float) -> TrainConfig:
    return TrainConfig(
        eta=eta,
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        optimizer=cfg["optimizer"],
        kappa=cfg["kappa"],
        seed=cfg["seed"],
    )


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

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = np.arange(trace.num_epochs + 1, dtype=float)
    table = np.column_stack(
        [epochs, trace.train_losses, trace.test_losses, trace.param_movement]
    )
    save_csv(table, out_dir / "trace.csv",
             header=["epoch", "train_loss", "test_loss", "param_movement"])
    save_params(out_dir / "params.txt", trace.final_params)
    report = {
        "model": cfg["model"],
        "eta": eta,
        "final_train_loss": float(trace.train_losses[-1]),
        "final_test_loss": None
        if np.isnan(trace.test_losses[-1])
        else float(trace.test_losses[-1]),
        "param_movement": float(trace.param_movement[-1]),
        "summary": f"{cfg['model']} trained {trace.num_epochs} epochs, "
        f"final loss {trace.train_losses[-1]:.6g}",
    }
    if cfg["model"] == "filter":
        theta = filter_ntk(s, data.x, cfg["k"])
        report["predicted_param_movement"] = predicted_param_movement(theta, stack(data.y))
        report["kernel_rank"] = theta.rank_estimate()
        report["eta_lambda_max"] = eta * theta.operator_norm
    return _finish(cfg, "train", report, ["trace.csv", "params.txt"])


def _compare_data(cfg: dict):
    if cfg["series"] is not None:
        return _extract_pairs(cfg, _load_matrix(cfg["series"], "series"))
    return _load_dataset(cfg), _maybe_test_dataset(cfg)


def _comparison_arms(cfg: dict, data: Dataset):
    arms = []
    for token in (t.strip() for t in cfg["gso"].split(",")):
        if token == "cxy" and cfg["raw_cxy"]:
            raw = cross_covariance(data.x, data.y, symmetrize=False)
            arms.append(("cxy_raw", raw.as_experiment_operator()))
        elif token == "cxy":
            arms.append(("cxy", cross_covariance(data.x, data.y).as_shift_operator()))
        elif token == "cxx":
            arms.append(("cxx", covariance(data.x)))
        elif token:
            raise CliError(f"unknown GSO arm {token!r}; choose from cxy, cxx")
    if not arms:
        raise CliError("--gso must name at least one arm")
    return arms


def _cmd_compare(cfg: dict) -> int:
    data, test_data = _compare_data(cfg)
    arms = _comparison_arms(cfg, data)
    eta = _default_eta(cfg)
    train_cfg = _train_config(cfg, eta)
    result = compare_gso(
        data,
        cfg["k"],
        train_cfg,
        arms,
        model=cfg["model"],
        width=cfg["width"],
        reps=cfg["reps"],
        test_data=test_data,
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = np.arange(cfg["epochs"] + 1, dtype=float)
    columns, header = [epochs], ["epoch"]
    for name in result.names:
        columns.append(result.mean_train_curve(name))
        header.append(f"{name}_train_mean")
        columns.append(result.test_curves[name].mean(axis=0))
        header.append(f"{name}_test_mean")
    save_csv(np.column_stack(columns), out_dir / "curves.csv", header=header)

    metric = "train" if test_data is None else "test"
    report = {
        "model": cfg["model"],
        "eta": eta,
        "reps": cfg["reps"],
        "metric": metric,
        "comparison": result.to_dict(),
        "summary": f"{' vs '.join(result.names)} over {cfg['reps']} reps",
    }
    if len(result.names) >= 2:
        first, second = result.names[:2]
        wins = result.win_count(first, second, metric=metric)
        report["wins"] = {f"{first}_over_{second}": wins, "out_of": result.num_reps}
        report["final_gap"] = result.gap(first, second, metric=metric)
        report["summary"] += f"; {first} wins {wins}/{result.num_reps} on {metric}"
    return _finish(cfg, "compare", report, ["curves.csv"])


def _cmd_verify_bounds(cfg: dict) -> int:
    checks = tuple(t.strip() for t in cfg["checks"].split(",") if t.strip())
    try:
        sweeps = run_inequality_sweeps(
            num_instances=cfg["instances"],
            base_seed=cfg["seed"],
            checks=checks,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    report = {"sweeps": {name: res.to_dict() for name, res in sweeps.items()}}
    violations = sum(res.violations for res in sweeps.values())

    if cfg["k"] == 2 and cfg["optimality_instances"] > 0:
        opt = optimality_sweep(
            num_instances=cfg["optimality_instances"],
            seed=cfg["seed"],
            num_taps=cfg["k"],
            alpha=cfg["alpha"],
            eta=cfg["eta"],
        )
        report["optimality"] = opt.to_dict()
        violations += 0 if opt.passed else 1
    else:
        report["optimality"] = None

    report["total_violations"] = int(violations)
    report["passed"] = violations == 0
    report["summary"] = (
        f"{len(checks)} sweeps x {cfg['instances']} instances, "
        f"{violations} violations"
    )
    return _finish(cfg, "verify-bounds", report, [], exit_code=0 if violations == 0 else 1)


def _cmd_verify_hermite(cfg: dict) -> int:
    payload = self_check(cfg["n_points"])
    payload["summary"] = (
        f"beta = {payload['beta']['value']:.6g}, {payload['violations']} violations"
    )
    code = 0 if payload["violations"] == 0 else 1
    return _finish(cfg, "verify-hermite", payload, [], exit_code=code)


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
    sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sp.add_argument("--out-dir", default=".", help="directory for artifacts")
    sp.add_argument("--config", help="key = value settings file (flags win)")
    sp.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    sp.add_argument(
        "--json", dest="emit_json", action="store_true", help="print the JSON report to stdout"
    )


def _add_gso_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--gso", choices=["cxy", "cxx"], default="cxy", help="data-derived shift operator"
    )
    sp.add_argument("--gso-file", help="shift operator CSV")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ntkalign`` parser, built once and shared: parse with it, never change it."""
    parser = argparse.ArgumentParser(
        prog="ntkalign",
        description="Tangent-kernel alignment toolkit: data, kernels, bounds, training",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="generate a planted VAR series (and pairs)")
    p.add_argument("--n", type=int, default=20, help="number of nodes")
    p.add_argument("--len", type=int, default=1000, help="series length")
    p.add_argument("--strength", type=float, default=0.9, help="planted eigenvalue in (0, 1)")
    p.add_argument(
        "--anisotropy", type=float, default=0.8, help="planted-direction dominance in (0, 1]"
    )
    p.add_argument("--noise", type=float, default=1.0, help="innovation scale")
    p.add_argument("--dt", type=int, help="also extract pairs at this horizon")
    p.add_argument("--m-train", type=int, default=200, help="training pairs")
    p.add_argument("--m-test", type=int, help="test pairs (default m_train/10)")
    _add_shared_flags(p)

    p = sub.add_parser("ntk", help="compute a stacked tangent kernel")
    p.add_argument("--x", help="inputs CSV (nodes x samples)")
    p.add_argument("--y", help="targets CSV (nodes x samples)")
    p.add_argument("--k", type=int, default=2, help="filter taps")
    p.add_argument(
        "--kind", choices=["filter", "gnn", "gnn-mc"], default="filter", help="kernel kind"
    )
    p.add_argument("--width", type=int, default=256, help="hidden features for gnn-mc")
    _add_gso_flags(p)
    _add_shared_flags(p)

    p = sub.add_parser("align", help="alignment report and conditional bound checks")
    p.add_argument("--x", help="inputs CSV")
    p.add_argument("--y", help="targets CSV")
    p.add_argument("--k", type=int, default=2, help="filter taps")
    p.add_argument("--eta", type=float, default=1.0, help="learning rate in the budget")
    p.add_argument("--alpha", type=float, default=1.0, help="kernel-norm budget")
    p.add_argument("--nu", type=float, default=1.0, help="spectral bound for the constants")
    p.add_argument("--xi", type=float, help="assumed alignment ratio for conditionals")
    _add_gso_flags(p)
    _add_shared_flags(p)

    p = sub.add_parser("optimize-gso", help="solve for the alignment-optimal shift operator")
    p.add_argument("--x", help="inputs CSV")
    p.add_argument("--y", help="targets CSV")
    p.add_argument("--c", help="cross-covariance CSV (overrides --x/--y)")
    p.add_argument("--k", type=int, default=2, help="filter taps (>= 2)")
    p.add_argument("--mu", type=float, help="explicit multiplier")
    p.add_argument("--alpha", type=float, help="budget numerator for mu")
    p.add_argument("--eta", type=float, help="learning rate for mu")
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        help="rescale the solution to unit Frobenius norm",
    )
    _add_shared_flags(p)

    p = sub.add_parser("train", help="train one model and write its trace")
    p.add_argument("--x", help="inputs CSV")
    p.add_argument("--y", help="targets CSV")
    p.add_argument("--x-test", help="test inputs CSV")
    p.add_argument("--y-test", help="test targets CSV")
    p.add_argument("--k", type=int, default=2, help="filter taps")
    p.add_argument("--model", choices=["filter", "gnn2"], default="filter", help="model class")
    p.add_argument("--width", type=int, default=50, help="hidden features for gnn2")
    p.add_argument("--eta", type=float, help="learning rate")
    p.add_argument("--epochs", type=int, default=100, help="training epochs")
    p.add_argument("--kappa", type=float, default=1.0, help="initialization scale")
    p.add_argument("--optimizer", choices=["gd", "adam"], default="adam", help="update rule")
    p.add_argument("--batch-size", type=int, default=0, help="0 = full batch")
    _add_gso_flags(p)
    _add_shared_flags(p)

    p = sub.add_parser("compare", help="train matched models across shift operators")
    p.add_argument("--series", help="series CSV to extract pairs from")
    p.add_argument("--dt", type=int, default=1, help="pair horizon for --series")
    p.add_argument("--m-train", type=int, default=200, help="training pairs")
    p.add_argument("--m-test", type=int, help="test pairs (default m_train/10)")
    p.add_argument("--x", help="inputs CSV (alternative to --series)")
    p.add_argument("--y", help="targets CSV")
    p.add_argument("--x-test", help="test inputs CSV")
    p.add_argument("--y-test", help="test targets CSV")
    p.add_argument("--gso", default="cxy,cxx", help="comma list of arms from {cxy, cxx}")
    p.add_argument(
        "--raw-cxy",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="use the unsymmetrized cross-covariance for the cxy arm",
    )
    p.add_argument("--k", type=int, default=2, help="filter taps")
    p.add_argument("--model", choices=["filter", "gnn2"], default="gnn2", help="model class")
    p.add_argument("--width", type=int, default=50, help="hidden features for gnn2")
    p.add_argument("--eta", type=float, help="learning rate")
    p.add_argument("--epochs", type=int, default=50, help="training epochs")
    p.add_argument("--kappa", type=float, default=1.0, help="initialization scale")
    p.add_argument("--optimizer", choices=["gd", "adam"], default="adam", help="update rule")
    p.add_argument("--batch-size", type=int, default=0, help="0 = full batch")
    p.add_argument("--reps", type=int, default=10, help="seeded repetitions")
    _add_shared_flags(p)

    p = sub.add_parser("verify-bounds", help="run the inequality and optimality sweeps")
    p.add_argument("--instances", type=int, default=500, help="instances per inequality sweep")
    p.add_argument(
        "--checks", default=",".join(DEFAULT_SWEEP_CHECKS), help="comma list of sweep names"
    )
    p.add_argument(
        "--optimality-instances",
        type=int,
        default=1000,
        help="instances for the optimal-GSO sweep (0 disables)",
    )
    p.add_argument("--k", type=int, default=2, help="taps for the optimality sweep (runs when 2)")
    p.add_argument("--alpha", type=float, default=1.0, help="budget numerator")
    p.add_argument("--eta", type=float, default=1.0, help="learning rate in the budget")
    _add_shared_flags(p)

    p = sub.add_parser("verify-hermite", help="self-check the activation-expansion layer")
    p.add_argument("--n-points", type=int, default=64, help="quadrature points")
    _add_shared_flags(p)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # file flags go before the command line's, so a flag given there wins
            ns = parser.parse_args([argv[0], *_config_flags(ns), *argv[1:]])
        cfg = vars(ns)
        return COMMANDS[cfg.pop("subcommand")](cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(
            f"error: training diverged at epoch {exc.step}; reduce --eta or --kappa",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError, TruncationError, CorrelationOvershootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
