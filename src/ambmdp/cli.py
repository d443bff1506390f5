"""Batch front end: flat key-value config files, solver dispatch, and
machine-readable artifacts.

Config files are line-oriented ``key = value`` text with ``#`` comments and
dotted key sections (``model.*``, ``solver.*``, ``sweep.*``, ``output.*``).
Numeric values accept rational literals such as ``13/30``, parsed exactly
before conversion to float.  Unknown keys are rejected with their line
number.

Commands (see README for the full key reference):

    solve    --config FILE [--out FILE]      modes bayes|entropic|avar|robust
    figure   --config FILE [--out FILE]      modes figure-entropic|figure-avar
    simulate --config FILE [--seed N] [--samples N] [--dump-trajectories FILE]

Exit status: 0 on success, 1 on configuration errors and on output files
that cannot be written, 2 when a solver guard refuses the run: the tree
node cap or the trajectory cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import seqtest
from .ambiguity import SaddleCertificate, SaddleResult, certify_saddle, check_gamma, solve
from .bayes import (
    DEFAULT_NODE_CAP, DeterministicPolicy, ValueSolution, build_tree, solve_bayes,
)
from .errors import ConfigError, TrajectoryLimitError, TreeSizeLimitError
from .model import Belief, ParameterSet, StatisticalMDP, validate
from .oracle import DEFAULT_TRAJECTORY_CAP, enumerate_cost, mc_estimate

SOLVE_MODES = ("bayes", "entropic", "avar", "robust")
#: solve modes that take solver.gamma
GAMMA_MODES = ("entropic", "avar")
#: per figure mode, the result fields whose first weight fills the columns
#: between prior and value; the outer mode is the name after "figure-"
FIGURE_COLUMNS = {
    "figure-entropic": ("worst_prior",),
    "figure-avar": ("worst_prior_lo", "worst_prior_hi"),
}
FIGURE_MODES = tuple(FIGURE_COLUMNS)
ALL_MODES = SOLVE_MODES + FIGURE_MODES + ("simulate",)

TRAJECTORY_HEADER = ("trajectory", "probability", "total_cost")
#: outer solves of a figure whose duality gap exceeds this are counted on stderr
FIGURE_GAP_TOL = 1e-6
#: most values a start:stop:step sweep range may expand to
MAX_SWEEP_VALUES = 10_000


@dataclass
class RunConfig:
    mode: str
    model: StatisticalMDP
    model_name: str
    prior: Belief | None
    gamma: float | None
    node_cap: int
    trajectory_cap: int
    gamma_sweep: tuple[float, ...] | None
    prior_sweep: tuple[float, ...] | None
    samples: int
    seed: int
    theta: int | None
    out_path: str | None


class _Entries:
    """Config key table that tracks consumption for unknown-key detection."""

    def __init__(self, text: str):
        self.values: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"line {lineno}: empty key")
            if key in self.values:
                first = self.values[key][1]
                raise ConfigError(
                    f"line {lineno}: duplicate key {key} (first set on line {first})"
                )
            self.values[key] = (value, lineno)
        self.consumed: set[str] = set()

    def take(self, key: str, default: str | None = None, required: bool = False):
        if key in self.values:
            self.consumed.add(key)
            return self.values[key]
        if required:
            raise ConfigError(f"missing required key {key}")
        return (default, 0) if default is not None else (None, 0)

    def take_prefixed(self, prefix: str):
        out = []
        for key in sorted(self.values):
            if key.startswith(prefix):
                self.consumed.add(key)
                out.append((key, *self.values[key]))
        return out

    def forbid(self, key: str, reason: str):
        if key in self.values:
            _, lineno = self.values[key]
            raise ConfigError(f"line {lineno}: {key}: {reason}")

    def reject_unknown(self):
        unknown = sorted(set(self.values) - self.consumed)
        if unknown:
            lines = ", ".join(
                f"{key} (line {self.values[key][1]})" for key in unknown
            )
            raise ConfigError(f"unknown keys: {lines}")


def _err(lineno: int, key: str, message: str) -> ConfigError:
    where = f"line {lineno}: " if lineno else ""
    return ConfigError(f"{where}{key}: {message}")


def _number(key: str, raw: str, lineno: int) -> float:
    try:
        return float(Fraction(raw))
    except (ValueError, ZeroDivisionError):
        raise _err(lineno, key, f"not a number or rational literal: {raw!r}") from None
    except OverflowError:
        raise _err(lineno, key, f"out of float range: {raw!r}") from None


def _integer(key: str, raw: str, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _err(lineno, key, f"not an integer: {raw!r}") from None


def _number_list(key: str, raw: str, lineno: int) -> list[float]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise _err(lineno, key, "empty value")
    return [_number(key, part, lineno) for part in parts]


def _labels(key: str, raw: str, lineno: int) -> tuple[str, ...]:
    parts = tuple(raw.split())
    if not parts:
        raise _err(lineno, key, "empty label list")
    if len(set(parts)) != len(parts):
        raise _err(lineno, key, "labels must be unique")
    return parts


def _sweep_values(key: str, raw: str, lineno: int) -> tuple[float, ...]:
    """Either a whitespace/comma list or an inclusive range start:stop:step,
    expanded with exact rational arithmetic to at most MAX_SWEEP_VALUES
    values, counted before any is made."""
    if ":" in raw:
        pieces = raw.split(":")
        if len(pieces) != 3:
            raise _err(lineno, key, f"range must be start:stop:step, got {raw!r}")
        try:
            start, stop, step = (Fraction(p.strip()) for p in pieces)
        except (ValueError, ZeroDivisionError):
            raise _err(lineno, key, f"bad range literal: {raw!r}") from None
        if step <= 0 or stop < start:
            raise _err(lineno, key, "range requires step > 0 and stop >= start")
        count = (stop - start) // step + 1
        if count > MAX_SWEEP_VALUES:
            raise _err(lineno, key, f"range has {count} values, at most {MAX_SWEEP_VALUES}")
        try:
            return tuple(float(start + i * step) for i in range(count))
        except OverflowError:
            raise _err(lineno, key, f"out of float range: {raw!r}") from None
    return tuple(_number_list(key, raw, lineno))


def _parse_seqtest_model(entries: _Entries) -> StatisticalMDP:
    fields = {}
    raw, lineno = entries.take("model.horizon", default="1")
    fields["horizon"] = _integer("model.horizon", raw, lineno)
    if fields["horizon"] < 0:
        raise _err(lineno, "model.horizon", "must be >= 0")
    for key, attr, check, what in (
        ("model.observation_cost", "observation_cost", lambda v: v >= 0, ">= 0"),
        ("model.error_cost", "error_cost", lambda v: v >= 0, ">= 0"),
        ("model.p_low", "p_low", lambda v: 0 < v < 1, "strictly inside (0, 1)"),
        ("model.p_high", "p_high", lambda v: 0 < v < 1, "strictly inside (0, 1)"),
    ):
        default = str(getattr(seqtest.DEFAULT_CONFIG, attr))
        raw, lineno = entries.take(key, default=default)
        value = _number(key, raw, lineno)
        if not check(value):
            raise _err(lineno, key, f"must be {what}, got {value}")
        fields[attr] = value
    return seqtest.build_model(seqtest.SeqTestConfig(**fields))


def _parse_inline_model(entries: _Entries) -> StatisticalMDP:
    raw, lineno = entries.take("model.horizon", required=True)
    horizon = _integer("model.horizon", raw, lineno)
    if horizon < 1:
        raise _err(lineno, "model.horizon", "must be >= 1")
    raw, lineno = entries.take("model.states", required=True)
    states = _labels("model.states", raw, lineno)
    raw, lineno = entries.take("model.actions", required=True)
    actions = _labels("model.actions", raw, lineno)
    raw, lineno = entries.take("model.params", required=True)
    params = _labels("model.params", raw, lineno)
    n_e, n_a, n_k = len(states), len(actions), len(params)
    labels = {"state": states, "action": actions, "param": params}

    def index(field, token, key, lineno):
        """The table index a key field names: every epoch for ``*``."""
        if field == "epoch":
            if token == "*":
                return slice(None)
            epoch = _integer(key, token, lineno)
            if not 0 <= epoch < horizon:
                raise _err(lineno, key, f"epoch {epoch} outside 0..{horizon - 1}")
            return epoch
        if token not in labels[field]:
            name = "parameter" if field == "param" else field
            raise _err(lineno, key, f"unknown {name} {token!r}")
        return labels[field].index(token)

    def cells(prefix, fields):
        """Per key ``model.<prefix>.<field>...``: the key, its value, its line
        number, and the index of the table cells it names."""
        head = f"model.{prefix}."
        for key, raw, lineno in entries.take_prefixed(head):
            tail = key.removeprefix(head).split(".")
            if len(tail) != len(fields):
                form = ".".join(f"<{field}>" for field in fields)
                raise _err(lineno, key, f"expected {head}{form}")
            yield key, raw, lineno, tuple(
                index(field, token, key, lineno) for field, token in zip(fields, tail)
            )

    def row(key, raw, lineno, what):
        values = _number_list(key, raw, lineno)
        if len(values) != n_e:
            raise _err(lineno, key, f"expected {n_e} {what}, got {len(values)}")
        return values

    initial = np.zeros((n_k, n_e))
    given = np.zeros(n_k, dtype=bool)
    for key, raw, lineno, where in cells("initial", ("param",)):
        initial[where] = row(key, raw, lineno, "probabilities")
        given[where] = True
    if not given.all():
        missing = ", ".join(params[k] for k in np.flatnonzero(~given))
        raise ConfigError(f"missing model.initial.<param> for: {missing}")

    feasible = np.ones((horizon, n_e, n_a), dtype=bool)
    for key, raw, lineno, where in cells("feasible", ("epoch", "state")):
        feasible[where] = False
        for token in raw.split():
            feasible[where + (index("action", token, key, lineno),)] = True

    # infeasible rows keep a valid filler distribution; validation skips them
    transition = np.zeros((horizon, n_k, n_e, n_a, n_e))
    transition[..., 0] = 1.0
    assigned = np.zeros((horizon, n_k, n_e, n_a), dtype=bool)
    for key, raw, lineno, where in cells("transition", ("epoch", "param", "state", "action")):
        transition[where] = row(key, raw, lineno, "probabilities")
        assigned[where] = True

    stage = np.zeros((horizon, n_k, n_e, n_a))
    for key, raw, lineno, where in cells("cost", ("epoch", "param", "state", "action")):
        stage[where] = _number(key, raw, lineno)

    terminal = np.zeros((n_k, n_e))
    for key, raw, lineno, where in cells("terminal", ("param",)):
        terminal[where] = row(key, raw, lineno, "costs")

    # the first in (epoch, state, action, parameter) order
    unset = np.argwhere(feasible[..., None] & ~assigned.transpose(0, 2, 3, 1))
    if unset.size:
        n, x, a, k = unset[0]
        raise ConfigError(
            f"missing model.transition row for epoch {n}, param {params[k]}, "
            f"state {states[x]}, action {actions[a]}"
        )

    return StatisticalMDP(
        horizon=horizon,
        states=states,
        actions=actions,
        params=ParameterSet(params),
        feasible=[[np.flatnonzero(acts) for acts in per_state] for per_state in feasible],
        initial_kernel=initial,
        transition=transition,
        stage_cost=stage,
        terminal_cost=terminal,
    )


def _parse_prior(entries: _Entries, model: StatisticalMDP) -> Belief:
    raw, lineno = entries.take("prior", required=True)
    values = _number_list("prior", raw, lineno)
    if len(values) == 1 and model.n_params == 2:
        mu = values[0]
        if not 0.0 <= mu <= 1.0:
            raise _err(lineno, "prior", f"scalar prior must lie in [0, 1], got {mu}")
        values = [mu, 1.0 - mu]
    if len(values) != model.n_params:
        raise _err(
            lineno, "prior",
            f"expected {model.n_params} weights (or a scalar for two parameters)",
        )
    try:
        return Belief(np.array(values))
    except ValueError as exc:
        raise _err(lineno, "prior", str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; raises ConfigError with line and
    field information on any defect, including model invariant violations."""
    entries = _Entries(text)

    raw, lineno = entries.take("mode", required=True)
    mode = raw.strip()
    if mode not in ALL_MODES:
        raise _err(lineno, "mode", f"must be one of {', '.join(ALL_MODES)}")

    raw, lineno = entries.take("model.name", default="seqtest")
    model_name = raw.strip()
    if model_name == "seqtest":
        model = _parse_seqtest_model(entries)
    elif model_name == "inline":
        model = _parse_inline_model(entries)
    else:
        raise _err(lineno, "model.name", f"must be 'seqtest' or 'inline', got {raw!r}")

    diagnostics = validate(model)
    if diagnostics:
        listing = "; ".join(diagnostics)
        raise ConfigError(f"model failed validation: {listing}")

    raw, lineno = entries.take("solver.node_cap", default=str(DEFAULT_NODE_CAP))
    node_cap = _integer("solver.node_cap", raw, lineno)
    if node_cap < 1:
        raise _err(lineno, "solver.node_cap", "must be >= 1")
    raw, lineno = entries.take(
        "solver.trajectory_cap", default=str(DEFAULT_TRAJECTORY_CAP)
    )
    trajectory_cap = _integer("solver.trajectory_cap", raw, lineno)
    if trajectory_cap < 1:
        raise _err(lineno, "solver.trajectory_cap", "must be >= 1")
    raw, _ = entries.take("output.path")
    out_path = raw

    gamma = None
    if mode in GAMMA_MODES:
        raw, lineno = entries.take("solver.gamma", required=True)
        gamma = _number("solver.gamma", raw, lineno)
        _check_gamma(mode, gamma, "solver.gamma", lineno)
    else:
        entries.forbid("solver.gamma", f"not allowed in mode {mode}")

    gamma_sweep = prior_sweep = None
    if mode in FIGURE_MODES:
        entries.forbid("prior", "figure modes take sweep.prior instead")
        if model.n_params != 2:
            raise ConfigError("figure modes require a two-parameter model")
        raw, lineno = entries.take("sweep.gamma", required=True)
        gamma_sweep = _sweep_values("sweep.gamma", raw, lineno)
        for value in gamma_sweep:
            # gamma = 0 rows take the plain Bayes value
            if value != 0.0:
                _check_gamma(_outer_mode(mode), value, "sweep.gamma", lineno)
        raw, lineno = entries.take("sweep.prior", required=True)
        prior_sweep = _sweep_values("sweep.prior", raw, lineno)
        for value in prior_sweep:
            if not 0 <= value <= 1:
                raise _err(lineno, "sweep.prior", f"values must lie in [0, 1], got {value}")
        prior = None
    else:
        for key in ("sweep.gamma", "sweep.prior"):
            entries.forbid(key, f"not allowed in mode {mode}")
        prior = _parse_prior(entries, model)

    samples, seed, theta = 10_000, 0, None
    if mode == "simulate":
        raw, lineno = entries.take("simulate.theta", required=True)
        label = raw.strip()
        if label not in model.params.labels:
            raise _err(
                lineno, "simulate.theta",
                f"unknown parameter {label!r}; expected one of {model.params.labels}",
            )
        theta = model.params.index(label)
        raw, lineno = entries.take("simulate.samples", default="10000")
        samples = _integer("simulate.samples", raw, lineno)
        if samples < 1:
            raise _err(lineno, "simulate.samples", "must be >= 1")
        raw, lineno = entries.take("simulate.seed", default="0")
        seed = _integer("simulate.seed", raw, lineno)
        if seed < 0:
            raise _err(lineno, "simulate.seed", "must be >= 0")
    else:
        for key in ("simulate.theta", "simulate.samples", "simulate.seed"):
            entries.forbid(key, f"not allowed in mode {mode}")

    entries.reject_unknown()
    return RunConfig(
        mode=mode,
        model=model,
        model_name=model_name,
        prior=prior,
        gamma=gamma,
        node_cap=node_cap,
        trajectory_cap=trajectory_cap,
        gamma_sweep=gamma_sweep,
        prior_sweep=prior_sweep,
        samples=samples,
        seed=seed,
        theta=theta,
        out_path=out_path,
    )


def _check_gamma(mode: str, gamma: float, key: str, lineno: int) -> None:
    try:
        check_gamma(mode, gamma)
    except ValueError as exc:
        raise _err(lineno, key, f"{exc}, got {gamma}") from None


def _outer_mode(figure_mode: str) -> str:
    return figure_mode.removeprefix("figure-")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def policy_rows(policy: DeterministicPolicy) -> list[dict]:
    tree = policy.tree
    model = tree.model
    rows = []
    for n, epoch in enumerate(tree.epochs[:-1]):
        nodes = slice(tree.offsets[n], tree.offsets[n + 1])
        for state, belief, action in zip(
            epoch.state.tolist(), tree.belief[nodes].tolist(), policy.actions[nodes].tolist()
        ):
            rows.append(
                {
                    "epoch": n,
                    "state": model.states[state],
                    "belief": belief,
                    "action": model.actions[action],
                }
            )
    rows.sort(key=lambda r: (r["epoch"], r["state"], r["belief"]))
    return rows


def certificate_to_dict(cert: SaddleCertificate) -> dict:
    return {
        "mu_side_ok": cert.mu_side_ok,
        "mu_side_violation": cert.mu_side_violation,
        "pi_side_ok": cert.pi_side_ok,
        "pi_side_error": cert.pi_side_error,
        "gap": cert.gap,
        "grid_points": cert.grid_points,
        "tol": cert.tol,
    }


def saddle_to_dict(result: SaddleResult, cert: SaddleCertificate | None) -> dict:
    return {
        "mode": result.mode,
        "gamma": result.gamma,
        "value": result.value,
        "gap": result.gap,
        "base_prior": None
        if result.base_prior is None
        else result.base_prior.weights.tolist(),
        "worst_prior": result.worst_prior.weights.tolist(),
        "worst_prior_lo": result.worst_prior_lo.weights.tolist(),
        "worst_prior_hi": result.worst_prior_hi.weights.tolist(),
        "support": list(result.support),
        "cost_profile": result.cost_profile.tolist(),
        "policy": policy_rows(result.policy),
        "certificate": None if cert is None else certificate_to_dict(cert),
        "trace": [[mu.weights.tolist(), value] for mu, value in result.trace],
    }


def bayes_to_dict(solution: ValueSolution) -> dict:
    return {
        "mode": "bayes",
        "value": solution.value,
        "prior": solution.tree.prior.weights.tolist(),
        "nodes": len(solution.tree),
        "nodes_per_epoch": solution.tree.nodes_per_epoch,
        "policy": policy_rows(solution.policy),
    }


def _write(path: str, text: str) -> None:
    """Write an artifact; an OSError names ``path``, and ``main`` reports it."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        exc.filename = path
        raise


def _write_json(path: str, payload: dict):
    _write(path, json.dumps(payload, sort_keys=True) + "\n")


def _write_csv(path: str, header: tuple, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, buffer.getvalue())


def _run_solve(config: RunConfig, out_path: str | None, stdout) -> None:
    if config.mode == "bayes":
        solution = solve_bayes(config.model, config.prior)
        payload = bayes_to_dict(solution)
        print(f"bayes value = {_fmt(solution.value)}", file=stdout)
        print(f"policy rows = {len(payload['policy'])}", file=stdout)
    else:
        result = solve(config.model, config.mode, config.prior, config.gamma)
        cert = certify_saddle(config.model, result)
        payload = saddle_to_dict(result, cert)
        print(f"{result.mode} value = {_fmt(result.value)}", file=stdout)
        print(f"worst prior = {[_fmt(w) for w in result.worst_prior.weights]}", file=stdout)
        print(f"duality gap = {_fmt(result.gap)}", file=stdout)
        print(
            f"certificate: prior side {'ok' if cert.mu_side_ok else 'FAILED'}, "
            f"policy side {'ok' if cert.pi_side_ok else 'FAILED'}",
            file=stdout,
        )
    if out_path:
        _write_json(out_path, payload)
        print(f"wrote {out_path}", file=stdout)


def _figure_rows(config: RunConfig) -> tuple[list[tuple], list[float]]:
    """CSV rows, and the duality gap of each outer solve among them."""
    model = config.model
    columns = FIGURE_COLUMNS[config.mode]
    rows, gaps = [], []
    for prior_weight in sorted(config.prior_sweep):
        prior = Belief(np.array([prior_weight, 1.0 - prior_weight]))
        baseline = None
        for gamma in sorted(config.gamma_sweep):
            if gamma == 0.0:
                # the gamma = 0 value is defined as the plain expectation path
                if baseline is None:
                    baseline = solve_bayes(model, prior).value
                rows.append((gamma, prior_weight, *[prior_weight] * len(columns), baseline))
                continue
            result = solve(model, _outer_mode(config.mode), prior, gamma)
            worst = [float(getattr(result, name).weights[0]) for name in columns]
            rows.append((gamma, prior_weight, *worst, result.value))
            gaps.append(result.gap)
    return rows, gaps


def _run_figure(config: RunConfig, out_path: str, stdout) -> None:
    rows, gaps = _figure_rows(config)
    header = ("gamma", "prior", *FIGURE_COLUMNS[config.mode], "value")
    _write_csv(out_path, header, ([_fmt(v) for v in row] for row in rows))
    print(f"wrote {out_path} ({len(rows)} rows)", file=stdout)
    # the CSV headers are fixed, so gaps are reported beside the file
    wide = sum(gap > FIGURE_GAP_TOL for gap in gaps)
    print(
        f"duality gap > {FIGURE_GAP_TOL:g} in {wide} of {len(gaps)} outer solves "
        f"(largest {_fmt(max(gaps, default=0.0))})",
        file=sys.stderr,
    )


def _run_simulate(
    config: RunConfig, out_path: str | None, dump_path: str | None, stdout
) -> None:
    solution = solve_bayes(config.model, config.prior)
    exact, records = enumerate_cost(
        config.model, config.theta, solution.policy,
        trajectory_cap=config.trajectory_cap,
    )
    mean, half_width = mc_estimate(
        config.model, config.theta, solution.policy,
        samples=config.samples, seed=config.seed,
    )
    label = config.model.params.labels[config.theta]
    print(f"policy: Bayes-optimal at prior, value = {_fmt(solution.value)}", file=stdout)
    print(f"exact cost under {label} = {_fmt(exact)} ({len(records)} trajectories)", file=stdout)
    print(
        f"monte carlo ({config.samples} samples, seed {config.seed}): "
        f"{_fmt(mean)} +/- {_fmt(half_width)}",
        file=stdout,
    )
    if dump_path:
        _write_csv(dump_path, TRAJECTORY_HEADER, (
            (" ".join(r.sequence), _fmt(r.probability), _fmt(r.total_cost)) for r in records
        ))
        print(f"wrote {dump_path} ({len(records)} trajectories)", file=stdout)
    if out_path:
        _write_json(
            out_path,
            {
                "mode": "simulate",
                "theta": label,
                "bayes_value": solution.value,
                "exact_cost": exact,
                "mc_mean": mean,
                "mc_half_width_95": half_width,
                "samples": config.samples,
                "seed": config.seed,
                "trajectories": len(records),
                "nodes_per_epoch": solution.tree.nodes_per_epoch,
            },
        )
        print(f"wrote {out_path}", file=stdout)


def run(
    config: RunConfig,
    out_path: str | None = None,
    dump_path: str | None = None,
    stdout=None,
) -> None:
    """Execute a parsed configuration, writing artifacts as requested.
    The model's belief DAG is built once, under ``config.node_cap``, and
    every solve of the run reads it.  Raises ConfigError, OSError from a
    write, or the solver guard exceptions; the command-line wrapper maps
    those to exit codes."""
    stdout = stdout or sys.stdout
    out_path = out_path or config.out_path
    if config.mode in FIGURE_MODES and not out_path:
        raise ConfigError("figure modes require output.path (or --out)")
    build_tree(config.model, Belief.uniform(config.model.n_params), config.node_cap)
    if config.mode in SOLVE_MODES:
        _run_solve(config, out_path, stdout)
    elif config.mode in FIGURE_MODES:
        _run_figure(config, out_path, stdout)
    else:
        _run_simulate(config, out_path, dump_path, stdout)


def _load(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ambmdp",
        description="Finite-horizon Bayesian MDP solver with ambiguity aversion",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve_cmd = commands.add_parser("solve", help="run a single solver mode")
    solve_cmd.add_argument("--config", required=True)
    solve_cmd.add_argument("--out", default=None)

    figure_cmd = commands.add_parser("figure", help="sweep gamma/prior grids to CSV")
    figure_cmd.add_argument("--config", required=True)
    figure_cmd.add_argument("--out", default=None)

    simulate_cmd = commands.add_parser("simulate", help="Monte-Carlo cross-check")
    simulate_cmd.add_argument("--config", required=True)
    simulate_cmd.add_argument("--seed", type=int, default=None)
    simulate_cmd.add_argument("--samples", type=int, default=None)
    simulate_cmd.add_argument("--dump-trajectories", default=None)

    args = parser.parse_args(argv)
    try:
        config = _load(args.config)
        expected = {
            "solve": SOLVE_MODES,
            "figure": FIGURE_MODES,
            "simulate": ("simulate",),
        }[args.command]
        if config.mode not in expected:
            raise ConfigError(
                f"command {args.command} requires mode in {expected}, "
                f"config has {config.mode}"
            )
        if args.command == "simulate":
            if args.seed is not None:
                if args.seed < 0:
                    raise ConfigError("--seed must be >= 0")
                config.seed = args.seed
            if args.samples is not None:
                if args.samples < 1:
                    raise ConfigError("--samples must be >= 1")
                config.samples = args.samples
            run(config, out_path=None, dump_path=args.dump_trajectories)
        else:
            run(config, out_path=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TreeSizeLimitError, TrajectoryLimitError) as exc:
        print(f"solver guard: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
