"""Batch front end: flat key-value config files, solver dispatch, and
machine-readable artifacts.

Config files are line-oriented UTF-8 ``key = value`` text with ``#`` comments and
dotted key sections (``model.*``, ``solver.*``, ``sweep.*``, ``output.*``).
Decimal numbers are read by ``float``, as the double their exact value
rounds to; rational literals such as ``13/30`` and other forms are parsed
exactly by ``Fraction``.  Unknown keys are rejected with their line number.

Commands (see README for the full key reference):

    solve    --config FILE [--out FILE]      modes bayes|entropic|avar|robust
    figure   --config FILE [--out FILE]      modes figure-entropic|figure-avar
    simulate --config FILE [--dump-trajectories FILE]

Flags name files; config keys set the run (``simulate.seed`` and
``simulate.samples`` included).

Exit status: 0 on success, 1 on configuration errors and on output files
that cannot be written (checked before any solve where possible), 2 when a
solver guard refuses the run: the tree node cap or the trajectory cap.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import seqtest
from .ambiguity import (
    SaddleCertificate, SaddleResult, certify_saddle, check_gamma, gap_tolerance, solve,
)
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
#: the config modes each command runs
COMMAND_MODES = {"solve": SOLVE_MODES, "figure": FIGURE_MODES, "simulate": ("simulate",)}

TRAJECTORY_HEADER = ("trajectory", "probability", "total_cost")
#: most values a start:stop:step sweep range may expand to
MAX_SWEEP_VALUES = 10_000
#: an ASCII decimal literal, which float() rounds once, as float(Fraction()) does
_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


class RunConfig(NamedTuple):
    """A parsed config: its mode, model, prior, gamma, caps and run options."""

    mode: str
    model: StatisticalMDP
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
        self.tables: dict[str, list[str]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = map(str.strip, line.split("=", 1))
            if not key:
                raise ConfigError(f"line {lineno}: empty key")
            if key in self.values:
                first = self.values[key][1]
                raise ConfigError(
                    f"line {lineno}: duplicate key {key} (first set on line {first})"
                )
            self.values[key] = (value, lineno)
            parts = key.split(".", 2)
            if len(parts) == 3:
                self.tables.setdefault(f"{parts[0]}.{parts[1]}.", []).append(key)
        self.consumed: set[str] = set()

    def take(self, key: str, default: str | None = None, required: bool = False):
        if key in self.values:
            self.consumed.add(key)
            return self.values[key]
        if required:
            raise ConfigError(f"missing required key {key}")
        return (default, 0)

    def integer(self, key: str, minimum: int, default: int | None = None) -> int:
        """The value of ``key`` as an integer of at least ``minimum``; a key
        without a default is required."""
        if default is not None and key not in self.values:
            return default
        raw, lineno = self.take(key, required=True)
        value = _integer(key, raw, lineno)
        if value < minimum:
            raise _err(lineno, key, f"must be >= {minimum}")
        return value

    def take_prefixed(self, head: str):
        keys = sorted(self.tables.get(head, ()))
        self.consumed.update(keys)
        return [(key, *self.values[key]) for key in keys]

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
    # Fraction reads the rest and '-' zeros: -0 is +0.0 there, -1e-400 is -0.0
    if _DECIMAL.fullmatch(raw):
        value = float(raw)
        if math.isfinite(value) and (value or raw[0] != "-"):
            return value
    from fractions import Fraction  # imported on use: it loads decimal, slow to import
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
    # keys split on '.', and lines on their first '='
    for label, char in itertools.product(parts, ".="):
        if char in label:
            raise _err(lineno, key, f"label {label!r} contains {char!r}, so no key can name it")
    return parts


def _sweep_values(key: str, raw: str, lineno: int) -> tuple[float, ...]:
    """Either a whitespace/comma list or an inclusive range start:stop:step
    of at most MAX_SWEEP_VALUES values, counted before any is made; value i
    is (a + i*b) / D for start = a/D and step = b/D, as float(start + i*step)."""
    if ":" in raw:
        from fractions import Fraction
        pieces = raw.split(":")
        if len(pieces) != 3:
            raise _err(lineno, key, f"range must be start:stop:step, got {raw!r}")
        try:
            exact = [Fraction(p.strip()) for p in pieces]
        except (ValueError, ZeroDivisionError):
            raise _err(lineno, key, f"bad range literal: {raw!r}") from None
        d = math.lcm(*(f.denominator for f in exact))
        start, stop, step = (f.numerator * (d // f.denominator) for f in exact)
        if step <= 0 or stop < start:
            raise _err(lineno, key, "range requires step > 0 and stop >= start")
        count = (stop - start) // step + 1
        if count > MAX_SWEEP_VALUES:
            raise _err(lineno, key, f"range has {count} values, at most {MAX_SWEEP_VALUES}")
        try:
            return tuple((start + i * step) / d for i in range(count))
        except OverflowError:
            raise _err(lineno, key, f"out of float range: {raw!r}") from None
    return tuple(_number_list(key, raw, lineno))


def _parse_seqtest_model(entries: _Entries) -> StatisticalMDP:
    fields = {"horizon": entries.integer("model.horizon", 0, default=1)}
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
    horizon = entries.integer("model.horizon", 1)
    raw, lineno = entries.take("model.states", required=True)
    states = _labels("model.states", raw, lineno)
    raw, lineno = entries.take("model.actions", required=True)
    actions = _labels("model.actions", raw, lineno)
    raw, lineno = entries.take("model.params", required=True)
    params = _labels("model.params", raw, lineno)
    n_e, n_a, n_k = len(states), len(actions), len(params)
    labels = {"state": states, "action": actions, "param": params}
    positions = {field: {x: i for i, x in enumerate(names)} for field, names in labels.items()}

    def index(field, token, key, lineno):
        """The table index a key field names: every epoch for ``*``."""
        if field == "epoch":
            if token == "*":
                return slice(None)
            epoch = _integer(key, token, lineno)
            if not 0 <= epoch < horizon:
                raise _err(lineno, key, f"epoch {epoch} outside 0..{horizon - 1}")
            return epoch
        if token not in positions[field]:
            name = "parameter" if field == "param" else field
            raise _err(lineno, key, f"unknown {name} {token!r}")
        return positions[field][token]

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

    mode, lineno = entries.take("mode", required=True)
    if mode not in ALL_MODES:
        raise _err(lineno, "mode", f"must be one of {', '.join(ALL_MODES)}")

    name, lineno = entries.take("model.name", default="seqtest")
    if name == "seqtest":
        model = _parse_seqtest_model(entries)
    elif name == "inline":
        model = _parse_inline_model(entries)
    else:
        raise _err(lineno, "model.name", f"must be 'seqtest' or 'inline', got {name!r}")

    diagnostics = validate(model)
    if diagnostics:
        listing = "; ".join(diagnostics)
        raise ConfigError(f"model failed validation: {listing}")

    node_cap = entries.integer("solver.node_cap", 1, default=DEFAULT_NODE_CAP)
    trajectory_cap = entries.integer("solver.trajectory_cap", 1, default=DEFAULT_TRAJECTORY_CAP)
    out_path, _ = entries.take("output.path")

    gamma = None
    if mode in GAMMA_MODES:
        raw, lineno = entries.take("solver.gamma", required=True)
        gamma = _number("solver.gamma", raw, lineno)
        _check_gamma(model, mode, gamma, "solver.gamma", lineno)
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
                _check_gamma(model, _outer_mode(mode), value, "sweep.gamma", lineno)
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
        label, lineno = entries.take("simulate.theta", required=True)
        if label not in model.params.labels:
            raise _err(
                lineno, "simulate.theta",
                f"unknown parameter {label!r}; expected one of {model.params.labels}",
            )
        theta = model.params.index(label)
        samples = entries.integer("simulate.samples", 1, default=10_000)
        seed = entries.integer("simulate.seed", 0, default=0)
    else:
        for key in ("simulate.theta", "simulate.samples", "simulate.seed"):
            entries.forbid(key, f"not allowed in mode {mode}")

    entries.reject_unknown()
    return RunConfig(
        mode=mode,
        model=model,
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


def _check_gamma(model: StatisticalMDP, mode: str, gamma: float, key: str, lineno: int) -> None:
    try:
        check_gamma(model, mode, gamma)
    except ValueError as exc:
        raise _err(lineno, key, f"{exc}, got {gamma}") from None


def _outer_mode(figure_mode: str) -> str:
    return figure_mode.removeprefix("figure-")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _policy_json(policy: DeterministicPolicy) -> str:
    """The policy table as JSON text: a row per decision node with its
    epoch, state, belief and action, sorted by epoch, state label and belief,
    tied rows in node order.  The text is the one ``json.dumps`` writes for
    the list of row dicts with sorted keys: each label is encoded by
    ``json.dumps``, and each distinct belief value (by its bits; beliefs are
    finite) by ``float.__repr__``, as the encoder does, but once."""
    tree, model = policy.tree, policy.tree.model
    decided = int(tree.offsets[-2])  # the nodes below the horizon
    if not decided:
        return "[]"
    epoch = tree.offsets[1:].searchsorted(np.arange(decided), "right")
    state = np.concatenate([e.state for e in tree.epochs])[:decided]
    belief = tree.belief[:decided]
    ranks = {label: rank for rank, label in enumerate(sorted(model.states))}
    state_rank = np.array([ranks[label] for label in model.states])
    order = np.lexsort((*belief.T[::-1], state_rank[state], epoch))
    values, which = np.unique(belief[order].view(np.uint64), return_inverse=True)
    floats = np.array(list(map(float.__repr__, values.view(np.float64).tolist())), dtype=object)
    fields = np.empty((decided, model.n_params + 3), dtype=object)
    fields[:, 0] = np.array([json.dumps(a) for a in model.actions], dtype=object)[
        np.asarray(policy.actions)[:decided][order]]
    fields[:, 1:-2] = floats[which.reshape(decided, -1)]
    fields[:, -2] = epoch[order]
    fields[:, -1] = np.array([json.dumps(x) for x in model.states], dtype=object)[state[order]]
    row = (
        '{"action": %s, "belief": [' + ", ".join(["%s"] * model.n_params)
        + '], "epoch": %d, "state": %s}'
    )
    return "[" + ", ".join([row] * decided) % tuple(fields.ravel().tolist()) + "]"


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
        "policy": result.policy,
        "certificate": None if cert is None else cert._asdict(),
        "trace": [[mu.weights.tolist(), value] for mu, value in result.trace],
    }


def bayes_to_dict(solution: ValueSolution) -> dict:
    return {
        "mode": "bayes",
        "value": solution.value,
        "prior": solution.tree.prior.weights.tolist(),
        "nodes": len(solution.tree),
        "nodes_per_epoch": solution.tree.nodes_per_epoch,
        "policy": solution.policy,
    }


def _write(path: str, text: str) -> None:
    """Write an artifact; an OSError names ``path``, and ``main`` reports it."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        exc.filename = path
        raise


def _check_writable(path: str) -> None:
    """Raise the OSError writing ``path`` would for a missing directory, a
    directory or an unwritable file, creating and truncating nothing."""
    parent = os.path.dirname(path) or "."
    # append truncates nothing, and creates nothing without a parent directory
    if os.path.isfile(path) or os.path.isdir(path) or not os.path.isdir(parent):
        with open(path, "a"):
            pass


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True)`` and a newline; a
    ``DeterministicPolicy`` under ``"policy"`` is written as its policy
    table, and every other value by ``json.dumps``."""
    policy = payload.get("policy")
    if not isinstance(policy, DeterministicPolicy):
        return json.dumps(payload, sort_keys=True) + "\n"
    # null holds the table's place: no value of a key that sorts before
    # "policy" is a dict with a "policy" key, so the first match is the top
    # level's
    head, _, tail = json.dumps({**payload, "policy": None}, sort_keys=True).partition(
        '"policy": null'
    )
    return "".join((head, '"policy": ', _policy_json(policy), tail, "\n"))


def _write_csv(path: str, header: tuple, rows) -> None:
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, buffer.getvalue())


def _run_solve(config: RunConfig, out_path: str | None) -> None:
    if config.mode == "bayes":
        solution = solve_bayes(config.model, config.prior)
        payload = bayes_to_dict(solution)
        print(f"bayes value = {_fmt(solution.value)}")
        print(f"policy rows = {solution.tree.offsets[-2]}")
    else:
        result = solve(config.model, config.mode, config.prior, config.gamma)
        cert = certify_saddle(config.model, result)
        payload = saddle_to_dict(result, cert)
        print(f"{result.mode} value = {_fmt(result.value)}")
        print(f"worst prior = {[_fmt(w) for w in result.worst_prior.weights]}")
        print(f"duality gap = {_fmt(result.gap)}")
        print(
            f"certificate: prior side {'ok' if cert.mu_side_ok else 'FAILED'}, "
            f"policy side {'ok' if cert.pi_side_ok else 'FAILED'}"
        )
    if out_path:
        _write(out_path, _json_text(payload))
        print(f"wrote {out_path}")


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


def _run_figure(config: RunConfig, out_path: str) -> None:
    rows, gaps = _figure_rows(config)
    header = ("gamma", "prior", *FIGURE_COLUMNS[config.mode], "value")
    _write_csv(out_path, header, ([_fmt(v) for v in row] for row in rows))
    print(f"wrote {out_path} ({len(rows)} rows)")
    # the CSV headers are fixed, so gaps are reported beside the file
    tol = gap_tolerance(config.model)
    wide = sum(gap > tol for gap in gaps)
    print(
        f"duality gap > {tol:g} in {wide} of {len(gaps)} outer solves "
        f"(largest {_fmt(max(gaps, default=0.0))})",
        file=sys.stderr,
    )


def _run_simulate(config: RunConfig, out_path: str | None, dump_path: str | None) -> None:
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
    print(f"policy: Bayes-optimal at prior, value = {_fmt(solution.value)}")
    print(f"exact cost under {label} = {_fmt(exact)} ({len(records)} trajectories)")
    print(
        f"monte carlo ({config.samples} samples, seed {config.seed}): "
        f"{_fmt(mean)} +/- {_fmt(half_width)}"
    )
    if dump_path:
        _write_csv(dump_path, TRAJECTORY_HEADER, (
            (" ".join(r.sequence), _fmt(r.probability), _fmt(r.total_cost)) for r in records
        ))
        print(f"wrote {dump_path} ({len(records)} trajectories)")
    if out_path:
        _write(out_path, _json_text({
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
        }))
        print(f"wrote {out_path}")


def run(config: RunConfig, out_path: str | None = None, dump_path: str | None = None) -> None:
    """Execute a parsed configuration, writing artifacts as requested.
    The model's belief DAG is built once, under ``config.node_cap``, and
    every solve of the run reads it, after the output paths are checked.
    Raises ConfigError, OSError from a write, or the solver guard exceptions;
    the command-line wrapper maps those to exit codes."""
    out_path = out_path or config.out_path
    if config.mode in FIGURE_MODES and not out_path:
        raise ConfigError("figure modes require output.path (or --out)")
    for path in filter(None, (out_path, dump_path)):
        _check_writable(path)
    build_tree(config.model, Belief.uniform(config.model.n_params), config.node_cap)
    if config.mode in SOLVE_MODES:
        _run_solve(config, out_path)
    elif config.mode in FIGURE_MODES:
        _run_figure(config, out_path)
    else:
        _run_simulate(config, out_path, dump_path)


def _load(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ambmdp",
        description="Finite-horizon Bayesian MDP solver with ambiguity aversion",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text, path in (
        ("solve", "run a single solver mode", "--out"),
        ("figure", "sweep gamma/prior grids to CSV", "--out"),
        ("simulate", "Monte-Carlo cross-check", "--dump-trajectories"),
    ):
        command = commands.add_parser(name, help=text)
        command.add_argument("--config", required=True)
        command.add_argument(path, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load(args.config)
        expected = COMMAND_MODES[args.command]
        if config.mode not in expected:
            raise ConfigError(
                f"command {args.command} requires mode in {expected}, "
                f"config has {config.mode}"
            )
        run(config, getattr(args, "out", None), getattr(args, "dump_trajectories", None))
        if sys.stdout is not None:  # None when descriptor 1 was closed at start
            sys.stdout.flush()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TreeSizeLimitError, TrajectoryLimitError) as exc:
        print(f"solver guard: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is not None:
            print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 1
        print(f"cannot write standard output: {exc.strerror}", file=sys.stderr)
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no descriptor, or closed
            return 1
        # the interpreter flushes stdout again on exit; let that write succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
