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
import bisect
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import seqtest
from .ambiguity import (
    SaddleCertificate, SaddleResult, certify_saddle, check_gamma, gap_tolerance, solve,
)
from .bayes import (
    DEFAULT_NODE_CAP, DeterministicPolicy, ValueSolution, build_tree, solve_bayes,
)
from .errors import ConfigError, TrajectoryLimitError, TreeSizeLimitError
from .model import Belief, ParameterSet, StatisticalMDP, _as_labels, _count, validate
from .oracle import DEFAULT_TRAJECTORY_CAP, SAMPLE_LIMIT, enumerate_cost, mc_estimate

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
#: an ASCII decimal literal, which float() rounds once, as float(Fraction()) does;
#: one way to match a digit run keeps a failing match linear in its length
_DECIMAL = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
#: the characters of such literals, one a line; float() reads no other string of them
_DECIMAL_LINES = re.compile(r"[0-9.eE+\-\n]*")


class RunConfig(namedtuple("RunConfig", "mode model prior gamma node_cap trajectory_cap "
                                        "gamma_sweep prior_sweep samples seed theta out_path")):
    """A parsed config: its mode, ``StatisticalMDP``, prior (a ``Belief`` or
    None), gamma (a float or None), node and trajectory caps, gamma and
    prior sweeps (tuples of floats or None), Monte-Carlo samples and seed,
    simulated parameter index (or None) and output path (or None)."""

    __slots__ = ()


class _Entries:
    """Config key table that tracks consumption for unknown-key detection."""

    def __init__(self, text: str):
        # (value, line number) per key; the first defect in line order is refused
        self.values = values = {}
        for n, raw in enumerate(text.splitlines(), 1):
            head, sep, value = raw.split("#", 1)[0].partition("=")
            key = head.strip()
            if sep and key and key not in values:
                values[key] = (value.strip(), n)
            elif sep or key:
                raise ConfigError(f"line {n}: " + (
                    f"expected 'key = value', got {raw!r}" if not sep else "empty key"
                    if not key else f"duplicate key {key} (first set on line {values[key][1]})"))
        self.keys = sorted(values)
        self.consumed: set[str] = set()

    def take(self, key: str, default: str | None = None, required: bool = False):
        if key in self.values:
            self.consumed.add(key)
            return self.values[key]
        if required:
            raise ConfigError(f"missing required key {key}")
        return (default, 0)

    def integer(self, key: str, minimum: int, default: int) -> int:
        """The value of ``key``, else ``default``, as an integer of at least ``minimum``."""
        return _integer(key, *self.take(key, str(default)), minimum)

    def take_prefixed(self, head: str) -> list[str]:
        """The keys that start with ``head``, which ends in '.', in key order."""
        lo, hi = (bisect.bisect_left(self.keys, bound) for bound in (head, head[:-1] + "/"))
        keys = self.keys[lo:hi]
        self.consumed.update(keys)
        return keys

    def forbid(self, key: str, reason: str):
        if key in self.values:
            raise _err(self.values[key][1], key, reason)

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


def _floats(tokens: list[str], shape=(-1,)) -> np.ndarray | None:
    """The tokens as ``_number`` reads each, in ``shape``, or None if it refuses one:
    plain decimals by one regex match and one ``float`` pass, the rest, zeros (-0
    reads as +0.0) and overflow by ``_number``."""
    try:  # float refuses a malformed literal of those characters, such as 1.2.3, as _number does
        values = list(map(float, tokens)) if _DECIMAL_LINES.fullmatch("\n".join(tokens)) else None
        if values is None or 0.0 in values or math.inf in values or -math.inf in values:
            values = [v if v and math.isfinite(v) else _number("", token, 0)
                      for token, v in zip(tokens, values or [math.nan] * len(tokens))]
    except (ValueError, ConfigError):
        return None
    return np.array(values).reshape(shape)


def _integer(key: str, raw: str, lineno: int, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise _err(lineno, key, f"not an integer: {raw!r}") from None
    if minimum is not None and value < minimum:
        raise _err(lineno, key, f"must be >= {minimum}")
    return value


def _number_list(key: str, raw: str, lineno: int) -> list[float]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise _err(lineno, key, "empty value")
    return [_number(key, part, lineno) for part in parts]


def _labels(key: str, raw: str, lineno: int) -> tuple[str, ...]:
    parts = _on_line(lineno, key, _as_labels, raw.split(), "", "empty label list")
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


def _parse_seqtest_model(entries: _Entries, horizon: int | None) -> StatisticalMDP:
    fields = {} if horizon is None else {"horizon": horizon}
    for name in seqtest.FIELD_RULES:
        raw, lineno = entries.take(key := f"model.{name}")
        if raw is not None:
            fields[name] = _number(key, raw, lineno)
            if fault := seqtest._field_fault(name, fields[name]):
                raise _err(lineno, key, fault)
    return seqtest.build_model(seqtest.SeqTestConfig(**fields))


def _parse_inline_model(entries: _Entries, horizon: int) -> StatisticalMDP:
    states, actions, params = (_labels(key, *entries.take(key, required=True))
                               for key in ("model.states", "model.actions", "model.params"))
    n_e, n_a, n_k = len(states), len(actions), len(params)
    # the table index each key token names, -1 for every epoch; ``table`` adds
    # the epochs its keys name, so the map grows with the keys, not the horizon
    positions = {field: {x: i for i, x in enumerate(names)} for field, names in
                 (("state", states), ("action", actions), ("param", params))}
    positions["epoch"] = {"*": -1}

    def check(field, token, key, lineno):
        """Refuse a key or value token that names no table index."""
        if token in positions[field]:
            return
        if field != "epoch":
            name = "parameter" if field == "param" else field
            raise _err(lineno, key, f"unknown {name} {token!r}")
        if str(_integer(key, token, lineno)) != token:
            raise _err(lineno, key, f"epoch {token!r} must be * or ASCII digits "
                       "with no sign, leading zero or underscore")
        raise _err(lineno, key, f"epoch {token} outside 0..{horizon - 1}")

    def table(prefix, fields, convert, read):
        """Per key ``model.<prefix>.<field>...``, every-epoch keys first, its cells
        (epoch -1 for every epoch) and value, all read by ``convert``; if that
        gives None, the first key with a defect is refused, its value by ``read``."""
        head = f"model.{prefix}."
        keys = entries.take_prefixed(head)
        tails = [key[len(head) :].split(".") for key in keys]
        if fields[0] == "epoch":
            width = len(str(horizon))  # a longer token names no epoch; int() never reads it
            short = [t for t in {tail[0] for tail in tails} if t.isdecimal() and len(t) <= width]
            positions["epoch"].update((str(n), n) for n in map(int, short) if n < horizon)
        maps = itertools.cycle([positions[field] for field in fields])
        flat = list(map(dict.get, maps, itertools.chain.from_iterable(tails)))
        values = None
        if list(map(len, tails)).count(len(fields)) == len(keys) and None not in flat:
            values = convert([entries.values[key][0] for key in keys]) if keys else np.empty(0)
        if values is None:
            for key, tail, (raw, lineno) in zip(keys, tails, map(entries.values.get, keys)):
                if len(tail) != len(fields):
                    raise _err(lineno, key, f"expected {head}{'.'.join(f'<{f}>' for f in fields)}")
                for field, token in zip(fields, tail):
                    check(field, token, key, lineno)
                read(key, raw, lineno)
        return np.array(flat, dtype=np.intp).reshape(-1, len(fields)), values

    def rows(raws):
        """A row of n_e numbers per value, or None."""
        tokens = [raw.replace(",", " ").split() for raw in raws]
        if list(map(len, tokens)).count(n_e) == len(tokens):
            return _floats(list(itertools.chain.from_iterable(tokens)), (-1, n_e))

    def row(key, raw, lineno, what="probabilities"):
        count = len(_number_list(key, raw, lineno))
        if count != n_e:
            raise _err(lineno, key, f"expected {n_e} {what}, got {count}")

    def listed(raws):
        """The mask of the actions each value lists, or None."""
        lists = [raw.split() for raw in raws]
        if set(itertools.chain.from_iterable(lists)) <= positions["action"].keys():
            return np.array([[a in names for a in actions] for names in lists]).reshape(-1, n_a)

    def put(array, index, values):
        """Each key's value at its cells; explicit epochs override every-epoch (-1) keys."""
        every = index[:, 0].tolist().count(-1)
        if every:
            array[(slice(None), *index[:every, 1:].T)] = values[:every]
        if every < len(index):
            array[tuple(index[every:].T)] = values[every:]

    # the largest table first: one too large for memory fails before any is filled;
    # rows no key gives stay NaN, which no number reads as
    shape = (horizon, n_k, n_e, n_a, n_e)
    if math.prod(shape) > sys.maxsize // 8:  # NumPy would refuse it as a ValueError
        raise MemoryError(f"a transition table of shape {shape} exceeds the address space")
    transition = np.full(shape, np.nan)
    initial = np.zeros((n_k, n_e))
    index, values = table("initial", ("param",), rows, row)
    put(initial, index, values)
    if len(index) < n_k:
        missing = ", ".join(label for k, label in enumerate(params) if k not in index)
        raise ConfigError(f"missing model.initial.<param> for: {missing}")

    feasible = np.ones((horizon, n_e, n_a), dtype=bool)
    put(feasible, *table("feasible", ("epoch", "state"), listed, lambda key, raw, lineno: [
        check("action", token, key, lineno) for token in raw.split()]))

    cells = ("epoch", "param", "state", "action")
    put(transition, *table("transition", cells, rows, row))

    stage = np.zeros((horizon, n_k, n_e, n_a))
    put(stage, *table("cost", cells, _floats, _number))

    terminal = np.zeros((n_k, n_e))
    put(terminal, *table("terminal", ("param",), rows, functools.partial(row, what="costs")))

    unset = np.isnan(transition[..., 0])
    if unset.any():
        # infeasible rows get a valid filler distribution; validation skips them
        transition[unset] = np.eye(1, n_e)
        # the first in (epoch, state, action, parameter) order
        missing = np.argwhere(feasible[..., None] & unset.transpose(0, 2, 3, 1))
        if missing.size:
            n, x, a, k = missing[0]
            raise ConfigError(f"missing model.transition row for epoch {n}, param {params[k]}, "
                              f"state {states[x]}, action {actions[a]}")

    return StatisticalMDP(
        horizon=horizon, states=states, actions=actions, params=ParameterSet(params),
        feasible=feasible, initial_kernel=initial, transition=transition, stage_cost=stage,
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
    return _on_line(lineno, "prior", Belief, np.array(values))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; raises ConfigError with line and
    field information on any defect, including model invariant violations,
    and TreeSizeLimitError for a horizon beyond ``solver.node_cap``."""
    entries = _Entries(text)

    mode, lineno = entries.take("mode", required=True)
    if mode not in ALL_MODES:
        raise _err(lineno, "mode", f"must be one of {', '.join(ALL_MODES)}")

    node_cap = entries.integer("solver.node_cap", 1, default=DEFAULT_NODE_CAP)
    name, name_line = entries.take("model.name", default="seqtest")
    # read once, at the model's least horizon (none for an unknown model); a
    # model has more epochs than its horizon, each holding a DAG node, so a
    # horizon beyond the cap is refused as the tree guard, before any table
    raw, lineno = entries.take("model.horizon", required=name == "inline")
    minimum = {"seqtest": 0, "inline": 1}.get(name)
    horizon = None if raw is None else _integer("model.horizon", raw, lineno, minimum)
    if horizon is not None and horizon > node_cap:
        raise TreeSizeLimitError(node_cap)
    if name == "seqtest":
        model = _parse_seqtest_model(entries, horizon)
    elif name == "inline":
        model = _parse_inline_model(entries, horizon)
    else:
        raise _err(name_line, "model.name", f"must be 'seqtest' or 'inline', got {name!r}")

    diagnostics = validate(model)
    if diagnostics:
        listing = "; ".join(diagnostics)
        raise ConfigError(f"model failed validation: {listing}")

    trajectory_cap = entries.integer("solver.trajectory_cap", 1, default=DEFAULT_TRAJECTORY_CAP)
    out_path, _ = entries.take("output.path")

    gamma = None
    if mode in GAMMA_MODES:
        raw, lineno = entries.take("solver.gamma", required=True)
        gamma = _number("solver.gamma", raw, lineno)
        _on_line(lineno, "solver.gamma", check_gamma, model, mode, gamma)
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
                _on_line(lineno, "sweep.gamma", check_gamma, model, _outer_mode(mode), value)
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
        raw, lineno = entries.take("simulate.samples", str(samples))
        samples = _integer("simulate.samples", raw, lineno, 1)
        _on_line(lineno, "simulate.samples", _count, "samples", samples, 1, SAMPLE_LIMIT)
        seed = entries.integer("simulate.seed", 0, default=seed)
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


def _on_line(lineno: int, key: str, check, *args):
    """``check(*args)``, with a ValueError it raises reported on ``key``'s line."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _err(lineno, key, str(exc)) from None


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
    except MemoryError as exc:  # NumPy names the array it could not allocate
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
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
