"""Reference implementations the tests check the solver against: the risk
measures' dual forms, AVaR's quantile integral, the Bayes recursion over
unmerged histories, the penalized entropic objective, the sequential
test's scalar recursion and its policies' two thresholds per epoch, the
exact reading of config number literals, the config reader that takes
one key and one token at a time, feasible sets built set by set, the
merge of equal DAG children by a sort on every key column, the policy
table as a list of dicts, every node's Bayes value with the action
table filled in one pass, the trajectory enumeration as a depth-first walk
and the Monte-Carlo sampler's table built epoch by epoch."""

import math
from fractions import Fraction
from typing import Callable
from unittest import mock

import numpy as np

from ambmdp import cli
from ambmdp.ambiguity import check_gamma
from ambmdp.bayes import DeterministicPolicy, _expect, _mix, solve_bayes
from ambmdp.belief import initial_posterior, predictive
from ambmdp.errors import ConfigError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from ambmdp.oracle import TrajectoryRecord
from ambmdp.risk import _weights, as_profile, relative_entropy
from ambmdp.seqtest import (
    A_CONTINUE,
    A_DECLARE_1,
    A_DECLARE_2,
    ACTIONS,
    CONTINUE_HI,
    CONTINUE_LO,
    DEFAULT_CONFIG,
    X_STOPPED,
    SeqTestConfig,
    _check_mu,
)

#: comparison slack for cumulative masses in quantile computations
QUANTILE_TOL = 1e-12


def expected_cost(profile, base) -> float:
    """Plain expectation of the profile under the base distribution (the
    gamma -> 0 limit of both risk measures)."""
    p = _weights(base)
    v = as_profile(profile, p.size)
    return float(p @ v)


def tilted_prior(profile, base, gamma: float) -> Belief:
    """Exponential reweighting of the base distribution by the profile:
    weights proportional to base * exp(gamma * profile).  This is the
    maximizer of the entropic dual objective."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    mask = p > 0.0
    shift = float((gamma * v[mask]).max())
    w = np.zeros_like(p)
    w[mask] = p[mask] * np.exp(gamma * v[mask] - shift)
    return Belief(w / w.sum())


def entropic_dual_value(profile, base, gamma: float) -> tuple[float, Belief]:
    """Maximize ``E_mu[profile] - relative_entropy(mu, base)/gamma`` over
    distributions.

    The maximizer is the tilted prior, in closed form.  The returned value
    equals ``entropic_risk`` up to float noise (duality).
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    v = as_profile(profile, _weights(base).size)
    argmax = tilted_prior(v, base, gamma)
    value = float(argmax.weights @ v) - relative_entropy(argmax, base) / gamma
    return value, argmax


def value_at_risk(profile, base, alpha: float) -> float:
    """Lower quantile with weak inequality: the smallest attained value
    whose cumulative base mass reaches ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(p[order])
    for k in range(order.size):
        if cum[k] >= alpha - QUANTILE_TOL:
            return float(v[order[k]])
    return float(v[order[-1]])


def avar_dual(profile, base, gamma: float) -> tuple[float, Belief]:
    """Maximize ``E_w[profile]`` over distributions with ``w <= base /
    (1 - gamma)`` coordinatewise, by greedy filling in decreasing profile
    order (ties broken by parameter index).  The value equals
    ``avar_quantile`` and ``avar_integral`` up to float noise."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    caps = p / (1.0 - gamma)
    order = sorted(range(v.size), key=lambda k: (-v[k], k))
    w = np.zeros_like(p)
    remaining = 1.0
    for k in order:
        if remaining <= 0.0:
            break
        take = min(float(caps[k]), remaining)
        w[k] = take
        remaining -= take
    argmax = Belief(w)
    return float(argmax.weights @ v), argmax


def avar_integral(profile, base, gamma: float) -> float:
    """Average Value at Risk as the exact piecewise-constant integral of the
    quantile function over (gamma, 1], divided by 1 - gamma: the primal
    form, independent of ``avar_quantile``'s greedy fill of the caps."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    on = v[p > 0.0]
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(p[order])
    cum[-1] = 1.0
    integral = 0.0
    prev = 0.0
    for k in range(order.size):
        length = min(cum[k], 1.0) - max(prev, gamma)
        if length > 0.0:
            integral += float(v[order[k]]) * length
        prev = cum[k]
    return min(max(integral / (1.0 - gamma), float(on.min())), float(on.max()))


def within_avar_caps(mu: Belief, base: Belief, gamma: float, tol: float = 1e-12) -> bool:
    """Whether ``mu``'s density against ``base`` is at most 1/(1-gamma)."""
    return bool(np.all(mu.weights <= base.weights * (1.0 / (1.0 - gamma)) + tol))


def history_value(model, prior: Belief) -> float:
    """Optimal Bayes value by backward recursion over observable histories,
    each followed on its own: the unmerged reference for ``solve_bayes``."""

    def value(n: int, state: int, belief: Belief) -> float:
        if n == model.horizon:
            return float(belief.weights @ model.terminal_cost[:, state])
        return min(q_value(n, state, belief, action) for action in model.feasible[n][state])

    def q_value(n: int, state: int, belief: Belief, action: int) -> float:
        pred = predictive(model, n, state, belief, action)
        q = float(belief.weights @ model.stage_cost[n, :, state, action])
        for x in np.flatnonzero(pred.masses > 0.0):
            q += float(pred.masses[x]) * value(n + 1, int(x), pred.posteriors[x])
        return q

    masses = prior.weights @ model.initial_kernel
    return sum(
        float(masses[x]) * value(0, int(x), initial_posterior(model, prior, int(x)))
        for x in np.flatnonzero(masses > 0.0)
    )


def eager_bayes_outputs(model, prior: Belief) -> tuple[np.ndarray, np.ndarray]:
    """Every node's Bayes value and the optimal action table, filled in
    the choosing pass itself: the reference for the action table that
    ``solve_bayes`` computes on first read.  Pruned branches read a NaN
    row, which counts only if a live branch of the DAG's plan has no child."""
    tree = solve_bayes(model, prior).tree
    offsets, horizon = tree.offsets, model.horizon
    values, actions = np.empty(len(tree)), np.full(len(tree), -1)
    missing = np.full((1, model.n_params), np.nan)
    columns = model.terminal_cost.take(tree.epochs[horizon].state, axis=1).T
    values[offsets[horizon] :] = _mix(tree.belief[offsets[horizon] :], columns)
    for n in range(horizon - 1, -1, -1):
        epoch = tree.epochs[n]
        pair_action = epoch.pair_cell % model.n_actions
        # the model's own rows at each pair's (state, action), not the DAG's copies
        at = (n, slice(None), epoch.state[epoch.pair_node], pair_action)
        columns = _expect(
            model.stage_cost[at], model.transition[at], epoch.live,
            np.concatenate((columns, missing)).take(epoch.child, axis=0).transpose(0, 2, 1),
        )
        beliefs = tree.belief[offsets[n] : offsets[n + 1]]
        mixed = _mix(beliefs.take(epoch.pair_node, axis=0), columns)
        chosen = np.lexsort((mixed, epoch.pair_node)).take(epoch.first_pair)
        columns = columns.take(chosen, axis=0)
        values[offsets[n] : offsets[n + 1]] = mixed.take(chosen)
        actions[offsets[n] : offsets[n + 1]] = pair_action.take(chosen)
    return values, actions


def first_of_equal_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each group of equal rows of ``key``, with
    the groups numbered in order of their first rows, and the group of
    every row, by a stable sort on all the key's columns."""
    order = np.lexsort(key.T[::-1])
    ordered = key[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[starts]
    by_first = np.argsort(first)
    group = np.empty_like(order)
    group[order] = np.argsort(by_first)[np.cumsum(starts) - 1]
    return first[by_first], group


def policy_rows(policy: DeterministicPolicy) -> list[dict]:
    """The policy table of a JSON artifact, one dict per decision node,
    sorted by epoch, state label and belief."""
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


def exact_number(raw: str) -> float:
    """A config number literal read as an exact rational and rounded once to
    the nearest double; raises as ``Fraction`` and ``float`` do."""
    return float(Fraction(raw))


def exact_config_number(key: str, raw: str, lineno: int) -> float:
    """``exact_number`` with the config reader's refusals."""
    try:
        return exact_number(raw)
    except (ValueError, ZeroDivisionError):
        raise cli._err(lineno, key, f"not a number or rational literal: {raw!r}") from None
    except OverflowError:
        raise cli._err(lineno, key, f"out of float range: {raw!r}") from None


class KeyByKeyEntries(cli._Entries):
    """The config key table read line by line, each line checked in turn."""

    def __init__(self, text: str):
        self.values: dict[str, tuple[str, int]] = {}
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
        self.consumed: set[str] = set()

    def take_prefixed(self, head: str):
        keys = sorted(key for key in self.values if key.startswith(head))
        self.consumed.update(keys)
        return [(key, *self.values[key]) for key in keys]


def key_by_key_inline_model(entries, horizon: int) -> StatisticalMDP:
    """An inline model read one key, and one token, at a time, in key order:
    numbers by ``exact_config_number``, and each key written into its table
    in turn, so that ``*`` keys, which sort first, are overridden by
    explicit epochs; feasible sets are passed on as action lists."""
    labels = {}
    for field in ("states", "actions", "params"):
        raw, lineno = entries.take(f"model.{field}", required=True)
        labels[field] = cli._labels(f"model.{field}", raw, lineno)
    states, actions, params = labels["states"], labels["actions"], labels["params"]
    n_e, n_a, n_k = len(states), len(actions), len(params)
    names = {"state": states, "action": actions, "param": params}

    def index(field, token, key, lineno):
        if field == "epoch":
            if token == "*":
                return slice(None)
            epoch = cli._integer(key, token, lineno)
            if str(epoch) != token:
                raise cli._err(lineno, key, f"epoch {token!r} must be * or ASCII digits "
                               "with no sign, leading zero or underscore")
            if not 0 <= epoch < horizon:
                raise cli._err(lineno, key, f"epoch {epoch} outside 0..{horizon - 1}")
            return epoch
        if token not in names[field]:
            name = "parameter" if field == "param" else field
            raise cli._err(lineno, key, f"unknown {name} {token!r}")
        return names[field].index(token)

    def cells(prefix, fields):
        head = f"model.{prefix}."
        for key, raw, lineno in entries.take_prefixed(head):
            tail = key.removeprefix(head).split(".")
            if len(tail) != len(fields):
                form = ".".join(f"<{field}>" for field in fields)
                raise cli._err(lineno, key, f"expected {head}{form}")
            yield key, raw, lineno, tuple(
                index(field, token, key, lineno) for field, token in zip(fields, tail)
            )

    def row(key, raw, lineno, what):
        parts = raw.replace(",", " ").split()
        if not parts:
            raise cli._err(lineno, key, "empty value")
        values = [exact_config_number(key, part, lineno) for part in parts]
        if len(values) != n_e:
            raise cli._err(lineno, key, f"expected {n_e} {what}, got {len(values)}")
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

    transition = np.zeros((horizon, n_k, n_e, n_a, n_e))
    transition[..., 0] = 1.0
    assigned = np.zeros((horizon, n_k, n_e, n_a), dtype=bool)
    full = ("epoch", "param", "state", "action")
    for key, raw, lineno, where in cells("transition", full):
        transition[where] = row(key, raw, lineno, "probabilities")
        assigned[where] = True

    stage = np.zeros((horizon, n_k, n_e, n_a))
    for key, raw, lineno, where in cells("cost", full):
        stage[where] = exact_config_number(key, raw, lineno)

    terminal = np.zeros((n_k, n_e))
    for key, raw, lineno, where in cells("terminal", ("param",)):
        terminal[where] = row(key, raw, lineno, "costs")

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
        feasible=[[np.flatnonzero(acts).tolist() for acts in per_state] for per_state in feasible],
        initial_kernel=initial,
        transition=transition,
        stage_cost=stage,
        terminal_cost=terminal,
    )


def key_by_key_parse(text: str):
    """``cli.parse_config`` with the key-by-key reader in place of the bulk
    one, and every number read exactly: the reference for the parse."""
    with mock.patch.multiple(
        cli,
        _Entries=KeyByKeyEntries,
        _parse_inline_model=key_by_key_inline_model,
        _number=exact_config_number,
    ):
        return cli.parse_config(text)


def loop_feasible(feasible, horizon: int, n_states: int, n_actions: int):
    """Feasible sets as sorted tuples of distinct actions, and their (N, E, A)
    mask, built set by set: the reference for ``StatisticalMDP``'s."""
    assert len(feasible) == horizon
    sets, mask = [], np.zeros((horizon, n_states, n_actions), dtype=bool)
    for n, per_state in enumerate(feasible):
        assert len(per_state) == n_states
        row = []
        for x, acts in enumerate(per_state):
            acts = tuple(sorted(set(int(a) for a in acts)))
            assert all(0 <= a < n_actions for a in acts)
            mask[n, x, list(acts)] = True
            row.append(acts)
        sets.append(tuple(row))
    return tuple(sets), mask


def entropic_objective(
    model: StatisticalMDP, base_prior: Belief, gamma: float, candidate: Belief
) -> float:
    """Penalized outer objective: optimal Bayes cost at the candidate prior
    minus relative_entropy(candidate, base)/gamma; -inf off the base's
    support."""
    check_gamma(model, "entropic", gamma)
    rel = relative_entropy(candidate, base_prior)
    if rel == math.inf:
        return -math.inf
    return solve_bayes(model, candidate).value - rel / gamma


def success_posterior(mu: float, config: SeqTestConfig = DEFAULT_CONFIG) -> float:
    """Belief on theta1 after observing a success; mu/(2-mu) at the default
    rates."""
    _check_mu(mu)
    num = config.p_low * mu
    den = num + config.p_high * (1.0 - mu)
    return num / den if den > 0.0 else mu


def failure_posterior(mu: float, config: SeqTestConfig = DEFAULT_CONFIG) -> float:
    """Belief on theta1 after observing a failure; 2*mu/(1+mu) at the
    default rates."""
    _check_mu(mu)
    num = (1.0 - config.p_low) * mu
    den = num + (1.0 - config.p_high) * (1.0 - mu)
    return num / den if den > 0.0 else mu


def terminal_decision_cost(mu: float) -> float:
    """Expected cost of an immediate forced declaration at belief ``mu``
    under the default configuration: 10 * min(mu, 1 - mu)."""
    _check_mu(mu)
    return 10.0 * min(mu, 1.0 - mu)


def optimal_first_action(mu: float) -> str:
    """Optimal initial action at belief ``mu``, default configuration:
    continue strictly inside the plateau region, otherwise declare the
    hypothesis with the higher belief.  Boundary beliefs declare."""
    _check_mu(mu)
    if CONTINUE_LO < mu < CONTINUE_HI:
        return ACTIONS[A_CONTINUE]
    if mu <= 0.5:
        return ACTIONS[A_DECLARE_2]
    return ACTIONS[A_DECLARE_1]


def bellman_sweep(
    values: Callable[[float], float],
    mu: float,
    config: SeqTestConfig = DEFAULT_CONFIG,
) -> float:
    """One dynamic-programming step applied to a scalar value function of
    the belief: the cheaper of declaring now and paying one observation
    plus the predictive mixture of ``values`` at the updated beliefs.

    Implemented from the scalar recursion directly, independently of the
    tree solver, so the two can check each other.
    """
    _check_mu(mu)
    stop = config.error_cost * min(mu, 1.0 - mu)
    p_success = config.p_low * mu + config.p_high * (1.0 - mu)
    continue_value = (
        config.observation_cost
        + p_success * values(success_posterior(mu, config))
        + (1.0 - p_success) * values(failure_posterior(mu, config))
    )
    return min(stop, continue_value)


def seqtest_choices(policy: DeterministicPolicy):
    """Per decision epoch of a sequential-test policy, the belief on theta1
    and the action of each node that has not stopped."""
    tree = policy.tree
    for n, epoch in enumerate(tree.epochs[:-1]):
        nodes = slice(tree.offsets[n], tree.offsets[n + 1])
        live = epoch.state != X_STOPPED
        yield tree.belief[nodes, 0][live], policy.actions[nodes][live]


def thresholds(policy: DeterministicPolicy) -> list[tuple[float, float]] | str:
    """Per decision epoch of a sequential-test policy, its continue interval
    (lo, hi): lo the largest belief on theta1 at which it declares theta2
    (-inf if none), hi the least at which it declares theta1 (inf if none).
    Or the first violation of that two-threshold rule, as a message: lo not
    below hi, or a node that continues outside (lo, hi)."""
    pairs = []
    for n, (belief, action) in enumerate(seqtest_choices(policy)):
        lo = belief[action == A_DECLARE_2].max(initial=-math.inf)
        hi = belief[action == A_DECLARE_1].min(initial=math.inf)
        go = belief[action == A_CONTINUE]
        if not lo < hi:
            return f"epoch {n}: declares theta2 at {lo} and theta1 at {hi}"
        if ((go <= lo) | (go >= hi)).any():
            return f"epoch {n}: continues at {go.min()}..{go.max()} outside ({lo}, {hi})"
        pairs.append((float(lo), float(hi)))
    return pairs


def continue_region_nests(policy: DeterministicPolicy, pairs) -> bool:
    """Whether, as the deadline nears, the policy continues at no belief
    that an earlier epoch's ``thresholds`` pair leaves out: a node that
    continues at epoch n lies inside the interval of every epoch before n."""
    for n, (belief, action) in enumerate(seqtest_choices(policy)):
        go = belief[action == A_CONTINUE]
        if any(((go <= lo) | (go >= hi)).any() for lo, hi in pairs[:n]):
            return False
    return True


def walked_trajectories(model, theta: int, policy: DeterministicPolicy):
    """``enumerate_cost`` without its cap, as a depth-first walk: a stack of
    partial trajectories, each node's successors in ascending state order,
    indexed one node at a time."""
    tree = policy.tree
    records = []
    init = model.initial_kernel[theta]
    stack = [
        (0, int(tree.dag.root_of[x]), int(x), float(init[x]), 0.0, (model.states[x],))
        for x in np.flatnonzero(init > 0.0)[::-1]
    ]
    while stack:
        n, node, state, prob, cost, seq = stack.pop()
        if n == model.horizon:
            records.append(TrajectoryRecord(
                sequence=seq,
                probability=prob,
                total_cost=cost + float(model.terminal_cost[theta, state]),
            ))
            continue
        epoch = tree.epochs[n]
        pair = policy.pairs[n][node]
        action = int(epoch.pair_cell[pair]) % model.n_actions
        row = model.transition[n, theta, state, action]
        cost = cost + float(model.stage_cost[n, theta, state, action])
        seq = seq + (model.actions[action],)
        for x_next in np.flatnonzero(row > 0.0)[::-1]:
            child = int(epoch.child[pair, x_next])
            if child >= 0:
                stack.append((
                    n + 1, child, int(x_next),
                    prob * float(row[x_next]), cost, seq + (model.states[x_next],),
                ))
    value = sum(r.probability * r.total_cost for r in records)
    return float(value), records


def successor_table_by_epoch(model, theta: int, policy: DeterministicPolicy) -> tuple:
    """The policy's successor table under theta built one epoch at a time:
    per decision node in global order, the next state's weights (0 on a
    branch without a child) and the children by global index (-1 where
    there is none), then every node's stage or terminal cost."""
    tree = policy.tree
    blocks = [(np.empty((0, model.n_states)), np.empty((0, model.n_states), dtype=int), [])]
    for n, pairs in enumerate(policy.pairs):
        epoch = tree.epochs[n]
        action, child = epoch.pair_cell[pairs] % model.n_actions, epoch.child[pairs]
        blocks.append((
            np.where(child < 0, 0.0, model.transition[n, theta, epoch.state, action]),
            np.where(child < 0, -1, child + tree.offsets[n + 1]),
            model.stage_cost[n, theta, epoch.state, action],
        ))
    rows, child, stage = (np.concatenate(b) for b in zip(*blocks))
    terminal = model.terminal_cost[theta, tree.epochs[-1].state]
    return rows, child, np.concatenate((stage, terminal))


def sampler_table_by_epoch(model, theta: int, policy: DeterministicPolicy) -> tuple:
    """The Monte-Carlo sampler's table from ``successor_table_by_epoch``:
    per decision node the next state's cumulative distribution and the
    children in the same column order, then every node's cost.  A node
    where theta reaches no branch samples evenly among the branches with a
    child."""
    rows, child, cost = successor_table_by_epoch(model, theta, policy)
    dead = ~rows.any(axis=1)
    rows[dead] = child[dead] >= 0
    cumulative, order = cumulative_by_sort(rows)
    return cumulative, np.take_along_axis(child, order, axis=1), cost


def cumulative_by_sort(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``oracle._cumulative`` with the column order from a stable sort of
    each row's non-positive flags: per row, the cumulative distribution of
    its positive entries, moved to the front in column order and
    normalized by their sum, read as exactly 1 from the last positive
    entry on, and the column order used."""
    positive = probs > 0.0
    counts = positive.sum(axis=1)
    order = np.argsort(~positive, axis=1, kind="stable")
    front = np.where(
        np.arange(probs.shape[1]) < counts[:, None],
        np.take_along_axis(probs, order, axis=1),
        0.0,
    )
    totals = np.empty(len(probs))
    for count in set(counts.tolist()):
        rows = counts == count
        # summed as the 1-D array of that row's positive entries
        totals[rows] = np.ascontiguousarray(front[rows, :count]).sum(axis=1)
    cumulative = np.cumsum(front / totals[:, None], axis=1)
    cumulative[np.arange(probs.shape[1]) >= counts[:, None] - 1] = 1.0
    return cumulative, order
