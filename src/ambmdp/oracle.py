"""Independent verification engines for per-parameter policy cost.

Both read the policy's successor table under theta, built at once for
every decision node of its tree and kept on the policy, and follow the
tree's children, which hold every branch some parameter reaches; a branch
the tree prunes weighs less than about 1e-300 under theta and is left out.
``enumerate_cost`` counts the trajectories in one backward pass over the
table and refuses more than its cap before building any; it then grows
them one epoch at a time, each parent's children in ascending state order
(the depth-first order), sums probability-weighted total costs and builds
``RECORD_CHUNK`` records at a time.  It shares no recursion with
``bayes.policy_cost_profile`` and is the primary anti-bug oracle for it.
``mc_estimate`` is a seeded Monte-Carlo rollout cross-check that moves a
whole batch of samples through the table one epoch at a time.

Random source: NumPy ``default_rng`` seeded through ``SeedSequence(seed)``,
with one spawned child sequence per batch of ``BATCH_SIZE`` samples (the
last batch takes the rest), consumed in batch order.  Each batch draws one
row-major ``(count, horizon + 1)`` block of uniforms, one row per sample:
the first picks the initial state, the one at column ``n + 1`` the state
after epoch ``n``.  The block is drawn in whole rows, at most
``DRAW_FLOATS`` numbers (2 MiB) at a time, which is one draw per batch up
to horizon 25 and otherwise consumes the stream exactly as one draw would.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .bayes import DeterministicPolicy, _fitted_pairs
from .errors import TrajectoryLimitError
from .model import StatisticalMDP, _count

DEFAULT_TRAJECTORY_CAP = 1_000_000

#: normal-approximation quantile for 95% confidence half-widths
Z_95 = 1.96
#: samples per Monte-Carlo batch, each batch with its own spawned seed
BATCH_SIZE = 10_000
#: uniforms drawn at a time by the Monte-Carlo sampler, which bounds its memory
DRAW_FLOATS = 1 << 18
#: the Monte-Carlo sample counts stay below this, ``simulate.samples`` included
SAMPLE_LIMIT = 2**63
#: trajectories labelled at a time by the enumeration, which bounds its memory
RECORD_CHUNK = 1 << 12


class TrajectoryRecord(namedtuple("TrajectoryRecord", "sequence probability total_cost")):
    """One realizable state/action path, a tuple of labels, with its
    probability and cost (floats)."""

    __slots__ = ()


def enumerate_cost(
    model: StatisticalMDP,
    theta: int,
    policy: DeterministicPolicy,
    trajectory_cap: int = DEFAULT_TRAJECTORY_CAP,
) -> tuple[float, list[TrajectoryRecord]]:
    """Exact policy cost under the theta-kernel by exhaustive enumeration of
    positive-probability trajectories, in depth-first order: by initial
    state, then by each next state in ascending order.

    Raises TrajectoryLimitError, before any trajectory is built, when more
    than ``trajectory_cap`` trajectories would be produced.
    """
    rows, child, action, state, node_cost = _table(model, theta, policy)
    trajectory_cap = _count("trajectory_cap", trajectory_cap, 1)
    offsets, horizon = policy.tree.offsets, model.horizon
    init = model.initial_kernel[theta]
    roots = policy.tree.dag.root_of[np.flatnonzero(init > 0.0)]
    # complete trajectories from each node, saturated above the cap (or
    # below int64 overflow); the last entry, 0, counts a branch without weight
    limit = min(trajectory_cap + 1, np.iinfo(np.int64).max // model.n_states)
    counts = np.zeros(offsets[-1] + 1, dtype=np.int64)
    counts[offsets[-2] : -1] = 1
    branches = np.where(rows > 0.0, child, -1).T
    for n in range(horizon - 1, -1, -1):
        nodes = slice(offsets[n], offsets[n + 1])
        np.minimum(counts.take(branches[:, nodes]).sum(axis=0), limit, out=counts[nodes])
    if counts[roots].sum() > trajectory_cap:
        raise TrajectoryLimitError(trajectory_cap)

    # one epoch at a time in depth-first order (parents in order, each one's children
    # by ascending state), with running products and sums (from 0.0) in epoch order
    frontier, parents = [roots], []
    prob, cost = init[state[roots]], 0.0 + node_cost[roots]
    for n in range(horizon):
        parent, x = np.nonzero(rows[frontier[n]])
        node = frontier[n][parent]
        prob = prob[parent] * rows[node, x]
        frontier.append(child[node, x])
        cost = cost[parent] + node_cost[frontier[-1]]
        parents.append(parent)
    value = float(sum((prob * cost).tolist()))
    records = []
    # then the records a chunk at a time, each trajectory's nodes read back
    for start in range(0, prob.size, RECORD_CHUNK):
        chunk = index = np.arange(start, min(start + RECORD_CHUNK, prob.size))
        path = np.empty((horizon + 1, chunk.size), dtype=int)
        for n in range(horizon, -1, -1):
            path[n] = frontier[n][index]
            index = parents[n - 1][index] if n else index
        labels = [None] * (2 * horizon + 1)
        labels[::2] = np.array(model.states, dtype=object)[state[path]].tolist()
        labels[1::2] = np.array(model.actions, dtype=object)[action[path[:-1]]].tolist()
        records += map(TrajectoryRecord, zip(*labels), prob[chunk].tolist(), cost[chunk].tolist())
    return value, records


def _successors(model: StatisticalMDP, theta: int, policy: DeterministicPolicy) -> tuple:
    """The policy's successor table under theta, built for every decision
    node (global index below ``offsets[-2]``) at once: the next state's
    weights, 0 on a branch without a child; the children by global index,
    -1 where there is none; and the chosen actions.  Then every node's
    state and its stage or terminal cost."""
    offsets, epochs = policy.tree.offsets, policy.tree.epochs
    epoch = np.repeat(np.arange(model.horizon), np.diff(offsets[:-1]))
    action = np.asarray(policy.actions, dtype=np.intp)[: offsets[-2]]
    # the horizon epoch adds no pairs, but keeps the list non-empty at H = 0
    pairs = [*zip(epochs, policy.pairs), (epochs[-1], epochs[-1].pair_node)]
    child = np.concatenate([e.child.take(p, axis=0) for e, p in pairs])
    child = np.where(child < 0, -1, child + offsets[1:][epoch, None])
    state = np.concatenate([e.state for e in epochs])
    at = (epoch, theta, state[: offsets[-2]], action)
    rows = np.where(child < 0, 0.0, model.transition[at])
    cost = np.concatenate((model.stage_cost[at], model.terminal_cost[theta, epochs[-1].state]))
    return rows, child, action, state, cost


def _table(model: StatisticalMDP, theta: int, policy: DeterministicPolicy) -> tuple:
    """``_successors`` of a fitted policy, built once per theta and kept on the policy."""
    _fitted_pairs(model, policy)
    theta = _count("parameter index", theta, 0, model.n_params)
    tables = vars(policy).setdefault("successor_tables", {})
    return tables.get(theta) or tables.setdefault(theta, _successors(model, theta, policy))


def _cumulative(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the cumulative distribution of its positive entries, moved
    to the front in column order and normalized by their sum, and the
    column order used.  The last positive entry and the columns after it
    read exactly 1, so ``(u > cumulative).sum(1)`` for u in [0, 1) is the
    position ``searchsorted`` gives on the positive entries alone."""
    positive = probs > 0.0
    rank = np.cumsum(positive, axis=1)
    counts = rank[:, -1]
    columns = np.arange(probs.shape[1])
    # each column's place: the positive entries in column order, then the rest
    rank = np.where(positive, rank - 1, counts[:, None] + columns - rank)
    order = np.empty_like(rank)
    np.put_along_axis(order, rank, columns[None, :], axis=1)
    front = np.where(columns < counts[:, None], np.take_along_axis(probs, order, axis=1), 0.0)
    totals = np.empty(len(probs))
    for count in np.flatnonzero(np.bincount(counts)):
        rows = counts == count
        # summed as the 1-D array of that row's positive entries
        totals[rows] = np.ascontiguousarray(front[rows, :count]).sum(axis=1)
    cumulative = np.cumsum(front / totals[:, None], axis=1)
    cumulative[columns >= counts[:, None] - 1] = 1.0
    return cumulative, order


def _sampler_table(model: StatisticalMDP, theta: int, policy: DeterministicPolicy) -> tuple:
    """The successor table (``_table``) as the sampler reads it: per
    decision node the next state's cumulative distribution (``_cumulative``)
    and the children in the same column order, then each node's cost.  A
    node where theta reaches no branch (with probability below about
    1e-300) samples evenly among the branches with a child."""
    rows, child, _, _, node_cost = _table(model, theta, policy)
    cumulative, order = _cumulative(np.where(rows.any(axis=1)[:, None], rows, child >= 0))
    return cumulative, np.take_along_axis(child, order, axis=1), node_cost


def mc_estimate(
    model: StatisticalMDP,
    theta: int,
    policy: DeterministicPolicy,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate of the policy cost under the
    theta-kernel: (sample mean, 95% normal-approximation half-width).

    Batches use seeds spawned from ``SeedSequence(seed)`` and are combined
    in batch order, so identical inputs give identical output.  ``samples``
    is below ``SAMPLE_LIMIT``.
    """
    cumulative, child, node_cost = _sampler_table(model, theta, policy)
    samples, seed = _count("samples", samples, 1, SAMPLE_LIMIT), _count("seed", seed)
    n_states = model.n_states
    root_cum, order = _cumulative(model.initial_kernel[theta][None, :])
    root_nodes = policy.tree.dag.root_of[order[0]]
    child = child.ravel()
    # a row reads 1 from its last positive entry on, which u < 1 never passes
    last = int((cumulative < 1.0).sum(axis=1).max(initial=0))
    columns = np.ascontiguousarray(cumulative[:, :last].T)

    root = np.random.SeedSequence(seed)
    width = model.horizon + 1
    block = max(1, DRAW_FLOATS // width)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining:
        # one child a batch, spawned as it starts: the children spawn(n) makes
        rng = np.random.default_rng(root.spawn(1)[0])
        count = min(BATCH_SIZE, remaining)
        remaining -= count
        # blocks of consecutive rows draw the stream as one (count, width) block
        for start in range(0, count, block):
            draws = rng.random((min(block, count - start), width))
            node = root_nodes[(draws[:, :1] > root_cum).sum(axis=1)]
            cost = np.zeros(len(draws))
            for n in range(model.horizon):
                cost += node_cost[node]
                u = draws[:, n + 1]
                pick = node * n_states
                for column in columns:
                    pick += u > column[node]
                node = child[pick]
            cost += node_cost[node]
            # running sums in sample order, as one accumulation each
            total = np.cumsum(np.concatenate(([total], cost)))[-1]
            total_sq = np.cumsum(np.concatenate(([total_sq], cost * cost)))[-1]

    total, total_sq = float(total), float(total_sq)
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, Z_95 * (variance / samples) ** 0.5
