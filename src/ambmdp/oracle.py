"""Independent verification engines for per-parameter policy cost.

``enumerate_cost`` walks every positive-probability trajectory forward and
sums probability-weighted total costs; it shares no recursion with the
backward induction in ``bayes.policy_cost_profile`` and is the primary
anti-bug oracle for it.  ``mc_estimate`` is a seeded Monte-Carlo rollout
cross-check that builds one successor table over every decision node of
the policy's tree and moves a whole batch of samples through it one epoch
at a time.  Both follow the tree's children, which hold every branch that
some parameter reaches, and leave out a branch that the tree prunes,
which weighs less than about 1e-300 under theta.

Random source: NumPy ``default_rng`` seeded through ``SeedSequence(seed)``,
with one spawned child sequence per batch of ``BATCH_SIZE`` samples (the
last batch takes the rest), consumed in batch order.  Each batch draws one
row-major ``(count, horizon + 1)`` block of uniforms, one row per sample:
the first picks the initial state, the one at column ``n + 1`` the state
after epoch ``n``.  The block is drawn in whole rows, at most
``DRAW_FLOATS`` numbers at a time, which consumes the stream exactly as
one draw would.  The same seed and inputs always reproduce the same
estimate.
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
DRAW_FLOATS = 1 << 15


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
    positive-probability trajectories.

    Raises TrajectoryLimitError when more than ``trajectory_cap``
    trajectories would be produced.
    """
    _fitted_pairs(model, policy)
    theta = _count("parameter index", theta, 0, model.n_params)
    trajectory_cap = _count("trajectory_cap", trajectory_cap, 1)
    tree = policy.tree
    records: list[TrajectoryRecord] = []
    init = model.initial_kernel[theta]
    # depth first, each node's successors in ascending state order
    stack = [
        (0, int(tree.dag.root_of[x]), int(x), float(init[x]), 0.0, (model.states[x],))
        for x in np.flatnonzero(init > 0.0)[::-1]
    ]
    while stack:
        n, node, state, prob, cost, seq = stack.pop()
        if n == model.horizon:
            if len(records) >= trajectory_cap:
                raise TrajectoryLimitError(trajectory_cap)
            records.append(
                TrajectoryRecord(
                    sequence=seq,
                    probability=prob,
                    total_cost=cost + float(model.terminal_cost[theta, state]),
                )
            )
            continue
        epoch = tree.epochs[n]
        pair = policy.pairs[n][node]
        action = int(epoch.pair_action[pair])
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


def _cumulative(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the cumulative distribution of its positive entries, moved
    to the front in column order and normalized by their sum, and the
    column order used.  The last positive entry and the columns after it
    read exactly 1, so ``(u > cumulative).sum(1)`` for u in [0, 1) is the
    position ``searchsorted`` gives on the positive entries alone."""
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


def _sampler_table(model: StatisticalMDP, theta: int, policy: DeterministicPolicy) -> tuple:
    """Per decision node in global order (none at horizon 0): the next
    state's cumulative distribution (``_cumulative``) and the children by
    global index, in the same column order; then each node's stage or
    terminal cost.  A branch without a child has no weight, as in
    ``enumerate_cost``; a node where theta reaches none (with probability
    below about 1e-300) samples evenly among the branches with one."""
    tree = policy.tree
    blocks = [(np.empty((0, model.n_states)), np.empty((0, model.n_states), dtype=int), [])]
    for n, pairs in enumerate(policy.pairs):
        epoch = tree.epochs[n]
        action, child = epoch.pair_action[pairs], epoch.child[pairs]
        blocks.append((
            np.where(child < 0, 0.0, model.transition[n, theta, epoch.state, action]),
            np.where(child < 0, -1, child + tree.offsets[n + 1]),
            model.stage_cost[n, theta, epoch.state, action],
        ))
    rows, child, stage = (np.concatenate(b) for b in zip(*blocks))
    dead = ~rows.any(axis=1)
    rows[dead] = child[dead] >= 0
    cumulative, order = _cumulative(rows)
    terminal = model.terminal_cost[theta, tree.epochs[-1].state]
    return cumulative, np.take_along_axis(child, order, axis=1), np.concatenate((stage, terminal))


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
    is below 2**63.
    """
    _fitted_pairs(model, policy)
    theta = _count("parameter index", theta, 0, model.n_params)
    samples, seed = _count("samples", samples, 1, 2**63), _count("seed", seed)
    n_states = model.n_states
    root_cum, order = _cumulative(model.initial_kernel[theta][None, :])
    root_nodes = policy.tree.dag.root_of[order[0]]
    cumulative, child, node_cost = _sampler_table(model, theta, policy)
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
