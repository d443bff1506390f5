"""Exact Bayesian value recursion over the reachable belief DAG.

The pair (state, belief) is a sufficient statistic of the observable
history.  For finite spaces and horizon, the set of reachable pairs is
finite, so the value recursion is computed exactly by enumerating it; no
belief-grid discretization is involved.

The reachable pairs are stored epoch by epoch in arrays (``TreeEpoch``):
the state and belief of each node, a table of its feasible (node, action)
pairs, and for each pair and next state the child node and its predictive
mass.  Nodes are numbered globally through per-epoch offsets.  Children
with identical (state, belief rounded to 12 decimals) are merged, which
turns the tree into a DAG without changing any value: the continuation
value and the optimal action depend on the history only through (epoch,
state, belief).  The first child in expansion order represents its merged
group, and within an epoch nodes are ordered as a depth-first expansion
from the roots reaches them, so every belief is bitwise the one that
``belief.update_posterior`` composes along the representative's path.

Two backward passes run over the arrays with a few array operations per
epoch, adding terms in the order a per-node loop adds them, so values are
bitwise those of that loop.  ``solve_bayes`` takes the Bayes value and its
arg-min policy; ``evaluate_policy``, ``bayes_cost`` and
``policy_cost_profile`` share a pass that evaluates a policy under every
parameter at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BranchCoverageError,
    PolicyTreeMismatchError,
    TreeSizeLimitError,
)
from .model import RENORM_LIMIT, SUM_TOL, Belief, StatisticalMDP

DEFAULT_NODE_CAP = 10_000_000


@dataclass
class TreeEpoch:
    """The nodes of one epoch, and below the horizon their (node, action)
    pairs, ordered by node and then action.  ``child[p, x]`` is the index,
    within the next epoch, of the node reached from pair ``p`` on observing
    next state ``x``, or -1 where that branch had zero predictive mass and
    was pruned; ``mass[p, x]`` is its predictive mass (0 where pruned)."""

    state: np.ndarray  # (nodes,)
    belief: np.ndarray  # (nodes, K)
    pair_node: np.ndarray  # (pairs,)
    pair_action: np.ndarray  # (pairs,)
    child: np.ndarray  # (pairs, E)
    mass: np.ndarray  # (pairs, E)


@dataclass
class ReachableBeliefTree:
    model: StatisticalMDP
    prior: Belief
    epochs: list[TreeEpoch]
    # global index of epoch n's first node; offsets[-1] is the node count
    offsets: np.ndarray
    # (root node index, prior-mixture mass of its initial state)
    roots: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @property
    def nodes_per_epoch(self) -> list[int]:
        return np.diff(self.offsets).tolist()


@dataclass
class DeterministicPolicy:
    """Action per tree node by global index; -1 at the horizon epoch,
    where no decision is taken."""

    tree: ReachableBeliefTree
    actions: np.ndarray

    @cached_property
    def pairs(self) -> list[np.ndarray]:
        """Per epoch below the horizon, the pair index of each node's action,
        computed once (``actions`` must not change afterwards).

        Raises PolicyTreeMismatchError unless the policy picks a feasible
        action at every decision node of its tree.
        """
        tree = self.tree
        actions = np.asarray(self.actions)
        if actions.shape != (len(tree),):
            raise PolicyTreeMismatchError(
                f"policy has {actions.size} actions for {len(tree)} tree nodes"
            )
        n_actions = tree.model.n_actions
        out = []
        for n, epoch in enumerate(tree.epochs[:-1]):
            chosen = actions[tree.offsets[n] : tree.offsets[n + 1]]
            # pairs are sorted by node and then action, so by this key
            keys = np.append(epoch.pair_node * n_actions + epoch.pair_action, -1)
            wanted = np.arange(chosen.size) * n_actions + chosen
            pos = np.searchsorted(keys[:-1], wanted)
            bad = (chosen < 0) | (chosen >= n_actions) | (keys[pos] != wanted)
            if bad.any():
                raise PolicyTreeMismatchError(
                    f"policy does not cover tree node {tree.offsets[n] + np.argmax(bad)}"
                )
            out.append(pos)
        return out


@dataclass
class ValueSolution:
    """Output of the value recursion: total value, per-node continuation
    values, and an arg-min policy (ties broken by lowest action index)."""

    tree: ReachableBeliefTree
    value: float
    node_values: np.ndarray
    policy: DeterministicPolicy


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Each row divided by its sum, then renormalized as ``Belief`` does
    when the sum still drifts from 1 by more than SUM_TOL."""
    weights = np.ascontiguousarray(weights)  # sums run along contiguous rows
    rows = weights / weights.sum(axis=1)[:, None]
    totals = rows.sum(axis=1)
    drift = np.abs(totals - 1.0) > SUM_TOL
    if drift.any():
        rows[drift] /= totals[drift, None]
    return rows


def _like_table(c: np.ndarray, contiguous: bool) -> np.ndarray:
    """``c``, gathered from slices of a model table, laid out as BLAS saw
    those slices: the last axis unit-strided, and the axis before it
    contiguous with it only when the slices were.

    OpenBLAS sums vector-vector and vector-matrix products in a different
    order when the leading dimension equals the row length, so a gathered
    batch keeps that property of the slices it replaces, and its products
    stay bitwise equal to the one-node products.
    """
    if contiguous:
        return np.ascontiguousarray(c)
    padded = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
    padded[..., : c.shape[-1]] = c
    return padded[..., : c.shape[-1]]


def _row_dots(w: np.ndarray, c: np.ndarray, contiguous: bool) -> np.ndarray:
    """``w[i] @ c[i]`` for every row, as one batched BLAS call."""
    c = _like_table(c[:, :, None], contiguous)
    return np.matmul(np.ascontiguousarray(w)[:, None, :], c)[:, 0, 0]


def _sum_in_order(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``start + terms[..., 0] + terms[..., 1] + ...``, added left to right
    as a loop over the last axis adds them."""
    return np.cumsum(np.concatenate((start[..., None], terms), axis=-1), axis=-1)[..., -1]


def _first_of_equal_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each group of equal rows of ``key``, and
    the group of every row.  A stable sort keeps each group's rows in
    their original order."""
    order = np.lexsort(key.T[::-1])
    ordered = key[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.empty_like(order)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def build_tree(
    model: StatisticalMDP,
    prior: Belief,
    node_cap: int = DEFAULT_NODE_CAP,
    dedup: bool = True,
) -> ReachableBeliefTree:
    """Enumerate every (state, belief) pair reachable from the prior within
    the horizon, one epoch at a time.  Zero-mass branches are pruned.

    Raises TreeSizeLimitError once the node count exceeds ``node_cap``, and
    ValueError when a predictive distribution sums to more than
    RENORM_LIMIT away from 1.
    """
    if len(prior) != model.n_params:
        raise ValueError("prior dimension does not match the parameter set")
    root_masses = prior.weights @ model.initial_kernel
    root_states = np.flatnonzero(root_masses > 0.0)
    # a depth-first expansion pushes the roots in state order and so
    # expands them in reverse
    state = root_states[::-1]
    belief = _normalized(model.initial_kernel.T[state] * prior.weights)
    roots = tuple(
        (len(root_states) - 1 - i, float(root_masses[x])) for i, x in enumerate(root_states)
    )
    n_states, n_actions = model.n_states, model.n_actions
    epochs: list[TreeEpoch] = []
    offsets = [0, state.size]
    if state.size > node_cap:
        raise TreeSizeLimitError(node_cap)

    for n in range(model.horizon):
        feasible = np.zeros((n_states, n_actions), dtype=bool)
        for x, actions in enumerate(model.feasible[n]):
            feasible[x, list(actions)] = True
        pair_node, pair_action = np.nonzero(feasible[state])
        pair_state = state[pair_node]
        pair_belief = belief[pair_node]
        # predictive masses, computed as belief.predictive computes them
        rows = _like_table(
            model.transition[n].transpose(1, 2, 0, 3)[pair_state, pair_action],
            contiguous=n_states * n_actions == 1,
        )
        masses = np.matmul(pair_belief[:, None, :], rows)[:, 0, :]
        totals = masses.sum(axis=1)
        far = ~(np.abs(totals - 1.0) <= RENORM_LIMIT)  # NaN is far too
        if far.any():
            raise ValueError(
                f"predictive masses sum to {totals[far][0]}; model row sums are off "
                f"by more than {RENORM_LIMIT}"
            )
        drift = np.abs(totals - 1.0) > SUM_TOL
        if drift.any():
            masses[drift] /= totals[drift, None]

        kept = masses > 0.0
        cand_pair, cand_state = np.nonzero(kept)
        joint = rows.transpose(0, 2, 1)[cand_pair, cand_state] * pair_belief[cand_pair]
        posterior = _normalized(joint)
        if dedup:
            first, inverse = _first_of_equal_rows(
                np.column_stack((cand_state, np.round(posterior, 12)))
            )
        else:
            first = inverse = np.arange(cand_pair.size)
        # depth-first order: by the parent that first reached a node, and
        # within one parent in reverse order of reaching
        order = np.lexsort((-first, pair_node[cand_pair[first]]))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        child = np.full(masses.shape, -1)
        child[cand_pair, cand_state] = rank[inverse]

        epochs.append(
            TreeEpoch(state, belief, pair_node, pair_action, child, np.where(kept, masses, 0.0))
        )
        state = cand_state[first[order]]
        belief = posterior[first[order]]
        offsets.append(offsets[-1] + state.size)
        if offsets[-1] > node_cap:
            raise TreeSizeLimitError(node_cap)

    no_pairs = np.empty(0, dtype=int)
    epochs.append(
        TreeEpoch(state, belief, no_pairs, no_pairs,
                  np.empty((0, n_states), dtype=int), np.empty((0, n_states)))
    )
    return ReachableBeliefTree(
        model=model, prior=prior, epochs=epochs, offsets=np.array(offsets), roots=roots
    )


def solve_bayes(
    model: StatisticalMDP,
    prior: Belief,
    node_cap: int = DEFAULT_NODE_CAP,
    tree: ReachableBeliefTree | None = None,
) -> ValueSolution:
    """Backward induction over the reachable belief tree.

    Terminal values mix the terminal cost by the node belief; interior
    values minimize expected stage cost plus the predictive mixture of
    child values over feasible actions.  The returned value mixes root
    values by the prior-mixture initial distribution.
    """
    if tree is None:
        tree = build_tree(model, prior, node_cap=node_cap)
    elif tree.model is not model:
        raise PolicyTreeMismatchError("tree was built for a different model")
    n_states, n_actions = model.n_states, model.n_actions
    offsets = tree.offsets
    values = np.empty(len(tree))
    actions = np.full(len(tree), -1)
    chosen = [None] * model.horizon

    last = tree.epochs[model.horizon]
    values[offsets[model.horizon] :] = _row_dots(
        last.belief, model.terminal_cost[:, last.state].T, contiguous=n_states == 1
    )
    for n in range(model.horizon - 1, -1, -1):
        epoch = tree.epochs[n]
        later = values[offsets[n + 1] : offsets[n + 2]]
        stage = model.stage_cost[n][:, epoch.state[epoch.pair_node], epoch.pair_action].T
        q = _row_dots(
            epoch.belief[epoch.pair_node], stage, contiguous=n_states * n_actions == 1
        )
        # stage term first, then the branches in ascending next state; a
        # pruned branch adds 0
        q = _sum_in_order(q, epoch.mass * later[epoch.child])
        # pair of each (node, action), or one past the last where infeasible
        index = np.full((epoch.state.size, n_actions), q.size)
        index[epoch.pair_node, epoch.pair_action] = np.arange(q.size)
        best = np.append(q, np.inf)[index].argmin(axis=1)  # lowest action on a tie
        chosen[n] = index[np.arange(best.size), best]
        values[offsets[n] : offsets[n + 1]] = q[chosen[n]]
        actions[offsets[n] : offsets[n + 1]] = best

    total = sum(mass * values[idx] for idx, mass in tree.roots)
    policy = DeterministicPolicy(tree=tree, actions=actions)
    policy.__dict__["pairs"] = chosen  # fills the cached property
    return ValueSolution(tree=tree, value=float(total), node_values=values, policy=policy)


def _policy_costs(model: StatisticalMDP, policy: DeterministicPolicy) -> np.ndarray:
    """Expected total cost of ``policy`` under every parameter: one backward
    pass with a value column per parameter, each moved by its own kernel.

    Only theta-positive next states are added.  A pruned branch has value
    NaN, so a parameter's cost is NaN exactly when one of its pruned
    branches is reachable under it.
    """
    tree = policy.tree
    if tree.model is not model:
        raise PolicyTreeMismatchError("policy was built for a different model")
    pairs = policy.pairs
    n_params = model.n_params
    missing = np.full((1, n_params), np.nan)

    last = tree.epochs[model.horizon]
    values = model.terminal_cost[:, last.state].T
    for n in range(model.horizon - 1, -1, -1):
        epoch = tree.epochs[n]
        action = epoch.pair_action[pairs[n]]
        child = epoch.child[pairs[n]]
        later = np.concatenate((values, missing))  # child -1 reads NaN
        prob = model.transition[n][:, epoch.state, action].transpose(1, 0, 2)
        reached = later[child].transpose(0, 2, 1)
        stage = model.stage_cost[n][:, epoch.state, action].T
        values = _sum_in_order(stage, np.where(prob > 0.0, prob * reached, 0.0))

    root_of = np.full(model.n_states, -1)
    for idx, _ in tree.roots:
        root_of[tree.epochs[0].state[idx]] = idx
    prob = model.initial_kernel
    reached = np.concatenate((values, missing))[root_of].T
    return _sum_in_order(np.zeros(n_params), np.where(prob > 0.0, prob * reached, 0.0))


def _covered(model: StatisticalMDP, costs: np.ndarray, theta: int) -> float:
    if np.isnan(costs[theta]):
        raise BranchCoverageError(
            f"a state reachable under theta={model.params.labels[theta]} carried "
            "zero mass under the tree's prior"
        )
    return float(costs[theta])


def evaluate_policy(
    model: StatisticalMDP, theta: int, policy: DeterministicPolicy
) -> float:
    """Exact expected total cost of ``policy`` when the parameter is
    ``theta``: backward induction over the tree with probabilities taken
    from the theta-kernel rather than the predictive mixture.

    Raises BranchCoverageError when a theta-positive branch that theta
    reaches was pruned from the tree (possible only when the tree's prior
    gives the branch zero mixture mass).
    """
    if theta < 0 or theta >= model.n_params:
        raise ValueError(f"parameter index {theta} out of range")
    return _covered(model, _policy_costs(model, policy), theta)


def bayes_cost(model: StatisticalMDP, policy: DeterministicPolicy, mu: Belief) -> float:
    """Belief-mixture of per-parameter policy costs.  Parameters with zero
    weight are skipped, so their branches need not be covered by the tree."""
    if len(mu) != model.n_params:
        raise ValueError("belief dimension does not match the parameter set")
    costs = _policy_costs(model, policy)
    total = 0.0
    for k in mu.support():
        total += float(mu.weights[k]) * _covered(model, costs, k)
    return total


def policy_cost_profile(model: StatisticalMDP, policy: DeterministicPolicy) -> np.ndarray:
    """Per-parameter expected total cost of a policy, as an array."""
    costs = _policy_costs(model, policy)
    for k in range(model.n_params):
        _covered(model, costs, k)
    return costs
