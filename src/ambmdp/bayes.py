"""Exact Bayesian value recursion over the reachable belief tree.

The pair (state, belief) is a sufficient statistic of the observable
history.  For finite spaces and horizon, the set of reachable pairs is
finite, so the value recursion is computed exactly by enumerating it; no
belief-grid discretization is involved.

Nodes with identical (epoch, state, belief rounded to 12 decimals) are
merged, which turns the tree into a DAG without changing any value: the
continuation value and the optimal action depend on the history only
through (epoch, state, belief).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .belief import initial_posterior, predictive
from .errors import (
    BranchCoverageError,
    PolicyTreeMismatchError,
    TreeSizeLimitError,
)
from .model import Belief, StatisticalMDP

DEFAULT_NODE_CAP = 10_000_000

# child branch: (next_state, child node index, predictive mass)
Branch = tuple[int, int, float]


@dataclass
class TreeNode:
    index: int
    epoch: int
    state: int
    belief: Belief
    # action index -> positive-mass branches, ordered by next state
    children: dict[int, tuple[Branch, ...]] = field(default_factory=dict)


@dataclass
class ReachableBeliefTree:
    model: StatisticalMDP
    prior: Belief
    nodes: list[TreeNode]
    # (root node index, prior-mixture mass of its initial state)
    roots: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class DeterministicPolicy:
    """Action choice per tree node at every epoch below the horizon."""

    tree: ReachableBeliefTree
    actions: dict[int, int]

    def action_at(self, node_index: int) -> int:
        try:
            return self.actions[node_index]
        except KeyError:
            raise PolicyTreeMismatchError(
                f"policy does not cover tree node {node_index}"
            ) from None


@dataclass
class ValueSolution:
    """Output of the value recursion: total value, per-node continuation
    values, and an arg-min policy (ties broken by lowest action index)."""

    tree: ReachableBeliefTree
    value: float
    node_values: np.ndarray
    policy: DeterministicPolicy


def _belief_key(belief: Belief) -> tuple[float, ...]:
    return tuple(np.round(belief.weights, 12).tolist())


def build_tree(
    model: StatisticalMDP,
    prior: Belief,
    node_cap: int = DEFAULT_NODE_CAP,
    dedup: bool = True,
) -> ReachableBeliefTree:
    """Enumerate every (state, belief) pair reachable from the prior within
    the horizon.  Zero-mass branches are pruned.

    Raises TreeSizeLimitError as soon as the node count would exceed
    ``node_cap``.
    """
    if len(prior) != model.n_params:
        raise ValueError("prior dimension does not match the parameter set")
    nodes: list[TreeNode] = []
    pool: dict[tuple, int] = {}

    def intern(epoch: int, state: int, belief: Belief) -> tuple[int, bool]:
        if dedup:
            key = (epoch, state, _belief_key(belief))
            found = pool.get(key)
            if found is not None:
                return found, False
        if len(nodes) >= node_cap:
            raise TreeSizeLimitError(node_cap)
        node = TreeNode(index=len(nodes), epoch=epoch, state=state, belief=belief)
        nodes.append(node)
        if dedup:
            pool[key] = node.index
        return node.index, True

    root_masses = prior.weights @ model.initial_kernel
    roots = []
    frontier: list[int] = []
    for x in range(model.n_states):
        mass = float(root_masses[x])
        if mass <= 0.0:
            continue
        idx, fresh = intern(0, x, initial_posterior(model, prior, x))
        roots.append((idx, mass))
        if fresh:
            frontier.append(idx)

    while frontier:
        node = nodes[frontier.pop()]
        if node.epoch >= model.horizon:
            continue
        for action in model.feasible[node.epoch][node.state]:
            pred = predictive(model, node.epoch, node.state, node.belief, action)
            branches = []
            for x_next in range(model.n_states):
                mass = float(pred.masses[x_next])
                if mass <= 0.0:
                    continue
                child, fresh = intern(node.epoch + 1, x_next, pred.posteriors[x_next])
                branches.append((x_next, child, mass))
                if fresh:
                    frontier.append(child)
            node.children[action] = tuple(branches)

    return ReachableBeliefTree(model=model, prior=prior, nodes=nodes, roots=tuple(roots))


def _epochs_descending(tree: ReachableBeliefTree):
    order: dict[int, list[TreeNode]] = {}
    for node in tree.nodes:
        order.setdefault(node.epoch, []).append(node)
    for epoch in sorted(order, reverse=True):
        yield from order[epoch]


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
    values = np.empty(len(tree.nodes))
    chosen: dict[int, int] = {}

    for node in _epochs_descending(tree):
        w = node.belief.weights
        if node.epoch == model.horizon:
            values[node.index] = float(w @ model.terminal_cost[:, node.state])
            continue
        best = None
        best_action = -1
        for action in model.feasible[node.epoch][node.state]:
            q = float(w @ model.stage_cost[node.epoch, :, node.state, action])
            for _, child, mass in node.children[action]:
                q += mass * values[child]
            if best is None or q < best:
                best = q
                best_action = action
        values[node.index] = best
        chosen[node.index] = best_action

    total = sum(mass * values[idx] for idx, mass in tree.roots)
    return ValueSolution(
        tree=tree,
        value=float(total),
        node_values=values,
        policy=DeterministicPolicy(tree=tree, actions=chosen),
    )


def evaluate_policy(
    model: StatisticalMDP, theta: int, policy: DeterministicPolicy
) -> float:
    """Exact expected total cost of ``policy`` when the parameter is
    ``theta``: backward induction over the tree with probabilities taken
    from the theta-kernel rather than the predictive mixture.

    Raises BranchCoverageError when a theta-positive branch was pruned from
    the tree (possible only when the tree's prior gives the branch zero
    mixture mass).
    """
    tree = policy.tree
    if tree.model is not model:
        raise PolicyTreeMismatchError("policy was built for a different model")
    if theta < 0 or theta >= model.n_params:
        raise ValueError(f"parameter index {theta} out of range")

    values = np.full(len(tree.nodes), np.nan)
    for node in _epochs_descending(tree):
        if node.epoch == model.horizon:
            values[node.index] = model.terminal_cost[theta, node.state]
            continue
        action = policy.action_at(node.index)
        row = model.transition[node.epoch, theta, node.state, action]
        by_state = {x_next: child for x_next, child, _ in node.children.get(action, ())}
        total = float(model.stage_cost[node.epoch, theta, node.state, action])
        for x_next in np.nonzero(row > 0.0)[0]:
            child = by_state.get(int(x_next))
            if child is None:
                raise BranchCoverageError(
                    f"state {model.states[int(x_next)]} is reachable under "
                    f"theta={model.params.labels[theta]} but carried zero mass "
                    "under the tree's prior"
                )
            total += float(row[x_next]) * values[child]
        values[node.index] = total

    roots_by_state = {tree.nodes[idx].state: idx for idx, _ in tree.roots}
    init = model.initial_kernel[theta]
    result = 0.0
    for x in np.nonzero(init > 0.0)[0]:
        idx = roots_by_state.get(int(x))
        if idx is None:
            raise BranchCoverageError(
                f"initial state {model.states[int(x)]} is reachable under "
                f"theta={model.params.labels[theta]} but carried zero mass "
                "under the tree's prior"
            )
        result += float(init[x]) * values[idx]
    return result


def bayes_cost(model: StatisticalMDP, policy: DeterministicPolicy, mu: Belief) -> float:
    """Belief-mixture of per-parameter policy costs.  Parameters with zero
    weight are skipped, so their branches need not be covered by the tree."""
    if len(mu) != model.n_params:
        raise ValueError("belief dimension does not match the parameter set")
    total = 0.0
    for k in mu.support():
        total += float(mu.weights[k]) * evaluate_policy(model, k, policy)
    return total


def policy_cost_profile(model: StatisticalMDP, policy: DeterministicPolicy) -> np.ndarray:
    """Per-parameter expected total cost of a policy, as an array."""
    return np.array(
        [evaluate_policy(model, k, policy) for k in range(model.n_params)]
    )
