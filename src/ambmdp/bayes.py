"""Exact Bayesian value recursion over the reachable belief DAG.

The pair (state, belief) is a sufficient statistic of the observable
history.  For finite spaces and horizon, the set of reachable pairs is
finite, so the value recursion is computed exactly by enumerating it; no
belief-grid discretization is involved.

The posterior at a history is mu * L, normalized, where L is the history's
likelihood vector, so one structure serves every prior.  ``build_tree``
grows it once per model, from the uniform prior on every parameter, and
caches it on the model (``StatisticalMDP.belief_dag``).  It is stored
epoch by epoch in arrays: the state and normalized likelihood of each
node, a table of its feasible (node, action) pairs, and per pair the child
at each next state, the kernel rows and the stage costs.  Nodes are
numbered globally through per-epoch offsets, within an epoch in order of
first occurrence (by parent, then action, then next state).  Only branches
that no parameter reaches are pruned.  Children with identical (state,
likelihood rounded to 12 decimals) are merged, which turns the tree into a
DAG without changing any value: the continuation value and the optimal
action depend on the history only through (epoch, state, belief).

A solve reads the DAG through a view at its prior (``ReachableBeliefTree``),
which shares the DAG's epochs and adds one array, the belief of every
node: the likelihoods times the prior, normalized.  A node reached only
under parameters of zero prior weight keeps its likelihood as belief, the
limit of the beliefs there as the prior is moved towards the uniform one.
``build_tree`` is the one place that takes a node cap.

One backward pass runs over the arrays with a few array operations per
epoch.  It carries a cost column per parameter: the expected cost to go of
the policy under that parameter, moved by that parameter's own kernel (the
alpha vectors of Smallwood and Sondik).  A node's Bayes value is its
belief-weighted mix of the columns, and the prior-weighted mix of the
costs at the roots is the Bayes value of the policy.  ``solve_bayes``
runs the pass choosing at each node the action with the least mix, and so
returns the optimal policy together with its per-parameter cost profile;
``evaluate_policy``, ``bayes_cost`` and ``policy_cost_profile`` run it
with the actions of a given policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PolicyTreeMismatchError, TreeSizeLimitError
from .model import RENORM_LIMIT, SUM_TOL, Belief, StatisticalMDP

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class TreeEpoch:
    """The nodes of one epoch of the belief DAG, and below the horizon
    their (node, action) pairs, ordered by node and then action.
    ``child[p, x]`` is the index, within the next epoch, of the node
    reached from pair ``p`` on observing next state ``x``, or -1 where no
    parameter reaches that branch.  ``kernel[p]`` is the pair's (parameter,
    next state) table of transition probabilities and ``stage[p]`` its
    stage cost per parameter.  The arrays are read-only and shared by every
    view of the DAG; the beliefs at a prior are ``ReachableBeliefTree.belief``."""

    state: np.ndarray  # (nodes,)
    pair_node: np.ndarray  # (pairs,)
    pair_action: np.ndarray  # (pairs,)
    child: np.ndarray  # (pairs, E)
    kernel: np.ndarray  # (pairs, K, E)
    stage: np.ndarray  # (pairs, K)


class _BeliefDag:
    """The reachable DAG of a model: its ``TreeEpoch``s; the normalized
    likelihood of every node, in global order; the epoch offsets; and per
    state the index of its root node, -1 for a state no parameter starts
    in.  Arrays only, and read-only: every view of the DAG shares them."""

    __slots__ = ("epochs", "likelihood", "offsets", "root_of")

    def __init__(self, epochs, likelihood, offsets, root_of):
        self.epochs, self.likelihood = epochs, likelihood
        self.offsets, self.root_of = offsets, root_of

    def __len__(self) -> int:
        return int(self.offsets[-1])


@dataclass
class ReachableBeliefTree:
    """The belief DAG ``dag`` seen at ``prior``: the DAG's own ``epochs``
    and ``offsets``, and the ``(nodes, K)`` belief of every node by global
    index."""

    model: StatisticalMDP
    prior: Belief
    dag: _BeliefDag
    epochs: tuple[TreeEpoch, ...]
    # global index of epoch n's first node; offsets[-1] is the node count
    offsets: np.ndarray
    belief: np.ndarray

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
    values, an arg-min policy (ties broken by lowest action index), and the
    policy's expected total cost under each parameter."""

    tree: ReachableBeliefTree
    value: float
    node_values: np.ndarray
    policy: DeterministicPolicy
    costs: np.ndarray


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


def _first_of_equal_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each group of equal rows of ``key``, with
    the groups numbered in order of their first rows, and the group of
    every row.  A stable sort keeps each group's rows in their original
    order."""
    order = np.lexsort(key.T[::-1])
    ordered = key[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[starts]
    by_first = np.argsort(first)
    group = np.empty_like(order)
    group[order] = np.argsort(by_first)[np.cumsum(starts) - 1]
    return first[by_first], group


def build_tree(
    model: StatisticalMDP, prior: Belief, node_cap: int = DEFAULT_NODE_CAP
) -> ReachableBeliefTree:
    """Build the DAG of every (state, belief) pair reachable within the
    horizon under some parameter, cache it on the model, and return its
    view at ``prior``.

    Raises TreeSizeLimitError once the node count exceeds ``node_cap``, and
    ValueError when a predictive distribution sums to more than
    RENORM_LIMIT away from 1.  A build that raises caches nothing.
    """
    if len(prior) != model.n_params:
        raise ValueError("prior dimension does not match the parameter set")
    # the DAG is grown from the uniform prior, one epoch at a time, so that
    # it does not depend on which prior built it
    uniform = np.full(model.n_params, 1.0 / model.n_params)
    state = np.flatnonzero(uniform @ model.initial_kernel > 0.0)
    belief = _normalized(model.initial_kernel.T[state] * uniform)
    n_states = model.n_states
    root_of = np.full(n_states, -1)
    root_of[state] = np.arange(state.size)
    epochs, beliefs = [], [belief]
    offsets = [0, state.size]
    if state.size > node_cap:
        raise TreeSizeLimitError(node_cap)

    for n in range(model.horizon):
        pair_node, pair_action = np.nonzero(model.feasible_mask[n][state])
        pair_state = state[pair_node]
        pair_belief = belief[pair_node]
        kernel = model.transition[n].transpose(1, 2, 0, 3)[pair_state, pair_action]
        masses = np.matmul(pair_belief[:, None, :], kernel)[:, 0, :]
        totals = masses.sum(axis=1)
        far = ~(np.abs(totals - 1.0) <= RENORM_LIMIT)  # NaN is far too
        if far.any():
            raise ValueError(
                f"predictive masses sum to {totals[far][0]}; model row sums are off "
                f"by more than {RENORM_LIMIT}"
            )

        cand_pair, cand_state = np.nonzero(masses > 0.0)
        joint = kernel.transpose(0, 2, 1)[cand_pair, cand_state] * pair_belief[cand_pair]
        posterior = _normalized(joint)
        first, inverse = _first_of_equal_rows(
            np.column_stack((cand_state, np.round(posterior, 12)))
        )
        child = np.full(masses.shape, -1)
        child[cand_pair, cand_state] = inverse

        stage = model.stage_cost[n][:, pair_state, pair_action].T
        epochs.append(TreeEpoch(state, pair_node, pair_action, child, kernel, stage))
        state = cand_state[first]
        belief = posterior[first]
        beliefs.append(belief)
        offsets.append(offsets[-1] + state.size)
        if offsets[-1] > node_cap:
            raise TreeSizeLimitError(node_cap)

    no_pairs = np.empty(0, dtype=int)
    k = model.n_params
    epochs.append(TreeEpoch(
        state, no_pairs, no_pairs, np.empty((0, n_states), dtype=int),
        np.empty((0, k, n_states)), np.empty((0, k)),
    ))
    offsets, likelihood = np.array(offsets), np.concatenate(beliefs)
    for a in [offsets, likelihood, root_of] + [a for e in epochs for a in vars(e).values()]:
        a.flags.writeable = False
    dag = _BeliefDag(tuple(epochs), likelihood, offsets, root_of)
    object.__setattr__(model, "belief_dag", dag)
    return _view(model, dag, prior)


def _view(model: StatisticalMDP, dag: _BeliefDag, prior: Belief) -> ReachableBeliefTree:
    """``dag`` at ``prior``: beliefs are the likelihood rows times the
    prior, normalized.  A row the prior zeroes keeps its likelihood as
    belief."""
    weighted = dag.likelihood * prior.weights
    if prior.weights.all():
        belief = _normalized(weighted)
    else:
        belief = dag.likelihood.copy()
        live = weighted.any(axis=1)
        belief[live] = _normalized(weighted[live])
    return ReachableBeliefTree(model, prior, dag, dag.epochs, dag.offsets, belief)


def _mix(weights: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Weighted sums of the cost columns along the last axis; a column with
    zero weight adds nothing, even where it is NaN."""
    return np.where(weights > 0.0, weights * columns, 0.0) @ np.ones(columns.shape[-1])


def _expect(start: np.ndarray, prob: np.ndarray, reached: np.ndarray) -> np.ndarray:
    """``start`` plus the ``prob``-weighted values ``reached``, both indexed
    by next state along the last axis, added in ascending next state.  Only
    positive-probability next states are added, so a NaN value counts only
    where it can be reached."""
    terms = np.where(prob > 0.0, prob * reached, 0.0)
    for x in range(terms.shape[-1]):
        start = start + terms[..., x]
    return start


def _backward(
    model: StatisticalMDP,
    tree: ReachableBeliefTree,
    pairs: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One backward pass carrying a cost column per parameter: the expected
    cost to go of the policy under that parameter, each moved by its own
    kernel.  A node's Bayes value is its belief-weighted mix of columns.

    With ``pairs`` (per epoch, the chosen pair of each node) the pass
    evaluates that policy.  Without, every node takes the feasible pair
    whose columns have the least belief-weighted mix, the lowest action on
    a tie.  A pruned branch reads NaN with zero probability under every
    parameter.  A column can still be NaN at a node that its parameter
    never reaches, where it has zero belief weight and decides nothing.

    Returns the per-parameter cost of the policy from the prior, the Bayes
    value of every node (only computed when choosing) and the chosen pairs.
    """
    offsets = tree.offsets
    values = np.empty(len(tree))
    chosen = [None] * model.horizon if pairs is None else pairs
    missing = np.full((1, model.n_params), np.nan)

    columns = model.terminal_cost[:, tree.epochs[model.horizon].state].T
    if pairs is None:
        values[offsets[model.horizon] :] = _mix(tree.belief[offsets[model.horizon] :], columns)
    for n in range(model.horizon - 1, -1, -1):
        epoch = tree.epochs[n]
        p = slice(None) if pairs is None else pairs[n]
        # stage term first, then the branches; (pair, parameter, next state)
        columns = _expect(
            epoch.stage[p],
            epoch.kernel[p],
            np.concatenate((columns, missing))[epoch.child[p]].transpose(0, 2, 1),
        )
        if pairs is None:
            mixed = _mix(tree.belief[offsets[n] + epoch.pair_node], columns)
            # a node's pairs are in action order, so the stable sort puts
            # its least mix, with the lowest action on a tie, first
            first = np.searchsorted(epoch.pair_node, np.arange(epoch.state.size))
            chosen[n] = np.lexsort((mixed, epoch.pair_node))[first]
            columns = columns[chosen[n]]
            values[offsets[n] : offsets[n + 1]] = mixed[chosen[n]]

    reached = np.concatenate((columns, missing))[tree.dag.root_of].T
    costs = _expect(np.zeros(model.n_params), model.initial_kernel, reached)
    return costs, values, chosen


def solve_bayes(model: StatisticalMDP, prior: Belief) -> ValueSolution:
    """Backward induction over the model's belief DAG, seen at ``prior``;
    a model with no cached DAG builds it under ``DEFAULT_NODE_CAP`` (call
    ``build_tree`` first for another cap).

    Each node takes the feasible action of least expected stage cost plus
    continuation cost under its belief (see ``_backward``).  The returned
    value mixes the policy's per-parameter costs by the prior.
    """
    if len(prior) != model.n_params:
        raise ValueError("prior dimension does not match the parameter set")
    dag = model.belief_dag
    tree = build_tree(model, prior) if dag is None else _view(model, dag, prior)
    costs, values, chosen = _backward(model, tree)
    actions = np.full(len(tree), -1)
    for n, pairs in enumerate(chosen):
        actions[tree.offsets[n] : tree.offsets[n + 1]] = tree.epochs[n].pair_action[pairs]
    policy = DeterministicPolicy(tree=tree, actions=actions)
    policy.__dict__["pairs"] = chosen  # fills the cached property
    return ValueSolution(
        tree=tree,
        value=float(_mix(prior.weights, costs)),
        node_values=values,
        policy=policy,
        costs=costs,
    )


def policy_cost_profile(model: StatisticalMDP, policy: DeterministicPolicy) -> np.ndarray:
    """Per-parameter expected total cost of a policy, as an array."""
    if policy.tree.model is not model:
        raise PolicyTreeMismatchError("policy was built for a different model")
    return _backward(model, policy.tree, policy.pairs)[0]


def evaluate_policy(
    model: StatisticalMDP, theta: int, policy: DeterministicPolicy
) -> float:
    """Exact expected total cost of ``policy`` when the parameter is
    ``theta``: backward induction over the tree with probabilities taken
    from the theta-kernel rather than the predictive mixture.
    """
    if theta < 0 or theta >= model.n_params:
        raise ValueError(f"parameter index {theta} out of range")
    return float(policy_cost_profile(model, policy)[theta])


def bayes_cost(model: StatisticalMDP, policy: DeterministicPolicy, mu: Belief) -> float:
    """Belief-mixture of per-parameter policy costs."""
    if len(mu) != model.n_params:
        raise ValueError("belief dimension does not match the parameter set")
    return float(_mix(mu.weights, policy_cost_profile(model, policy)))
