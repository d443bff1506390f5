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
at each next state and its (state, action) cell, its row in the DAG's
pair-major copy of the model's kernels and stage costs.  Nodes are
numbered globally through per-epoch offsets, within an epoch in order of
first occurrence (by parent, then action, then next state).  Only branches
that no parameter reaches are pruned.  Children with identical (state,
likelihood rounded to 12 decimals) are merged, which turns the tree into a
DAG without changing any value: the continuation value and the optimal
action depend on the history only through (epoch, state, belief).  Equal
children are found by one sort on a hash of each (state, rounded
likelihood) row and an exact check of every row against the first of its
hash group; a sort on all the columns serves only when two different rows
share a hash.

A solve reads the DAG through a view at its prior (``ReachableBeliefTree``),
which shares the DAG's epochs and adds one array, the belief of every
node: the likelihoods times the prior, normalized.  The array is computed
on first read, so a view that only evaluates a given policy, or that a
caller discards after a build, costs nothing.  A node of zero mass
under the prior, by zero weights or underflow, keeps its likelihood as
belief (at zero weights, the limit as the prior moves to uniform).
``build_tree`` is the one place that takes a node cap.

One backward pass runs over the arrays with a few array operations per
epoch.  All its prior-free work (each node's first pair, the live
branches, the terminal and initial tables) is planned once per DAG, by
``build_tree``, so that a pass over a small DAG costs little beyond its
arithmetic.  It carries a cost column per
parameter: the expected cost to go of the policy under that parameter,
moved by that parameter's own kernel (the alpha vectors of Smallwood and
Sondik).  A node's Bayes value is its belief-weighted mix of the columns,
and the prior-weighted mix of the costs at the roots is the Bayes value
of the policy.  ``solve_bayes`` runs the pass choosing at each node the
action with the least mix, and so returns the optimal policy together
with its per-parameter cost profile; the policy's action table is
computed on first read.  ``bayes_cost`` and ``policy_cost_profile``
run it with the actions of a given policy.  A branch is live for a
parameter where its kernel entry is positive and the branch has a
child, so a pruned branch counts for nothing and no column is NaN.  A
parameter reaches a pruned branch only where its likelihood has
underflowed to 0, so the branch weighs less than about 1e-300 under
it.  ``solve_bayes`` keeps its last ``SOLVE_MEMO`` results on the DAG,
keyed by the bytes of the prior's weights, and drops the least recently
used first: each the value, the read-only costs and the chosen pairs, and
no model.  A solve is a pure function of the DAG and those bytes, so a
hit, which runs no pass, never changes a result.  ``policy_cost_profile``
keeps its last evaluations the same way, keyed by the bytes of the
policy's pairs (one entry per node in each epoch, so unambiguous on one
DAG): read-only costs, filled by evaluation passes only.  Each
two-parameter support's segment planes are kept beside them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce

import numpy as np

from .errors import PolicyTreeMismatchError, TreeSizeLimitError
from .model import Belief, StatisticalMDP, _check_masses, _check_prior, _count

DEFAULT_NODE_CAP = 10_000_000
SOLVE_MEMO = 64  # Bayes solves, and policy evaluations, kept per DAG


class TreeEpoch(namedtuple("TreeEpoch", "state pair_node child pair_cell first_pair live")):
    """The nodes of one epoch of the belief DAG, and below the horizon
    their (node, action) pairs, ordered by node and then action.
    ``child[p, x]`` is the index, within the next epoch, of the node
    reached from pair ``p`` on observing next state ``x``, or -1 where no
    parameter reaches that branch.  ``pair_cell[p]``, state * A + action,
    is the pair's row in epoch n's kernels ``dag.kernels[n]`` and stage
    costs ``dag.stages[n]``, so ``pair_cell % A`` is its action.  The
    arrays are read-only and shared by every view of the DAG; the beliefs
    at a prior are ``ReachableBeliefTree.belief``.

    Shapes: ``state`` (nodes,), ``pair_node`` and ``pair_cell`` (pairs,),
    ``child`` (pairs, E).
    The backward pass's plan: ``first_pair`` (nodes,), each node's first
    pair (empty at the horizon); ``live`` (pairs, K, E), where the kernel
    is > 0 on a branch with a child."""

    __slots__ = ()


class _BeliefDag:
    """The reachable DAG of a model: its ``TreeEpoch``s; the normalized
    likelihood of every node, in global order; the epoch offsets; per
    state the index of its root node, -1 for a state no parameter starts
    in; the model's kernels (N, E·A, K, E) and stage costs (N, E·A, K),
    copied pair-major; the backward pass's terminal columns and root step.
    Arrays only, and read-only: every view of the DAG shares them.  ``solves``
    maps the bytes of a prior's weights to the last ``SOLVE_MEMO`` Bayes
    solves, least recently used first: each (value, costs, chosen pairs).
    ``evals`` maps the bytes of a policy's pairs to its costs the same way.
    ``segments`` maps a support to its segment planes (see ``ambiguity``)."""

    __slots__ = ("epochs", "likelihood", "offsets", "root_of", "kernels", "stages",
                 "terminal", "root_step", "solves", "evals", "segments")

    def __init__(self, epochs, likelihood, offsets, root_of, kernels, stages, terminal, root_step):
        self.epochs, self.likelihood, self.offsets = tuple(epochs), likelihood, offsets
        self.root_of, self.kernels, self.stages = root_of, kernels, stages
        self.terminal, self.root_step = terminal, root_step
        self.solves, self.evals, self.segments = {}, {}, {}


class ReachableBeliefTree:
    """The belief DAG ``dag`` seen at ``prior``: the DAG's own ``epochs``
    and ``offsets`` (the global index of epoch n's first node; offsets[-1]
    is the node count), read from it, and the ``(nodes, K)`` belief of
    every node by global index, computed on first read."""

    def __init__(self, model: StatisticalMDP, prior: Belief, dag: _BeliefDag):
        self.model, self.prior, self.dag = model, prior, dag
        self.epochs, self.offsets = dag.epochs, dag.offsets

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @cached_property
    def belief(self) -> np.ndarray:
        """The likelihood rows times the prior, normalized.  A row of zero
        mass, left by a zero weight or by underflow, keeps its likelihood."""
        likelihood = self.dag.likelihood
        weighted = likelihood * self.prior.weights
        totals = weighted.sum(axis=1)[:, None]
        return np.divide(weighted, totals, out=likelihood.copy(), where=totals > 0.0)

    @property
    def nodes_per_epoch(self) -> list[int]:
        return np.diff(self.offsets).tolist()


class DeterministicPolicy:
    """Action per tree node by global index; -1 at the horizon epoch,
    where no decision is taken.  A policy that ``solve_bayes`` returns
    holds its ``pairs``, and its ``actions`` are computed on first read."""

    def __init__(self, tree: ReachableBeliefTree, actions: np.ndarray):
        self.tree, self.actions = tree, actions

    @classmethod
    def from_pairs(cls, tree: ReachableBeliefTree, pairs: tuple) -> DeterministicPolicy:
        """The policy choosing ``pairs`` on ``tree``; actions on first read."""
        policy = cls.__new__(cls)
        policy.tree, policy.pairs = tree, pairs
        return policy

    @cached_property
    def actions(self) -> np.ndarray:
        tree = self.tree
        actions = np.full(len(tree), -1)
        for n, pairs in enumerate(self.pairs):
            actions[tree.offsets[n] : tree.offsets[n + 1]] = tree.epochs[n].pair_cell.take(pairs)
        actions[: tree.offsets[-2]] %= tree.model.n_actions  # each cell's action
        return actions

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
            keys = np.append(epoch.pair_node * n_actions + epoch.pair_cell % n_actions, -1)
            wanted = np.arange(chosen.size) * n_actions + chosen
            pos = np.searchsorted(keys[:-1], wanted)
            bad = (chosen < 0) | (chosen >= n_actions) | (keys[pos] != wanted)
            if bad.any():
                raise PolicyTreeMismatchError(
                    f"policy does not cover tree node {tree.offsets[n] + np.argmax(bad)}"
                )
            out.append(pos)
        return out


def _fitted_pairs(model: StatisticalMDP, policy: DeterministicPolicy) -> list[np.ndarray]:
    """``policy.pairs``, once the policy is known to be built for ``model``."""
    if policy.tree.model is not model:
        raise PolicyTreeMismatchError("policy was built for a different model")
    return policy.pairs


class ValueSolution(namedtuple("ValueSolution", "tree value policy costs")):
    """Output of the value recursion: the ``ReachableBeliefTree``, the total
    value (a float), an arg-min ``DeterministicPolicy`` (ties broken by
    lowest action index) and the policy's expected total cost under each
    parameter, a read-only (K,) array that later solves may share."""

    __slots__ = ()


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Each row divided by its sum, which pairwise sums keep within Belief's tolerance of 1."""
    weights = np.ascontiguousarray(weights)  # sums run along contiguous rows
    return weights / weights.sum(axis=1)[:, None]


def _row_hash(key: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a float array, equal for equal rows.
    It is computed elementwise on the bits, never by a matrix product,
    which could round equal rows differently.  Adding 0.0 turns -0.0 into
    0.0, the one pair of equal floats with different bits."""
    multipliers = _HASH_MULTIPLIERS[: key.shape[1]]
    if multipliers.size < key.shape[1]:
        multipliers = np.resize(_HASH_MULTIPLIERS, key.shape[1])
    mixed = (key + 0.0).view(np.uint64) * multipliers
    mixed ^= mixed >> _HASH_SHIFT
    # column by column: a reduction along a short axis is slower
    return reduce(np.add, mixed.T)


#: distinct odd multipliers for the key columns, reused in turn past the 64th
_HASH_MULTIPLIERS = np.arange(1, 129, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(31)


def _group_heads(order: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For rows sorted by ``order`` into groups that begin where ``starts``
    is set: the least row index of each group, and of every row's group."""
    heads = np.minimum.reduceat(order, np.flatnonzero(starts))
    head_of = np.empty_like(order)
    head_of[order] = heads[np.cumsum(starts) - 1]
    return heads, head_of


def _first_of_equal_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each group of equal rows of the float
    array ``key``, with the groups numbered in order of their first rows,
    and the group of every row.

    One sort by a hash of each row brings equal rows together, and every
    row is then checked to equal the first row of its hash group, so the
    groups are exact.  Only when two different rows share a hash are the
    rows sorted on all the key's columns instead."""
    hashes = _row_hash(key)
    order = np.argsort(hashes)
    hashes = hashes[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.not_equal(hashes[1:], hashes[:-1], out=starts[1:])
    if starts.all():
        return np.arange(order.size), np.arange(order.size)
    heads, head_of = _group_heads(order, starts)
    if not (key == np.take(key, head_of, axis=0)).all():
        order = np.lexsort(key.T[::-1])
        ordered = key[order]
        starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        heads, head_of = _group_heads(order, starts)
    first = np.sort(heads)
    return first, np.searchsorted(first, head_of)


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
    _check_prior(model, prior)
    node_cap = _count("node_cap", node_cap, 1)
    # the DAG is grown from the uniform prior, one epoch at a time, so that
    # it does not depend on which prior built it
    uniform = np.full(model.n_params, 1.0 / model.n_params)
    state = np.flatnonzero(uniform @ model.initial_kernel > 0.0)
    belief = _normalized(model.initial_kernel.T[state] * uniform)
    n_states, n_actions, k = model.n_states, model.n_actions, model.n_params
    by_cell = (model.horizon, n_states * n_actions)  # pair-major: cell c of epoch n is row [n, c]
    kernels = model.transition.transpose(0, 2, 3, 1, 4).reshape(*by_cell, k, n_states)
    stages = model.stage_cost.transpose(0, 2, 3, 1).reshape(*by_cell, k)
    root_of = np.full(n_states, -1)
    root_of[state] = np.arange(state.size)
    epochs, beliefs = [], [belief]
    offsets = [0, state.size]
    if state.size > node_cap:
        raise TreeSizeLimitError(node_cap)

    for n in range(model.horizon):
        pair_node, action = np.nonzero(model.feasible_mask[n][state])
        pair_cell = state[pair_node] * n_actions + action
        pair_belief = belief[pair_node]
        kernel = kernels[n].take(pair_cell, axis=0)
        # (pair, parameter, next state) products, for the masses and the posteriors
        joint = kernel * pair_belief[:, :, None]
        masses = reduce(np.add, joint.transpose(1, 0, 2))
        _check_masses(reduce(np.add, masses.T))

        reached = masses > 0.0
        cand_pair, cand_state = np.nonzero(reached)
        posterior = _normalized(joint.transpose(0, 2, 1)[cand_pair, cand_state])
        key = np.empty((cand_state.size, k + 1))  # (state, rounded posterior) rows
        key[:, 0], key[:, 1:] = cand_state, np.round(posterior, 12)
        first, inverse = _first_of_equal_rows(key)
        child = np.full(masses.shape, -1)
        child[cand_pair, cand_state] = inverse

        first_pair = np.searchsorted(pair_node, np.arange(state.size))
        live = (kernel > 0.0) & reached[:, None, :]  # and the branch has a child
        epochs.append(TreeEpoch(state, pair_node, child, pair_cell, first_pair, live))
        state = cand_state[first]
        belief = posterior[first]
        beliefs.append(belief)
        offsets.append(offsets[-1] + state.size)
        if offsets[-1] > node_cap:
            raise TreeSizeLimitError(node_cap)

    no_pairs = np.empty(0, dtype=int)
    epochs.append(TreeEpoch(
        state, no_pairs, np.empty((0, n_states), dtype=int), no_pairs, no_pairs,
        np.empty((0, k, n_states), dtype=bool),
    ))
    offsets, likelihood = np.array(offsets), np.concatenate(beliefs)
    terminal = model.terminal_cost.take(state, axis=1).T
    root_step = (np.zeros(k), model.initial_kernel, model.initial_kernel > 0.0)
    arrays = [offsets, likelihood, root_of, kernels, stages, terminal, *root_step]
    for a in arrays + [a for e in epochs for a in e]:
        a.flags.writeable = False
    dag = _BeliefDag(epochs, likelihood, offsets, root_of, kernels, stages, terminal, root_step)
    object.__setattr__(model, "belief_dag", dag)
    return ReachableBeliefTree(model, prior, dag)


def _mix(weights: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Weighted sums of the cost columns along the last axis; a column with
    zero weight adds nothing, even where it is NaN."""
    return np.where(weights > 0.0, weights * columns, 0.0) @ np.ones(columns.shape[-1])


def _expect(start: np.ndarray, prob: np.ndarray, live: np.ndarray, reached: np.ndarray):
    """``start`` plus the ``prob``-weighted values ``reached``, both indexed
    by next state along the last axis, added one next state at a time in
    ascending order.  Only next states where ``live`` are added, so a value
    read where a branch is not live counts for nothing.  The result is
    contiguous, as a dot product with a strided vector can round otherwise."""
    terms = np.where(live, prob * reached, 0.0)
    total = start + terms[..., 0]
    for x in range(1, terms.shape[-1]):
        total += terms[..., x]
    return total


def _backward(
    model: StatisticalMDP,
    tree: ReachableBeliefTree,
    pairs: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One backward pass carrying a cost column per parameter: the expected
    cost to go of the policy under that parameter, each moved by its own
    kernel.  A node's Bayes value is its belief-weighted mix of columns.

    With ``pairs`` (per epoch, the chosen pair of each node) the pass
    evaluates that policy.  Without, every node takes the feasible pair
    whose columns have the least belief-weighted mix, the lowest action on
    a tie.  A branch that is not live adds nothing, so the child index -1
    of a pruned branch reads a row that counts for nothing.

    Returns the per-parameter cost of the policy from the prior and the
    chosen pairs.
    """
    dag, bounds = tree.dag, tree.offsets.tolist()
    chosen = [None] * model.horizon if pairs is None else pairs
    columns = dag.terminal
    for n in range(model.horizon - 1, -1, -1):
        epoch = tree.epochs[n]
        p = slice(None) if pairs is None else pairs[n]
        cells = epoch.pair_cell[p]
        # stage term first, then the branches; (pair, parameter, next state)
        columns = _expect(
            dag.stages[n].take(cells, axis=0), dag.kernels[n].take(cells, axis=0),
            epoch.live[p], columns.take(epoch.child[p], axis=0).transpose(0, 2, 1),
        )
        if pairs is None:
            beliefs = tree.belief[bounds[n] : bounds[n + 1]]
            mixed = _mix(beliefs.take(epoch.pair_node, axis=0), columns)
            # a node's pairs are in action order, so the stable sort puts
            # its least mix, with the lowest action on a tie, first
            chosen[n] = np.lexsort((mixed, epoch.pair_node)).take(epoch.first_pair)
            columns = columns.take(chosen[n], axis=0)
    return _expect(*dag.root_step, columns.take(dag.root_of, axis=0).T), chosen


def solve_bayes(model: StatisticalMDP, prior: Belief) -> ValueSolution:
    """Backward induction over the model's belief DAG, seen at ``prior``;
    a model with no cached DAG builds it under ``DEFAULT_NODE_CAP`` (call
    ``build_tree`` first for another cap).

    Each node takes the feasible action of least expected stage cost plus
    continuation cost under its belief (see ``_backward``).  The returned
    value mixes the policy's per-parameter costs by the prior.
    """
    _check_prior(model, prior)
    dag = model.belief_dag
    tree = build_tree(model, prior) if dag is None else ReachableBeliefTree(model, prior, dag)
    def solved():
        costs, chosen = _backward(model, tree)
        for a in (costs, *chosen):
            a.flags.writeable = False
        return float(_mix(prior.weights, costs)), costs, tuple(chosen)

    value, costs, chosen = _recall(tree.dag.solves, prior.weights.tobytes(), solved)
    return ValueSolution(tree, value, DeterministicPolicy.from_pairs(tree, chosen), costs)


def _recall(memo: dict, key: bytes, compute):
    """``memo[key]``, from ``compute()`` on a miss, which at ``SOLVE_MEMO``
    entries first drops the least recently used; now the most recent."""
    entry = memo.pop(key, None)
    if entry is None:
        entry = compute()
        if len(memo) == SOLVE_MEMO:
            del memo[next(iter(memo))]
    memo[key] = entry
    return entry


def policy_cost_profile(model: StatisticalMDP, policy: DeterministicPolicy) -> np.ndarray:
    """Per-parameter expected total cost of a policy, as a read-only array
    from the DAG's evaluation memo."""
    tree, pairs = policy.tree, _fitted_pairs(model, policy)
    def evaluated():
        costs = _backward(model, tree, pairs)[0]
        costs.flags.writeable = False
        return costs

    return _recall(tree.dag.evals, b"".join(p.tobytes() for p in pairs), evaluated)


def bayes_cost(model: StatisticalMDP, policy: DeterministicPolicy, mu: Belief) -> float:
    """Belief-mixture of per-parameter policy costs."""
    _check_prior(model, mu)
    return float(_mix(mu.weights, policy_cost_profile(model, policy)))
