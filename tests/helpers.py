"""Shared builders for randomized test instances."""

import json
from itertools import combinations, product
from pathlib import Path

import numpy as np

from ambmdp import bayes
from ambmdp.bayes import DeterministicPolicy, ReachableBeliefTree
from ambmdp.model import Belief, ParameterSet, StatisticalMDP


def random_model(
    rng: np.random.Generator,
    n_states: int | None = None,
    n_actions: int | None = None,
    horizon: int | None = None,
    n_params: int | None = None,
    cost_range: tuple[float, float] = (-2.0, 5.0),
    full_feasible: bool = False,
) -> StatisticalMDP:
    """Random fully-supported model: Dirichlet kernels (strictly positive
    almost surely), uniform costs, random non-empty feasible sets."""
    n_states = n_states if n_states is not None else int(rng.integers(2, 5))
    n_actions = n_actions if n_actions is not None else int(rng.integers(1, 4))
    horizon = horizon if horizon is not None else int(rng.integers(1, 4))
    n_params = n_params if n_params is not None else int(rng.integers(2, 4))

    feasible = []
    for _ in range(horizon):
        per_state = []
        for _ in range(n_states):
            if full_feasible:
                per_state.append(tuple(range(n_actions)))
            else:
                count = int(rng.integers(1, n_actions + 1))
                chosen = rng.choice(n_actions, size=count, replace=False)
                per_state.append(tuple(sorted(int(a) for a in chosen)))
        feasible.append(tuple(per_state))

    return StatisticalMDP(
        horizon=horizon,
        states=tuple(f"s{x}" for x in range(n_states)),
        actions=tuple(f"a{a}" for a in range(n_actions)),
        params=ParameterSet(tuple(f"t{k}" for k in range(n_params))),
        feasible=tuple(feasible),
        initial_kernel=rng.dirichlet(np.ones(n_states), size=n_params),
        transition=rng.dirichlet(
            np.ones(n_states), size=(horizon, n_params, n_states, n_actions)
        ),
        stage_cost=rng.uniform(*cost_range, size=(horizon, n_params, n_states, n_actions)),
        terminal_cost=rng.uniform(*cost_range, size=(n_params, n_states)),
    )


def load_artifact(path):
    """The JSON artifact at ``path``, parsed strictly: ``NaN``, ``Infinity``
    and ``-Infinity``, which ``json.dumps`` writes for non-finite floats but
    JSON has no words for, raise ValueError."""
    def refuse(word):
        raise ValueError(f"{path}: {word} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def subnormal_prior_model() -> StatisticalMDP:
    """One action, H=2, every parameter starts in s0: t0 and t1 move to
    x1, t2 to x2, and x1 and x2 absorb.  At the prior (5e-324, 5e-324, 1)
    the x1 node's likelihood (1/2, 1/2, 0) times the prior underflows to
    zero mass, although every weight is positive."""
    transition = np.zeros((2, 3, 3, 1, 3))
    transition[:, :, 1, 0, 1] = transition[:, :, 2, 0, 2] = 1.0
    transition[:, :2, 0, 0, 1] = transition[:, 2, 0, 0, 2] = 1.0
    return StatisticalMDP(
        horizon=2,
        states=("s0", "x1", "x2"),
        actions=("go",),
        params=ParameterSet(("t0", "t1", "t2")),
        feasible=(((0,),) * 3,) * 2,
        initial_kernel=np.tile([1.0, 0.0, 0.0], (3, 1)),
        transition=transition,
        stage_cost=np.zeros((2, 3, 3, 1)),
        terminal_cost=np.tile([0.0, 1.0, 2.0], (3, 1)),
    )


def random_belief(rng: np.random.Generator, size: int) -> Belief:
    return Belief(rng.dirichlet(np.ones(size)))


class Passes(list):
    """The priors of the choosing passes counted; ``evaluations`` holds the
    policies of the evaluation passes, each as the bytes of its pairs."""

    def __init__(self):
        super().__init__()
        self.evaluations = []


def pairs_key(pairs) -> bytes:
    """A policy's per-epoch pairs as one byte string."""
    return b"".join(np.asarray(p).tobytes() for p in pairs)


def counted_passes(monkeypatch) -> Passes:
    """The priors of every choosing backward pass (``bayes._backward``
    without ``pairs``) run from now on: the Bayes solves that the DAG's
    memo does not answer.  Its ``evaluations`` are the evaluation passes
    (with ``pairs``): the evaluations that the evaluation memo does not
    answer."""
    passes = Passes()
    backward = bayes._backward

    def counted(model, tree, pairs=None):
        if pairs is None:
            passes.append(tree.prior)
        else:
            passes.evaluations.append(pairs_key(pairs))
        return backward(model, tree, pairs)

    monkeypatch.setattr(bayes, "_backward", counted)
    return passes


def decision_nodes(tree: ReachableBeliefTree):
    """(global index, epoch, state) of every node below the horizon."""
    for n, epoch in enumerate(tree.epochs[:-1]):
        for i, state in enumerate(epoch.state.tolist()):
            yield int(tree.offsets[n]) + i, n, state


def policy_from(tree: ReachableBeliefTree, actions: dict[int, int]) -> DeterministicPolicy:
    """Policy taking ``actions[index]`` at each decision node's global index."""
    table = np.full(len(tree), -1)
    for index, action in actions.items():
        table[index] = action
    return DeterministicPolicy(tree=tree, actions=table)


def policy_count(tree: ReachableBeliefTree) -> int:
    count = 1
    model = tree.model
    for _, n, state in decision_nodes(tree):
        count *= len(model.feasible[n][state])
    return count


def enumerate_policies(tree: ReachableBeliefTree) -> list[DeterministicPolicy]:
    """Every deterministic policy assignable on the tree's decision nodes."""
    model = tree.model
    nodes = list(decision_nodes(tree))
    choices = [model.feasible[n][state] for _, n, state in nodes]
    policies = []
    for combo in product(*choices):
        actions = {index: action for (index, _, _), action in zip(nodes, combo)}
        policies.append(policy_from(tree, actions))
    return policies


def simplex_lattice(n_coords: int, parts: int):
    """All compositions of ``parts`` equal mass units into ``n_coords``
    coordinates, as probability vectors."""
    if n_coords == 1:
        yield np.array([1.0])
        return
    for cuts in combinations(range(parts + n_coords - 1), n_coords - 1):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(parts + n_coords - 2 - prev)
        yield np.array(counts, dtype=float) / parts


def render_inline(model: StatisticalMDP, prior: Belief) -> str:
    """Bayes-mode config text for an inline model, with every number written
    as its ``repr``, so that a correct parse gives back the same doubles."""

    def floats(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    params = model.params.labels
    lines = [
        "mode = bayes",
        "model.name = inline",
        f"model.horizon = {model.horizon}",
        f"model.states = {' '.join(model.states)}",
        f"model.actions = {' '.join(model.actions)}",
        f"model.params = {' '.join(params)}",
        f"prior = {floats(prior.weights)}",
    ]
    for k, theta in enumerate(params):
        lines.append(f"model.initial.{theta} = {floats(model.initial_kernel[k])}")
        lines.append(f"model.terminal.{theta} = {floats(model.terminal_cost[k])}")
    for n in range(model.horizon):
        for x, state in enumerate(model.states):
            actions = [model.actions[a] for a in model.feasible[n][x]]
            lines.append(f"model.feasible.{n}.{state} = {' '.join(actions)}")
            for k, theta in enumerate(params):
                for a, action in zip(model.feasible[n][x], actions):
                    where = f"{n}.{theta}.{state}.{action}"
                    row = floats(model.transition[n, k, x, a])
                    lines.append(f"model.transition.{where} = {row}")
                    lines.append(f"model.cost.{where} = {float(model.stage_cost[n, k, x, a])!r}")
    return "\n".join(lines) + "\n"
