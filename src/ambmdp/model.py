"""Finite statistical Markov decision process: data types and validation.

A statistical MDP is a finite-horizon MDP whose transition kernels and cost
functions depend on an unknown parameter drawn from a finite parameter set.
States, actions and parameters are referenced by integer index throughout the
package; human-readable labels are kept on the model for reporting.

Epoch convention: decision epochs are 0-based, ``n = 0 .. horizon-1``.
``transition[n]`` is the kernel applied *after* the epoch-``n`` decision,
i.e. the distribution of the state observed at epoch ``n+1``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import cached_property

import numpy as np

SUM_TOL = 1e-12
RENORM_LIMIT = 1e-6


def _count(name: str, value, minimum: int = 0, limit: int | None = None) -> int:
    """``value`` as an int if it is an integer, not a bool, in [minimum, limit),
    with minimum 0 or 1; else ValueError naming it."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and minimum <= value and (limit is None or value < limit)):
        return int(value)
    below = "" if limit is None else f" below {limit}"
    raise ValueError(f"{name} must be a {'positive' if minimum else 'non-negative'} "
                     f"integer{below}, got {value!r}")


def _real(value, default=None):
    """``value`` as a float if it is a real number and not a bool, an int
    beyond float range as the infinity of its sign; else ``default``."""
    if isinstance(value, (float, numbers.Real)) and type(value) is not bool:  # fast for float
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return default


def _float_array(name: str, values) -> np.ndarray:
    """``values`` as a new C-ordered float array; ValueError naming it if an
    entry is an int beyond float range."""
    try:
        return np.array(values, dtype=float, order="C")
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None


def _as_labels(labels, name: str, empty: str) -> tuple[str, ...]:
    """``labels`` as a tuple of str if it is a sequence, not a bare string, of
    unique labels, else ValueError led by ``name`` (bare if blank); ValueError
    ``empty`` if it has none."""
    if isinstance(labels, str):
        fault = f"labels must be a sequence, not the string {labels!r}"
    elif not (labels := tuple(map(str, labels))):
        raise ValueError(empty)
    elif len(set(labels)) < len(labels):
        fault = "labels must be unique"
    else:
        return labels
    raise ValueError(f"{name} {fault}".lstrip())


class _Frozen:
    """A value whose fields are its ``_fields``, set once by ``__init__``,
    frozen, hashed and shown as a frozen dataclass is, and equal to a value
    of its type whose fields are each the same object or equal, an array by
    value (``np.array_equal``).  Copies, pickles and ``_replace`` rebuild it
    from its fields through ``__init__``, so every check runs again."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # on use: dataclasses is slow to import

        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ParameterSet(_Frozen):
    """Finite set of parameter labels the model is ambiguous over."""

    __slots__ = _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        labels = _as_labels(labels, "parameter", "parameter set must be non-empty")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


class Belief(_Frozen):
    """Probability vector over the parameter set.

    Weights are validated on construction: negatives are rejected, and the
    vector is renormalized when its sum drifts from 1 by more than 1e-12
    (rejected entirely beyond 1e-6).  This bounds float drift through
    repeated posterior composition.
    """

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: np.ndarray):
        w = _float_array("belief weights", weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("belief weights must form a non-empty vector")
        # one min and one sum pass a valid vector (NaN fails both tests, an
        # infinity the sum's); the tests below name the fault or repair it
        if not (w.min() >= 0.0 and abs(float(w.sum()) - 1.0) <= SUM_TOL):
            if not np.all(np.isfinite(w)):
                raise ValueError("belief weights must be finite")
            if np.any(w < -SUM_TOL):
                raise ValueError(f"belief weights must be non-negative, got {w}")
            w = np.where(w < 0.0, 0.0, w)
            total = float(w.sum())
            if abs(total - 1.0) > RENORM_LIMIT:
                raise ValueError(f"belief weights sum to {total}, too far from 1")
            if abs(total - 1.0) > SUM_TOL:
                w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, size: int) -> "Belief":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "Belief":
        return cls(np.eye(1, size, _count("index", index, 0, size))[0])

    def support(self) -> tuple[int, ...]:
        """Indices carrying strictly positive weight."""
        return tuple(int(i) for i in np.nonzero(self.weights > 0.0)[0])

    def __len__(self) -> int:
        return int(self.weights.size)

    def __repr__(self) -> str:
        return f"Belief({self.weights.tolist()})"


def _feasible(feasible, horizon: int, n_states: int, n_actions: int):
    """The feasible sets as sorted tuples of distinct action indices, and as a
    read-only (N, E, A) mask; ``feasible`` is nested action lists or that mask."""
    shape = (horizon, n_states, n_actions)
    if not (isinstance(feasible, np.ndarray) and feasible.dtype == bool):
        if len(feasible) != horizon:
            raise ValueError(f"feasible sets must cover {horizon} epochs, got {len(feasible)}")
        for n, per_state in enumerate(feasible):
            if len(per_state) != n_states:
                raise ValueError(f"feasible sets at epoch {n} must cover {n_states} states")
        sets = [acts for per_state in feasible for acts in per_state]
        owner = np.repeat(np.arange(len(sets)), list(map(len, sets)))
        acts = np.array(list(itertools.chain.from_iterable(sets)), dtype=np.intp)
        out = owner[(acts < 0) | (acts >= n_actions)]
        if out.size:
            raise ValueError("feasible action out of range at epoch %d, state %d"
                             % divmod(out[0], n_states))
        feasible = np.zeros(shape, dtype=bool)
        feasible.reshape(-1, n_actions)[owner, acts] = True
    elif feasible.shape != shape:
        raise ValueError(f"feasible mask must have shape {shape}")
    mask = feasible.reshape(-1, n_actions).copy()
    # each set is a slice of the list of every set's actions, in mask order
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    listed = np.nonzero(mask)[1].tolist()
    sets = map(tuple, map(listed.__getitem__, map(slice, [0] + ends[:-1], ends)))
    mask.flags.writeable = False
    return tuple(zip(*[sets] * n_states)), mask.reshape(shape)


class StatisticalMDP(_Frozen):
    """Finite-horizon MDP with parameter-dependent kernels and costs.

    Attributes:
        horizon: number of decision epochs N (0 means terminal costs only)
        states, actions: label tuples defining the index spaces
        params: the parameter set the model is ambiguous over
        feasible: feasible[n][x] = sorted tuple of feasible action indices,
            given so or as ``feasible_mask``, the sets' (N, E, A) boolean table
        initial_kernel: (K, E) initial state distribution per parameter
        transition: (N, K, E, A, E); transition[n, k, x, a] is the state
            distribution after taking action a in state x at epoch n
        stage_cost: (N, K, E, A) per-epoch cost
        terminal_cost: (K, E) cost charged at epoch N

    The arrays are read-only.  ``feasible_mask``, the cached ``cost_bounds``
    and ``belief_dag`` live in the instance ``__dict__``, outside the fields.
    """

    _fields = ("horizon", "states", "actions", "params", "feasible", "initial_kernel",
               "transition", "stage_cost", "terminal_cost")
    #: the reachable belief DAG, set by ``bayes.build_tree``; it holds
    #: arrays only, no model
    belief_dag = None

    def __init__(self, horizon: int, states: tuple[str, ...], actions: tuple[str, ...],
                 params: ParameterSet, feasible, initial_kernel: np.ndarray,
                 transition: np.ndarray, stage_cost: np.ndarray, terminal_cost: np.ndarray):
        horizon = _count("horizon", horizon)
        empty = "state and action spaces must be non-empty"
        states = _as_labels(states, "state", empty)
        actions = _as_labels(actions, "action", empty)
        fields = vars(self)
        fields.update(horizon=horizon, states=states, actions=actions, params=params)
        n, k, e, a = horizon, len(params), len(states), len(actions)

        shapes = {"initial_kernel": (k, e), "transition": (n, k, e, a, e),
                  "stage_cost": (n, k, e, a), "terminal_cost": (k, e)}
        for (name, shape), values in zip(shapes.items(),
                                         (initial_kernel, transition, stage_cost, terminal_cost)):
            arr = _float_array(f"{name} entries", values)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            fields[name] = arr

        fields["feasible"], fields["feasible_mask"] = _feasible(feasible, n, e, a)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_params(self) -> int:
        return len(self.params)

    @cached_property
    def cost_bounds(self) -> tuple[float, float]:
        """Bracket the total cost by summing per-epoch extrema of the stage
        cost over feasible pairs, plus terminal extrema.

        The bracket is loose in general (it ignores reachability) but
        contains the expected total cost of every policy under every
        parameter.  The model's arrays are read-only, so the cache holds.
        """
        lo = hi = 0.0
        for n, feasible in enumerate(self.feasible_mask):
            entries = self.stage_cost[n][:, feasible]
            lo += float(entries.min())
            hi += float(entries.max())
        lo += float(self.terminal_cost.min())
        hi += float(self.terminal_cost.max())
        return lo, hi


def _check_prior(model: StatisticalMDP, prior: Belief) -> None:
    if len(prior) != model.n_params:
        raise ValueError("prior dimension does not match the parameter set")


def _check_masses(totals: np.ndarray) -> None:
    """Raise ValueError unless each predictive mass total is within
    RENORM_LIMIT of 1 (NaN is far)."""
    far = ~(np.abs(totals - 1.0) <= RENORM_LIMIT)
    if far.any():
        raise ValueError(f"predictive masses sum to {float(totals[far][0])}; "
                         f"model row sums are off by more than {RENORM_LIMIT}")


def _row_faults(rows: np.ndarray):
    """(index, diagnostic) of each probability row, along the last axis,
    with negative or non-finite entries or a sum off 1 by more than
    SUM_TOL, in index order."""
    broken = np.any((rows < 0.0) | ~np.isfinite(rows), axis=-1)
    totals = rows.sum(axis=-1)
    off = ~broken & (np.abs(totals - 1.0) > SUM_TOL)
    for index in zip(*np.nonzero(broken | off)):
        if broken[index]:
            yield index, "probability row has negative or non-finite entries"
        else:
            yield index, (
                f"probability row sums to {float(totals[index])!r}, not 1 within {SUM_TOL}"
            )


def validate(model: StatisticalMDP) -> list[str]:
    """Check model invariants and return a diagnostic per violation.

    Returns an empty list iff the model is well formed.  Each diagnostic
    names the violated invariant and its location (epoch, parameter, state,
    action).  Rows for infeasible state/action pairs are not checked.
    """
    thetas, states, actions = model.params.labels, model.states, model.actions
    diags = [
        f"{message} (initial kernel, theta={thetas[k]})"
        for (k,), message in _row_faults(model.initial_kernel)
    ]

    def where(n, k, x, a):
        return f"epoch {n}, theta={thetas[k]}, state {states[x]}, action {actions[a]}"

    # keyed by (epoch, state, action, parameter, kind) to list them in that
    # order; a state without feasible actions has no other entries
    feasible = model.feasible_mask
    found = [
        ((n, x, -1, -1, 0), f"empty feasible action set (epoch {n}, state {states[x]})")
        for n, x in zip(*np.nonzero(~feasible.any(axis=2)))
    ]
    for (n, k, x, a), message in _row_faults(model.transition):
        if feasible[n, x, a]:
            found.append(((n, x, a, k, 0), f"{message} ({where(n, k, x, a)})"))
    for n, k, x, a in zip(*np.nonzero(~np.isfinite(model.stage_cost) & feasible[:, None])):
        found.append(((n, x, a, k, 1), f"stage cost is not finite ({where(n, k, x, a)})"))
    diags += [message for _, message in sorted(found)]

    for k, x in zip(*np.nonzero(~np.isfinite(model.terminal_cost))):
        diags.append(f"terminal cost is not finite (theta={thetas[k]}, state {states[x]})")
    return diags
