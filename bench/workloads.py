"""The benchmark's workloads: seeded inputs, requests and reference checks.

A workload is a list of requests, one pass over its inputs.  A request is
one solve or simulate call: ``run`` is the timed call into the package,
``collect`` turns its raw output into a plain record right after the call,
and ``check`` compares the record with the workload's reference once the
timed loop is over.  ``check`` returns the reasons the record is wrong; an
empty list means it agrees with the reference.

* figure-sweep: the paper's two figure grids on the sequential test with
  one observation (H=1), solved and certified through the library, checked
  against the sequential-test closed forms.
* multiparam: two fixed random models with three and four parameters, solved in
  entropic, avar and robust mode through ``ambmdp solve`` on rendered
  inline configs, checked against independent risk formulas and Bayes
  lower bounds.
* inner-simulate: ``ambmdp solve`` (bayes) and ``ambmdp simulate`` on the
  sequential test with 32 observations and on seeded random models with
  horizon 4, checked against policy evaluation and the 13/3 plateau value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("figure-sweep", "multiparam", "inner-simulate")

#: a reported duality gap above this leaves a request uncertified
GAP_TOL = 1e-6
#: outer search argument tolerance the solvers run with (their default)
SOLVER_TOL = 1e-6
#: the search returns its best evaluated point, within SOLVER_TOL of the argmax
ARG_TOL = SOLVER_TOL
#: the sequential-test value function has slope at most 10 in the prior
VALUE_TOL = 10 * SOLVER_TOL
#: relative tolerance between two exact evaluations of one quantity
EXACT_RTOL = 1e-9
#: Monte-Carlo means must lie within this many reported 95% half-widths
MC_HALF_WIDTHS = 4.0

#: the multiparam models are drawn once from this seed, not the run seed:
#: redrawing them per seed changes the outer-search work of a request by up
#: to 13x, more than any run-to-run bound can absorb
MULTIPARAM_MODEL_SEED = 0

#: the paper's figure configs, which figure-sweep solves through the library
FIGURE_CONFIGS = {"figure_entropic.cfg": "entropic", "figure_avar.cfg": "avar"}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: input sizes per scale; "tiny" keeps the benchmark's own tests fast
SIZES = {
    "full": {
        # the shipped figure configs as they are
        "figure_sweep": None,
        # (params, states, horizon); one observation keeps a request near 0.3 s,
        # so that a run times each input a dozen times or more
        "multiparam_models": ((3, 3, 1), (4, 2, 1)),
        "seqtest_horizon": 32,
        "random_models": 2,
        "random_shape": (3, 3, 4),  # (params, states, horizon)
        "samples": 5_000,
    },
    "tiny": {
        "figure_sweep": {"sweep.gamma": "0:0.1:0.05", "sweep.prior": "0.1 0.3"},
        "multiparam_models": ((3, 2, 1), (4, 2, 1)),
        "seqtest_horizon": 4,
        "random_models": 1,
        "random_shape": (3, 2, 2),
        "samples": 2_000,
    },
}


class SetupError(RuntimeError):
    """The generated inputs did not survive config rendering and parsing."""


@dataclass
class Request:
    index: int
    labels: dict
    run: Callable[[], object]
    collect: Callable[[object], dict]
    check: Callable[[dict], list]


@dataclass
class Api:
    """The package modules, resolved at call time so tracing wrappers apply."""

    cli: object
    ambiguity: object
    bayes: object
    model: object
    seqtest: object


@dataclass
class Inputs:
    requests: list
    # config texts written for the CLI, keyed by file name
    configs: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def random_model(api: Api, rng: np.random.Generator, n_params, n_states, n_actions, horizon):
    """A fully supported random model drawn as the test suite draws one:
    Dirichlet kernels, costs uniform in [-2, 5], every action feasible."""
    return api.model.StatisticalMDP(
        horizon=horizon,
        states=tuple(f"s{x}" for x in range(n_states)),
        actions=tuple(f"a{a}" for a in range(n_actions)),
        params=api.model.ParameterSet(tuple(f"t{k}" for k in range(n_params))),
        feasible=tuple(
            tuple(tuple(range(n_actions)) for _ in range(n_states)) for _ in range(horizon)
        ),
        initial_kernel=rng.dirichlet(np.ones(n_states), size=n_params),
        transition=rng.dirichlet(
            np.ones(n_states), size=(horizon, n_params, n_states, n_actions)
        ),
        stage_cost=rng.uniform(-2.0, 5.0, size=(horizon, n_params, n_states, n_actions)),
        terminal_cost=rng.uniform(-2.0, 5.0, size=(n_params, n_states)),
    )


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def render_inline(model, head: dict, prior: np.ndarray) -> str:
    """Config text for an inline model; floats are written with repr so
    that parsing gives back the same doubles."""
    lines = [f"{key} = {value}" for key, value in head.items()]
    lines += [
        "model.name = inline",
        f"model.horizon = {model.horizon}",
        f"model.states = {' '.join(model.states)}",
        f"model.actions = {' '.join(model.actions)}",
        f"model.params = {' '.join(model.params.labels)}",
    ]
    params = model.params.labels
    for k, theta in enumerate(params):
        lines.append(f"model.initial.{theta} = {_floats(model.initial_kernel[k])}")
    for n in range(model.horizon):
        for k, theta in enumerate(params):
            for x, state in enumerate(model.states):
                for a, action in enumerate(model.actions):
                    where = f"{n}.{theta}.{state}.{action}"
                    lines.append(f"model.transition.{where} = {_floats(model.transition[n, k, x, a])}")
                    lines.append(f"model.cost.{where} = {float(model.stage_cost[n, k, x, a])!r}")
    for k, theta in enumerate(params):
        lines.append(f"model.terminal.{theta} = {_floats(model.terminal_cost[k])}")
    lines.append(f"prior = {_floats(prior)}")
    return "\n".join(lines) + "\n"


def check_round_trip(api: Api, text: str, model, prior: np.ndarray) -> None:
    """Parsing the rendered config must give back the generated arrays bit
    for bit; raise SetupError otherwise."""
    parsed = api.cli.parse_config(text)
    pairs = [
        (parsed.model.initial_kernel, model.initial_kernel),
        (parsed.model.transition, model.transition),
        (parsed.model.stage_cost, model.stage_cost),
        (parsed.model.terminal_cost, model.terminal_cost),
        (parsed.prior.weights, prior),
    ]
    for got, want in pairs:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            raise SetupError("rendered config does not reproduce the generated model")
    if parsed.model.feasible != model.feasible:
        raise SetupError("rendered config does not reproduce the feasible sets")


def _cli_call(api: Api, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return api.cli.main(argv)


def _read_artifact(path: Path, code) -> dict:
    record = {"exit": code}
    if code == 0:
        data = path.read_bytes()
        record["artifact_bytes"] = len(data)
        record["artifact"] = json.loads(data)
    return record


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


# ---------------------------------------------------------- figure-sweep


def _kl2(t: float, mu0: float) -> float:
    return sum(x * math.log(x / y) for x, y in ((t, mu0), (1 - t, 1 - mu0)) if x > 0)


def entropic_reference(seqtest, mu0: float, gamma: float) -> tuple[float, float]:
    """Exact maximizer and value of V(t) - KL(t || mu0)/gamma for the
    sequential test, V the closed-form value function.  V is linear with
    slope b on each of its three pieces, where the penalized maximizer is
    the logistic point logit(t) = logit(mu0) + b*gamma, clipped to the piece."""
    pieces = (
        (0.0, seqtest.CONTINUE_LO, 10.0),
        (seqtest.CONTINUE_LO, seqtest.CONTINUE_HI, 0.0),
        (seqtest.CONTINUE_HI, 1.0, -10.0),
    )
    logit = math.log(mu0 / (1.0 - mu0))
    best = None
    for lo, hi, slope in pieces:
        t = min(max(1.0 / (1.0 + math.exp(-(logit + slope * gamma))), lo), hi)
        value = seqtest.optimal_value(t) - _kl2(t, mu0) / gamma
        if best is None or value > best[1]:
            best = (t, value)
    return best


def avar_reference(seqtest, mu0: float, gamma: float) -> tuple[float, float, float]:
    """(maximizer interval low, high, value) over the AVaR prior polytope:
    the value function peaks on a plateau around 1/2, so its maximum over
    the feasible interval sits at 1/2 clipped to it."""
    lo, hi = seqtest.avar_worst_prior_interval(gamma, mu0)
    feasible_lo = max(0.0, 1.0 - (1.0 - mu0) / (1.0 - gamma))
    feasible_hi = min(1.0, mu0 / (1.0 - gamma))
    return lo, hi, seqtest.optimal_value(min(max(0.5, feasible_lo), feasible_hi))


def check_figure(seqtest, labels: dict, record: dict, nodes: int) -> list:
    mu0, gamma, mode = labels["prior"], labels["gamma"], labels["mode"]
    reasons = []
    if mode == "bayes":
        if abs(record["value"] - seqtest.optimal_value(mu0)) > EXACT_RTOL:
            reasons.append(f"bayes value {record['value']!r} != optimal_value({mu0})")
        if record["nodes"] != nodes:
            reasons.append(f"tree has {record['nodes']} nodes, expected {nodes}")
    elif mode == "entropic":
        t, value = entropic_reference(seqtest, mu0, gamma)
        if abs(record["worst_prior"] - t) > ARG_TOL:
            reasons.append(f"worst prior {record['worst_prior']!r} != reference {t!r}")
        if abs(record["value"] - value) > VALUE_TOL:
            reasons.append(f"value {record['value']!r} != reference {value!r}")
    else:
        lo, hi, value = avar_reference(seqtest, mu0, gamma)
        if abs(record["worst_prior_lo"] - lo) > ARG_TOL or abs(record["worst_prior_hi"] - hi) > ARG_TOL:
            reasons.append(
                f"worst prior interval [{record['worst_prior_lo']!r}, "
                f"{record['worst_prior_hi']!r}] != reference [{lo!r}, {hi!r}]"
            )
        if not lo - ARG_TOL <= record["worst_prior"] <= hi + ARG_TOL:
            reasons.append(f"worst prior {record['worst_prior']!r} is outside [{lo!r}, {hi!r}]")
        if abs(record["value"] - value) > VALUE_TOL:
            reasons.append(f"value {record['value']!r} != reference {value!r}")
    return reasons


def _sweep(api: Api, text: str):
    config = api.cli.parse_config(text)
    return config.model, sorted(config.prior_sweep), sorted(config.gamma_sweep)


def figure_config(name: str, sweep) -> str:
    """A shipped figure config, with its sweep lines replaced by ``sweep``
    unless that is None."""
    text = (CONFIG_DIR / name).read_text()
    if sweep is None:
        return text
    lines = [line for line in text.splitlines() if not line.startswith(tuple(sweep))]
    return "\n".join(lines + [f"{key} = {value}" for key, value in sweep.items()]) + "\n"


def figure_sweep(api: Api, seed: int, sizes: dict, workdir: Path) -> Inputs:
    """183 requests at full size: both figure grids, solved and certified."""
    configs = {name: figure_config(name, sizes["figure_sweep"]) for name in FIGURE_CONFIGS}
    seqtest = api.seqtest
    nodes = SEQTEST_NODES[1]  # the figure configs observe once
    requests = []
    for name, mode in FIGURE_CONFIGS.items():
        model, priors, gammas = _sweep(api, configs[name])
        for mu0 in priors:
            prior = seqtest.prior_belief(mu0)
            for gamma in gammas:
                kind = "bayes" if gamma == 0.0 else mode
                labels = {"workload": "figure-sweep", "mode": kind, "grid": mode,
                          "prior": mu0, "gamma": gamma}
                requests.append(_figure_request(api, model, prior, kind, gamma, labels, nodes))
    inputs = Inputs(requests, configs)
    _shuffle(inputs, seed)
    return inputs


def _figure_request(api: Api, model, prior, kind: str, gamma: float, labels: dict, nodes: int):
    if kind == "bayes":
        def run():
            return api.bayes.solve_bayes(model, prior)

        def collect(solution):
            return {"value": solution.value, "nodes": len(solution.tree), "gap": None}
    else:
        def run():
            solve = getattr(api.ambiguity, f"solve_{kind}")
            result = solve(model, prior, gamma)
            return result, api.ambiguity.certify_saddle(model, result)

        def collect(raw):
            result, cert = raw
            return {
                "value": result.value,
                "gap": result.gap,
                "worst_prior": float(result.worst_prior.weights[0]),
                "worst_prior_lo": float(result.worst_prior_lo.weights[0]),
                "worst_prior_hi": float(result.worst_prior_hi.weights[0]),
                "certified": bool(cert.mu_side_ok and cert.pi_side_ok),
            }

    return Request(
        index=0,
        labels=labels,
        run=run,
        collect=collect,
        check=lambda record: check_figure(api.seqtest, labels, record, nodes),
    )


# ------------------------------------------------------------ multiparam


def dual_risk(mode: str, profile: np.ndarray, base: np.ndarray, gamma, support) -> float:
    """The risk of a cost profile that bounds the outer value from above,
    computed here independently of ``ambmdp.risk``: the entropic risk, the
    AVaR as a greedy fill of the capped density, or the worst case."""
    if mode == "entropic":
        mask = base > 0.0
        a = gamma * profile[mask]
        shift = float(a.max())
        return (shift + math.log(float(np.sum(base[mask] * np.exp(a - shift))))) / gamma
    if mode == "avar":
        caps = base / (1.0 - gamma)
        remaining, total = 1.0, 0.0
        for k in np.argsort(-profile, kind="stable"):
            weight = min(float(caps[k]), remaining)
            total += weight * float(profile[k])
            remaining -= weight
        return total
    return float(max(profile[k] for k in support))


def check_saddle_artifact(labels: dict, record: dict, lower_bound: float) -> list:
    """The artifact's gap must equal the independent dual risk minus the
    value, the worst prior must be feasible, and the value must reach the
    Bayes value at a prior the ambiguity set contains (the base prior, or
    every point mass in robust mode)."""
    if record["exit"] != 0:
        return [f"ambmdp solve exited with {record['exit']}"]
    mode, gamma = labels["mode"], labels["gamma"]
    base = np.asarray(labels["prior"], dtype=float)
    value, gap = record["value"], record["gap"]
    worst = np.asarray(record["worst_prior"], dtype=float)
    profile = np.asarray(record["cost_profile"], dtype=float)
    support = [k for k in range(base.size) if base[k] > 0.0]
    reasons = []
    dual = dual_risk(mode, profile, base, gamma, support)
    if dual - value < -EXACT_RTOL * (1.0 + abs(value)):
        reasons.append(f"value {value!r} exceeds the dual risk {dual!r}")
    if abs(gap - max(dual - value, 0.0)) > EXACT_RTOL * (1.0 + abs(value)):
        reasons.append(f"gap {gap!r} != dual risk minus value {dual - value!r}")
    if np.any(worst < -1e-12) or abs(float(worst.sum()) - 1.0) > EXACT_RTOL:
        reasons.append(f"worst prior {worst.tolist()} is not a distribution")
    if mode == "avar" and np.any(worst > base / (1.0 - gamma) + EXACT_RTOL):
        reasons.append(f"worst prior {worst.tolist()} breaks the AVaR density cap")
    if value < lower_bound - EXACT_RTOL * (1.0 + abs(lower_bound)):
        reasons.append(f"value {value!r} is below the Bayes lower bound {lower_bound!r}")
    return reasons


def _saddle_record(path: Path, code) -> dict:
    record = _read_artifact(path, code)
    artifact = record.pop("artifact", None)
    if artifact is not None:
        cert = artifact["certificate"]
        record.update(
            value=artifact["value"],
            gap=artifact["gap"],
            worst_prior=artifact["worst_prior"],
            cost_profile=artifact["cost_profile"],
            certified=bool(cert["mu_side_ok"] and cert["pi_side_ok"]),
            digest=_digest(artifact),
        )
    return record


def _digest(artifact: dict) -> str:
    """A fingerprint of the whole artifact, for comparing two runs."""
    return hashlib.sha256(json.dumps(artifact, sort_keys=True).encode()).hexdigest()


def multiparam(api: Api, seed: int, sizes: dict, workdir: Path) -> Inputs:
    """Six requests: entropic, avar and robust solves on two fixed random
    models (three and four parameters) through the lattice-plus-coordinate
    outer search."""
    rng = np.random.default_rng(MULTIPARAM_MODEL_SEED)
    inputs = Inputs([])
    for n_params, n_states, horizon in sizes["multiparam_models"]:
        model = random_model(api, rng, n_params, n_states, 2, horizon)
        base = rng.dirichlet(np.ones(n_params))
        model_id = f"K{n_params}-E{n_states}-H{horizon}"
        bound = _LowerBounds(api, model, base)
        for mode in ("entropic", "avar", "robust"):
            head = {"mode": mode}
            gamma = None
            if mode != "robust":
                gamma = 0.5
                head["solver.gamma"] = repr(gamma)
            text = render_inline(model, head, base)
            check_round_trip(api, text, model, base)
            name = f"{model_id}-{mode}.cfg"
            inputs.configs[name] = text
            labels = {"workload": "multiparam", "mode": mode, "model": model_id,
                      "prior": base.tolist(), "gamma": gamma}
            inputs.requests.append(
                _cli_request(api, ["solve", "--config", str(workdir / name)], workdir,
                             labels, _saddle_record,
                             lambda record, labels=labels, bound=bound:
                             check_saddle_artifact(labels, record, bound(labels["mode"])))
            )
    _shuffle(inputs, seed)
    return inputs


class _LowerBounds:
    """Bayes values at priors every ambiguity set of the mode contains,
    computed once per model when the first check needs them."""

    def __init__(self, api: Api, model, base: np.ndarray):
        self.api, self.model, self.base = api, model, base
        self.cache: dict = {}

    def __call__(self, mode: str) -> float:
        key = "robust" if mode == "robust" else "base"
        if key not in self.cache:
            Belief = self.api.model.Belief
            if key == "base":
                priors = [Belief(self.base)]
            else:
                size = self.model.n_params
                priors = [Belief.point_mass(size, k) for k in range(size)]
            self.cache[key] = max(
                self.api.bayes.solve_bayes(self.model, mu).value for mu in priors
            )
        return self.cache[key]


def _cli_request(api: Api, argv: list, workdir: Path, labels: dict, read, check, out=None):
    """A request that runs the CLI in-process; ``out`` is the artifact the
    config itself names, else ``--out`` is appended."""
    if out is None:
        out = workdir / "out.json"
        argv = argv + ["--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        return _cli_call(api, argv)

    return Request(index=0, labels=labels, run=run, collect=lambda code: read(out, code),
                   check=check)


def _shuffle(inputs: Inputs, seed: int) -> None:
    order = np.random.default_rng(seed).permutation(len(inputs.requests))
    inputs.requests = [inputs.requests[i] for i in order]
    for i, request in enumerate(inputs.requests):
        request.index = i


# -------------------------------------------------------- inner-simulate

#: seqtest tree sizes of the ROADMAP baseline, by number of observations
SEQTEST_NODES = {1: 7, 4: 46, 16: 562, 32: 2146}


def full_tree_nodes(n_states: int, n_actions: int, horizon: int) -> int:
    """Nodes of the reachable tree of a fully supported model with every
    action feasible: no two histories share a belief, so nothing merges."""
    return sum(n_states * (n_actions * n_states) ** n for n in range(horizon + 1))


class _PolicyCosts:
    """Per-parameter cost of the Bayes policy at the request's prior, by
    backward policy evaluation; computed once per model and prior."""

    def __init__(self, api: Api, model, prior: np.ndarray):
        self.api, self.model, self.prior = api, model, prior
        self.profile = None

    def __call__(self) -> np.ndarray:
        if self.profile is None:
            solution = self.api.bayes.solve_bayes(self.model, self.api.model.Belief(self.prior))
            self.profile = np.asarray(
                self.api.bayes.policy_cost_profile(self.model, solution.policy)
            )
        return self.profile


def _bayes_record(path: Path, code) -> dict:
    record = _read_artifact(path, code)
    artifact = record.pop("artifact", None)
    if artifact is not None:
        record.update(value=artifact["value"], nodes=artifact["nodes"], gap=None,
                      digest=_digest(artifact))
    return record


def _simulate_record(path: Path, code) -> dict:
    record = _read_artifact(path, code)
    artifact = record.pop("artifact", None)
    if artifact is not None:
        record.update(
            value=artifact["bayes_value"],
            exact=artifact["exact_cost"],
            mc_mean=artifact["mc_mean"],
            mc_half_width=artifact["mc_half_width_95"],
            trajectories=artifact["trajectories"],
            gap=None,
            digest=_digest(artifact),
        )
    return record


def check_inner(labels: dict, record: dict, costs: _PolicyCosts, value, nodes) -> list:
    """Bayes value against its reference (13/3 on the sequential test, the
    prior mixture of policy costs otherwise); the tree size; exact
    simulate cost against policy evaluation; Monte Carlo within
    MC_HALF_WIDTHS half-widths of the exact cost."""
    if record["exit"] != 0:
        return [f"ambmdp {labels['mode']} exited with {record['exit']}"]
    profile = costs()
    expected = float(costs.prior @ profile) if value is None else value
    reasons = []
    if not _close(record["value"], expected):
        reasons.append(f"Bayes value {record['value']!r} != reference {expected!r}")
    if labels["mode"] == "bayes":
        if record["nodes"] != nodes:
            reasons.append(f"tree has {record['nodes']} nodes, expected {nodes}")
        return reasons
    exact = float(profile[labels["theta"]])
    if not _close(record["exact"], exact):
        reasons.append(f"enumerated cost {record['exact']!r} != policy evaluation {exact!r}")
    if abs(record["mc_mean"] - record["exact"]) > MC_HALF_WIDTHS * record["mc_half_width"]:
        reasons.append(
            f"Monte Carlo mean {record['mc_mean']!r} is more than {MC_HALF_WIDTHS} "
            f"half-widths from the exact cost {record['exact']!r}"
        )
    if record["trajectories"] < 1:
        reasons.append("no trajectories enumerated")
    return reasons


def inner_simulate(api: Api, seed: int, sizes: dict, workdir: Path) -> Inputs:
    """Bayes solve and simulate on the sequential test and on seeded random
    models: one large tree per request and no outer search."""
    rng = np.random.default_rng(seed)
    inputs = Inputs([])
    horizon = sizes["seqtest_horizon"]
    samples = sizes["samples"]
    cases = []
    seqtest_model = api.seqtest.build_model(api.seqtest.SeqTestConfig(horizon=horizon))
    seqtest_text = f"model.name = seqtest\nmodel.horizon = {horizon}\nprior = 0.5\n"
    cases.append(("seqtest", seqtest_model, np.array([0.5, 0.5]), seqtest_text,
                  api.seqtest.PLATEAU_VALUE, SEQTEST_NODES[horizon]))
    n_params, n_states, random_horizon = sizes["random_shape"]
    for i in range(sizes["random_models"]):
        model = random_model(api, rng, n_params, n_states, 2, random_horizon)
        prior = rng.dirichlet(np.ones(n_params))
        cases.append((f"random{i}", model, prior, None, None,
                      full_tree_nodes(n_states, 2, random_horizon)))

    for model_id, model, prior, text, value, nodes in cases:
        theta = int(rng.integers(model.n_params))
        mc_seed = int(rng.integers(2**31))
        costs = _PolicyCosts(api, model, prior)
        out = workdir / f"{model_id}-simulate.json"
        simulate_head = (
            f"simulate.theta = {model.params.labels[theta]}\n"
            f"simulate.samples = {samples}\nsimulate.seed = {mc_seed}\n"
            f"output.path = {out}\n"
        )
        if text is None:
            bayes_text = render_inline(model, {"mode": "bayes"}, prior)
            check_round_trip(api, bayes_text, model, prior)
            simulate_text = render_inline(model, {"mode": "simulate"}, prior) + simulate_head
            check_round_trip(api, simulate_text, model, prior)
        else:
            bayes_text = "mode = bayes\n" + text
            simulate_text = "mode = simulate\n" + text + simulate_head
        for mode, body in (("bayes", bayes_text), ("simulate", simulate_text)):
            name = f"{model_id}-{mode}.cfg"
            inputs.configs[name] = body
            labels = {"workload": "inner-simulate", "mode": mode, "model": model_id,
                      "prior": prior.tolist(), "gamma": None}
            if mode == "bayes":
                argv = ["solve", "--config", str(workdir / name)]
                read, artifact = _bayes_record, None
            else:
                labels.update(theta=theta, samples=samples, mc_seed=mc_seed)
                argv = ["simulate", "--config", str(workdir / name)]
                read, artifact = _simulate_record, out
            inputs.requests.append(
                _cli_request(api, argv, workdir, labels, read,
                             lambda record, labels=labels, costs=costs, value=value, nodes=nodes:
                             check_inner(labels, record, costs, value, nodes),
                             out=artifact)
            )
    _shuffle(inputs, seed)
    return inputs


BUILDERS = {
    "figure-sweep": figure_sweep,
    "multiparam": multiparam,
    "inner-simulate": inner_simulate,
}


def build(name: str, api: Api, seed: int, scale: str, workdir: Path) -> Inputs:
    """Generate a workload's inputs from the seed and write its configs."""
    inputs = BUILDERS[name](api, seed, SIZES[scale], workdir)
    for file_name, text in inputs.configs.items():
        (workdir / file_name).write_text(text)
    return inputs
