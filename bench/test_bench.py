"""Tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: per-layer metrics that are counts of work, which must repeat exactly
COUNTS = (
    "bayes.build_tree.calls",
    "bayes.build_tree.nodes",
    "belief.predictive.calls",
    "ambiguity.best_responses_per_solve",
    "ambiguity.certify_saddle.grid_points",
    "search.golden_section_max.evals",
    "search.plateau_edges.evals",
    "search.refine_coordinate_pairs.evals",
    "oracle.enumerate_cost.trajectories",
    "cli.artifact_bytes",
)


def tiny(name, tmp_path, trace=0, seed=3):
    return run.run_workload(name, seed, 0.0, trace, scale="tiny", workdir=tmp_path / "work")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size_without_failures(name, tmp_path):
    result = tiny(name, tmp_path)
    done = result["done"]
    assert len(done) == result["requests_per_pass"] > 0
    assert [d for d in done if d.failed] == []
    metrics, extra = run.end_to_end(result)
    assert all(value > 0 for value, _ in metrics.values())
    assert extra["failed_frac"][0] == 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs_and_counts(name, tmp_path):
    first = tiny(name, tmp_path / "a", trace=1)
    second = tiny(name, tmp_path / "b", trace=1)
    labels = [d.request.labels for d in first["traced"]]
    assert labels == [d.request.labels for d in second["traced"]]
    assert [d.record for d in first["done"]] == [d.record for d in second["done"]]
    a, b = run.per_layer(first), run.per_layer(second)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["bayes.build_tree.calls"][0] > 0


def test_multiparam_inputs_follow_the_seed_only_in_order(tmp_path):
    api = run.fresh_api()
    one = workloads.build("multiparam", api, 1, "tiny", tmp_path)
    two = workloads.build("multiparam", api, 2, "tiny", tmp_path)
    key = lambda r: (r.labels["model"], r.labels["mode"])  # noqa: E731
    assert sorted(map(key, one.requests)) == sorted(map(key, two.requests))
    assert one.configs == two.configs


def test_inner_simulate_inputs_change_with_the_seed(tmp_path):
    api = run.fresh_api()
    one = workloads.build("inner-simulate", api, 1, "tiny", tmp_path)
    two = workloads.build("inner-simulate", api, 2, "tiny", tmp_path)
    assert one.configs != two.configs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_equal_outputs(name, tmp_path):
    traced = tiny(name, tmp_path / "t", trace=1)
    plain = tiny(name, tmp_path / "u", trace=0)
    assert [d for d in traced["done"] if d.failed] == []
    assert [d.record for d in traced["traced"]] == [d.record for d in plain["done"]]


def test_bounded_times_cancel_a_uniform_slowdown_of_the_machine(tmp_path):
    result = tiny("inner-simulate", tmp_path)
    slow = dict(
        result,
        done=[dataclasses.replace(d, latency=1.5 * d.latency) for d in result["done"]],
        refs=[1.5 * r for r in result["refs"]],
    )
    (fast, fast_extra), (slowed, slow_extra) = run.end_to_end(result), run.end_to_end(slow)
    for name in ("request_p50_ref", "requests_per_kref"):
        assert slowed[name][0] == pytest.approx(fast[name][0])
    assert slow_extra["request_p50_s"][0] == pytest.approx(1.5 * fast_extra["request_p50_s"][0])


#: the values each kind of request is checked on
CHECKED = {
    ("figure-sweep", "bayes"): ("value", "nodes"),
    ("figure-sweep", "entropic"): ("value", "worst_prior"),
    ("figure-sweep", "avar"): ("value", "worst_prior", "worst_prior_lo", "worst_prior_hi"),
    ("multiparam", "entropic"): ("value", "gap", "worst_prior"),
    ("multiparam", "avar"): ("value", "gap", "worst_prior"),
    ("multiparam", "robust"): ("value", "gap", "worst_prior"),
    ("inner-simulate", "bayes"): ("value", "nodes"),
    ("inner-simulate", "simulate"): ("value", "exact", "mc_mean"),
}


def _perturbed(record, key):
    changed = dict(record)
    value = record[key]
    if key == "nodes":
        changed[key] = value + 1
    elif key == "mc_mean":
        changed[key] = record["exact"] + 5 * record["mc_half_width"]
    elif isinstance(value, list):
        changed[key] = [w + 0.1 for w in value]
    else:
        changed[key] = value + 1e-3
    return changed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_checks_reject_perturbed_values(name, tmp_path):
    result = tiny(name, tmp_path)
    kinds = set()
    for done in result["done"]:
        assert done.request.check(done.record) == []
        kind = (name, done.request.labels["mode"])
        kinds.add(kind)
        for key in CHECKED[kind]:
            assert done.request.check(_perturbed(done.record, key)), (kind, key)
    assert kinds == {kind for kind in CHECKED if kind[0] == name}


def test_failed_exit_is_a_failure(tmp_path):
    result = tiny("multiparam", tmp_path)
    done = result["done"][0]
    assert done.request.check({"exit": 1})


def test_round_trip_check_rejects_rounded_floats(tmp_path):
    api = run.fresh_api()
    rng = np.random.default_rng(0)
    model = workloads.random_model(api, rng, 3, 2, 2, 1)
    prior = rng.dirichlet(np.ones(3))
    text = workloads.render_inline(model, {"mode": "bayes"}, prior)
    workloads.check_round_trip(api, text, model, prior)
    rounded = text.replace(repr(float(model.stage_cost[0, 0, 0, 0])),
                           f"{model.stage_cost[0, 0, 0, 0]:.6g}")
    with pytest.raises(workloads.SetupError):
        workloads.check_round_trip(api, rounded, model, prior)


def test_full_tree_node_formula_matches_the_solver():
    api = run.fresh_api()
    model = workloads.random_model(api, np.random.default_rng(5), 3, 3, 2, 2)
    tree = api.bayes.build_tree(model, api.model.Belief(np.full(3, 1 / 3)))
    assert len(tree) == workloads.full_tree_nodes(3, 2, 2)


def test_seqtest_node_baseline():
    api = run.fresh_api()
    for horizon, nodes in workloads.SEQTEST_NODES.items():
        model = api.seqtest.build_model(api.seqtest.SeqTestConfig(horizon=horizon))
        assert len(api.bayes.build_tree(model, api.seqtest.prior_belief(0.5))) == nodes


def test_entropic_reference_is_the_maximum():
    api = run.fresh_api()
    seqtest = api.seqtest
    for mu0, gamma in ((0.1, 0.1), (0.1, 1.0), (0.3, 2.0)):
        t_star, value = workloads.entropic_reference(seqtest, mu0, gamma)
        grid = np.linspace(1e-6, 1 - 1e-6, 20001)
        objective = [seqtest.optimal_value(t) - workloads._kl2(t, mu0) / gamma for t in grid]
        assert value >= max(objective) - 1e-12
        assert abs(grid[int(np.argmax(objective))] - t_star) < 1e-4


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "multiparam", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_command_line_prints_the_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "figure-sweep",
         "--seed", "2", "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    final = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] == 183 and final["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(final["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
