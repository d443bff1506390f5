"""Certified-solve benchmark for ambmdp.

    python3 bench/run.py --workload figure-sweep --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source
checkout, with ``src`` on the import path.  The load is a closed loop with
one client in this process: each request starts when the previous one has
returned.  A run is a whole number of passes over the workload's inputs, so
every input weighs the same in each run.  The number of passes follows from
``--seconds`` and the workload alone (``PASS_SECONDS``), not from the speed
of the program, so two versions of the program are timed over the same
executions.  A fixed piece of reference work that does not touch the
package is timed before the first request and after each one; the bounded
latency and throughput figures are in units of it, so that they follow the
program and not the shared machine's speed, which swings by up to 1.8x over
minutes.  ``setup_s`` is measured against the same reference work and
given in seconds at the speed where it takes ``REFERENCE_S``.  After the
loop every output is checked against the workload's reference.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half as
many passes, each request once with the per-layer wrappers of ``tracing.py``
installed and once without, back to back (the ratio of the two latencies is
the tracing overhead, and both must give identical outputs), and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  Each run also writes
``.bench_out/<workload>-seed<seed>-trace<trace>.json`` with every failed and
every uncertified request.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import GAP_TOL, WORKLOADS, Api, SetupError  # noqa: E402

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 15
#: seconds the reference work (``reference_s``) takes on a shared 2-vCPU
#: Intel Xeon VM in a calm spell; ``setup_s`` is set-up time at that speed
REFERENCE_S = 0.004
#: about the seconds one pass over each workload's inputs takes at the seed,
#: with the reference work and set-ups, on a shared 2-vCPU VM; they fix the
#: number of passes a run of --seconds makes, so that a run at the seed ends
#: within about --seconds
PASS_SECONDS = {"figure-sweep": 13.0, "multiparam": 3.0, "inner-simulate": 4.0}
OUTER_SOLVES = ("ambiguity.solve_entropic", "ambiguity.solve_avar", "ambiguity.solve_robust")


@dataclass
class Done:
    """One executed request."""

    request: object
    latency: float
    record: dict | None
    error: str | None
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.reasons)

    @property
    def gap(self):
        return None if self.record is None else self.record.get("gap")

    @property
    def uncertified(self) -> bool:
        return self.gap is not None and (self.gap > GAP_TOL or not self.record["certified"])


def fresh_api() -> Api:
    """Import the package anew, so that set-up pays for the import."""
    for name in [n for n in sys.modules if n == "ambmdp" or n.startswith("ambmdp.")]:
        del sys.modules[name]
    importlib.import_module("ambmdp")
    return Api(
        cli=importlib.import_module("ambmdp.cli"),
        ambiguity=importlib.import_module("ambmdp.ambiguity"),
        bayes=importlib.import_module("ambmdp.bayes"),
        model=importlib.import_module("ambmdp.model"),
        seqtest=importlib.import_module("ambmdp.seqtest"),
    )


_REF_MATRIX = [[((i * 7 + j * 3) % 11) / 11.0 for j in range(8)] for i in range(8)]


def reference_s() -> float:
    """Seconds taken by a fixed piece of work that does not touch the
    package: Python-level loops and small NumPy products, the mix the
    package's tree code runs.  Timed between requests, it tells how fast
    the shared machine ran them."""
    a = np.array(_REF_MATRIX)
    start = time.perf_counter()
    total, seen = 0, {}
    for i in range(15000):
        total += i * i % 7
        seen[i & 255] = total
    x = a
    for _ in range(700):
        x = (x @ a) / (x.sum() + 1.0)
    return time.perf_counter() - start


def setup(name: str, seed: int, scale: str, workdir: Path):
    """Import, seeded input generation, config rendering and the round-trip
    check; returns the inputs and the set-up's (seconds, seconds over the
    mean of the reference work timed right before and after it)."""
    before = reference_s()
    start = time.perf_counter()
    inputs = workloads.build(name, fresh_api(), seed, scale, workdir)
    seconds = time.perf_counter() - start
    return inputs, (seconds, 2 * seconds / (before + reference_s()))


def execute(request, tracer=None) -> Done:
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = request.run()
        else:
            raw = tracer.request_span(request.index, request.run)
    except Exception:  # a failed request is counted, and the loop goes on
        return Done(request, time.perf_counter() - start, None, traceback.format_exc(limit=3))
    latency = time.perf_counter() - start
    try:
        record = request.collect(raw)
    except (OSError, ValueError, KeyError) as exc:
        return Done(request, latency, None, f"unreadable output: {exc!r}")
    return Done(request, latency, record, None)


def pass_count(name: str, seconds: float) -> int:
    """Passes of a run: fixed by the workload and ``--seconds``, never by
    how fast the program runs, so that every input is timed the same number
    of times in the runs of any two versions of the program."""
    return max(1, int(seconds / PASS_SECONDS[name]))


def check(done: list) -> None:
    for item in done:
        if item.record is not None:
            item.reasons = item.request.check(item.record)


def run_workload(name, seed, seconds, trace, scale="full", workdir=None):
    """Set up and run one workload; returns a dict with everything measured.

    An untraced run makes ``pass_count`` passes.  It repeats the set-up
    between requests, evenly spaced over the run, and after the last pass
    until there are SETUP_REPEATS set-ups, so that their median samples the
    machine over the whole run rather than over one moment.  The repeats
    rebuild identical inputs; the requests keep using the first ones.

    A traced run makes half as many passes.  In each, every request runs
    once traced and once untraced, back to back and in alternating order,
    so that the ratio of the two latencies gives the tracing overhead of
    that request, free of the machine's drift over the run."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs, first = setup(name, seed, scale, workdir)
    setup_times = [first]
    requests = inputs.requests
    passes = pass_count(name, seconds)
    out = {"setup_times": setup_times, "requests_per_pass": len(requests)}

    if not trace:
        done = []
        refs = [reference_s()]
        total = passes * len(requests)
        repeat_at = {round(k * total / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)}
        for _ in range(passes):
            for request in requests:
                if len(done) in repeat_at:
                    setup_times.append(setup(name, seed, scale, workdir)[1])
                done.append(execute(request))
                refs.append(reference_s())
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup(name, seed, scale, workdir)[1])
        check(done)
        out.update(done=done, passes=passes, refs=refs)
        return out

    tracer = tracing.Tracer()
    traced, untraced = [], []
    passes = max(1, passes // 2)
    for count in range(passes):
        for i, request in enumerate(requests):
            for with_trace in (True, False) if (count + i) % 2 == 0 else (False, True):
                if with_trace:
                    with tracing.installed(tracer):
                        traced.append(execute(request, tracer))
                else:
                    untraced.append(execute(request))
    check(traced)
    check(untraced)
    for a, b in zip(traced, untraced):
        if (a.error, a.record) != (b.error, b.record):
            b.reasons.append("traced and untraced outputs differ")
    out.update(done=traced + untraced, traced=traced, untraced=untraced, passes=passes,
               tracer=tracer)
    return out


# ---------------------------------------------------------------- metrics


def per_input_medians(done: list, values: list) -> list:
    """Each input's median of ``values`` (one per execution in ``done``)
    over the run's passes, which are spread over the whole run and so over
    the machine's slow and fast spells."""
    by_input = {}
    for d, value in zip(done, values):
        by_input.setdefault(d.request.index, []).append(value)
    return [statistics.median(v) for v in by_input.values()]


def end_to_end(result: dict) -> tuple[dict, dict]:
    """(metrics in BENCHMARK.json, further end-to-end figures)."""
    done = result["done"]
    refs = result["refs"]
    latencies = [d.latency for d in done]
    # each latency over the reference work timed right before and after it
    relative = [2 * d.latency / (refs[k] + refs[k + 1]) for k, d in enumerate(done)]
    medians = per_input_medians(done, latencies)
    relative_medians = per_input_medians(done, relative)
    gapped = [d for d in done if d.gap is not None]
    metrics = {
        "setup_s": (REFERENCE_S * statistics.median(r for _, r in result["setup_times"]), "s"),
        "request_p50_ref": (statistics.median(relative_medians), "ref"),
        "requests_per_kref": (1000 * len(relative_medians) / sum(relative_medians), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_wall_s": (statistics.median(w for w, _ in result["setup_times"]), "s"),
        "requests_per_s": (len(done) / sum(latencies), "1/s"),
        "request_p50_s": (statistics.median(medians), "s"),
        "reference_s": (statistics.median(refs), "s"),
        "requests": (len(done), "count"),
        "failed_frac": (sum(d.failed for d in done) / len(done), "ratio"),
        "uncertified_frac": (
            sum(d.uncertified for d in gapped) / len(gapped) if gapped else 0.0, "ratio"
        ),
        "gap_max": (max((d.gap for d in gapped), default=0.0), "cost"),
    }
    # the highest percentile with at least ten samples beyond it
    if len(medians) >= 100:
        extra["request_p90_s"] = (statistics.quantiles(medians, n=10, method="inclusive")[-1], "s")
    return metrics, extra


def per_layer(result: dict) -> dict:
    """Per-layer metrics of the traced passes.  Counts and times are per
    pass over the inputs; shares are of the traced request time."""
    tracer = result["tracer"]
    passes = result["passes"]
    traced = result["traced"]
    spans = tracer.self_times()
    by_id = {span[0]: span for span, _ in spans}
    request_s = sum(s[5] - s[4] for s, _ in spans if s[3] == "request")

    def self_s(*names) -> float:
        return sum(own for s, own in spans if s[3] in names)

    def layer_self(layer: str) -> float:
        spanned = sum(own for s, own in spans if s[3].startswith(layer + "."))
        counted = sum(c[2] for n, c in tracer.counters.items() if n.startswith(layer + "."))
        return spanned + counted

    def duration(name: str) -> float:
        return sum(s[5] - s[4] for s, _ in spans if s[3] == name)

    def calls(name: str) -> int:
        return sum(1 for s, _ in spans if s[3] == name)

    def attr_sum(name: str, key: str) -> float:
        return sum(s[7].get(key, 0) for s, _ in spans if s[3] == name)

    def share(seconds: float) -> float:
        return seconds / request_s

    def per_pass(value: float) -> float:
        return value / passes

    def under_outer_solve(span) -> bool:
        while span[1] >= 0:
            span = by_id[span[1]]
            if span[3] in OUTER_SOLVES:
                return True
        return False

    builds = calls("bayes.build_tree")
    nodes = attr_sum("bayes.build_tree", "nodes")
    build_self = self_s("bayes.build_tree")
    solves = sum(calls(name) for name in OUTER_SOLVES)
    best_responses = sum(
        1 for s, _ in spans if s[3] == "bayes.solve_bayes" and under_outer_solve(s)
    )
    predictive = tracer.counters.get("belief.predictive", [0, 0.0, 0.0])
    mc_self = self_s("oracle.mc_estimate")
    certifies = calls("ambiguity.certify_saddle")
    enumerations = calls("oracle.enumerate_cost")
    gapped = [d for d in traced if d.gap is not None]
    artifacts = [d.record.get("artifact_bytes", 0) for d in traced if d.record is not None]
    # each request ran traced and untraced back to back; the median ratio of
    # the two latencies is robust to the machine's swings between pairs
    pairs = [(a.latency, b.latency) for a, b in zip(traced, result["untraced"])]
    overhead_share = statistics.median(t / u for t, u in pairs) - 1.0
    untraced_s = sum(u for _, u in pairs)
    cli_names = [f"cli.{n}" for n, _ in tracing.public_functions("cli")]

    metrics = {
        "bayes.build_tree.calls": (per_pass(builds), "count"),
        "bayes.build_tree.nodes": (per_pass(nodes), "count"),
        "bayes.build_tree.calls_per_request": (builds / len(traced), "count"),
        "bayes.build_tree.self_s": (per_pass(build_self), "s"),
        "bayes.build_tree.us_per_node": (1e6 * build_self / nodes if nodes else 0.0, "us"),
        "bayes.build_tree.self_share": (share(build_self), "ratio"),
        "bayes.build_tree.total_share": (share(duration("bayes.build_tree")), "ratio"),
        "bayes.solve_bayes.self_s": (per_pass(self_s("bayes.solve_bayes")), "s"),
        "bayes.solve_bayes.self_share": (share(self_s("bayes.solve_bayes")), "ratio"),
        "bayes.policy_cost_profile.self_share": (share(self_s("bayes.policy_cost_profile")), "ratio"),
        "bayes.bayes_cost.self_share": (share(self_s("bayes.bayes_cost")), "ratio"),
        "belief.predictive.calls": (per_pass(predictive[0]), "count"),
        "belief.predictive.total_s": (per_pass(predictive[1]), "s"),
        "ambiguity.best_responses_per_solve": (best_responses / solves if solves else 0.0, "count"),
        "ambiguity.solve.self_share": (share(self_s(*OUTER_SOLVES, "ambiguity.entropic_objective")), "ratio"),
        "ambiguity.certify_saddle.self_share": (share(self_s("ambiguity.certify_saddle")), "ratio"),
        "ambiguity.certify_saddle.grid_points": (
            attr_sum("ambiguity.certify_saddle", "grid_points") / certifies if certifies else 0.0, "count"),
        "ambiguity.uncertified_frac": (
            sum(d.uncertified for d in gapped) / len(gapped) if gapped else 0.0, "ratio"),
        "ambiguity.gap_max": (max((d.gap for d in gapped), default=0.0), "cost"),
        "search.golden_section_max.evals": (per_pass(attr_sum("search.golden_section_max", "evals")), "count"),
        "search.plateau_edges.evals": (per_pass(attr_sum("search.plateau_edges", "evals")), "count"),
        "search.refine_coordinate_pairs.evals": (
            per_pass(attr_sum("search.refine_coordinate_pairs", "evals")), "count"),
        "oracle.mc_estimate.self_share": (share(mc_self), "ratio"),
        "oracle.mc_estimate.samples_per_s": (
            attr_sum("oracle.mc_estimate", "samples") / mc_self if mc_self else 0.0, "1/s"),
        "oracle.enumerate_cost.self_share": (share(self_s("oracle.enumerate_cost")), "ratio"),
        "oracle.enumerate_cost.trajectories": (
            attr_sum("oracle.enumerate_cost", "trajectories") / enumerations if enumerations else 0.0,
            "count"),
        "cli.parse_config.self_share": (share(self_s("cli.parse_config")), "ratio"),
        "cli.main.self_share": (
            share(self_s(*[n for n in cli_names if n != "cli.parse_config"])), "ratio"),
        "cli.artifact_bytes": (sum(artifacts) / len(traced), "bytes"),
        "model.validate.self_share": (share(self_s("model.validate")), "ratio"),
        "trace.overhead_s": (per_pass(overhead_share * untraced_s), "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_share"] = (share(layer_self(layer)), "ratio")
    return metrics


# ----------------------------------------------------------------- output


def describe(done: Done) -> dict:
    entry = {"request": done.request.index, **done.request.labels}
    if done.record is not None and done.gap is not None:
        entry["gap"] = done.gap
        entry["certified"] = done.record["certified"]
    return entry


def report(name: str, seed: int, trace: int, result: dict, path: Path) -> dict:
    """Print the summary lines, write the result file and return the final
    JSON object."""
    done = result["done"]
    failed = [d for d in done if d.failed]
    uncertified = [d for d in done if d.uncertified]
    if trace:
        metrics = per_layer(result)
        shown = metrics
    else:
        metrics, extra = end_to_end(result)
        shown = {**metrics, **extra}
    print(f"workload {name}, seed {seed}, trace {trace}: {len(done)} requests, "
          f"{result['passes']} passes of {result['requests_per_pass']}")
    for key, (value, unit) in shown.items():
        print(f"  {key} = {value:.6g} {unit}")
    if not trace:
        print(f"  (p50 over {result['requests_per_pass']} inputs of each input's median "
              f"latency in {result['passes']} executions; set-up median of "
              f"{len(result['setup_times'])})")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "failed": [{**describe(d), "error": d.error, "reasons": d.reasons} for d in failed],
        "uncertified": [describe(d) for d in uncertified],
    }, indent=1, sort_keys=True) + "\n")
    print(f"  result file: {path.relative_to(ROOT)} "
          f"({len(failed)} failed, {len(uncertified)} uncertified requests listed)")
    return {
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ambmdp" / "__init__.py").is_file():
        print(f"benchmark: no ambmdp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # set-up imports the package from its cached bytecode, as an installed
    # package does, whatever PYTHONDONTWRITEBYTECODE says
    sys.dont_write_bytecode = False
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              workdir=workdir)
    except SetupError as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    final = report(args.workload, args.seed, args.trace, result, path)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
