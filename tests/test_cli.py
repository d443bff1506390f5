import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ambmdp
from ambmdp import bayes, cli, seqtest
from ambmdp.ambiguity import certify_saddle, solve
from ambmdp.bayes import DeterministicPolicy, solve_bayes
from ambmdp.cli import (
    FIGURE_MODES, SOLVE_MODES, bayes_to_dict, main, parse_config, run, saddle_to_dict,
)
from ambmdp.errors import ConfigError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from helpers import (
    decision_nodes,
    load_artifact,
    random_belief,
    random_model,
    render_inline,
    subnormal_prior_model,
)
from oracles import exact_number, key_by_key_parse, policy_rows

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))
#: ``ambmdp figure`` output of the shipped figure configs, the stdout of
#: ``ambmdp simulate`` on ``configs/simulate.cfg`` and the ``ambmdp solve``
#: artifact of ``configs/bayes.cfg``, kept byte for byte
GOLDEN_DIR = Path(__file__).resolve().parent / "data"

ENTROPIC_CONFIG = """
# minimal entropic run on the built-in example
mode = entropic
model.name = seqtest
model.horizon = 1
prior = 0.1
solver.gamma = 0.1
"""

INLINE_CONFIG = """
mode = bayes
model.name = inline
model.horizon = 1
model.states = s0 s1
model.actions = stay go
model.params = t0 t1
model.initial.t0 = 1 0
model.initial.t1 = 1 0
model.transition.*.t0.s0.stay = 1 0
model.transition.*.t0.s0.go = 0 1
model.transition.*.t0.s1.stay = 0 1
model.transition.*.t0.s1.go = 0 1
model.transition.*.t1.s0.stay = 1 0
model.transition.*.t1.s0.go = 1/2 1/2
model.transition.*.t1.s1.stay = 0 1
model.transition.*.t1.s1.go = 0 1
model.cost.*.t0.s0.go = 2
model.cost.*.t1.s0.go = 4
model.terminal.t0 = 0 1
model.terminal.t1 = 0 3
prior = 1/2 1/2
"""

FIGURE_CONFIG = """
mode = figure-entropic
model.name = seqtest
model.horizon = 1
sweep.gamma = 0:1:0.25
sweep.prior = 0.1 0.3
"""


ZERO_WEIGHT_BRANCH_CONFIG = """
model.name = inline
model.horizon = 1
model.states = s0 s1
model.actions = go
model.params = t0 t1
model.initial.t0 = 1 0
model.initial.t1 = 1 0
model.transition.*.t0.s0.go = 0 1
model.transition.*.t0.s1.go = 0 1
model.transition.*.t1.s0.go = 1 0
model.transition.*.t1.s1.go = 0 1
model.cost.*.t0.s0.go = 1
model.terminal.t0 = 0 5
model.terminal.t1 = 0 5
prior = 0
"""


SIMULATE_CONFIG = """
mode = simulate
model.name = seqtest
model.horizon = 1
prior = 0.5
simulate.theta = theta2
simulate.samples = 2000
simulate.seed = 7
"""

#: INLINE_CONFIG without its second parameter, as a figure config
ONE_PARAM_FIGURE_CONFIG = "\n".join(
    line for line in INLINE_CONFIG.splitlines()
    if ".t1" not in line and not line.startswith("prior")
).replace("mode = bayes", "mode = figure-avar").replace("t0 t1", "t0") + (
    "\nsweep.gamma = 0.5\nsweep.prior = 0.5\n"
)

#: per defect, a config that has it and the exact message it is refused with
CONFIG_ERRORS = {
    "no-equals": (
        ENTROPIC_CONFIG + "gamma 0.1\n", "line 8: expected 'key = value', got 'gamma 0.1'"
    ),
    "empty-key": (ENTROPIC_CONFIG + "= 3\n", "line 8: empty key"),
    "gamma-not-allowed": (
        INLINE_CONFIG + "solver.gamma = 0.5\n",
        "line 23: solver.gamma: not allowed in mode bayes",
    ),
    "sweep-not-allowed": (
        ENTROPIC_CONFIG + "sweep.prior = 0.5\n",
        "line 8: sweep.prior: not allowed in mode entropic",
    ),
    "simulate-not-allowed": (
        ENTROPIC_CONFIG + "simulate.seed = 3\n",
        "line 8: simulate.seed: not allowed in mode entropic",
    ),
    "figure-prior": (
        FIGURE_CONFIG + "prior = 0.5\n", "line 7: prior: figure modes take sweep.prior instead"
    ),
    "not-an-integer": (
        ENTROPIC_CONFIG.replace("model.horizon = 1", "model.horizon = 1.5"),
        "line 5: model.horizon: not an integer: '1.5'",
    ),
    "empty-value": (
        ENTROPIC_CONFIG.replace("prior = 0.1", "prior ="), "line 6: prior: empty value"
    ),
    "empty-labels": (
        INLINE_CONFIG.replace("model.actions = stay go", "model.actions ="),
        "line 6: model.actions: empty label list",
    ),
    "duplicate-labels": (
        INLINE_CONFIG.replace("model.states = s0 s1", "model.states = s0 s0"),
        "line 5: model.states: labels must be unique",
    ),
    "dotted-param": (
        INLINE_CONFIG.replace("model.params = t0 t1", "model.params = t.0 t1"),
        "line 7: model.params: label 't.0' contains '.', so no key can name it",
    ),
    "dotted-state": (
        INLINE_CONFIG.replace("model.states = s0 s1", "model.states = s0 s.1"),
        "line 5: model.states: label 's.1' contains '.', so no key can name it",
    ),
    "equals-action": (
        INLINE_CONFIG.replace("model.actions = stay go", "model.actions = stay go=1"),
        "line 6: model.actions: label 'go=1' contains '=', so no key can name it",
    ),
    "range-shape": (
        FIGURE_CONFIG.replace("0:1:0.25", "0:1"),
        "line 5: sweep.gamma: range must be start:stop:step, got '0:1'",
    ),
    "range-literal": (
        FIGURE_CONFIG.replace("0:1:0.25", "0:1:x"),
        "line 5: sweep.gamma: bad range literal: '0:1:x'",
    ),
    "range-order": (
        FIGURE_CONFIG.replace("0:1:0.25", "1:0:0.25"),
        "line 5: sweep.gamma: range requires step > 0 and stop >= start",
    ),
    "seqtest-horizon": (
        ENTROPIC_CONFIG.replace("model.horizon = 1", "model.horizon = -1"),
        "line 5: model.horizon: must be >= 0",
    ),
    "observation-cost": (
        ENTROPIC_CONFIG + "model.observation_cost = -1\n",
        "line 8: model.observation_cost: must be >= 0, got -1.0",
    ),
    "error-cost": (
        ENTROPIC_CONFIG + "model.error_cost = -2\n",
        "line 8: model.error_cost: must be >= 0, got -2.0",
    ),
    "p-low": (
        ENTROPIC_CONFIG + "model.p_low = 1\n",
        "line 8: model.p_low: must be strictly inside (0, 1), got 1.0",
    ),
    "p-high": (
        ENTROPIC_CONFIG + "model.p_high = 0\n",
        "line 8: model.p_high: must be strictly inside (0, 1), got 0.0",
    ),
    "inline-horizon": (
        INLINE_CONFIG.replace("model.horizon = 1", "model.horizon = 0"),
        "line 4: model.horizon: must be >= 1",
    ),
    "epoch-range": (
        INLINE_CONFIG.replace("model.cost.*.t0.s0.go", "model.cost.1.t0.s0.go"),
        "line 18: model.cost.1.t0.s0.go: epoch 1 outside 0..0",
    ),
    "unknown-state": (
        INLINE_CONFIG.replace("model.cost.*.t0.s0.go", "model.cost.*.t0.s2.go"),
        "line 18: model.cost.*.t0.s2.go: unknown state 's2'",
    ),
    "unknown-action": (
        INLINE_CONFIG.replace("model.cost.*.t0.s0.go", "model.cost.*.t0.s0.fly"),
        "line 18: model.cost.*.t0.s0.fly: unknown action 'fly'",
    ),
    "unknown-param": (
        INLINE_CONFIG.replace("model.cost.*.t0.s0.go", "model.cost.*.t9.s0.go"),
        "line 18: model.cost.*.t9.s0.go: unknown parameter 't9'",
    ),
    "key-shape": (
        INLINE_CONFIG.replace("model.cost.*.t0.s0.go", "model.cost.*.t0.s0"),
        "line 18: model.cost.*.t0.s0: expected model.cost.<epoch>.<param>.<state>.<action>",
    ),
    "row-length": (
        INLINE_CONFIG.replace("model.terminal.t1 = 0 3", "model.terminal.t1 = 0 3 1"),
        "line 21: model.terminal.t1: expected 2 costs, got 3",
    ),
    "missing-initial": (
        INLINE_CONFIG.replace("model.initial.t1 = 1 0\n", ""),
        "missing model.initial.<param> for: t1",
    ),
    "scalar-prior": (
        ENTROPIC_CONFIG.replace("prior = 0.1", "prior = 1.5"),
        "line 6: prior: scalar prior must lie in [0, 1], got 1.5",
    ),
    "prior-length": (
        ENTROPIC_CONFIG.replace("prior = 0.1", "prior = 0.2 0.3 0.5"),
        "line 6: prior: expected 2 weights (or a scalar for two parameters)",
    ),
    "prior-weights": (
        ENTROPIC_CONFIG.replace("prior = 0.1", "prior = 0.5 0.6"),
        "line 6: prior: belief weights sum to 1.1, too far from 1",
    ),
    "model-name": (
        ENTROPIC_CONFIG.replace("model.name = seqtest", "model.name = grid"),
        "line 4: model.name: must be 'seqtest' or 'inline', got 'grid'",
    ),
    "figure-params": (ONE_PARAM_FIGURE_CONFIG, "figure modes require a two-parameter model"),
    "sweep-prior": (
        FIGURE_CONFIG.replace("sweep.prior = 0.1 0.3", "sweep.prior = 0.1 1.5"),
        "line 6: sweep.prior: values must lie in [0, 1], got 1.5",
    ),
    "simulate-samples": (
        SIMULATE_CONFIG.replace("simulate.samples = 2000", "simulate.samples = 0"),
        "line 7: simulate.samples: must be >= 1",
    ),
    # gamma times the cost scale 20 overflows, and so does 1/gamma
    "gamma-times-scale-overflows": (
        ENTROPIC_CONFIG.replace("solver.gamma = 0.1", "solver.gamma = 1.7e308"),
        "line 7: solver.gamma: entropic mode requires a finite gamma: 1/gamma and gamma "
        "times the cost scale 20 must be finite, got 1.7e+308",
    ),
    "inverse-gamma-overflows": (
        ENTROPIC_CONFIG.replace("solver.gamma = 0.1", "solver.gamma = 1e-320"),
        "line 7: solver.gamma: entropic mode requires a finite gamma: 1/gamma and gamma "
        "times the cost scale 20 must be finite, got 1e-320",
    ),
}

#: per integer key: the key, a config that leaves it out, its least value,
#: its default (None where the key is required) and where the parse keeps it
INTEGER_KEYS = {
    "seqtest-horizon": (
        # the built model adds the declaration epoch
        "model.horizon", ENTROPIC_CONFIG.replace("model.horizon = 1\n", ""), 0, 1,
        lambda config: config.model.horizon - 1,
    ),
    "inline-horizon": (
        "model.horizon", INLINE_CONFIG.replace("model.horizon = 1\n", ""), 1, None,
        lambda config: config.model.horizon,
    ),
    "node-cap": (
        "solver.node_cap", ENTROPIC_CONFIG, 1, 10_000_000, lambda config: config.node_cap,
    ),
    "trajectory-cap": (
        "solver.trajectory_cap", ENTROPIC_CONFIG, 1, 1_000_000,
        lambda config: config.trajectory_cap,
    ),
    "simulate-samples": (
        "simulate.samples", SIMULATE_CONFIG.replace("simulate.samples = 2000\n", ""), 1,
        10_000, lambda config: config.samples,
    ),
    "simulate-seed": (
        "simulate.seed", SIMULATE_CONFIG.replace("simulate.seed = 7\n", ""), 0, 0,
        lambda config: config.seed,
    ),
}


def edited(name: str, lines: dict) -> str:
    """The text of ``configs/<name>.cfg`` with the one line that sets each key
    of ``lines`` replaced by its value, or dropped where that is None."""
    text = (CONFIG_DIR / f"{name}.cfg").read_text()
    for key, line in lines.items():
        text, count = re.subn(
            rf"^{re.escape(key)} = .*\n", lambda _: "" if line is None else line + "\n", text,
            flags=re.M,
        )
        assert count == 1, (name, key)
    return text


CERTIFIED = "certificate: prior side ok, policy side ok"
GAMMA_OVERFLOWS = (
    "config error: line 6: solver.gamma: entropic mode requires a finite gamma: 1/gamma and "
    "gamma times the cost scale 20 must be finite, got "
)
NODE_CAP_GUARD = "solver guard: reachable belief tree exceeds node cap 10000000"

#: per case, a config and what ``ambmdp solve`` on it gives: its exit status,
#: and a line of its stdout (status 0) or its one stderr line
SOLVE_OUTCOMES = {
    # a tiny entropic gamma keeps weak duality
    "entropic-gamma-1e-8": (
        edited("entropic", {"solver.gamma": "solver.gamma = 1e-8"}), 0, CERTIFIED,
    ),
    # so does avar at gamma 1 - 1e-9 with a base weight of 1e-12
    "avar-near-one": (
        edited("avar", {
            "prior": "prior = 1e-12 0.999999999999", "solver.gamma": "solver.gamma = 0.999999999",
        }), 0, CERTIFIED,
    ),
    # a zero-weight prior leaves one support parameter, whose avar and robust
    # masters are the simplex tableau
    "one-support-avar": (
        edited("inline_example", {
            "mode": "mode = avar", "prior": "prior = 1 0", "solver.gamma": "solver.gamma = 0.5",
        }), 0, CERTIFIED,
    ),
    "one-support-robust": (
        edited("inline_example", {
            "mode": "mode = robust", "prior": "prior = 1 0", "solver.gamma": None,
        }), 0, CERTIFIED,
    ),
    # an entropic gamma whose product with the cost scale 20, or whose
    # inverse, overflows is refused on its line before any solve
    "entropic-gamma-1e308": (
        edited("entropic", {"solver.gamma": "solver.gamma = 1e308"}), 1, GAMMA_OVERFLOWS + "1e+308",
    ),
    "entropic-gamma-5e-324": (
        edited("entropic", {"solver.gamma": "solver.gamma = 5e-324"}), 1, GAMMA_OVERFLOWS + "5e-324",
    ),
    "unknown-state": (
        edited("inline_example", {"model.cost.*.t0.s0.go": "model.cost.*.t0.s9.go = 2"}), 1,
        "config error: line 18: model.cost.*.t0.s9.go: unknown state 's9'",
    ),
    "epoch-with-leading-zero": (
        edited("inline_example", {"model.cost.*.t0.s0.go": "model.cost.00.t0.s0.go = 2"}), 1,
        "config error: line 18: model.cost.00.t0.s0.go: epoch '00' must be * or ASCII digits "
        "with no sign, leading zero or underscore",
    ),
    # refused by the rule SeqTestConfig reads, on its line
    "seqtest-field": (
        "mode = bayes\nmodel.p_low = 1\nprior = 0.5\n", 1,
        "config error: line 2: model.p_low: must be strictly inside (0, 1), got 1.0",
    ),
    # refused by the model's label rule, on its line
    "repeated-state": (
        edited("inline_example", {"model.states": "model.states = s0 s0"}), 1,
        "config error: line 5: model.states: labels must be unique",
    ),
    # a horizon beyond solver.node_cap is the tree guard, before any table
    "inline-horizon-beyond-node-cap": (
        edited("inline_example", {"model.horizon": "model.horizon = 100000000000000000000"}), 2,
        NODE_CAP_GUARD,
    ),
}


class TestParseConfig:
    def test_minimal_entropic_fills_defaults(self):
        config = parse_config(ENTROPIC_CONFIG)
        assert config.mode == "entropic"
        assert config.gamma == pytest.approx(0.1)
        assert config.node_cap == 10_000_000
        assert config.trajectory_cap == 1_000_000
        assert list(config.prior.weights) == pytest.approx([0.1, 0.9])

    def test_rational_literals_parse_exactly(self):
        config = parse_config(ENTROPIC_CONFIG.replace("prior = 0.1", "prior = 13/30"))
        assert float(config.prior.weights[0]) == 13.0 / 30.0

    def test_negative_gamma_rejected_with_location(self):
        bad = ENTROPIC_CONFIG.replace("solver.gamma = 0.1", "solver.gamma = -1")
        with pytest.raises(ConfigError, match=r"solver\.gamma.*gamma > 0"):
            parse_config(bad)

    def test_overflowing_sweep_value_rejected_with_line(self):
        bad = FIGURE_CONFIG.replace("0:1:0.25", "0:1e400:1e399")
        with pytest.raises(ConfigError, match=r"^line 5: sweep\.gamma: out of float range"):
            parse_config(bad)

    def test_long_sweep_range_refused_before_expansion(self, monkeypatch):
        # the values are counted exactly, and not one of them is made
        monkeypatch.setattr(cli, "float", None, raising=False)
        monkeypatch.setattr(cli, "range", None, raising=False)
        with pytest.raises(ConfigError) as caught:
            cli._sweep_values("sweep.gamma", "1/100000:1:1/100000", 5)
        monkeypatch.undo()
        assert str(caught.value) == "line 5: sweep.gamma: range has 100000 values, at most 10000"
        bad = FIGURE_CONFIG.replace("0:1:0.25", "1/100000:1:1/100000")
        with pytest.raises(ConfigError, match=r"^line 5: sweep\.gamma: range has 100000 values"):
            parse_config(bad)
        with pytest.raises(ConfigError, match="range has 10001 values"):
            cli._sweep_values("sweep.gamma", "0:10000:1", 5)
        assert len(cli._sweep_values("sweep.gamma", "1:10000:1", 5)) == cli.MAX_SWEEP_VALUES

    def test_sweep_range_values_are_the_doubles_of_exact_rationals(self):
        # value i is float(start + i*step), bit for bit, whatever the literals'
        # denominators and exponents, subnormal results included
        rng = np.random.default_rng(1021)

        def literal():
            if rng.random() < 0.5:
                return f"{int(rng.integers(-10**9, 10**9))}/{int(rng.integers(1, 10**6))}"
            exponent = int(rng.choice([rng.integers(-12, 12), rng.integers(-330, 300)]))
            return f"{int(rng.integers(-10**6, 10**6))}e{exponent}"

        for _ in range(1021):
            start, step = Fraction(literal()), abs(Fraction(literal())) or Fraction(1)
            count = int(rng.integers(1, 60))
            stop = start + (count - 1 + Fraction(int(rng.integers(0, 1000)), 1000)) * step
            raw = f"{start}:{stop}:{step}"
            want = [float(start + i * step).hex() for i in range(count)]
            assert [v.hex() for v in cli._sweep_values("sweep.gamma", raw, 5)] == want, raw
        # the shipped figure sweep, from decimal and from rational literals
        want = [float(Fraction(i, 20)).hex() for i in range(41)]
        for raw in ("0:2:0.05", "0:2:1/20"):
            assert [v.hex() for v in cli._sweep_values("sweep.gamma", raw, 5)] == want

    def test_avar_gamma_range(self):
        bad = ENTROPIC_CONFIG.replace("mode = entropic", "mode = avar")
        bad = bad.replace("solver.gamma = 0.1", "solver.gamma = 1.5")
        with pytest.raises(ConfigError, match=r"solver\.gamma.*\(0, 1\)"):
            parse_config(bad)

    def test_unknown_key_rejected_with_line(self):
        bad = ENTROPIC_CONFIG + "solver.typo = 3\n"
        with pytest.raises(ConfigError, match=r"solver\.typo \(line \d+\)"):
            parse_config(bad)

    def test_duplicate_key_rejected(self):
        bad = ENTROPIC_CONFIG + "solver.gamma = 0.2\n"
        with pytest.raises(ConfigError, match="duplicate key solver.gamma"):
            parse_config(bad)

    @pytest.mark.parametrize("key", ("solver.node_cap", "solver.trajectory_cap"))
    @pytest.mark.parametrize("value", ("0", "-5"))
    def test_non_positive_cap_rejected_with_line(self, key, value):
        bad = ENTROPIC_CONFIG + f"{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"line 8: {key}: must be >= 1"):
            parse_config(bad)

    @pytest.mark.parametrize("case", ("literal", "below", "minimum", "absent"))
    @pytest.mark.parametrize("name", INTEGER_KEYS)
    def test_integer_key(self, name, case):
        # the key is set on the line after the rest of the config
        key, text, minimum, default, read = INTEGER_KEYS[name]
        line = len(text.splitlines()) + 1
        value = {"literal": "2.5", "below": str(minimum - 1), "minimum": str(minimum)}
        if case != "absent":
            text += f"{key} = {value[case]}\n"
        if case == "minimum" or (case == "absent" and default is not None):
            assert read(parse_config(text)) == (minimum if case == "minimum" else default)
            return
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == {
            "literal": f"line {line}: {key}: not an integer: '2.5'",
            "below": f"line {line}: {key}: must be >= {minimum}",
            "absent": f"missing required key {key}",
        }[case]

    def test_missing_required_key(self):
        bad = ENTROPIC_CONFIG.replace("solver.gamma = 0.1", "")
        with pytest.raises(ConfigError, match="missing required key solver.gamma"):
            parse_config(bad)

    def test_inline_model_parses_and_solves(self):
        config = parse_config(INLINE_CONFIG)
        assert config.model.states == ("s0", "s1")
        assert config.model.horizon == 1

    def test_epoch_key_overrides_wildcard_in_any_line_order(self):
        # a table's keys apply in key order, where * sorts before any epoch
        text = INLINE_CONFIG.replace(
            "model.cost.*.t0.s0.go = 2", "model.cost.0.t0.s0.go = 5\nmodel.cost.*.t0.s0.go = 2"
        )
        assert parse_config(text).model.stage_cost[0, 0, 0, 1] == 5.0

    def test_inline_bad_row_sum_quotes_validation(self):
        bad = INLINE_CONFIG.replace(
            "model.transition.*.t1.s0.go = 1/2 1/2",
            "model.transition.*.t1.s0.go = 1/2 0.4",
        )
        with pytest.raises(ConfigError, match="sums to 0.9"):
            parse_config(bad)

    def test_inline_missing_transition_row(self):
        bad = INLINE_CONFIG.replace("model.transition.*.t1.s0.go = 1/2 1/2\n", "")
        with pytest.raises(ConfigError, match="missing model.transition row"):
            parse_config(bad)

    def test_figure_mode_requires_sweeps(self):
        bad = FIGURE_CONFIG.replace("sweep.gamma = 0:1:0.25", "")
        with pytest.raises(ConfigError, match="sweep.gamma"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "mode, sweep, message",
        [
            ("figure-entropic", "0 -0.5", "entropic mode requires gamma > 0, got -0.5"),
            ("figure-avar", "0:1:0.25", r"avar mode requires gamma in \(0, 1\), got 1.0"),
            ("figure-avar", "0 -0.25", r"avar mode requires gamma in \(0, 1\), got -0.25"),
            *(
                ("figure-entropic", f"0 1 {gamma}", "entropic mode requires a finite gamma: "
                 rf"1/gamma and gamma times the cost scale 20 must be finite, got {shown}")
                for gamma, shown in (("1e308", r"1e\+308"), ("5e-324", "5e-324"))
            ),
        ],
    )
    def test_sweep_gamma_checked_per_mode_with_line(self, mode, sweep, message):
        # gamma = 0 rows are the plain Bayes value; every other gamma must
        # suit the outer mode
        bad = FIGURE_CONFIG.replace("figure-entropic", mode)
        bad = bad.replace("sweep.gamma = 0:1:0.25", f"sweep.gamma = {sweep}")
        with pytest.raises(ConfigError, match=rf"^line 5: sweep\.gamma: {message}$"):
            parse_config(bad)

    def test_figure_range_expansion_is_exact(self):
        config = parse_config(FIGURE_CONFIG)
        assert config.gamma_sweep == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_mode_must_be_known(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode = nonsense\nprior = 0.5\n")

    @pytest.mark.parametrize("name", list(CONFIG_ERRORS))
    def test_config_error_message(self, name):
        text, message = CONFIG_ERRORS[name]
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == message


def _number_outcome(raw: str) -> str:
    """What the config reader makes of a literal: the double, sign of zero
    included, as ``float.hex``, or the error text."""
    try:
        return cli._number("solver.gamma", raw, 3).hex()
    except ConfigError as exc:
        return str(exc)


def _exact_outcome(raw: str) -> str:
    """The same for the exact rational reading, the reference."""
    try:
        return exact_number(raw).hex()
    except (ValueError, ZeroDivisionError):
        return f"line 3: solver.gamma: not a number or rational literal: {raw!r}"
    except OverflowError:
        return f"line 3: solver.gamma: out of float range: {raw!r}"


_DIGITS = st.text("0123456789", min_size=1, max_size=30)


@st.composite
def decimal_literals(draw) -> str:
    """ASCII decimal literals: signs, a point with digits on either side or
    both, and exponents from far below the subnormals to past overflow."""
    whole, part = draw(_DIGITS), draw(_DIGITS)
    mantissa = draw(st.sampled_from([whole, f"{whole}.", f".{part}", f"{whole}.{part}"]))
    exponent = draw(st.one_of(
        st.just(""),
        st.builds(
            "{}{}{}".format,
            st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
            st.integers(0, 420).map(str),
        ),
    ))
    return draw(st.sampled_from(["", "+", "-"])) + mantissa + exponent


class TestNumberLiterals:
    """Config numbers must be read as the exact rational rounded once."""

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(decimal_literals(), st.floats(allow_nan=False).map(repr)))
    @example(raw="1e-400")
    @example(raw="-1e-400")
    @example(raw="-0")
    @example(raw="-0.000e5")
    @example(raw="5e-324")
    @example(raw="2.4703282292062327e-324")  # just under half the least subnormal
    @example(raw="2.4703282292062328e-324")  # just over it
    @example(raw="1.7976931348623157e308")
    @example(raw="1.7976931348623159e308")  # rounds past the largest double
    def test_decimal_reads_as_exact_rational(self, raw):
        assert _number_outcome(raw) == _exact_outcome(raw)

    @pytest.mark.parametrize(
        "raw",
        ["inf", "nan", "-Infinity", "1_0", "0x10", "\u0661", " 2 ", "1e400", "-1e400",
         "1/0", "13/30", "-0/5", "1.5.2", "", "e5", "."],
    )
    def test_other_literal_matches_exact_reading(self, raw):
        # Fraction's accepted syntax differs between Python versions; the
        # reader follows the running one
        assert _number_outcome(raw) == _exact_outcome(raw)

    def test_long_digit_run_is_refused_in_linear_time(self):
        # two ways to split a digit run made a failing match quadratic:
        # 16,000 digits and an x took 7 s
        raw = "1" * 20_000 + "x"
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="not a number or rational literal"):
            cli._number("solver.gamma", raw, 3)
        assert time.perf_counter() - start < 1.0

    @staticmethod
    def assert_bitwise_equal(got, want):
        """Every array and value of two parses alike, bit for bit."""
        for name in ("initial_kernel", "transition", "stage_cost", "terminal_cost",
                     "feasible_mask"):
            assert getattr(got.model, name).tobytes() == getattr(want.model, name).tobytes()
        assert got.model.feasible == want.model.feasible
        for name in ("gamma", "gamma_sweep", "prior_sweep"):
            assert repr(getattr(got, name)) == repr(getattr(want, name))
        if want.prior is None:
            assert got.prior is None
        else:
            assert got.prior.weights.tobytes() == want.prior.weights.tobytes()

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_parses_as_exact_reading(self, path):
        text = path.read_text()
        self.assert_bitwise_equal(parse_config(text), key_by_key_parse(text))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_inline_config_parses_as_exact_reading(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_params=int(rng.integers(3, 6)))
        text = render_inline(model, random_belief(rng, model.n_params))
        config = parse_config(text)
        self.assert_bitwise_equal(config, key_by_key_parse(text))
        assert config.model.initial_kernel.tobytes() == model.initial_kernel.tobytes()
        assert config.model.terminal_cost.tobytes() == model.terminal_cost.tobytes()



def _random_inline_sources() -> list[str]:
    """Rendered random inline configs; in the last, every-epoch costs that
    explicit epochs override and transition rows written with commas."""
    rng = np.random.default_rng(2024)
    texts = []
    for horizon in (1, 2, 3):
        model = random_model(rng, horizon=horizon)
        texts.append(render_inline(model, random_belief(rng, model.n_params)))
    lines = texts[-1].splitlines()
    lines += [
        f"model.cost.*.{theta}.s0.{action} = 9.5"
        for theta in model.params.labels for action in model.actions
    ]
    for at, line in enumerate(lines):
        key, _, value = line.partition(" = ")
        if key.startswith("model.transition."):
            lines[at] = f"{key} = {', '.join(value.split())}"
    return texts + ["\n".join(lines) + "\n"]


#: every shipped config and random inline ones, to mutate
READER_SOURCES = [path.read_text() for path in SHIPPED_CONFIGS] + _random_inline_sources()
#: what a mutated number token becomes
ODD_TOKENS = ("-0", "-0.0", "1e400", "-1e-400", "1/3", "nan", "1,2", "0x1", "", "1.2.3", "--1",
              "1e5e5", "1_0", "\u0661")
#: what a mutated epoch token becomes
ODD_EPOCHS = ("00", "+0", "-0", "0_0", "\u0660", "01", "9", "x", "*", " 0", "-1")


@st.composite
def mutated_configs(draw) -> str:
    """A reader source with one or two defects: a key dropped or repeated, a
    label or epoch misspelled, a row too short or too long, or a number
    token replaced by an odd literal."""
    lines = draw(st.sampled_from(READER_SOURCES)).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(
            ("drop", "repeat", "label", "epoch", "short", "long", "token")
        ))
        # the table lines, or every line for a dropped or repeated key
        table = [at for at, line in enumerate(lines) if line.startswith("model.")
                 and line.count(".") > 1 and kind not in ("drop", "repeat")]
        at = draw(st.sampled_from(table or range(len(lines))))
        key, sep, value = lines[at].partition(" = ")
        parts = key.split(".")
        if kind == "drop":
            del lines[at]
        elif kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif kind in ("label", "epoch") and len(parts) > 2:
            field = 2 if kind == "epoch" and len(parts) > 3 else draw(
                st.integers(2, len(parts) - 1)
            )
            parts[field] = draw(st.sampled_from(ODD_EPOCHS)) if kind == "epoch" else (
                parts[field] + draw(st.sampled_from(("x", "0", "")))
            )
            lines[at] = ".".join(parts) + sep + value
        elif kind in ("short", "long") and value:
            tokens = value.split()
            tokens = tokens[:-1] if kind == "short" else tokens + [tokens[-1]]
            lines[at] = key + sep + " ".join(tokens)
        elif kind == "token" and value:
            tokens = value.split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
            lines[at] = key + sep + " ".join(tokens)
    return "\n".join(lines) + "\n"


def _reading(parse, text):
    """What a reader makes of a config: the bytes of every array and value
    of the parse, or the text of its error."""
    try:
        config = parse(text)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    model = config.model
    arrays = (model.initial_kernel, model.transition, model.stage_cost, model.terminal_cost,
              model.feasible_mask)
    prior = None if config.prior is None else config.prior.weights.tobytes()
    return (
        [a.tobytes() for a in arrays], model.feasible, prior,
        repr((config.mode, config.gamma, config.gamma_sweep, config.prior_sweep)),
    )


class TestBulkReader:
    """The bulk config reader against the key-by-key reference."""

    @settings(max_examples=400, deadline=None)
    @given(text=mutated_configs())
    def test_mutated_configs_read_as_the_reference_reads_them(self, text):
        assert _reading(parse_config, text) == _reading(key_by_key_parse, text)

    @pytest.mark.parametrize("text", READER_SOURCES, ids=range(len(READER_SOURCES)))
    def test_sources_read_as_the_reference_reads_them(self, text):
        assert not isinstance(_reading(parse_config, text), str)
        assert _reading(parse_config, text) == _reading(key_by_key_parse, text)

    # each once named epoch 0: int() reads a sign, leading zeros, underscores
    # and non-ASCII digits
    @pytest.mark.parametrize("epoch", ["00", "+0", "0_0", "\u0660", "-0", " 0"])
    def test_epoch_spelling_refused(self, epoch):
        text = INLINE_CONFIG.replace("model.cost.*.t0.s0.go", f"model.cost.{epoch}.t0.s0.go")
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == (
            f"line 18: model.cost.{epoch}.t0.s0.go: epoch {epoch!r} must be * "
            "or ASCII digits with no sign, leading zero or underscore"
        )

    def test_two_spellings_of_one_cell_refused(self):
        # 00 once named the cell 0 names, and the later line won
        text = (
            Path(SHIPPED_CONFIGS[0]).parent.joinpath("inline_example.cfg").read_text()
            + "model.cost.0.t0.s0.go = 7\nmodel.cost.00.t0.s0.go = 9\n"
        )
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == (
            "line 25: model.cost.00.t0.s0.go: epoch '00' must be * or ASCII digits "
            "with no sign, leading zero or underscore"
        )

    def test_first_defect_in_table_then_key_order_is_reported(self):
        # a bad transition token, and an unknown state in an earlier table
        # (feasible) and in an earlier key of the same table
        text = INLINE_CONFIG.replace("t1.s1.go = 0 1", "t1.s1.go = 0 x") + (
            "model.transition.*.t0.s9.go = 1 0\nmodel.feasible.0.s9 = go\n"
        )
        with pytest.raises(ConfigError, match="^line 24: model.feasible.0.s9: unknown state"):
            parse_config(text)
        text = text.replace("model.feasible.0.s9 = go\n", "")
        with pytest.raises(ConfigError, match=r"^line 23: model.transition.\*.t0.s9.go: unknown"):
            parse_config(text)


class TestRunSolve:
    def test_entropic_artifact_round_trips(self, tmp_path, capsys):
        config = parse_config(ENTROPIC_CONFIG)
        out = tmp_path / "result.json"
        run(config, out_path=str(out))
        payload = load_artifact(out)
        assert payload["mode"] == "entropic"
        assert payload["worst_prior"][0] == pytest.approx(0.232, abs=1e-3)
        assert payload["gap"] <= 1e-6
        assert payload["certificate"]["mu_side_ok"] is True
        # byte-for-byte identical on reserialization of the same payload
        assert json.dumps(payload, sort_keys=True) + "\n" == out.read_text()
        assert f"wrote {out}" in capsys.readouterr().out

    def test_bayes_mode_reports_value(self, tmp_path):
        config = parse_config(INLINE_CONFIG)
        out = tmp_path / "bayes.json"
        run(config, out_path=str(out))
        payload = load_artifact(out)
        # under t0 'go' pays 2 then terminal 1; under t1 'go' pays 4 then
        # mixes terminal 0/3; staying pays terminal 1 or 3: solver picks the
        # cheaper mixture
        assert payload["mode"] == "bayes"
        assert payload["value"] <= 2.0 + 1e-12
        assert payload["policy"]

    def test_bayes_artifact_reports_nodes_per_epoch(self, tmp_path):
        config = parse_config("mode = bayes\nmodel.name = seqtest\nmodel.horizon = 4\nprior = 0.5\n")
        out = tmp_path / "bayes.json"
        run(config, out_path=str(out))
        payload = load_artifact(out)
        assert payload["nodes_per_epoch"] == [1, 3, 7, 11, 15, 9]
        assert sum(payload["nodes_per_epoch"]) == payload["nodes"] == 46

    def test_avar_mode_artifact(self, tmp_path):
        text = ENTROPIC_CONFIG.replace("mode = entropic", "mode = avar").replace(
            "solver.gamma = 0.1", "solver.gamma = 0.2"
        )
        config = parse_config(text)
        out = tmp_path / "avar.json"
        run(config, out_path=str(out))
        payload = load_artifact(out)
        assert payload["worst_prior"][0] == pytest.approx(0.125, abs=1e-6)
        assert payload["worst_prior_lo"][0] == pytest.approx(0.125, abs=1e-6)

    def test_identical_config_gives_identical_artifact_bytes(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run(parse_config(ENTROPIC_CONFIG), out_path=str(out_a))
        run(parse_config(ENTROPIC_CONFIG), out_path=str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_serialization_matches_in_memory_result(self):
        config = parse_config(ENTROPIC_CONFIG)
        result = solve(config.model, "entropic", config.prior, config.gamma)
        cert = certify_saddle(config.model, result)
        payload = saddle_to_dict(result, cert)
        rows = policy_rows(result.policy)
        assert rows and all(row["belief"] in result.policy.tree.belief.tolist() for row in rows)
        assert json.loads(cli._json_text(payload)) == {**payload, "policy": rows}

    def test_shipped_bayes_matches_golden_artifact(self, tmp_path, capsys):
        out = tmp_path / "bayes.json"
        config = CONFIG_DIR / "bayes.cfg"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "bayes.json").read_bytes()

    # inline_example is the one shipped inline model, with rational literals;
    # a rational prior, read by the fractions module that the CLI imports on
    # use, gives the double of 0.1 and so the same artifact
    @pytest.mark.parametrize("mode, lines", [
        ("entropic", {}), ("avar", {}), ("robust", {}), ("inline_example", {}),
        ("entropic", {"prior": "prior = 1/10"}),
    ], ids=("entropic", "avar", "robust", "inline_example", "entropic-rational-prior"))
    def test_shipped_saddle_config_matches_golden_artifact(self, tmp_path, capsys, mode, lines):
        # every value, trace entry and certificate field, byte for byte
        out = tmp_path / f"{mode}.json"
        config = tmp_path / f"{mode}.cfg"
        config.write_text(edited(mode, lines))
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{mode}.json").read_bytes()

    def test_config_with_a_byte_order_mark_matches_golden_artifact(self, tmp_path, capsys):
        # a UTF-8 byte-order mark, as some editors write it, is not part of line 1
        config = tmp_path / "bom.cfg"
        shipped = CONFIG_DIR / "entropic.cfg"
        config.write_bytes(b"\xef\xbb\xbf" + shipped.read_bytes())
        out = tmp_path / "entropic.json"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "entropic.json").read_bytes()
        assert capsys.readouterr().err == ""


def _reference_text(payload: dict) -> str:
    """The artifact text of ``payload`` as ``json.dumps`` writes it, with the
    policy table as a list of row dicts."""
    return json.dumps({**payload, "policy": policy_rows(payload["policy"])}, sort_keys=True) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Equal texts, or a failure quoting where they first differ (pytest's
    own diff of long texts takes minutes)."""
    if got != want:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
        )
        pytest.fail(f"texts differ at {at}: {got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")


def _bayes_payload(model, prior: Belief) -> dict:
    return bayes_to_dict(solve_bayes(model, prior))


class TestPolicyTable:
    """The policy table written from arrays against ``json.dumps`` of the
    reference row dicts, byte for byte."""

    @pytest.mark.parametrize(
        "path", [p for p in SHIPPED_CONFIGS if parse_config(p.read_text()).mode in SOLVE_MODES],
        ids=lambda path: path.name,
    )
    def test_shipped_solve_artifact(self, path, tmp_path):
        config = parse_config(path.read_text())
        out = tmp_path / "out.json"
        run(config, out_path=str(out))
        if config.mode == "bayes":
            payload = _bayes_payload(config.model, config.prior)
        else:
            result = solve(config.model, config.mode, config.prior, config.gamma)
            payload = saddle_to_dict(result, certify_saddle(config.model, result))
        assert_same_text(out.read_bytes().decode(), _reference_text(payload))

    @pytest.mark.parametrize("horizon", [1, 4, 16])
    def test_seqtest_bayes_table(self, horizon):
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=horizon))
        payload = _bayes_payload(model, seqtest.prior_belief(0.3))
        assert_same_text(cli._json_text(payload), _reference_text(payload))

    @pytest.mark.parametrize("text", [
        "mode = bayes\nmodel.name = seqtest\nmodel.horizon = 4\nprior = 0\n",
        "mode = bayes\n" + ZERO_WEIGHT_BRANCH_CONFIG,
        # -1e-400 reads as -0.0; at epoch 1 the node reached only under t0
        # keeps its likelihood (1, 0), so the table holds both signed zeros
        "mode = bayes\n" + ZERO_WEIGHT_BRANCH_CONFIG.replace(
            "prior = 0", "prior = -1e-400").replace("horizon = 1", "horizon = 2"),
    ], ids=["seqtest", "branch-under-t0-only", "negative-zero-weight"])
    def test_zero_weight_prior_keeps_likelihood_rows(self, text):
        config = parse_config(text)
        payload = _bayes_payload(config.model, config.prior)
        assert_same_text(cli._json_text(payload), _reference_text(payload))

    def test_labels_that_json_escapes(self, rng):
        model = random_model(
            rng, n_states=3, n_actions=2, horizon=2, n_params=3, full_feasible=True
        )._replace(
            states=("sé2", 's"0', "s\\1"), actions=('b"é', "a\\"),
        )
        payload = _bayes_payload(model, random_belief(rng, 3))
        text = cli._json_text(payload)
        assert_same_text(text, _reference_text(payload))
        assert '"s\\"0"' in text and '"s\\\\1"' in text and '"s\\u00e92"' in text

    def test_rows_tied_on_epoch_state_and_belief_keep_node_order(self):
        # at a point-mass prior every node where t0 is possible has belief
        # (1, 0); the actions alternate by node, so only node order decides
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=6))
        tree = solve_bayes(model, seqtest.prior_belief(1.0)).tree
        actions = np.full(len(tree), -1)
        for index, n, state in decision_nodes(tree):
            feasible = model.feasible[n][state]
            actions[index] = feasible[index % len(feasible)]
        policy = DeterministicPolicy(tree=tree, actions=actions)
        rows = policy_rows(policy)
        keys = [(r["epoch"], r["state"], tuple(r["belief"])) for r in rows]
        assert len(set(keys)) < len(keys)
        assert len({(k, r["action"]) for k, r in zip(keys, rows)}) > len(set(keys))
        assert_same_text(cli._policy_json(policy), json.dumps(rows, sort_keys=True))

    def test_horizon_zero_has_an_empty_table(self):
        model = StatisticalMDP(
            horizon=0, states=("s0", "s1"), actions=("a0",), params=ParameterSet(("t0",)),
            feasible=(), initial_kernel=np.array([[0.25, 0.75]]),
            transition=np.zeros((0, 1, 2, 1, 2)), stage_cost=np.zeros((0, 1, 2, 1)),
            terminal_cost=np.array([[1.0, 3.0]]),
        )
        payload = _bayes_payload(model, Belief.uniform(1))
        assert '"policy": []' in cli._json_text(payload)
        assert_same_text(cli._json_text(payload), _reference_text(payload))


class TestRunFigure:
    def test_entropic_csv_schema_and_determinism(self, tmp_path):
        config = parse_config(FIGURE_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(config, out_path=str(out_a))
        run(parse_config(FIGURE_CONFIG), out_path=str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = list(csv.reader(out_a.read_text().splitlines()))
        assert rows[0] == ["gamma", "prior", "worst_prior", "value"]
        assert len(rows) == 1 + 5 * 2
        # gamma = 0 rows report the base prior and its plain Bayes value
        first = rows[1]
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(float(first[1]))

    def test_avar_csv_interval_columns(self, tmp_path):
        text = FIGURE_CONFIG.replace("figure-entropic", "figure-avar").replace(
            "sweep.gamma = 0:1:0.25", "sweep.gamma = 0.2 0.9"
        )
        out = tmp_path / "avar.csv"
        run(parse_config(text), out_path=str(out))
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["gamma", "prior", "worst_prior_lo", "worst_prior_hi", "value"]
        by_key = {(float(r[0]), float(r[1])): r for r in rows[1:]}
        point = by_key[(0.2, 0.1)]
        assert float(point[2]) == pytest.approx(0.125, abs=1e-6)
        assert float(point[3]) == pytest.approx(0.125, abs=1e-6)
        plateau = by_key[(0.9, 0.1)]
        assert float(plateau[2]) == pytest.approx(13.0 / 30.0, abs=1e-6)
        assert float(plateau[3]) == pytest.approx(17.0 / 30.0, abs=1e-6)

    def test_monotone_shift_toward_half(self, tmp_path):
        out = tmp_path / "fig.csv"
        run(parse_config(FIGURE_CONFIG), out_path=str(out))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for prior in ("0.1", "0.3"):
            series = [float(r["worst_prior"]) for r in rows if r["prior"] == prior]
            assert all(b >= a - 1e-6 for a, b in zip(series, series[1:]))
            assert all(v <= 0.5 + 1e-6 for v in series)

    def test_gap_summary_on_stderr(self, tmp_path, capsys):
        # every gamma > 0 row puts the worst prior on the 13/30 kink of the
        # seqtest H=1 value, where no deterministic policy is a saddle; the
        # largest gap is that of the least-risk policy among those tied at
        # the kink, and the threshold is 1e-10 of the cost scale 20
        out = tmp_path / "fig.csv"
        run(parse_config(FIGURE_CONFIG), out_path=str(out))
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        head = "duality gap > 2e-09 in 8 of 8 outer solves (largest "
        assert err[0].startswith(head) and err[0].endswith(")")
        assert float(err[0][len(head) : -1]) == pytest.approx(0.746518801413, abs=1e-9)

    def test_missing_output_path_is_config_error(self):
        with pytest.raises(ConfigError, match="output.path"):
            run(parse_config(FIGURE_CONFIG))

    @pytest.mark.parametrize("mode", FIGURE_MODES)
    def test_point_mass_rows(self, mode):
        # at priors 0 and 1 each solve has one support parameter: the worst
        # prior is the prior, and the value the Bayes value there
        text = FIGURE_CONFIG.replace("figure-entropic", mode)
        text = text.replace("sweep.gamma = 0:1:0.25", "sweep.gamma = 0 0.25 0.5 0.9")
        config = parse_config(text.replace("sweep.prior = 0.1 0.3", "sweep.prior = 0 1"))
        rows, gaps = cli._figure_rows(config)
        assert len(rows) == 8 and gaps == [0.0] * 6
        for _, prior, *worst, value in rows:
            assert worst == [prior] * len(cli.FIGURE_COLUMNS[mode])
            assert value == solve_bayes(config.model, Belief(np.array([prior, 1.0 - prior]))).value

    def test_run_builds_the_dag_once(self, tmp_path, monkeypatch):
        builds, build_tree = [], bayes.build_tree

        def counted(*args, **kwargs):
            builds.append(args)
            return build_tree(*args, **kwargs)

        monkeypatch.setattr(bayes, "build_tree", counted)
        monkeypatch.setattr(cli, "build_tree", counted)
        out = tmp_path / "fig.csv"
        run(parse_config(FIGURE_CONFIG), out_path=str(out))
        assert len(out.read_text().splitlines()) == 1 + 5 * 2
        assert len(builds) == 1

    # a rational sweep step gives the doubles of 0.05 and so the same CSV
    @pytest.mark.parametrize("name, lines", [
        ("figure_entropic", {}), ("figure_avar", {}),
        ("figure_entropic", {"sweep.gamma": "sweep.gamma = 0:2:1/20"}),
    ], ids=("figure_entropic", "figure_avar", "figure_entropic-rational-sweep"))
    def test_shipped_figure_matches_golden_csv(self, name, lines, tmp_path, capsys):
        out = tmp_path / f"{name}.csv"
        config = tmp_path / f"{name}.cfg"
        config.write_text(edited(name, lines))
        assert main(["figure", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()

    def test_shipped_entropic_figure_gap_count(self, tmp_path, capsys):
        # the rows whose worst prior sits on a kink of the value have no
        # deterministic saddle; a master that certifies fewer rows moves it
        out = tmp_path / "figure_entropic.csv"
        config = CONFIG_DIR / "figure_entropic.cfg"
        assert main(["figure", "--config", str(config), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("duality gap > 2e-09 in 114 of 120 outer solves (largest ")


class TestRunSimulate:
    CONFIG = SIMULATE_CONFIG

    def test_simulate_report_and_dump(self, tmp_path, capsys):
        config = parse_config(self.CONFIG)
        out = tmp_path / "sim.json"
        dump = tmp_path / "trajectories.csv"
        run(config, out_path=str(out), dump_path=str(dump))
        payload = load_artifact(out)
        assert abs(payload["mc_mean"] - payload["exact_cost"]) <= max(
            payload["mc_half_width_95"], 0.2
        )
        rows = list(csv.reader(dump.read_text().splitlines()))
        assert rows[0] == ["trajectory", "probability", "total_cost"]
        assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-10)
        assert payload["nodes_per_epoch"] == [1, 3, 3]
        # one CSV row per trajectory that the report counts
        report = capsys.readouterr().out
        assert f"wrote {dump} ({len(rows) - 1} trajectories)" in report
        assert f"({payload['trajectories']} trajectories)" in report
        assert payload["trajectories"] == len(rows) - 1

    def test_shipped_simulate_matches_golden_stdout(self, capsys):
        config = CONFIG_DIR / "simulate.cfg"
        assert main(["simulate", "--config", str(config)]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "simulate.txt").read_text()

    def test_shipped_simulate_dump_has_a_row_per_counted_trajectory(self, tmp_path, capsys):
        dump = tmp_path / "t.csv"
        config = CONFIG_DIR / "simulate.cfg"
        assert main(["simulate", "--config", str(config), "--dump-trajectories", str(dump)]) == 0
        rows = len(dump.read_text().splitlines()) - 1
        lines = capsys.readouterr().out.splitlines()
        assert rows > 0 and f"wrote {dump} ({rows} trajectories)" in lines
        exact = re.compile(rf"exact cost under theta2 = .* \({rows} trajectories\)")
        assert any(map(exact.fullmatch, lines))
        assert dump.read_bytes() == (GOLDEN_DIR / "simulate_dump.csv").read_bytes()

    def test_unknown_theta_rejected(self):
        bad = self.CONFIG.replace("theta2", "theta9")
        with pytest.raises(ConfigError, match="simulate.theta"):
            parse_config(bad)

    def test_negative_seed_rejected_with_line(self):
        bad = self.CONFIG.replace("simulate.seed = 7", "simulate.seed = -1")
        with pytest.raises(ConfigError, match=r"line \d+: simulate\.seed: must be >= 0"):
            parse_config(bad)


#: runs ``main`` on each argv of a JSON list in this process and prints, per
#: call, its exit status, stdout, stderr and the ``out-*`` files it wrote
MAIN_SESSION = """
import contextlib, io, json, sys
from pathlib import Path
from ambmdp.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    artifacts = {}
    for path in sorted(Path().glob("out-*")):
        artifacts[path.name] = path.read_text()
        path.unlink()
    results.append([code, out.getvalue(), err.getvalue(), artifacts])
print(json.dumps(results))
"""


class TestMain:
    def write(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_solve_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, ENTROPIC_CONFIG)
        out = tmp_path / "out.json"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert out.exists()
        assert "entropic value" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode", ("bayes", "entropic\nsolver.gamma = 1", "avar\nsolver.gamma = 0.5"),
        ids=("bayes", "entropic", "avar"),
    )
    def test_subnormal_prior_writes_finite_beliefs(self, tmp_path, mode):
        # x1's belief was once 0/0: NaN in the artifact, or a RuntimeWarning
        prior = Belief(np.array([5e-324, 5e-324, 1.0]))
        text = render_inline(subnormal_prior_model(), prior)
        path = self.write(tmp_path, text.replace("mode = bayes", f"mode = {mode}"))
        out = tmp_path / "out.json"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        rows = load_artifact(out)["policy"]
        assert all(np.isfinite(row["belief"]).all() for row in rows)
        assert [row["belief"] for row in rows if row["state"] == "x1"] == [[0.5, 0.5, 0.0]]

    def test_config_error_exits_one(self, tmp_path, capsys):
        path = self.write(tmp_path, ENTROPIC_CONFIG + "bogus = 1\n")
        assert main(["solve", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_overflowing_gamma_exits_one(self, tmp_path, capsys):
        # 1e400 is a valid rational that no float holds
        path = self.write(tmp_path, ENTROPIC_CONFIG.replace("gamma = 0.1", "gamma = 1e400"))
        assert main(["solve", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "config error: line 7: solver.gamma: out of float range: '1e400'" in err

    def test_undecodable_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"mode = bayes\nprior = 0.5\n\xff\n")
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec")

    def test_config_is_read_as_utf8_in_any_locale(self, tmp_path):
        # in the C locale, without UTF-8 mode, the locale's encoding is ASCII
        path = tmp_path / "run.cfg"
        text = TestRunSimulate.CONFIG.replace("prior = 0.5", "prior = 0.5  # \u03b8\u2082")
        path.write_text(text, encoding="utf-8")
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(ambmdp.__file__).resolve().parents[1]),
            "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
        }
        done = subprocess.run(
            [sys.executable, "-m", "ambmdp.cli", "simulate", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ("solver.node_cap", "solver.trajectory_cap"))
    def test_non_positive_cap_exits_one(self, tmp_path, capsys, key):
        path = self.write(tmp_path, ENTROPIC_CONFIG + f"{key} = -5\n")
        assert main(["solve", "--config", path]) == 1
        assert f"config error: line 8: {key}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("solve", ENTROPIC_CONFIG),
            ("figure", FIGURE_CONFIG),
            ("simulate", TestRunSimulate.CONFIG),
        ],
        ids=("solve", "figure", "simulate"),
    )
    def test_tree_guard_exits_two(self, tmp_path, capsys, command, text):
        # the DAG is built, under the cap, before anything is solved or written
        path = self.write(tmp_path, text + "solver.node_cap = 2\n")
        out = tmp_path / "out"
        argv = ["--dump-trajectories" if command == "simulate" else "--out", str(out)]
        assert main([command, "--config", path, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "solver guard: reachable belief tree exceeds node cap 2\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, option",
        [
            ("solve", ENTROPIC_CONFIG, "--out"),
            ("figure", FIGURE_CONFIG, "--out"),
            ("figure", (CONFIG_DIR / "figure_avar.cfg").read_text(), "--out"),
            ("simulate", TestRunSimulate.CONFIG, "--dump-trajectories"),
            ("solve", ENTROPIC_CONFIG, "output.path"),
            ("simulate", TestRunSimulate.CONFIG, "output.path"),
        ],
        ids=(
            "solve", "figure", "shipped-figure", "simulate", "solve-output-path",
            "simulate-output-path",
        ),
    )
    def test_unwritable_output_exits_one(
        self, tmp_path, capsys, monkeypatch, command, text, option
    ):
        # refused before the belief DAG is built or anything is solved
        def refuse(*args, **kwargs):
            raise AssertionError("solver entry point called")

        for name in ("build_tree", "solve", "solve_bayes"):
            monkeypatch.setattr(cli, name, refuse)
        out = str(tmp_path / "missing" / "out")
        if option == "output.path":
            text, options = text + f"output.path = {out}\n", []
        else:
            options = [option, out]
        path = self.write(tmp_path, text)
        assert main([command, "--config", path, *options]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"cannot write {out}: No such file or directory\n"
        assert captured.out == ""

    def test_failed_artifact_write_exits_one(self, tmp_path, capsys, monkeypatch):
        # the path passes the check before the solve, and the disk fills after
        # it; the message spells the path as the command line does
        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = self.write(tmp_path, ENTROPIC_CONFIG)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Path, "write_text", full)
        assert main(["solve", "--config", path, "--out", "./out.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "cannot write ./out.json: No space left on device\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flags", ([], ["-u"]), ids=("block-buffered", "unbuffered"))
    def test_full_stdout_exits_one(self, tmp_path, flags):
        # block-buffered, the write fails at the flush; the interpreter's own
        # flush at exit must not fail again
        path = self.write(tmp_path, ENTROPIC_CONFIG)
        env = {**os.environ, "PYTHONPATH": str(Path(ambmdp.__file__).resolve().parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "ambmdp.cli", "solve", "--config", path],
                stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        assert (done.returncode, done.stderr) == (
            1, "cannot write standard output: No space left on device\n"
        )

    def test_broken_pipe_on_stdout_exits_one(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        path = self.write(tmp_path, ENTROPIC_CONFIG)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == "cannot write standard output: Broken pipe\n"

    def test_output_check_creates_and_truncates_nothing(self, tmp_path, capsys):
        # the tree guard refuses the run after the output path is checked
        path = self.write(tmp_path, ENTROPIC_CONFIG + "solver.node_cap = 2\n")
        out = tmp_path / "out.json"
        out.write_text("kept")
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert out.read_text() == "kept"
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.endswith(f"cannot write {tmp_path}: Is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "run.cfg"]

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path):
        # the parser is built once per process; no call may leave state for
        # the next, the refused ones included
        for name, text in (
            ("entropic.cfg", ENTROPIC_CONFIG),
            ("simulate.cfg", TestRunSimulate.CONFIG),
            ("figure.cfg", FIGURE_CONFIG),
            ("bad.cfg", ENTROPIC_CONFIG + "bogus = 1\n"),
        ):
            (tmp_path / name).write_text(text)
        calls = [
            ["solve", "--config", "entropic.cfg", "--out", "out-solve.json"],
            ["simulate", "--config", "simulate.cfg", "--dump-trajectories", "out-trajectories.csv"],
            ["figure", "--config", "figure.cfg", "--out", "out-figure.csv"],
            ["solve", "--config", "bad.cfg"],
            # config keys, not flags, set the seed and the sample count
            ["simulate", "--config", "simulate.cfg", "--seed", "1"],
            ["solve", "--config", "entropic.cfg", "--out", "out-solve.json"],
            # options left out take their defaults again
            ["simulate", "--config", "simulate.cfg"],
            ["solve", "--config", "entropic.cfg"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(ambmdp.__file__).resolve().parents[1])}

        def session(argvs):
            done = subprocess.run(
                [sys.executable, "-c", MAIN_SESSION, json.dumps(argvs)],
                cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            return json.loads(done.stdout)

        together = session(calls)
        assert [code for code, *_ in together] == [0, 0, 0, 1, 2, 0, 0, 0]
        alone = {tuple(argv): session([argv])[0] for argv in calls}
        assert together == [alone[tuple(argv)] for argv in calls]

    @pytest.mark.parametrize("name", list(SOLVE_OUTCOMES))
    def test_solve_outcome(self, tmp_path, capsys, name):
        text, status, line = SOLVE_OUTCOMES[name]
        out = tmp_path / "out.json"
        assert main(["solve", "--config", self.write(tmp_path, text), "--out", str(out)]) == status
        captured = capsys.readouterr()
        if status:
            assert (captured.out, captured.err) == ("", line + "\n")
            assert not out.exists()
        else:
            assert line in captured.out.splitlines() and captured.err == ""

    def test_command_mode_mismatch(self, tmp_path, capsys):
        path = self.write(tmp_path, ENTROPIC_CONFIG)
        assert main(["figure", "--config", path]) == 1
        assert "requires mode" in capsys.readouterr().err

    def test_simulate_seed_override_changes_stream(self, tmp_path, capsys):
        # simulate.seed overrides the default seed 0; no flag sets it
        outputs = []
        for seed in (1, 1, 2):
            text = TestRunSimulate.CONFIG.replace("simulate.seed = 7", f"simulate.seed = {seed}")
            assert main(["simulate", "--config", self.write(tmp_path, text)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", self.write(tmp_path, text), "--seed", "1"])
        assert exc.value.code == 2

    def test_simulate_samples_override(self, tmp_path, capsys):
        # simulate.samples overrides the default 10,000; no flag sets it
        text = TestRunSimulate.CONFIG.replace("simulate.samples = 2000", "simulate.samples = 500")
        assert main(["simulate", "--config", self.write(tmp_path, text)]) == 0
        assert "\nmonte carlo (500 samples, seed 7): " in capsys.readouterr().out
        text = text.replace("simulate.samples = 500", "simulate.samples = 0")
        assert main(["simulate", "--config", self.write(tmp_path, text)]) == 1
        assert capsys.readouterr().err == "config error: line 7: simulate.samples: must be >= 1\n"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", self.write(tmp_path, text), "--samples", "500"])
        assert exc.value.code == 2

    def test_samples_at_the_sampler_bound_refused_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # the run once solved and enumerated, then ended in the sampler's traceback
        def refuse(*args, **kwargs):
            raise AssertionError("solver entry point called")

        for name in ("build_tree", "solve_bayes", "enumerate_cost", "mc_estimate"):
            monkeypatch.setattr(cli, name, refuse)
        text = TestRunSimulate.CONFIG.replace("samples = 2000", f"samples = {2**63}")
        assert main(["simulate", "--config", self.write(tmp_path, text)]) == 1
        assert capsys.readouterr() == ("", "config error: line 7: simulate.samples: samples must "
                                           f"be a positive integer below {2**63}, got {2**63}\n")
        assert parse_config(text.replace(str(2**63), str(2**63 - 1))).samples == 2**63 - 1

    def test_closed_stdout_descriptor_exits_one(self, tmp_path):
        # the flush fails on the closed descriptor; the descriptor then takes
        # the null device, so the interpreter's own flush at exit succeeds
        argv = ["solve", "--config", self.write(tmp_path, ENTROPIC_CONFIG),
                "--out", str(tmp_path / "out.json")]
        script = ("import os, sys\nfrom ambmdp.cli import main\nos.close(1)\n"
                  f"sys.exit(main({argv!r}))")
        env = {**os.environ, "PYTHONPATH": str(Path(ambmdp.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (
            1, "cannot write standard output: Bad file descriptor\n"
        )

    @pytest.mark.parametrize(
        "command, head",
        [
            ("solve", "mode = entropic\nsolver.gamma = 0.5\n"),
            ("solve", "mode = avar\nsolver.gamma = 0.5\n"),
            ("solve", "mode = robust\n"),
            ("simulate", "mode = simulate\nsimulate.theta = t0\n"),
        ],
        ids=("entropic", "avar", "robust", "simulate"),
    )
    def test_zero_weight_branch_exits_zero(self, tmp_path, capsys, command, head):
        # prior 0 gives t0 zero weight; its move to s1 stays in the tree
        path = self.write(tmp_path, head + ZERO_WEIGHT_BRANCH_CONFIG)
        assert main([command, "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "simulate":
            assert "exact cost under t0 = 6 (1 trajectories)" in captured.out


#: what a number of a shipped config becomes: each zero, the least and
#: nearly the largest double, NaN, infinity, the sampler's bound, a word, True
MAIN_TOKENS = ("0", "-0", "5e-324", "1e308", "nan", "inf", str(2**63), "word", "True")
#: a number token in a config value: a decimal or a rational, not a label's digit
NUMBER_TOKEN = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?:/\d+)?(?![\w.])")


def mutated_shipped_configs():
    """Each shipped config with each single defect: a key line dropped or
    appended again, or one number replaced by one of MAIN_TOKENS."""
    for path in SHIPPED_CONFIGS:
        lines = path.read_text().splitlines()
        for at, line in enumerate(lines):
            key, sep, value = line.partition("=")
            if not sep:
                continue
            edits = {"drop": lines[:at] + lines[at + 1 :], "repeat": [*lines, line]}
            for number in NUMBER_TOKEN.finditer(value):
                column = len(key + sep) + number.start() + 1
                for token in MAIN_TOKENS:
                    edit = key + sep + value[: number.start()] + token + value[number.end() :]
                    edits[f"{column}:{token}"] = [*lines[:at], edit, *lines[at + 1 :]]
            for name, mutated in edits.items():
                yield pytest.param(path.name, "\n".join(mutated) + "\n",
                                   id=f"{path.name}:{at + 1}:{name}")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One directory for every mutated run, which rewrites the files it
    reads and writes; a directory per run costs 1-2 ms more each."""
    return tmp_path_factory.mktemp("mutated")


@pytest.mark.parametrize("name, text", mutated_shipped_configs())
def test_mutated_shipped_config_exits_with_one_line(name, text, run_dir, monkeypatch, capsys):
    """The command a shipped config runs, on a mutation of it: a status of
    0 to 3, at most one line on stderr and no traceback; a RuntimeWarning
    fails the test as an error.  A run that exits 0 and writes a JSON
    artifact writes strict JSON.  The sample bound and a subnormal entropic
    prior (simulate.cfg:7:20:9223372036854775808 and entropic.cfg:5:9:5e-324)
    once ended in a traceback."""
    mode = parse_config((CONFIG_DIR / name).read_text()).mode
    command = next(c for c, modes in cli.COMMAND_MODES.items() if mode in modes)
    monkeypatch.chdir(run_dir)  # the configs write their artifacts by relative path
    Path(name).write_text(text)
    for stale in Path().glob("*.json"):
        stale.unlink()
    status = main([command, "--config", name])
    err = capsys.readouterr().err
    assert status in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if status == 0:
        for artifact in Path().glob("*.json"):
            load_artifact(artifact)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_shipped_config_runs(path, tmp_path, monkeypatch):
    # relative output paths land in tmp_path
    monkeypatch.chdir(tmp_path)
    text = path.read_text()
    if "output.path" not in text:
        text += "output.path = out.json\n"
    config_path = tmp_path / path.name
    config_path.write_text(text)
    config = parse_config(text)
    if config.mode in SOLVE_MODES:
        command = "solve"
    elif config.mode in FIGURE_MODES:
        command = "figure"
    else:
        command = "simulate"
    assert main([command, "--config", str(config_path)]) == 0
    out = tmp_path / config.out_path
    assert out.exists()
    if command == "solve" and config.mode != "bayes":
        certificate = load_artifact(out)["certificate"]
        assert certificate["mu_side_ok"] and certificate["pi_side_ok"]
    if command == "simulate":
        payload = load_artifact(out)
        assert abs(payload["mc_mean"] - payload["exact_cost"]) <= 4 * payload["mc_half_width_95"]
