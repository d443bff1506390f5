import csv
import io
import json
from pathlib import Path

import pytest

from ambmdp.cli import FIGURE_MODES, SOLVE_MODES, main, parse_config, run, saddle_to_dict
from ambmdp.errors import ConfigError

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
#: ``ambmdp figure`` output of the shipped figure configs, kept byte for byte
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

    def test_missing_required_key(self):
        bad = ENTROPIC_CONFIG.replace("solver.gamma = 0.1", "")
        with pytest.raises(ConfigError, match="missing required key solver.gamma"):
            parse_config(bad)

    def test_inline_model_parses_and_solves(self):
        config = parse_config(INLINE_CONFIG)
        assert config.model.states == ("s0", "s1")
        assert config.model.horizon == 1

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


class TestRunSolve:
    def test_entropic_artifact_round_trips(self, tmp_path):
        config = parse_config(ENTROPIC_CONFIG)
        out = tmp_path / "result.json"
        buffer = io.StringIO()
        run(config, out_path=str(out), stdout=buffer)
        payload = json.loads(out.read_text())
        assert payload["mode"] == "entropic"
        assert payload["worst_prior"][0] == pytest.approx(0.232, abs=1e-3)
        assert payload["gap"] <= 1e-6
        assert payload["certificate"]["mu_side_ok"] is True
        # byte-for-byte identical on reserialization of the same payload
        assert json.dumps(payload, sort_keys=True) + "\n" == out.read_text()
        assert "wrote" in buffer.getvalue()

    def test_bayes_mode_reports_value(self, tmp_path):
        config = parse_config(INLINE_CONFIG)
        out = tmp_path / "bayes.json"
        buffer = io.StringIO()
        run(config, out_path=str(out), stdout=buffer)
        payload = json.loads(out.read_text())
        # under t0 'go' pays 2 then terminal 1; under t1 'go' pays 4 then
        # mixes terminal 0/3; staying pays terminal 1 or 3: solver picks the
        # cheaper mixture
        assert payload["mode"] == "bayes"
        assert payload["value"] <= 2.0 + 1e-12
        assert payload["policy"]

    def test_bayes_artifact_reports_nodes_per_epoch(self, tmp_path):
        config = parse_config("mode = bayes\nmodel.name = seqtest\nmodel.horizon = 4\nprior = 0.5\n")
        out = tmp_path / "bayes.json"
        run(config, out_path=str(out), stdout=io.StringIO())
        payload = json.loads(out.read_text())
        assert payload["nodes_per_epoch"] == [1, 3, 7, 11, 15, 9]
        assert sum(payload["nodes_per_epoch"]) == payload["nodes"] == 46

    def test_avar_mode_artifact(self, tmp_path):
        text = ENTROPIC_CONFIG.replace("mode = entropic", "mode = avar").replace(
            "solver.gamma = 0.1", "solver.gamma = 0.2"
        )
        config = parse_config(text)
        out = tmp_path / "avar.json"
        run(config, out_path=str(out), stdout=io.StringIO())
        payload = json.loads(out.read_text())
        assert payload["worst_prior"][0] == pytest.approx(0.125, abs=1e-6)
        assert payload["worst_prior_lo"][0] == pytest.approx(0.125, abs=1e-6)

    def test_identical_config_gives_identical_artifact_bytes(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run(parse_config(ENTROPIC_CONFIG), out_path=str(out_a), stdout=io.StringIO())
        run(parse_config(ENTROPIC_CONFIG), out_path=str(out_b), stdout=io.StringIO())
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_serialization_matches_in_memory_result(self, tmp_path):
        from ambmdp import solve_entropic
        from ambmdp.ambiguity import certify_saddle

        config = parse_config(ENTROPIC_CONFIG)
        result = solve_entropic(config.model, config.prior, config.gamma)
        cert = certify_saddle(config.model, result)
        payload = saddle_to_dict(result, cert)
        text = json.dumps(payload, indent=2, sort_keys=True)
        assert json.loads(text) == payload


class TestRunFigure:
    def test_entropic_csv_schema_and_determinism(self, tmp_path):
        config = parse_config(FIGURE_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(config, out_path=str(out_a), stdout=io.StringIO())
        run(parse_config(FIGURE_CONFIG), out_path=str(out_b), stdout=io.StringIO())
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
        run(parse_config(text), out_path=str(out), stdout=io.StringIO())
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
        run(parse_config(FIGURE_CONFIG), out_path=str(out), stdout=io.StringIO())
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for prior in ("0.1", "0.3"):
            series = [float(r["worst_prior"]) for r in rows if r["prior"] == prior]
            assert all(b >= a - 1e-6 for a, b in zip(series, series[1:]))
            assert all(v <= 0.5 + 1e-6 for v in series)

    def test_gap_summary_on_stderr(self, tmp_path, capsys):
        # every gamma > 0 row puts the worst prior on the 13/30 kink of the
        # seqtest H=1 value, where no deterministic policy is a saddle
        out = tmp_path / "fig.csv"
        run(parse_config(FIGURE_CONFIG), out_path=str(out), stdout=io.StringIO())
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        head = "duality gap > 1e-06 in 8 of 8 outer solves (largest "
        assert err[0].startswith(head) and err[0].endswith(")")
        assert float(err[0][len(head) : -1]) == pytest.approx(1.92576315295, abs=1e-9)

    def test_missing_output_path_is_config_error(self):
        with pytest.raises(ConfigError, match="output.path"):
            run(parse_config(FIGURE_CONFIG), stdout=io.StringIO())

    @pytest.mark.parametrize("name", ("figure_entropic", "figure_avar"))
    def test_shipped_figure_matches_golden_csv(self, name, tmp_path, capsys):
        out = tmp_path / f"{name}.csv"
        config = GOLDEN_DIR.parents[1] / "configs" / f"{name}.cfg"
        assert main(["figure", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


class TestRunSimulate:
    CONFIG = """
mode = simulate
model.name = seqtest
model.horizon = 1
prior = 0.5
simulate.theta = theta2
simulate.samples = 2000
simulate.seed = 7
"""

    def test_simulate_report_and_dump(self, tmp_path):
        config = parse_config(self.CONFIG)
        out = tmp_path / "sim.json"
        dump = tmp_path / "trajectories.csv"
        buffer = io.StringIO()
        run(config, out_path=str(out), dump_path=str(dump), stdout=buffer)
        payload = json.loads(out.read_text())
        assert abs(payload["mc_mean"] - payload["exact_cost"]) <= max(
            payload["mc_half_width_95"], 0.2
        )
        rows = list(csv.reader(dump.read_text().splitlines()))
        assert rows[0] == ["trajectory", "probability", "total_cost"]
        assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-10)
        assert payload["nodes_per_epoch"] == [1, 3, 3]

    def test_unknown_theta_rejected(self):
        bad = self.CONFIG.replace("theta2", "theta9")
        with pytest.raises(ConfigError, match="simulate.theta"):
            parse_config(bad)

    def test_negative_seed_rejected_with_line(self):
        bad = self.CONFIG.replace("simulate.seed = 7", "simulate.seed = -1")
        with pytest.raises(ConfigError, match=r"line \d+: simulate\.seed: must be >= 0"):
            parse_config(bad)


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

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ("solver.node_cap", "solver.trajectory_cap"))
    def test_non_positive_cap_exits_one(self, tmp_path, capsys, key):
        path = self.write(tmp_path, ENTROPIC_CONFIG + f"{key} = -5\n")
        assert main(["solve", "--config", path]) == 1
        assert f"config error: line 8: {key}: must be >= 1" in capsys.readouterr().err

    def test_tree_guard_exits_two(self, tmp_path, capsys):
        path = self.write(tmp_path, ENTROPIC_CONFIG + "solver.node_cap = 2\n")
        assert main(["solve", "--config", path]) == 2
        assert "solver guard" in capsys.readouterr().err

    def test_command_mode_mismatch(self, tmp_path, capsys):
        path = self.write(tmp_path, ENTROPIC_CONFIG)
        assert main(["figure", "--config", path]) == 1
        assert "requires mode" in capsys.readouterr().err

    def test_simulate_seed_override_changes_stream(self, tmp_path, capsys):
        path = self.write(tmp_path, TestRunSimulate.CONFIG)
        assert main(["simulate", "--config", path, "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", path, "--seed", "1"]) == 0
        assert capsys.readouterr().out == first
        assert main(["simulate", "--config", path, "--seed", "2"]) == 0
        assert capsys.readouterr().out != first

    def test_negative_seed_option_exits_one(self, tmp_path, capsys):
        path = self.write(tmp_path, TestRunSimulate.CONFIG)
        assert main(["simulate", "--config", path, "--seed", "-3"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

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
        certificate = json.loads(out.read_text())["certificate"]
        assert certificate["mu_side_ok"] and certificate["pi_side_ok"]
    if command == "simulate":
        payload = json.loads(out.read_text())
        assert abs(payload["mc_mean"] - payload["exact_cost"]) <= 4 * payload["mc_half_width_95"]
