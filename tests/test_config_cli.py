import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paoi_lab import (
    ConfigError,
    Erlang,
    FixedThreshold,
    HyperExponential,
    MedianThreshold,
    Pareto,
    RandomizedThreshold,
    RepetitiveSequence,
    UniformSampler,
    ZeroWait,
)
from paoi_lab.cli import main
from paoi_lab.config import parse_config, parse_distribution, parse_policy


class TestConfigParsing:
    def test_distribution_specs(self):
        assert parse_distribution(
            {"kind": "pareto", "params": {"xm": 1.0, "alpha": 3.0}}
        ) == Pareto(1.0, 3.0)
        assert parse_distribution(
            {"kind": "erlang", "params": {"shape": 3, "rate": 1.0}}
        ) == Erlang(3, 1.0)
        assert parse_distribution(
            {
                "kind": "hyper-exponential",
                "params": {"rates": [10.0, 1.0], "weights": [0.5, 0.5]},
            }
        ) == HyperExponential((10.0, 1.0), (0.5, 0.5))

    def test_unknown_distribution_keys_error(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_distribution({"kind": "pareto", "params": {"xm": 1.0, "alfa": 3.0}})
        with pytest.raises(ConfigError, match="kind"):
            parse_distribution({"kind": "zipf", "params": {}})
        with pytest.raises(ConfigError):
            parse_distribution({"kind": "pareto", "params": {"xm": 1.0}})

    def test_invalid_parameter_values_error(self):
        with pytest.raises(ConfigError):
            parse_distribution({"kind": "two-point", "params": {"t1": 3.0, "t2": 1.0, "p": 0.5}})

    def test_policy_shorthands_and_mappings(self):
        assert parse_policy("zero-wait") == ZeroWait()
        assert parse_policy("median") == MedianThreshold()
        assert parse_policy({"kind": "fixed", "theta": 2.0}) == FixedThreshold(2.0)
        assert parse_policy(
            {"kind": "repetitive", "thresholds": [1.0, 2.0]}
        ) == RepetitiveSequence((1.0, 2.0))
        assert parse_policy(
            {"kind": "randomized", "sampler": {"kind": "uniform", "low": 1.0, "high": 2.0}}
        ) == RandomizedThreshold(UniformSampler(1.0, 2.0))

    def test_policy_typos_error(self):
        with pytest.raises(ConfigError):
            parse_policy("zerowait")
        with pytest.raises(ConfigError):
            parse_policy({"kind": "fixed", "treshold": 2.0})

    def test_defaults_and_unknown_top_level(self):
        cfg = parse_config(
            {"distribution": {"kind": "exponential", "params": {"rate": 1.0}}}
        )
        assert cfg.policies == (ZeroWait(),)
        assert cfg.simulation.peaks == 10_000
        assert cfg.simulation.seed == 12345
        assert cfg.optimizer.grid_points == 2000
        assert cfg.prefix == "paoi"
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(
                {
                    "distribution": {"kind": "exponential", "params": {"rate": 1.0}},
                    "simulatoin": {},
                }
            )

    def test_missing_distribution(self):
        with pytest.raises(ConfigError):
            parse_config({"policies": ["zero-wait"]})


TP_YAML = """
distribution:
  kind: two-point
  params: {t1: 1.0, t2: 3.0, p: 0.5}
policies:
  - xmin
  - zero-wait
sweep: {theta_min: 1.0001, theta_max: 3.0, count: 40}
simulation: {peaks: 500, replications: 2, seed: 7}
output: {prefix: tp}
"""


@pytest.fixture
def tp_config(tmp_path):
    path = tmp_path / "tp.yaml"
    path.write_text(TP_YAML)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCli:
    def test_eval(self, tp_config, tmp_path, capsys):
        rc = main(["eval", "--config", str(tp_config), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "xmin-threshold" in out
        rows = read_csv(tmp_path / "tp_eval.csv")
        assert [r["policy"] for r in rows] == ["xmin-threshold", "zero-wait"]
        assert float(rows[0]["zeta"]) == 3.0
        assert float(rows[1]["zeta"]) == 4.0

    def test_sweep_schema_and_minimum_flag(self, tp_config, tmp_path):
        rc = main(["sweep", "--config", str(tp_config), "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "tp_sweep.csv")
        assert list(rows[0]) == ["theta", "zeta", "e_x_check", "e_y", "is_minimum"]
        assert len(rows) == 40
        flags = [r["is_minimum"] for r in rows]
        assert flags.count("1") == 1
        assert flags[0] == "1"  # increasing curve: minimum at the left edge

    def test_optimize_report(self, tp_config, tmp_path, capsys):
        rc = main(["optimize", "--config", str(tp_config), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner: xmin-threshold" in out
        row = read_csv(tmp_path / "tp_optimize.csv")[0]
        assert float(row["zeta_min"]) == 3.0
        assert row["beneficial"] == "1"

    def test_optimize_searches_once(self, tp_config, tmp_path, monkeypatch):
        # the benefit verdict is read off the search behind the report
        from paoi_lab import optimize

        searches = []
        search = optimize._search_optimal
        monkeypatch.setattr(
            optimize, "_search_optimal", lambda *args: searches.append(args) or search(*args)
        )
        assert main(["optimize", "--config", str(tp_config), "--out", str(tmp_path)]) == 0
        assert len(searches) == 1

    def test_optimize_cross_check_runs_on_exponential(self, tmp_path, capsys):
        # the default window starts at theta = 1e-9, where P(X > theta) = 1 - 1e-9
        cfg = tmp_path / "e.yaml"
        cfg.write_text("distribution: {kind: exponential, params: {rate: 1.0}}\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out
        (line,) = [x for x in out.splitlines() if x.startswith("policy-iteration cross-check")]
        delta = float(line.rsplit(":", 1)[1])
        row = read_csv(tmp_path / "paoi_optimize.csv")[0]
        assert float(row["bellman_delta"]) == delta
        assert 0.0 <= delta <= 1e-9 * float(row["zeta_opt"])

    @pytest.mark.parametrize(
        "verb, optimizer",
        [("optimize", "{tol: .nan}"), ("check", "{tol: .nan}"), ("optimize", "{bellman_tol: .nan}")],
    )
    def test_nan_tolerance_exit_2(self, tmp_path, capsys, verb, optimizer):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(
            "distribution: {kind: erlang, params: {shape: 3, rate: 1.0}}\n"
            f"optimizer: {optimizer}\n"
        )
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tol must be positive" in capsys.readouterr().err

    def test_check_margin_uses_optimizer_tol(self, tmp_path, capsys):
        # a coarse tol stops the golden refinement early, which moves the margin
        cfg = tmp_path / "tol.yaml"
        cfg.write_text(
            "distribution: {kind: erlang, params: {shape: 3, rate: 1.0}}\n"
            "optimizer: {tol: 0.5}\n"
        )
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        margin = read_csv(tmp_path / "paoi_optimize.csv")[0]["margin"]
        assert f" margin={margin} " in capsys.readouterr().out

    def test_check_reports_critical_atom(self, tp_config, tmp_path, capsys):
        rc = main(["check", "--config", str(tp_config), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical t2: 2" in out
        assert "beneficial=True" in out

    def test_simulate_schema_and_determinism(self, tp_config, tmp_path):
        rc = main(["simulate", "--config", str(tp_config), "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "tp_simulate_zero-wait.csv"
        rows = read_csv(path)
        assert list(rows[0]) == [
            "replication", "seed", "peaks", "mean", "stderr", "ci_low", "ci_high",
        ]
        assert rows[-1]["replication"] == "pooled"
        assert rows[0]["seed"] == "7" and rows[1]["seed"] == "8"
        first = path.read_bytes()
        assert main(["simulate", "--config", str(tp_config), "--out", str(tmp_path)]) == 0
        assert path.read_bytes() == first

    def test_seed_flag_overrides_config(self, tp_config, tmp_path):
        main(["simulate", "--config", str(tp_config), "--out", str(tmp_path), "--seed", "99"])
        rows = read_csv(tmp_path / "tp_simulate_zero-wait.csv")
        assert rows[0]["seed"] == "99"

    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("distribution: {kind: nope, params: {}}\n")
        assert main(["eval", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["eval", "--config", str(tmp_path / "missing.yaml")]) == 2

    def test_invalid_sweep_window_exit_2(self, tmp_path):
        cfg = tmp_path / "w.yaml"
        cfg.write_text(
            "distribution: {kind: exponential, params: {rate: 1.0}}\n"
            "sweep: {theta_min: 5.0, theta_max: 1.0}\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_simulation_stall_exit_3(self, tmp_path):
        cfg = tmp_path / "stall.yaml"
        cfg.write_text(
            "distribution: {kind: exponential, params: {rate: 1.0}}\n"
            "policies: [{kind: fixed, theta: 0.0}]\n"
            "simulation: {peaks: 10, replications: 1, seed: 1, stall_limit: 200}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_reproduce_unknown_figure_exit_2(self, tmp_path):
        assert main(["reproduce", "--figure", "fig9", "--out", str(tmp_path)]) == 2

    def test_reproduce_fig7_inf_tokens_and_ordering(self, tmp_path):
        assert main(["reproduce", "--figure", "fig7", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "fig7.csv")
        assert list(rows[0]) == ["param", "policy", "zeta"]
        by_alpha = {}
        for r in rows:
            by_alpha.setdefault(float(r["param"]), {})[r["policy"]] = float(r["zeta"])
        for alpha, vals in by_alpha.items():
            assert vals["optimal"] <= vals["median"] + 1e-9
            assert vals["optimal"] <= vals["zero-wait"] + 1e-9
            if alpha <= 1.0:
                assert math.isinf(vals["zero-wait"])

    def test_reproduce_is_deterministic(self, tmp_path):
        main(["reproduce", "--figure", "fig5", "--out", str(tmp_path)])
        first = (tmp_path / "fig5.csv").read_bytes()
        main(["reproduce", "--figure", "fig5", "--out", str(tmp_path)])
        assert (tmp_path / "fig5.csv").read_bytes() == first


class TestCliExtras:
    def test_eval_rejects_randomized_policy(self, tmp_path):
        cfg = tmp_path / "r.yaml"
        cfg.write_text(
            "distribution: {kind: exponential, params: {rate: 1.0}}\n"
            "policies: [{kind: randomized, sampler: {kind: uniform, low: 0.5, high: 1.5}}]\n"
        )
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_trajectory_export(self, tmp_path):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(
            "distribution: {kind: deterministic, params: {value: 1.0}}\n"
            "policies: [zero-wait]\n"
            "simulation: {peaks: 10, replications: 1, seed: 3, trajectory_horizon: 4.0}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "paoi_trajectory_zero-wait.csv")
        assert list(rows[0]) == ["time", "peak", "reset_to"]
        assert [float(r["time"]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
        assert all(float(r["peak"]) == 2.0 and float(r["reset_to"]) == 1.0 for r in rows)

    def test_peak_dump_schema(self, tmp_path):
        cfg = tmp_path / "p.yaml"
        cfg.write_text(
            "distribution: {kind: two-point, params: {t1: 1.0, t2: 3.0, p: 0.5}}\n"
            "policies: [{kind: fixed, theta: 1.0}]\n"
            "simulation: {peaks: 50, replications: 1, seed: 3, dump_peaks: true}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "paoi_peaks_fixed_1.csv")
        assert list(rows[0]) == [
            "k", "peak", "received_service", "interreception", "preemptions",
            "receive_time",
        ]
        assert len(rows) == 50

    def test_import_loads_only_scipy_special(self):
        # scipy.integrate and scipy.optimize add about 0.4 s to every
        # command's start-up on a 2-vCPU machine
        import paoi_lab

        src = str(Path(paoi_lab.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        probe = (
            "import sys, paoi_lab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
