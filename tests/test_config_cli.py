import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from conftest import CATALOG

from paoi_lab import (
    ChoiceSampler,
    ConfigError,
    Erlang,
    Exponential,
    FixedThreshold,
    HyperExponential,
    MedianThreshold,
    Pareto,
    PointSampler,
    RandomizedThreshold,
    RepetitiveSequence,
    TriangularSampler,
    UniformSampler,
    XMinThreshold,
    ZeroWait,
)
from paoi_lab.cli import cmd_optimize, main
from paoi_lab.config import (
    ExperimentConfig,
    OptimizerSpec,
    SimulationSpec,
    SweepSpec,
    load_config,
    parse_config,
    parse_distribution,
    parse_policy,
)


def as_node(obj):
    """The config mapping of ``obj``'s own fields, lists where YAML has them."""
    node = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in node.items()}


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
        # every catalog law round-trips through the config's field names
        for kind, law in CATALOG.items():
            assert parse_distribution({"kind": kind, "params": as_node(law)}) == law

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
        # every policy kind and alias, and every sampler kind, round-trips
        cases = {
            "zero-wait": ZeroWait(),
            "xmin": XMinThreshold(),
            "xmin-threshold": XMinThreshold(),
            "median": MedianThreshold(),
            "median-threshold": MedianThreshold(),
            "fixed": FixedThreshold(2.5),
            "fixed-threshold": FixedThreshold(0.0),
            "repetitive": RepetitiveSequence((1.0, 2.0, 0.5)),
        }
        for kind, policy in cases.items():
            assert parse_policy({"kind": kind, **as_node(policy)}) == policy
            if not fields(policy):
                assert parse_policy(kind) == policy
        for kind, sampler in {
            "point": PointSampler(1.5),
            "uniform": UniformSampler(0.5, 2.0),
            "choice": ChoiceSampler((1.0, 3.0), (0.25, 0.75)),
            "triangular": TriangularSampler(0.5, 1.0, 2.0),
        }.items():
            node = {"kind": "randomized", "sampler": {"kind": kind, **as_node(sampler)}}
            assert parse_policy(node) == RandomizedThreshold(sampler)

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
        with pytest.raises(ConfigError, match=r"unknown key\(s\) 1, a;"):
            parse_config({"distribution": {"kind": "exponential", "params": {"rate": 1.0}},
                          1: {}, "a": {}})

    def test_missing_distribution(self):
        with pytest.raises(ConfigError):
            parse_config({"policies": ["zero-wait"]})

    def test_null_keeps_every_default(self):
        law = {"kind": "exponential", "params": {"rate": 1.0}}
        defaults = ExperimentConfig(distribution=Exponential(1.0))
        assert parse_config({"distribution": law}) == defaults
        sections = {"sweep": SweepSpec, "simulation": SimulationSpec, "optimizer": OptimizerSpec}
        every_key = {k: dict.fromkeys(f.name for f in fields(v)) for k, v in sections.items()}
        every_key |= {"distribution": law, "policies": None, "output": {"prefix": None}}
        assert parse_config(every_key) == defaults
        assert parse_config(dict.fromkeys(every_key) | {"distribution": law}) == defaults

    def test_exponents_without_a_dot_are_numbers(self, tmp_path):
        # YAML 1.2 floats; .inf and .nan keep their meaning, quoted text stays text
        path = tmp_path / "e.yaml"
        path.write_text(
            "distribution: {kind: exponential, params: {rate: 2E0}}\n"
            "policies: [{kind: repetitive, thresholds: [2e0, 1e-6, 1.5e3, +5e-1]},"
            " {kind: fixed, theta: .inf}]\n"
            "simulation: {stall_limit: 1e9}\n"
            "optimizer: {theta_min: .5e-3, tol: .nan}\n"
        )
        cfg = load_config(str(path))
        assert cfg.distribution == Exponential(2.0)
        assert cfg.policies == (
            RepetitiveSequence((2.0, 1e-6, 1500.0, 0.5)), FixedThreshold(math.inf)
        )
        assert cfg.simulation.stall_limit == 10**9
        assert type(cfg.simulation.stall_limit) is int
        assert cfg.optimizer.theta_min == 5e-4
        assert math.isnan(cfg.optimizer.tol)
        path.write_text("distribution: {kind: exponential, params: {rate: '1e0'}}\n")
        with pytest.raises(ConfigError, match="expected a number, got '1e0'"):
            load_config(str(path))

    def test_readme_block_documents_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        cfg = load_config(str(path))
        assert cfg.sweep == SweepSpec()
        assert cfg.simulation == SimulationSpec()
        assert cfg.optimizer == OptimizerSpec()
        assert cfg.prefix == ExperimentConfig.prefix


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

    def test_optimize_reads_each_grid_point_once(self, tmp_path, capsys):
        # the search, the golden refinement and the cross-check share one
        # evaluation per point; cdf is read twice more at the support
        # minimum, for the xmin candidate and the no-atom note
        calls = Counter()

        class Counting(Erlang):
            def cdf(self, x):
                calls["cdf"] += 1
                return super().cdf(x)

            def sf(self, x):
                calls["sf"] += 1
                return super().sf(x)

            def truncated_first_moment(self, theta):
                calls["m"] += 1
                return super().truncated_first_moment(theta)

        assert cmd_optimize(ExperimentConfig(distribution=Counting(3, 1.0)), tmp_path) == 0
        evaluations = int(re.search(r"grid evaluations: (\d+)", capsys.readouterr().out)[1])
        assert evaluations == 2000 + 29  # the grid plus the golden steps
        assert calls["cdf"] <= evaluations + 2
        assert calls["sf"] <= evaluations and calls["m"] <= evaluations

    @pytest.mark.parametrize(
        "argv", [["optimize", "--seed", "5"], ["reproduce", "--figure", "fig4", "--config", "x"]]
    )
    def test_flags_that_do_nothing_are_usage_errors(self, tp_config, tmp_path, argv):
        # only simulate reads --seed, and reproduce reads no config
        if argv[0] == "optimize":
            argv = [*argv, "--config", str(tp_config)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2

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
        [("optimize", "{tol: .nan}"), ("check", "{tol: .nan}")],
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


ERLANG = "distribution: {kind: erlang, params: {shape: 3, rate: 1.0}}\n"


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "verb, section",
        [
            ("optimize", "optimizer: {grid_points: .nan}"),
            ("simulate", "simulation: {peaks: .inf}"),
            ("sweep", "sweep: {count: .nan}"),
        ],
    )
    def test_non_finite_integer_exit_2(self, tmp_path, capsys, verb, section):
        cfg = tmp_path / "n.yaml"
        cfg.write_text(ERLANG + section + "\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy",
        [
            "{kind: fixed, theta: .nan}",
            "{kind: randomized, sampler: {kind: point, value: -1.0}}",
            "{kind: randomized, sampler: {kind: choice, values: [1.0, -1.0], "
            "weights: [0.5, 0.5]}}",
        ],
    )
    def test_invalid_threshold_exit_2(self, tmp_path, capsys, policy):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(ERLANG + f"policies: [{policy}]\n"
                       "simulation: {peaks: 10, replications: 1, stall_limit: 1000}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_policy_that_never_delivers_exits_3_at_once(self, tmp_path):
        # P(X <= 0) = 0: at the default stall_limit of 1e9 the attempt
        # loop would run for minutes before giving up
        cfg = tmp_path / "x.yaml"
        cfg.write_text(
            "distribution: {kind: exponential, params: {rate: 1.0}}\n"
            "policies: [xmin]\n"
        )
        start = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 5.0

    def test_tail_that_never_delivers_exits_3_at_once(self, tmp_path, capsys):
        # every peak that misses its first attempt is stranded on theta = 0
        cfg = tmp_path / "x.yaml"
        cfg.write_text(
            "distribution: {kind: exponential, params: {rate: 1.0}}\n"
            "policies: [{kind: repetitive, thresholds: [2.0, 0.0]}]\n"
        )
        start = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 5.0
        assert "repeating last threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sampler",
        [
            "{kind: uniform, low: 1.0, high: .inf}",
            "{kind: triangular, low: 1.0, mode: 2.0, high: .inf}",
        ],
    )
    def test_sampler_with_infinite_high_exit_2(self, tmp_path, capsys, sampler):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(ERLANG + f"policies: [{{kind: randomized, sampler: {sampler}}}]\n"
                       "simulation: {peaks: 10, replications: 1, stall_limit: 1000}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "< inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "law, thresholds, want",
        [
            # fixed(2.0) is (10/3, 4/3, 2); a prefix threshold below the
            # support burns its own length, 0.5, on zeta and E[Y]
            ("{kind: pareto, params: {xm: 1.0, alpha: 2.0}}", "[0.5, 2.0]",
             ["3.83333333333", "1.33333333333", "2.5"]),
            ("{kind: exponential, params: {rate: 1.0}}", "[0.0]", ["inf", "inf", "inf"]),
            ("{kind: exponential, params: {rate: 1.0}}", "[2.0, 1.0e-6]",
             ["1.59399421796", "0.593994217958", "1"]),
            ("{kind: exponential, params: {rate: 1.0}}", "[2.0, 1e-6]",
             ["1.59399421796", "0.593994217958", "1"]),
        ],
    )
    def test_eval_of_sequences_at_the_support_edge(self, tmp_path, law, thresholds, want):
        cfg = tmp_path / "e.yaml"
        cfg.write_text(f"distribution: {law}\n"
                       f"policies: [{{kind: repetitive, thresholds: {thresholds}}}]\n")
        start = time.perf_counter()
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 1.0
        (row,) = read_csv(tmp_path / "paoi_eval.csv")
        assert [row["zeta"], row["e_x_check"], row["e_y"]] == want

    @pytest.mark.parametrize(
        "section, flags",
        [("simulation: {seed: -1}\n", []), ("", ["--seed", "-1"])],
        ids=["config", "flag"],
    )
    def test_negative_seed_exit_2(self, tmp_path, capsys, section, flags):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(ERLANG + section)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path), *flags]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", ["{theta_min: -.inf}", "{theta_max: .inf}", "{theta_min: -1.0}"]
    )
    def test_non_finite_sweep_window_exit_2(self, tmp_path, capsys, window):
        cfg = tmp_path / "w.yaml"
        cfg.write_text(ERLANG + f"sweep: {window}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_infinite_trajectory_horizon_rejected(self):
        # simulate would never leave the trajectory loop
        node = {"distribution": {"kind": "exponential", "params": {"rate": 1.0}},
                "simulation": {"trajectory_horizon": math.inf}}
        with pytest.raises(ConfigError, match="trajectory_horizon"):
            parse_config(node)

    def test_infinite_fixed_threshold_evals_as_zero_wait(self, tmp_path, capsys):
        cfg = tmp_path / "z.yaml"
        cfg.write_text(ERLANG + "policies: [zero-wait, {kind: fixed, theta: .inf}]\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        zero_wait, fixed_inf = capsys.readouterr().out.splitlines()[2:]
        assert fixed_inf.split()[0] == "fixed(inf)"
        assert fixed_inf.split()[1:] == zero_wait.split()[1:] == ["6", "3", "3"]


# CSV digests of the outputs below, pinned when every deterministic policy
# was first read through ``policies.resolve`` and re-pinned for the eval
# table when threshold sequences became exact (its repetitive row moved
# from 3.62499999991 to 3.625); the optimize, sweep and figure outputs were
# pinned before the threshold grid was read in one pass.  Any change to
# these bytes must be deliberate.
PINNED_SHA256 = {
    "paoi_eval.csv": "26541f26394eb8d1339db1a92f447bc4380be793ff68929d8d8f905acad7afb3",
    "paoi_simulate_fixed_2.csv":
        "47845af615dba5aaade295bd6d0054cc8beda8fc03153ef75fc750271466742d",
    "paoi_simulate_median-threshold.csv":
        "86c14244e94c8630a391f5699b237d6cd2f44f478d6a56514ca59b15d4cb89e7",
    "paoi_simulate_zero-wait.csv":
        "9c97f3bec4dd08dacdd9384a13f655849728ba539ca19601843ac7de9fe0dc5c",
    "two-point_optimize.csv":
        "858bbbd48e25d881526c5fc646d33efab19a70d72f7be9993cbff343b01cf45d",
    "exponential_optimize.csv":
        "6a1790beba126731a3b3b2bc23858037d4da5e55a7f59e059b84c828bdabbda5",
    "pareto_sweep.csv": "24631e6b59fa9ad06d4614d9fcd1dfdcc6922cb027e2727db561abe9fd0d9b41",
    "fig4.csv": "8799537bb5d2db1f99aafb955042f3754bceb934b1aefc7a611bee40c1e6401f",
    "fig5.csv": "3692733b316ce41160c36a11083c80c9ae138e3810df762b61d71aac53f99ca9",
    "fig6.csv": "a9fa58168b4db74c3d9f7a1607e0a1d3b7b13da2224e0eedc11f271fe6f1dcf5",
    "fig7.csv": "0fcf091388387236fb77d5cfc1c0b0a6ad07f323cef955c991c71269a1955f83",
}


def test_cli_outputs_match_pinned_bytes(tmp_path):
    law = "distribution: {kind: two-point, params: {t1: 1.0, t2: 3.0, p: 0.5}}\n"
    commands = [
        ("eval", law + "policies: [zero-wait, xmin, median, {kind: fixed, theta: 2.0}, "
         "{kind: repetitive, thresholds: [1.0, 2.0, 2.5]}]\n"),
        ("simulate", law + "policies: [zero-wait, median, {kind: fixed, theta: 2.0}]\n"
         "simulation: {peaks: 200, replications: 2, seed: 1}\n"),
        ("optimize", law + "output: {prefix: two-point}\n"),
        # the optimum sits on the window floor theta = 1e-9
        ("optimize", "distribution: {kind: exponential, params: {rate: 1.0}}\n"
         "output: {prefix: exponential}\n"),
        # the window starts below the support, so the first rows have F = 0
        ("sweep", "distribution: {kind: pareto, params: {xm: 1.0, alpha: 2.0}}\n"
         "sweep: {theta_min: 0.5, theta_max: 5.0, count: 25, spacing: log}\n"
         "output: {prefix: pareto}\n"),
    ]
    out = tmp_path / "out"
    for i, (verb, text) in enumerate(commands):
        cfg = tmp_path / f"{i}.yaml"
        cfg.write_text(text)
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
    for figure in ("fig4", "fig5", "fig6", "fig7"):
        assert main(["reproduce", "--figure", figure, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == PINNED_SHA256
