import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from conftest import CATALOG, kernel_text, pure_yaml, record_text, run_fresh
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paoi_lab import (
    ChoiceSampler,
    ConfigError,
    Erlang,
    Exponential,
    FixedThreshold,
    HyperExponential,
    LogNormal,
    MedianThreshold,
    Pareto,
    PointSampler,
    RandomizedThreshold,
    RepetitiveSequence,
    TriangularSampler,
    UniformSampler,
    XMinThreshold,
    ZeroWait,
    cli,
    config,
    digits,
    simulate,
)
from paoi_lab.cli import (
    _fmt,
    _write_csv,
    build_parser,
    cmd_optimize,
    main,
)
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

    def test_integers_stay_exact(self, tmp_path):
        # 2**53 + 1 has no float of its own: read through float() it was 2**53
        big = 2**53 + 1
        path = tmp_path / "i.yaml"
        path.write_text(f"distribution: {{kind: erlang, params: {{shape: {big}, rate: 1.0}}}}\n"
                        f"simulation: {{seed: {big}, peaks: 3.0}}\n")
        cfg = load_config(str(path))
        assert cfg.simulation.seed == big and cfg.distribution.shape == big
        assert cfg.simulation.peaks == 3 and type(cfg.simulation.peaks) is int
        path.write_text(ERLANG + "simulation: {seed: true}\n")
        with pytest.raises(ConfigError, match="expected a number, got True"):
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
        # evaluation per point; the primitives are read once more at the
        # support minimum, for the xmin candidate (the no-atom note reads
        # atoms())
        calls = Counter()

        class Counting(Erlang):
            def primitives(self, theta):
                calls["primitives"] += 1
                return super().primitives(theta)

            def grid_primitives(self, thetas):
                calls["grid points"] += len(thetas)
                return super().grid_primitives(thetas)

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
        assert calls["cdf"] <= evaluations + 1
        assert calls["sf"] <= evaluations and calls["m"] <= evaluations
        assert calls["primitives"] + calls["grid points"] == evaluations + 1, calls

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

    def test_parser_is_built_once_and_keeps_no_arguments(self, tp_config, tmp_path, capsys):
        # one parser serves every call; a flag given to one call is absent
        # from the next, and a bad argument still exits 2
        assert build_parser() is build_parser()
        out = tmp_path / "out"
        argv = ["--config", str(tp_config), "--out", str(out)]
        assert main(["simulate", *argv, "--seed", "5"]) == 0
        assert read_csv(out / "tp_simulate_zero-wait.csv")[0]["seed"] == "5"
        assert build_parser().parse_args(["eval", "--config", "c.yaml"]) == argparse.Namespace(
            command="eval", config="c.yaml", out=".")
        assert main(["eval", "--config", str(tp_config), "--out", str(tmp_path)]) == 0
        assert not out.joinpath("tp_eval.csv").exists()
        assert read_csv(tmp_path / "tp_eval.csv")[0]["zeta"] == "3"
        assert main(["simulate", *argv]) == 0
        assert read_csv(out / "tp_simulate_zero-wait.csv")[0]["seed"] == "7"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *argv, "--seed", "x"])
        assert exc.value.code == 2
        assert "--seed: invalid int value" in capsys.readouterr().err

    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("distribution: {kind: nope, params: {}}\n")
        assert main(["eval", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["eval", "--config", str(tmp_path / "missing.yaml")]) == 2

    @pytest.mark.parametrize("mapping, key", [
        ("distribution: {kind: exponential, params: {rate: 1.0}}\n", "distribution"),
        ("simulation: {seed: 1, peaks: 10, seed: 2}\n", "seed"),
    ], ids=["top-level", "nested"])
    def test_duplicate_key_exit_2(self, tmp_path, capsys, mapping, key):
        # a repeated key would silently keep its last value; the repeat is on line 3
        cfg = tmp_path / "dup.yaml"
        cfg.write_text(ERLANG + "policies: [zero-wait]\n" + mapping)
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot parse config file {cfg}" in err
        assert f"duplicate key {key!r}\n  in \"{cfg}\", line 3," in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("blocker", ["file", "directory"])
    def test_unwritable_output_exit_2(self, tp_config, tmp_path, capsys, blocker):
        # a file where the output directory goes fails mkdir; a directory
        # where the CSV goes fails open
        out = tmp_path / "out"
        if blocker == "file":
            out.write_text("")
        else:
            (out / "tp_eval.csv").mkdir(parents=True)
        assert main(["eval", "--config", str(tp_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'tp_eval.csv'}: ")
        assert err.count("\n") == 1

    @staticmethod
    def simulate_with_a_directory_at(tmp_path, capsys, policies, blocked):
        """Run ``simulate`` with a peak dump and a trajectory per policy and a
        directory where the dump of ``blocked`` goes; expect exit 2, no
        stdout and no CSV that holds a byte."""
        cfg = tmp_path / "d.yaml"
        cfg.write_text(ERLANG + f"policies: {policies}\n"
                       "simulation: {peaks: 100, replications: 1, seed: 1, dump_peaks: true, "
                       "trajectory_horizon: 10.0}\n")
        out = tmp_path / "out"
        peaks = out / f"paoi_peaks_{blocked}.csv"
        peaks.mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: cannot write {peaks}: ")
        assert err.count("\n") == 1
        assert not any(p.stat().st_size for p in out.rglob("*.csv") if p.is_file())

    def test_directory_where_the_peak_dump_goes_exit_2(self, tmp_path, capsys):
        # the trajectory and the peak dump are opened together
        self.simulate_with_a_directory_at(tmp_path, capsys, "[zero-wait]", "zero-wait")

    def test_directory_where_the_second_policys_dump_goes_exit_2(self, tmp_path, capsys):
        # every file of every policy is opened before the first policy's output
        self.simulate_with_a_directory_at(tmp_path, capsys, "[zero-wait, median]",
                                          "median-threshold")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("verb, name", [
        ("eval", "paoi_eval.csv"),  # a few bytes: the write fails as the file closes
        ("sweep", "paoi_sweep.csv"),
        ("optimize", "paoi_optimize.csv"),
        ("simulate", "paoi_simulate_zero-wait.csv"),
        ("simulate", "paoi_peaks_zero-wait.csv"),  # past the buffer: a write fails
    ])
    def test_write_to_a_full_device_exit_2(self, tmp_path, capsys, verb, name):
        # stdout is printed only once every file is closed, so it stays empty
        cfg = tmp_path / "f.yaml"
        cfg.write_text(ERLANG + "policies: [zero-wait]\n"
                       "simulation: {peaks: 2000, replications: 1, dump_peaks: true}\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out / name}: [Errno 28] No space left on device\n")

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
        assert not list(tmp_path.glob("*.csv"))

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

    def test_eval_without_closed_form_prints_nothing(self, tmp_path, capsys):
        # the zero-wait row before the randomized policy is not printed either
        cfg = tmp_path / "r.yaml"
        cfg.write_text(
            "distribution: {kind: exponential, params: {rate: 1.0}}\n"
            "policies: [zero-wait, {kind: randomized, sampler: {kind: uniform, low: 0.5, "
            "high: 1.5}}]\n"
        )
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", (
            "error: policy randomized[uniform(0.5,1.5)]: randomized-threshold policies "
            "have no closed form; simulate instead\n"))
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("raw", ["x", "-1"])
    def test_bad_paoi_threads_exits_2(self, tp_config, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("PAOI_THREADS", raw)
        assert main(["simulate", "--config", str(tp_config), "--out", str(tmp_path)]) == 2
        assert "PAOI_THREADS" in capsys.readouterr().err

    def test_paoi_threads_0_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setenv("PAOI_THREADS", "0")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._workers() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._workers() == 3

    def test_paoi_threads_do_not_change_simulate_bytes(self, tp_config, tmp_path, monkeypatch):
        outputs = {}
        for raw in ("1", "0", "2"):
            monkeypatch.setenv("PAOI_THREADS", raw)
            out = tmp_path / raw
            assert main(["simulate", "--config", str(tp_config), "--out", str(out)]) == 0
            outputs[raw] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outputs["1"] and outputs["0"] == outputs["1"] == outputs["2"]

    def test_import_loads_only_scipy_special(self):
        # scipy.integrate and scipy.optimize add about 0.4 s to every
        # command's start-up on a 2-vCPU machine, scipy.special's array-API
        # shim (which imports numpy.f2py) about 0.2 s, and the process
        # pool's modules about 14 ms; no scipy.special stub is left behind
        unwanted = ("scipy.integrate", "scipy.optimize", "scipy.special",
                    "scipy.special._support_alternative_backends", "numpy.f2py",
                    "concurrent.futures.process")
        probe = (f"import sys, paoi_lab.cli; "
                 f"print(sorted(m for m in {unwanted!r} if m in sys.modules))")
        assert run_fresh(probe) == "[]"

    def test_loaded_ufuncs_are_scipy_special_s_own(self):
        probe = (
            "import paoi_lab.distributions as pd, scipy.special, scipy.stats; "
            f"assert all(getattr(pd, n) is getattr(scipy.special, n) for n in {UFUNCS!r}); "
            "print(scipy.stats.norm.cdf(0.0))"
        )
        assert run_fresh(probe) == "0.5"

    def test_failed_stub_import_falls_back_to_scipy_special(self):
        # the first import of scipy.special._ufuncs, under the stub, raises
        probe = (
            "import sys\n"
            "class Refuse:\n"
            "    armed = True\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.special._ufuncs' and self.armed:\n"
            "            self.armed = False\n"
            "            raise RuntimeError('refused')\n"
            "refuse = Refuse()\n"
            "sys.meta_path.insert(0, refuse)\n"
            "import paoi_lab.distributions as pd\n"
            "special = sys.modules['scipy.special']\n"
            "assert not refuse.armed and hasattr(special, 'logsumexp')\n"
            f"assert all(getattr(pd, n) is getattr(special, n) for n in {UFUNCS!r})\n"
            "print(pd.LogNormal(0.0, 1.0).cdf(1.0))\n"
        )
        assert run_fresh(probe) == "0.5"


UFUNCS = ("gammainc", "gammaincc", "gammaincinv", "ndtr", "ndtri")


def reference_csv(path, header, rows):
    """The row writer the column writer replaced: ``csv.writer`` with every
    float cell through the old ``_fmt`` and its ``isinf``/``isnan`` branches."""

    def fmt(x):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return format(float(x), ".12g")

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])


EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 123456789012345.0, 0.1]


class TestCsvWriter:
    @pytest.mark.parametrize("v", [*EDGE_FLOATS, np.float64(2.0 / 3.0)], ids=repr)
    def test_fmt_is_format_12g(self, v):
        assert _fmt(v) == "%.12g" % v == format(v, ".12g")

    # (header, columns as the CLI passes them, rows as the old CLI built them)
    CASES = {
        "quoted labels": (
            ["policy", "zeta", "count"],
            [
                ["repetitive[1,2,2.5]", 'say "hi"', 'a,"b"', "Erlang(3, 1.0)", "line\nbreak",
                 "zero-wait", "fixed(2)", "pareto-a0.5"],
                np.array([0.1, 1e300, 5e-324, -0.0, 123456789012345.0, 2.0, 1.0 / 3.0, 7.0]),
                np.array([0, -3, 2**40, 7, 1, 123, 2**62, 9]),
            ],
            None,
        ),
        "int against float params": (
            ["param", "policy", "zeta"],
            [[1, 1, 2, 2], ["zero-wait", "optimal"] * 2, [4.0, 3.5, math.inf, 2.75]],
            [[1, "zero-wait", 4.0], [1, "optimal", 3.5], [2, "zero-wait", math.inf],
             [2, "optimal", 2.75]],
        ),
        "float params": (
            ["param", "policy", "zeta"],
            [np.array([0.05, 1.0, 1e-9, 15.0]), ["erlang-k1"] * 4,
             np.array([1.25, 2.0, 1.0000000005, 15.5])],
            None,
        ),
        "pooled row": (
            ["replication", "seed", "peaks", "mean", "stderr"],
            [["0", "1", "pooled"], [7, 8, 7], [200, 200, 400], [2.5, 2.25, 2.375],
             [0.125, 0.0625, math.nan]],
            [[0, 7, 200, 2.5, 0.125], [1, 8, 200, 2.25, 0.0625],
             ["pooled", 7, 400, 2.375, math.nan]],
        ),
        "non-finite cells": (
            ["a", "b"],
            [np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1])],
            None,
        ),
        "no rows": (["time", "peak", "reset_to"], [np.empty(0)] * 3, []),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_row_writer_byte_for_byte(self, case, tmp_path):
        header, columns, rows = self.CASES[case]
        if rows is None:
            rows = list(zip(*(np.asarray(c).tolist() if isinstance(c, np.ndarray) else c
                              for c in columns)))
        _write_csv(tmp_path / "new.csv", header, columns)
        reference_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_unequal_columns_are_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [1.0]])


class TestEngineRowWriter:
    """A peak dump and a trajectory have the bytes the template fill writes
    for their fields, within one chunk and across many."""

    # name -> (law, policy, peaks, warmup, horizon, trajectory rows against
    # the dump's engine rows [warmup, warmup + peaks)); seed 4 throughout
    CASES = {
        "warmup 0, trajectory past the dump": (
            Exponential(1.0), ZeroWait(), 2500, 0, 4000.0, "past"),
        "warmup 0, trajectory ending inside the dump": (
            Exponential(1.0), ZeroWait(), 3000, 0, 1500.0, "inside"),
        "trajectory shorter than the warmup": (
            Exponential(1.0), ZeroWait(), 2500, 2500, 1500.0, "before"),
        "trajectory ending inside the dump": (
            Exponential(1.0), FixedThreshold(0.5), 3000, 1000, 2500.0, "inside"),
        "trajectory past the dump": (
            Exponential(1.0), FixedThreshold(0.5), 2000, 7, 5000.0, "past"),
        "empty trajectory": (Exponential(1.0), ZeroWait(), 100, 5, 1e-6, "before"),
        # about a fifth of the draws overflow to inf
        "non-finite cells": (LogNormal(709.0, 1.0), ZeroWait(), 50, 0, 1.7e308, "inside"),
    }

    @staticmethod
    def records(case):
        law, policy, peaks, warmup, horizon, where = TestEngineRowWriter.CASES[case]
        trajectory = simulate.aoi_trajectory(law, policy, horizon=horizon, seed=4)
        dump = simulate.simulate_peaks(law, policy, peaks=peaks, seed=4, warmup=warmup)
        n = len(trajectory)
        assert where == ("before" if n < warmup else "inside" if n < warmup + peaks else "past")
        return trajectory, dump

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_files_written_one_at_a_time(self, case):
        for records in self.records(case):
            assert kernel_text(records) == record_text(cli._template_rows, records)
        if case == "non-finite cells":
            assert ",inf," in kernel_text(records)

    @pytest.mark.parametrize("case", list(CASES))
    def test_across_chunks(self, case):
        # 15 dump rows or 30 trajectory rows per chunk
        for records in self.records(case):
            with mock.patch.object(digits, "CHUNK_CELLS", 90):
                assert kernel_text(records) == record_text(cli._template_rows, records)


ERLANG = "distribution: {kind: erlang, params: {shape: 3, rate: 1.0}}\n"


class TestDegenerateInputs:
    @pytest.mark.parametrize("verb", ["eval", "sweep", "optimize", "check", "simulate"])
    def test_log_normal_mean_past_the_largest_float_exit_2(self, tmp_path, capsys, verb):
        # past sigma ~ 1.34e154, sigma**2 itself overflows
        for sigma, exponent in (("40.0", "800"), ("1.0e+200", "inf")):
            cfg = tmp_path / "ln.yaml"
            cfg.write_text(
                f"distribution: {{kind: log-normal, params: {{mu: 0.0, sigma: {sigma}}}}}\n")
            assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr() == ("", (
                f"error: distribution.params: the mean exp(mu + sigma^2/2) = exp({exponent}) "
                "overflows a float\n"))
            assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("verb", ["sweep", "optimize", "check"])
    @pytest.mark.parametrize("law, name", [
        ("{kind: log-normal, params: {mu: 709.0, sigma: 1.0}}", "LogNormal(mu=709.0, sigma=1.0)"),
        ("{kind: pareto, params: {xm: 1.0, alpha: 0.01}}", "Pareto(xm=1.0, alpha=0.01)"),
        # the quantile reads inf here as above, where it needs no math.exp
        ("{kind: exponential, params: {rate: 1.0e-308}}", "Exponential(rate=1e-308)"),
    ], ids=["log-normal", "pareto", "exponential"])
    def test_default_window_past_the_largest_float_exit_2(self, tmp_path, capsys, verb, law,
                                                          name):
        cfg = tmp_path / "w.yaml"
        cfg.write_text(f"distribution: {law}\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: default window: the 1 - 1e-6 quantile of {name} overflows a float; "
            "pass an explicit window\n"))

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
        "verb, section, digits, where",
        [
            ("optimize", "distribution: {kind: exponential, params: {rate: 1%s}}", 400,
             "distribution.params.rate"),
            ("optimize", "distribution: {kind: erlang, params: {shape: 1%s, rate: 1.0}}", 400,
             "distribution.params.shape"),
            ("simulate", ERLANG + "simulation: {seed: 1%s}", 400, "simulation.seed"),
            ("simulate", ERLANG + "policies: [{kind: fixed, theta: 1%s}]", 400,
             "policies[0].theta"),
            # past Python's limit on the digits of an int read from text
            ("optimize", "distribution: {kind: exponential, params: {rate: 1%s}}", 5000,
             "cannot parse config file"),
        ],
        ids=["rate", "shape", "seed", "theta", "past-the-parser-limit"],
    )
    def test_integer_past_the_largest_float_exit_2(self, tmp_path, capsys, verb, section,
                                                   digits, where):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(section % ("0" * digits) + "\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and where in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "policy",
        [
            "{kind: fixed, theta: .nan}",
            "{kind: randomized, sampler: {kind: point, value: -1.0}}",
            "{kind: randomized, sampler: {kind: choice, values: [1.0, -1.0], "
            "weights: [0.5, 0.5]}}",
            "{kind: randomized, sampler: {kind: choice, values: [1.0, 3.0], "
            "weights: [1.5, -0.5]}}",
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

    @pytest.mark.parametrize("law, policy, err", [
        ("{kind: exponential, params: {rate: 1.0}}", "xmin",
         "no attempt at the repeating last threshold of XMinThreshold() "
         "can deliver under Exponential(rate=1.0): P(X <= 0) = 0"),
        ("{kind: exponential, params: {rate: 1.0}}",
         "{kind: repetitive, thresholds: [2.0, 0.0]}",
         "no attempt at the repeating last threshold of "
         "RepetitiveSequence(thresholds=(2.0, 0.0)) "
         "can deliver under Exponential(rate=1.0): P(X <= 0) = 0"),
        ("{kind: pareto, params: {xm: 1.0, alpha: 2.0}}",
         "{kind: randomized, sampler: {kind: uniform, low: 0.1, high: 0.9}}",
         "no threshold that RandomizedThreshold(sampler=UniformSampler(low=0.1, high=0.9)) "
         "draws can deliver under Pareto(xm=1.0, alpha=2.0): P(X <= 0.9) = 0"),
    ], ids=["xmin", "repetitive", "randomized"])
    def test_never_deliver_message(self, tmp_path, capsys, law, policy, err):
        cfg = tmp_path / "n.yaml"
        cfg.write_text(f"distribution: {law}\npolicies: [{policy}]\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr() == ("", f"simulation stalled: {err}\n")

    @pytest.mark.parametrize("trajectory", ["", ", trajectory_horizon: 10.0"])
    def test_later_policy_that_never_delivers_exits_3_before_any_output(
            self, tmp_path, capsys, trajectory):
        cfg = tmp_path / "n.yaml"
        cfg.write_text("distribution: {kind: pareto, params: {xm: 1.0, alpha: 2.0}}\n"
                       "policies: [zero-wait, {kind: fixed, theta: 0.5}]\n"
                       f"simulation: {{peaks: 100, replications: 2{trajectory}}}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr() == ("", (
            "simulation stalled: no attempt at the repeating last threshold of "
            "FixedThreshold(theta=0.5) can deliver under Pareto(xm=1.0, alpha=2.0): "
            "P(X <= 0.5) = 0\n"))
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("dump", ["", ", dump_peaks: true",
                                      ", dump_peaks: true, trajectory_horizon: 50.0"],
                             ids=["replicated", "dumped", "dumped with trajectory"])
    def test_later_policy_that_stalls_exits_3_before_any_output(self, tmp_path, capsys, dump):
        # fixed(0.01) drops 200 attempts in a row with probability about
        # 0.13 a peak; zero-wait never stalls, and every policy's
        # replications run before the first row
        cfg = tmp_path / "s.yaml"
        cfg.write_text("distribution: {kind: exponential, params: {rate: 1.0}}\n"
                       "policies: [zero-wait, {kind: fixed, theta: 0.01}]\n"
                       f"simulation: {{peaks: 2000, replications: 2, seed: 1, "
                       f"stall_limit: 200{dump}}}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("simulation stalled: 200 consecutive preemptions")
        assert "FixedThreshold(theta=0.01)" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "sampler",
        [
            "{kind: uniform, low: 0.1, high: 0.9}",
            "{kind: choice, values: [0.5, 0.9], weights: [0.5, 0.5]}",
            "{kind: point, value: 0.9}",
            "{kind: choice, values: [0.5, 5.0], weights: [1.0, 0.0]}",
        ],
    )
    def test_sampler_that_never_delivers_exits_3_at_once(self, tmp_path, capsys, sampler):
        # every threshold these draw lies below Pareto(1, 2)'s support; a
        # value of weight 0 is never drawn
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "distribution: {kind: pareto, params: {xm: 1.0, alpha: 2.0}}\n"
            f"policies: [{{kind: randomized, sampler: {sampler}}}]\n"
        )
        start = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 5.0
        assert "can deliver" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, policies, simulation", [
        ("eval", "[xmin, zero-wait]", ""),
        ("simulate", "[{kind: fixed, theta: 2.0}]",
         "simulation: {peaks: 200000, replications: 4, seed: 1}\n"),
    ])
    def test_out_is_checked_before_the_work(self, tmp_path, capsys, verb, policies, simulation):
        cfg = tmp_path / "o.yaml"
        cfg.write_text(ERLANG + f"policies: {policies}\n" + simulation)
        out = tmp_path / "out"
        out.write_text("")
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("verb, simulation, clash", [
        # eval's two rows would read fixed(2) with different zeta
        ("eval", "", "be labelled 'fixed(2)'"),
        # simulate's second CSV would overwrite the first
        ("simulate", "simulation: {peaks: 100, replications: 1}\n", "write the files of 'fixed_2'"),
    ], ids=["eval", "simulate"])
    def test_policies_sharing_a_label_exit_2(self, tmp_path, capsys, verb, simulation, clash):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            ERLANG + "policies: [zero-wait, {kind: fixed, theta: 2.0000001}, "
            "{kind: fixed, theta: 2.0000002}]\n" + simulation
        )
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"policies[1] and policies[2] would both {clash}" in captured.err
        assert not list(tmp_path.glob("*.csv"))

    def test_sampler_that_reaches_the_support_simulates(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "distribution: {kind: pareto, params: {xm: 1.0, alpha: 2.0}}\n"
            "policies: [{kind: randomized, sampler: {kind: uniform, low: 0.5, high: 1.5}}]\n"
            "simulation: {peaks: 100, replications: 1}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0

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

    def test_stall_limit_below_one_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(ERLANG + "simulation: {stall_limit: 0}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "stall_limit >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", ["{theta_min: -.inf}", "{theta_max: .inf}", "{theta_min: -1.0}"]
    )
    def test_non_finite_sweep_window_exit_2(self, tmp_path, capsys, window):
        cfg = tmp_path / "w.yaml"
        cfg.write_text(ERLANG + f"sweep: {window}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "law",
        [
            "{kind: exponential, params: {rate: .nan}}",
            "{kind: erlang, params: {shape: 3, rate: .nan}}",
            "{kind: pareto, params: {xm: .nan, alpha: 2.0}}",
            "{kind: shifted-exponential, params: {shift: .inf, rate: 2.0}}",
            "{kind: two-point, params: {t1: 1.0, t2: .inf, p: 0.5}}",
            "{kind: hyper-exponential, params: {rates: [.nan, 1.0], weights: [0.5, 0.5]}}",
            "{kind: log-normal, params: {mu: .inf, sigma: 1.0}}",
            "{kind: deterministic, params: {value: .inf}}",
        ],
    )
    def test_non_finite_law_parameter_exit_2(self, tmp_path, capsys, law):
        # unchecked, such a law gives nan rows and simulate preempts every attempt
        cfg = tmp_path / "law.yaml"
        cfg.write_text(f"distribution: {law}\n"
                       "simulation: {peaks: 10, replications: 1, stall_limit: 100}\n")
        for verb in ("eval", "optimize", "simulate"):
            assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2, verb
            assert "finite" in capsys.readouterr().err

    def test_infinite_trajectory_horizon_rejected(self):
        # simulate would never leave the trajectory loop
        node = {"distribution": {"kind": "exponential", "params": {"rate": 1.0}},
                "simulation": {"trajectory_horizon": math.inf}}
        with pytest.raises(ConfigError, match="trajectory_horizon"):
            parse_config(node)

    # numpy raises ValueError for 10**30 points and IndexError for 2**63 - 1
    @pytest.mark.parametrize("points", [10**30, 2**63 - 1], ids=["1e30", "2^63-1"])
    @pytest.mark.parametrize("verb, section, key", [
        ("sweep", "sweep", "count"),
        ("optimize", "optimizer", "grid_points"),
        ("check", "optimizer", "grid_points"),
    ], ids=["sweep", "optimize", "check"])
    def test_grid_past_what_numpy_can_index_exit_2(self, tmp_path, capsys, verb, section, key,
                                                  points):
        cfg = tmp_path / "g.yaml"
        cfg.write_text(ERLANG + f"{section}: {{{key}: {points}}}\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {section}: {key} must be at most ")
        assert err.count("\n") == 1

    # 2^57 floats are 1 EiB, more than a 64-bit address space maps
    @pytest.mark.parametrize("verb, section, key", [
        ("sweep", "sweep", "count"),
        ("optimize", "optimizer", "grid_points"),
        ("check", "optimizer", "grid_points"),
    ], ids=["sweep", "optimize", "check"])
    def test_grid_numpy_cannot_allocate_exit_2(self, tmp_path, capsys, verb, section, key):
        cfg = tmp_path / "g.yaml"
        cfg.write_text(ERLANG + f"{section}: {{{key}: {2**57}}}\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: a grid of {2**57} points does not fit in memory\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("verb, simulation", [
        ("eval", ""), ("simulate", "simulation: {peaks: 100, replications: 1}\n"),
    ], ids=["eval", "simulate"])
    @pytest.mark.parametrize("law, name", [
        # the median of Pareto(1, 1e-4) is 2^10000, where math.exp overflows
        ("{kind: pareto, params: {xm: 1.0, alpha: 1.0e-4}}", "Pareto(xm=1.0, alpha=0.0001)"),
        # these three read the median as inf without math.exp
        ("{kind: exponential, params: {rate: 5.0e-324}}", "Exponential(rate=5e-324)"),
        ("{kind: shifted-exponential, params: {shift: 0.0, rate: 5.0e-324}}",
         "ShiftedExponential(shift=0.0, rate=5e-324)"),
        ("{kind: hyper-exponential, params: {rates: [5.0e-324], weights: [1.0]}}",
         "HyperExponential(rates=(5e-324,), weights=(1.0,))"),
    ], ids=["pareto", "exponential", "shifted-exponential", "hyper-exponential"])
    def test_threshold_past_the_largest_float_exit_2(
            self, tmp_path, capsys, verb, simulation, law, name):
        cfg = tmp_path / "m.yaml"
        cfg.write_text(f"distribution: {law}\npolicies: [zero-wait, median]\n" + simulation)
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: policy median-threshold: its threshold under {name} overflows a float\n"))
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("law, horizon", [
        ("{kind: deterministic, params: {value: 5.0e-324}}", "1.0e-9"),
        ("{kind: erlang, params: {shape: 3, rate: 1.0e300}}", "1.0"),
    ], ids=["deterministic", "erlang"])
    def test_trajectory_past_its_cap_exit_2(self, tmp_path, capsys, law, horizon):
        # both need an astronomical number of receptions to reach the horizon
        cfg = tmp_path / "t.yaml"
        cfg.write_text(f"distribution: {law}\npolicies: [zero-wait]\nsimulation: "
                       f"{{peaks: 100, replications: 1, trajectory_horizon: {horizon}}}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: a trajectory to time {float(horizon):g} needs more than "
                              "4194304 receptions under ZeroWait(): the first 4095 end by time ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("law", [
        "{kind: log-normal, params: {mu: 709.0, sigma: 1.0}}",
        "{kind: pareto, params: {xm: 1.0, alpha: 0.01}}",
    ], ids=["log-normal", "pareto"])
    def test_draws_past_the_largest_float_read_inf_silently(self, tmp_path, capsys, law):
        # the suite turns every RuntimeWarning into an error
        cfg = tmp_path / "d.yaml"
        cfg.write_text(f"distribution: {law}\npolicies: [zero-wait]\n"
                       "simulation: {peaks: 1000, replications: 2, dump_peaks: true, "
                       "trajectory_horizon: 1.0e300}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() == (
            "policy zero-wait: pooled mean inf ci95 [nan, nan] (2 x 1000 peaks)\n", "")

    def test_erlang_moment_past_k_over_rate_reads_inf_not_nan(self, tmp_path, capsys):
        # k / rate overflows, and the moment's incomplete gamma underflows to 0
        cfg = tmp_path / "e.yaml"
        cfg.write_text("distribution: {kind: erlang, params: {shape: 3, rate: 5.0e-324}}\n"
                       "policies: [{kind: repetitive, thresholds: [0.6, 5.0e-324, 2.1]}]\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() == (
            "distribution: Erlang(3, 5e-324)\n"
            "policy                                 zeta      e_x_check            e_y\n"
            "repetitive[0.6,4.94066e-324,2.1]            inf            inf            inf\n", "")

    @pytest.mark.parametrize("verb, config, out", [
        ("eval", "distribution: {kind: shifted-exponential, params: {shift: 1.0, "
         "rate: 5.0e-324}}\npolicies: [zero-wait]\n",
         "distribution: ShiftedExponential(1.0, 5e-324)\n"
         "policy                                 zeta      e_x_check            e_y\n"
         "zero-wait                               inf            inf            inf\n"),
        ("check", "distribution: {kind: pareto, params: {xm: 1.0, alpha: 2.0}}\n"
         "optimizer: {theta_min: 1.0, theta_max: 1.7976931348623157e+308}\n",
         "distribution: Pareto(1.0, 2.0)\n"
         "necessary-sufficient: beneficial=True margin=0.67005734001 "
         "witness_theta=2.0342715249\n"
         "sufficient-residual:  witness=2.0342715249 max_margin=1.79769313486e+308\n"),
        ("optimize", "distribution: {kind: pareto, params: {xm: 1.0, alpha: 2.0}}\n"
         "optimizer: {theta_min: 1.0, theta_max: 1.7976931348623157e+308}\n",
         "distribution: Pareto(1.0, 2.0)\n"
         "window:       [1, 1.79769313486e+308]\n"
         "theta_opt:    2.0342715249\n"
         "zeta(fixed):  3.32994265999\n"
         "zeta(zero-wait): 4\n"
         "zeta(xmin):   inf\n"
         "              (no atom at the support minimum: the xmin policy never delivers)\n"
         "zeta_min:     3.32994265999   winner: fixed-threshold\n"
         "preemptions beneficial: True   margin vs 2E[X]: 0.67005734001\n"
         "policy-iteration cross-check delta: 0\n"
         "grid evaluations: 2000, refinement iterations: 0\n"),
    ], ids=["mean-past-the-largest-float", "window-to-the-largest-float-check",
            "window-to-the-largest-float-optimize"])
    def test_overflow_to_inf_is_silent(self, tmp_path, capsys, verb, config, out):
        # the suite turns every RuntimeWarning into an error
        cfg = tmp_path / "o.yaml"
        cfg.write_text(config)
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() == (out, "")

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
# pinned before the threshold grid was read in one pass, the ``sampled_*``
# outputs before the simulator's attempt loop read plain iterators, and the
# ``heavy_*`` outputs before the simulator summed whole blocks of attempts
# with numpy.  Any change to these bytes must be deliberate.
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
    "sampled_peaks_randomized_choice_1_3.csv":
        "0337764271e7afaa6b0b095580befe5c8a756cdf4d1f6dcdba8c3981104d980d",
    "sampled_peaks_randomized_point_2.csv":
        "4d79521c4123a3fe405bb670deb418698b8a19a4ed751b450ab754726dfbca68",
    "sampled_peaks_randomized_triangular_0.5_1.5_3.5.csv":
        "f2032e0c3549c8fbc3b76e6c0da94bf1c4c844cb3a57afcef69d3903bf509e3e",
    "sampled_peaks_randomized_uniform_0.5_3.5.csv":
        "d70460f5f5b5fc9d2b942831342ac57c04622bab049e2719b536769ed346f23b",
    "sampled_peaks_repetitive_1_2_2.5.csv":
        "1699c1fa5ab06425cc517056f120be10bc4e40800d1f9f976daa0e1c081c4771",
    "sampled_simulate_randomized_choice_1_3.csv":
        "106c261a0c708343cd6808bcb53164307345c4ce4d6432156229ba204eaf2dda",
    "sampled_simulate_randomized_point_2.csv":
        "2b7c1e0a2a187119a1fb60b344e51286be5e0a56aacaa36e30057ee98aaa8269",
    "sampled_simulate_randomized_triangular_0.5_1.5_3.5.csv":
        "0790ce176adcd873915a6a298284ddf68807ad0d34809819eed9f69526865726",
    "sampled_simulate_randomized_uniform_0.5_3.5.csv":
        "1a39a928010e324c11fb1bec65799528e02834187502f0174dd08a4ef05abc5a",
    "sampled_simulate_repetitive_1_2_2.5.csv":
        "7ef1e460e5a64ed042faa43165bf8c5c297bdafc9129b32c2df1a12c55cf5c9a",
    "sampled_trajectory_randomized_choice_1_3.csv":
        "e3539f80dd458ccd1786418838b27ad103f504e058df7fcf2995fb346642e3f3",
    "sampled_trajectory_randomized_point_2.csv":
        "955a4f5887f947dbb80a96ee0e07b236ecef3f389fde5b72088fe8694bf88725",
    "sampled_trajectory_randomized_triangular_0.5_1.5_3.5.csv":
        "a23dff54a93cc70a508aefbc2b1fdfe081025ae79960cfd7821fa6264049c4bb",
    "sampled_trajectory_randomized_uniform_0.5_3.5.csv":
        "516ae82a626a039ece5d607a0edaddbb10c755309bcaa725c1882dd415608fb3",
    "sampled_trajectory_repetitive_1_2_2.5.csv":
        "af9686a0babddd195163968001c6fcb8e3265416bd413a670d52598d65db8778",
    "heavy_peaks_fixed_0.01.csv":
        "47af8e84329b1f07ddda299f83bab25c89b97031320553435c6ee5a69cae7ce4",
    "heavy_peaks_repetitive_0.5_0.05_0.01.csv":
        "f0c0dce7ebba761025a76686968ed9e97636ab33b0f62d174ef67955eefaf58f",
    "heavy_simulate_fixed_0.01.csv":
        "39a6ddbe13a4246c85752f7fc2dc61a4311c6a3b5b3c0316f1e37ab837b87e9b",
    "heavy_simulate_repetitive_0.5_0.05_0.01.csv":
        "c037e4010bce987bfe0f5168d630a2dd3b22508f5a4e7e275f7881c957fe734d",
    "heavy_trajectory_fixed_0.01.csv":
        "3ab2ccbec048db7319501a570fa1ed4cfae6d6efa51a9160bbcc46975cad0232",
    "heavy_trajectory_repetitive_0.5_0.05_0.01.csv":
        "7007bf008703705f7310d5934521c293fb4894268488e4cfeddc537b61f7e900",
}


def test_cli_outputs_match_pinned_bytes(tmp_path):
    law = "distribution: {kind: two-point, params: {t1: 1.0, t2: 3.0, p: 0.5}}\n"
    commands = [
        ("eval", law + "policies: [zero-wait, xmin, median, {kind: fixed, theta: 2.0}, "
         "{kind: repetitive, thresholds: [1.0, 2.0, 2.5]}]\n"),
        ("simulate", law + "policies: [zero-wait, median, {kind: fixed, theta: 2.0}]\n"
         "simulation: {peaks: 200, replications: 2, seed: 1}\n"),
        # a threshold sequence and every sampler, with warm-up, the peak dump
        # and the trajectory
        ("simulate", law + "policies: [{kind: repetitive, thresholds: [1.0, 2.0, 2.5]}, "
         "{kind: randomized, sampler: {kind: choice, values: [1.0, 3.0], weights: [0.3, 0.7]}}, "
         "{kind: randomized, sampler: {kind: triangular, low: 0.5, mode: 1.5, high: 3.5}}, "
         "{kind: randomized, sampler: {kind: uniform, low: 0.5, high: 3.5}}, "
         "{kind: randomized, sampler: {kind: point, value: 2.0}}]\n"
         "simulation: {peaks: 200, replications: 2, seed: 3, warmup: 5, dump_peaks: true, "
         "trajectory_horizon: 50.0}\n"
         "output: {prefix: sampled}\n"),
        # about 100 attempts per peak, so peaks straddle the 4096-draw blocks
        ("simulate", "distribution: {kind: exponential, params: {rate: 1.0}}\n"
         "policies: [{kind: fixed, theta: 0.01}, "
         "{kind: repetitive, thresholds: [0.5, 0.05, 0.01]}]\n"
         "simulation: {peaks: 300, replications: 2, seed: 11, warmup: 3, dump_peaks: true, "
         "trajectory_horizon: 100.0}\n"
         "output: {prefix: heavy}\n"),
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


# optimize and check on the laws the test above does not search, each read
# as stdout and CSV, and a 2000-point log sweep that starts below Pareto's
# support; pinned on the per-point scalar loop, before grids were read as arrays
PINNED_LAWS = {
    "erlang": "{kind: erlang, params: {shape: 3, rate: 1.0}}",
    "log-normal": "{kind: log-normal, params: {mu: 0.0, sigma: 1.0}}",
    "hyper-exponential": "{kind: hyper-exponential, params: "
                         "{rates: [10.0, 1.0], weights: [0.9090909090909091, 0.09090909090909091]}}",
    "shifted-exponential": "{kind: shifted-exponential, params: {shift: 0.5, rate: 2.0}}",
    "deterministic": "{kind: deterministic, params: {value: 1.5}}\n"
                     "optimizer: {theta_min: 1.5, theta_max: 3.0}",
}
PINNED_LAW_SHA256 = {
    "erlang optimize stdout":
        "d3e37717292373b7e7b4dd321dd87319b709767ee1186f6c1864d34c2111fa0f",
    "erlang check stdout":
        "f14831b73c2b08059ede277b74fc12fb171465cb5d3bc60974631f2ea49c1c18",
    "log-normal optimize stdout":
        "bfa48c994529bf0b23cc1661d4e8210ea76bf823fa36f308c9387a6c51a179b2",
    "log-normal check stdout":
        "a8ce9e451029f88879410f02675622adf15dc69223470b77cef870d937ac6a2b",
    "hyper-exponential optimize stdout":
        "7b75c571f282e862c4b3bf6fdccce475b22b9494e2fc58178a0986b88a76d5e9",
    "hyper-exponential check stdout":
        "0b72c48224b9001646bbe1c0cb6690a6dec11e7cbfb5c85eac5e6e22d5a7c051",
    "shifted-exponential optimize stdout":
        "fea2f18f37ae189a734bda6f7d5e97bd6f0cad4720d6c945972f78f42a5e61f2",
    "shifted-exponential check stdout":
        "4b8e96bf06f9b2d3b3927f22c2f2c0da9972b790ce464a7b8d9ee765d3bd9d74",
    "deterministic optimize stdout":
        "59d88aa60a6e88a6f81d8284cb53db1bbaae1b4656261f282a55d8360baabd67",
    "deterministic check stdout":
        "d6546b0719f8f4c0d1d38bcdc99fa10ea128747f917d2c50e15f6a517dfdf9d8",
    "erlang_optimize.csv":
        "e585a63322a61df0d259d686e3cf114be512d6140283d8c0d68fd00a1f11ac3e",
    "log-normal_optimize.csv":
        "ca801c96f849e741ec12d8c72a1659d7ffcfa4964deb4c5b45f2bd3afb830d1b",
    "hyper-exponential_optimize.csv":
        "4eabe4c490e81b8d2190d7ccd91a445465aeb19312f9c7c15134f01bbc1f129e",
    "shifted-exponential_optimize.csv":
        "a077e8c92fe04ad4c0cd0b502d74a822a99092539b1aa4fb280ede2f6967f9f3",
    "deterministic_optimize.csv":
        "c8a69de0bc83227a78d261dbe62bac4aa7f0e6d58087c5f175fc7e8595b418e9",
    "pareto1.5_sweep.csv":
        "382271d9929249750b50bb839db30f5ff8fdb9e197e70ec9e3a41e18206e5cef",
}


def test_cli_law_outputs_match_pinned_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    digests = {}
    for name, law in PINNED_LAWS.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(f"distribution: {law}\noutput: {{prefix: {name}}}\n")
        for verb in ("optimize", "check"):
            assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.encode()
            digests[f"{name} {verb} stdout"] = hashlib.sha256(stdout).hexdigest()
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text("distribution: {kind: pareto, params: {xm: 1.0, alpha: 1.5}}\n"
                   "sweep: {theta_min: 0.5, theta_max: 1000.0, count: 2000, spacing: log}\n"
                   "output: {prefix: pareto1.5}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for p in out.glob("*.csv"):
        digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    assert digests == PINNED_LAW_SHA256


def pure_load_config(path):
    """:func:`load_config` on the pure-Python loader alone, as it read every
    config before libyaml was used."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = pure_yaml(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return parse_config(raw)


def read_config(load, path):
    """``load(path)`` as its repr, which also tells ``nan`` apart, or as its error text."""
    try:
        return repr(load(str(path)))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def workload_configs():
    """Configs in the benchmark's own shapes, written as it writes them
    (block style, sorted keys), then the README block, the two-point config
    of the CLI tests and one flow-style file."""
    law = {"kind": "erlang", "params": {"shape": 3, "rate": 1.25}}
    shapes = [
        {"distribution": {"kind": "log-normal", "params": {"mu": -0.22314355131420976,
                                                           "sigma": 1.0}}},
        {"distribution": {"kind": "deterministic", "params": {"value": 1.2}},
         "optimizer": {"theta_min": 1.2, "theta_max": 2.4000000000000004}},
        {"distribution": {"kind": "pareto", "params": {"xm": 0.8, "alpha": 1.5}},
         "sweep": {"count": 2000, "spacing": "log"}},
        {"distribution": {"kind": "two-point", "params": {"t1": 0.8, "t2": 2.4, "p": 0.5}},
         "policies": ["zero-wait", "xmin", "median", {"kind": "fixed", "theta": 1.6},
                      {"kind": "repetitive", "thresholds": [0.8, 1.6, 2.0]}]},
        {"distribution": law, "policies": ["zero-wait", {"kind": "fixed", "theta": 1.6}, "median"],
         "simulation": {"peaks": 20_000, "replications": 8, "seed": 1819850096}},
        {"distribution": {"kind": "hyper-exponential",
                          "params": {"rates": [12.5, 1.25], "weights": [10 / 11, 1 / 11]}},
         "policies": [{"kind": "fixed", "theta": 0.04},
                      {"kind": "randomized",
                       "sampler": {"kind": "uniform", "low": 0.04, "high": 0.4}}],
         "simulation": {"peaks": 20_000, "replications": 4, "seed": 7, "dump_peaks": True,
                        "trajectory_horizon": 1600.0},
         "output": {"prefix": "hyper-exponential"}},
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [yaml.safe_dump(cfg, sort_keys=True) for cfg in shapes] + [
        readme.split("```yaml\n", 1)[1].split("```", 1)[0],
        TP_YAML,
        ERLANG + "policies: [{kind: repetitive, thresholds: [2e0, 1e-6]}, {kind: fixed, "
        "theta: .inf}, {kind: randomized, sampler: {kind: choice, values: [1, 2], "
        "weights: [0.5, 0.5]}}]\noptimizer: {theta_min: .5e-3, tol: .nan}\n",
    ]


WORKLOAD_CONFIGS = workload_configs()
# YAML indicators, white space, and characters the two parsers read apart
EDIT_CHARS = "\t\n\r :-,[]{}#&*!|>'\"%@`?\\.0e+_x\ufeff\x85\u2028\u2029\x00\xe9"


class TestYamlLoaders:
    """libyaml parses a config only where the result is the pure-Python loader's."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from(WORKLOAD_CONFIGS),
           edits=st.lists(st.tuples(st.integers(0, 2000), st.sampled_from("+-="),
                                    st.sampled_from(EDIT_CHARS)), min_size=1, max_size=3))
    def test_mutated_configs_read_as_the_pure_loader_reads_them(self, tmp_path, base, edits):
        text = base
        for at, op, char in edits:  # insert, delete or replace one character
            at %= len(text) + 1
            text = text[:at] + (char if op != "-" else "") + text[at + (op != "+"):]
        path = tmp_path / "m.yaml"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_config(load_config, path) == read_config(pure_load_config, path)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
    @pytest.mark.parametrize("text", WORKLOAD_CONFIGS[:6], ids=[
        "optimize", "optimize-window", "sweep", "eval", "simulate", "simulate-dump"])
    def test_workload_configs_are_parsed_by_libyaml(self, tmp_path, monkeypatch,
                                                    yaml_loaders_agree, text):
        path = tmp_path / "w.yaml"
        path.write_text(text)
        with open(path, encoding="utf-8") as fh:
            want = pure_yaml(fh)
        loaders, load = [], yaml.load
        monkeypatch.setattr(yaml, "load",
                            lambda s, Loader: loaders.append(Loader) or load(s, Loader))
        with open(path, encoding="utf-8") as fh:
            assert yaml_loaders_agree(fh) == want
        assert loaders == [config._CLoader]

    @pytest.mark.parametrize("text", [
        "a:\t1\n",  # libyaml takes the tab for white space
        "a:\n\ufeff  b: 1\n",  # libyaml drops a U+FEFF that starts a line: {a: {b: 1}}
        "{k?ind: x}\n",  # libyaml reads the key k?ind
        "a: !\n",  # libyaml reads the empty tagged value as ''
        "a: |#\n  x\n",  # libyaml accepts a comment in the block scalar header
        'a: "\\ud800"\n',  # libyaml rejects the lone surrogate escape
        "a: 1\r\nb: [2,\r\n 3]\r\n",  # text mode reads CRLF as LF before either parser
    ], ids=["tab", "bom", "question-mark", "bare-tag", "block-header", "surrogate", "crlf"])
    def test_inputs_the_parsers_read_differently(self, tmp_path, text):
        path = tmp_path / "d.yaml"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_config(load_config, path) == read_config(pure_load_config, path)

    @pytest.mark.parametrize("text", [
        "distribution: {kind: exponential, params: {rate: 1.0}}\nsweep: {}\nsweep: {}\n",
        ERLANG + "simulation: {seed: 1, peaks: 10, seed: 2}\n",
        ERLANG + "policies: [zero-wait, xmin\n",
        ERLANG + "output: {prefix: 'paoi}\n",
        "distribution:\n  kind: erlang\n params: {shape: 3, rate: 1.0}\n",
        "distribution:\n  kind: erlang\n  - zero-wait\n",
    ], ids=["duplicate-key", "nested-duplicate-key", "unclosed-flow-sequence",
            "unterminated-quote", "dedented-key", "sequence-in-mapping"])
    def test_malformed_configs_keep_their_message(self, tmp_path, text):
        # libyaml names the same line and column, but in its own words, and
        # its marks would name the text it was given, not the file
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        got = read_config(load_config, path)
        assert got == read_config(pure_load_config, path)
        assert got.startswith(f"ConfigError: cannot parse config file {path}: ")
        assert f'in "{path}", line ' in got

    @pytest.mark.parametrize("pad", [10, 10_000])
    def test_undecodable_byte_keeps_its_message(self, tmp_path, pad):
        # the pure-Python loader reads 4096 characters at a time, so its
        # message counts the position from the start of the decoded chunk
        path = tmp_path / "b.yaml"
        path.write_bytes(b"#" * (pad - 1) + b"\n" + b"a: \xff\n")
        got = read_config(load_config, path)
        assert got == read_config(pure_load_config, path)
        assert "'utf-8' codec can't decode byte 0xff in position" in got
        assert (f"position {pad + 3}:" in got) == (pad < 8192)

    def test_deep_nesting_never_reaches_libyaml(self, tmp_path):
        # libyaml's composer recurses in C and kills the process at 1e5
        # levels; the pure-Python loader stops at its recursion limit, which
        # load_config reports as a file it cannot parse
        path = tmp_path / "deep.yaml"
        path.write_text("a: " + "[" * 100_000 + "]" * 100_000 + "\n")
        import paoi_lab

        env = {**os.environ, "PYTHONPATH": str(Path(paoi_lab.__file__).resolve().parents[1])}
        probe = ("import sys\nfrom paoi_lab.config import load_config\n"
                 "from paoi_lab.errors import ConfigError\n"
                 "try:\n    load_config(sys.argv[1])\n"
                 "except ConfigError as exc:\n    print(f'ConfigError: {exc}')\n")
        out = subprocess.run([sys.executable, "-c", probe, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        assert out.stdout.startswith(
            f"ConfigError: cannot parse config file {path}: maximum recursion depth exceeded")

    def test_nesting_past_the_recursion_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.yaml"
        path.write_text("a: " + "[" * 600 + "]" * 600 + "\n")
        assert main(["eval", "--config", str(path), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            f"error: cannot parse config file {path}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("absent", ["flag", "class"])
    def test_loads_without_libyaml(self, tmp_path, monkeypatch, absent):
        if absent == "flag":
            monkeypatch.setattr(yaml, "__with_libyaml__", False)
        else:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        name = "paoi_lab._config_without_libyaml"
        spec = importlib.util.spec_from_file_location(name, config.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        assert module._CLoader is None
        paths = [tmp_path / "good.yaml", tmp_path / "bad.yaml"]
        paths[0].write_text(TP_YAML)
        paths[1].write_text(ERLANG + "policies: [zero-wait, xmin\n")
        want = [read_config(pure_load_config, path) for path in paths]
        loaders, load = [], yaml.load
        monkeypatch.setattr(yaml, "load",
                            lambda s, Loader: loaders.append(Loader) or load(s, Loader))
        assert [read_config(module.load_config, path) for path in paths] == want
        assert loaders == [module._Loader] * 2


# Edge values for every number the fuzzed configs carry.  Plain values make
# up two thirds of the draws, and a weight list often sums to 1, so that
# many configs get past validation and run their command.
EDGES = (0.0, -0.0, 5e-324, 1e-300, 1e-9, 1e300, sys.float_info.max,
         math.inf, -math.inf, math.nan, -1.0)
_edge = st.sampled_from((0.5, 1.0, 2.0, 3.0) * 6 + EDGES)
_edges = st.lists(_edge, min_size=1, max_size=3)
_weights = st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75]]) | _edges
_maybe = st.none() | _edge  # null: the default window end or tolerance

_LAW_PARAMS = {
    "exponential": ("rate",),
    "erlang": ("shape", "rate"),
    "pareto": ("xm", "alpha"),
    "shifted-exponential": ("shift", "rate"),
    "two-point": ("t1", "t2", "p"),
    "log-normal": ("mu", "sigma"),
    "deterministic": ("value",),
}
_SAMPLER_PARAMS = {
    "point": {"value": _edge},
    "uniform": {"low": _edge, "high": _edge},
    "triangular": {"low": _edge, "mode": _edge, "high": _edge},
    "choice": {"values": _edges, "weights": _weights},
}


def _kind(kind, **params):
    return st.fixed_dictionaries({"kind": st.just(kind), **params})


_laws = st.one_of(
    *(_kind(kind, params=st.fixed_dictionaries({name: _edge for name in names}))
      for kind, names in _LAW_PARAMS.items()),
    _kind("hyper-exponential",
          params=st.fixed_dictionaries({"rates": _edges, "weights": _weights})),
)
_policies = st.one_of(
    st.sampled_from(["zero-wait", "xmin", "median"]),
    _kind("fixed", theta=_edge),
    _kind("repetitive", thresholds=_edges),
    *(_kind("randomized", sampler=_kind(kind, **params))
      for kind, params in _SAMPLER_PARAMS.items()),
)
# every work size valid and capped; a trajectory's horizon is capped by the
# simulator itself, which exits 2 past its reception cap
_configs = st.fixed_dictionaries({
    "distribution": _laws,
    "policies": st.lists(_policies, min_size=1, max_size=2),
    "sweep": st.fixed_dictionaries({
        "theta_min": _maybe, "theta_max": _maybe, "count": st.integers(2, 20),
        "spacing": st.sampled_from(["linear", "log"])}),
    "simulation": st.fixed_dictionaries({
        "peaks": st.integers(2, 50), "replications": st.integers(1, 2),
        "seed": st.integers(0, 9), "warmup": st.integers(0, 50),
        "stall_limit": st.sampled_from([100_000, 100, 1]),
        "dump_peaks": st.booleans(), "trajectory_horizon": _maybe}),
    "optimizer": st.fixed_dictionaries({
        "theta_min": _maybe, "theta_max": _maybe, "tol": _maybe,
        "grid_points": st.integers(2, 50)}),
})


@settings(max_examples=400, deadline=None)
@given(cfg=_configs,
       command=st.sampled_from(["eval", "sweep", "optimize", "simulate", "check"]),
       kernel=st.booleans())
def test_any_config_exits_cleanly(cfg, command, kernel):
    # every command on any config exits 0, 2 or 3 without an exception or
    # a RuntimeWarning, and an exit 2 prints nothing and writes no file;
    # with ``kernel`` every table, however small, is spelled from the digit
    # tables
    cut = 0 if kernel else cli._KERNEL_MIN_CELLS
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.dict(os.environ, {"PAOI_THREADS": "1"}), \
            mock.patch.object(cli, "_KERNEL_MIN_CELLS", cut):
        warnings.simplefilter("error", RuntimeWarning)
        path, out = Path(tmp) / "fuzz.yaml", Path(tmp) / "out"
        path.write_text(yaml.safe_dump(cfg))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 2:
            assert stdout.getvalue() == ""
            assert not out.exists() or not any(out.iterdir())
        if code == 0:
            assert_nan_where_documented(stdout.getvalue(), load_config(path).distribution)
        # every numeric cell of every CSV, whichever way it was spelled, is
        # the canonical %.12g or %d of the value it reads as, and a nan
        # stands where the README says it may
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    for name, cell in row.items():
                        if name in TEXT_COLUMNS:
                            continue
                        integer = name in INTEGER_COLUMNS
                        assert (str(int(cell)) if integer else "%.12g" % float(cell)) == cell
                        if cell == "nan":
                            assert (name, row.get("mean"), row.get("zeta_opt")) in (
                                ("stderr", "inf", None), ("ci_low", "inf", None),
                                ("ci_high", "inf", None), ("bellman_delta", None, "inf"))


TEXT_COLUMNS = {"policy", "distribution", "winner", "replication"}
INTEGER_COLUMNS = {"k", "preemptions", "seed", "peaks", "is_minimum", "beneficial"}


def assert_nan_where_documented(stdout, law):
    """An exit-0 run prints ``nan`` only where the README says it may: the
    ``max_margin`` of ``check`` for a law of infinite mean, the cross-check
    delta of an ``optimize`` whose optimum is inf, and the ci95 of a
    ``simulate`` pooled mean that overflowed."""
    for line in stdout.splitlines():
        if not re.search(r"\bnan\b", line):
            continue
        if line.startswith("sufficient-residual:"):
            assert line == "sufficient-residual:  witness=- max_margin=nan"
            assert math.isinf(law.mean())
        elif line.startswith("policy-iteration cross-check delta:"):
            assert line == "policy-iteration cross-check delta: nan"
            assert "\nzeta(fixed):  inf\n" in stdout
        else:
            assert re.fullmatch(
                r"policy .*: pooled mean inf ci95 \[nan, nan\] \(\d+ x \d+ peaks\)", line)
