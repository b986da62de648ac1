"""The benchmark's oracle grades ``optimize`` and ``check`` far outside the
time scales the benchmark draws.

The benchmark's workloads scale every law by some s in [1/2, 2].  Since
zeta(sX, s theta) = s zeta(X, theta), a law at s = 2^k asks the same
question at every k, and the oracle in ``perfbench/checks.py`` grades
each printed number at any k.  Each (law, command, k) that fails today is
a strict xfail naming the ROADMAP item that clears it; that item removes
the mark when it lands.  The perfbench files are read as they are.
"""

import sys

import mpmath
import pytest

import paoi_lab.cli
from conftest import perfbench_module

# every catalog law with a default window: a single atom has none
LAWS = ["exponential", "erlang", "pareto", "shifted-exponential", "two-point",
        "hyper-exponential", "log-normal"]
VERBS = ["optimize", "check"]
COLLAPSED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 5: the default window's absolute 1e-9 floor "
                        "collapses it, so the command exits 2")
# the search's tie cut is absolute (item 5), and its theta_opt is the smallest
# candidate within that cut (item 6): the printed zeta_opt is not zeta at the
# printed theta_opt, by 3e-8 to 3e-7 relative
SPLIT_PAIR = pytest.mark.xfail(
    strict=True, reason="ROADMAP items 5 and 6: the printed zeta_opt and theta_opt disagree")
SPLIT_AT_2_MINUS_20 = {("erlang", "optimize"), ("pareto", "optimize"),
                       ("shifted-exponential", "optimize"), ("log-normal", "optimize")}


def cases():
    for law in LAWS:
        for verb in VERBS:
            for k in (-40, -20, -8, 0, 8, 20):
                marks = ()
                if k == -40:
                    marks = COLLAPSED
                elif k == -20 and (law, verb) in SPLIT_AT_2_MINUS_20:
                    marks = SPLIT_PAIR
                yield pytest.param(law, verb, k, marks=marks, id=f"{law}-{verb}-k{k}")


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``run``, ``workloads`` and ``checks``: ``run`` and
    ``checks`` import their siblings by bare name, which is bound only
    while they load."""
    siblings = ("oracle", "probe", "checks", "workloads")
    saved = {name: sys.modules.get(name) for name in siblings}
    try:
        for name in siblings:
            sys.modules[name] = perfbench_module(name)
        run = perfbench_module("run")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return run, run.workloads, run.checks


@pytest.mark.parametrize("law, verb, k", list(cases()))
def test_oracle_grades_every_scale(bench, tmp_path, monkeypatch, law, verb, k):
    run, workloads, checks = bench
    monkeypatch.setenv("PAOI_THREADS", "1")  # run_command sets it
    cfg = {"distribution": {"kind": law, "params": workloads.scaled_params(law, 2.0**k)}}
    cmd = workloads._config_command(verb, law, law, cfg, tmp_path, tmp_path)
    rc, stdout, error = run.run_command(paoi_lab.cli, cmd, "1")
    files = {p.name: p.read_bytes() for p in sorted(cmd.out_dir.glob("*"))}
    with mpmath.workdps(50):  # the oracle's precision
        problems = checks.Checker(0).check(cmd, run.Result(rc, stdout, error, files, 0.0))
    assert problems == []
