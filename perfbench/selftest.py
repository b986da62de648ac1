#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs two passes of every workload at workload seed ``SEED`` and expects
every command to pass its checks and the second pass to reproduce the
first byte for byte (error_rate 0).  Then it expects the checks to catch
two corruptions: one zeta cell in a sweep CSV lowered by 1e-7 relative (a
loss of precision, not a wrong formula), and one command forced to exit 2
by an unknown key in its config.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import sys

import checks
import run
import workloads

SEED = 1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import paoi_lab.cli as cli

    ok = True
    kept = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, SEED, run.WORK / "selftest" / name)
        checker = checks.Checker(SEED)
        _, _, first = run.run_pass(cli, wl, warmup=True)
        _, _, second = run.run_pass(cli, wl)
        failed = [(cmd.id, checker.check(cmd, res)) for cmd, res in zip(wl.commands, first)]
        failed = [(cid, v) for cid, v in failed if v]
        failed += [(cmd.id, ["second pass differs"]) for cmd, a, b in
                   zip(wl.commands, first, second) if a.signature() != b.signature()]
        print(f"{name}: {len(failed)} of {2 * len(wl.commands)} commands failed")
        for cid, v in failed:
            print(f"  {cid}: {'; '.join(v[:3])}")
        ok &= not failed
        kept[name] = (wl, first, checker)

    # a perturbed zeta cell: the flagged minimum of the log-normal sweep
    wl, first, checker = kept["sweep-figures"]
    i = next(i for i, c in enumerate(wl.commands) if c.id == "sweep:log-normal")
    res = first[i]
    (fname,) = res.files
    lines = res.files[fname].decode().split("\n")
    j = next(k for k, line in enumerate(lines) if line.endswith(",1"))
    cells = lines[j].split(",")
    cells[1] = format(float(cells[1]) * (1 - 1e-7), ".12g")
    lines[j] = ",".join(cells)
    res.files = {fname: "\n".join(lines).encode()}
    caught = checker.check(wl.commands[i], res)
    print(f"perturbed zeta cell in data row {j - 1}: "
          f"{'caught: ' + caught[0] if caught else 'MISSED'}")
    ok &= bool(caught)

    # a command forced to exit 2
    wl, _, checker = kept["optimize-catalog"]
    cmd = wl.commands[2]
    with open(cmd.argv[2], "a", encoding="utf-8") as fh:
        fh.write("bogus_key: 1\n")
    rc, out, err = run.run_command(cli, cmd, "1")
    caught = checker.check(cmd, run.Result(rc, out, err, {}, 0.0))
    print(f"{cmd.id} with an unknown config key: "
          f"{'caught: ' + caught[0] if caught else 'MISSED'}")
    ok &= caught == ["exit code 2"]

    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
