"""Checks of each command's outputs against the oracle in ``oracle.py``.

A check returns the list of problems it found; an empty list passes.  The
checks run outside the timed region, on the first pass of a run; later
passes must reproduce the first pass byte for byte (``run.py``).
"""

from __future__ import annotations

import csv
import io
import math
import random
import re

import mpmath as mp

import oracle as O


class Checker:
    """Checks one run's commands; remembers the relative error closest to
    its tolerance."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.worst = (0.0, "", 1.0)  # relative error, where, its tolerance
        self._mins = {}
        self._cmd = ""

    # -- helpers -----------------------------------------------------------

    def _close(self, problems, what, program, exact, rtol=O.ZETA_RTOL):
        if not O.close(program, exact, rtol):
            problems.append(f"{what}: program {program!r}, oracle {mp.nstr(exact, 15)}")
        elif exact != O.INF and exact != 0:
            err = abs(program - float(exact)) / abs(float(exact))
            if err / rtol > self.worst[0] / self.worst[2]:
                self.worst = (err, f"{self._cmd} {what}", rtol)

    def _min(self, d, lo, hi, refined=False):
        key = (d.key, float(lo), float(hi), refined)
        if key not in self._mins:
            self._mins[key] = (O.refined_min if refined else O.coarse_min)(d, lo, hi)
        return self._mins[key]

    def _law(self, cmd):
        dist = cmd.config["distribution"]
        return O.law(dist["kind"], dist["params"])

    def _window(self, cmd, d):
        opt = cmd.config.get("optimizer", {})
        lo, hi = O.default_window(d)
        lo = mp.mpf(opt["theta_min"]) if opt.get("theta_min") is not None else lo
        hi = mp.mpf(opt["theta_max"]) if opt.get("theta_max") is not None else hi
        return lo, hi

    def _verdict(self, d, lo, hi):
        """Oracle benefit verdict and margin against ``2 E[X]``."""
        if d.mean == O.INF:
            return True, O.INF
        best = min(self._min(d, lo, hi, refined=True), O.zeta_xmin(d))
        return best < 2 * d.mean * (1 - O.TIE_RTOL), 2 * d.mean - best

    # -- per command -------------------------------------------------------

    def check(self, cmd, res) -> list[str]:
        if res.error is not None:
            return [f"raised {res.error}"]
        if res.rc != 0:
            return [f"exit code {res.rc}"]
        verb = cmd.argv[0]
        self._cmd = cmd.id
        try:
            return getattr(self, f"_check_{verb}")(cmd, res)
        except (KeyError, ValueError, IndexError, AttributeError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _check_optimize(self, cmd, res):
        p = []
        d = self._law(cmd)
        lo, hi = self._window(cmd, d)
        (row,) = _rows(res, "_optimize.csv")
        win = re.search(r"^window:\s+\[(\S+), (\S+)\]$", res.stdout, re.M)
        plo, phi = _num(win.group(1)), _num(win.group(2))
        self._close(p, "window low", plo, lo, O.WINDOW_RTOL)
        self._close(p, "window high", phi, hi, O.WINDOW_RTOL)
        theta, zopt = _num(row["theta_opt"]), _num(row["zeta_opt"])
        if not plo <= theta <= phi:
            p.append(f"theta_opt {theta} outside the window [{plo}, {phi}]")
        low, high = O.zeta_range(d, theta)
        if not low * (1 - O.ZETA_RTOL) <= zopt <= high * (1 + O.ZETA_RTOL):
            p.append(f"zeta_opt {zopt}, oracle at theta_opt {mp.nstr(low, 12)} .. "
                     f"{mp.nstr(high, 12)}")
        coarse, at = self._min(d, mp.mpf(plo), mp.mpf(phi))
        if zopt > float(coarse) * (1 + O.SEARCH_RTOL):
            p.append(f"zeta_opt {zopt} worse than the oracle's {mp.nstr(coarse, 12)} "
                     f"at theta {mp.nstr(at, 12)}")
        self._close(p, "zeta_zero_wait", _num(row["zeta_zero_wait"]), O.zero_wait(d))
        self._close(p, "zeta_xmin", _num(row["zeta_xmin"]), O.zeta_xmin(d))
        cands = [_num(row[k]) for k in ("zeta_opt", "zeta_zero_wait", "zeta_xmin")]
        if _num(row["zeta_min"]) != min(cands):
            p.append(f"zeta_min {row['zeta_min']} is not the least of {cands}")
        p += self._check_verdict(d, lo, hi, row["beneficial"] == "1", _num(row["margin"]))
        return p

    def _check_verdict(self, d, lo, hi, beneficial, margin):
        p = []
        want, want_margin = self._verdict(d, lo, hi)
        if beneficial != want:
            p.append(f"beneficial={beneficial}, oracle says {want}")
        if want_margin == O.INF:
            if margin != math.inf:
                p.append(f"margin {margin} for an infinite mean")
        elif abs(margin - float(want_margin)) > O.SEARCH_RTOL * float(2 * d.mean):
            p.append(f"margin {margin}, oracle {mp.nstr(want_margin, 12)}")
        return p

    def _check_check(self, cmd, res):
        p = []
        d = self._law(cmd)
        lo, hi = self._window(cmd, d)
        m = re.search(r"^necessary-sufficient: beneficial=(True|False) margin=(\S+) "
                      r"witness_theta=(\S+)$", res.stdout, re.M)
        p += self._check_verdict(d, lo, hi, m.group(1) == "True", _num(m.group(2)))
        m = re.search(r"^sufficient-residual:\s+witness=(\S+) max_margin=(\S+)$",
                      res.stdout, re.M)
        if d.mean != O.INF:
            if m.group(1) != "-":
                excess = O.mean_residual_excess(d, _num(m.group(1)))
                if excess is None or excess <= -O.ZETA_RTOL * d.mean:
                    p.append(f"residual witness {m.group(1)} is not one")
            else:
                worst = max((e for e in (O.mean_residual_excess(d, t)
                                         for t in O.grid(lo, hi, 200)) if e is not None),
                            default=-O.INF)
                if worst > O.ZETA_RTOL * d.mean:
                    p.append(f"no residual witness, but the oracle finds excess "
                             f"{mp.nstr(worst, 6)}")
        if d.kind == "two-point":
            m = re.search(r"^two-point critical t2: (\S+) ", res.stdout, re.M)
            prm = cmd.config["distribution"]["params"]
            t1, pr = mp.mpf(prm["t1"]), mp.mpf(prm["p"])
            # t1 (1 + p) / p = 2 (p t1 + (1 - p) t2), solved for t2
            self._close(p, "critical t2", _num(m.group(1)),
                        (t1 * (1 + pr) / pr - 2 * pr * t1) / (2 * (1 - pr)))
        return p

    def _check_sweep(self, cmd, res):
        p = []
        d = self._law(cmd)
        spec = cmd.config["sweep"]
        rows = _rows(res, "_sweep.csv")
        if len(rows) != spec["count"]:
            return [f"{len(rows)} rows, want {spec['count']}"]
        lo, hi = O.default_window(d)
        if spec["spacing"] == "log":
            thetas = [lo * (hi / lo) ** (mp.mpf(i) / (len(rows) - 1)) for i in range(len(rows))]
        else:
            thetas = [lo + (hi - lo) * mp.mpf(i) / (len(rows) - 1) for i in range(len(rows))]
        zetas = [_num(r["zeta"]) for r in rows]
        flagged = [i for i, r in enumerate(rows) if r["is_minimum"] == "1"]
        if len(flagged) != 1 or zetas[flagged[0]] != min(zetas):
            p.append(f"is_minimum rows {flagged}, least zeta {min(zetas)}")
        for i in self._sample(len(rows), extra=flagged):
            r = rows[i]
            self._close(p, f"row {i} theta", _num(r["theta"]), thetas[i], O.WINDOW_RTOL)
            z, ex, ey = O.zeta(d, thetas[i])
            rtol = O.zeta_rtol(d, thetas[i])
            self._close(p, f"row {i} zeta", zetas[i], z, rtol)
            self._close(p, f"row {i} e_x_check", _num(r["e_x_check"]), ex, rtol)
            self._close(p, f"row {i} e_y", _num(r["e_y"]), ey, rtol)
        return p

    def _sample(self, n, k=40, extra=()):
        return sorted({0, n - 1, *extra, *self.rng.sample(range(n), min(k, n))})

    def _check_eval(self, cmd, res):
        p = []
        d = self._law(cmd)
        rows = {r["policy"]: r for r in _rows(res, "_eval.csv")}
        want = {}
        for pol in cmd.config["policies"]:
            if pol == "zero-wait":
                want["zero-wait"] = (2 * d.mean, d.mean, d.mean)
            elif pol == "xmin":
                want["xmin-threshold"] = O.zeta(d, d.xmin)
            elif pol == "median":
                want["median-threshold"] = O.zeta(d, d.quantile(0.5))
            elif pol["kind"] == "fixed":
                want[f"fixed({pol['theta']:g})"] = O.zeta(d, pol["theta"])
            else:
                label = "repetitive[" + ",".join(f"{t:g}" for t in pol["thresholds"]) + "]"
                want[label] = O.zeta_repetitive(d, pol["thresholds"])
        if sorted(rows) != sorted(want):
            return [f"policies {sorted(rows)}, want {sorted(want)}"]
        for label, (z, ex, ey) in want.items():
            self._close(p, f"{label} zeta", _num(rows[label]["zeta"]), z)
            self._close(p, f"{label} e_x_check", _num(rows[label]["e_x_check"]), ex)
            self._close(p, f"{label} e_y", _num(rows[label]["e_y"]), ey)
        return p

    def _check_reproduce(self, cmd, res):
        fig = cmd.argv[2]
        rows = _rows(res, f"{fig}.csv")
        p = []
        if fig in ("fig4", "fig6"):
            kind, key, params = (("erlang", "k", (1, 2, 3, 4)) if fig == "fig4"
                                 else ("pareto", "a", (0.5, 1.0, 2.0, 3.0)))
            per = 300 if fig == "fig4" else 400
            if len(rows) != per * len(params):
                return [f"{len(rows)} rows, want {per * len(params)}"]
            laws = {f"{kind}-{key}{v:g}": _fig_law(kind, v) for v in params}
            for i in self._sample(len(rows)):
                r = rows[i]
                self._close(p, f"{fig} row {i}", _num(r["zeta"]),
                            O.zeta(laws[r["policy"]], _num(r["param"]))[0])
            return p
        params = (1, 2, 3, 4, 5, 6) if fig == "fig5" else (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        kind = "erlang" if fig == "fig5" else "pareto"
        if [(r["param"], r["policy"]) for r in rows] != [
            (f"{v:g}", pol) for v in params for pol in ("zero-wait", "optimal", "median")
        ]:
            return [f"unexpected (param, policy) rows in {fig}"]
        for r in rows:
            d = _fig_law(kind, _num(r["param"]))
            what = f"{fig} {r['param']} {r['policy']}"
            z = _num(r["zeta"])
            if r["policy"] == "zero-wait":
                self._close(p, what, z, O.zero_wait(d))
            elif r["policy"] == "median":
                self._close(p, what, z, O.zeta(d, d.quantile(0.5))[0])
            else:
                lo, hi = O.default_window(d)
                best = self._min(d, lo, hi, refined=True)
                self._close(p, what, z, best, O.SEARCH_RTOL)
        return p

    def _check_simulate(self, cmd, res):
        p = []
        d = self._law(cmd)
        sim = cmd.config["simulation"]
        seed = int(cmd.argv[cmd.argv.index("--seed") + 1])
        prefix = cmd.config["output"]["prefix"]
        for pol in cmd.config["policies"]:
            slug = policy_slug(_label(pol))
            rows = _rows(res, f"{prefix}_simulate_{slug}.csv")
            n = sim["replications"]
            if [r["replication"] for r in rows] != [*map(str, range(n)), "pooled"]:
                p.append(f"{slug}: replication rows {[r['replication'] for r in rows]}")
                continue
            if any(int(r["seed"]) != seed + i for i, r in enumerate(rows[:-1])):
                p.append(f"{slug}: replication seeds are not base + i")
            if any(int(r["peaks"]) != sim["peaks"] for r in rows[:-1]):
                p.append(f"{slug}: a replication has the wrong peak count")
            pooled = rows[-1]
            mean, se = _num(pooled["mean"]), _num(pooled["stderr"])
            means = [_num(r["mean"]) for r in rows[:-1]]
            if abs(mean - math.fsum(means) / n) > 1e-9 * abs(mean):
                p.append(f"{slug}: pooled mean {mean} is not the mean of the replications")
            exact = _policy_zeta(d, pol)
            if exact is not None and abs(mean - float(exact)) > O.SIM_SE * se:
                p.append(f"{slug}: pooled mean {mean} is {abs(mean - float(exact)) / se:.1f} "
                         f"pooled SE from the oracle's {mp.nstr(exact, 12)}")
            if sim.get("dump_peaks"):
                p += self._check_peaks(slug, res, prefix, sim, _num(rows[0]["mean"]))
        return p

    def _check_peaks(self, slug, res, prefix, sim, rep0_mean):
        p = []
        peaks = _rows(res, f"{prefix}_peaks_{slug}.csv")
        if len(peaks) != sim["peaks"] or [int(r["k"]) for r in peaks] != list(
            range(1, sim["peaks"] + 1)
        ):
            return [f"{slug}: peak dump has {len(peaks)} rows or skips an index"]
        bad = [r["k"] for r in peaks
               if abs(_num(r["peak"]) - _num(r["received_service"]) - _num(r["interreception"]))
               > O.PEAK_SUM_RTOL * _num(r["peak"])]
        if bad:
            p.append(f"{slug}: peak != received_service + interreception at k={bad[:5]}")
        dump_mean = math.fsum(_num(r["peak"]) for r in peaks) / len(peaks)
        if abs(dump_mean - rep0_mean) > 1e-9 * rep0_mean:
            p.append(f"{slug}: dumped peaks average {dump_mean}, replication 0 says {rep0_mean}")
        if any(int(r["preemptions"]) < 0 for r in peaks):
            p.append(f"{slug}: negative preemption count")
        traj = _rows(res, f"{prefix}_trajectory_{slug}.csv")
        horizon = sim["trajectory_horizon"]
        if not traj or _num(traj[-1]["time"]) > horizon:
            p.append(f"{slug}: trajectory is empty or runs past the horizon")
        # the trajectory shares the peak series of the same seed, cell for cell
        elif any((t["time"], t["peak"], t["reset_to"])
                 != (r["receive_time"], r["peak"], nxt["received_service"])
                 for t, r, nxt in zip(traj, peaks, peaks[1:])):
            p.append(f"{slug}: trajectory disagrees with the peak dump")
        return p


def _fig_law(kind, v):
    if kind == "erlang":
        return O.law("erlang", {"shape": v, "rate": 1.0})
    return O.law("pareto", {"xm": 1.0, "alpha": v})


def _label(pol):
    if isinstance(pol, str):
        return {"zero-wait": "zero-wait", "xmin": "xmin-threshold",
                "median": "median-threshold"}[pol]
    if pol["kind"] == "fixed":
        return f"fixed({pol['theta']:g})"
    s = pol["sampler"]
    return f"randomized[uniform({s['low']:g},{s['high']:g})]"


def _policy_zeta(d, pol):
    """Closed-form zeta of a deterministic simulated policy, None otherwise."""
    if pol == "zero-wait":
        return O.zero_wait(d)
    if pol == "median":
        return O.zeta(d, d.quantile(0.5))[0]
    if isinstance(pol, dict) and pol["kind"] == "fixed":
        return O.zeta(d, pol["theta"])[0]
    return None


def policy_slug(label):
    """The CLI's file-name slug of a policy label."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", label).strip("_")


def _num(cell: str) -> float:
    return float(cell)  # float() reads the CLI's "inf" token


def _rows(res, suffix):
    (name,) = [n for n in res.files if n.endswith(suffix)]
    return list(csv.DictReader(io.StringIO(res.files[name].decode("utf-8"))))
