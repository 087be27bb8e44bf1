"""The four benchmark workloads: inputs made from the seed, the CLI calls
that drive them, and the checks applied to what those calls write.

Every workload runs through `relicert.cli.main` with `--jobs 1`.  A
workload's `prepare` writes its input files and returns the calls; its
`evaluate` reads the artifacts back and returns an `Evaluation`.  An
operation (one CLI call) fails if it raises, returns an unexpected exit
code, writes an artifact that differs from a repeat of the same call, or
breaks an invariant that relates whole outputs.  Per-certificate checks
against the exact reference count toward `passed_frac` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

LINEAR = '{"kind":"linear"}'
CONFIGS = 6  # distinct CLI seeds per run for the repeated-call workloads


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def unit_vector(rng: np.random.Generator, d: int) -> list[float]:
    w = rng.standard_normal(d)
    return (w / np.linalg.norm(w)).tolist()


def cli_seed(seed: int, k: int = 0) -> str:
    """The CLI's --seed for the k-th configuration of a run."""
    return str(int(rng_for(seed, 1000 + k).integers(0, 2**31)))


def gaussian(d: int) -> str:
    return json.dumps({"kind": "gaussian", "d": d})


def linear_hstar(w: list[float]) -> str:
    return json.dumps({"kind": "linear", "w": w})


def write_dataset(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    d = X.shape[1]
    lines = [",".join([f"x{i + 1}" for i in range(d)] + ["label"])]
    for row, label in zip(X, y):
        lines.append(",".join(repr(float(v)) for v in row) + f",{1 if label > 0 else 0}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_points(path: Path, Z: np.ndarray) -> None:
    d = Z.shape[1]
    lines = [",".join(f"x{i + 1}" for i in range(d))]
    lines += [",".join(repr(float(v)) for v in row) for row in Z]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


@dataclass
class Plan:
    calls: list  # {"argv": [...], "units": int}, repeated in turn
    min_calls: int
    trace_calls: int  # fixed work of the traced run
    extras: list = field(default_factory=list)  # untimed calls made afterwards
    reruns: int = 0  # untimed repeats of the fastest timed calls
    info: dict = field(default_factory=dict)  # what evaluate needs


@dataclass
class Evaluation:
    ops: int = 0  # CLI calls checked
    units: int = 0
    passed_units: int = 0
    certified_units: float = 0.0
    tightness: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # [call index, pass, reason]

    def fail_op(self, rec: dict, reason: str) -> None:
        self.failures.append([rec["index"], rec["pass"], reason])

    @property
    def failed_ops(self) -> int:
        """Distinct calls (index, pass) with at least one failure."""
        return len({(i, p) for i, p, _ in self.failures if p is not None})


def _call_error(rec: dict) -> str | None:
    """Why a call failed (it raised or exited non-zero), or None."""
    if rec["error"] is not None:
        return rec["error"]
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}"
    return None


def _artifact(call: dict, rep: int) -> Path:
    return Path(call["out"].replace("{pass}", str(rep)))


# ---------------------------------------------------------------------------


class CertifyCone5:
    """`certify --loss st`, d = 5 linear concept, m = 40 Gaussian training
    points, one file of query points per cone.

    The geometry is a fixed reference problem made from BASE_SEED: per-point
    cost at this size is heavy-tailed (a share of points runs the descent to
    its iteration cap), so cones drawn per seed would change the work by
    tens of percent from seed to seed.  The run seed re-encodes the files
    through exact symmetries instead: each training pair (x, y) is replaced
    by (s c x, s y) with a random sign s and a power-of-two scale c, and each
    query point by -z or z.  The normalised rows y x / |x| that define the
    cone are bitwise unchanged, and so is the search for -z, so every seed
    poses the same problem in different bytes."""

    name = "certify-cone5"
    why = "query-heavy d=5 cone certificates through the sampled bank and descent search"
    d, m = 5, 40
    BASE_SEED = 2304
    sizes = {"full": {"cones": 3, "points": 8, "trace_calls": 3},
             "tiny": {"cones": 1, "points": 1, "trace_calls": 1}}

    def prepare(self, work: Path, seed: int, scale: str) -> Plan:
        size = self.sizes[scale]
        cones, calls = [], []
        for g in range(size["cones"]):
            rng = rng_for(self.BASE_SEED, 10 + g)
            w = np.asarray(unit_vector(rng, self.d))
            X = rng.standard_normal((self.m, self.d))
            y = np.where(X @ w >= 0.0, 1, -1)
            Z = rng.standard_normal((size["points"], self.d))
            enc = rng_for(seed, 10 + g)
            s = enc.choice([-1.0, 1.0], size=self.m) * 2.0 ** enc.integers(-1, 3, size=self.m)
            X, y = s[:, None] * X, np.where(s > 0, y, -y)
            Z = enc.choice([-1.0, 1.0], size=Z.shape[0])[:, None] * Z
            train, pts = work / f"train{g}.csv", work / f"pts{g}.csv"
            write_dataset(train, X, y)
            write_points(pts, Z)
            out = str(work / f"cert{g}-{{pass}}.json")
            calls.append({
                "argv": ["certify", "--data", str(train), "--points", str(pts), "--loss", "st",
                         "--concept", LINEAR, "--seed", cli_seed(self.BASE_SEED), "--out", out],
                "units": int(Z.shape[0]), "out": out,
            })
            cones.append({"X": X, "y": y, "Z": Z})
        return Plan(calls=calls, min_calls=len(calls), trace_calls=size["trace_calls"],
                    reruns=1, info={"cones": cones})

    def evaluate(self, plan: Plan, result: dict, ev: Evaluation) -> None:
        cones = plan.info["cones"]
        for rec in _first_runs(result):
            g = rec["index"]
            call = plan.calls[g]
            ev.units += call["units"]
            if _call_error(rec):
                continue
            rays = checks.extreme_rays_svd(checks.cone_rows(cones[g]["X"], cones[g]["y"]))
            certs = checks.read_certificates(_artifact(call, rec["pass"]))
            for j, (z, cert) in enumerate(zip(cones[g]["Z"], certs)):
                label, dist = checks.reference_certificate(rays, z)
                verdict = checks.judge_certificate(cert, label, dist)
                ev.certified_units += verdict["certified"]
                ev.passed_units += verdict["ok"]
                if verdict["tightness"] is not None:
                    ev.tightness.append(verdict["tightness"])
                if not verdict["ok"]:  # a failed unit, not a failed operation
                    ev.failures.append([g, None, f"point {j}: {verdict['reason']}"])


class AttackVerifyCone3:
    """`attack-verify --loss st --strategy boundary-directed`, d = 3 linear
    concept, m = 60: every trial refits a cone, rebuilds the exhaustive ray
    bank and certifies one attacked point."""

    name = "attack-verify-cone3"
    why = "build-heavy: each trial refits a d=3 cone and rebuilds its exhaustive ray bank"
    d, m, budget = 3, 60, 0.2
    sizes = {"full": {"trials": 300, "configs": CONFIGS}, "tiny": {"trials": 20, "configs": 1}}

    def prepare(self, work: Path, seed: int, scale: str) -> Plan:
        size = self.sizes[scale]
        w = unit_vector(rng_for(seed, 20), self.d)
        calls = []
        for k in range(size["configs"]):
            out = str(work / f"attack{k}-{{pass}}.json")
            calls.append({
                "argv": ["attack-verify", "--concept", LINEAR, "--hstar", linear_hstar(w),
                         "--dist", gaussian(self.d), "--m", str(self.m),
                         "--trials", str(size["trials"]), "--budget", repr(self.budget),
                         "--loss", "st", "--strategy", "boundary-directed",
                         "--seed", cli_seed(seed, k), "--jobs", "1", "--out", out],
                "units": size["trials"], "out": out,
            })
        return _repeated(calls)

    def evaluate(self, plan: Plan, result: dict, ev: Evaluation) -> None:
        for rec in _first_runs(result):
            call = plan.calls[rec["index"]]
            ev.units += call["units"]
            path = _artifact(call, rec["pass"])
            if rec["error"] is not None or not path.is_file():
                continue
            report = checks.read_attack_report(path)
            ev.certified_units += report["certified"]
            ev.passed_units += report["trials"] - report["violations"]
            if report["violations"]:
                ev.fail_op(rec, f"{report['violations']} contract violations")


class SrMassCaArc:
    """`sr-mass --loss ca`, 2-d linear concept (arc representation),
    Gaussian, m = 100, eta1 = 0.1, eta2 = 0.05."""

    name = "sr-mass-ca-arc"
    why = "per-point constrained-adversary loop on the 2-d arc; no cone and no LP"
    d, m, eta1, eta2 = 2, 100, 0.1, 0.05
    sizes = {"full": {"trials": 10, "n": 1000, "configs": CONFIGS},
             "tiny": {"trials": 2, "n": 50, "configs": 1}}

    def _argv(self, seed: int, k: int, size: dict, loss: str, out: str) -> list[str]:
        w = unit_vector(rng_for(seed, 30), self.d)
        return ["sr-mass", "--concept", LINEAR, "--hstar", linear_hstar(w),
                "--dist", gaussian(self.d), "--m", str(self.m), "--eta1", repr(self.eta1),
                "--eta2", repr(self.eta2), "--loss", loss, "--trials", str(size["trials"]),
                "--n", str(size["n"]), "--seed", cli_seed(seed, k), "--jobs", "1", "--out", out]

    def prepare(self, work: Path, seed: int, scale: str) -> Plan:
        size = self.sizes[scale]
        calls, extras = [], []
        for k in range(size["configs"]):
            out = str(work / f"sr{k}-ca-{{pass}}.csv")
            calls.append({"argv": self._argv(seed, k, size, "ca", out),
                          "units": size["trials"] * size["n"], "out": out})
            # the cheap vectorised losses at the same seed, for the order check
            for loss in ("tl", "st"):
                path = str(work / f"sr{k}-{loss}.csv")
                extras.append({"argv": self._argv(seed, k, size, loss, path), "out": path})
        return _repeated(calls, extras)

    def evaluate(self, plan: Plan, result: dict, ev: Evaluation) -> None:
        masses = _extra_masses(plan, result)

        def order_ok(k: int, ca: float) -> bool:
            tl, st = masses[2 * k], masses[2 * k + 1]
            return tl is not None and st is not None and checks.mass_order_ok(ca, tl, st)

        _estimate_passes(plan, result, ev, order_ok, "mass(CA) >= mass(TL) >= mass(ST) violated")


class ShiftStArc:
    """`shift --loss st`, the same 2-d arc concept; P is a 2-d Gaussian and Q
    the same Gaussian shifted by 0.5 along the target normal."""

    name = "shift-st-arc"
    why = "batched arc geometry, sampling and the shared trial loop at large n"
    d, m, eta1, eta2, shift = 2, 100, 0.1, 0.05, 0.5
    sizes = {"full": {"trials": 5, "n": 400_000, "configs": CONFIGS},
             "tiny": {"trials": 2, "n": 1000, "configs": 1}}

    def _argv(self, seed: int, k: int, size: dict, loss: str, out: str) -> list[str]:
        w = unit_vector(rng_for(seed, 40), self.d)
        q = {"kind": "mean_shift", "mu": [self.shift * v for v in w],
             "base": {"kind": "gaussian", "d": self.d}}
        argv = ["shift", "--concept", LINEAR, "--hstar", linear_hstar(w),
                "--p", gaussian(self.d), "--q", json.dumps(q), "--m", str(self.m),
                "--trials", str(size["trials"]), "--n", str(size["n"]), "--loss", loss,
                "--seed", cli_seed(seed, k), "--jobs", "1", "--out", out]
        if loss != "none":
            argv += ["--eta1", repr(self.eta1), "--eta2", repr(self.eta2)]
        return argv

    def prepare(self, work: Path, seed: int, scale: str) -> Plan:
        size = self.sizes[scale]
        calls, extras = [], []
        for k in range(size["configs"]):
            out = str(work / f"shift{k}-st-{{pass}}.csv")
            calls.append({"argv": self._argv(seed, k, size, "st", out),
                          "units": size["trials"] * size["n"], "out": out})
            # plain reliable correctness at the same seed bounds the ST mass
            path = str(work / f"shift{k}-none.csv")
            extras.append({"argv": self._argv(seed, k, size, "none", path), "out": path})
        return _repeated(calls, extras)

    def evaluate(self, plan: Plan, result: dict, ev: Evaluation) -> None:
        plain = _extra_masses(plan, result)

        def bound_ok(k: int, st: float) -> bool:
            return plain[k] is not None and checks.shift_bound_ok(st, plain[k])

        _estimate_passes(plan, result, ev, bound_ok,
                         "ST mass exceeds the plain reliable-correctness mass")


def _repeated(calls: list, extras: list | None = None) -> Plan:
    """Cycle through the calls until the time budget is spent, at least
    twice each so every artifact is compared with a repeat."""
    return Plan(calls=calls, min_calls=2 * len(calls), trace_calls=min(2, len(calls)),
                extras=extras or [])


def _extra_masses(plan: Plan, result: dict) -> list:
    return [None if _call_error(rec) else checks.read_estimate_mass(plan.extras[rec["index"]]["out"])
            for rec in result["extras"]]


def _estimate_passes(plan: Plan, result: dict, ev: Evaluation, invariant, what: str) -> None:
    """Shared evaluation of the estimator calls: each call's mass must keep
    the cross-loss invariant, or the call is a failed operation."""
    for rec in _first_runs(result):
        call = plan.calls[rec["index"]]
        ev.units += call["units"]
        if _call_error(rec):
            continue
        mass = checks.read_estimate_mass(_artifact(call, rec["pass"]))
        ev.certified_units += mass * call["units"]
        if invariant(rec["index"], mass):
            ev.passed_units += call["units"]
        else:
            ev.fail_op(rec, what)


WORKLOADS = {w.name: w for w in (CertifyCone5(), AttackVerifyCone3(), SrMassCaArc(), ShiftStArc())}


def _first_runs(result: dict) -> list:
    """The first record of each distinct call.  Repeats write the same bytes
    (`evaluate` checks that), so quality is judged once per call and does not
    depend on how many repeats fit in the time budget."""
    first: dict = {}
    for rec in result["records"]:
        first.setdefault(rec["index"], rec)
    return list(first.values())


def evaluate(wl, plan: Plan, result: dict, ev: Evaluation) -> None:
    """Apply every check to one worker result.  Each call that raised or
    returned an exit code other than 0 is a failed operation, and so is each
    repeat whose artifact differs, byte for byte, from pass 0 of its call;
    the workload then judges the content."""
    for rec in result["records"]:
        ev.ops += 1
        bad = _call_error(rec)
        if bad:
            ev.fail_op(rec, bad)
    for rec in result["records"] + result["reruns"]:
        if rec["pass"] == 0 or _call_error(rec):
            continue
        call = plan.calls[rec["index"]]
        if not same_bytes(_artifact(call, 0), _artifact(call, rec["pass"])):
            ev.fail_op(rec, "artifact differs from pass 0")
    wl.evaluate(plan, result, ev)


def radius_tightness(ev: Evaluation) -> float:
    """Mean of min(issued, exact) / exact; 1.0 on workloads that issue no
    individual radii (their checks are exact invariants instead)."""
    return float(np.mean(ev.tightness)) if ev.tightness else 1.0
