"""Tests of the benchmark itself: the exact reference, a tiny run of every
workload, and that every check flags a deliberately corrupted result.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layertrace
import run
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def cli(*argv) -> int:
    from relicert.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


# ---------------------------------------------------------------------------
# exact reference
# ---------------------------------------------------------------------------


def test_reference_matches_certify_on_exhaustive_d3_path(tmp_path):
    rng = np.random.default_rng(5)
    w = np.array(workloads.unit_vector(rng, 3))
    X = rng.standard_normal((20, 3))  # C(20, 2) rays: the exhaustive path
    y = np.where(X @ w >= 0.0, 1, -1)
    Z = rng.standard_normal((30, 3))
    workloads.write_dataset(tmp_path / "train.csv", X, y)
    workloads.write_points(tmp_path / "pts.csv", Z)
    out = tmp_path / "certs.json"
    assert cli("certify", "--data", str(tmp_path / "train.csv"), "--points",
               str(tmp_path / "pts.csv"), "--loss", "st", "--concept", workloads.LINEAR,
               "--out", str(out)) == 0
    rays = checks.extreme_rays_svd(checks.cone_rows(X, y))
    certified = 0
    for z, cert in zip(Z, checks.read_certificates(out)):
        label, dist = checks.reference_certificate(rays, z)
        if cert["prediction"] == "abstain":
            assert label == 0
            continue
        certified += 1
        assert cert["prediction"] == (1 if label > 0 else 0)
        assert cert["radius"] == pytest.approx(dist, rel=1e-9, abs=1e-12)
        assert checks.judge_certificate(cert, label, dist)["ok"]
    assert certified > 0


# ---------------------------------------------------------------------------
# tiny runs of every workload, traced and untraced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_workload_names_match_benchmark_file():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "shift-st-arc", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# every check flags a corrupted result
# ---------------------------------------------------------------------------


def _run_tiny(name: str, work: Path, passes: int = 2):
    wl = workloads.WORKLOADS[name]
    plan = wl.prepare(work, 3, "tiny")
    result = run.run_worker(plan, work, "t", fixed=max(passes, plan.min_calls))
    return wl, plan, result


def _evaluate(wl, plan, result) -> workloads.Evaluation:
    ev = workloads.Evaluation()
    workloads.evaluate(wl, plan, result, ev)
    return ev


def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def test_judge_flags_radius_inflated_by_one_percent():
    rays = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    z = np.array([0.5, 1.0, 0.3])
    label, dist = checks.reference_certificate(rays, z)
    exact = {"prediction": 1, "radius": dist}
    assert checks.judge_certificate(exact, label, dist)["ok"]
    assert not checks.judge_certificate({"prediction": 1, "radius": 1.01 * dist}, label, dist)["ok"]
    assert not checks.judge_certificate({"prediction": 0, "radius": 0.5 * dist}, label, dist)["ok"]
    looser = checks.judge_certificate({"prediction": 1, "radius": 0.5 * dist}, label, dist)
    assert looser["ok"] and looser["tightness"] == pytest.approx(0.5)
    assert checks.judge_certificate({"prediction": "abstain", "radius": -1}, label, dist)["ok"]


def test_cone5_check_flags_inflated_radius(tmp_path):
    wl, plan, result = _run_tiny("certify-cone5", tmp_path, passes=1)
    cone = plan.info["cones"][0]
    rays = checks.extreme_rays_svd(checks.cone_rows(cone["X"], cone["y"]))
    label, dist = checks.reference_certificate(rays, cone["Z"][0])
    assert label != 0  # the tiny problem's one point is certifiable
    art = workloads._artifact(plan.calls[0], 0)

    def set_radius(r):
        def edit(p):
            p["certificates"][0].update(prediction=1 if label > 0 else 0, radius=r)
        _rewrite_json(art, edit)

    set_radius(dist)
    ev = _evaluate(wl, plan, result)
    assert ev.passed_units == ev.units == 1
    set_radius(dist * 1.01)
    ev = _evaluate(wl, plan, result)
    assert ev.passed_units == 0
    assert any("exceeds exact distance" in reason for _, _, reason in ev.failures)


def test_attack_check_flags_violations(tmp_path):
    wl, plan, result = _run_tiny("attack-verify-cone3", tmp_path)
    assert _evaluate(wl, plan, result).failed_ops == 0
    art = workloads._artifact(plan.calls[0], 0)
    _rewrite_json(art, lambda p: p["report"].update(violations=1))
    ev = _evaluate(wl, plan, result)
    assert ev.failed_ops >= 1 and ev.passed_units == ev.units - 1


def _replace_mass(path: Path, mass: float) -> None:
    lines = path.read_text().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#")).split(",")
    col = header.index("mass")
    row = lines[-1].split(",")
    row[col] = repr(mass)
    path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")


def test_sr_mass_check_flags_broken_mass_order(tmp_path):
    wl, plan, result = _run_tiny("sr-mass-ca-arc", tmp_path)
    assert _evaluate(wl, plan, result).failed_ops == 0
    ca = checks.read_estimate_mass(workloads._artifact(plan.calls[0], 0))
    _replace_mass(Path(plan.extras[0]["out"]), ca + 0.01)  # TL mass above the CA mass
    assert _evaluate(wl, plan, result).failed_ops >= 1


def test_shift_check_flags_st_mass_above_plain(tmp_path):
    wl, plan, result = _run_tiny("shift-st-arc", tmp_path)
    assert _evaluate(wl, plan, result).failed_ops == 0
    st = checks.read_estimate_mass(workloads._artifact(plan.calls[0], 0))
    _replace_mass(Path(plan.extras[0]["out"]), st - 0.01)
    assert _evaluate(wl, plan, result).failed_ops >= 1


def test_repeat_check_flags_a_changed_artifact(tmp_path):
    wl, plan, result = _run_tiny("attack-verify-cone3", tmp_path)
    art = workloads._artifact(plan.calls[0], 1)
    art.write_bytes(art.read_bytes().replace(b'"trials"', b'"Trials"', 1))
    ev = _evaluate(wl, plan, result)
    assert any("differs from pass 0" in reason for _, _, reason in ev.failures)


def test_failed_call_is_a_failed_operation(tmp_path):
    wl, plan, result = _run_tiny("shift-st-arc", tmp_path)
    result["records"][0].update(exit=2)
    ev = _evaluate(wl, plan, result)
    assert ev.failed_ops >= 1 and ev.passed_units < ev.units


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_restores_the_package():
    import relicert.estimators as est
    import relicert.lp as lp

    before = (est.fit_version_space, lp.maximize_over_cone_box)
    tracer = layertrace.Tracer()
    tracer.install()
    assert est.fit_version_space is not before[0]
    tracer.uninstall()
    assert (est.fit_version_space, lp.maximize_over_cone_box) == before


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1], ["b", 5.0, 6.0, 0, 1],
             ["b", 5.2, 5.5, 2, 1]]
    totals = layertrace.span_totals(spans)
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(6.0)}
    # the nested "b" span is not counted twice in the inclusive time
    assert totals["b"]["s"] == pytest.approx(4.0) and totals["b"]["calls"] == 3


def test_missing_target_reports_missing_metrics():
    missing = ["relicert.lp.maximize_over_cone_box"]
    values = layertrace.layer_metrics([], {}, missing)
    assert values["lp.solves"] is None and values["lp.pivots"] is None
    assert values["version_space.fit_calls"] == 0
