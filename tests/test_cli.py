import json
import math
import re

import numpy as np
import pytest

from relicert.cli import INTERNAL_ERROR, _parser, main, read_points_csv
from relicert.core import read_dataset_csv
from relicert.estimators import ESTIMATE_CSV_HEADER
from relicert.losses import LossKind
from relicert.lp import LPError
from relicert.reliability import LabelConstancyError, certify, margin_certify_many
from relicert.version_space import erm, fit_version_space

GAUSS1 = '{"kind":"gaussian","d":1}'
THRESH = '{"kind":"threshold"}'
HSTAR = '{"kind":"threshold","t":0.0}'
GAUSS2 = '{"kind":"gaussian","d":2}'
LINEAR2 = ["--concept", '{"kind":"linear"}', "--hstar", '{"kind":"linear","w":[0.6,0.8]}']


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def train_csv(tmp_path):
    out = tmp_path / "train.csv"
    code = run(
        "gen", "--dist", GAUSS1, "--hstar", HSTAR, "--m", "80",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    return out


def test_gen_round_trip(train_csv):
    S = read_dataset_csv(train_csv)
    assert len(S) == 80 and S.dimension == 1
    # labels consistent with the generating threshold
    assert np.all((S.X[:, 0] >= 0) == (S.y > 0))


def test_certify_matches_library(tmp_path, train_csv):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n-1.5\n0.4\n0.01\n2.5\n")
    out = tmp_path / "certs.json"
    code = run(
        "certify", "--data", str(train_csv), "--points", str(pts),
        "--loss", "st", "--concept", THRESH, "--out", str(out), "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["version"].startswith("relicert ")
    S = read_dataset_csv(train_csv)
    vs = fit_version_space(S, "threshold")
    for i, rec in enumerate(payload["certificates"]):
        cert = certify(vs, rec["point"], LossKind.ST, seed=3 ^ i)
        want = cert.to_json_dict(rec["point"], seed=3)
        assert rec == want  # radii equal the direct library call exactly


def test_rerun_byte_identical(tmp_path, train_csv):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.9\n-0.2\n")
    out = tmp_path / "c.json"
    argv = ["certify", "--data", str(train_csv), "--points", str(pts),
            "--loss", "tl", "--concept", THRESH, "--out", str(out), "--seed", "1"]
    assert run(*argv) == 0
    first = out.read_bytes()
    assert run(*argv) == 0
    assert out.read_bytes() == first


def test_unknown_flag_exits_2(capsys):
    assert run("--definitely-not-a-flag") == 2


def test_unknown_loss_exits_2(train_csv, tmp_path):
    pts = tmp_path / "p.csv"
    pts.write_text("x1\n0.0\n")
    code = run("certify", "--data", str(train_csv), "--points", str(pts),
               "--loss", "zz", "--concept", THRESH, "--out", str(tmp_path / "o"))
    assert code == 2


def test_missing_file_exits_2(tmp_path):
    code = run("certify", "--data", str(tmp_path / "nope.csv"),
               "--points", str(tmp_path / "nope2.csv"), "--loss", "st",
               "--concept", THRESH, "--out", str(tmp_path / "o.json"))
    assert code == 2


def test_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,label\n0.5,7\n")
    pts = tmp_path / "p.csv"
    pts.write_text("x1\n0.0\n")
    code = run("certify", "--data", str(bad), "--points", str(pts),
               "--loss", "st", "--concept", THRESH, "--out", str(tmp_path / "o.json"))
    assert code == 2


def test_missing_required_option_exits_2(tmp_path):
    assert run("sr-mass", "--out", str(tmp_path / "x.csv")) == 2


def test_attack_verify_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    code = run(
        "attack-verify", "--concept", THRESH, "--hstar", HSTAR, "--dist", GAUSS1,
        "--m", "120", "--trials", "150", "--budget", "0.05", "--loss", "st",
        "--strategy", "random-ball", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["violations"] == 0
    assert payload["report"]["certified"] > 0
    for trials in ("0", "-5"):
        assert run("attack-verify", "--concept", THRESH, "--hstar", HSTAR, "--dist", GAUSS1,
                   "--m", "120", "--trials", trials, "--budget", "0.05", "--loss", "st") == 2


def test_sr_mass_csv_schema(tmp_path):
    out = tmp_path / "sr.csv"
    argv = [
        "sr-mass", "--concept", THRESH, "--hstar", HSTAR,
        "--dist", '{"kind":"uniform_cube","d":1,"lo":-1,"hi":1}',
        "--m", "150", "--eta1", "0.05", "--eta2", "0.05", "--loss", "st",
        "--n", "1000", "--seed", "2", "--out", str(out),
    ]
    assert run(*argv, "--trials", "3") == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("config" in c for c in comments)
    assert data[0] == ESTIMATE_CSV_HEADER
    parts = data[1].split(",")
    assert parts[0] == "sr-mass" and parts[2] == "st"
    mass = float(parts[9])
    assert 0.7 <= mass <= 1.0
    out.unlink()
    assert run(*argv, "--trials", "0") == 2
    assert not out.exists()


def test_theta_cli(tmp_path):
    out = tmp_path / "theta.csv"
    code = run(
        "theta", "--concept", THRESH, "--hstar", HSTAR,
        "--p", '{"kind":"uniform_cube","d":1,"lo":-0.5,"hi":0.5}',
        "--q", '{"kind":"uniform_cube","d":1,"lo":-1,"hi":1}',
        "--epsilon", "0.01", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    final = [ln for ln in text.splitlines() if ln.startswith("# theta ")][0]
    assert float(final.split()[-1]) == pytest.approx(1.0, abs=0.1)


def test_theta_cli_rejects_empty_sample(tmp_path):
    out = tmp_path / "theta.csv"
    code = run(
        "theta", *LINEAR2, "--p", GAUSS2, "--q", GAUSS2,
        "--epsilon", "0.01", "--n", "0", "--out", str(out),
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sr-mass", *LINEAR2, "--dist", GAUSS2, "--m", "100", "--eta1", "nan", "--eta2", "0.05",
     "--loss", "ca", "--trials", "2", "--n", "200"],
    ["sr-mass", *LINEAR2, "--dist", GAUSS2, "--m", "100", "--eta1", "nan", "--eta2", "0.05",
     "--loss", "st", "--trials", "2", "--n", "200"],
    ["attack-verify", *LINEAR2, "--dist", GAUSS2, "--m", "60", "--trials", "5",
     "--budget", "nan", "--loss", "st"],
    *(["sr-mass", *LINEAR2, "--dist", GAUSS2, "--m", "100", "--eta1", "inf", "--eta2", "0.05",
       "--loss", loss, "--trials", "2", "--n", "200"] for loss in ("ca", "st", "tl")),
    ["shift", *LINEAR2, "--p", GAUSS2, "--q", GAUSS2, "--m", "100", "--eta2", "inf",
     "--loss", "st", "--trials", "2", "--n", "200"],
    ["attack-verify", *LINEAR2, "--dist", GAUSS2, "--m", "60", "--trials", "5",
     "--budget", "inf", "--loss", "st"],
], ids=["sr-mass-ca", "sr-mass-st", "attack-verify", "sr-mass-ca-inf", "sr-mass-st-inf",
        "sr-mass-tl-inf", "shift-inf", "attack-verify-inf"])
def test_nan_attack_strength_exits_2(tmp_path, argv):
    # argparse's float accepts nan and inf, so each range check must reject them
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    assert not out.exists()


_SIZED = {
    "attack-verify": ["attack-verify", *LINEAR2, "--dist", GAUSS2, "--trials", "20",
                      "--budget", "0.2", "--loss", "st"],
    "sr-mass": ["sr-mass", *LINEAR2, "--dist", GAUSS2, "--eta1", "0.1", "--eta2", "0.05",
                "--loss", "st", "--trials", "2", "--n", "50"],
    "shift": ["shift", *LINEAR2, "--p", GAUSS2, "--q", GAUSS2, "--loss", "st",
              "--eta1", "0.1", "--trials", "2", "--n", "50"],
}


@pytest.mark.parametrize("command", sorted(_SIZED))
def test_sample_size_exit_codes(command, tmp_path, capsys):
    # an empty linear sample fits the whole class, which disputes every
    # point but the origin, and the run reports; a negative m is a usage error
    out = tmp_path / "out"
    assert run(*_SIZED[command], "--m", "0", "--out", str(out)) == 0
    if command == "attack-verify":
        report = json.loads(out.read_text())["report"]
        assert (report["trials"], report["certified"], report["violations"]) == (20, 0, 0)
    else:
        row = [ln for ln in out.read_text().splitlines() if ln[0].isalpha()][-1]
        assert float(row.split(",")[9]) == 0.0
    out.unlink()
    capsys.readouterr()
    assert run(*_SIZED[command], "--m", "-3", "--out", str(out)) == 2
    assert "m must be nonnegative, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
@pytest.mark.parametrize("command", sorted(_SIZED))
def test_jobs_below_one_exit_2(command, jobs, tmp_path, capsys):
    # a worker count below 1 is a usage error, as a negative m is
    out = tmp_path / "out"
    assert run(*_SIZED[command], "--m", "20", "--jobs", jobs, "--out", str(out)) == 2
    assert f"jobs must be positive, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_shift_cli(tmp_path):
    out = tmp_path / "shift.csv"
    argv = [
        "shift", "--concept", THRESH, "--hstar", HSTAR,
        "--p", '{"kind":"uniform_cube","d":1,"lo":-0.5,"hi":0.5}',
        "--q", '{"kind":"uniform_cube","d":1,"lo":-1,"hi":1}',
        "--m", "500", "--n", "1000", "--out", str(out),
    ]
    assert run(*argv, "--trials", "4") == 0
    row = [ln for ln in out.read_text().splitlines() if ln.startswith("pq-")][0]
    assert float(row.split(",")[9]) > 0.99
    assert run(*argv, "--trials", "0") == 2



# a concept class and a target of another class: (concept, hstar, dist)
_CONSTANT = '{"kind":"offset","base":{"kind":"constant","params":[0.5]}}'
_CUBE2 = '{"kind":"uniform_cube","d":2}'
_MISMATCHED = {
    "threshold-linear": (THRESH, '{"kind":"linear","w":[1.0]}', GAUSS1),
    "offset-linear": (_CONSTANT, '{"kind":"linear","w":[0.6,0.8]}', _CUBE2),
    "offset-other-base": (_CONSTANT, '{"kind":"offset","base":{"kind":"sine",'
                          '"params":[0.5,0.1,1.0]},"offset":0.0}', _CUBE2),
}
_TARGET_CALLS = {
    **{f"sr-mass-{loss}": ["sr-mass", "--m", "50", "--eta1", "0.1", "--eta2", "0.05",
                           "--loss", loss, "--trials", "2", "--n", "50"]
       for loss in ("st", "ca", "tl")},
    **{f"shift-{loss}": ["shift", "--m", "50", "--loss", loss, "--trials", "2", "--n", "50"]
       for loss in ("none", "st")},
    "theta": ["theta", "--epsilon", "0.05", "--n", "200"],
    **{f"attack-verify-{loss}": ["attack-verify", "--m", "50", "--trials", "20",
                                 "--budget", "0.2", "--loss", loss] for loss in ("st", "ca")},
}


@pytest.mark.parametrize("call", sorted(_TARGET_CALLS))
@pytest.mark.parametrize("pair", sorted(_MISMATCHED))
def test_target_of_another_class_exits_2(pair, call, tmp_path, capsys):
    # every command that takes a target checks it against the concept class
    # first, an offset target's base included
    concept, hstar, dist = _MISMATCHED[pair]
    argv = _TARGET_CALLS[call]
    where = ["--p", dist, "--q", dist] if argv[0] in ("shift", "theta") else ["--dist", dist]
    out = tmp_path / "out"
    capsys.readouterr()
    code = run(*argv, "--concept", concept, "--hstar", hstar, *where, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("error: the target's class {") and "is not the concept class {" in err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "concept": {"kind": "threshold"},
        "hstar": {"kind": "threshold", "t": 0.0},
        "dist": {"kind": "gaussian", "d": 1},
        "m": 100, "trials": 60, "budget": 0.05, "loss": "tl",
        "strategy": "random-ball", "seed": 1,
    }))
    assert run("attack-verify", "--config", str(cfg)) == 0
    # flags win over the config file: an invalid override must surface
    assert run("attack-verify", "--config", str(cfg), "--budget", "-1") == 2


def test_margin_method_cli(tmp_path, train_csv):
    # d = 1, eps = 0.05: alpha = 3, so a point certifies when 0.15 <= |z| < 3
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.9\n-2.0\n0.1\n5.0\n")
    out = tmp_path / "m.json"
    argv = ["certify", "--data", str(train_csv), "--points", str(pts), "--loss", "st",
            "--concept", '{"kind":"linear"}', "--method", "margin", "--out", str(out)]
    assert run(*argv, "--eps", "0.05") == 0
    recs = json.loads(out.read_text())["certificates"]
    assert all(rec["method"] == "margin" for rec in recs)
    h = erm(read_dataset_csv(train_csv), "linear")
    labels, radii = margin_certify_many(h, [rec["point"] for rec in recs], 0.05)
    assert [rec["prediction"] for rec in recs] == [
        "abstain" if y == 0 else int(y > 0) for y in labels.tolist()
    ]
    assert [rec["radius"] for rec in recs] == radii.tolist()
    assert labels.tolist() == [1, -1, 0, 0]
    for bad in (["--eps", "nan"], ["--eps", "0.05", "--c1=-5"], ["--eps", "0.05", "--c1", "0"],
                ["--eps", "0.05", "--c1", "nan"], ["--eps", "0.05", "--c1", "inf"]):
        out.unlink(missing_ok=True)
        assert run(*argv, *bad) == 2
        assert not out.exists()


def test_non_finite_config_exits_2(tmp_path, train_csv):
    # the exact method reads no eps: a value, non-finite ones included, is a
    # usage error, and no NaN or Infinity reaches an artifact
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.9\n")
    out = tmp_path / "c.json"
    for eps in ("nan", "inf"):
        assert run("certify", "--data", str(train_csv), "--points", str(pts), "--loss", "st",
                   "--concept", THRESH, "--eps", eps, "--out", str(out)) == 2
        assert not out.exists()


def test_exact_method_rejects_margin_options(tmp_path, train_csv, capsys):
    # --eps and --c1 set only the margin certifier; with the exact method
    # they would be echoed into the artifact as settings that had no effect
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.9\n")
    out = tmp_path / "c.json"
    argv = ["certify", "--data", str(train_csv), "--points", str(pts), "--loss", "ca",
            "--concept", THRESH, "--out", str(out)]
    for bad in (["--c1=-5"], ["--method", "exact", "--eps", "0.05"],
                ["--eps", "0.05", "--c1", "2"]):
        capsys.readouterr()
        assert run(*argv, *bad) == 2
        assert "error: --method exact does not take --" in capsys.readouterr().err
        assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c1": -5}))
    assert run(*argv, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "error: --method exact does not take --c1\n"
    assert not out.exists()
    assert run(*argv) == 0


@pytest.mark.parametrize("concept,train_dim,point_dim", [("linear", 2, 3), ("threshold", 1, 2)])
def test_certify_point_dimension_mismatch_exits_2(concept, train_dim, point_dim, tmp_path,
                                                  capsys):
    train = tmp_path / "train.csv"
    w = [1.0] + [0.0] * (train_dim - 1)
    hstar = {"kind": "linear", "w": w} if concept == "linear" else json.loads(HSTAR)
    assert run("gen", "--dist", json.dumps({"kind": "gaussian", "d": train_dim}),
               "--hstar", json.dumps(hstar), "--m", "30", "--seed", "2",
               "--out", str(train)) == 0
    pts = tmp_path / "pts.csv"
    pts.write_text(",".join(f"x{i + 1}" for i in range(point_dim)) + "\n"
                   + ",".join(["0.5"] * point_dim) + "\n")
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run("certify", "--data", str(train), "--points", str(pts), "--loss", "st",
               "--concept", json.dumps({"kind": concept}), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: version space dimension {train_dim} != point dimension {point_dim}\n"
    assert not out.exists()


def test_parser_is_reused_across_calls(tmp_path, train_csv, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.9\n")
    out = tmp_path / "m.json"
    argv = ["certify", "--data", str(train_csv), "--points", str(pts), "--loss", "st",
            "--concept", '{"kind":"linear"}', "--eps", "0.05", "--out", str(out)]
    capsys.readouterr()
    assert run(*argv, "--method", "bisection") == 2  # the halving method is gone
    first = capsys.readouterr()
    assert "invalid choice: 'bisection'" in first.err and first.out == ""
    assert run(*argv, "--method", "margin") == 0
    second = capsys.readouterr()
    assert second.err == "" and second.out == f"wrote 1 certificates to {out}\n"
    assert _parser() is _parser()


def test_points_csv_requires_coordinate_header(tmp_path):
    bad = tmp_path / "p.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(Exception):
        read_points_csv(str(bad))


def test_version_flag():
    assert run("--version") == 0


@pytest.mark.parametrize(
    "target, error",
    [
        ("relicert.reliability._check_balls", LabelConstancyError),
        ("relicert.version_space.max_margin_direction", LPError),
    ],
)
def test_internal_errors_exit_3(tmp_path, monkeypatch, capsys, target, error):
    # the exact certifier's fit solves no LP; the margin certifier's erm does
    train = tmp_path / "train3.csv"
    assert run("gen", "--dist", '{"kind":"gaussian","d":3}',
               "--hstar", '{"kind":"linear","w":[1.0,0.0,0.0]}',
               "--m", "40", "--seed", "2", "--out", str(train)) == 0
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n3.0,0.0,0.0\n")

    def boom(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(target, boom)
    capsys.readouterr()
    method = ("--method", "margin", "--eps", "0.01") if error is LPError else ()
    code = run("certify", "--data", str(train), "--points", str(pts), "--loss", "st",
               "--concept", '{"kind":"linear"}', "--out", str(tmp_path / "c.json"), *method)
    assert code == INTERNAL_ERROR == 3
    assert capsys.readouterr().err == "error: injected failure\n"


def test_ray_cap_exits_2(tmp_path, monkeypatch, capsys):
    # a cone with more extreme rays than the cap is not represented
    train = tmp_path / "train5.csv"
    assert run("gen", "--dist", '{"kind":"gaussian","d":5}',
               "--hstar", '{"kind":"linear","w":[1.0,0.0,0.0,0.0,0.0]}',
               "--m", "40", "--seed", "2", "--out", str(train)) == 0
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3,x4,x5\n3.0,0.0,0.0,0.0,0.0\n")
    argv = ("certify", "--data", str(train), "--points", str(pts), "--loss", "st",
            "--concept", '{"kind":"linear"}', "--out", str(tmp_path / "c.json"))
    monkeypatch.setattr("relicert.version_space.RAY_CAP", 8)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the cone's ray build reached ") and "above the cap of 8" in err
    assert int(err.split("reached ")[1].split()[0]) > 8
    monkeypatch.setattr("relicert.version_space.RAY_CAP", 100_000)
    assert run(*argv) == 0


def test_antipodal_training_data_exits_0(tmp_path):
    # (0, 1) and (0, -1), both labelled 1: the consistent normals are the
    # line w2 = 0, so points off the second axis are disputed
    train = tmp_path / "antipodal.csv"
    train.write_text("x1,x2,label\n0.0,1.0,1\n0.0,-1.0,1\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.0,2.0\n1.0,0.5\n")
    out = tmp_path / "c.json"
    assert run("certify", "--data", str(train), "--points", str(pts), "--loss", "st",
               "--concept", '{"kind":"linear"}', "--out", str(out)) == 0
    certs = json.loads(out.read_text())["certificates"]
    assert [c["prediction"] for c in certs] == [1, "abstain"]
    assert certs[0]["radius"] == 0.0


# every subcommand's options, as the parser declared them before its option
# table existed, less gen's --concept, which gen never read
HELP_OPTIONS = {
    "gen": "config dist hstar m out seed",
    "certify": "c1 concept config data eps loss method out points seed",
    "sr-mass": "concept config dist eta1 eta2 hstar jobs loss m n out seed trials",
    "theta": "concept config epsilon hstar n out p q seed",
    "shift": "concept config eta1 eta2 hstar jobs loss m n out p q seed trials",
    "attack-verify": "budget concept config dist hstar jobs loss m out seed strategy trials",
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_the_same_options(command, capsys):
    assert run(command, "--help") == 0
    listed = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
    assert listed == set(HELP_OPTIONS[command].split()) | {"help"}


def config_cases(train_csv, pts):
    gauss2 = {"kind": "gaussian", "d": 2}
    thresh, hstar = json.loads(THRESH), json.loads(HSTAR)
    p = {"kind": "uniform_cube", "d": 1, "lo": -0.5, "hi": 0.5}
    q = {"kind": "uniform_cube", "d": 1, "lo": -1, "hi": 1}
    return {
        "gen": {"dist": gauss2, "hstar": {"kind": "linear", "w": [0.6, 0.8]}, "m": 30,
                "seed": 4},
        "certify": {"data": str(train_csv), "points": str(pts), "loss": "st",
                    "concept": thresh, "seed": 3},
        "sr-mass": {"concept": thresh, "hstar": hstar, "dist": json.loads(GAUSS1), "m": 60,
                    "eta1": 0.05, "eta2": 0.02, "loss": "ca", "trials": 2, "n": 300,
                    "seed": 2},
        "theta": {"concept": thresh, "hstar": hstar, "p": p, "q": q, "epsilon": 0.05,
                  "n": 2000, "seed": 1},
        "shift": {"concept": thresh, "hstar": hstar, "p": p, "q": q, "m": 60, "trials": 2,
                  "n": 300, "loss": "st", "eta1": 0.05, "eta2": 0.02, "seed": 5},
        "attack-verify": {"concept": thresh, "hstar": hstar, "dist": json.loads(GAUSS1),
                          "m": 40, "trials": 20, "budget": 0.05, "loss": "st",
                          "strategy": "random-ball", "seed": 6},
    }


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_config_file_and_flags_write_the_same_artifact(command, tmp_path, train_csv):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n-1.5\n0.4\n")
    values = config_cases(train_csv, pts)[command]
    flags = []
    for key, value in values.items():
        flags += [f"--{key}", json.dumps(value) if isinstance(value, dict) else str(value)]
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    assert run(command, *flags, "--out", str(by_flags)) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**values, "out": str(by_config)}))
    assert run(command, "--config", str(cfg)) == 0
    assert by_flags.read_bytes() == by_config.read_bytes()


ATTACK_CONFIG = {
    "concept": {"kind": "threshold"}, "hstar": {"kind": "threshold", "t": 0.0},
    "dist": {"kind": "gaussian", "d": 1}, "m": 40, "trials": 5, "budget": 0.05,
    "loss": "st", "seed": 3,
}


@pytest.mark.parametrize("entry", [
    {"m": None},
    {"m": 2.5},
    {"m": [40]},
    {"seed": True},
    {"budget": "far"},
    {"concept": [1]},
    {"hstar": 5},
    {"loss": "xx"},
    {"strategy": 3},
])
def test_config_entry_of_the_wrong_type_exits_2(entry, tmp_path, capsys):
    # every entry is checked as its flag would be, and a bad one is a usage
    # error, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**ATTACK_CONFIG, **entry}))
    assert run("attack-verify", "--config", str(cfg)) == 2
    key = next(iter(entry))
    assert f"config entry {key!r}" in capsys.readouterr().err


def test_config_numbers_as_text_convert_as_flags_do(tmp_path):
    by_config, by_text = tmp_path / "a.json", tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**ATTACK_CONFIG, "out": str(by_config)}))
    assert run("attack-verify", "--config", str(cfg)) == 0
    text = {k: str(v) if k in ("m", "trials", "budget", "seed") else v
            for k, v in ATTACK_CONFIG.items()}
    cfg.write_text(json.dumps({**text, "out": str(by_text)}))
    assert run("attack-verify", "--config", str(cfg)) == 0
    assert by_config.read_bytes() == by_text.read_bytes()
    by_float = tmp_path / "c.json"  # integral floats convert as the ints they equal
    floats = {k: float(v) if k in ("m", "trials", "seed") else v for k, v in ATTACK_CONFIG.items()}
    text = json.dumps({**floats, "out": str(by_float)})
    cfg.write_text(text.replace('"m": 40.0', '"m": 4e1'))
    assert '"m": 4e1' in cfg.read_text() and '"trials": 5.0' in cfg.read_text()
    assert run("attack-verify", "--config", str(cfg)) == 0
    assert by_config.read_bytes() == by_float.read_bytes()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    assert run("attack-verify", "--config", str(cfg)) == 2
    assert "JSON object" in capsys.readouterr().err


def test_json_flag_must_be_an_object(capsys):
    argv = ["attack-verify", "--concept", "[1]", "--hstar", HSTAR, "--dist", GAUSS1,
            "--m", "5", "--trials", "2", "--budget", "0.1", "--loss", "st"]
    assert run(*argv) == 2
    assert "--concept must be a JSON object" in capsys.readouterr().err


def test_shift_config_accepts_its_own_loss_choice(tmp_path):
    # the per-command choices apply to config entries: shift alone takes "none"
    q = {"kind": "uniform_cube", "d": 1, "lo": -1, "hi": 1}
    cfg = tmp_path / "cfg.json"
    base = {"concept": json.loads(THRESH), "hstar": json.loads(HSTAR), "p": q, "q": q,
            "m": 40, "trials": 2, "n": 100, "loss": "none", "out": str(tmp_path / "s.csv")}
    cfg.write_text(json.dumps(base))
    assert run("shift", "--config", str(cfg)) == 0
    cfg.write_text(json.dumps({**ATTACK_CONFIG, "loss": "none"}))
    assert run("attack-verify", "--config", str(cfg)) == 2
