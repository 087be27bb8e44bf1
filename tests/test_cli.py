import json
import math

import numpy as np
import pytest

from relicert.cli import INTERNAL_ERROR, _parser, main, read_points_csv
from relicert.core import read_dataset_csv
from relicert.estimators import ESTIMATE_CSV_HEADER
from relicert.losses import LossKind
from relicert.lp import LPError
from relicert.reliability import LabelConstancyError, certify
from relicert.version_space import fit_version_space

GAUSS1 = '{"kind":"gaussian","d":1}'
THRESH = '{"kind":"threshold"}'
HSTAR = '{"kind":"threshold","t":0.0}'


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


def test_sr_mass_csv_schema(tmp_path):
    out = tmp_path / "sr.csv"
    code = run(
        "sr-mass", "--concept", THRESH, "--hstar", HSTAR,
        "--dist", '{"kind":"uniform_cube","d":1,"lo":-1,"hi":1}',
        "--m", "150", "--eta1", "0.05", "--eta2", "0.05", "--loss", "st",
        "--trials", "3", "--n", "1000", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("config" in c for c in comments)
    assert data[0] == ESTIMATE_CSV_HEADER
    parts = data[1].split(",")
    assert parts[0] == "sr-mass" and parts[2] == "st"
    mass = float(parts[9])
    assert 0.7 <= mass <= 1.0


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
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.9\n")
    out = tmp_path / "m.json"
    code = run("certify", "--data", str(train_csv), "--points", str(pts),
               "--loss", "st", "--concept", '{"kind":"linear"}', "--method", "margin",
               "--eps", "0.05", "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text())["certificates"][0]
    assert rec["method"] == "margin"


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
        ("relicert.reliability._assert_ball_label_constancy", LabelConstancyError),
        ("relicert.version_space.max_margin_direction", LPError),
    ],
)
def test_internal_errors_exit_3(tmp_path, monkeypatch, capsys, target, error):
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
    code = run("certify", "--data", str(train), "--points", str(pts), "--loss", "st",
               "--concept", '{"kind":"linear"}', "--out", str(tmp_path / "c.json"))
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
