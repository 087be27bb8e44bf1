"""Command-line entry point for reproducible certification and estimation runs.

Every artifact embeds the effective configuration, the seed and the build
fingerprint; re-running a command with the same configuration produces
byte-identical output.  All randomness derives from the single --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .core import (
    Dataset,
    DatasetFormatError,
    hypothesis_from_dict,
    read_dataset_csv,
    write_dataset_csv,
)
from .distributions import dimension, sample, spec_from_dict
from .estimators import (
    ESTIMATE_CSV_HEADER,
    estimate_csv_row,
    reliable_correctness,
    sr_mass,
    theta_pq,
)
from .losses import LossKind
from .lp import LPError
from .reliability import LabelConstancyError, certify, margin_certificate, verify_contract
from .version_space import concept_from_dict, erm, fit_version_space

FINGERPRINT = f"relicert {__version__}"

USAGE_ERROR = 2
VIOLATION_ERROR = 1
INTERNAL_ERROR = 3  # a library self-check or solver failed


class UsageError(ValueError):
    pass


def _parse_json_arg(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON for {what}: {exc}") from exc


_JSON_VALUED = ("concept", "hstar", "dist", "p", "q")


def _effective(args: argparse.Namespace, keys: list[str]) -> dict:
    """Merge the config file (if any) with command-line flags; flags win."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config JSON: {exc}") from exc
    out = {}
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = cfg[key]
    for key in _JSON_VALUED:
        if key in out:
            out[key] = _maybe_dict(out[key], f"--{key}")
    return out


def _echo_config(cfg: dict) -> dict:
    """The configuration embedded in artifacts: everything that determines
    the result (not the artifact's own path)."""
    return {k: v for k, v in cfg.items() if k not in ("out", "config")}


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _loss(cfg: dict) -> LossKind:
    try:
        return LossKind(cfg["loss"])
    except ValueError as exc:
        raise UsageError(f"loss must be one of ca, tl, st (got {cfg['loss']!r})") from exc


def _maybe_dict(value, what: str) -> dict:
    if isinstance(value, dict):
        return value
    return _parse_json_arg(value, what)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _json_artifact(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_config_lines(cfg: dict) -> list[str]:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return [f"# {FINGERPRINT}", f"# config {blob}"]


def read_points_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or not lines[0].strip():
        raise DatasetFormatError(f"{path}: missing header")
    header = [c.strip() for c in lines[0].split(",")]
    d = len(header)
    if header != [f"x{i + 1}" for i in range(d)]:
        raise DatasetFormatError(f"{path}: point files use the header x1,...,xd")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != d:
            raise DatasetFormatError(f"{path}:{lineno}: expected {d} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: malformed value ({exc})") from exc
    return np.asarray(rows, dtype=float).reshape(-1, d)


def load_dataset(path: str) -> Dataset:
    return read_dataset_csv(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = _effective(args, ["dist", "concept", "hstar", "m", "seed", "out"])
    _require(cfg, "dist", "hstar", "m", "seed", "out")
    spec = spec_from_dict(_maybe_dict(cfg["dist"], "--dist"))
    hstar = hypothesis_from_dict(_maybe_dict(cfg["hstar"], "--hstar"))
    X = sample(spec, int(cfg["seed"]), int(cfg["m"]))
    S = Dataset(X, hstar.predict_many(X))
    write_dataset_csv(cfg["out"], S)
    print(f"wrote {len(S)} samples of dimension {S.dimension} to {cfg['out']}")
    return 0


def _cmd_certify(args) -> int:
    keys = ["data", "points", "loss", "concept", "out", "seed", "method", "eps", "c1"]
    cfg = _effective(args, keys)
    cfg.setdefault("seed", 0)
    cfg.setdefault("method", "exact")
    _require(cfg, "data", "points", "loss", "concept", "out")
    kind = _loss(cfg)
    concept = concept_from_dict(_maybe_dict(cfg["concept"], "--concept"))
    S = load_dataset(cfg["data"])
    pts = read_points_csv(cfg["points"])
    seed = int(cfg["seed"])
    certs = []
    if cfg["method"] == "exact":
        vs = fit_version_space(S, concept)
        for i, z in enumerate(pts):
            cert = certify(vs, z, kind, seed=seed ^ i)
            certs.append(cert.to_json_dict(z, seed=seed))
    elif cfg["method"] == "margin":
        if kind is not LossKind.ST:
            raise UsageError("the margin certifier issues stability-loss certificates")
        _require(cfg, "eps")
        h = erm(S, concept)
        for z in pts:
            cert = margin_certificate(h, z, float(cfg["eps"]), c1=float(cfg.get("c1", 1.0)))
            certs.append(cert.to_json_dict(z, seed=seed))
    else:
        raise UsageError(f"unknown certify method {cfg['method']!r}")
    payload = {"version": FINGERPRINT, "config": _echo_config(cfg), "certificates": certs}
    _write_text(cfg["out"], _json_artifact(payload))
    print(f"wrote {len(certs)} certificates to {cfg['out']}")
    return 0


def _cmd_sr_mass(args) -> int:
    keys = ["concept", "hstar", "dist", "m", "eta1", "eta2", "loss",
            "trials", "n", "seed", "out", "jobs"]
    cfg = _effective(args, keys)
    cfg.setdefault("seed", 0)
    cfg.setdefault("jobs", 1)
    _require(cfg, "concept", "hstar", "dist", "m", "eta1", "eta2", "loss", "trials", "n", "out")
    concept = concept_from_dict(_maybe_dict(cfg["concept"], "--concept"))
    hstar = hypothesis_from_dict(_maybe_dict(cfg["hstar"], "--hstar"))
    spec = spec_from_dict(_maybe_dict(cfg["dist"], "--dist"))
    est = sr_mass(
        concept, hstar, spec, int(cfg["m"]), float(cfg["eta1"]), float(cfg["eta2"]),
        _loss(cfg), int(cfg["trials"]), int(cfg["n"]), int(cfg["seed"]),
        jobs=int(cfg["jobs"]),
    )
    row = estimate_csv_row(
        "sr-mass", concept, _loss(cfg), float(cfg["eta1"]), float(cfg["eta2"]),
        int(cfg["m"]), dimension(spec), int(cfg["trials"]), int(cfg["n"]), est,
    )
    lines = _csv_config_lines(_echo_config(cfg)) + [ESTIMATE_CSV_HEADER, row]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(row)
    return 0


def _cmd_theta(args) -> int:
    keys = ["concept", "hstar", "p", "q", "epsilon", "n", "seed", "out"]
    cfg = _effective(args, keys)
    cfg.setdefault("seed", 0)
    cfg.setdefault("n", 100000)
    _require(cfg, "concept", "hstar", "p", "q", "epsilon", "out")
    concept = concept_from_dict(_maybe_dict(cfg["concept"], "--concept"))
    hstar = hypothesis_from_dict(_maybe_dict(cfg["hstar"], "--hstar"))
    P = spec_from_dict(_maybe_dict(cfg["p"], "--p"))
    Q = spec_from_dict(_maybe_dict(cfg["q"], "--q"))
    est = theta_pq(concept, hstar, P, Q, float(cfg["epsilon"]), n=int(cfg["n"]),
                   seed=int(cfg["seed"]))
    lines = _csv_config_lines(_echo_config(cfg))
    lines.append(f"# method {est.method} grid_size {est.grid_resolution}")
    lines.append("r,mass,ratio")
    for r, mass in zip(est.r_grid, est.masses):
        lines.append(f"{float(r)!r},{float(mass)!r},{float(mass / r)!r}")
    lines.append(f"# theta {est.value!r}")
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(f"theta = {est.value!r} ({est.method})")
    return 0


def _cmd_shift(args) -> int:
    keys = ["concept", "hstar", "p", "q", "m", "trials", "n", "eta1", "eta2",
            "loss", "seed", "out", "jobs"]
    cfg = _effective(args, keys)
    cfg.setdefault("seed", 0)
    cfg.setdefault("eta1", 0.0)
    cfg.setdefault("eta2", 0.0)
    cfg.setdefault("jobs", 1)
    _require(cfg, "concept", "hstar", "p", "q", "m", "trials", "n", "out")
    concept = concept_from_dict(_maybe_dict(cfg["concept"], "--concept"))
    hstar = hypothesis_from_dict(_maybe_dict(cfg["hstar"], "--hstar"))
    P = spec_from_dict(_maybe_dict(cfg["p"], "--p"))
    Q = spec_from_dict(_maybe_dict(cfg["q"], "--q"))
    kind = _loss(cfg) if "loss" in cfg and cfg["loss"] != "none" else None
    est = reliable_correctness(
        concept, hstar, P, Q, int(cfg["m"]), int(cfg["trials"]), int(cfg["n"]),
        eta1=float(cfg["eta1"]), eta2=float(cfg["eta2"]), kind=kind,
        seed=int(cfg["seed"]), jobs=int(cfg["jobs"]),
    )
    quantity = "pq-safely-reliable" if kind is not None else "pq-reliable-correctness"
    row = estimate_csv_row(
        quantity, concept, kind, float(cfg["eta1"]), float(cfg["eta2"]),
        int(cfg["m"]), dimension(Q), int(cfg["trials"]), int(cfg["n"]), est,
    )
    lines = _csv_config_lines(_echo_config(cfg)) + [ESTIMATE_CSV_HEADER, row]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(row)
    return 0


def _cmd_attack_verify(args) -> int:
    keys = ["concept", "hstar", "dist", "m", "trials", "budget", "loss",
            "strategy", "seed", "out", "jobs"]
    cfg = _effective(args, keys)
    cfg.setdefault("seed", 0)
    cfg.setdefault("strategy", "boundary-directed")
    cfg.setdefault("jobs", 1)
    _require(cfg, "concept", "hstar", "dist", "m", "trials", "budget", "loss")
    concept = concept_from_dict(_maybe_dict(cfg["concept"], "--concept"))
    hstar = hypothesis_from_dict(_maybe_dict(cfg["hstar"], "--hstar"))
    spec = spec_from_dict(_maybe_dict(cfg["dist"], "--dist"))
    report = verify_contract(
        concept, hstar, spec, int(cfg["m"]), int(cfg["trials"]), float(cfg["budget"]),
        _loss(cfg), cfg["strategy"], seed=int(cfg["seed"]), jobs=int(cfg["jobs"]),
    )
    payload = {"version": FINGERPRINT, "config": _echo_config(cfg), "report": report.to_json_dict()}
    if cfg.get("out"):
        _write_text(cfg["out"], _json_artifact(payload))
    print(
        f"trials={report.trials} certified={report.certified} violations={report.violations}"
    )
    return VIOLATION_ERROR if report.violations else 0


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--seed", type=int, help="master seed (sub-seeds are derived)")
    p.add_argument("--out", help="output artifact path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relicert",
        description="Reliability certificates for classifiers under test-time attacks "
        "and distribution shift.",
    )
    ap.add_argument("--version", action="version", version=FINGERPRINT)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a synthetic labeled dataset CSV")
    _add_common(p)
    p.add_argument("--dist", help="distribution spec JSON")
    p.add_argument("--hstar", help="target hypothesis JSON")
    p.add_argument("--concept", help="concept class JSON (informational)")
    p.add_argument("--m", type=int, help="number of samples")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("certify", help="certificates for a file of test points")
    _add_common(p)
    p.add_argument("--data", help="training dataset CSV")
    p.add_argument("--points", help="CSV of points to certify (header x1,...,xd)")
    p.add_argument("--loss", choices=["ca", "tl", "st"])
    p.add_argument("--concept", help="concept class JSON")
    p.add_argument("--method", choices=["exact", "margin"])
    p.add_argument("--eps", type=float, help="scale for the margin certifier")
    p.add_argument("--c1", type=float, help="margin certifier constant")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sr-mass", help="safely-reliable mass estimate")
    _add_common(p)
    p.add_argument("--concept", help="concept class JSON")
    p.add_argument("--hstar", help="target hypothesis JSON")
    p.add_argument("--dist", help="distribution spec JSON")
    p.add_argument("--m", type=int)
    p.add_argument("--eta1", type=float)
    p.add_argument("--eta2", type=float)
    p.add_argument("--loss", choices=["ca", "tl", "st"])
    p.add_argument("--trials", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_sr_mass)

    p = sub.add_parser("theta", help="source-to-target disagreement coefficient")
    _add_common(p)
    p.add_argument("--concept", help="concept class JSON")
    p.add_argument("--hstar", help="target hypothesis JSON")
    p.add_argument("--p", help="source distribution JSON")
    p.add_argument("--q", help="target distribution JSON")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("shift", help="reliable correctness under distribution shift")
    _add_common(p)
    p.add_argument("--concept", help="concept class JSON")
    p.add_argument("--hstar", help="target hypothesis JSON")
    p.add_argument("--p", help="source distribution JSON")
    p.add_argument("--q", help="target distribution JSON")
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--eta1", type=float)
    p.add_argument("--eta2", type=float)
    p.add_argument("--loss", choices=["ca", "tl", "st", "none"])
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("attack-verify", help="adversarial contract verification")
    _add_common(p)
    p.add_argument("--concept", help="concept class JSON")
    p.add_argument("--hstar", help="target hypothesis JSON")
    p.add_argument("--dist", help="natural data distribution JSON")
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--budget", type=float)
    p.add_argument("--loss", choices=["ca", "tl", "st"])
    p.add_argument("--strategy", choices=["boundary-directed", "random-ball", "grid"])
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_attack_verify)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, DatasetFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (LabelConstancyError, LPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
