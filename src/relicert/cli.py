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

from . import __version__
from .core import (
    Dataset,
    DatasetFormatError,
    hypothesis_from_dict,
    read_dataset_csv,
    read_points_csv,
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
from .reliability import (
    LabelConstancyError,
    ReliabilityCertificate,
    certify_many,
    margin_certify_many,
    verify_contract,
)
from .version_space import concept_from_dict, erm, fit_version_space

FINGERPRINT = f"relicert {__version__}"

USAGE_ERROR = 2
VIOLATION_ERROR = 1
INTERNAL_ERROR = 3  # a library self-check or solver failed


class UsageError(ValueError):
    pass


# JSON-valued options: a flag gives JSON text, a config file may give the object
_JSON_VALUED = ("concept", "hstar", "dist", "p", "q")


def _json_option(value, key: str) -> dict:
    if isinstance(value, dict):
        return value
    try:
        value = json.loads(value)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON for --{key}: {exc}") from exc
    if not isinstance(value, dict):
        raise UsageError(f"--{key} must be a JSON object, got {value!r}")
    return value


def _config_entry(key: str, value, option: dict):
    """A config-file entry as its flag would give it.  A JSON-valued option
    takes an object or JSON text.  Any other option takes a string, or a
    number where it has a `type`, which converts the entry as it converts
    the flag's text (an integral float such as 40.0 or 1e3 counts as an
    int); the result must be one of its `choices`."""
    if key in _JSON_VALUED:
        if isinstance(value, (dict, str)):
            return value
        raise UsageError(f"config entry {key!r} must be a JSON object or text, got {value!r}")
    typ = option.get("type", str)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        if not (isinstance(value, str) or (number and typ is not str)):
            raise ValueError
        value = typ(str(value))
    except ValueError:
        raise UsageError(f"config entry {key!r} must be {typ.__name__}, got {value!r}") from None
    if value not in option.get("choices", (value,)):
        raise UsageError(
            f"config entry {key!r} must be one of {', '.join(option['choices'])}, got {value!r}"
        )
    return value


def _effective(args: argparse.Namespace, **defaults) -> dict:
    """The command's options: each flag given, else the config file's entry
    (flags win, and entries are checked as flags are: `_config_entry`),
    else `defaults`.  The defaults are applied here, not by argparse, so
    that a config entry overrides them.  JSON-valued options come back
    parsed."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("a config file must hold a JSON object")
    overrides = _COMMANDS[args.command][3]
    out = {}
    for key, flag in vars(args).items():
        if key in ("command", "config"):
            continue
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = _config_entry(key, cfg[key], {**_OPTIONS[key], **overrides.get(key, {})})
    for key, value in defaults.items():
        out.setdefault(key, value)
    for key in _JSON_VALUED:
        if key in out:
            out[key] = _json_option(out[key], key)
    return out


def _echo_config(cfg: dict) -> dict:
    """The configuration embedded in artifacts: everything that determines
    the result (not the artifact's own path)."""
    return {k: v for k, v in cfg.items() if k != "out"}


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _loss(cfg: dict) -> LossKind:
    try:
        return LossKind(cfg["loss"])
    except ValueError as exc:
        raise UsageError(f"loss must be one of ca, tl, st (got {cfg['loss']!r})") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _json_artifact(payload: dict) -> str:
    """Strict JSON: a non-finite value raises ValueError (exit 2) before any
    file is written, where NaN or Infinity would not parse as JSON."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _csv_config_lines(cfg: dict) -> list[str]:
    return [f"# {FINGERPRINT}", f"# config {_json_artifact(cfg).rstrip()}"]


def _write_estimate(cfg: dict, quantity: str, concept, kind: LossKind | None, d: int, est) -> int:
    """The estimate CSV of `sr-mass` and `shift`: config lines, header, one row."""
    row = estimate_csv_row(
        quantity, concept, kind, float(cfg["eta1"]), float(cfg["eta2"]),
        int(cfg["m"]), d, int(cfg["trials"]), int(cfg["n"]), est,
    )
    lines = _csv_config_lines(_echo_config(cfg)) + [ESTIMATE_CSV_HEADER, row]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(row)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = _effective(args)
    _require(cfg, "dist", "hstar", "m", "seed", "out")
    spec = spec_from_dict(cfg["dist"])
    hstar = hypothesis_from_dict(cfg["hstar"])
    X = sample(spec, int(cfg["seed"]), int(cfg["m"]))
    S = Dataset(X, hstar.predict_many(X))
    write_dataset_csv(cfg["out"], S)
    print(f"wrote {len(S)} samples of dimension {S.dimension} to {cfg['out']}")
    return 0


def _cmd_certify(args) -> int:
    cfg = _effective(args, seed=0, method="exact")
    _require(cfg, "data", "points", "loss", "concept", "out")
    method = "margin" if cfg["method"] == "margin" else "analytic"  # --method is exact or margin
    unread = [f"--{key}" for key in ("eps", "c1") if key in cfg]
    if method != "margin" and unread:
        raise UsageError(f"--method exact does not take {' or '.join(unread)}")
    kind = _loss(cfg)
    concept = concept_from_dict(cfg["concept"])
    S = read_dataset_csv(cfg["data"])
    pts = read_points_csv(cfg["points"])
    seed = int(cfg["seed"])
    if method == "margin":
        if kind is not LossKind.ST:
            raise UsageError("the margin certifier issues stability-loss certificates")
        _require(cfg, "eps")
        labels, radii = margin_certify_many(
            erm(S, concept), pts, float(cfg["eps"]), c1=float(cfg.get("c1", 1.0))
        )
    else:
        labels, radii = certify_many(fit_version_space(S, concept), pts, kind, seed=seed)
    certs = [
        ReliabilityCertificate(label or None, radius, kind, method).to_json_dict(z, seed=seed)
        for z, label, radius in zip(pts, labels.tolist(), radii.tolist())
    ]
    payload = {"version": FINGERPRINT, "config": _echo_config(cfg), "certificates": certs}
    _write_text(cfg["out"], _json_artifact(payload))
    print(f"wrote {len(certs)} certificates to {cfg['out']}")
    return 0


def _cmd_sr_mass(args) -> int:
    cfg = _effective(args, seed=0, jobs=1)
    _require(cfg, "concept", "hstar", "dist", "m", "eta1", "eta2", "loss", "trials", "n", "out")
    concept = concept_from_dict(cfg["concept"])
    hstar = hypothesis_from_dict(cfg["hstar"])
    spec = spec_from_dict(cfg["dist"])
    kind = _loss(cfg)
    est = sr_mass(
        concept, hstar, spec, int(cfg["m"]), float(cfg["eta1"]), float(cfg["eta2"]),
        kind, int(cfg["trials"]), int(cfg["n"]), int(cfg["seed"]), jobs=int(cfg["jobs"]),
    )
    return _write_estimate(cfg, "sr-mass", concept, kind, dimension(spec), est)


def _cmd_theta(args) -> int:
    cfg = _effective(args, seed=0, n=100000)
    _require(cfg, "concept", "hstar", "p", "q", "epsilon", "out")
    est = theta_pq(
        concept_from_dict(cfg["concept"]), hypothesis_from_dict(cfg["hstar"]),
        spec_from_dict(cfg["p"]), spec_from_dict(cfg["q"]), float(cfg["epsilon"]),
        n=int(cfg["n"]), seed=int(cfg["seed"]),
    )
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
    cfg = _effective(args, seed=0, eta1=0.0, eta2=0.0, jobs=1)
    _require(cfg, "concept", "hstar", "p", "q", "m", "trials", "n", "out")
    concept = concept_from_dict(cfg["concept"])
    hstar = hypothesis_from_dict(cfg["hstar"])
    P, Q = spec_from_dict(cfg["p"]), spec_from_dict(cfg["q"])
    kind = _loss(cfg) if cfg.get("loss", "none") != "none" else None
    est = reliable_correctness(
        concept, hstar, P, Q, int(cfg["m"]), int(cfg["trials"]), int(cfg["n"]),
        eta1=float(cfg["eta1"]), eta2=float(cfg["eta2"]), kind=kind,
        seed=int(cfg["seed"]), jobs=int(cfg["jobs"]),
    )
    quantity = "pq-safely-reliable" if kind is not None else "pq-reliable-correctness"
    return _write_estimate(cfg, quantity, concept, kind, dimension(Q), est)


def _cmd_attack_verify(args) -> int:
    cfg = _effective(args, seed=0, strategy="boundary-directed", jobs=1)
    _require(cfg, "concept", "hstar", "dist", "m", "trials", "budget", "loss")
    report = verify_contract(
        concept_from_dict(cfg["concept"]), hypothesis_from_dict(cfg["hstar"]),
        spec_from_dict(cfg["dist"]), int(cfg["m"]), int(cfg["trials"]), float(cfg["budget"]),
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
# the parser: every option declared once, then each subcommand's names
# ---------------------------------------------------------------------------

_LOSSES = ["ca", "tl", "st"]

# option name -> add_argument keywords.  No option has an argparse default:
# a default would override the config file (see `_effective`).
_OPTIONS = {
    "config": {"help": "JSON config file; flags override its entries"},
    "seed": {
        "type": int,
        "help": "master seed (sub-seeds are derived; certify's ball check draws once per call)",
    },
    "out": {"help": "output artifact path"},
    "concept": {"help": "concept class JSON"},
    "hstar": {"help": "target hypothesis JSON"},
    "dist": {"help": "distribution spec JSON"},
    "p": {"help": "source distribution JSON"},
    "q": {"help": "target distribution JSON"},
    "data": {"help": "training dataset CSV"},
    "points": {"help": "CSV of points to certify (header x1,...,xd)"},
    "loss": {"choices": _LOSSES},
    "method": {"choices": ["exact", "margin"]},
    "eps": {"type": float, "help": "scale for the margin certifier"},
    "c1": {"type": float, "help": "margin certifier constant"},
    "m": {"type": int, "help": "number of training samples"},
    "n": {"type": int, "help": "number of test points drawn"},
    "trials": {"type": int},
    "eta1": {"type": float},
    "eta2": {"type": float},
    "epsilon": {"type": float},
    "budget": {"type": float},
    "strategy": {"choices": ["boundary-directed", "random-ball", "grid"]},
    "jobs": {"type": int},
}

# subcommand -> (handler, help, its options after config/seed/out, keyword
# overrides for this subcommand)
_COMMANDS = {
    "gen": (_cmd_gen, "emit a synthetic labeled dataset CSV", "dist hstar m", {}),
    "certify": (_cmd_certify, "certificates for a file of test points",
                "data points loss concept method eps c1", {}),
    "sr-mass": (_cmd_sr_mass, "safely-reliable mass estimate",
                "concept hstar dist m eta1 eta2 loss trials n jobs", {}),
    "theta": (_cmd_theta, "source-to-target disagreement coefficient",
              "concept hstar p q epsilon n", {}),
    "shift": (_cmd_shift, "reliable correctness under distribution shift",
              "concept hstar p q m trials n eta1 eta2 loss jobs",
              {"loss": {"choices": [*_LOSSES, "none"]}}),
    "attack-verify": (_cmd_attack_verify, "adversarial contract verification",
                      "concept hstar dist m trials budget loss strategy jobs", {}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relicert",
        description="Reliability certificates for classifiers under test-time attacks "
        "and distribution shift.",
    )
    ap.add_argument("--version", action="version", version=FINGERPRINT)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names, overrides) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in ("config", "seed", "out", *names.split()):
            p.add_argument(f"--{name}", **{**_OPTIONS[name], **overrides.get(name, {})})
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
        return _COMMANDS[args.command][0](args)
    except (UsageError, DatasetFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (LabelConstancyError, LPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
