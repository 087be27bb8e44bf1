"""Outside-in layer tracing for the relicert package.

The tracer wraps, from outside the package, the names each module imports
from the layer below it (for example `relicert.estimators.fit_version_space`
or `relicert.lp.maximize_over_cone_box`) plus the batched geometry methods of
the version-space classes.  Every wrapped call records a span (name, start,
end, parent, run id) in memory; counts are read from the objects the calls
return.  Nothing in the package is edited: `install` patches attributes and
`uninstall` puts the originals back.

A target that no longer exists is skipped and its metrics are reported as
missing (value None) instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (span name, [(module, attribute), ...], counter) -- one span name per
# layer boundary; the same function imported into several modules gets one
# wrapper per importing module.
FUNCTION_TARGETS = [
    ("version_space.fit", [("relicert.cli", "fit_version_space"),
                           ("relicert.estimators", "fit_version_space"),
                           ("relicert.reliability", "fit_version_space")], None),
    ("reliability.certify", [("relicert.cli", "certify"),
                             ("relicert.reliability", "certify")], None),
    ("version_space.cone_distance", [("relicert.reliability", "cone_dis_distance_info")],
     "cone_distance"),
    ("version_space.bank_build", [("relicert.version_space", "_build_cone_bank")], "bank"),
    ("lp.solve", [("relicert.lp", "maximize_over_cone_box")], "lp"),
    ("reliability.sr_membership", [("relicert.estimators", "safely_reliable_membership")], None),
    ("distributions.draw", [("relicert.cli", "sample"),
                            ("relicert.estimators", "sample"),
                            ("relicert.estimators", "_draw"),
                            ("relicert.reliability", "_draw")], "draw"),
    ("estimators.trial_loop", [("relicert.estimators", "_sr_trial_mean"),
                               ("relicert.estimators", "_shift_trial_mean")], "trials"),
    ("estimators.mask", [("relicert.estimators", "sr_membership_mask")], None),
    ("losses.fixed_loss", [("relicert.reliability", "fixed_loss")], None),
]

# (span name, module, class names, method, counter)
METHOD_TARGETS = [
    ("version_space.membership", "relicert.version_space",
     ("IntervalVS", "AngleArcVS", "ConeVS"), "membership_many", "points"),
    ("version_space.distance_many", "relicert.version_space",
     ("IntervalVS", "AngleArcVS", "ConeVS"), "dis_distance_many", None),
]

# hypothesis construction is counted (no span: it is too fine-grained)
HYPOTHESIS_CLASSES = ("relicert.core", ("LinearHomogeneous", "Threshold", "OffsetBoundary"))


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 1


def _count(kind: str, args, out) -> dict:
    """Counts read from the arguments and the object a call returned."""
    if kind == "cone_distance":
        return {"iters": int(out.iterations), "exhaustive": int(bool(out.exhaustive))}
    if kind == "bank":
        return {"rows": int(out.W.shape[0]), "exhaustive": int(bool(out.exhaustive))}
    if kind == "lp":
        return {"pivots": int(out.iterations)}
    if kind == "draw":
        return {"points": _rows(out)}
    if kind == "trials":
        return {"trials": len(out)}
    if kind == "points":
        return {"points": _rows(args[1])}
    raise ValueError(kind)


@dataclass
class Tracer:
    """In-memory span store.  Spans are (name, start, end, parent, run);
    `parent` is the index of the enclosing span or -1."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    run_id: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, values: dict) -> None:
        bucket = self.counts.setdefault(name, {})
        for key, v in values.items():
            bucket[key] = bucket.get(key, 0) + v

    def span(self, name: str, fn, counter: str | None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.add(name, _count(counter, args, out))
            return out

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, targets, counter in FUNCTION_TARGETS:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(module, attr, self.span(name, fn, counter))
        for name, module_name, classes, method, counter in METHOD_TARGETS:
            # a class without the method is fine (the cone has no batched
            # distance); only a method gone from every class is missing
            module = importlib.import_module(module_name)
            owners = [getattr(module, c, None) for c in classes]
            owners = [cls for cls in owners if cls is not None and method in vars(cls)]
            if not owners:
                self.missing += [f"{module_name}.{c}.{method}" for c in classes]
            for cls in owners:
                self._patch(cls, method, self.span(name, vars(cls)[method], counter))
        module = importlib.import_module(HYPOTHESIS_CLASSES[0])
        for cls_name in HYPOTHESIS_CLASSES[1]:
            cls = getattr(module, cls_name, None)
            if cls is None or "__post_init__" not in vars(cls):
                self.missing.append(f"{HYPOTHESIS_CLASSES[0]}.{cls_name}")
                continue
            self._patch(cls, "__post_init__", self._counting_init(vars(cls)["__post_init__"]))

    def _counting_init(self, init):
        def wrapper(obj, *args, **kwargs):
            self.add("core.hypothesis", {"built": 1})
            return init(obj, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# span aggregation
# ---------------------------------------------------------------------------


def span_totals(spans: list) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that
    name only, so recursion is not double counted) and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            agg["s"] += end - start
    return out


# metric name -> (unit, better, source); source is ("span", name, field) for
# span totals, ("count", name, key) for counts read from returned objects, or
# ("ratio", name, key) for a count's mean per call of that span
PER_LAYER = {
    "version_space.cone_distance_calls": ("count", "lower", ("span", "version_space.cone_distance", "calls")),
    "version_space.cone_distance_s": ("s", "lower", ("span", "version_space.cone_distance", "s")),
    "version_space.cone_distance_iters": ("count", "lower", ("count", "version_space.cone_distance", "iters")),
    "version_space.cone_distance_exhaustive_share": ("fraction", "higher", ("ratio", "version_space.cone_distance", "exhaustive")),
    "version_space.bank_builds": ("count", "lower", ("span", "version_space.bank_build", "calls")),
    "version_space.bank_build_s": ("s", "lower", ("span", "version_space.bank_build", "s")),
    "version_space.bank_rows_mean": ("count", "lower", ("ratio", "version_space.bank_build", "rows")),
    "version_space.bank_exhaustive_share": ("fraction", "higher", ("ratio", "version_space.bank_build", "exhaustive")),
    "lp.solves": ("count", "lower", ("span", "lp.solve", "calls")),
    "lp.pivots": ("count", "lower", ("count", "lp.solve", "pivots")),
    "lp.solve_s": ("s", "lower", ("span", "lp.solve", "s")),
    "version_space.fit_calls": ("count", "lower", ("span", "version_space.fit", "calls")),
    "version_space.fit_s": ("s", "lower", ("span", "version_space.fit", "s")),
    "reliability.sr_membership_calls": ("count", "lower", ("span", "reliability.sr_membership", "calls")),
    "reliability.sr_membership_s": ("s", "lower", ("span", "reliability.sr_membership", "s")),
    "core.hypotheses_built": ("count", "lower", ("count", "core.hypothesis", "built")),
    "version_space.membership_calls": ("count", "lower", ("span", "version_space.membership", "calls")),
    "version_space.membership_points": ("count", "lower", ("count", "version_space.membership", "points")),
    "version_space.membership_s": ("s", "lower", ("span", "version_space.membership", "s")),
    "version_space.distance_many_s": ("s", "lower", ("span", "version_space.distance_many", "s")),
    "distributions.draw_calls": ("count", "lower", ("span", "distributions.draw", "calls")),
    "distributions.draw_s": ("s", "lower", ("span", "distributions.draw", "s")),
    "distributions.points_drawn": ("count", "lower", ("count", "distributions.draw", "points")),
    "estimators.trials": ("count", "higher", ("count", "estimators.trial_loop", "trials")),
    "estimators.trial_self_s": ("s", "lower", ("span", "estimators.trial_loop", "self_s")),
    "estimators.mask_s": ("s", "lower", ("span", "estimators.mask", "s")),
    "reliability.certify_calls": ("count", "lower", ("span", "reliability.certify", "calls")),
    "reliability.certify_s": ("s", "lower", ("span", "reliability.certify", "s")),
    "losses.fixed_loss_calls": ("count", "lower", ("span", "losses.fixed_loss", "calls")),
    "losses.fixed_loss_s": ("s", "lower", ("span", "losses.fixed_loss", "s")),
    "cli.self_s": ("s", "lower", ("span", "cli.main", "self_s")),
}

# span names whose wrapped targets feed each metric, for missing-target reports
_SPAN_TARGETS = {name: [f"{m}.{a}" for m, a in targets] for name, targets, _ in FUNCTION_TARGETS}
for _name, _module, _classes, _method, _ in METHOD_TARGETS:
    _SPAN_TARGETS[_name] = [f"{_module}.{c}.{_method}" for c in _classes]
_SPAN_TARGETS["core.hypothesis"] = [
    f"{HYPOTHESIS_CLASSES[0]}.{c}" for c in HYPOTHESIS_CLASSES[1]
]


def layer_metrics(spans: list, counts: dict, missing: list) -> dict:
    """Per-layer metric values; None where every wrapped target is missing."""
    totals = span_totals(spans)
    out = {}
    for metric, (_unit, _better, (kind, name, key)) in PER_LAYER.items():
        targets = _SPAN_TARGETS.get(name, [])
        if targets and all(t in missing for t in targets):
            out[metric] = None
            continue
        calls = totals.get(name, {}).get("calls", 0)
        if kind == "span":
            value = totals.get(name, {}).get(key, 0)
        elif kind == "count":
            value = counts.get(name, {}).get(key, 0)
        else:  # per-call mean; 0.0 when the layer was never called
            value = counts.get(name, {}).get(key, 0) / calls if calls else 0.0
        out[metric] = value
    return out
