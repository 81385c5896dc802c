"""Spans around the library's public functions, recorded from outside.

A `Tracer` replaces each traced function with a wrapper everywhere a caller
looks the name up: in its own module, in every advicemech module that
imported it, and in the package namespace.  Methods are wrapped on their
class, and `AuditableMechanism.fn` on each mechanism object as it is built.
`uninstall` puts every original back.

Each call becomes a span: a name, its start and end, and the index of its
parent span.  Spans stay in memory and are written out once, at the end.
A span's self time is its duration minus the time its child spans cover.
Beside the spans the wrappers keep exact counts of the work each layer is
given (points scanned, median entries, candidates, cache keys).
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import advicemech
from advicemech.model import LabelingLottery

MODULES = ("model", "regression", "classification", "hardness", "audit", "learning", "formats", "cli")

# (module, function, span name); the span name is the metric prefix
FUNCTIONS = [
    ("model", "weighted_median_bounds", "model.weighted_median_bounds"),
    ("model", "erm_constant", "model.erm_constant"),
    ("model", "global_risk", "model.global_risk"),
    ("model", "personal_risk", "model.personal_risk"),
    ("regression", "pfa", "regression.pfa"),
    ("regression", "lpfa", "regression.lpfa"),
    ("classification", "srda", "classification.srda"),
    ("classification", "pfa_two_labeling", "classification.pfa_two_labeling"),
    ("classification", "srda_two_labeling", "classification.srda_two_labeling"),
    ("audit", "check_strategyproof", "audit.check_strategyproof"),
    ("audit", "check_group_strategyproof", "audit.check_group_strategyproof"),
    ("audit", "approximation_ratio", "audit.approximation_ratio"),
    ("audit", "brute_force_optimal_risk", "audit.brute_force_optimal_risk"),
    ("audit", "error_interpolation_check", "audit.error_interpolation_check"),
    ("hardness", "gen_S", "hardness.gen_S"),
    ("hardness", "gen_S_final", "hardness.gen_S_final"),
    ("hardness", "gen_S_linear", "hardness.gen_S_linear"),
    ("learning", "sample_instance", "learning.sample_instance"),
    ("learning", "composition_experiment", "learning.composition_experiment"),
    ("formats", "load_instance", "formats.load_instance"),
    ("formats", "serialize_instance", "formats.serialize_instance"),
    ("cli", "cmd_gen", "cli.gen"),
    ("cli", "cmd_audit", "cli.audit"),
    ("cli", "cmd_sweep", "cli.sweep"),
]
# (module, class, method, span name)
METHODS = [
    ("audit", "AuditableMechanism", "grouped_reports", "audit.grouped_reports"),
    ("audit", "AuditableMechanism", "true_personal_risk", "audit.true_personal_risk"),
    ("audit", "MechanismFamily", "frontier_row", "audit.frontier_row"),
]
MECHANISM_FN = "audit.mechanism_fn"
SPANS = [name for *_, name in FUNCTIONS] + [name for *_, name in METHODS] + [MECHANISM_FN]
AUDITS = ("audit.check_strategyproof", "audit.check_group_strategyproof")


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # [span index, name id, start, child seconds]
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.group_keys = set()
        self.brute_force_instances = set()
        self.alive = []  # keeps id()-keyed objects from being reused
        self.restore = []
        self.audit_ids = {self.names.index(name) for name in AUDITS}

    # -- spans --------------------------------------------------------------

    def wrap(self, original, name, note=None):
        sid = self.names.index(name)
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            index = len(names)
            names.append(sid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [index, sid, perf_counter(), 0.0]
            starts.append(frame[2])
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    note(args, kwargs, result)
            finally:
                end = perf_counter()
                stack.pop()
                ends[index] = end
                duration = end - frame[2]
                calls[sid] += 1
                total_s[sid] += duration
                self_s[sid] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
            return result

        traced.__wrapped__ = original
        return traced

    def parent_name(self):
        """Name of the caller's span, seen from inside a note."""
        return self.names[self.stack[-2][1]] if len(self.stack) > 1 else None

    def in_audit(self):
        return any(frame[1] in self.audit_ids for frame in self.stack)

    # -- counts -------------------------------------------------------------

    def _notes(self):
        counts = self.counts

        def global_risk(args, kwargs, result):
            if not isinstance(args[0], LabelingLottery):
                counts["model.global_risk.points"] += args[1].total_points

        def personal_risk(args, kwargs, result):
            if not isinstance(args[0], LabelingLottery):
                counts["model.personal_risk.points"] += len(args[1])
            if self.parent_name() == "audit.true_personal_risk":
                counts["risk_cache_misses"] += 1

        def median(args, kwargs, result):
            counts["model.weighted_median_bounds.entries"] += len(args[0].entries)

        def check(args, kwargs, result):
            counts["audit.candidates"] += result.candidates_checked

        def mechanism_fn(args, kwargs, result):
            if self.in_audit():
                counts["audit_mechanism_calls"] += 1

        def grouped(args, kwargs, result):
            mech, space, agent, cls = args
            self.alive.append(mech)
            self.group_keys.add((id(mech), space, agent.xs, cls))

        def brute_force(args, kwargs, result):
            self.alive.append(args[0])
            self.brute_force_instances.add(id(args[0]))

        def load(args, kwargs, result):
            counts["formats.load_instance.bytes"] += os.path.getsize(args[0])

        def serialize(args, kwargs, result):
            counts["formats.serialize_instance.bytes"] += len(result.encode("utf-8"))

        return {
            "model.global_risk": global_risk,
            "model.personal_risk": personal_risk,
            "model.weighted_median_bounds": median,
            "audit.check_strategyproof": check,
            "audit.check_group_strategyproof": check,
            "audit.grouped_reports": grouped,
            "audit.brute_force_optimal_risk": brute_force,
            "formats.load_instance": load,
            "formats.serialize_instance": serialize,
            MECHANISM_FN: mechanism_fn,
        }

    # -- install / uninstall ------------------------------------------------

    def install(self):
        notes = self._notes()
        modules = [advicemech] + [
            importlib.import_module(f"advicemech.{name}") for name in MODULES
        ]
        for module, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(f"advicemech.{module}"), attr)
            traced = self.wrap(original, name, notes.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.restore.append((mod, key, original))
                        setattr(mod, key, traced)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"advicemech.{module}"), cls_name)
            original = cls.__dict__[attr]
            self.restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, notes.get(name)))
        mechanism = advicemech.audit.AuditableMechanism
        init = mechanism.__init__
        wrap, note = self.wrap, notes[MECHANISM_FN]

        def traced_init(mech, fn, *args, **kwargs):
            init(mech, wrap(fn, MECHANISM_FN, note), *args, **kwargs)

        self.restore.append((mechanism, "__init__", init))
        mechanism.__init__ = traced_init

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced since `install`."""
        out = {}
        for sid, name in enumerate(SPANS):
            out[f"{name}.calls"] = self.calls[sid]
            out[f"{name}.self_s"] = self.self_s[sid]
        counts = self.counts
        for key in (
            "model.global_risk.points",
            "model.personal_risk.points",
            "model.weighted_median_bounds.entries",
            "audit.candidates",
            "formats.load_instance.bytes",
            "formats.serialize_instance.bytes",
        ):
            out[key] = counts[key]
        calls = {name: self.calls[sid] for sid, name in enumerate(SPANS)}
        out["audit.mechanism_calls_per_candidate"] = _share(
            counts["audit_mechanism_calls"], counts["audit.candidates"]
        )
        out["audit.group_cache_hit_ratio"] = 1 - _share(
            len(self.group_keys), calls["audit.grouped_reports"], 1
        )
        out["audit.risk_cache_hit_ratio"] = 1 - _share(
            counts["risk_cache_misses"], calls["audit.true_personal_risk"], 1
        )
        out["audit.brute_force_per_instance"] = _share(
            calls["audit.brute_force_optimal_risk"], len(self.brute_force_instances)
        )
        for sub in ("gen", "audit", "sweep"):
            out[f"cli.{sub}.wall_s"] = self.total_s[SPANS.index(f"cli.{sub}")]
        return out

    def counts_only(self):
        """The exact part of `metrics`: everything except times."""
        return {k: v for k, v in self.metrics().items() if not k.endswith("_s")}

    def write(self, base: Path):
        """Spans as a JSON header plus one binary file of four arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "layout": "uint16 name[count], int32 parent[count], "
            "float64 start[count], float64 end[count]; parent -1 is a root",
        }
        base.with_suffix(".json").write_text(json.dumps(header, indent=1))
        with open(base.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _share(part, whole, empty=0):
    return part / whole if whole else empty
