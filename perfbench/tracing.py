"""Per-layer spans and counts, recorded from the benchmark's side of rmlab.

``Tracer.install`` rebinds each traced function under every name a caller
looks it up by: the attribute of each loaded ``rmlab`` module that holds the
function object (so ``ez_cross`` is rebound in ``rmlab.hyperbolic``,
``rmlab.cocycles`` and ``rmlab.hecke`` alike), and both ``__mul__`` and
``__rmul__`` of ``QuadIrr`` and ``PTower``.  ``uninstall`` restores the
originals, so untraced rounds run the program exactly as shipped.

Timed functions record a span (name, start, end, parent span, operation id)
and accumulate self time: span duration minus the time covered by child
spans.  Kernel functions of ``rmlab.exact`` are only counted; timing them
would add more overhead than the layers above them spend.
"""

from __future__ import annotations

import json
import sys
import time

SPAN_CAP = 200_000


def _len(r):
    return len(r)


def _hit(r):
    return 1 if r != 0 else 0


def _nodes(r):
    return len(r[0])


def _class_key_cached(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return f.triple() in sys.modules["rmlab.rmpoints"]._CLASS_KEY_CACHE


def _coset_cached(args, kwargs):
    label = args[0] if args else kwargs["label"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    return (label, p) in sys.modules["rmlab.hecke"]._COSET_CACHE


# (metric prefix, module, attribute path, timed, outcome counters, cache probe)
# An outcome counter maps a return value to the count it adds; a cache probe
# looks the arguments up in rmlab's own cache dict before the call.
LAYERS = [
    ("exact.quadirr_mul", "rmlab.exact", ("QuadIrr.__mul__", "QuadIrr.__rmul__"), False, {}, None),
    ("exact.quad_sign", "rmlab.exact", ("quad_sign",), False, {}, None),
    ("exact.sign_plus_root", "rmlab.exact", ("sign_plus_root",), False, {}, None),
    ("exact.ptower_mul", "rmlab.exact", ("PTower.__mul__", "PTower.__rmul__"), False, {}, None),
    ("exact.ptower_inverse", "rmlab.exact", ("PTower.inverse",), False, {}, None),
    ("linalg.nullspace", "rmlab.linalg", ("nullspace",), True, {}, None),
    ("quaternion.quadric_split", "rmlab.quaternion", ("quadric_split",), True, {}, None),
    ("quaternion.quadric_unsplit", "rmlab.quaternion", ("quadric_unsplit",), True, {}, None),
    ("hyperbolic.moebius_point", "rmlab.hyperbolic", ("moebius_point",), False, {}, None),
    ("hyperbolic.side", "rmlab.hyperbolic", ("side",), True, {}, None),
    ("hyperbolic.ez_cross", "rmlab.hyperbolic", ("ez_cross",), True, {"hits": _hit}, None),
    ("hyperbolic.enumerate_crossing_orbit", "rmlab.hyperbolic",
     ("enumerate_crossing_orbit",), True, {"found": _len}, None),
    ("rmpoints.class_key", "rmlab.rmpoints", ("class_key",), True, {}, _class_key_cached),
    ("rmpoints.reduced_cycle", "rmlab.rmpoints", ("reduced_cycle",), True, {}, None),
    ("rmpoints.orbit_bfs", "rmlab.rmpoints", ("_orbit_bfs",), True, {"nodes": _nodes}, None),
    ("rmpoints.orbit_equivalent", "rmlab.rmpoints", ("orbit_equivalent",), True, {}, None),
    ("rmpoints.automorph", "rmlab.rmpoints", ("automorph",), True, {}, None),
    ("cocycles.d1_candidates", "rmlab.cocycles", ("d1_candidates",), True, {"labels": _len}, None),
    ("cocycles.d1_value", "rmlab.cocycles", ("d1_value",), True, {}, None),
    ("cocycles.dv_value", "rmlab.cocycles", ("dv_value",), True, {}, None),
    ("hecke.right_coset_key", "rmlab.hecke", ("right_coset_key",), True, {}, None),
    ("hecke.cosets_of_label", "rmlab.hecke", ("cosets_of_label",), True,
     {"cosets": _len}, _coset_cached),
    ("hecke.hecke_mul", "rmlab.hecke", ("hecke_mul",), True, {}, None),
    ("hecke.kudla_millson", "rmlab.hecke", ("kudla_millson",), True, {}, None),
    ("evaluate.value_at", "rmlab.evaluate", ("value_at",), True, {}, None),
    ("evaluate.antisym_experiment", "rmlab.evaluate", ("antisym_experiment",), True, {}, None),
]


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    out = []
    for name, _mod, _attrs, timed, outcomes, probe in LAYERS:
        out.append(f"{name}.calls")
        if probe is not None:
            out.append(f"{name}.cache_hits")
        out.extend(f"{name}.{k}" for k in outcomes)
        if name == "hyperbolic.ez_cross":
            out.append(f"{name}.hit_ratio")
        if timed:
            out.append(f"{name}.self_s")
    out.append("trace.overhead")
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = [layer[0] for layer in LAYERS]
        self.counts: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._saved: list[tuple] = []

    # -- rebinding

    def install(self) -> None:
        if self._saved:
            return
        for idx, (name, modname, attrs, timed, outcomes, probe) in enumerate(LAYERS):
            module = sys.modules[modname]
            for path in attrs:
                owner, attr = _resolve(module, path)
                orig = owner.__dict__[attr]
                wrapper = (self._timed(idx, name, orig, outcomes, probe) if timed
                           else self._counted(name, orig))
                self._rebind(owner, attr, orig, wrapper)
                if owner is module:
                    for mname, mod in list(sys.modules.items()):
                        if mname.startswith("rmlab") and mod is not module:
                            for key, val in list(vars(mod).items()):
                                if val is orig:
                                    self._rebind(mod, key, orig, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _rebind(self, owner, attr, orig, wrapper) -> None:
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    # -- wrappers

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, idx: int, name: str, fn, outcomes: dict, probe):
        counts, self_s, stack, spans = self.counts, self.self_s, self._stack, self.spans
        clock = time.perf_counter
        calls_key, hits_key = f"{name}.calls", f"{name}.cache_hits"
        outcome_keys = [(f"{name}.{k}", f) for k, f in outcomes.items()]
        tracer = self

        def wrapper(*args, **kwargs):
            counts[calls_key] = counts.get(calls_key, 0) + 1
            if probe is not None and probe(args, kwargs):
                counts[hits_key] = counts.get(hits_key, 0) + 1
            parent = stack[-1][0] if stack else -1
            if len(spans) < SPAN_CAP:
                span = len(spans)
                spans.append(None)
            else:
                span = -1
                tracer.dropped += 1
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[name] = self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span >= 0:
                    spans[span] = (idx, frame[1], end, parent, tracer.op_id)
            for key, fn_out in outcome_keys:
                counts[key] = counts.get(key, 0) + fn_out(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced rounds."""
        out: dict[str, float] = {}
        for name in metric_names():
            if name == "trace.overhead":
                continue
            prefix, _, measure = name.rpartition(".")
            if measure == "self_s":
                total = self.self_s.get(prefix, 0.0)
            elif measure == "hit_ratio":
                calls = self.counts.get(f"{prefix}.calls", 0)
                out[name] = self.counts.get(f"{prefix}.hits", 0) / calls if calls else 0.0
                continue
            else:
                total = self.counts.get(name, 0)
            out[name] = total / rounds if rounds else 0.0
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [s for s in self.spans if s is not None],
                       "dropped": self.dropped}, fh, separators=(",", ":"))


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]
