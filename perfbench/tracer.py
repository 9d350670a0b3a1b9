"""Spans and counters recorded around dlperiods functions, from outside the library.

`install(tracer)` replaces the public functions of each dlperiods module with
wrappers that time them; `Tracer.restore()` puts the originals back.  Nothing
in `src/` is edited.

Two kinds of wrapper:

* span: one record per call, with the caller's span as parent.  Self time is
  the span's duration minus the time covered by its child spans (and by the
  field-arithmetic time under it, see below).
* leaf: no per-call record, only a count per function.  `FieldOps` methods
  run for about a microsecond, less than a span costs, so per-call spans there
  would measure mostly the tracer.  A leaf times only its outermost call and
  adds that time to the layer's self time and to the enclosing span's child
  time.

Spans are aggregated in memory, per name and per (parent, name) edge, and
written out once when the run ends.
"""

from __future__ import annotations

import time

WITNESS = "dlchar.witness"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, child_s, child_spans]
        self.spans = {}  # name -> [calls, total_s, self_s, childless_calls]
        self.edges = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counts = {}  # name -> int
        self.leaf_s = {}  # layer -> seconds in its outermost calls
        self.jordan_keys = set()
        self._leaf_depth = 0
        self._originals = []

    # -- wrappers -------------------------------------------------------------
    def span(self, name, fn, on_call=None):
        stack, clock = self.stack, self.clock
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        edges = self.edges

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[1]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                if not frame[2]:
                    rec[3] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent[2] += 1
                    key = (parent[0], name)
                else:
                    key = (None, name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dur, own]
                else:
                    edge[0] += 1
                    edge[1] += dur
                    edge[2] += own

        return wrapper

    def leaf(self, layer, name, fn):
        stack, clock = self.stack, self.clock
        counts = self.counts
        counts.setdefault(name, 0)
        self.leaf_s.setdefault(layer, 0.0)
        tracer = self

        def wrapper(*args):
            counts[name] += 1
            if tracer._leaf_depth:
                return fn(*args)
            tracer._leaf_depth = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                tracer._leaf_depth = 0
                tracer.leaf_s[layer] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attr, wrapper):
        """Set owner.attr to wrapper, remembering the original for restore()."""
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------
    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def calls(self, name):
        return self.spans.get(name, [0])[0]

    def total_s(self, name):
        return self.spans[name][1] if name in self.spans else 0.0

    def self_s(self, name):
        return self.spans[name][2] if name in self.spans else 0.0

    def hit_ratio(self, name):
        """Share of calls that opened no child span: served from a cache."""
        rec = self.spans.get(name)
        return rec[3] / rec[0] if rec and rec[0] else 0.0

    def dump(self):
        return {
            "spans": {n: dict(zip(("calls", "total_s", "self_s", "childless"), r)) for n, r in sorted(self.spans.items())},
            "edges": [
                {"parent": p, "name": n, "calls": r[0], "total_s": r[1], "self_s": r[2]}
                for (p, n), r in sorted(self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))
            ],
            "counts": dict(sorted(self.counts.items())),
            "leaf_s": dict(self.leaf_s),
        }


def install(tracer: Tracer):
    """Wrap the public functions of every dlperiods layer the benchmark reports.

    A function imported by name into another module is patched in that
    module too, with the same wrapper, since that is where it is looked up.
    """
    from dlperiods import cyclotomic, dlchar, ffield, green, groups, matrixops, tori

    def wrap(name, fn, *owners, on_call=None):
        w = tracer.span(name, fn, on_call)
        for owner, attr in owners:
            tracer.patch(owner, attr, w)

    for attr in ("add", "sub", "neg", "mul", "inv", "pow"):
        tracer.patch(ffield.FieldOps, attr, tracer.leaf("ffield", f"ffield.{attr}.calls", ffield.FieldOps.__dict__[attr]))

    def count_mults(args):
        _, A, B = args
        tracer.count("matrixops.field_mults", len(A) * len(B) * (len(B[0]) if B else 0))

    def count_candidates(args):
        if any(frame[0] == WITNESS for frame in tracer.stack):
            tracer.count("dlchar.witness.candidates")

    tracer.counts.setdefault("matrixops.field_mults", 0)
    tracer.counts.setdefault("dlchar.witness.candidates", 0)
    wrap("matrixops.mat_mul", matrixops.mat_mul, (matrixops, "mat_mul"), on_call=count_mults)
    wrap("matrixops.is_invertible", matrixops.is_invertible, (matrixops, "is_invertible"), on_call=count_candidates)
    for attr in ("mat_inv", "mat_rank", "kernel_basis", "charpoly", "restrict_to_subspace"):
        wrap(f"matrixops.{attr}", getattr(matrixops, attr), (matrixops, attr))

    def note_jordan(args):
        G, g = args
        tracer.jordan_keys.add(G.key(g))

    for attr in ("elements", "generators", "conjugacy_classes", "conj"):
        wrap(f"groups.{attr}", groups.Group.__dict__[attr], (groups.Group, attr))
    wrap("groups.jordan", groups.Group.jordan, (groups.Group, "jordan"), on_call=note_jordan)
    for attr in ("centralizer_type", "eigenspace_basis"):
        wrap(f"groups.{attr}", getattr(groups, attr), (groups, attr), (dlchar, attr))

    wrap("tori.instantiate", tori.instantiate, (tori, "instantiate"))
    wrap("tori.characters", tori.characters, (tori, "characters"))
    wrap("tori.level", tori.TorusInstance.level, (tori.TorusInstance, "level"))

    wrap("dlchar.engine", dlchar.engine, (dlchar, "engine"))
    wrap("dlchar.dl_table", dlchar.dl_table, (dlchar, "dl_table"))
    wrap("dlchar.dl_value", dlchar.dl_value, (dlchar, "dl_value"))
    wrap("dlchar.value", dlchar.DLEngine.value, (dlchar.DLEngine, "value"))
    wrap("dlchar.gamma_data", dlchar.DLEngine.gamma_data, (dlchar.DLEngine, "gamma_data"))
    wrap("dlchar.profile", dlchar.DLEngine.profile, (dlchar.DLEngine, "profile"))
    wrap(WITNESS, dlchar.DLEngine._witness, (dlchar.DLEngine, "_witness"))

    wrap("cyclotomic.root_sum_value", cyclotomic.RootOfUnitySum.value, (cyclotomic.RootOfUnitySum, "value"))
    wrap("green.green_value", green.green_value, (green, "green_value"), (dlchar, "green_value"))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures named in BENCHMARK.json, from one traced solve."""
    t = tracer
    c = t.counts
    witness_calls = t.calls(WITNESS)
    candidates = c["dlchar.witness.candidates"]
    return {
        "groups.elements.s": t.total_s("groups.elements"),
        "groups.generators.s": t.total_s("groups.generators"),
        "groups.conjugacy_classes.s": t.total_s("groups.conjugacy_classes"),
        "groups.conj.calls": t.calls("groups.conj"),
        "groups.jordan.calls": t.calls("groups.jordan"),
        "groups.jordan.self_s": t.self_s("groups.jordan"),
        "groups.jordan.distinct": len(t.jordan_keys),
        "dlchar.gamma_data.calls": t.calls("dlchar.gamma_data"),
        "dlchar.gamma_data.hit_ratio": t.hit_ratio("dlchar.gamma_data"),
        "dlchar.profile.calls": t.calls("dlchar.profile"),
        "dlchar.profile.hit_ratio": t.hit_ratio("dlchar.profile"),
        "dlchar.profile.s": t.total_s("dlchar.profile"),
        "dlchar.witness.calls": witness_calls,
        "dlchar.witness.s": t.total_s(WITNESS),
        "dlchar.witness.candidates": candidates,
        "dlchar.witness.yield": witness_calls / candidates if candidates else 0.0,
        "dlchar.value.calls": t.calls("dlchar.value"),
        "dlchar.value.self_s": t.self_s("dlchar.value"),
        "dlchar.engine.s": t.total_s("dlchar.engine"),
        "tori.instantiate.s": t.total_s("tori.instantiate"),
        "tori.level.s": t.total_s("tori.level"),
        "cyclotomic.root_sum_value.calls": t.calls("cyclotomic.root_sum_value"),
        "cyclotomic.root_sum_value.s": t.total_s("cyclotomic.root_sum_value"),
        "green.green_value.calls": t.calls("green.green_value"),
        "green.green_value.s": t.total_s("green.green_value"),
        "matrixops.mat_mul.calls": t.calls("matrixops.mat_mul"),
        "matrixops.mat_mul.self_s": t.self_s("matrixops.mat_mul"),
        "matrixops.field_mults": c["matrixops.field_mults"],
        "matrixops.mat_inv.calls": t.calls("matrixops.mat_inv"),
        "matrixops.mat_rank.calls": t.calls("matrixops.mat_rank"),
        "matrixops.kernel_basis.calls": t.calls("matrixops.kernel_basis"),
        "matrixops.charpoly.calls": t.calls("matrixops.charpoly"),
        "ffield.add.calls": c["ffield.add.calls"],
        "ffield.mul.calls": c["ffield.mul.calls"],
        "ffield.pow.calls": c["ffield.pow.calls"],
        "ffield.inv.calls": c["ffield.inv.calls"],
        "ffield.self_s": t.leaf_s["ffield"],
    }
