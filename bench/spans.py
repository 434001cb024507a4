"""Spans around calls into roeclass, put there from outside the program.

A traced phase replaces the public functions of each layer module with
wrappers, in every ``roeclass`` namespace that holds a reference to them,
so calls from one layer into another are timed too.  Each span records its
name, start, end, parent span and operation id; spans stay in memory and are
written out as JSON when the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" attributes patch the class.
SPANS = {
    "supernatural.sn": ("supernatural", "supernatural_of_tower"),
    "supernatural.obstruction": ("supernatural", "obstruction_witness"),
    "supernatural.decide": ("supernatural", "bijectively_coarsely_equivalent"),
    "supernatural.decide_ce": ("supernatural", "coarsely_equivalent"),
    "supernatural.decide_divides": ("supernatural", "sn_divides"),
    "equivalence.interleave": ("equivalence", "interleave_towers"),
    "equivalence.build": ("equivalence", "build_back_and_forth"),
    "equivalence.verify": ("equivalence", "verify_bijective_coarse_equivalence"),
    "equivalence.witness": ("equivalence", "TowerBijection.__post_init__"),
    "ktheory.eq": ("ktheory", "k0_equal"),
    "ktheory.pos": ("ktheory", "k0_positive"),
    "ktheory.divide": ("ktheory", "unit_divide"),
    "ktheory.iso": ("ktheory", "k0_iso_exists"),
    "ktheory.arith": ("ktheory", "k0_sub"),
    "ktheory.class": ("ktheory", "K0Class.__post_init__"),
    "roeops.construct": ("roeops", "PropagationOperator.__post_init__"),
    "roeops.decompose": ("roeops", "block_decompose"),
    "roeops.trace": ("roeops", "trace_vector"),
    "roeops.connect": ("roeops", "connecting_map"),
    "roeops.mvn": ("roeops", "mvn_partial_isometry"),
    "roeops.compose": ("roeops", "compose"),
    "roeops.adjoint": ("roeops", "adjoint"),
    "roeops.propagation": ("roeops", "propagation"),
    "roeops.conjugate": ("roeops", "conjugate_by_bijection"),
    "blockspace.space": ("blockspace", "FiniteMetricSpace.__post_init__"),
    "blockspace.r_components": ("blockspace", "r_components"),
    "blockspace.embed": ("blockspace", "embed_into_nonneg_integers"),
    "blockspace.profile": ("blockspace", "asdim_zero_profile"),
    "serialize.parse": ("serialize", "load_json"),
    "serialize.emit": ("serialize", "canonical_json"),
}
for _kind in ("tower", "k0", "bijection", "metric_space", "operator", "space", "sn"):
    SPANS[f"serialize.parse_{_kind}"] = ("serialize", f"{_kind}_from_obj")
for _kind in ("tower", "k0", "bijection", "report", "operator", "blocktuple", "sn"):
    SPANS[f"serialize.emit_{_kind}"] = ("serialize", f"{_kind}_to_obj")


def _count_hooks():
    """Problem sizes recorded at the span boundaries: span name ->
    (counter, function of (args, kwargs, result) giving the amount)."""
    def witness_entries(args, kwargs, res):
        return len(res[1].prefix) + len(res[1].period) if res[1] is not None else 0

    def blocks_checked(args, kwargs, res):
        checked = args[1] if len(args) > 1 else kwargs.get("require_projection", False)
        return len(args[0].blocks) if checked else 0

    return {
        "equivalence.build": ("equivalence.domain_points", lambda a, k, r: r.domain_size),
        "equivalence.verify": ("equivalence.domain_points", lambda a, k, r: a[0].domain_size),
        "ktheory.pos": ("ktheory.witness_entries", witness_entries),
        "roeops.construct": ("roeops.nnz", lambda a, k, r: len(a[0].entries)),
        "roeops.trace": ("roeops.blocks_checked", blocks_checked),
        "roeops.mvn": ("roeops.blocks_checked", lambda a, k, r: 2 * len(a[0].blocks)),
        "blockspace.space": ("blockspace.points", lambda a, k, r: a[0].size),
        "blockspace.embed": ("blockspace.max_distance_sum", lambda a, k, r: a[0].max_distance),
        "serialize.parse": ("serialize.bytes_in", lambda a, k, r: len(a[0])),
        "serialize.emit": ("serialize.bytes_out", lambda a, k, r: len(r)),
    }


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._undo: list[tuple] = []
        self._counted: tuple | None = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, perf_counter(), None, parent, self.op))
        self._stack.append([len(self.spans) - 1, 0.0])
        return len(self.spans) - 1

    def end(self, error: BaseException | None = None):
        index, child = self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        stop = perf_counter()
        self.spans[index] = (name, start, stop, parent, op)
        self.self_s[name] += (stop - start) - child
        self.calls[name] += 1
        layer = name.split(".")[0]
        # an exception passing out through nested spans of one layer counts once
        if error is not None and self._counted != (error, layer):
            self._counted = (error, layer)
            self.errors[layer] += 1
        if self._stack:
            self._stack[-1][1] += stop - start

    def span(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            self.end(error=e)
            raise
        self.end()
        return result

    def adopt(self, child: dict, parent: int):
        """Take over the spans a traced subprocess wrote: its root spans become
        children of span ``parent``, whose self time loses what they cover."""
        base = len(self.spans)
        covered = 0.0
        for name, start, stop, up, _ in child["spans"]:
            self.spans.append((name, start, stop, base + up if up >= 0 else parent, self.op))
            if up < 0:
                covered += stop - start
        self.self_s[self.spans[parent][0]] -= covered
        for name, s in child["self_s"].items():
            self.self_s[name] += s
        self.calls.update(child["calls"])
        self.errors.update(child["errors"])
        self.counts.update(child["counts"])

    def layer_self_ms(self, layer: str) -> float:
        return 1000 * sum(s for n, s in self.self_s.items() if n.split(".")[0] == layer)

    def dump(self) -> dict:
        return {"spans": self.spans, "self_s": dict(self.self_s), "calls": dict(self.calls),
                "errors": dict(self.errors), "counts": dict(self.counts)}

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.dump(), f, separators=(",", ":"))

    # -- patching --------------------------------------------------------------

    def install(self):
        """Wrap every function named in SPANS wherever roeclass refers to it."""
        hooks = _count_hooks()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "roeclass" or n.startswith("roeclass."))]
        for name, (mod, attr) in SPANS.items():
            module = sys.modules.get(f"roeclass.{mod}")
            if module is None:
                continue
            owner, _, method = attr.partition(".")
            if method:
                cls = getattr(module, owner, None)
                original = cls.__dict__.get(method) if cls is not None else None
                if original is not None:
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrapper(name, original, hooks.get(name)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original, hooks.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _wrapper(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                tracer.counts[hook[0]] += hook[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced
