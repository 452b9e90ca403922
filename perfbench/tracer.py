"""Outside-in tracer for the benchmark's traced passes.

The tracer never edits the program.  It replaces public functions by
timing wrappers under the names their callers look them up by: module
globals of every ``multirel`` module (so ``from .mrel import closure`` in
``determinise`` is rebound too), entries of module-level dispatch tables,
a few bindings in ``laws`` and ``generate``, and ``MRel.__post_init__``.

Spans live in flat arrays (name, parent, start, duration) until the pass
ends, 18 bytes each, since a traced pass at sizes 2,2 records millions.
Spans of one law check share the id of their ``laws.check`` span.  A
span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time

# The kernel modules whose public functions are wrapped wholesale.
KERNEL = ("rel", "mrel", "power", "peleg", "determinise")

# Helpers that take less time than a wrapper (about 1 us on the reference
# machine), whose timing would only distort their callers; and
# ``determinise.determinise``, which only dispatches to the four maps that
# are wrapped in its dispatch table.
SKIP = frozenset({"rel.bits", "rel.full_mask", "determinise.determinise"})


class Tracer:
    """Span recorder; ``wrap`` returns a timing wrapper for a callable."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.duration = array.array("f")
        self.errors: dict[int, str] = {}
        self.items: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.duration.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int):
        self.duration[i] = self.clock() - self.start[i]
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                self.errors[i] = type(e).__name__
                raise
            finally:
                close(i)

        traced.__wrapped__ = fn
        return traced

    def wrap_stream(self, name: str, fn):
        """Wrap a function returning an iterator: each ``next`` is a span,
        and ``items[name]`` counts the values yielded."""
        nid = self._name_id(name)
        self.items.setdefault(name, 0)
        tracer = self

        class Stream:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                i = tracer._open(nid)
                try:
                    value = next(self.inner)
                finally:
                    tracer._close(i)
                tracer.items[name] += 1
                return value

        def traced(*args, **kwargs):
            return Stream(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Installing and removing wrappers

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        """Wrap the program's public functions; ``uninstall`` restores them."""
        pkg = sys.modules["multirel"]
        mods = {n: sys.modules[f"multirel.{n}"] for n in KERNEL + ("laws", "generate")}
        wrapped: dict[int, object] = {}
        for short in KERNEL:
            mod = mods[short]
            for attr, obj in vars(mod).items():
                label = f"{short}.{attr}"
                if (attr.startswith("_") or label in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self.wrap(label, obj)
        # rebind every module global and dispatch-table entry that names one
        for modname, mod in list(sys.modules.items()):
            if modname != "multirel" and not modname.startswith("multirel."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and attr.startswith("_"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._set(obj, key, wrapped[id(val)])
        # generate's classifier bindings now hold the mrel wrappers; wrapping
        # them again gives the calls made from generate a span of their own
        laws, gen = mods["laws"], mods["generate"]
        self._set(laws, "parse", self.wrap("dsl.parse", laws.parse))
        self._set(laws, "eval_term", self.wrap("dsl.eval_term", laws.eval_term))
        self._set(laws, "shrink", self.wrap("laws.shrink", laws.shrink))
        self._set(laws, "instances", self.wrap_stream("generate.instances", laws.instances))
        self._set(gen, "classify_mrel", self.wrap("generate.classify_mrel", gen.classify_mrel))
        self._set(gen, "classify_rel", self.wrap("generate.classify_rel", gen.classify_rel))
        mrel_cls = pkg.MRel
        self._set(mrel_cls, "__post_init__", self.wrap("mrel.validate", mrel_cls.__post_init__))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # ------------------------------------------------------------------
    # Output

    def write(self, path, group):
        """Write all spans: a JSON header line, then the raw columns."""
        columns = (self.name, self.parent, group, self.start, self.duration)
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[c, col.typecode] for c, col in
                        zip(("name", "parent", "group", "start", "duration"), columns)],
            "errors": {str(k): v for k, v in self.errors.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in columns:
                col.tofile(fh)


def self_times(start, duration, parent) -> array.array:
    """Each span's duration minus the union of its children's intervals.

    Spans are indexed in start order and a parent precedes its children,
    so each parent's children arrive sorted by start and their union can
    be merged in one sweep.
    """
    n = len(start)
    covered = array.array("d", bytes(8 * n))
    reach = array.array("d", bytes(8 * n))  # end of each parent's covered prefix
    for j in range(n):
        p = parent[j]
        if p < 0:
            continue
        lo = max(start[j], reach[p], start[p])
        hi = min(start[j] + duration[j], start[p] + duration[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    for i in range(n):
        covered[i] = duration[i] - covered[i]
    return covered


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], array.array]:
    """Per-function calls, self and inclusive seconds, plus the derived
    counts and ratios the benchmark reports, from one pass's spans; and
    each span's group, the index of its enclosing ``laws.check`` span."""
    start, duration, parent, name = tr.start, tr.duration, tr.parent, tr.name
    self_s = self_times(start, duration, parent)
    labels = tr.names
    calls = [0] * len(labels)
    own = [0.0] * len(labels)
    incl = [0.0] * len(labels)
    active = [0] * len(labels)  # open spans of each name on the current path
    check = tr._ids.get("laws.check", -1)
    shrink = tr._ids.get("laws.shrink", -1)
    parse, evaluate = tr._ids.get("dsl.parse", -1), tr._ids.get("dsl.eval_term", -1)
    group = array.array("i", bytes(4 * len(start)))
    probes = evals = 0
    path: list[int] = []
    for j in range(len(start)):
        p = parent[j]
        while path and path[-1] != p:
            active[name[path.pop()]] -= 1
        k = name[j]
        calls[k] += 1
        own[k] += self_s[j]
        if not active[k]:  # a name re-entered below itself counts once
            incl[k] += duration[j]
        group[j] = j if k == check else group[p] if p >= 0 else -1
        if shrink >= 0 and active[shrink]:
            probes += k == parse
            evals += k == evaluate
        path.append(j)
        active[k] += 1
    out: dict[str, float] = {}
    for k, label in enumerate(labels):
        out[label + ".calls"] = calls[k]
        out[label + ".self_s"] = own[k]
        out[label + ".incl_s"] = incl[k]
    for label, n in tr.items.items():
        out[label + ".items"] = n
    out["laws.shrink.probes"] = probes
    shrinks = out.get("laws.shrink.calls", 0)
    out["laws.shrink.evals_per_witness"] = evals / shrinks if shrinks else 0.0
    out["peleg.cap_errors"] = sum(
        1 for i, err in tr.errors.items()
        if err == "EnumerationTooLarge" and labels[name[i]].startswith("peleg.")
    )
    classified = out.get("generate.classify_mrel.calls", 0) + out.get("generate.classify_rel.calls", 0)
    items = out.get("generate.instances.items", 0)
    out["generate.filter_accept_ratio"] = items / classified if classified else 1.0
    return out, group
