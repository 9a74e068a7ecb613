"""Spans and counts recorded around residua's public functions.

Nothing inside the package changes: `Tracer.install` replaces every public
function of the layer modules (kernel, polyring, groebner, homalg,
residues, cli) in each residua module namespace that binds it, plus a few
methods through their classes, by a wrapper that records a span: name,
job id, span id, parent span id, start and end.  `uninstall` puts the
originals back.  Spans stay in memory and are written out by `dump`.

A span's self time is its duration minus the durations of its direct
children; wrappers nest strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array

LAYERS = ("kernel", "polyring", "groebner", "homalg", "residues", "cli")

# Exponent-vector primitives cost less than a span; wrapping them would
# measure the wrapper, so they stay bare.
BARE = frozenset({"exp_add", "exp_sub", "exp_lcm", "exp_divides", "term_mul_key"})

METHODS = {
    "polyring": {"Polynomial": ("__add__", "__radd__", "__mul__", "__rmul__")},
    "groebner": {
        "Ideal": ("groebner",),
        "QuotientContext": ("reduce",),
        "ModuleLifter": ("__init__", "lift"),
    },
    "homalg": {"ChainComplex": ("__init__",)},
}


def _gb_cache_hit(args, kwargs, tracer):
    ideal = args[0]
    order = (args[1] if len(args) > 1 else kwargs.get("order")) or ideal.ring.default_order
    if order in ideal._gb_cache:
        tracer.extra["groebner.gb_cache.hits"] += 1


def _count(key, measure):
    def after(result, tracer):
        tracer.extra[key] += measure(result)

    return after


def _script_outcome(result, tracer):
    statements = result[2]["statements"]
    tracer.extra["cli.statements"] += len(statements)
    tracer.extra["cli.statement_errors"] += sum("error" in s for s in statements)


# span name -> hook run before the call (args, kwargs, tracer)
BEFORE = {"groebner.Ideal.groebner": _gb_cache_hit}
# span name -> hook run on the result of a call that returned
AFTER = {
    "groebner.groebner_basis": _count("groebner.groebner_basis.basis_len", len),
    "groebner.module_member": _count("groebner.module_member.true", bool),
    "homalg.free_resolution": _count("homalg.betti_sum", lambda c: sum(c.ranks)),
    "homalg.minors_ideal": _count("homalg.minors_ideal.gens", lambda i: len(i.gens)),
    "cli.run_script": _script_outcome,
}
EXTRA_KEYS = (
    "groebner.gb_cache.hits",
    "groebner.groebner_basis.basis_len",
    "groebner.module_member.true",
    "homalg.betti_sum",
    "homalg.minors_ideal.gens",
    "cli.statements",
    "cli.statement_errors",
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.self_ns: list = []
        self.extra = dict.fromkeys(EXTRA_KEYS, 0)
        # flat records of finished spans: name, job, id, parent, start, end
        self.spans = array("q")
        self.job = -1
        self._stack: list = []  # [span id, child ns] per open span
        self._next_id = 0
        self._patches: list = []
        self._wrappers = None  # built on first install, from the loaded modules

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions and listed methods of the loaded
        residua modules; every namespace binding a target gets the wrapper."""
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "residua" or name.startswith("residua."))
        ]
        if self._wrappers is None:
            self._wrappers = self._make_wrappers()
        for layer in LAYERS:
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(sys.modules["residua." + layer], cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrappers[cls.__dict__[meth]])
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in self._wrappers:
                    self._patch(mod, attr, self._wrappers[val])

    def _make_wrappers(self):
        """original function -> wrapper, for every traced function and method."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["residua." + layer]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or attr in BARE or not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__
                if home == mod.__name__ or (layer == "kernel" and home == "residua._kernel_py"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                for meth in methods:
                    fn = getattr(mod, cls_name).__dict__[meth]
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(f"{layer}.{cls_name}.{fn.__name__.strip('_')}", fn)
        return wrappers

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _name_id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            return len(self.names) - 1

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs, tracer)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                spans.extend((nid, tracer.job, sid, parent, start, end))
            if after is not None:
                after(result, tracer)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self):
        """span name -> (calls, self seconds)."""
        return {
            name: (self.calls[i], self.self_ns[i] / 1e9) for i, name in enumerate(self.names)
        }

    def dump(self, path, stamp):
        """Write the recorded spans as gzipped JSON lines: a header with the run's
        stamp, the column names and the span names, then one
        [name, job, id, parent, start_ns, end_ns] row per span."""
        header = {"stamp": stamp, "columns": ["name", "job", "id", "parent", "start_ns", "end_ns"],
                  "names": self.names}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            rec = self.spans
            for k in range(0, len(rec), 6):
                fh.write(json.dumps(rec[k : k + 6].tolist()) + "\n")
