"""In-memory spans around calls into chowcalc's public functions.

The engine is not edited: `install` replaces each listed function wherever a
chowcalc module namespace holds it (the engine imports names with
`from .x import y`, so one function can sit in several namespaces) and each
listed method on its class.  A span is (name, start, end, parent); a span's
self time is its duration minus the part covered by its child spans.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

TRACED = [
    ("groebner", "buchberger"), ("groebner", "eliminate"),
    ("groebner", "Ideal.normal_form"),
    ("homology", "tor_modules"), ("homology", "free_resolution"),
    ("homology", "coefficient_module"),
    ("primes", "factor"), ("primes", "minimal_primes"),
    ("primes", "length_at_prime"), ("primes", "generic_rank"),
    ("geometry", "cycle_of_subscheme"), ("geometry", "CartierDivisor.weil"),
    ("geometry", "ChartedSpace.glue_cycles"),
    ("morphisms", "flat_pullback"), ("morphisms", "proper_pushforward"),
    ("morphisms", "pushforward_module"), ("morphisms", "zariski_image"),
    ("intersection", "intersection_product"),
    ("intersection", "tor_length_table"),
    ("correspondences", "compose"),
    ("correspondences", "correspondence_degree"),
    ("script", "run_script"), ("script", "render_report"),
    ("polyring", "PolynomialRing.parse"),
]

# Span that times the argument keys of the repeat ratios, so that the
# bookkeeping is not charged to the caller's self time.
KEY_SPAN = "bench.argkey"


def _ring_key(ring):
    return ring.names, repr(ring.field)


def _ideal_key(I):
    return _ring_key(I.ring), I.key()


def _module_key(M):
    return (_ring_key(M.ring), M.rank,
            tuple(tuple(str(c) for c in v.coords) for v in M.relations))


def _minimal_primes_key(args):
    return _ideal_key(args["I"])


def _tor_modules_key(args):
    modulo = args.get("modulo")
    return (_module_key(args["M"]), _module_key(args["N"]),
            None if modulo is None else _ideal_key(modulo), args.get("up_to"))


# Calls whose arguments are compared with every earlier call of the run:
# ideals by reduced basis, modules by their relations.
REPEAT_KEYS = {"primes.minimal_primes": _minimal_primes_key,
               "homology.tor_modules": _tor_modules_key}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._active = []
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.repeats = {name: 0 for name in REPEAT_KEYS}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.starts)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx, nid):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        nid = self._id(name)
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, nid)

    def wrap(self, name, fn):
        nid = self._id(name)
        keyfn = REPEAT_KEYS.get(name)
        signature = inspect.signature(fn) if keyfn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if keyfn is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.call(KEY_SPAN, self._note_repeat, name, keyfn, bound)
            return out

        return traced

    def _note_repeat(self, name, keyfn, bound):
        key = keyfn(bound)
        if key in self.seen[name]:
            self.repeats[name] += 1
        else:
            self.seen[name].add(key)

    def install(self):
        """Wrap every TRACED function in every loaded chowcalc namespace."""
        modules = [m for n, m in sys.modules.items()
                   if n == "chowcalc" or n.startswith("chowcalc.")]
        for mod_name, path in TRACED:
            owner = sys.modules[f"chowcalc.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, path)
            traced = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def summary(self):
        """{name: [calls, self_s, total_s]}; total_s counts only spans with
        no enclosing span of the same name, so recursion is not doubled."""
        n = len(self.starts)
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur - covered[i]
            if self.span_outer[i]:
                row[2] += dur
        return out

    def repeat_frac(self, name):
        calls = sum(1 for i in self.span_name if self.names[i] == name)
        return self.repeats[name] / calls if calls else 0.0

    def write(self, path):
        """All spans as gzipped JSON: names, then [name, start, end, parent]
        rows with times in seconds from the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        rows = [[self.span_name[i], round(self.starts[i] - t0, 7),
                 round(self.ends[i] - t0, 7), self.span_parent[i]]
                for i in range(len(self.starts))]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": rows}, fh,
                      separators=(",", ":"))
