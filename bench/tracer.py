"""Outside-in span tracer for vertexpoly's public functions.

`Tracer.install` wraps each function listed in `TARGETS` and rebinds the
wrapper wherever the original is reachable: every `vertexpoly` module
namespace that imported the name, every class attribute that aliases it
(`__mul__` and `__rmul__` are one function) and every function default
argument that captured it (`check_ik_properties(..., z_fn=z_sum)`).
`Tracer.uninstall` puts every original back.  Nothing under `src/` is
edited.

Each call records one span: name, start, end, parent span and one integer
value (trial-division hit flag, product term count).  Spans are kept in
flat arrays in memory and written out once, after the traced run.  The
span stack is shared state, so tracing is only meaningful on one thread;
the harness traces serial runs only.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (layer, "module:function" or "module:Class.method").  Functions sharing
# a layer add up; a call nested in a span of its own layer still counts
# once toward the layer's self time.
TARGETS = (
    ("ring.trial_div", "ring:try_exact_divide"),
    ("ring.mul", "ring:MultiPoly.__mul__"),
    ("ring.add", "ring:MultiPoly.__add__"),
    ("ring.ratfunc_norm", "ring:RatFunc.__init__"),
    ("ring.ratfunc_eq", "ring:RatFunc.__eq__"),
    ("ring.det", "ring:determinant"),
    ("ring.render", "ring:MultiPoly.__str__"),
    ("ring.render", "ring:RatFunc.__str__"),
    ("ring.render", "ring:poly_to_json"),
    ("ring.render", "ring:ratfunc_to_json"),
    ("lattice.row_op", "lattice:apply_row_operator"),
    ("lattice.wavefunction", "lattice:wavefunction"),
    ("lattice.exchange", "lattice:check_rll"),
    ("lattice.exchange", "lattice:check_ybe"),
    ("sympoly.family", "sympoly:family_poly"),
    ("sympoly.skew", "sympoly:skew_factor"),
    ("sympoly.grothendieck", "sympoly:grothendieck_det"),
    ("sympoly.grothendieck", "sympoly:degeneration_rhs"),
    ("dwbp.z_det_hom", "dwbp:z_det_hom"),
    ("dwbp.z_det_inhom", "dwbp:z_det_inhom"),
    ("dwbp.z_sum", "dwbp:z_sum"),
    ("dwbp.ik", "dwbp:check_ik_properties"),
    ("mprod.build", "mprod:mp_build"),
    ("mprod.raising", "mprod:raising_parts"),
    ("mprod.raising", "mprod:mp_diagonalized"),
    ("mprod.trace", "mprod:trace_wavefunction"),
    ("mprod.trace", "mprod:k_prefactor"),
    ("params.construct", "params:ParamSet.__init__"),
    ("params.construct", "params:ParamSet.sample"),
    ("params.construct", "params:ParamSet.unchecked"),
    ("params.construct", "params:ParamSet.symbolic_over"),
    # one span per check, named verify.<check>
    ("verify", "verify:run_check"),
)

# per-span integer recorded from the result
_VALUE_OF = {
    "ring.trial_div": lambda out: out is not None,
    "ring.mul": lambda out: len(out.terms) if hasattr(out, "terms") else 0,
}


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.names = []          # span name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    @contextmanager
    def span(self, name):
        """Record one span around harness code."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.value.append(0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def _wrap(self, layer, fn):
        name_id, parent, start, end, value = (
            self.name_id, self.parent, self.start, self.end, self.value)
        stack = self._stack
        clock = perf_counter
        value_of = _VALUE_OF.get(layer)
        if layer == "verify":
            def lid_of(args):
                return self._id(f"verify.{args[0].name}")
        else:
            fixed = self._id(layer)

            def lid_of(args):
                return fixed

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(lid_of(args))
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if value_of is not None:
                value[i] = value_of(out)
            return out

        return wrapper

    def _rebind(self, obj, key, new):
        # a class keeps the raw attribute (e.g. the classmethod object)
        old = vars(obj)[key] if isinstance(obj, type) else getattr(obj, key)
        self._undo.append((obj, key, old))
        setattr(obj, key, new)

    def install(self):
        """Wrap every target and rebind it at each site that holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "vertexpoly"
                                         or name.startswith("vertexpoly."))]
        for layer, target in TARGETS:
            mod_name, _, attr = target.partition(":")
            mod = sys.modules[f"vertexpoly.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__))
                else:
                    new = self._wrap(layer, raw)
                for key, val in list(vars(cls).items()):
                    if val is raw:
                        self._rebind(cls, key, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(layer, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, new)
                    elif isinstance(val, types.FunctionType) and any(
                            d is orig for d in val.__defaults__ or ()):
                        self._rebind(val, "__defaults__", tuple(
                            new if d is orig else d
                            for d in val.__defaults__))

    def uninstall(self):
        """Restore every rebound name, latest first."""
        while self._undo:
            obj, key, old = self._undo.pop()
            setattr(obj, key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover.

        Spans come from one thread, so children nest inside their parent
        and do not overlap each other.
        """
        n = len(self.name_id)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, array("d", (d - c for d, c in zip(dur, child)))

    def write(self, path):
        """Write all spans as gzipped columnar JSON."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "name_id": self.name_id.tolist(),
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist(),
                       "value": self.value.tolist()}, fh)

