"""Span tracing installed from outside the library, and per-layer metrics.

`install` wraps the public functions of the six perfbase layer modules and
rebinds every module attribute in the perfbase package that holds one of
them (for example rmcode's own `field_make` and `find_primitive` names, and
the names cli imports from tensor3), so a call is traced whichever name it
goes through.  Public classes get spans on their constructor, their named
public methods and the matrix operators.  The per-element arithmetic classes
of gf (Field, FieldElement, FqPolynomial) get none, because spans on every
field operation would swamp the run: their time counts as self time of the
calling layer.

Code that wants its calls traced must look functions up through the module
(`rmcode.build_mtr(...)`), not through names it imported before `install`.

Spans are kept in memory as (id, parent, name, start, end, count) and handed
to the caller at the end.  A layer's self time is its spans' duration minus
the time their child spans cover.
"""

import functools
import importlib
import inspect
import itertools
import sys
import time

LAYERS = ("gf", "exactla", "tensor3", "construct", "rmcode", "cli")
ELEMENT_CLASSES = {"Field", "FieldElement", "FqPolynomial"}
TRACED_DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__matmul__"}

# Span-name groups behind the named per-layer metrics.
GROUPS = {
    "gf.field_build": {"gf.field_make", "gf.find_primitive"},
    "exactla.rref": {"exactla.rref", "exactla.FqMatrix.rref"},
    "exactla.space_build": {"exactla.MatrixSpace.__init__"},
    "exactla.membership": {"exactla.MatrixSpace.contains",
                           "exactla.MatrixSpace.reduce_vector",
                           "exactla.MatrixSpace.coordinates",
                           "exactla.space_contains"},
    "tensor3.verify_base": {"tensor3.verify_base"},
    "tensor3.oracle": {"tensor3.exhaustive_trk"},
    "rmcode.distance": {"rmcode.min_rank_distance",
                        "rmcode.min_hamming_distance",
                        "rmcode.RankCode.distance",
                        "rmcode.BlockCode.distance"},
    "rmcode.pipeline": {"rmcode.build_mtr", "rmcode.one_dim_power_base",
                        "rmcode.shorten_mtr", "rmcode.GammaBasis.__init__",
                        "rmcode.GammaBasis.power"},
    "construct.build": {"construct.base_dual_powers",
                        "construct.base_dual_powers_rect",
                        "construct.base_left_factor",
                        "construct.base_inverse_family",
                        "construct.base_rect_small_n",
                        "construct.base_singular",
                        "construct.atkinson_base"},
    "cli.reverify": {"cli.reverify"},
    "cli.serialize": {"cli.certificate_from_result", "cli.write_certificate"},
}


def _codewords(args, out):
    """Projective codewords a distance scan may visit: an upper bound."""
    code = args[0]
    q, k = code.field.q, code.k
    return (q ** k - 1) // (q - 1) if k else 0


def _members(args, out):
    return out.candidate.size


# span name -> function(args, result) giving the span's count
COUNTS = {"rmcode.min_rank_distance": _codewords}
COUNTS.update({name: _members for name in GROUPS["construct.build"]})


class Tracer:
    """Collects spans of one process; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.ids = itertools.count()

    def open(self, name):
        sid = next(self.ids)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def close(self, token, count=0):
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append(token + (end, count))

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(token)
                raise
            tracer.close(token, count(args, out) if count else 0)
            return out

        return traced


def _wrap_class(tracer, layer, cls):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in TRACED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, member.__func__)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))


def install(tracer):
    """Wrap the layers' public functions at every perfbase binding site."""
    wrapped = {}  # original function -> traced wrapper
    for layer in LAYERS:
        module = importlib.import_module(f"perfbase.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and attr not in ELEMENT_CLASSES:
                _wrap_class(tracer, layer, obj)
    for modname, module in list(sys.modules.items()):
        if modname != "perfbase" and not modname.startswith("perfbase."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


# --- aggregation ---------------------------------------------------------------------


def self_times(spans):
    """Per span id: (name, duration, self time, parent, count)."""
    covered = {}
    for sid, parent, name, t0, t1, count in spans:
        covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    return {sid: (name, t1 - t0, (t1 - t0) - covered.get(sid, 0.0), parent, count)
            for sid, parent, name, t0, t1, count in spans}


def summarize(spans):
    """Totals per span name, per layer and per metric group.

    Returns {"names": {name: [calls, self_s, incl_s, count]},
             "layers": {layer: self_s}, "groups": {group: [calls, self_s, incl_s]},
             "members": (members, seconds) of outermost construct calls}.
    """
    table = self_times(spans)
    names = {}
    for name, dur, self_s, parent, count in table.values():
        row = names.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += self_s
        row[2] += dur
        row[3] += count
    layers = {}
    for name, (calls, self_s, incl, count) in names.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    groups = {}
    for group, members in GROUPS.items():
        rows = [names[n] for n in members if n in names]
        groups[group] = [sum(r[0] for r in rows), sum(r[1] for r in rows),
                         sum(r[2] for r in rows)]
    build = GROUPS["construct.build"]

    def nested(parent):
        while parent in table:
            if table[parent][0] in build:
                return True
            parent = table[parent][3]
        return False

    members = seconds = 0
    for name, dur, self_s, parent, count in table.values():
        if name in build and not nested(parent):
            members += count
            seconds += dur
    return {"names": names, "layers": layers, "groups": groups,
            "members": (members, seconds)}
