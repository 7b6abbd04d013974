"""Tracing from outside the program: wraps each layer's public functions
and the methods of its core classes, and records spans and counts.

A call is a span (name, start, end, parent span).  Per-element scalar calls
(field arithmetic, point normalisation, conic evaluation and the like) run
millions of times, so they are timed and counted but keep no span record;
their time still goes to their own layer's self time.  A layer's self time
is the time its calls ran minus the time their child calls ran.
"""

import inspect
import json
import sys
import time

LAYERS = ("gf", "geom", "conic", "veronese", "unital", "analysis", "cli")
CLASSES = {"gf": ("GF",), "geom": ("ProjectiveSpace", "PointSet"), "conic": ("Conic",)}
# per-element calls: timed and counted, no span record
SCALAR = {
    "gf.GF",
    "gf.field",
    "geom.ProjectiveSpace.normalize",
    "geom.ProjectiveSpace.index",
    "geom.ProjectiveSpace.point",
    "geom.PointSet",
    "geom.det3",
    "geom.matvec3",
    "geom.matmul3",
    "geom.inv3",
    "geom.transpose3",
    "geom.projective_space",
    "geom.projective_plane",
    "conic.Conic",
    "conic.eval_many",
    "conic.canonical_pencil",
    "veronese.symmetric_rank_leq1",
    "veronese.veronese_point",
    "analysis.pencil_members",
}
# phases timed from the outermost call of any of the named functions
PHASES = {
    "veronese.cone_s": ("veronese.cone_point_indices",),
    "analysis.enum_s": ("analysis.conics_contained",),
}
MAX_SPANS = 500_000


def _is_scalar(name):
    return any(name == s or name.startswith(s + ".") for s in SCALAR)


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self._child = []  # child time of each open call, innermost last
        self._open = []  # ids of the open spans, innermost last
        self._self = {layer: [0.0] for layer in LAYERS}
        self._calls = {}
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self._phase_depth = dict.fromkeys(PHASES, 0)
        self._phase_of = {fn: ph for ph, fns in PHASES.items() for fn in fns}
        self.flag_pairs = 0

    @property
    def self_s(self):
        return {layer: cell[0] for layer, cell in self._self.items()}

    @property
    def calls(self):
        return {name: cell[0] for name, cell in sorted(self._calls.items())}

    def calls_of(self, *names):
        return sum(self._calls[n][0] for n in names if n in self._calls)

    def _wrap(self, fn, name, layer):
        clock = time.perf_counter
        child = self._child
        count = self._calls.setdefault(name, [0])
        own = self._self[layer]

        if _is_scalar(name):

            def traced_scalar(*args, **kwargs):
                count[0] += 1
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    own[0] += dur - child.pop()
                    if child:
                        child[-1] += dur

            return traced_scalar

        tr = self
        opened = self._open
        phase = self._phase_of.get(name)
        counts_flag_pair = name == "gf.nullspace"

        def traced(*args, **kwargs):
            count[0] += 1
            if counts_flag_pair and tr._phase_depth["analysis.enum_s"]:
                tr.flag_pairs += 1
            if phase:
                tr._phase_depth[phase] += 1
            span_id = len(tr.spans) + tr.dropped + len(opened) + 1
            parent = opened[-1] if opened else None
            opened.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                own[0] += dur - child.pop()
                if child:
                    child[-1] += dur
                opened.pop()
                if phase:
                    tr._phase_depth[phase] -= 1
                    if not tr._phase_depth[phase]:
                        tr.phase_s[phase] += dur
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append((span_id, name, start, end, parent))
                else:
                    tr.dropped += 1

        return traced

    def install(self):
        """Wrap the public functions of every layer module and the methods
        of its core classes, and rebind every module-level reference to a
        wrapped function, so calls across modules are traced too."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"unitals.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                        continue
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    setattr(cls, attr, self._wrap(obj, f"{layer}.{cls_name}.{attr}", layer))
        for name, mod in list(sys.modules.items()):
            if name != "unitals" and not name.startswith("unitals."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    def write(self, path, extra):
        """Write spans, counts and self times as one JSON document."""
        doc = {
            "spans_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "calls": self.calls,
            "self_s": self.self_s,
            "phase_s": self.phase_s,
            "flag_pairs": self.flag_pairs,
        }
        doc.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
