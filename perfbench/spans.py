"""Spans for the traced run, recorded from the benchmark's own files.

The traced run wraps the public functions of each layer module (and
every other fundom module that imported them by name), the
`CosetList.mats` property (the words layer: it evaluates every word
once) and `SpanningTree.depth`.  Each call records one span: name
`<layer>.<function>`, start, end, job id, parent and an optional count.
A call the benchmark makes has the job span as its parent; a call one
layer makes into another (theta0 into projline.m_table, verify into
projline.enumerate_p1, cusp_table into cosets.theta0) nests under the
calling span, so self time lands on the layer doing the work.  Helpers
called once per representative (evaluate, normalize, big_m, ...) are not
wrapped, to keep the overhead small; their time is the self time of the
span that calls them.  `residues` has no public call on any job path.

Spans stay in memory and the worker hands them to run.py when its pass
ends.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED = {
    "projline": ("psi", "enumerate_p1", "m_table", "m_distribution"),
    "cosets": ("build", "theta0", "theta1", "theta_full", "verify"),
    "cayley": ("build_graph", "is_connected", "spanning_tree"),
    "domain": ("cusp_table", "render_svg", "render_json", "cusps_of"),
}

LAYERS = ("projline", "words", "cosets", "cayley", "domain", "cli", "bench")

# span fields
NAME, START, END, JOB, PARENT, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._job = None
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, job=None, count=None):
        if job is not None:
            self._job = job
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._job, parent,
                           count])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][END] = perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def install(self, fundom):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fundom" or name.startswith("fundom.")]
        for layer, names in TRACED.items():
            for fname in names:
                orig = getattr(getattr(fundom, layer), fname, None)
                if orig is None:
                    continue
                traced = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, traced)

        mats = vars(fundom.cosets.CosetList).get("mats")
        if isinstance(mats, property):
            self._patch(fundom.cosets.CosetList, "mats",
                        property(self._traced_mats(mats.fget)))
        depth = vars(fundom.cayley.SpanningTree).get("depth")
        if depth is not None:
            self._patch(fundom.cayley.SpanningTree, "depth",
                        self._wrap("cayley.tree_depth", depth))

    def _traced_mats(self, getter):
        def mats(lst):
            if getattr(lst, "_mats", None) is not None:
                return getter(lst)
            with self.span("words.evaluate", count=len(lst.reps)):
                return getter(lst)

        return mats

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


# ---------------------------------------------------------------------------
# analysis, in run.py, over the spans of one traced pass


def layer_of(name: str) -> str:
    return "bench" if name == "job" else name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def outer_total(spans: list[list], names: set) -> float:
    """Total duration of spans named in `names` with no such ancestor,
    so theta1 inside theta_full is not counted twice."""
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            total += s[END] - s[START]
    return total


def layer_summary(spans: list[list]) -> dict:
    """Per layer: self time and number of spans; plus the job total."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        entry = out[layer_of(s[NAME])]
        entry["self_s"] += own
        entry["calls"] += 1
    return out
