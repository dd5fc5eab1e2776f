"""In-memory span tracer for the betareif layers.

The tracer wraps, from outside the package, the functions through which one
betareif module calls another.  Each call records a span (name, start, end,
parent, run id) in flat arrays; `dump` writes them out at exit.  A span's
self time is its duration minus the part of that interval its child spans
cover.  Span names are `<module>.<function>` with an optional `:<branch>`.
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "bench.call"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.beta_inf_keys: set = set()
        self._restore: list = []

    # -- spans ----------------------------------------------------------

    def _name(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def arrays(self):
        """(names, start, end, parent, run) as numpy arrays."""
        return (np.asarray([self.names[j] for j in self.name_id], dtype=object),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64), np.array(self.run, dtype=np.int64))

    def dump(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), run=np.asarray(self.run))

    # -- wrappers ---------------------------------------------------------

    def wrap(self, owner, attr, name, branch=None, after=None):
        """Replace owner.attr by a spanning wrapper.  `branch(args)` names the
        branch before the call; `after(args, result)` may return one after
        it and updates the counters."""
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        tracer = self

        def wrapper(*args, **kwargs):
            full = name if branch is None else f"{name}:{branch(args)}"
            i = tracer.open(full)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                b = after(args, out)
                if b is not None:
                    tracer.name_id[i] = tracer._name(f"{name}:{b}")
            return out

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr, key):
        """Count calls of owner.attr without recording spans."""
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        counts = self.counts

        def counter(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counter)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def self_times(start, end, parent):
    """Per-span duration minus the length of the union of its children's
    intervals, each clipped to the parent's interval."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    kids = np.nonzero(parent >= 0)[0]
    if len(kids) == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, reach = -1, -math.inf
    for c in order.tolist():
        p = int(parent[c])
        if p != cur:
            cur, reach = p, start[p]
        lo = max(start[c], reach)
        hi = min(end[c], end[p])
        if hi > lo:
            out[p] -= hi - lo
            reach = hi
    return out


# ---------------------------------------------------------------------------
# branch keys
# ---------------------------------------------------------------------------

def dist_branch(space, k: int, n: int) -> str:
    """Solver branch of geometry._dists_to_flat_batch for (p, k, n)."""
    p = space.p
    if k == 0:
        return "point"
    if p == 2.0:
        return "l2"
    if k == n - 1:
        return "hyperplane"
    if p == 1.0 or p == math.inf:
        return "golden_line" if k == 1 else "lp"
    return "newton"


def best_plane_branch(space, result, descended: bool) -> str:
    if result.empty:
        return "empty"
    if space.is_hilbert:
        return "pca"
    return "descent" if descended else "exact_fit"


# ---------------------------------------------------------------------------
# installation on the betareif modules
# ---------------------------------------------------------------------------

def install(tracer: Tracer):
    """Wrap every cross-module binding the workloads go through."""
    from betareif import cli, cover, curves, measures
    from betareif.spaces import NormedSpace
    from betareif.cover import SigmaMap

    t = tracer
    t.wrap(NormedSpace, "norms", "spaces.norms")

    def dist_rows(Z, k, n, space):
        b = dist_branch(space, k, n)
        t.counts[f"geometry.dist.rows.{b}"] += len(np.atleast_2d(Z))
        return b

    def flat_batch_branch(args):
        space, _base, rows, Z = args[:4]
        k = np.asarray(rows).reshape(-1, space.dim).shape[0]
        return dist_rows(Z, k, space.dim, space)

    def affine_branch(args):
        space, plane, Z = args[:3]
        return dist_rows(Z, plane.basis.shape[0], space.dim, space)

    t.wrap(measures, "_dists_to_flat_batch", "geometry.dist", branch=flat_batch_branch)
    for mod in (measures, cover):
        t.wrap(mod, "distances_to_affine", "geometry.dist", branch=affine_branch)
    t.wrap(cover, "make_projection", "geometry.make_projection", branch=lambda a: a[2])
    t.wrap(cover, "graph_check", "geometry.graph_check")

    # best_plane's path is known only after the call: it took the descent
    # path when measures._descend ran inside it (keyed by stack depth)
    t.count_calls(measures, "_descend", "measures.descend")
    before = {}

    def plane_before(args):
        before[len(t._stack)] = t.counts["measures.descend"]
        return "pending"

    def plane_after(args, res):
        descended = t.counts["measures.descend"] != before.pop(len(t._stack))
        if res.certified_factor > 2.0:
            t.counts["measures.best_plane.uncertified"] += 1
        return best_plane_branch(args[0], res, descended)

    for mod in (measures, cover):
        t.wrap(mod, "best_plane", "measures.best_plane", branch=plane_before, after=plane_after)
    for mod in (cover, cli):
        t.wrap(mod, "dini_profile", "measures.dini_profile")

    def beta_inf_key(args, res):
        _space, _S, x, r, k = args[:5]
        t.beta_inf_keys.add((np.asarray(x, dtype=float).tobytes(), float(r), int(k)))

    t.wrap(cover, "beta_inf", "measures.beta_inf", after=beta_inf_key)

    def label_after(args, lab):
        if lab.kind == "good":
            t.counts["cover.classify_ball.good"] += 1

    for mod in (cover, cli):
        t.wrap(mod, "classify_ball", "cover.classify_ball", after=label_after)
        t.wrap(mod, "covering_lemma", "cover.covering_lemma")
    t.wrap(cover, "_farthest_net", "cover.farthest_net")
    t.wrap(cover, "build_sigma", "cover.build_sigma")
    t.wrap(SigmaMap, "apply_many", "cover.sigma_apply")
    t.wrap(curves, "snowflake", "curves.snowflake")
    t.wrap(cli, "_load_measure", "cli.load_measure")

    def report_bytes(args, out):
        t.counts["report.bytes"] += len(out)

    t.wrap(cli, "emit_report", "report.emit_report", after=report_bytes)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

BEST_PLANE_PATHS = ("pca", "exact_fit", "descent", "empty")
DIST_BRANCHES = ("l2", "hyperplane", "newton", "golden_line", "lp")
PROJECTION_KINDS = ("orthogonal", "j_projection", "hahn_banach")


def layer_metrics(tracer: Tracer, call_run: int, wall_s: float) -> dict:
    """Per-layer counts and self times over the spans of run `call_run`."""
    names, start, end, parent, run = tracer.arrays()
    self_s = self_times(start, end, parent)
    sel = (run == call_run) & (names != ROOT)
    calls: Counter = Counter(names[sel].tolist())
    selfs: defaultdict = defaultdict(float)
    for nm, s in zip(names[sel].tolist(), self_s[sel].tolist()):
        selfs[nm] += s
    c = tracer.counts
    m = {}
    for b in BEST_PLANE_PATHS:
        m[f"measures.best_plane.calls.{b}"] = calls[f"measures.best_plane:{b}"]
        m[f"measures.best_plane.self_s.{b}"] = selfs[f"measures.best_plane:{b}"]
    m["measures.best_plane.uncertified"] = c["measures.best_plane.uncertified"]
    for key in ("dini_profile", "beta_inf"):
        m[f"measures.{key}.calls"] = calls[f"measures.{key}"]
        m[f"measures.{key}.self_s"] = selfs[f"measures.{key}"]
    n_inf = calls["measures.beta_inf"]
    m["measures.beta_inf.distinct_ratio"] = len(tracer.beta_inf_keys) / n_inf if n_inf else 0.0
    for b in DIST_BRANCHES:
        m[f"geometry.dist.calls.{b}"] = calls[f"geometry.dist:{b}"]
        m[f"geometry.dist.rows.{b}"] = c[f"geometry.dist.rows.{b}"]
        m[f"geometry.dist.self_s.{b}"] = selfs[f"geometry.dist:{b}"]
    for kind in PROJECTION_KINDS:
        m[f"geometry.make_projection.calls.{kind}"] = calls[f"geometry.make_projection:{kind}"]
        m[f"geometry.make_projection.self_s.{kind}"] = selfs[f"geometry.make_projection:{kind}"]
    m["geometry.graph_check.self_s"] = selfs["geometry.graph_check"]
    m["geometry.newton.cap_hits"] = c["geometry.newton.cap_hits"]
    n_lab = calls["cover.classify_ball"]
    m["cover.classify_ball.calls"] = n_lab
    m["cover.classify_ball.self_s"] = selfs["cover.classify_ball"]
    m["cover.classify_ball.good_ratio"] = c["cover.classify_ball.good"] / n_lab if n_lab else 0.0
    for key in ("farthest_net", "covering_lemma"):
        m[f"cover.{key}.calls"] = calls[f"cover.{key}"]
        m[f"cover.{key}.self_s"] = selfs[f"cover.{key}"]
    m["cover.build_sigma.self_s"] = selfs["cover.build_sigma"]
    m["cover.sigma_apply.self_s"] = selfs["cover.sigma_apply"]
    m["spaces.norms.calls"] = calls["spaces.norms"]
    m["spaces.norms.self_s"] = selfs["spaces.norms"]
    # the snowflake is drawn while the inputs are set up, before the call
    m["curves.snowflake.self_s"] = float(self_s[names == "curves.snowflake"].sum())
    m["cli.load_measure.self_s"] = selfs["cli.load_measure"]
    m["report.emit_report.self_s"] = selfs["report.emit_report"]
    m["report.bytes"] = c["report.bytes"]
    m["trace.unattributed_s"] = wall_s - float(sum(selfs[nm] for nm in calls))
    return m


@contextmanager
def capture_cap_hits(tracer: Tracer):
    """Count the distance solver's iteration-cap RuntimeWarnings."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            tracer.counts["geometry.newton.cap_hits"] += sum(
                1 for w in log if issubclass(w.category, RuntimeWarning)
                and "iteration cap" in str(w.message))
