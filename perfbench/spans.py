"""Spans around the calls into each layer of csptopo, installed from outside.

``install`` wraps every public function of the layer modules (and
``CubicalComplex.face_keys``) and rebinds each wrapper wherever the
original is bound in a ``csptopo`` module namespace, so calls that go
through ``from .x import y`` names are traced too.  The three stages
inside ``homology()`` have no public entry; their module-level helpers are
wrapped by name through ``sys.modules["csptopo.homology"]`` (the package
attribute ``csptopo.homology`` is the function).  A helper that is missing
is reported as absent and its metrics read 0.

Spans are aggregated as they close: each adds its self time (its duration
minus the part its child spans cover) to a bucket.  The time spent in the
counting hooks is excluded from every span's self time.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "formula", "relations", "solution_space", "cubical", "homology",
          "constructions", "verify")

# public functions whose time gets its own bucket instead of <layer>.self
NAMED = {
    ("relations", "schaefer_classify"): "relations.classify",
    ("relations", "relation_properties"): "relations.classify",
    ("solution_space", "enumerate_solutions"): "solution_space.enumerate",
    ("solution_space", "affine_solutions"): "solution_space.enumerate",
    ("cubical", "induce_complex"): "cubical.induce",
}

# helpers inside homology(), by stage
HOMOLOGY_STAGES = {
    "_free_pair_collapse": "reduce",
    "_graded_keys": "boundary",
    "_cubical_columns": "boundary",
    "_sparse_invariant_factors": "elim",
    "_snf_diagonal": "elim",
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._children: list[list[float]] = []
        self._degree = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, bucket, before=None, after=None):
        """``bucket`` is a name or a callable evaluated when the span opens."""
        stack = self._children
        totals = self.self_s

        def traced(*args, **kwargs):
            outer = perf_counter()
            if before is not None:
                before(args)
            name = bucket() if callable(bucket) else bucket
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                totals[name] += end - start - children[0]
            if after is not None:
                after(args, result)
            if stack:
                stack[-1][0] += perf_counter() - outer
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # counting hooks

    def _elim_bucket(self):
        return f"homology.elim.d{min(self._degree, 4)}"

    def _elim_enter(self, args):
        self._degree += 1
        self.counts["homology.elim_nnz"] += sum(len(column) for column in args[0])

    def _hooks(self, layer, name):
        """(bucket, before, after) for a public function."""
        bucket = NAMED.get((layer, name), f"{layer}.self")
        before = after = None
        if (layer, name) == ("homology", "homology"):
            def before(args):
                self._degree = 0
        elif (layer, name) == ("cubical", "induce_complex"):
            def after(args, result):
                self.counts["cubical.faces"] += result.face_count()
        elif bucket == "solution_space.enumerate":
            def after(args, result):
                self.counts["solution_space.vertices"] += len(result)
        elif (layer, name) == ("relations", "relation_properties"):
            def before(args):
                self.counts["relations.tuples"] += len(args[0])
        return bucket, before, after

    def _helper_hooks(self, helper):
        """(bucket, before, after) for a stage helper inside homology()."""
        stage = HOMOLOGY_STAGES[helper]
        if stage == "reduce":
            def before(args):
                self.counts["homology.faces_in"] += len(args[0])

            def after(args, result):
                self.counts["homology.faces_out"] += len(result)
            return "homology.reduce", before, after
        if stage == "boundary":
            return "homology.boundary", None, None
        if helper == "_sparse_invariant_factors":
            def after(args, result):
                self.counts["homology.elim_rank"] += len(result)
            return self._elim_bucket, self._elim_enter, after
        return self._elim_bucket, None, None  # the dense remainder, same degree

    def install(self):
        self.absent = []
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"csptopo.{layer}")
            if module is None:
                self.absent.append(layer)
                continue
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                replacements[obj] = self.wrap(obj, *self._hooks(layer, name))
        module = sys.modules.get("csptopo.homology")
        for helper in HOMOLOGY_STAGES:
            fn = getattr(module, helper, None)
            if not inspect.isfunction(fn):
                self.absent.append(f"homology.{helper}")
                continue
            replacements[fn] = self.wrap(fn, *self._helper_hooks(helper))
        for name, module in list(sys.modules.items()):
            if name == "csptopo" or name.startswith("csptopo."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replacements:
                        self._rebind(module, attr, replacements[obj])
        cubical = sys.modules.get("csptopo.cubical")
        klass = getattr(cubical, "CubicalComplex", None)
        if inspect.isfunction(getattr(klass, "face_keys", None)):
            self._rebind(klass, "face_keys", self.wrap(klass.face_keys, "cubical.face_keys"))
        else:
            self.absent.append("cubical.CubicalComplex.face_keys")

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original back; the sums recorded so far are kept."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: times in ms, counts as summed."""
        ms = {k: v * 1000.0 for k, v in self.self_s.items()}
        c = self.counts
        elim = {p: ms.get(f"homology.elim.d{p}", 0.0) for p in range(1, 5)}
        faces_in = c.get("homology.faces_in", 0)
        return {
            "homology.elim_ms": sum(elim.values()),
            "homology.elim_d1_ms": elim[1],
            "homology.elim_d2_ms": elim[2],
            "homology.elim_d3_ms": elim[3],
            "homology.elim_d4plus_ms": elim[4],
            "homology.elim_nnz": c.get("homology.elim_nnz", 0),
            "homology.elim_rank": c.get("homology.elim_rank", 0),
            "homology.reduce_ms": ms.get("homology.reduce", 0.0),
            "homology.faces_in": faces_in,
            "homology.faces_out": c.get("homology.faces_out", 0),
            "homology.reduce_removed_frac": (
                (faces_in - c.get("homology.faces_out", 0)) / faces_in if faces_in else 0.0),
            "homology.boundary_ms": ms.get("homology.boundary", 0.0),
            "homology.self_ms": ms.get("homology.self", 0.0),
            "cubical.induce_ms": ms.get("cubical.induce", 0.0),
            "cubical.face_keys_ms": ms.get("cubical.face_keys", 0.0),
            "cubical.self_ms": ms.get("cubical.self", 0.0),
            "cubical.faces": c.get("cubical.faces", 0),
            "solution_space.enumerate_ms": ms.get("solution_space.enumerate", 0.0),
            "solution_space.vertices": c.get("solution_space.vertices", 0),
            "solution_space.self_ms": ms.get("solution_space.self", 0.0),
            "formula.self_ms": ms.get("formula.self", 0.0),
            "constructions.ms": ms.get("constructions.self", 0.0),
            "verify.self_ms": ms.get("verify.self", 0.0),
            "relations.classify_ms": ms.get("relations.classify", 0.0),
            "relations.tuples": c.get("relations.tuples", 0),
            "relations.self_ms": ms.get("relations.self", 0.0),
            "cli.self_ms": ms.get("cli.self", 0.0),
        }
