"""Per-module spans for the traced run.

The tracer wraps public functions at each module boundary of the package,
from outside: for every wrapped function it replaces the attribute in every
``quiverstokes`` module namespace that holds it, because modules that import
a function by name keep their own reference (``verify`` imports
``stokes_product``, ``cli`` imports ``dumps``, and so on).  Methods are
wrapped on their class.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and query.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of the spans nested directly inside it, so the
self times of all spans of a query add up to the time its outermost spans
cover; the rest of the query's wall time is reported as unattributed.

A wrapped function that no longer exists is skipped and the metrics derived
from it are reported as absent, so the traced run survives refactors of
internals such as ``_kernels``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name).  A dotted attribute is a method.
SPANS = [
    ("quiverstokes._kernels", "sign_canonical", "_kernels.sign_canonical"),
    ("quiverstokes._kernels", "expand_frontier", "_kernels.expand_frontier"),
    ("quiverstokes.braid", "orbit_search", "braid.orbit_search"),
    ("quiverstokes.braid", "beta", "braid.beta"),
    ("quiverstokes.braid", "beta_inv", "braid.beta"),
    ("quiverstokes.braid", "BraidWord.apply", "braid.replay"),
    ("quiverstokes.stokes", "enumerate_an_chambers", "stokes.enumerate_an_chambers"),
    ("quiverstokes.stokes", "stokes_product", "stokes.stokes_product"),
    ("quiverstokes.stokes", "natural_lifts", "stokes.natural_lifts"),
    ("quiverstokes.stokes", "ray_order", "stokes.ray_order"),
    ("quiverstokes.algebra", "PolyMatrix.__mul__", "algebra.pm_mul"),
    ("quiverstokes.goodness", "epsilon_solutions", "goodness.epsilon_solutions"),
    ("quiverstokes.goodness", "find_good_quivers", "goodness.find_good_quivers"),
    ("quiverstokes.goodness", "mutation_basis", "goodness.mutation_basis"),
    ("quiverstokes.quiver", "mutate", "quiver.mutate"),
    ("quiverstokes.verify", "check_tables", "verify.check_tables"),
    ("quiverstokes.verify", "check_an_jets", "verify.check_an_jets"),
    ("quiverstokes.verify", "check_mutation_tables", "verify.check_mutation_tables"),
    ("quiverstokes.verify", "check_relations", "verify.check_relations"),
    ("quiverstokes.verify", "fixture_matrices_sj", "verify.fixture_matrices_sj"),
    ("quiverstokes.serialize", "dumps", "serialize.dumps"),
    ("quiverstokes.cli", "main", "cli.main"),
]

# Functions that are only counted: they are called too often for spans, and
# their time stays in the enclosing span's self time.
COUNTED = [
    ("quiverstokes.algebra", "TruncatedPoly.__mul__", "algebra.poly_mul"),
    ("quiverstokes.algebra", "TruncatedPoly.__rmul__", "algebra.poly_mul"),
]

# Spans whose self time is pooled into verify.self_s; each also reports its
# inclusive time as <name>.s, the per-scope time of `verify-paper`.
SCOPES = ["verify.check_tables", "verify.check_an_jets",
          "verify.check_mutation_tables", "verify.check_relations",
          "verify.fixture_matrices_sj"]

# Per-layer metrics: name -> (unit, better, spans they are derived from).
METRICS = {
    "kernels.sign_canonical.calls": ("count", "lower", ["_kernels.sign_canonical"]),
    "kernels.sign_canonical.self_s": ("s", "lower", ["_kernels.sign_canonical"]),
    "kernels.expand_frontier.self_s": ("s", "lower", ["_kernels.expand_frontier"]),
    "kernels.children": ("count", "lower", ["_kernels.expand_frontier"]),
    "braid.orbit_search.self_s": ("s", "lower", ["braid.orbit_search"]),
    "braid.states": ("count", "lower", ["braid.orbit_search"]),
    "braid.states_per_s": ("1/s", "higher", ["braid.orbit_search"]),
    "braid.new_state_ratio": ("ratio", "higher",
                              ["braid.orbit_search", "_kernels.expand_frontier"]),
    "braid.beta.calls": ("count", "lower", ["braid.beta"]),
    "braid.beta.fraction.self_s": ("s", "lower", ["braid.beta"]),
    "braid.beta.poly.self_s": ("s", "lower", ["braid.beta"]),
    "braid.replay.self_s": ("s", "lower", ["braid.replay"]),
    "stokes.enumerate_an_chambers.self_s": ("s", "lower", ["stokes.enumerate_an_chambers"]),
    "stokes.chambers": ("count", "higher", ["stokes.enumerate_an_chambers"]),
    "stokes.stokes_product.calls": ("count", "lower", ["stokes.stokes_product"]),
    "stokes.stokes_product.self_s": ("s", "lower", ["stokes.stokes_product"]),
    "stokes.stokes_product.distinct_ratio": ("ratio", "higher", ["stokes.stokes_product"]),
    "stokes.natural_lifts.self_s": ("s", "lower", ["stokes.natural_lifts"]),
    "stokes.ray_order.self_s": ("s", "lower", ["stokes.ray_order"]),
    "algebra.pm_mul.calls": ("count", "lower", ["algebra.pm_mul"]),
    "algebra.pm_mul.self_s": ("s", "lower", ["algebra.pm_mul"]),
    "algebra.poly_mul.calls": ("count", "lower", ["algebra.poly_mul"]),
    "goodness.epsilon_solutions.self_s": ("s", "lower", ["goodness.epsilon_solutions"]),
    "goodness.epsilon.accept_ratio": ("ratio", "higher", ["goodness.epsilon_solutions"]),
    "goodness.find_good_quivers.self_s": ("s", "lower", ["goodness.find_good_quivers"]),
    "goodness.mutation_basis.self_s": ("s", "lower", ["goodness.mutation_basis"]),
    "quiver.mutate.calls": ("count", "lower", ["quiver.mutate"]),
    "quiver.mutate.self_s": ("s", "lower", ["quiver.mutate"]),
    **{f"{scope}.s": ("s", "lower", [scope]) for scope in SCOPES},
    "verify.self_s": ("s", "lower", SCOPES),
    "serialize.dumps.self_s": ("s", "lower", ["serialize.dumps"]),
    "cli.main.self_s": ("s", "lower", ["cli.main"]),
    "cli.stdout_bytes": ("bytes", "lower", []),
    "trace.wall_s": ("s", "lower", []),
    "trace.untraced_wall_s": ("s", "lower", []),
    "trace.unattributed_s": ("s", "lower", []),
    "trace.overhead_ratio": ("ratio", "lower", []),
}


def _bucket_beta(name, args, kwargs):
    mat = args[1] if len(args) > 1 else kwargs.get("A")
    kind = "fraction" if isinstance(mat, (tuple, list)) else "poly"
    return f"{name}.{kind}"


def _stokes_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        return (tuple(v.coords for v in a["basis"].rows), a["e"].matrix,
                a["model"].kind, a["chamber"].Z,
                tuple(v.coords for v in a["chamber"].active), a["p"])

    return key


class Tracer:
    """Installs the wrappers, records spans and derives per-layer metrics.

    Spans are recorded only while ``active`` is set, so the benchmark's own
    correctness checks, which also call the package, stay out of the trace.
    """

    def __init__(self):
        self.active = False
        self.query = -1
        self.spans = []        # (id, parent id, name, start, end, query)
        self._stack = []       # [span id, time of nested spans]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._distinct = set()
        self._installed = []   # (holder, attribute, original)
        self.missing = []      # wrapped functions that no longer exist
        self.broken = set()    # metrics whose observer no longer fits

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module, path, name in SPANS:
            self._wrap(module, path, name, self._span_wrapper)
        for module, path, name in COUNTED:
            self._wrap(module, path, name, self._count_wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def _wrap(self, module, path, name, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapper = make(name, original)
        if owner_name:
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for modname, other in list(sys.modules.items()):
            if modname != "quiverstokes" and not modname.startswith("quiverstokes."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._installed.append((other, key, original))
                    setattr(other, key, wrapper)

    def _span_wrapper(self, name, fn):
        tracer = self
        bucket = _bucket_beta if name == "braid.beta" else None
        observe = self._observers(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = bucket(name, args, kwargs) if bucket else name
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [len(tracer.spans) + len(tracer._stack), 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                tracer.self_s[label] += dur - frame[1]
                tracer.total_s[label] += dur
                tracer.calls[label] += 1
                tracer.spans.append((frame[0], parent[0] if parent else None,
                                     label, t0, t1, tracer.query))
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self, name, fn):
        counts = self.counts
        if name == "_kernels.expand_frontier":
            def observe(args, kwargs, out):
                counts["children"] += len(out[0])
        elif name == "braid.orbit_search":
            def observe(args, kwargs, out):
                counts["states"] += out.states
        elif name == "stokes.enumerate_an_chambers":
            def observe(args, kwargs, out):
                counts["chambers"] += len(out)
        elif name == "stokes.stokes_product":
            key = _stokes_key(fn)

            def observe(args, kwargs, out):
                try:
                    k = key(args, kwargs)
                except (TypeError, KeyError, AttributeError):
                    self.broken.add("stokes.stokes_product.distinct_ratio")
                    return
                if k not in self._distinct:
                    self._distinct.add(k)
                    counts["stokes_distinct"] += 1
        elif name == "goodness.epsilon_solutions":
            def observe(args, kwargs, out):
                n = args[0] if args else kwargs["n"]
                dom = args[1] if len(args) > 1 else kwargs.get("domain")
                pairs = n * (n - 1) // 2 if dom is None else len(dom)
                counts["eps_examined"] += 2 ** pairs
                counts["eps_accepted"] += len(out)
        else:
            return None
        return observe

    # -- passes ---------------------------------------------------------------

    def begin_pass(self) -> None:
        """Distinct Stokes inputs are counted within one pass (one replay)."""
        self._distinct.clear()

    # -- metrics ----------------------------------------------------------------

    def metrics(self, traced_walls: list, untraced_walls: list) -> dict:
        """Per-layer metrics, each the mean over the traced passes."""
        passes = len(traced_walls)
        wall = sum(traced_walls) / passes
        per = lambda x: x / passes  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        c, s = self.counts, self.self_s
        values = {
            "kernels.sign_canonical.calls": per(self.calls["_kernels.sign_canonical"]),
            "kernels.sign_canonical.self_s": per(s["_kernels.sign_canonical"]),
            "kernels.expand_frontier.self_s": per(s["_kernels.expand_frontier"]),
            "kernels.children": per(c["children"]),
            "braid.orbit_search.self_s": per(s["braid.orbit_search"]),
            "braid.states": per(c["states"]),
            "braid.states_per_s": ratio(c["states"], self.total_s["braid.orbit_search"]),
            # the root of each search is a state but no kernel child
            "braid.new_state_ratio": ratio(c["states"] - self.calls["braid.orbit_search"],
                                           c["children"]),
            "braid.beta.calls": per(self.calls["braid.beta.fraction"]
                                    + self.calls["braid.beta.poly"]),
            "braid.beta.fraction.self_s": per(s["braid.beta.fraction"]),
            "braid.beta.poly.self_s": per(s["braid.beta.poly"]),
            "braid.replay.self_s": per(s["braid.replay"]),
            "stokes.enumerate_an_chambers.self_s": per(s["stokes.enumerate_an_chambers"]),
            "stokes.chambers": per(c["chambers"]),
            "stokes.stokes_product.calls": per(self.calls["stokes.stokes_product"]),
            "stokes.stokes_product.self_s": per(s["stokes.stokes_product"]),
            "stokes.stokes_product.distinct_ratio": ratio(
                c["stokes_distinct"], self.calls["stokes.stokes_product"]),
            "stokes.natural_lifts.self_s": per(s["stokes.natural_lifts"]),
            "stokes.ray_order.self_s": per(s["stokes.ray_order"]),
            "algebra.pm_mul.calls": per(self.calls["algebra.pm_mul"]),
            "algebra.pm_mul.self_s": per(s["algebra.pm_mul"]),
            "algebra.poly_mul.calls": per(self.calls["algebra.poly_mul"]),
            "goodness.epsilon_solutions.self_s": per(s["goodness.epsilon_solutions"]),
            "goodness.epsilon.accept_ratio": ratio(c["eps_accepted"], c["eps_examined"]),
            "goodness.find_good_quivers.self_s": per(s["goodness.find_good_quivers"]),
            "goodness.mutation_basis.self_s": per(s["goodness.mutation_basis"]),
            "quiver.mutate.calls": per(self.calls["quiver.mutate"]),
            "quiver.mutate.self_s": per(s["quiver.mutate"]),
            **{f"{scope}.s": per(self.total_s[scope]) for scope in SCOPES},
            "verify.self_s": per(sum(s[scope] for scope in SCOPES)),
            "serialize.dumps.self_s": per(s["serialize.dumps"]),
            "cli.main.self_s": per(s["cli.main"]),
            "cli.stdout_bytes": per(c["cli.stdout_bytes"]),
            "trace.wall_s": wall,
            "trace.untraced_wall_s": sum(untraced_walls) / len(untraced_walls),
            "trace.unattributed_s": wall - per(sum(s.values())),
        }
        values["trace.overhead_ratio"] = wall / values["trace.untraced_wall_s"]
        missing_spans = {name for module, path, name in SPANS + COUNTED
                         if f"{module}.{path}" in self.missing}
        return {name: {"value": value, "unit": METRICS[name][0]}
                for name, value in values.items()
                if name not in self.broken
                and not missing_spans & set(METRICS[name][2])}
