"""Spans and counters recorded around gyrokit's public functions, from outside
the package.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds *every* gyrokit module attribute that refers to it, since
modules import each other's functions by name (``try_quotient`` alone is
bound in ``normality``, ``sweep``, ``cli`` and ``commutator``).  A span is
``[name, start, end, parent]``, kept in memory; ``GyroTable.gyr`` is counted
but gets no span, because a sweep calls it about a million times.  Methods
of gyrokit's classes other than ``gyr`` are not wrapped: their time counts
as self time of the calling function.

Counters derived from arguments, return values and exceptions:

* ``normality.try_quotient``: ``NotNormal`` rejections, and repeats of a
  (table, members) pair already seen in the pass;
* ``nuclei.lmlt``: repeats of a table already seen in the pass;
* ``substructure.enumerate_subgyrogroups``: summed lattice sizes;
* ``search.run_search``: DFS nodes and leaves of each result;
* ``sweep.run_theorem_sweep``: checks reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "core",
    "gyrofile",
    "substructure",
    "normality",
    "commutator",
    "nuclei",
    "prime_index",
    "search",
    "sweep",
    "cli",
)


def self_times(spans) -> list[float]:
    """Per span, its duration minus the part of it covered by its children.

    Children of one span are disjoint intervals inside it (single-threaded
    calls), but they are merged as intervals anyway so overlap never
    counts twice."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._gyr = [0, 0]  # calls, fills
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- one pass ---------------------------------------------------------------

    def reset(self):
        """Start a new pass: drop spans, counts and the repeat memory."""
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._seen = defaultdict(set)
        self._gyr = [0, 0]

    def pass_counts(self) -> Counter:
        counts = Counter(self.counts)
        counts["core.gyr.calls"], counts["core.gyr.fills"] = self._gyr
        return counts

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                raise
            rec[2] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        return traced

    def _wrap_gyr(self, fn):
        tracer = self

        @functools.wraps(fn)
        def gyr(table, a, b):
            counts = tracer._gyr
            counts[0] += 1
            if table._gyr[a][b] is None:
                counts[1] += 1
            return fn(table, a, b)

        return gyr

    def install(self):
        """Wrap the layers' public functions and rebind every reference."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {k: m for k, m in sys.modules.items() if k == "gyrokit" or k.startswith("gyrokit.")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"gyrokit.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrappers[id(fn)] = self._wrap(name, fn, HOOKS.get(name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        table_cls = modules["gyrokit.core"].GyroTable
        self.originals["core.GyroTable.gyr"] = table_cls.gyr
        self._restore.append((table_cls, "gyr", table_cls.gyr))
        table_cls.gyr = self._wrap_gyr(table_cls.gyr)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []


# -- counters from arguments, results and exceptions ------------------------------


def _members(subset) -> tuple:
    return tuple(sorted(set(getattr(subset, "members", subset))))


def _try_quotient(tracer, args, kwargs, result, error):
    g, subset = args[0], args[1] if len(args) > 1 else kwargs["subset"]
    key = (g.table, _members(subset))
    seen = tracer._seen["try_quotient"]
    if key in seen:
        tracer.counts["normality.try_quotient.repeats"] += 1
    seen.add(key)
    if isinstance(error, sys.modules["gyrokit.normality"].NotNormal):
        tracer.counts["normality.try_quotient.rejects"] += 1


def _lmlt(tracer, args, kwargs, result, error):
    key = args[0].table
    seen = tracer._seen["lmlt"]
    if key in seen:
        tracer.counts["nuclei.lmlt.repeats"] += 1
    seen.add(key)


def _lattice(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counts["substructure.lattice_size"] += len(result)


def _search(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counts["search.nodes"] += result.nodes
        tracer.counts["search.leaves"] += result.leaves


def _sweep(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counts["sweep.checks"] += result.passes + result.failures


HOOKS = {
    "normality.try_quotient": _try_quotient,
    "nuclei.lmlt": _lmlt,
    "substructure.enumerate_subgyrogroups": _lattice,
    "search.run_search": _search,
    "sweep.run_theorem_sweep": _sweep,
}


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, *_), st in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += st
        if name.startswith("prime_index."):
            calls["prime_index"] += 1
            self_s["prime_index"] += st

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in (
        "core.verify_axioms",
        "substructure.enumerate_subgyrogroups",
        "substructure.generate",
        "substructure.left_cosets",
        "normality.try_quotient",
        "normality.check_hom",
        "normality.intersect_normals",
        "normality.normal_closure",
        "commutator.commutator_subgyrogroup",
        "commutator.nc_commutator",
        "nuclei.lmlt",
        "nuclei.left_nucleus",
        "prime_index",
        "search.canonical_form",
        "search.automorphisms",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in (
        "gyrofile.parse_gyro",
        "nuclei.lg_sharp",
        "nuclei.lg_prime",
        "nuclei.lg_prime_word_oracle",
        "nuclei.radical",
        "sweep.sweep_table",
        "cli.analyze_object",
    ):
        m[f"{name}.self_s"] = self_s[name]
    m["core.gyr.calls"] = counts["core.gyr.calls"]
    m["core.gyr.fills"] = counts["core.gyr.fills"]
    m["substructure.lattice_size"] = counts["substructure.lattice_size"]
    m["normality.try_quotient.reject_ratio"] = ratio(
        counts["normality.try_quotient.rejects"], calls["normality.try_quotient"]
    )
    m["normality.try_quotient.repeat_ratio"] = ratio(
        counts["normality.try_quotient.repeats"], calls["normality.try_quotient"]
    )
    m["nuclei.lmlt.repeat_ratio"] = ratio(counts["nuclei.lmlt.repeats"], calls["nuclei.lmlt"])
    m["search.dfs_s"] = self_s["search.run_search"]
    m["search.nodes"] = counts["search.nodes"]
    m["search.leaves"] = counts["search.leaves"]
    m["search.node_rate"] = ratio(counts["search.nodes"], self_s["search.run_search"])
    m["sweep.checks"] = counts["sweep.checks"]
    return m
