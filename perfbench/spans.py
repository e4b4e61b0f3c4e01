"""Per-layer tracing of hardyhilbert from outside the package.

``Tracer.install()`` replaces every public function of the six modules, and
the public methods of their plain classes, with a wrapper that records a
span: calls, inclusive time and self time (inclusive minus the time of
wrapped children).  A name is replaced wherever it is bound: in its own
module and in every module that imported it (``inequalities`` holds its own
``cauchy_product`` and ``hp_norm``, ``bmoa`` its own ``boundary_grid``).
``uninstall()`` puts the originals back, so untraced jobs run the program
as shipped.

Private helpers are not wrapped; their time is self time of the public
caller.  ``harness`` calls ``bmoa._box_integral_slab`` directly, so that
quadrature lands in harness self time.

Work counts are computed from the call's arguments and result by the
``COUNTERS`` below; the wrapper never changes either.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import time
from collections import defaultdict

MODULES = ("seqspace", "hardyspace", "inequalities", "bmoa", "harness", "cli")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _box_nodes(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"nodes": a["g"].degree * a["radial_points"] * a["angular_points"]}


def _k_intervals(fn, args, kwargs, result):
    return {"intervals": math.floor(1.0 / (1.0 - _bound(fn, args, kwargs)["r_max"]))}


def _matvec_ops(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    N = len(a["v"])
    if a["method"] == "fft":
        L = 1 << int(3 * N - 2).bit_length()
        return {"ops": L * int(math.log2(L))}
    return {"ops": N * N}


def _power_iterations(fn, args, kwargs, result):
    return {"iterations": result.iterations, "unconverged": int(not result.converged)}


def _hp_route(fn, args, kwargs, result):
    return {"p1_calls": int(_bound(fn, args, kwargs)["p"] == 1)}


COUNTERS = {
    "bmoa.carleson_box_integral": _box_nodes,
    "bmoa.k_constant": _k_intervals,
    "inequalities.hankel_matvec": _matvec_ops,
    "inequalities.matrix_norm": _power_iterations,
    "hardyspace.cauchy_product": lambda fn, a, k, res: {"out_terms": len(res)},
    "hardyspace.hp_norm": _hp_route,
    "hardyspace.factorization_report": lambda fn, a, k, res: {"grid_points": res.grid_size},
    "seqspace.slow_decay_sequence": lambda fn, a, k, res: {"terms": res.N},
    "seqspace.XSequence": lambda fn, a, k, res: {"terms": len(a[0])},
    "seqspace.read_sequence_csv": lambda fn, a, k, res: {"rows": len(res)},
    "cli.main": lambda fn, a, k, res: {"nonzero_exits": int(res != 0)},
}
FALLBACK_PARENT, FALLBACK_CHILD = "hardyspace.hp_norm", "hardyspace.AnalyticPoly.roots"


class _Frame:
    __slots__ = ("name", "child_s", "fallback")

    def __init__(self, name):
        self.name, self.child_s, self.fallback = name, 0.0, False


class Tracer:
    """Span recorder over the hardyhilbert modules; ``stats[name][stat]`` sums."""

    def __init__(self, package):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack: list[_Frame] = []
        self._patches = self._plan(package)

    def _plan(self, package):
        """(holder, attribute, original, wrapper) for every binding to replace."""
        modules = [getattr(package, m) for m in MODULES]
        targets = {}   # id(original) -> (span name, original)
        patches = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets[id(obj)] = (f"{short}.{name}", obj)
                elif (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)
                      and not issubclass(obj, BaseException)):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            span = f"{short}.{name}" + ("" if meth == "__init__" else f".{meth}")
                            patches.append((obj, meth, fn, self._wrap(span, fn)))
        for holder in modules + [package]:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    span, fn = targets[id(obj)]
                    patches.append((holder, attr, fn, self._wrap(span, fn)))
        return patches

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span == FALLBACK_CHILD and stack and stack[-1].name == FALLBACK_PARENT:
                stack[-1].fallback = True
            frame = _Frame(span)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                st = stats[span]
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - frame.child_s
                if frame.fallback:
                    st["fallback_calls"] += 1
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result).items():
                    st[key] += value
            return result
        return wrapper

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def self_total(self) -> float:
        return sum(st["self_s"] for st in self.stats.values())
