"""Per-layer tracing of tkern from outside the package.

``install`` wraps the public functions named in ``TARGETS`` and rebinds
every name that refers to them in every loaded ``tkern`` module, so a call
through ``kernels.wiener_hopf``, ``multipliers.kernel`` or
``tkern.kernel`` lands in the same wrapper. ``RationalFunction.__init__``
is wrapped on the class. Each call records a span (id, parent id, query,
name, start, end) in memory; ``Tracer.write_spans`` writes them out when
the run ends. Counts and self times are per query; self times are wall
times, not scaled to a reference host speed as the end-to-end times are.

Only ``run.py --trace 1`` imports this module, so untraced runs carry no
wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import sys
import time

import numpy as np

# layer (tkern module) -> public functions timed in that layer
TARGETS = {
    "rational": ("poly_roots",),
    "factorization": ("wiener_hopf", "inner_outer"),
    "kernels": ("kernel", "in_kernel", "is_maximal"),
    "multipliers": ("is_multiplier", "smirnov_multiplier_test", "carleson_check"),
    "oracle": ("numeric_kernel", "fourier_coefficients", "boundary_sampling", "principal_angle"),
    "expressions": ("parse_expression",),
    "halfplane": ("cayley_function",),
    "verify": ("run_suite",),
    "cli": ("main",),
}
CONSTRUCTOR = "rational.RationalFunction"

# traced function -> statistics reported for it, as "<function>.<stat>"
_CALL_STATS = (
    ("rational.poly_roots", ("calls", "self_ms")),
    (CONSTRUCTOR, ("calls", "self_ms")),
    ("factorization.wiener_hopf", ("calls", "self_ms")),
    ("factorization.inner_outer", ("calls", "self_ms")),
    ("kernels.kernel", ("calls", "self_ms")),
    ("kernels.in_kernel", ("calls", "self_ms")),
    ("kernels.is_maximal", ("calls", "self_ms")),
    ("multipliers.is_multiplier", ("self_ms",)),
    ("multipliers.smirnov_multiplier_test", ("self_ms",)),
    ("multipliers.carleson_check", ("calls", "self_ms")),
    ("oracle.numeric_kernel", ("calls", "self_ms")),
    ("oracle.fourier_coefficients", ("calls", "self_ms")),
    ("oracle.boundary_sampling", ("calls",)),
    ("oracle.principal_angle", ("calls", "self_ms")),
    ("expressions.parse_expression", ("calls", "self_ms")),
    ("halfplane.cayley_function", ("calls", "self_ms")),
    ("verify.run_suite", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
_STAT_UNITS = {"calls": ("1/query", "lower"), "self_ms": ("ms/query", "lower")}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for func, stats in _CALL_STATS:
        specs += [(f"{func}.{stat}", *_STAT_UNITS[stat]) for stat in stats]
        if func == "rational.poly_roots":
            specs.append(("rational.poly_roots.repeat_share", "share", "lower"))
        if func == "oracle.boundary_sampling":
            specs.append(("oracle.boundary_sampling.points", "1/query", "lower"))
    specs.append(("oracle.min_gap_ratio", "ratio", "higher"))
    specs.append(("trace.overhead_share", "share", "lower"))
    return specs


class Tracer:
    """Spans and per-function totals for one traced run, single-threaded."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.query = -1
        self.queries = 0
        self.repeat_roots = 0
        self.sample_points = 0
        self.gap_ratios: list[float] = []
        self._rooted: set[bytes] = set()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def begin_query(self) -> None:
        self.query += 1
        self.queries += 1
        self._rooted.clear()

    def wrap(self, name: str, fn, before=None, after=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                self.calls[name] += 1
                self.self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                self.spans.append((sid, parent, self.query, name, start, end))
            if after is not None:
                after(self, result)
            return result

        return traced

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-query layer metrics; ``untraced_s`` and ``traced_s`` are the
        times of the same queries without and with the wrappers."""
        n = max(self.queries, 1)
        out = {}
        for func, stats in _CALL_STATS:
            if "calls" in stats:
                out[f"{func}.calls"] = self.calls.get(func, 0) / n
            if "self_ms" in stats:
                out[f"{func}.self_ms"] = 1e3 * self.self_s.get(func, 0.0) / n
        roots = self.calls.get("rational.poly_roots", 0)
        out["rational.poly_roots.repeat_share"] = self.repeat_roots / roots if roots else 0.0
        out["oracle.boundary_sampling.points"] = self.sample_points / n
        finite = [g for g in self.gap_ratios if math.isfinite(g)]
        # 0 when no oracle SVD dropped and kept singular values in this run
        out["oracle.min_gap_ratio"] = min(finite) if finite else 0.0
        out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, query, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "query": query,
                                     "name": name, "start": start, "end": end}) + "\n")


def _note_roots(tracer: Tracer, args, kwargs) -> None:
    p = args[0] if args else kwargs["p"]
    coeffs = np.asarray(getattr(p, "coeffs", p), dtype=complex)
    key = coeffs.tobytes()
    if key in tracer._rooted:
        tracer.repeat_roots += 1
    else:
        tracer._rooted.add(key)


def _note_samples(tracer: Tracer, args, kwargs) -> None:
    tracer.sample_points += int(args[1] if len(args) > 1 else kwargs["sample_count"])


def _note_gap(tracer: Tracer, result) -> None:
    tracer.gap_ratios.append(float(result.gap_ratio))


_HOOKS = {
    "rational.poly_roots": (_note_roots, None),
    "oracle.boundary_sampling": (_note_samples, None),
    "oracle.numeric_kernel": (None, _note_gap),
}


def _tkern_modules() -> list:
    import tkern

    for info in pkgutil.iter_modules(tkern.__path__):
        if info.name != "__main__":  # running it would start the CLI
            importlib.import_module(f"tkern.{info.name}")
    return [m for name, m in sys.modules.items() if name == "tkern" or name.startswith("tkern.")]


def install(tracer: Tracer):
    """Wrap every target and rebind each alias of it; returns a function
    that puts the originals back."""
    modules = _tkern_modules()
    undo = []
    for layer, names in TARGETS.items():
        home = sys.modules[f"tkern.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            before, after = _HOOKS.get(name, (None, None))
            wrapped = tracer.wrap(name, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))
    cls = sys.modules["tkern.rational"].RationalFunction
    original_init = cls.__init__
    cls.__init__ = tracer.wrap(CONSTRUCTOR, original_init)

    def uninstall():
        for module, attr, original in undo:
            setattr(module, attr, original)
        cls.__init__ = original_init

    return uninstall
