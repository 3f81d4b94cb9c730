"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each layer function below with a wrapper,
in every ``qchar`` module namespace that bound it (``apply_M`` lives in
``qdiff``, ``characters`` and ``verify``), and each layer method on its
class under every name the class gives it (``__mul__`` and ``__rmul__``).
A wrapper records one span (name, start, end, parent) per call into flat
arrays held in memory, counts raised exceptions, and adds a work count
computed from the arguments before the call.  Leaving the block puts the
original functions back.  A layer function the program no longer has is
listed in ``Tracer.missing`` and reads 0.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
from array import array
from time import perf_counter


def _terms(x) -> int:
    try:
        return len(x.coeffs)
    except (AttributeError, TypeError):
        return 0


def _term_pairs(args, kwargs) -> int:
    other = args[1]
    return _terms(args[0]) * (1 if isinstance(other, int) else _terms(other))


def _terms_in(args, kwargs) -> int:
    return _terms(args[0])


def _apply_terms_in(args, kwargs) -> int:
    return _terms(args[2] if len(args) > 2 else kwargs.get("f"))


# (metric prefix, module, attribute or Class.method, work name, work counter)
LAYERS = (
    ("laurent.mul", "qchar.laurent", "LaurentPoly.__mul__", "term_pairs", _term_pairs),
    ("laurent.exact_div", "qchar.laurent", "exact_div", "terms_in", _terms_in),
    ("laurent.signed_buckets", "qchar.laurent", "signed_buckets", "terms_in", _terms_in),
    ("symfun.schur", "qchar.symfun", "schur", None, None),
    ("symfun.schur_expand", "qchar.symfun", "schur_expand", "terms_in", _terms_in),
    ("qdiff.apply_M", "qchar.qdiff", "apply_M", "terms_in", _apply_terms_in),
    ("qdiff.apply_D", "qchar.qdiff", "apply_D", None, None),
    ("qdiff.apply_macdonald_qt", "qchar.qdiff", "apply_macdonald_qt", None, None),
    ("characters.graded_character", "qchar.characters", "graded_character", None, None),
    ("characters.g_coefficient", "qchar.characters", "g_coefficient", None, None),
    ("characters.char_from_g", "qchar.characters", "char_from_g", None, None),
    ("qtorus.nc_mul", "qchar.qtorus", "NcLaurent.__mul__", "term_pairs", _term_pairs),
    ("qtorus.nc_div", "qchar.qtorus", "nc_div_left", None, None),
    ("qtorus.nc_div", "qchar.qtorus", "nc_div_right", None, None),
    ("qtorus.q_recursion", "qchar.qtorus", "q_recursion", None, None),
    ("qtorus.evaluate", "qchar.qtorus", "evaluate", None, None),
    ("macdonald.macdonald_poly", "qchar.macdonald", "macdonald_poly", None, None),
    ("macdonald.qwhittaker_specialize", "qchar.macdonald", "qwhittaker_specialize", None, None),
    ("whittaker.series_mul", "qchar.whittaker", "TruncatedSeries.__mul__", None, None),
    ("whittaker.w_series", "qchar.whittaker", "w_series", None, None),
    ("whittaker.toda_residual", "qchar.whittaker", "toda_residual", None, None),
    ("whittaker.class_one_combination", "qchar.whittaker", "class_one_combination", None, None),
    ("whittaker.check_level1_toda", "qchar.whittaker", "check_level1_toda", None, None),
    ("cli.character_payload", "qchar.cli", "character_payload", None, None),
    ("cli.render_character", "qchar.cli", "render_character", None, None),
)

# Verify checks the workloads run: each reports inclusive wall time and the
# points its CheckReport counted.
CHECKS = (
    "check_subset_identities",
    "check_dual_qsystem",
    "check_macdonald_commuting",
    "check_difference_equation",
    "check_level1_report",
    "check_sl3_level1_G",
    "check_sl3_level2_G",
    "check_sl2_levelk_G",
    "check_eigen",
    "check_limits",
    "check_torus",
    "check_macdonald",
    "check_whittaker",
)

SCHUR_CACHE = ("qchar.symfun", "_schur_zcoeffs")


def metric_specs() -> list:
    """Every per-layer metric the traced run reports, in BENCHMARK.json form."""
    specs = []
    seen = set()
    for prefix, _, _, work_name, _ in LAYERS:
        if prefix in seen:
            continue
        seen.add(prefix)
        specs += [
            {"name": prefix + ".calls", "unit": "count", "better": "lower"},
            {"name": prefix + ".self_s", "unit": "s", "better": "lower"},
            {"name": prefix + ".errors", "unit": "count", "better": "lower"},
        ]
        if work_name:
            specs.append({"name": "%s.%s" % (prefix, work_name), "unit": "count", "better": "lower"})
    specs.append({"name": "symfun.schur_cache.hit_ratio", "unit": "ratio", "better": "higher"})
    for check in CHECKS:
        specs += [
            {"name": "verify.%s.wall_s" % check, "unit": "s", "better": "lower"},
            {"name": "verify.%s.points" % check, "unit": "count", "better": "higher"},
        ]
    specs += [
        {"name": "trace.spans", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ]
    return specs


def _resolve(module_name: str, attr: str):
    """(owner, original) for ``attr`` or ``Class.method`` in a module."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, owner.__dict__[attr]
    return owner, getattr(owner, attr)


class Tracer:
    """Spans and counters of one traced job."""

    def __init__(self):
        self.names = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors = {}
        self.work = {}
        self.points = {}
        self.missing = []
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, work=None, points=False):
        """A wrapper of ``fn`` that records a span named ``name``."""
        nid = self._name_id(name)
        self.errors.setdefault(name, 0)
        if work is not None:
            self.work.setdefault(name, 0)
        if points:
            self.points.setdefault(name, 0)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        errors, work_totals, point_totals = self.errors, self.work, self.points

        def wrapper(*args, **kwargs):
            if work is not None:
                work_totals[name] += work(args, kwargs)
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if points:
                point_totals[name] += getattr(result, "total", 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        targets = [(prefix, mod, attr, work) for prefix, mod, attr, _, work in LAYERS]
        targets += [("verify." + c, "qchar.verify", c, None) for c in CHECKS]
        modules = [m for n, m in list(sys.modules.items()) if n == "qchar" or n.startswith("qchar.")]
        for prefix, mod, attr, work in targets:
            try:
                owner, original = _resolve(mod, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append("%s.%s" % (mod, attr))
                continue
            wrapper = self.wrap(prefix, original, work, points=prefix.startswith("verify."))
            for ns in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def times(self) -> tuple:
        """(inclusive seconds, self seconds) per span name.  Self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        inclusive = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            inclusive[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
        return inclusive, own, calls

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead_s``, which needs an
        untraced job to compare against."""
        inclusive, own, calls = self.times()
        out = {}
        for prefix, _, _, work_name, _ in LAYERS:
            out[prefix + ".calls"] = calls.get(prefix, 0)
            out[prefix + ".self_s"] = own.get(prefix, 0.0)
            out[prefix + ".errors"] = self.errors.get(prefix, 0)
            if work_name:
                out["%s.%s" % (prefix, work_name)] = self.work.get(prefix, 0)
        out["symfun.schur_cache.hit_ratio"] = schur_cache_hit_ratio()
        for check in CHECKS:
            name = "verify." + check
            out[name + ".wall_s"] = inclusive.get(name, 0.0)
            out[name + ".points"] = self.points.get(name, 0)
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path: str):
        """One line per span: name, start, end, parent span index (-1 at
        the top).  Times are perf_counter seconds."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    "%s\t%.9f\t%.9f\t%d\n"
                    % (self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i])
                )


def schur_cache_hit_ratio() -> float:
    """Hits over lookups of the Schur-monomial cache while it exists; 0.0
    when it is gone or was never used."""
    module = sys.modules.get(SCHUR_CACHE[0])
    info = getattr(getattr(module, SCHUR_CACHE[1], None), "cache_info", None)
    if info is None:
        return 0.0
    stats = info()
    lookups = stats.hits + stats.misses
    return stats.hits / lookups if lookups else 0.0


def median_metrics(samples: list) -> dict:
    """Per-metric low median over the traced jobs of one run (a value one job
    measured, so counts stay whole numbers)."""
    return {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}
