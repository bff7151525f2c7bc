"""Traced run: wrappers around the kernel's public functions, layer by layer.

The tracer rebinds functions and methods of the ``twistres`` modules to
wrappers that count calls and time them.  Three kinds of boundary:

* ``span``: counted, timed, and recorded as a span (kind, start, end,
  parent span) in compact arrays kept in memory until the run ends;
* ``timed``: counted and timed in aggregate only, for hot calls whose
  individual spans would not fit in memory;
* ``count``: counted only (scalar operators, ``add_term``, ``act``).

A module-level function is rebound in every module that bound it by name,
since modules import by name (``conversion.rref`` is ``linalg.rref``).
Methods are rebound on each class that defines them.  Times are inclusive
per kind (outermost call of that kind only) and self (duration minus the
time covered by the timed calls nested in it, of any kind).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from fractions import Fraction

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """Counters, aggregate times and spans for one traced run."""

    def __init__(self):
        self.kinds = []
        self._index = {}
        self.count = []
        self.total = []
        self.self_time = []
        self.depth = []
        self.extra = {}
        self.span_kind = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._frames = []          # [covered seconds] per open timed call
        self._open_spans = []      # span ids of the open spans
        self._restore = []
        self._linalg_depth = 0
        self._lift_depth = 0

    # -- bookkeeping -----------------------------------------------------

    def kind(self, name):
        k = self._index.get(name)
        if k is None:
            k = self._index[name] = len(self.kinds)
            self.kinds.append(name)
            self.count.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.depth.append(0)
        return k

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def counts(self, name):
        return self.count[self.kind(name)]

    def inclusive(self, name):
        return self.total[self.kind(name)]

    def exclusive(self, name):
        return self.self_time[self.kind(name)]

    # -- wrappers --------------------------------------------------------

    def counting(self, name, fn):
        k = self.kind(name)
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[k] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timing(self, name, fn, span=False, probe=None, measure=None):
        """Wrap ``fn``; ``probe(args)`` runs before it, ``measure(args,
        result)`` after it, both only for their counters."""
        k = self.kind(name)
        count, total, self_time, depth = (self.count, self.total,
                                          self.self_time, self.depth)
        frames, open_spans = self._frames, self._open_spans
        kinds, parents = self.span_kind, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        linalg = name.startswith("linalg.")
        lift = name == "conversion.lift_build"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[k] += 1
            if probe is not None:
                probe(args)
            if linalg:
                if tracer._linalg_depth == 0 and tracer._lift_depth and \
                        name == "linalg.solve":
                    tracer.bump("lift_systems")
                tracer._linalg_depth += 1
            if lift:
                tracer._lift_depth += 1
            depth[k] += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(kinds)
                kinds.append(k)
                parents.append(open_spans[-1] if open_spans else -1)
                open_spans.append(sid)
            t0 = clock()
            if span:
                starts.append(t0)
                ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                frames.pop()
                depth[k] -= 1
                if depth[k] == 0:
                    total[k] += dur
                self_time[k] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if span:
                    ends[sid] = t1
                    open_spans.pop()
                if linalg:
                    tracer._linalg_depth -= 1
                    if tracer._linalg_depth == 0 and tracer._lift_depth:
                        tracer.bump("lift_linalg_s", dur)
                if lift:
                    tracer._lift_depth -= 1
            if measure is not None:
                measure(args, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, wrapper_factory):
        self._set(cls, attr, wrapper_factory(cls.__dict__[attr]))

    def wrap_function(self, module, attr, wrapper_factory):
        """Rebind a module function wherever a loaded module bound it."""
        orig = getattr(module, attr)
        wrapped = wrapper_factory(orig)
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "") or ""
            if not (mname == "twistres" or mname.startswith("twistres.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary listed in the benchmark's layer table."""
        from twistres import (algebras, awez, checks, complexes, conversion,
                              fields, hopf, linalg, suite, tensors, twisting)

        for op in SCALAR_OPS:
            self.wrap_method(Fraction, op,
                             lambda fn: self.counting("fields.q_ops", fn))
            self.wrap_method(fields.Fp, op,
                             lambda fn: self.counting("fields.fp_ops", fn))
        self.wrap_method(tensors.FreeElement, "add_term",
                         lambda fn: self.counting("tensors.add_term", fn))
        self.wrap_method(hopf.HopfAction, "act",
                         lambda fn: self.counting("hopf.act", fn))

        def timed(name, **kw):
            return lambda fn: self.timing(name, fn, **kw)

        def spanned(name, **kw):
            return lambda fn: self.timing(name, fn, span=True, **kw)

        for cls in _classes_defining((algebras,), "mul_words"):
            probe = (self._mul_cache_probe if cls is algebras.TwistedProductAlgebra
                     else None)
            self.wrap_method(cls, "mul_words", timed("algebras.mul_words", probe=probe))
        self.wrap_method(twisting.TwistingMap, "apply",
                         timed("twisting.apply", probe=self._twist_cache_probe))
        for cls in (twisting.BarLeftCompat, twisting.BarRightCompat):
            self.wrap_method(cls, "apply", timed("twisting.compat"))
        for cls in _classes_defining((hopf,), "apply"):
            self.wrap_method(cls, "apply", timed("hopf.compat"))
        for cls in _classes_defining((complexes, checks), "diff_word"):
            self.wrap_method(cls, "diff_word", timed("complexes.diff_word"))
        for cls in _classes_defining((complexes,), "act_word"):
            self.wrap_method(cls, "act_word", timed("complexes.act_word"))
        self.wrap_method(awez.ChainMap, "apply_word", timed("awez.apply_word"))

        for attr in ("group_closed_aw", "group_closed_ez"):
            self.wrap_function(awez, attr, spanned("awez.closed_form"))
        self.wrap_function(linalg, "rref", spanned(
            "linalg.rref", probe=lambda args: self.bump("rref_rows", len(args[0]))))
        self.wrap_function(linalg, "solve_linear_system", spanned("linalg.solve"))
        self.wrap_function(linalg, "rank", spanned("linalg.rank"))
        self.wrap_function(complexes, "block_matrix", spanned(
            "complexes.block_matrix",
            measure=lambda args, res: self.bump(
                "block_nnz", sum(len(r) for r in res[0].rows))))
        self.wrap_function(complexes, "check_truncated_exactness",
                           spanned("complexes.exactness"))
        self.wrap_method(conversion.BootstrapLift, "__init__",
                         spanned("conversion.lift_build"))
        for attr in CHECK_FUNCTIONS:
            module = checks if hasattr(checks, attr) else suite
            self.wrap_function(module, attr, spanned(f"checks.{attr}"))
        for attr in ("run_suite", "pipeline_reports", "group_closed_form_reports",
                     "example_52_value_reports"):
            self.wrap_function(suite, attr, spanned(f"suite.{attr}"))
        return self

    def _mul_cache_probe(self, args):
        algebra, u, v = args[0], args[1], args[2]
        self.bump("mul_lookups")
        if (u, v) in getattr(algebra, "_mul_cache", ()):
            self.bump("mul_hits")

    def _twist_cache_probe(self, args):
        tau, s_word, r_word = args[0], args[1], args[2]
        if s_word == tau.S.unit or r_word == tau.R.unit:
            return
        self.bump("twist_lookups")
        if (s_word, r_word) in getattr(tau, "_cache", ()):
            self.bump("twist_hits")

    # -- output ----------------------------------------------------------

    def spans(self):
        """Recorded spans as (name, start, end, parent index) tuples."""
        return [(self.kinds[k], s, e, p) for k, s, e, p in
                zip(self.span_kind, self.span_start, self.span_end, self.span_parent)]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            base = self.span_start[0] if self.span_start else 0.0
            for i, (name, s, e, p) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s - base:.9f}\t{e - base:.9f}\t{p}\n")

    def layer_metrics(self):
        """The per-layer metrics of the benchmark's layer table."""
        x = self.extra.get

        def ratio(hits, lookups):
            return x(hits, 0) / x(lookups) if x(lookups) else 0.0

        c, t, s = self.counts, self.inclusive, self.exclusive
        return {
            "fields.q_ops": (c("fields.q_ops"), "count"),
            "fields.fp_ops": (c("fields.fp_ops"), "count"),
            "linalg.rref_calls": (c("linalg.rref"), "count"),
            "linalg.rref_rows": (x("rref_rows", 0), "count"),
            "linalg.rref_s": (t("linalg.rref"), "s"),
            "linalg.solve_calls": (c("linalg.solve"), "count"),
            "linalg.solve_s": (t("linalg.solve"), "s"),
            "linalg.rank_calls": (c("linalg.rank"), "count"),
            "linalg.rank_s": (t("linalg.rank"), "s"),
            "complexes.block_matrix_calls": (c("complexes.block_matrix"), "count"),
            "complexes.block_nnz": (x("block_nnz", 0), "count"),
            "complexes.block_matrix_s": (t("complexes.block_matrix"), "s"),
            "complexes.exactness_self_s": (s("complexes.exactness"), "s"),
            "complexes.diff_word_calls": (c("complexes.diff_word"), "count"),
            "complexes.diff_word_s": (t("complexes.diff_word"), "s"),
            "complexes.act_word_calls": (c("complexes.act_word"), "count"),
            "complexes.act_word_s": (t("complexes.act_word"), "s"),
            "algebras.mul_words_calls": (c("algebras.mul_words"), "count"),
            "algebras.mul_words_s": (t("algebras.mul_words"), "s"),
            "algebras.mul_cache_hit_ratio": (ratio("mul_hits", "mul_lookups"), "ratio"),
            "twisting.apply_calls": (c("twisting.apply"), "count"),
            "twisting.apply_s": (t("twisting.apply"), "s"),
            "twisting.cache_hit_ratio": (ratio("twist_hits", "twist_lookups"), "ratio"),
            "twisting.compat_calls": (c("twisting.compat"), "count"),
            "twisting.compat_s": (t("twisting.compat"), "s"),
            "tensors.add_term_calls": (c("tensors.add_term"), "count"),
            "hopf.act_calls": (c("hopf.act"), "count"),
            "hopf.compat_s": (t("hopf.compat"), "s"),
            "awez.apply_word_calls": (c("awez.apply_word"), "count"),
            "awez.apply_word_s": (s("awez.apply_word"), "s"),
            "awez.closed_form_calls": (c("awez.closed_form"), "count"),
            "awez.closed_form_s": (t("awez.closed_form"), "s"),
            "conversion.lift_build_s": (t("conversion.lift_build"), "s"),
            "conversion.lift_self_s": (t("conversion.lift_build")
                                       - x("lift_linalg_s", 0.0), "s"),
            "conversion.lift_systems": (x("lift_systems", 0), "count"),
        }


CHECK_FUNCTIONS = (
    "check_associativity", "check_twist_axiom_report", "check_twist_inverse",
    "check_d_squared_report", "check_exactness_report", "check_chain_map",
    "check_bimodule_map", "check_identity_composition",
    "check_differential_bimodule",
)

# CheckReport.name prefix -> the checks.* metric that sums its seconds
CHECK_KINDS = (
    ("chain map:", "chain_map"),
    ("bimodule map:", "bimodule"),
    ("differential is bimodule map:", "bimodule"),
    ("exactness:", "exactness"),
    ("d^2 = 0:", "d_squared"),
    ("closed group", "closed_form"),
    ("koszul pipeline: construction", "pipeline_build"),
    ("twist axiom:", "twist"),
    ("twist inverse:", "twist"),
    ("associativity:", "associativity"),
    ("unitality:", "associativity"),
)
CHECK_METRICS = ("chain_map", "bimodule", "identity", "exactness", "d_squared",
                 "closed_form", "pipeline_build", "twist", "associativity")


def check_kind(report_name):
    """The checks.* kind of a report; identities are everything else that
    states ``... = 1`` or compares values."""
    for prefix, kind in CHECK_KINDS:
        if report_name.startswith(prefix):
            return kind
    return "identity"


def check_seconds(reports):
    """``checks.<kind>_s`` summed from CheckReport.seconds."""
    out = {f"checks.{k}_s": 0.0 for k in CHECK_METRICS}
    for r in reports:
        out[f"checks.{check_kind(r.name)}_s"] += r.seconds
    return out


def _classes_defining(modules, attr):
    seen = []
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ \
                    and attr in value.__dict__ and value not in seen:
                seen.append(value)
    return seen

