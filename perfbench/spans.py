"""Span recorder for the traced run.

Spans are recorded from outside the package: ``Tracer.install`` replaces the
public functions and methods of ``tridtn`` at the names the package looks
them up by with timing wrappers, and ``Tracer.uninstall`` puts the originals
back, so untraced passes run the package untouched.  A span is (name, start,
end, parent) and lives in flat in-memory arrays until ``save`` writes them.
A span's self time is its duration minus the time its direct children
cover.

``scaledc`` gets no spans: its operations take microseconds, so a per-call
wrapper would swamp them, and their cost shows up as self time of the
callers.
"""
from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import tridtn.cli as cli
import tridtn.fdgrid as fdgrid
import tridtn.interior as interior
import tridtn.poincare as poincare
import tridtn.quadrature as quadrature
import tridtn.relations as relations
import tridtn.series as series
import tridtn.spectral as spectral
import tridtn.traces as traces
from tridtn.traces import BoundaryTrace

#: every span the tracer can record; each reports .calls, .total_s and .self_s
SPANS = (
    "cli.main",
    "expressions.eval",
    "series.symmetric_dirichlet_dtn",
    "series.general_dirichlet_dtn",
    "series.neumann_to_dirichlet",
    "spectral.eval",
    "kernels.exp_weighted_sum",
    "traces.synthesis",
    "quadrature.gauss",
    "poincare.mixed_nr_trace",
    "poincare.symmetric_dirichlet_integral",
    "poincare.d_root_set",
    "poincare.argument_principle_count",
    "poincare.residue",
    "poincare.inhom",
    "poincare.trace_value",
    "relations.residual_audit",
    "interior.greens_eval",
    "interior.fokas_eval",
    "interior.symmetric_interior",
    "bessel.k0k1",
    "fdgrid.fd_solve",
    "fdgrid.cg",
)

#: counters beside the spans, named <span>.<counter> or <layer>.<counter>
COUNTERS = (
    "expressions.eval.points",
    "spectral.eval.k_points",
    "spectral.sampler_builds",
    "kernels.exp_weighted_sum.terms",
    "traces.synthesis.points",
    "poincare.argument_principle_count.evals",
    "poincare.trace_value.points",
    "relations.residual_audit.points",
    "bessel.k0k1.points",
    "fdgrid.cg.iters",
    "fdgrid.unknowns",
)


def _size(x) -> int:
    return int(np.size(x))


def _size_of(index: int, name: str):
    """Counter measure: the size of one argument, passed by position or name."""

    def measure(args, kwargs):
        return _size(args[index] if len(args) > index else kwargs.get(name))

    return measure


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(float)
        self._patches = []

    # -- recording -------------------------------------------------------------
    def wrap(self, name: str, fn, counters=()):
        """``fn`` inside span ``name``; ``counters`` are (counter, f(args, kwargs))."""
        nid = self._ids[name]
        counts, stack = self.counts, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for counter, measure in counters:
                counts[counter] += measure(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def count(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------
    # A name the package no longer defines is skipped, and its span reads 0.
    def _patch(self, owners, attr: str, make):
        """Wrap ``attr`` on each owner module that defines it."""
        for owner in owners:
            original = vars(owner).get(attr)
            if original is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, make(original))

    def _patch_method(self, cls, attr: str, make, kind=None):
        raw = vars(cls).get(attr)
        if raw is None:
            return
        func = raw.__func__ if kind is classmethod else raw
        wrapper = make(func)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def _trace_result(self, fn):
        """Span a solver that returns a BoundaryTrace and span its values too."""
        value_span = functools.partial(
            self.wrap,
            "poincare.trace_value",
            counters=(("poincare.trace_value.points", _size_of(0, "s")),),
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = fn(*args, **kwargs)
            return BoundaryTrace(
                side=trace.side, value=value_span(trace.value), derivative=trace.derivative
            )

        return wrapper

    def _expression_trace(self, fn):
        value_span = functools.partial(
            self.wrap,
            "expressions.eval",
            counters=(("expressions.eval.points", _size_of(0, "s")),),
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = fn(*args, **kwargs)
            return BoundaryTrace(
                side=trace.side,
                value=value_span(trace.value),
                derivative=value_span(trace.derivative),
            )

        return wrapper

    def _cg(self, fn):
        counts = self.counts

        def forwarding(*args, **kwargs):
            user = kwargs.pop("callback", None)

            def callback(xk):
                counts["fdgrid.cg.iters"] += 1
                if user is not None:
                    user(xk)

            counts["fdgrid.unknowns"] += _size_of(1, "b")(args, kwargs)
            return fn(*args, callback=callback, **kwargs)

        return self.wrap("fdgrid.cg", functools.wraps(fn)(forwarding))

    def install(self):
        w = self.wrap
        self._patch((cli,), "main", lambda f: w("cli.main", f))
        self._patch((cli,), "expression_trace", self._expression_trace)
        for name in ("symmetric_dirichlet_dtn", "general_dirichlet_dtn", "neumann_to_dirichlet"):
            self._patch((cli, series), name, lambda f, n=name: w(f"series.{n}", f))
        for name in ("mixed_nr_trace", "symmetric_dirichlet_integral"):
            self._patch(
                (cli, poincare),
                name,
                lambda f, n=name: w(f"poincare.{n}", self._trace_result(f)),
            )
        self._patch((poincare,), "d_root_set", lambda f: w("poincare.d_root_set", f))
        self._patch((poincare,), "residue_of_inhomogeneity", lambda f: w("poincare.residue", f))
        self._patch((poincare,), "argument_principle_count", self._argument_principle)
        self._patch_method(
            poincare.ScaledElimination, "inhom", lambda f: w("poincare.inhom", f)
        )
        self._patch_method(
            spectral.SideSampler,
            "eval",
            lambda f: w(
                "spectral.eval",
                f,
                counters=(("spectral.eval.k_points", _size_of(1, "k")),),
            ),
        )
        self._patch_method(
            spectral.SideSampler,
            "__post_init__",
            lambda f: self.count("spectral.sampler_builds", f),
        )
        self._patch(
            (spectral,),
            "exp_weighted_sum",
            lambda f: w(
                "kernels.exp_weighted_sum",
                f,
                counters=(
                    (
                        "kernels.exp_weighted_sum.terms",
                        lambda a, k: _size_of(0, "mu")(a, k) * _size_of(1, "s")(a, k),
                    ),
                ),
            ),
        )
        self._patch_method(
            traces.FourierSeriesTrace,
            "synthesis",
            lambda f: w(
                "traces.synthesis",
                f,
                counters=(("traces.synthesis.points", _size_of(1, "s")),),
            ),
        )
        self._patch_method(
            quadrature.QuadratureRule,
            "gauss",
            lambda f: w("quadrature.gauss", f),
            kind=classmethod,
        )
        self._patch_method(
            relations.GlobalRelation,
            "residual_audit",
            lambda f: w(
                "relations.residual_audit",
                f,
                counters=(("relations.residual_audit.points", _size_of(1, "ks")),),
            ),
        )
        for name in ("greens_eval", "fokas_eval"):
            self._patch((cli, interior), name, lambda f, n=name: w(f"interior.{n}", f))
        self._patch(
            (interior,), "symmetric_interior", lambda f: w("interior.symmetric_interior", f)
        )
        for name in ("bessel_k0", "bessel_k1"):
            self._patch(
                (interior,),
                name,
                lambda f: w(
                    "bessel.k0k1", f, counters=(("bessel.k0k1.points", _size_of(0, "x")),)
                ),
            )
        self._patch((cli, fdgrid), "fd_solve", lambda f: w("fdgrid.fd_solve", f))
        self._patch((fdgrid,), "cg", self._cg)

    def _argument_principle(self, fn):
        counts = self.counts

        def counted(func, box, *args, **kwargs):
            def evaluate(z):
                counts["poincare.argument_principle_count.evals"] += 1
                return func(z)

            return fn(evaluate, box, *args, **kwargs)

        return self.wrap("poincare.argument_principle_count", functools.wraps(fn)(counted))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def totals(self):
        """<span>.calls, .total_s (inclusive) and .self_s for every span, plus
        the counters."""
        names = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        cover = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        n = len(SPANS)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=dur - cover, minlength=n)
        out = {}
        for i, name in enumerate(SPANS):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        for counter in COUNTERS:
            out[counter] = float(self.counts.get(counter, 0.0))
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            span_names=np.array(SPANS),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
