"""Spans around the program's public functions, recorded from outside it.

:class:`Tracer` replaces each traced function by a wrapper in every
``netstab`` module that holds it, so names bound by ``from .numerics import
...`` are reached as well as module attributes. The closure returned by
``analysis.covariance_rhs`` is wrapped too. Spans stay in memory as
``(name, start, end, parent)`` tuples; :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: (module, function, span name). A span's self time is its duration minus
#: the durations of its direct children.
TRACED = (
    ("netstab.cli", "main", "cli"),
    ("netstab.problemfile", "load_problem_file", "problemfile.load"),
    ("netstab.plantmodel", "validate_plant", "plantmodel.validate"),
    ("netstab.numerics", "stabilizable_pbh", "numerics.pbh"),
    ("netstab.cyclic", "cyclic_decompose", "cyclic.decompose"),
    ("netstab.cyclic", "verify_decomposition", "cyclic.verify"),
    ("netstab.majorize", "check_order", "majorize.check"),
    ("netstab.majorize", "construct_intermediate", "majorize.intermediate"),
    ("netstab.majorize", "schur_horn_isometry", "majorize.isometry"),
    ("netstab.codesign", "codesign", "codesign"),
    ("netstab.codesign", "synthesize_gain", "codesign.gain"),
    ("netstab.codesign", "synthesize_codec", "codesign.codec"),
    ("netstab.numerics", "solve_care_stabilizing", "numerics.care"),
    ("netstab.numerics", "solve_lyapunov", "numerics.lyapunov"),
    ("netstab.numerics", "integrate_linear_matrix_ode", "numerics.ode"),
    ("netstab.analysis", "analyze", "analysis.analyze"),
    ("netstab.analysis", "simulate_fading_covariance", "analysis.simulate"),
    ("netstab.analysis", "covariance_rhs", "analysis.covariance_rhs"),
    ("netstab.reports", "emit", "reports.emit"),
)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.doc_bytes = 0
        self._stack = []
        self._patches = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)

        return wrapper

    def _wrapper(self, name, fn):
        wrapped = self._span(name, fn)
        if name == "analysis.covariance_rhs":
            @functools.wraps(fn)
            def rhs_factory(*args, **kwargs):
                return self._span("analysis.rhs", wrapped(*args, **kwargs))

            return rhs_factory
        if name == "reports.emit":
            @functools.wraps(fn)
            def emit(*args, **kwargs):
                doc = wrapped(*args, **kwargs)
                self.doc_bytes += len(doc.encode("utf-8"))
                return doc

            return emit
        return wrapped

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "netstab" or key.startswith("netstab.")]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds), plus the
        number of ``analysis.analyze`` calls made inside ``codesign``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        eps_steps = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, incl, self_time = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start,
                         self_time + end - start - child[i])
            if name == "analysis.analyze" and parent >= 0 \
                    and self.spans[parent][0] == "codesign":
                eps_steps += 1
        return out, eps_steps
