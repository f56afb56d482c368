"""Layer spans recorded from outside the library.

Each layer's public function is wrapped at every module attribute its
callers resolve at call time: a name bound by ``from .poly import gcd``
lives in the importing module, so ``poly.gcd`` is wrapped in ``symmetry``,
``curve`` and ``poly`` alike.  A span records calls and the time spent,
and subtracts the time of spans opened inside it to give self time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

# span name -> the (module, attribute) bindings its callers resolve
BINDINGS = {
    "invariants.classify": [("hyperinv.invariants", "classify")],
    "invariants.invariants_of": [("hyperinv.invariants", "invariants_of")],
    "invariants.dihedral_from_even": [("hyperinv.invariants", "dihedral_from_even"),
                                      ("hyperinv.moduli", "dihedral_from_even")],
    "invariants.locus_eval": [("hyperinv.invariants", "locus_eval"),
                              ("hyperinv.moduli", "locus_eval")],
    "invariants.classify_genus2": [("hyperinv.invariants", "classify_genus2")],
    "curve.to_even_degree": [("hyperinv.curve", "to_even_degree")],
    "curve.transform": [("hyperinv.curve", "transform")],
    "symmetry.detect_involutions": [("hyperinv.symmetry", "detect_involutions")],
    "symmetry.even_model": [("hyperinv.symmetry", "even_model")],
    "moebius.pullback_coeffs": [("hyperinv.symmetry", "pullback_coeffs"),
                                ("hyperinv.curve", "pullback_coeffs"),
                                ("hyperinv.moebius", "pullback_coeffs")],
    "moebius.is_automorphism": [("hyperinv.symmetry", "is_automorphism"),
                                ("hyperinv.moebius", "is_automorphism")],
    "poly.resultant": [("hyperinv.symmetry", "resultant"),
                       ("hyperinv.poly", "resultant")],
    "poly.gcd": [("hyperinv.symmetry", "gcd"), ("hyperinv.curve", "gcd"),
                 ("hyperinv.poly", "gcd")],
    "poly.quad_irrational_roots": [("hyperinv.symmetry", "quad_irrational_roots"),
                                   ("hyperinv.poly", "quad_irrational_roots")],
    "poly.rational_roots": [("hyperinv.poly", "rational_roots")],
    "mpmath.polyroots": [("mpmath", "polyroots")],
    "kernel.durand_kerner": [("hyperinv.poly", "durand_kerner")],
    "moduli.rational_model": [("hyperinv.moduli", "rational_model")],
    "moduli.round_trip_check": [("hyperinv.moduli", "round_trip_check")],
    "oracle.reduced_group": [("hyperinv.oracle", "reduced_group")],
    "oracle.label_from_signature": [("hyperinv.oracle", "label_from_signature")],
}

# span name -> the workloads named to exercise it; a span that records no
# call there is wrapped on a binding nobody resolves, and fails the run
EXERCISED_ON = {
    "poly.resultant": ["recip40", "coordchange", "bigcoeff"],
    "poly.gcd": ["recip40", "coordchange", "bigcoeff"],
    "moebius.pullback_coeffs": ["recip40", "coordchange", "bigcoeff"],
    "symmetry.detect_involutions": ["recip40", "coordchange", "bigcoeff"],
    "curve.to_even_degree": ["recip40", "coordchange"],
    "mpmath.polyroots": ["coordchange", "bigcoeff"],
    "poly.quad_irrational_roots": ["coordchange", "bigcoeff"],
    "poly.rational_roots": ["coordchange", "bigcoeff"],
    "moebius.is_automorphism": ["coordchange", "bigcoeff"],
    "symmetry.even_model": ["coordchange", "bigcoeff"],
    "curve.transform": ["coordchange", "bigcoeff"],
    "invariants.classify": ["recip40", "coordchange", "bigcoeff"],
    "invariants.invariants_of": ["recip40", "coordchange", "bigcoeff"],
    "invariants.dihedral_from_even": ["coordchange", "bigcoeff", "descent"],
    "invariants.locus_eval": ["coordchange", "bigcoeff", "descent"],
    "invariants.classify_genus2": ["coordchange", "bigcoeff", "descent"],
    "oracle.reduced_group": ["descent"],
    "oracle.label_from_signature": ["descent"],
    "kernel.durand_kerner": ["descent"],
    "moduli.rational_model": ["descent"],
    "moduli.round_trip_check": ["descent"],
}

ITEM = "item"


def _bits(x):
    if hasattr(x, "coeffs"):
        return max((_bits(c) for c in x.coeffs), default=0)
    if hasattr(x, "denominator"):
        return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())
    return 0


class _Stat:
    __slots__ = ("calls", "total_ns", "child_ns", "hits", "raised", "out_bits")

    def __init__(self):
        self.calls = self.total_ns = self.child_ns = 0
        self.hits = self.raised = self.out_bits = 0


class Recorder:
    """Per-span call counts and times, kept in memory for one process."""

    def __init__(self):
        self.stats = {}
        self._children = []  # child time of each open span, innermost last
        self._originals = []  # (module, attribute, function) as found
        self._wrapped = []  # (module, attribute, span) as installed

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                stat.calls += 1
                stat.total_ns += dt
                stat.child_ns += children.pop()
                if children:
                    children[-1] += dt
            if name == "moebius.is_automorphism":
                stat.hits += out is not None
            elif name == "poly.resultant":
                stat.out_bits = max(stat.out_bits, _bits(out))
            return out

        return span

    def install(self):
        """Wrap every binding in BINDINGS (once); see also uninstall."""
        if not self._originals:
            for name, sites in BINDINGS.items():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                    self._originals.append((module, attr, fn))
                    self._wrapped.append((module, attr, self.wrap(name, fn)))
        for module, attr, fn in self._wrapped:
            setattr(module, attr, fn)

    def uninstall(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def metrics(self):
        """Per-span calls and self seconds, plus the three span counters."""
        out = {}
        for name in BINDINGS:
            st = self.stats[name]
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = ((st.total_ns - st.child_ns) / 1e9, "s")
        res = self.stats["poly.resultant"]
        out["poly.resultant.out_bits"] = (res.out_bits, "bits")
        out["mpmath.polyroots.raised"] = (self.stats["mpmath.polyroots"].raised, "count")
        aut = self.stats["moebius.is_automorphism"]
        out["moebius.is_automorphism.hit_frac"] = (
            aut.hits / aut.calls if aut.calls else 0.0, "fraction")
        return out

    def unexercised(self, workload):
        """Spans named to be exercised on this workload that saw no call."""
        return [name for name, names in EXERCISED_ON.items()
                if workload in names and self.stats[name].calls == 0]
