"""Per-layer tracing installed from outside the library.

`Tracer.install()` replaces public functions of the hslbound modules by
wrappers, in every module that holds a reference to them (the modules
import each other's functions by name, so `member` is patched both in
`semigroups` and in `cohomology`).  Two kinds of wrapper:

* stage functions record a span (name, start, end, parent span, input
  id) per call, kept in memory and written out by the caller;
* hot functions, called up to millions of times, only count calls and
  accumulate self time.

Self time of a call is its duration minus the time spent in wrapped
calls it made; inclusive time includes them.  Only these wrappers run in
a traced pass; untraced passes import the library untouched.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("intlinalg", "cones", "semigroups", "cohomology", "cli")

STAGES = {
    "intlinalg": ("largest_prime_factor",),
    "cones": ("support_forms", "triangulate", "parallelepiped_points"),
    "semigroups": ("build", "saturation_residues", "find_gamma", "all_facet_data", "n_q"),
    "cohomology": ("empirical_hsl",),
    "cli": ("main",),
}

HOT = {
    "intlinalg": ("smith_normal_form", "hermite_normal_form", "solve_rational"),
    "cones": ("classify",),
    "semigroups": ("member", "express"),
    "cohomology": ("zero_class", "frobenius_orbit"),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent, input_id]
        self.input_id = None
        self.counts = defaultdict(int)  # result-derived counts
        self.semigroups = []  # every built semigroup, for memo sizes
        self._stack: list[list] = []  # [child seconds, span index or None]
        self._depth = defaultdict(int)
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("hslbound")
        mods = {m: importlib.import_module(f"hslbound.{m}") for m in MODULES}
        holders = [pkg, *mods.values()]
        for kinds, is_span in ((STAGES, True), (HOT, False)):
            for mod, names in kinds.items():
                for name in names:
                    orig = getattr(mods[mod], name)
                    wrapper = self._wrap(f"{mod}.{name}", orig, is_span)
                    for holder in holders:
                        for attr, value in vars(holder).items():
                            if value is orig:
                                self._restore.append((holder, attr, orig))
                                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, qualname, fn, is_span):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        inclusive = self.inclusive_s
        self_s = self.self_s
        depth = self._depth
        observe = getattr(self, "_observe_" + qualname.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_idx = None
            if is_span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                span_idx = len(spans)
                spans.append([qualname, 0.0, 0.0, parent, self.input_id])
            frame = [0.0, span_idx]
            stack.append(frame)
            depth[qualname] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[qualname] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[qualname] += 1
                inclusive[qualname] += dur
                self_s[qualname] += dur - frame[0]
                if span_idx is not None:
                    spans[span_idx][1] = t0
                    spans[span_idx][2] = t1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- result observers (outside the timed interval of the call) ------------

    def _observe_semigroups_build(self, S):
        self.semigroups.append(S)

    def _observe_semigroups_saturation_residues(self, data):
        self.counts["residues"] += len(data.residues)
        if self._depth["semigroups.find_gamma"]:
            self.counts["gamma_residues"] += len(data.residues)

    def _observe_semigroups_find_gamma(self, cert):
        self.counts["gamma_searches"] += 1

    def _observe_semigroups_express(self, coeffs):
        if self._depth["semigroups.find_gamma"]:
            self.counts["gamma_express"] += 1

    def _observe_cones_parallelepiped_points(self, pts):
        self.counts["parallelepiped_points"] += len(pts)

    def _observe_cohomology_zero_class(self, result):
        self.counts["verdict." + result.verdict] += 1

    # -- report -------------------------------------------------------------

    def memo_size(self) -> int:
        return sum(len(S._memo) for S in self.semigroups)

    def layer_metrics(self, degrees: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass, as name -> value."""
        c, inc, own, n = self.calls, self.inclusive_s, self.self_s, self.counts
        searches = n["gamma_searches"]
        return {
            "semigroups.find_gamma_s": inc["semigroups.find_gamma"],
            "semigroups.express.calls": c["semigroups.express"],
            "semigroups.express_s": own["semigroups.express"],
            "semigroups.certificates_built": (
                n["gamma_express"] / (n["gamma_residues"] + searches) if searches else 0.0
            ),
            "semigroups.member.calls": c["semigroups.member"],
            "semigroups.member_s": own["semigroups.member"],
            "semigroups.memo_size": self.memo_size(),
            "semigroups.build_s": inc["semigroups.build"],
            "semigroups.saturation_residues_s": inc["semigroups.saturation_residues"],
            "semigroups.residues": n["residues"],
            "semigroups.all_facet_data_s": inc["semigroups.all_facet_data"],
            "semigroups.n_q_s": inc["semigroups.n_q"],
            "cones.support_forms_s": inc["cones.support_forms"],
            "cones.triangulate_s": inc["cones.triangulate"],
            "cones.parallelepiped_points_s": inc["cones.parallelepiped_points"],
            "cones.parallelepiped.points": n["parallelepiped_points"],
            "cones.classify.calls": c["cones.classify"],
            "intlinalg.smith_normal_form.calls": c["intlinalg.smith_normal_form"],
            "intlinalg.smith_normal_form_s": own["intlinalg.smith_normal_form"],
            "intlinalg.hermite_normal_form_s": own["intlinalg.hermite_normal_form"],
            "intlinalg.solve_rational.calls": c["intlinalg.solve_rational"],
            "intlinalg.solve_rational_s": own["intlinalg.solve_rational"],
            "intlinalg.largest_prime_factor_s": inc["intlinalg.largest_prime_factor"],
            "cohomology.empirical_hsl_s": inc["cohomology.empirical_hsl"],
            "cohomology.frobenius_orbit.calls": c["cohomology.frobenius_orbit"],
            "cohomology.frobenius_orbit_s": own["cohomology.frobenius_orbit"],
            "cohomology.zero_class.calls": c["cohomology.zero_class"],
            "cohomology.zero_class_s": own["cohomology.zero_class"],
            "cohomology.zero_class.per_degree": (
                c["cohomology.zero_class"] / degrees if degrees else 0.0
            ),
            "cohomology.zero_class.zero": n["verdict.zero"],
            "cohomology.zero_class.nonzero": n["verdict.nonzero"],
            "cohomology.zero_class.unknown": n["verdict.unknown"],
            "cli.main_s": inc["cli.main"],
            "cli.self_s": own["cli.main"],
        }
