"""One pass of one workload in a fresh interpreter; run by perfbench/run.py.

A fresh interpreter per pass keeps the library's module-level caches
(`cones.triangulate`, `cohomology._facet_elements`) and every membership
memo cold, as for a user's first call.  The pass sets up, times each
operation on its own, checks the outputs after timing and prints one JSON
line:

    setup_s      set-up seconds, from the first statement after start-up
    attempted    operations tried
    ops          [[op id, seconds, wall seconds, output digest], ...] in
                 run order; seconds are SpeedClock reference seconds in
                 an untraced pass and wall seconds in a traced one; wall
                 seconds leave out the speed sampler's kernel
    failures     [[op id, reason], ...]
    peak_rss_mb  peak resident set size before the checks ran
    layers       per-layer metrics of a traced pass, else null
    wall_s       wall time of the timed loop, minus the speed sampler's
    degrees      sweep degrees per pass (0 outside window-sweep)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Set-up, timed operations and output checks of one workload."""

    degrees = 0  # sweep degrees per pass, for per-degree ratios

    def __init__(self, seed: int, pass_index: int, out_dir: Path):
        self.seed = seed
        self.pass_index = pass_index
        self.out_dir = out_dir
        self.failures: list[list[str]] = []

    @property
    def attempted(self) -> int:
        return len(self.operations())

    def fail(self, op: str, reason: str) -> None:
        self.failures.append([op, reason])

    def semigroups(self):
        return []


class AnalyzeLadder(Workload):
    """`hslbound analyze --input f` in-process, stdout captured."""

    def setup(self):
        from hslbound import cli
        from workloads import DEMO_INPUTS, LADDER

        self.cli = cli
        inputs = {name: ROOT / "demos" / "inputs" / f"{name}.json" for name in DEMO_INPUTS}
        in_dir = self.out_dir / "inputs"
        in_dir.mkdir(parents=True, exist_ok=True)
        for name, gens in LADDER.items():
            path = in_dir / f"{name}.json"
            path.write_text(json.dumps({"generators": gens}))
            inputs[name] = path
        self.order = sorted(inputs.items())
        random.Random(f"analyze-ladder:{self.seed}").shuffle(self.order)

    def operations(self):
        return self.order

    def run(self, tracer):
        from workloads import LADDER_M_Q, LADDER_SHA256

        cli = self.cli
        inner = cli.find_gamma
        captured = []

        def capture(S, *a, **kw):
            cert = inner(S, *a, **kw)
            captured.append((S, cert))
            return cert

        cli.find_gamma = capture
        ops = []
        try:
            for name, path in self.order:
                if tracer is not None:
                    tracer.input_id = name
                captured.clear()
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        t0 = time.perf_counter()
                        code = cli.main(["analyze", "--input", str(path)])
                        t1 = time.perf_counter()
                except Exception as exc:  # a crash is a failed operation
                    self.fail(name, f"raised {exc!r}")
                    continue
                text = out.getvalue()
                digest = sha256(text)
                ops.append([name, t0, t1, digest])
                if code != 0:
                    self.fail(name, f"exit {code}: {err.getvalue().strip()}")
                    continue
                if digest != LADDER_SHA256[name]:
                    self.fail(name, f"stdout sha256 {digest}")
                try:
                    m_q = json.loads(text)["m_q"]
                except (ValueError, KeyError):
                    m_q = None
                if m_q != LADDER_M_Q[name]:
                    self.fail(name, f"m_q {m_q}, pinned {LADDER_M_Q[name]}")
                S, cert = captured[-1]
                if not cert.recheck(S):
                    self.fail(name, "GammaCertificate.recheck failed")
        finally:
            cli.find_gamma = inner
        return ops

    def check(self):
        pass  # every check runs in run(), before the memo is dropped


class WindowSweep(Workload):
    """empirical_hsl with the CLI defaults; certification is set-up."""

    def setup(self):
        from hslbound.cohomology import theoretical_bound
        from hslbound.semigroups import all_facet_data, build, find_gamma, n_q
        from workloads import SWEEPS

        self.cases = []
        for name, gens, p, w in SWEEPS:
            if gens is None:
                doc = json.loads((ROOT / "demos" / "inputs" / f"{name}.json").read_text())
                gens = doc["generators"]
            S = build(gens)
            cert = find_gamma(S)
            facets = all_facet_data(S)
            bound = theoretical_bound(cert, n_q(S, facets), p)
            e_max = bound + 2 if bound is not None else 10
            cap = 10 * cert.m_q
            self.cases.append((name, S, cert, facets, p, w, e_max, cap, bound))
            self.degrees += (2 * w + 1) ** S.dim
        random.Random(f"window-sweep:{self.seed}").shuffle(self.cases)

    def operations(self):
        return self.cases

    def semigroups(self):
        return [case[1] for case in self.cases]

    def run(self, tracer):
        from hslbound.cohomology import empirical_hsl
        from workloads import SWEEP_SHA256

        ops = []
        for name, S, cert, facets, p, w, e_max, cap, bound in self.cases:
            if tracer is not None:
                tracer.input_id = name
            try:
                t0 = time.perf_counter()
                report = empirical_hsl(S, cert, facets, p, w, e_max, cap)
                t1 = time.perf_counter()
            except Exception as exc:
                self.fail(name, f"raised {exc!r}")
                continue
            digest = sha256(json.dumps(report.as_dict(), sort_keys=True))
            ops.append([name, t0, t1, digest])
            if digest != SWEEP_SHA256[name]:
                self.fail(name, f"report sha256 {digest}")
            if bound is not None and report.violations:
                self.fail(name, f"{len(report.violations)} violations at p > N_Q")
            if report.class_counts["unknown"]:
                self.fail(name, f"{report.class_counts['unknown']} unknown orbits")
        return ops

    def check(self):
        """ZeroClassResult.recheck on a seeded sample of window degrees."""
        from hslbound.cohomology import zero_class
        from workloads import RECHECK_SAMPLE

        for name, S, cert, facets, p, w, e_max, cap, bound in self.cases:
            rng = random.Random(f"window-sweep:{self.seed}:{name}")
            for _ in range(RECHECK_SAMPLE):
                v = tuple(rng.randint(-w, w) for _ in range(S.dim))
                try:
                    ok = zero_class(S, cert, facets, v, cap).recheck(S, facets, v)
                except Exception as exc:
                    self.fail(name, f"zero_class {v} raised {exc!r}")
                    break
                if not ok:
                    self.fail(name, f"ZeroClassResult.recheck failed at {v}")
                    break


class RandomGeometry(Workload):
    """build, saturation_residues, all_facet_data and n_q per semigroup."""

    def setup(self):
        from workloads import random_semigroups

        self.items = random_semigroups(self.seed, self.pass_index)
        self.results = []

    def operations(self):
        return self.items

    def run(self, tracer):
        from hslbound.semigroups import all_facet_data, build, n_q, saturation_residues

        ops = []
        for name, gens in self.items:
            if tracer is not None:
                tracer.input_id = name
            try:
                t0 = time.perf_counter()
                S = build(gens)
                residues = saturation_residues(S).residues
                facets = all_facet_data(S)
                nq = n_q(S, facets)
                t1 = time.perf_counter()
            except Exception as exc:
                self.fail(name, f"raised {exc!r}")
                continue
            self.results.append((name, S, residues, facets, nq))
            factors = [fd.invariant_factors for fd in facets]
            ops.append([name, t0, t1, sha256(repr((S.support_forms, residues, factors, nq)))])
        return ops

    def check(self):
        """Residues by an exact barycentric test per subcone; invariant
        factors and N_Q against sympy."""
        from sympy import Matrix, ZZ, factorint
        from sympy.matrices.normalforms import invariant_factors

        from hslbound.cones import triangulate

        for name, S, residues, facets, nq in self.results:
            try:
                reason = self._check_residues(S, residues, triangulate)
                if reason is None:
                    factors = []
                    for fd in facets:
                        if not fd.coord_matrix:
                            continue
                        ref = [int(d) for d in invariant_factors(Matrix(fd.coord_matrix), domain=ZZ)]
                        ref = [d for d in ref if d]
                        if tuple(ref) != tuple(fd.invariant_factors):
                            reason = f"facet {fd.index} invariant factors {fd.invariant_factors} != {ref}"
                            break
                        factors.extend(ref)
                    primes = [q for d in factors if d > 1 for q in factorint(d)]
                    if reason is None and nq != max(primes, default=0):
                        reason = f"n_q {nq} != {max(primes, default=0)}"
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason is not None:
                self.fail(name, reason)

    @staticmethod
    def _check_residues(S, residues, triangulate):
        """Every residue lies in the half-open parallelepiped of some
        subcone, and each subcone holds exactly |det| of them."""
        rays = S.cone.extreme_rays
        n = S.dim
        covered = set()
        for sub in triangulate(S.cone):
            adj, det = adjugate_det([rays[i] for i in sub.ray_indices])
            if sub.determinant != abs(det):
                return f"subcone {sub.ray_indices}: determinant {sub.determinant} != {abs(det)}"
            sign = 1 if det > 0 else -1
            inside = 0
            for pt in residues:
                # pt = sum_k mu_k r_k with mu = pt @ adj / det
                if all(
                    0 <= sign * sum(pt[i] * adj[i][k] for i in range(n)) < abs(det)
                    for k in range(n)
                ):
                    inside += 1
                    covered.add(pt)
            if inside != abs(det):
                return f"subcone {sub.ray_indices}: {inside} residues, |det| {abs(det)}"
        if len(covered) != len(residues):
            return f"{len(residues) - len(covered)} residues outside every parallelepiped"
        return None


def adjugate_det(rows):
    """Adjugate and determinant of a square integer matrix, by Fraction
    elimination: rows @ adj == det * identity."""
    n = len(rows)
    a = [[Fraction(e) for e in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    det = Fraction(1)
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        a[c] = [e / a[c][c] for e in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [e - f * g for e, g in zip(a[i], a[c])]
    adj = [[int(e * det) for e in r[n:]] for r in a]
    return adj, int(det)


WORKLOAD_CLASSES = {
    "analyze-ladder": AnalyzeLadder,
    "window-sweep": WindowSweep,
    "random-geometry": RandomGeometry,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for inputs and spans")
    ap.add_argument("--tag", required=True, help="names this pass's span file")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-index", type=int, default=0,
                    help="selects the inputs of workloads that differ per pass")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from speedclock import SpeedClock
    from tracing import Tracer

    out_dir = Path(args.out)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.pass_index, out_dir)
    # a traced pass runs without the speed sampler, whose kernel would land
    # in the self time of whatever traced call it interrupted
    clock = None if args.trace else SpeedClock()
    with clock or contextlib.nullcontext():
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        result = {"setup_s": clock.corrected(t0, t1) if clock else t1 - t0}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.semigroups.extend(workload.semigroups())
            tracer.install()
        t0 = time.perf_counter()
        try:
            timed = workload.run(tracer)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
    wall = clock.busy(t0, t1) if clock else t1 - t0
    ops = [
        [name, clock.corrected(a, b) if clock else b - a, clock.busy(a, b) if clock else b - a, digest]
        for name, a, b, digest in timed
    ]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["layers"] = None
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(workload.degrees)
        span_dir = out_dir / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "input")
        with open(span_dir / f"{args.tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    workload.check()
    result.update(
        attempted=workload.attempted, ops=ops, failures=workload.failures,
        peak_rss_mb=rss_mb, wall_s=wall, degrees=workload.degrees,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
