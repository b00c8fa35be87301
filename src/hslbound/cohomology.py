"""Frobenius nilpotence of monomial classes in top local cohomology.

A monomial class [x^v] of the top local cohomology of a pointed semigroup
ring at its monomial maximal ideal vanishes iff v + w lands in the
semigroup for some element w of some facet semigroup.  Frobenius raises
monomials to the p-th power, i.e. multiplies lattice degrees by p, and
per-monomial analysis already determines nilpotence of the whole module:
each lattice-degree piece of the top cohomology is at most
one-dimensional (a quotient of the corresponding piece of the full group
algebra) and Frobenius maps the degree-v piece into the degree-p*v piece,
so a general class is killed by F^e exactly when each of its monomial
components is.

The vanishing oracle is exact for degrees inside -sigma (interior: never
zero; boundary: an integer lattice test facet by facet).  Outside -sigma
it first tries the constructive witness built from a verified gamma
translate, which always fires once p^e reaches m_q, and otherwise falls
back to a capped witness search that reports Unknown rather than claim an
uncertified nonvanishing.  It reads at most FACET_ELEMENT_LIMIT elements
per facet per semigroup, whatever the cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from operator import add, ge

from .cones import neg_region, sign_vector
from .errors import DimensionMismatchError
from .intlinalg import IntVector, dot, vec_add, vec_mat, vec_scale, vector
from .semigroups import (
    AffineSemigroup,
    FacetData,
    GammaCertificate,
    _check_limits,
    _contains,
    _least_exponent,
    check_window,
    facet_witness_combo,
    member,
    n_q,
    theoretical_bound,
)


@dataclass(frozen=True)
class ZeroClassResult:
    """Verdict on [x^v]: zero with a checked witness, nonzero with the
    region argument used, or unknown when the capped search ran out.

    A zero verdict records the witness facet, the witness w itself and its
    nonnegative coefficients over that facet's generators, so it can be
    re-verified by arithmetic plus one membership query.
    """

    verdict: str  # "zero" | "nonzero" | "unknown"
    facet: int | None = None
    witness: IntVector | None = None
    witness_coeffs: tuple[int, ...] | None = None
    certificate: str | None = None  # "neg_interior" | "boundary_lattice" | "finite_facets"
    checked_facets: tuple[int, ...] = ()
    cap: int | None = None

    @property
    def is_zero(self) -> bool:
        return self.verdict == "zero"

    def recheck(self, S: AffineSemigroup, facets, v) -> bool:
        """Independent validation of the verdict's evidence.

        Evidence that does not fit the facets (no such facet, coefficients
        of the wrong length, a checked facet list other than the one the
        degree calls for) fails the check rather than raising.  A
        certificate is checked only under a nonzero verdict; an unknown
        verdict passes only without one, and any other verdict fails.
        """
        signs = sign_vector(S.cone, v)
        neg = neg_region(signs)
        if self.verdict == "zero":
            if self.facet not in range(len(facets)) or self.witness_coeffs is None:
                return False
            fd = facets[self.facet]
            coeffs = self.witness_coeffs
            if len(coeffs) != len(fd.facet_gens) or any(c < 0 for c in coeffs):
                return False
            # a facet with no generators (rank 1) sums to the empty tuple
            if (vec_mat(coeffs, fd.facet_gens) or S.zero) != self.witness:
                return False
            if dot(fd.support_form, self.witness) != 0:
                return False
            return member(S, vec_add(v, self.witness))
        if self.verdict == "unknown":
            return self.certificate is None
        if self.verdict != "nonzero":
            return False
        if self.certificate == "neg_interior":
            return neg.kind == "neg_interior"
        if self.certificate == "boundary_lattice":
            if neg.kind == "outside_neg" or self.checked_facets != neg.zero_facets:
                return False
            return all(
                facet_witness_combo(facets[i], v) is None for i in neg.zero_facets
            )
        if self.certificate == "finite_facets":
            eligible = tuple(i for i, s in enumerate(signs) if s >= 0)
            if self.checked_facets != eligible:
                return False
            return all(not facets[i].facet_gens for i in eligible) and not member(S, v)
        return False


def _zero(facet, witness, coeffs):
    return ZeroClassResult("zero", facet=facet, witness=witness, witness_coeffs=coeffs)


def _constructive_facet(signs, cert: GammaCertificate) -> int | None:
    """The first facet i with u_i(v) >= u_i(gamma), or None.

    For v outside -sigma such a facet kills [x^v]: a multiple of its
    interior element lifts every other form to its gamma value, so v plus
    that multiple lies in gamma + saturation, hence in the semigroup.
    """
    for i, (s, fv) in enumerate(zip(signs, cert.facet_values)):
        if s >= fv:
            return i
    return None


# Resource limits.  The capped search reads at most FACET_ELEMENT_LIMIT
# elements per facet per semigroup, whatever the cap, and a search that
# reaches the limit is truncated, so its verdict is unknown.  A full
# list, with its heap and seen set, takes about 4 MiB on D3 (rank 3).
FACET_ELEMENT_LIMIT = 10**4  # elements one facet's list holds at most


def _facet_elements(S: AffineSemigroup, fd: FacetData, cap: int):
    """Nonzero elements of fd's facet semigroup with grading <= cap, at
    most FACET_ELEMENT_LIMIT: (level, element, coefficients, form vector)
    tuples by (level, element).

    One walk per facet, kept in S._facet_walks, serves every cap and pops
    only what a caller reads.  Each element takes its coefficients from
    its first popped predecessor, of lower level, so the elements of any
    cap are a prefix of the walk.  A facet with generators never empties
    its heap.
    """
    walk = S._facet_walks.get(fd.index)
    if walk is None:
        gen_forms = tuple(S.cone.generator_forms[j] for j in fd.facet_gen_indices)
        start = (0, S.zero, (0,) * len(gen_forms), (0,) * len(S.support_forms))
        walk = S._facet_walks[fd.index] = ([], [start], {S.zero}, gen_forms)
    listed, heap, seen, gen_forms = walk
    for k in range(1, FACET_ELEMENT_LIMIT + 1):  # listed[0] is the zero element
        while len(listed) <= k and heap[0][0] <= cap:
            lv, w, coeffs, forms = entry = heapq.heappop(heap)
            listed.append(entry)
            for j, (g, gf) in enumerate(zip(fd.facet_gens, gen_forms)):
                nxt = vec_add(w, g)
                if nxt not in seen:
                    seen.add(nxt)
                    bumped = tuple(c + (1 if jj == j else 0) for jj, c in enumerate(coeffs))
                    heapq.heappush(heap, (lv + sum(gf), nxt, bumped, vec_add(forms, gf)))
        if len(listed) <= k or listed[k][0] > cap:
            return
        yield listed[k]


def zero_class(
    S: AffineSemigroup,
    cert: GammaCertificate,
    facets: tuple[FacetData, ...],
    v,
    cap: int,
    *,
    signs: IntVector | None = None,
) -> ZeroClassResult:
    """Decide whether [x^v] vanishes in the top cohomology.

    signs, when given, must be v's support-form vector
    sign_vector(S.cone, v); callers that hold it already pass it rather
    than have it recomputed.  Otherwise it is computed here, and a v of
    the wrong length raises ValueError, as does a negative cap.

    Decision by region of v relative to -sigma:

    * v in the semigroup (in particular the conductor region
      u_i(v) >= u_i(gamma) for all i): zero, witness 0.
    * all u_i(v) < 0: nonzero, since any witness facet i would need
      u_i(v + w) = u_i(v) >= 0.
    * all u_i(v) <= 0 with zeros: zero iff v lies in the lattice spanned
      by some zero-facet's generators; the integer solve doubles as the
      witness construction, and failure on every zero facet certifies
      nonzero (a witness on facet i would force v + w onto facet i).
    * some u_i(v) > 0: if u_i(v) >= u_i(gamma) for some facet i, scale
      that facet's interior element until every other form clears its
      gamma value; then v + w sits in gamma + saturation, hence in the
      semigroup.  Otherwise search facet elements up to the cap, at
      most FACET_ELEMENT_LIMIT per facet per semigroup whatever the cap,
      and answer Unknown when the search is truncated.  It works on form
      vectors: u(v + w) = signs + u(w), so a candidate with a negative
      entry is outside the cone and skipped, one with every entry >=
      u(gamma) lies in gamma + saturation, and any other is decided by
      the membership oracle.
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    v = vector(v)
    if signs is None:
        signs = sign_vector(S.cone, v)
    if all(s >= 0 for s in signs):
        # v is in the cone, so the only possible witness facets are all of
        # them; membership itself settles the w = 0 case
        if all(map(ge, signs, cert.facet_values)) or _contains(S, signs):
            return _zero(0, S.zero, (0,) * len(facets[0].facet_gens))
    neg = neg_region(signs)
    if neg.kind == "neg_interior":
        return ZeroClassResult("nonzero", certificate="neg_interior")
    if neg.kind == "neg_boundary":
        for i in neg.zero_facets:
            combo = facet_witness_combo(facets[i], v)
            if combo is None:
                continue
            coeffs = tuple(max(0, -c) for c in combo)
            return _zero(i, vec_mat(coeffs, facets[i].facet_gens) or S.zero, coeffs)
        return ZeroClassResult(
            "nonzero", certificate="boundary_lattice", checked_facets=neg.zero_facets
        )
    # outside -sigma: constructive route via the gamma certificate
    i = _constructive_facet(signs, cert)
    if i is not None:
        wstar = facets[i].interior_element
        lam = 0
        for j, (sj, fj) in enumerate(zip(signs, cert.facet_values)):
            if j == i or sj >= fj:
                continue
            step = dot(S.support_forms[j], wstar)
            if step <= 0:
                raise AssertionError(f"facet {i}: interior element has form {j} value {step}")
            need = fj - sj
            lam = max(lam, -(-need // step))
        w = vec_scale(wstar, lam)
        coeffs = (lam,) * len(facets[i].facet_gens)
        return _zero(i, w, coeffs)
    truncated = False
    for i, s in enumerate(signs):
        if s < 0:
            continue
        fd = facets[i]
        if not fd.facet_gens:
            continue  # facet semigroup is {0}; w = 0 was already ruled out
        truncated = True
        for _, w, coeffs, w_forms in _facet_elements(S, fd, cap):
            c = tuple(map(add, signs, w_forms))
            if min(c) < 0:
                continue
            if all(map(ge, c, cert.facet_values)) or _contains(S, c):
                return _zero(i, w, coeffs)
    if truncated:
        return ZeroClassResult("unknown", cap=cap)
    eligible = tuple(i for i, s in enumerate(signs) if s >= 0)
    return ZeroClassResult(
        "nonzero", certificate="finite_facets", checked_facets=eligible
    )


# ---------------------------------------------------------------------------
# Frobenius orbits


@dataclass(frozen=True)
class OrbitReport:
    """Vanishing statuses of [x^{p^e v}] for e = 0..e_max.

    kind is "nilpotent" (order = least e whose status is zero, or for a
    boundary degree the least zero level past e_max), "not_nilpotent"
    (certified: interior degrees are Frobenius-stable, boundary degrees
    have no zero level up to the one their invariant factors bound), or
    "unknown" (only possible outside -sigma when e_max stops short of the
    bound).
    """

    v: IntVector
    prime: int
    statuses: tuple[ZeroClassResult, ...]
    kind: str
    order: int | None


def _level_walk(S, cert, facets, v, signs, p: int, cap: int, top: int) -> list:
    """zero_class on p^e v for e = 0, 1, ... below top, up to the first
    zero level; returns the statuses computed.

    signs is v's support-form vector, scaled along with v.  Outside -sigma
    a level with p^e >= m_q must come out zero via the constructive
    witness; that is asserted, not assumed.
    """
    statuses = []
    power = 1
    for e in range(top):
        st = zero_class(
            S, cert, facets, vec_scale(v, power), cap, signs=vec_scale(signs, power)
        )
        statuses.append(st)
        if st.is_zero:
            break
        if power >= cert.m_q and max(signs) > 0:
            raise AssertionError(
                f"constructive witness failed at p^{e} >= m_q for degree {v}"
            )
        power *= p
    return statuses


def _boundary_top(facets, zero_facets, p: int) -> int:
    """The level that decides a boundary degree with these zero facets.

    The class of v in T_i = (hyperplane lattice) / L_i has an order
    dividing d, the largest invariant factor of facet i; if a power of p
    kills it, that order is some p^k <= d.
    """
    return max(
        (
            _least_exponent(max(facets[i].invariant_factors), p)
            for i in zero_facets
            if facets[i].facet_gens
        ),
        default=0,
    )


def frobenius_orbit(
    S: AffineSemigroup,
    cert: GammaCertificate,
    facets: tuple[FacetData, ...],
    v,
    p: int,
    e_max: int,
    cap: int,
) -> OrbitReport:
    """Track [x^{p^e v}] for e = 0..e_max and classify the orbit.

    Once a level is zero, the next level reuses the scaled witness: if w
    kills p^e v then p*(p^e v + w) stays in the semigroup, so p*w kills
    the next level.  A boundary degree with no zero level up to e_max is
    tested on, up to the level its facets' invariant factors bound, which
    decides it; only the statuses of levels 0..e_max are kept.  Raises
    ValueError for p < 2 or a negative e_max or cap, and AssertionError
    where _level_walk's constructive witness fails.
    """
    _check_limits(p, e_max=e_max, cap=cap)
    v = vector(v)
    signs = sign_vector(S.cone, v)
    neg = neg_region(signs)
    top = e_max
    if neg.kind == "neg_boundary":
        top = max(top, _boundary_top(facets, neg.zero_facets, p))
    statuses = _level_walk(S, cert, facets, v, signs, p, cap, top + 1)
    if not statuses[-1].is_zero:
        kind = "unknown" if neg.kind == "outside_neg" else "not_nilpotent"
        return OrbitReport(v, p, tuple(statuses[: e_max + 1]), kind, None)
    order = len(statuses) - 1
    while len(statuses) <= e_max:
        prev = statuses[-1]
        statuses.append(
            _zero(prev.facet, vec_scale(prev.witness, p), tuple(c * p for c in prev.witness_coeffs))
        )
    return OrbitReport(v, p, tuple(statuses[: e_max + 1]), "nilpotent", order)


# ---------------------------------------------------------------------------
# the window verifier


@dataclass(frozen=True)
class HslReport:
    """Window sweep summary for one prime.

    violations lists nilpotent degrees whose order exceeds the bound; for
    p > nq this is guaranteed empty.  When p <= nq the bound is withheld
    and boundary degrees touching an invariant factor divisible by p are
    flagged instead.
    """

    prime: int
    window: int
    e_max: int
    cap: int
    nq: int
    theoretical_bound: int | None
    empirical_max: int
    region_counts: dict
    class_counts: dict
    violations: tuple[tuple[IntVector, int], ...]
    small_char_flags: tuple[IntVector, ...]

    def as_dict(self) -> dict:
        return {
            "prime": self.prime,
            "window": self.window,
            "e_max": self.e_max,
            "cap": self.cap,
            "n_q": self.nq,
            "theoretical_bound": self.theoretical_bound,
            "empirical_max": self.empirical_max,
            "region_counts": dict(self.region_counts),
            "class_counts": dict(self.class_counts),
            "violations": [
                {"degree": list(v), "order": o} for v, o in self.violations
            ],
            "small_char_flags": [list(v) for v in self.small_char_flags],
        }


def _constructive_level(signs, facet_values, p: int, e_max: int) -> int:
    """The least e with p^e * s_i >= u_i(gamma) for some i, from which the
    constructive witness kills the level, or e_max + 1 if that is past
    e_max.  signs must have some s_i > 0 or some s_i >= u_i(gamma).

    It is 0 when some s_i >= u_i(gamma) (s_i = u_i(gamma) = 0 included).
    Otherwise only facets with s_i > 0 can pass, facet i from the least e
    with p^e >= ceil(u_i(gamma) / s_i), so the level is the least exponent
    of m = min ceil(u_i(gamma) / s_i).  Some s_i >= 1, so m <= m_q and the
    level is at most ceil(log_p m_q), the paper's bound.
    """
    if any(map(ge, signs, facet_values)):
        return 0
    m = min(-(-f // s) for s, f in zip(signs, facet_values) if s > 0)
    return min(_least_exponent(m, p), e_max + 1)


UNSET = 255  # an order-table byte with no order stored


def _row_interval(base, column, bounds, window: int) -> range:
    """The x in [-window, window] with base_i + x * column_i <= bounds_i
    for every i: one floor or ceiling division per form with a nonzero
    column entry; a form with column entry 0 keeps or empties the row."""
    lo, hi = -window, window
    for b, c, top in zip(base, column, bounds):
        if c > 0:
            hi = min(hi, (top - b) // c)
        elif c < 0:
            lo = max(lo, -((top - b) // -c))
        elif b > top:
            return range(0)
    return range(lo, max(lo, hi + 1))


def _minus(outer: range, inner: range) -> tuple[range, range]:
    """outer minus the interval inner: the parts left and right of it."""
    if not inner:
        return outer, range(0)
    return (
        range(outer.start, min(outer.stop, inner.start)),
        range(max(outer.start, inner.stop), outer.stop),
    )


def _row_runs(base, column, window: int, threshold):
    """Split the row of degrees with signs base + x * column, |x| <= window.

    Returns (interior, nonpositive, runs): the sizes of the interior of
    -sigma (every sign < 0) and of the non-positive set (every sign <= 0),
    and the runs the sweep visits, as (is_boundary, range) pairs in
    increasing x: the boundary (non-positive, not interior) and the
    outside degrees with every sign below threshold (with u(gamma), the
    degrees not constructive at level 0).  Each of the three sets is an
    intersection of half-lines, so an interval; the rest of the row is
    outside and has some sign at or above its threshold.
    """
    m = len(base)
    interior = _row_interval(base, column, (-1,) * m, window)
    nonpositive = _row_interval(base, column, (0,) * m, window)
    below = _row_interval(base, column, tuple(f - 1 for f in threshold), window)
    left_out, right_out = _minus(below, nonpositive)
    left_b, right_b = _minus(nonpositive, interior)
    runs = ((False, left_out), (True, left_b), (True, right_b), (False, right_out))
    return len(interior), len(nonpositive), runs


def empirical_hsl(
    S: AffineSemigroup,
    cert: GammaCertificate,
    facets: tuple[FacetData, ...],
    p: int,
    window: int,
    e_max: int | None = None,
    cap: int | None = None,
) -> HslReport:
    """Sweep all degrees in [-window, window]^n and tally Frobenius orders.

    The report is the one per-degree frobenius_orbit calls would give,
    but orders are computed only where they can change it: an outside
    order at most lim = min(empirical_max so far, bound, e_max) is
    nilpotent, no violation and no new maximum.  The box is taken one row
    (all but the last coordinate fixed) at a time.  Along a row the
    support-form values are affine in the last coordinate x:
    s(x) = s0 + x * L, with s0 a sum of multiples of the other form
    columns and L the last column.  So the interior of -sigma, the
    non-positive set and the degrees whose constructive level e_c (the
    least e with some p^e s_i >= u_i(gamma), _constructive_level) exceeds
    lim are intervals, with one floor or ceiling division per form: e_c
    <= lim iff some s_i >= ceil(u_i(gamma) / p^lim).  The row splits into:

    * the interior (every s_i < 0): not nilpotent; counted;
    * outside -sigma with e_c <= lim, lim as the row starts: counted;
    * the boundary (every s_i <= 0, some = 0), visited: its levels go to
      zero_class up to the first zero, at most up to the level the zero
      facets' invariant factors bound (_boundary_top), whatever e_max is;
      the lattice test is exact, so that decides it;
    * the other outside degrees, visited.  The order is at most k, the
      least order table entry at a v - g, g a generator, visited earlier.
      If k <= lim the degree is counted, with k stored as its entry.
      Otherwise the levels below e_c go to zero_class, stopping at the
      first zero; the order is e_c when none is zero, unknown past e_max.
      The walk counts an unknown level as nonzero, so an outside order,
      and empirical_max with it, is an upper bound at the cap: D3 at
      p = 5, window 8 reads 1 at cap 10 * m_q and 0 at cap 10^6.

    Relation (M): for v and v - g outside -sigma, g in Q, a level of
    v - g that is zero at this cap is zero for v.  The conductor and
    membership tests pass because Q + g lies in Q, the constructive test
    because u_i(g) >= 0, and a capped-search witness w on facet i because
    u_i(v) >= u_i(v - g) >= 0 keeps facet i eligible and v + w - g in Q
    gives v + w in Q.  A table entry is a zero level of its degree at
    this cap (an order or a stored k), so it bounds the order.  (M) fails
    for boundary orders, which are exact and uncapped: on D3 at p = 5 the
    boundary degree (-6,2,-6) has order 0 and (-2,1,-5), one generator
    further, capped order 1; they are never stored.  The table has one
    byte per box degree; UNSET marks no entry.  e_c only falls along Q
    and lim never falls, so the successors of a degree counted by e_c are
    counted too.

    Visited degrees are taken in lexicographic order.  As in
    frobenius_orbit, an outside level with p^e >= m_q that zero_class
    does not kill raises AssertionError.  e_max defaults to bound + 2
    (10 where p <= N_Q withholds the bound) and cap to 10 * m_q, as in
    `hslbound verify`.  Raises ValueError, before any sweep work, for
    p < 2, a negative window, e_max or cap, or a box of more than
    MAX_WINDOW_DEGREES degrees.
    """
    _check_limits(p, window=window, e_max=e_max, cap=cap)
    check_window(window, S.dim)
    width = 2 * window + 1
    nq = n_q(S, facets)
    bound = theoretical_bound(cert, nq, p)
    if e_max is None:
        e_max = bound + 2 if bound is not None else 10
    if cap is None:
        cap = 10 * cert.m_q
    # facets with an invariant factor divisible by p; a boundary degree on
    # one of them is flagged when the bound is withheld
    small_char = tuple(
        i for i, fd in enumerate(facets) if any(d % p == 0 for d in fd.invariant_factors)
    )
    region_counts = {"neg_interior": 0, "neg_boundary": 0, "outside_neg": 0}
    class_counts = {"nilpotent": 0, "not_nilpotent": 0, "unknown": 0}
    emp_max = 0
    # an outside order at most lim = min(emp_max, top) cannot change the
    # report; top < UNSET, so an UNSET byte never passes known <= lim
    top = min(e_max, _least_exponent(cert.m_q, p), UNSET - 1)
    if bound is not None:
        top = min(top, bound)
    lim = 0
    skip = cert.facet_values  # e_c <= lim iff some s_i >= skip[i]
    violations = []
    flags = []
    coords = range(-window, window + 1)
    columns = tuple(zip(*S.support_forms))  # column k: the forms at e_k
    last = columns[-1]
    # the prefix columns' multiples, shared by every row; a visited degree's
    # signs are base + x * last, so the last column gets none
    multiples = [{c: vec_scale(col, c) for c in coords} for col in columns[:-1]]
    # the order of each visited outside degree, by position in the box;
    # UNSET for every other degree and for orders that do not fit a byte
    orders = bytearray([UNSET]) * width**S.dim
    # per generator g: the position shift of v -> v - g, and per coordinate
    # the values c with c - g_k in [-window, window]
    place = tuple(width**k for k in reversed(range(S.dim)))
    steps = tuple(
        (dot(g, place), tuple(range(c - window, c + window + 1) for c in g))
        for g in S.generators
    )
    for row, prefix in enumerate(product(coords, repeat=S.dim - 1)):
        base = (0,) * len(last)
        for c, mult in zip(prefix, multiples):
            base = tuple(map(add, base, mult[c]))
        interior, nonpositive, runs = _row_runs(base, last, window, skip)
        region_counts["neg_interior"] += interior
        region_counts["neg_boundary"] += nonpositive - interior
        region_counts["outside_neg"] += width - nonpositive
        class_counts["not_nilpotent"] += interior
        outside_visits = sum(len(run) for boundary, run in runs if not boundary)
        # outside with e_c <= lim: nilpotent of order at most lim
        class_counts["nilpotent"] += width - nonpositive - outside_visits
        # the generators g with prefix - g[:-1] in the box, each with its
        # shift and the x at which x - g[-1] is in the box too
        preds = tuple(
            (shift, spans[-1])
            for shift, spans in steps
            if all(map(range.__contains__, spans, prefix))
        ) if outside_visits else ()
        start = row * width + window  # box position of (prefix, 0)
        for boundary, run in runs:
            for x in run:
                if not boundary:
                    pos = start + x
                    known = min(
                        (orders[pos - shift] for shift, span in preds if x in span),
                        default=UNSET,
                    )
                    if known <= lim:  # order <= known, the successors' too
                        orders[pos] = known
                        class_counts["nilpotent"] += 1
                        continue
                v = prefix + (x,)
                signs = tuple(b + x * c for b, c in zip(base, last))
                if boundary:
                    stop = _boundary_top(facets, neg_region(signs).zero_facets, p) + 1
                    if bound is None and any(signs[i] == 0 for i in small_char):
                        flags.append(v)
                else:
                    stop = _constructive_level(signs, cert.facet_values, p, e_max)
                statuses = _level_walk(S, cert, facets, v, signs, p, cap, stop)
                if statuses[-1].is_zero:
                    kind, order = "nilpotent", len(statuses) - 1
                elif boundary:
                    kind = "not_nilpotent"
                elif stop <= e_max:  # level stop = e_c is zero
                    kind, order = "nilpotent", stop
                else:
                    kind = "unknown"
                if not boundary and kind == "nilpotent" and order < UNSET:
                    orders[pos] = order
                class_counts[kind] += 1
                if kind == "nilpotent":
                    if order > emp_max:
                        emp_max = order
                        if lim < top:  # lim = emp_max before, so lim rises
                            lim = min(emp_max, top)
                            skip = tuple(-(-f // p**lim) for f in cert.facet_values)
                    if bound is not None and order > bound:
                        violations.append((v, order))
    return HslReport(
        p,
        window,
        e_max,
        cap,
        nq,
        bound,
        emp_max,
        region_counts,
        class_counts,
        tuple(violations),
        tuple(flags),
    )


def hsl_exact_dim1(S: AffineSemigroup, p: int) -> int:
    """Exact nilpotence exponent for one-dimensional semigroups.

    Equals the least e with p^e * w in the semigroup, where w is the
    lattice generator lying in the cone.  Raises ValueError for p < 2.
    """
    _check_limits(p)
    if S.dim != 1:
        raise DimensionMismatchError("exact formula needs a rank-1 semigroup")
    w = S.support_forms[0]  # (1,) or (-1,): the lattice generator in the cone
    e = 0
    power = 1
    while not member(S, vec_scale(w, power)):
        power *= p
        e += 1
    return e
