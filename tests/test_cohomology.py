import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product
from operator import ge

import pytest

from hslbound import cohomology, cones, intlinalg, semigroups
from hslbound.cohomology import (
    HslReport,
    empirical_hsl,
    frobenius_orbit,
    hsl_exact_dim1,
    theoretical_bound,
    zero_class,
)
from hslbound.cones import classify, neg_region, sign_vector
from hslbound.errors import BudgetExhaustedError, DimensionMismatchError
from hslbound.intlinalg import dot, vec_add, vec_scale, vec_sub
from hslbound.semigroups import (
    all_facet_data,
    build,
    express,
    find_gamma,
    member,
    n_q,
    verify_gamma,
)
from conftest import D3_GENS, D4_GENS, INDEX2_GENS, wedge_gens
from oracles import (
    brute_zero_class,
    random_raw_generators,
    random_signed_generators,
    reference_outside_orders,
    semigroup_elements_upto,
    smith_boundary_order,
)
from test_semigroups import SEEDED_COVERAGE

CAP = 470  # 10 * 47, the m_Q of the hand-picked wedge translate (14, 9); find_gamma's is 45


def pipeline(S):
    cert = find_gamma(S)
    facets = all_facet_data(S)
    return cert, facets


@pytest.fixture(scope="module")
def wedge_ctx(wedge):
    return pipeline(wedge)


@pytest.fixture(scope="module")
def index2_ctx(index2):
    return pipeline(index2)


@pytest.fixture(scope="module")
def ns35_ctx(ns35):
    return pipeline(ns35)


def test_entry_points_reject_non_integer_entries(wedge, wedge_ctx):
    # a float entry is rejected, not truncated: (1.7, 1.2) is not the
    # point (1, 1), and build must not read (1.5, 2) as (1, 2)
    cert, facets = wedge_ctx
    with pytest.raises(TypeError):
        build([(1.5, 2), (0, 1), (2.9, 0)])
    calls = (
        lambda v: member(wedge, v),
        lambda v: express(wedge, v),
        lambda v: verify_gamma(wedge, v),
        lambda v: zero_class(wedge, cert, facets, v, CAP),
        lambda v: frobenius_orbit(wedge, cert, facets, v, 2, 1, CAP),
    )
    for call in calls:
        call((5, 1))
        with pytest.raises(TypeError):
            call((1.7, 1.2))
        with pytest.raises(TypeError):
            call((1.0, 1))


def test_zero_class_neg_interior(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    res = zero_class(wedge, cert, facets, (-1, -1), CAP)
    assert res.verdict == "nonzero" and res.certificate == "neg_interior"
    assert res.recheck(wedge, facets, (-1, -1))


def test_zero_class_boundary_lattice_solve(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    res = zero_class(wedge, cert, facets, (-5, -1), CAP)
    assert res.is_zero and res.facet == 0
    assert res.witness == (5, 1)
    assert vec_add((-5, -1), res.witness) == (0, 0)
    assert res.recheck(wedge, facets, (-5, -1))


def test_zero_class_member_degrees(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    for v in ((0, 0), (5, 1), (6, 4)):
        res = zero_class(wedge, cert, facets, v, CAP)
        assert res.is_zero and res.witness == (0, 0)
        assert res.recheck(wedge, facets, v)


def test_zero_class_search_inside_cone(wedge, wedge_ctx):
    # (1,1) is saturated but not in the semigroup; a facet witness exists
    cert, facets = wedge_ctx
    res = zero_class(wedge, cert, facets, (1, 1), CAP)
    assert res.is_zero
    assert res.recheck(wedge, facets, (1, 1))


def test_zero_class_unknown_under_tiny_cap(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    res = zero_class(wedge, cert, facets, (1, 1), 5)
    assert res.verdict == "unknown" and res.cap == 5


def test_zero_class_rejects_negative_cap(wedge, wedge_ctx):
    # a negative cap is refused, not read as a search that ran out; (1, 1)
    # reaches the capped search, and (0, 0) is decided before it
    cert, facets = wedge_ctx
    for v in ((1, 1), (0, 0)):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            zero_class(wedge, cert, facets, v, -1)


def test_zero_class_boundary_nonzero(index2, index2_ctx):
    cert, facets = index2_ctx
    res = zero_class(index2, cert, facets, (-1, 0), CAP)
    assert res.verdict == "nonzero" and res.certificate == "boundary_lattice"
    assert res.recheck(index2, facets, (-1, 0))
    res2 = zero_class(index2, cert, facets, (-2, 0), CAP)
    assert res2.is_zero and vec_add((-2, 0), res2.witness) in {(0, 0), (2, 0)}


def test_zero_class_dim1_exhaustive_nonzero(ns35, ns35_ctx):
    cert, facets = ns35_ctx
    res = zero_class(ns35, cert, facets, (1,), CAP)
    assert res.verdict == "nonzero" and res.certificate == "finite_facets"
    assert res.recheck(ns35, facets, (1,))
    assert zero_class(ns35, cert, facets, (8,), CAP).is_zero


def test_recheck_rejects_forged_evidence(wedge, wedge_ctx, ns35, ns35_ctx, d3, index2, index2_ctx):
    # evidence that does not fit the facets fails the check, not raises
    cert, facets = wedge_ctx
    v = (-5, -1)
    res = zero_class(wedge, cert, facets, v, CAP)
    assert res.is_zero and res.recheck(wedge, facets, v)
    for forged in (
        replace(res, witness_coeffs=res.witness_coeffs + (0,)),
        replace(res, witness_coeffs=None),
        replace(res, facet=None),
        replace(res, facet=7),
        replace(res, facet=-1),
        replace(res, verdict="bogus"),
        replace(res, witness=vec_add(res.witness, (1, 0))),
    ):
        assert forged.recheck(wedge, facets, v) is False, forged
    # a witness that is its coefficients' sum, but off the facet: only
    # facet data whose form does not vanish on its generators gives one
    off = next(g for g in wedge.generators if dot(facets[res.facet].support_form, g))
    forged_facets = list(facets)
    forged_facets[res.facet] = replace(facets[res.facet], facet_gens=(off,))
    forged = replace(res, witness=off, witness_coeffs=(1,))
    assert forged.recheck(wedge, forged_facets, v) is False
    # a boundary-lattice verdict holds only at its degree's zero facets on
    # the boundary of -sigma
    cert, facets = index2_ctx
    res = zero_class(index2, cert, facets, (-1, 0), CAP)
    assert res.certificate == "boundary_lattice" and res.recheck(index2, facets, (-1, 0))
    assert res.recheck(index2, facets, (1, 0)) is False
    for checked in ((), (0, 1), (1,)):
        forged = replace(res, checked_facets=checked)
        assert forged.recheck(index2, facets, (-1, 0)) is False, checked
    # nor at a boundary degree on the same zero facet whose lattice holds
    # it: (-2, 0) is facet 0's generator negated, so its class is zero
    assert zero_class(index2, cert, facets, (-2, 0), CAP).is_zero
    assert res.checked_facets == (0,) and res.recheck(index2, facets, (-2, 0)) is False
    # a certificate counts only under a nonzero verdict, and an unknown
    # verdict carries none
    cert, facets = pipeline(d3)
    v = (-2, -2, -5)
    res = zero_class(d3, cert, facets, v, 20)
    assert res.certificate == "neg_interior" and res.recheck(d3, facets, v)
    assert replace(res, verdict="unknown", certificate=None).recheck(d3, facets, v)
    for forged in (
        replace(res, verdict="bogus"),
        replace(res, verdict="unknown"),
        replace(res, certificate=None),
        replace(res, certificate="bogus"),
    ):
        assert forged.recheck(d3, facets, v) is False, forged
    cert, facets = ns35_ctx
    res = zero_class(ns35, cert, facets, (1,), CAP)
    assert res.certificate == "finite_facets" and res.recheck(ns35, facets, (1,))
    for checked in ((), (0, 0), (1,)):
        forged = replace(res, checked_facets=checked)
        assert forged.recheck(ns35, facets, (1,)) is False, checked


@pytest.mark.parametrize("name, window", [("d3", 8), ("D4", 4), ("W_7", 30)])
def test_capped_search_against_brute_force(request, name, window):
    # seeded outside degrees that reach the capped facet search: outside
    # -sigma, not in Q, and with no constructive facet
    gens = {"D4": D4_GENS, "W_7": wedge_gens(7)}
    S = build(gens[name]) if name in gens else request.getfixturevalue(name)
    cert, facets = pipeline(S)
    cap, tiny = 10 * cert.m_q, 2
    rng = random.Random(7)
    verdicts = []
    while len(verdicts) < 40:
        v = tuple(rng.randint(-window, window) for _ in range(S.dim))
        signs = tuple(dot(u, v) for u in S.support_forms)
        if max(signs) <= 0 or any(map(ge, signs, cert.facet_values)) or member(S, v):
            continue
        res = zero_class(S, cert, facets, v, cap)
        assert res.verdict in ("zero", "unknown"), v
        assert res.is_zero == brute_zero_class(S, facets, v, cap), v
        assert res.recheck(S, facets, v), v
        small = zero_class(S, cert, facets, v, tiny)
        assert small.is_zero == brute_zero_class(S, facets, v, tiny), v
        assert small.verdict == "unknown" or small.is_zero, v
        if res.verdict == "unknown":
            assert small.verdict == "unknown", v
        verdicts.append(res.verdict)
    assert "zero" in verdicts
    # each facet's list, read to the end at either cap, is the facet
    # semigroup below it by level, whatever the scans above grew it to
    for c in (cap, tiny):
        for fd in facets:
            listed = list(cohomology._facet_elements(S, fd, c))
            levels = [level for level, *_ in listed]
            assert levels == sorted(levels), (fd.index, c)
            elements = semigroup_elements_upto(fd.facet_gens, S.grading, c) - {S.zero}
            assert {w for _, w, _, _ in listed} == elements and len(listed) == len(elements)


def test_wrong_length_degrees_rejected(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    for bad in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match="length mismatch"):
            member(wedge, bad)
        with pytest.raises(ValueError, match="length mismatch"):
            express(wedge, bad)
        with pytest.raises(ValueError, match="length mismatch"):
            zero_class(wedge, cert, facets, bad, CAP)


def test_zero_class_brute_on_index2_boundaries(index2, index2_ctx):
    cert, facets = index2_ctx
    cap = 10 * cert.m_q
    for v in product(range(-5, 6), repeat=2):
        res = zero_class(index2, cert, facets, v, cap)
        if res.verdict == "unknown":
            continue
        assert res.is_zero == brute_zero_class(index2, facets, v, cap), v


def test_orbit_neg_interior_stable(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    for p in (2, 5):
        rep = frobenius_orbit(wedge, cert, facets, (-1, -1), p, 6, CAP)
        assert rep.kind == "not_nilpotent" and rep.order is None
        assert all(s.verdict == "nonzero" for s in rep.statuses)


def test_orbit_dim1_example(ns35, ns35_ctx):
    cert, facets = ns35_ctx
    rep = frobenius_orbit(ns35, cert, facets, (1,), 2, 5, CAP)
    assert [s.verdict for s in rep.statuses[:4]] == [
        "nonzero",
        "nonzero",
        "nonzero",
        "zero",
    ]
    assert rep.kind == "nilpotent" and rep.order == 3


def test_orbit_zero_degree(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    rep = frobenius_orbit(wedge, cert, facets, (0, 0), 3, 4, CAP)
    assert rep.kind == "nilpotent" and rep.order == 0


def test_orbit_statuses_monotone(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    rng = random.Random(31)
    for _ in range(100):
        v = (rng.randint(-8, 8), rng.randint(-8, 8))
        p = rng.choice((2, 3, 5))
        rep = frobenius_orbit(wedge, cert, facets, v, p, 7, CAP)
        seen_zero = False
        for st in rep.statuses:
            if seen_zero:
                assert st.is_zero
            seen_zero = seen_zero or st.is_zero


@pytest.mark.parametrize("e_max, cap", [(-1, CAP), (3, -1)])
def test_orbit_rejects_negative_limits(wedge, wedge_ctx, e_max, cap):
    cert, facets = wedge_ctx
    with pytest.raises(ValueError, match="must be nonnegative"):
        frobenius_orbit(wedge, cert, facets, (1, 1), 2, e_max, cap)


def test_constructive_witness_failure_raises(index2, index2_ctx):
    # a certificate whose m_q understates gamma's: a level with p^e >= m_q
    # that the capped search leaves unknown must raise, not pass as nonzero
    cert, facets = index2_ctx
    forged = replace(cert, m_q=1)
    with pytest.raises(AssertionError, match="constructive witness failed"):
        frobenius_orbit(index2, forged, facets, (0, 1), 2, 3, 0)
    with pytest.raises(AssertionError, match="constructive witness failed"):
        empirical_hsl(index2, forged, facets, 2, 2, 3, 0)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_prime_below_2_rejected(p):
    # saturated inputs (m_q = 0), where p < 2 would not loop forever
    S = build(((1, 0), (0, 1)))
    cert, facets = pipeline(S)
    assert cert.m_q == 0
    with pytest.raises(ValueError, match=f"^p must be at least 2, got {p}$"):
        theoretical_bound(cert, 0, p)
    with pytest.raises(ValueError, match="p must be at least 2"):
        frobenius_orbit(S, cert, facets, (1, 1), p, 3, CAP)
    with pytest.raises(ValueError, match="p must be at least 2"):
        empirical_hsl(S, cert, facets, p, 2, 3, CAP)
    with pytest.raises(ValueError, match="p must be at least 2"):
        hsl_exact_dim1(build(((1,),)), p)


def test_empirical_rejects_negative_window(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    with pytest.raises(ValueError, match="window must be nonnegative"):
        empirical_hsl(wedge, cert, facets, 2, -2, 3, CAP)


@pytest.mark.parametrize("name, window", [("ns35", 500000), ("wedge", 500), ("d3", 50)])
def test_empirical_refuses_oversized_box(request, monkeypatch, name, window):
    # the least window whose box exceeds the limit, refused before any
    # sweep work (n_q is its first step) and before the order table
    S = request.getfixturevalue(name)
    assert (2 * window - 1) ** S.dim <= semigroups.MAX_WINDOW_DEGREES < (2 * window + 1) ** S.dim
    cert, facets = pipeline(S)

    def no_work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cohomology, "n_q", no_work)
    with pytest.raises(ValueError, match=f"{(2 * window + 1) ** S.dim} degrees"):
        empirical_hsl(S, cert, facets, 2, window, 3, 20)


def test_rank1_box_at_the_limit(ns35, ns35_ctx):
    # the largest rank-1 box is one row of which few degrees are visited,
    # so its cost is the one-byte order table: no per-x multiples of the
    # last form column are built
    cert, facets = ns35_ctx
    window = (semigroups.MAX_WINDOW_DEGREES - 1) // 2
    tracemalloc.start()
    try:
        rep = empirical_hsl(ns35, cert, facets, 2, window, 5, 10 * cert.m_q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.class_counts == {"nilpotent": 500000, "not_nilpotent": 499999, "unknown": 0}
    assert rep.empirical_max == 3
    assert peak < 4 * 2**20, peak


def test_boundary_cost_does_not_grow_with_e_max(index2, index2_ctx):
    # a boundary order is decided by its facets' invariant factors alone,
    # so the sweep neither tests levels nor scales witnesses up to e_max
    cert, facets = index2_ctx
    cap = 10 * cert.m_q
    small = empirical_hsl(index2, cert, facets, 2, 3, 10, cap).as_dict()
    tracemalloc.start()
    try:
        large = empirical_hsl(index2, cert, facets, 2, 3, 20000, cap).as_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large.pop("e_max") == 20000 and small.pop("e_max") == 10
    assert large == small
    assert peak < 2**20, peak


def test_orbit_positive_order_off_boundary(index2, index2_ctx):
    # (0,1): the only eligible witness sweep walks the even-x facet, so
    # nothing kills the class at e=0, but p*(0,1) dies for every p
    cert, facets = index2_ctx
    cap = 10 * cert.m_q
    assert not brute_zero_class(index2, facets, (0, 1), cap)
    for p in (2, 3, 5):
        rep = frobenius_orbit(index2, cert, facets, (0, 1), p, 4, cap)
        assert rep.kind == "nilpotent" and rep.order == 1
        assert rep.statuses[1].is_zero and not rep.statuses[0].is_zero


def test_empirical_bound_is_tight_on_index2(index2, index2_ctx):
    cert, facets = index2_ctx
    for p in (3, 5):
        bound = theoretical_bound(cert, 2, p)
        rep = empirical_hsl(index2, cert, facets, p, 8)
        assert rep.empirical_max == bound == 1
        assert rep.violations == ()


def test_orbit_boundary_small_char(index2, index2_ctx):
    # (-1,0) sits on a facet whose lattice has index 2: dead at e=1 for
    # p=2, injective for p=3
    cert, facets = index2_ctx
    rep2 = frobenius_orbit(index2, cert, facets, (-1, 0), 2, 4, CAP)
    assert rep2.kind == "nilpotent" and rep2.order == 1
    rep3 = frobenius_orbit(index2, cert, facets, (-1, 0), 3, 4, CAP)
    assert rep3.kind == "not_nilpotent"


def test_theoretical_bound(wedge):
    cert47 = verify_gamma(wedge, (14, 9))
    assert cert47.m_q == 47
    assert theoretical_bound(cert47, 0, 53) == 1
    assert theoretical_bound(cert47, 0, 2) == 6
    assert theoretical_bound(cert47, 2, 2) is None
    one = verify_gamma(build(((1,), (2,))), (0,))
    assert one is not None and one.m_q == 0
    assert theoretical_bound(one, 0, 7) == 0


def test_empirical_wedge(wedge, wedge_ctx):
    cert, facets = wedge_ctx
    rep = empirical_hsl(wedge, cert, facets, 2, 12, 8, CAP)
    assert rep.violations == ()
    assert rep.empirical_max <= 6
    total = sum(rep.region_counts.values())
    assert total == 25 * 25
    assert rep.class_counts["unknown"] == 0


def test_empirical_saturated():
    S = build(((1, 0), (0, 1)))
    cert, facets = pipeline(S)
    rep = empirical_hsl(S, cert, facets, 3, 6, 4, 10)
    assert rep.empirical_max == 0
    assert rep.violations == ()


def test_empirical_degenerate_window(wedge, wedge_ctx):
    # radius 0 sweeps only the origin, which is already zero
    cert, facets = wedge_ctx
    rep = empirical_hsl(wedge, cert, facets, 5, 0, 3, CAP)
    assert rep.empirical_max == 0
    assert sum(rep.region_counts.values()) == 1


@pytest.mark.parametrize("e_max, cap", [(-1, CAP), (3, -1)])
def test_empirical_rejects_negative_limits(wedge, wedge_ctx, e_max, cap):
    cert, facets = wedge_ctx
    with pytest.raises(ValueError, match="must be nonnegative"):
        empirical_hsl(wedge, cert, facets, 2, 2, e_max, cap)


@pytest.mark.parametrize("p", [2, 3])
def test_empirical_defaults(index2, index2_ctx, p):
    # unset, e_max is bound + 2 (10 where p <= N_Q withholds the bound)
    # and cap is 10 * m_q
    cert, facets = index2_ctx
    bound = theoretical_bound(cert, n_q(index2, facets), p)
    e_max = 10 if bound is None else bound + 2
    explicit = empirical_hsl(index2, cert, facets, p, 6, e_max, 10 * cert.m_q)
    assert empirical_hsl(index2, cert, facets, p, 6).as_dict() == explicit.as_dict()


def test_empirical_small_characteristic(index2, index2_ctx):
    cert, facets = index2_ctx
    assert n_q(index2, facets) == 2
    rep2 = empirical_hsl(index2, cert, facets, 2, 6, 5, 10 * cert.m_q)
    assert rep2.theoretical_bound is None
    assert rep2.small_char_flags  # boundary degrees riding the index-2 facet
    assert (-1, 0) in rep2.small_char_flags
    rep3 = empirical_hsl(index2, cert, facets, 3, 6, 5, 10 * cert.m_q)
    assert rep3.theoretical_bound is not None
    assert rep3.violations == ()
    assert rep3.small_char_flags == ()


def test_hsl_exact_dim1_requires_rank1(wedge):
    with pytest.raises(DimensionMismatchError):
        hsl_exact_dim1(wedge, 2)


def orbit_tally(S, cert, facets, p, window, e_max, cap):
    """The window report built degree by degree from frobenius_orbit and
    classify: one full orbit per degree, no shortcut.  Returns the report
    and the orbit of each degree outside -sigma."""
    nq = n_q(S, facets)
    bound = cohomology.theoretical_bound(cert, nq, p)
    regions = {"neg_interior": 0, "neg_boundary": 0, "outside_neg": 0}
    classes = {"nilpotent": 0, "not_nilpotent": 0, "unknown": 0}
    emp_max, violations, flags, outside = 0, [], [], {}
    for v in product(range(-window, window + 1), repeat=S.dim):
        _, neg = classify(S.cone, v)
        regions[neg.kind] += 1
        orbit = frobenius_orbit(S, cert, facets, v, p, e_max, cap)
        if neg.kind == "outside_neg":
            outside[v] = orbit
        classes[orbit.kind] += 1
        if orbit.kind == "nilpotent":
            emp_max = max(emp_max, orbit.order)
            if bound is not None and orbit.order > bound:
                violations.append((v, orbit.order))
        if bound is None and neg.kind == "neg_boundary":
            if any(
                d % p == 0
                for i in neg.zero_facets
                for d in facets[i].invariant_factors
                if d > 1
            ):
                flags.append(v)
    report = HslReport(
        p, window, e_max, cap, nq, bound, emp_max, regions, classes,
        tuple(violations), tuple(flags),
    )
    return report, outside


def log_walks(monkeypatch):
    """Log every cohomology._level_walk call from now on.

    Returns the list of records, one per walk in call order: (region,
    degree, top, calls), region "outside" or "boundary", top the walk's
    level bound and calls the (degree, verdict) pairs it handed to
    zero_class.  A zero_class call outside a walk fails the test.
    """
    walks, current = [], None
    real_zero_class, real_walk = cohomology.zero_class, cohomology._level_walk

    def zero_class(S, cert, facets, v, cap, **kw):
        assert current is not None, f"zero_class on {v} outside a level walk"
        result = real_zero_class(S, cert, facets, v, cap, **kw)
        current.append((tuple(v), result.verdict))
        return result

    def walk(S, cert, facets, v, signs, p, cap, top):
        nonlocal current
        current = []
        walks.append(("outside" if max(signs) > 0 else "boundary", tuple(v), top, current))
        try:
            return real_walk(S, cert, facets, v, signs, p, cap, top)
        finally:
            current = None

    monkeypatch.setattr(cohomology, "zero_class", zero_class)
    monkeypatch.setattr(cohomology, "_level_walk", walk)
    return walks


def sweep_against_orbit_tally(monkeypatch, *args):
    """empirical_hsl(*args) against orbit_tally(*args).

    The reports must be equal, and every outside degree the sweep counts
    without walking its levels must be nilpotent of order at most
    min(empirical_max, bound): such a degree cannot change the report,
    which is why the digests of the reports do not check these skips.
    Returns the report and the number of skipped degrees with order > 0.
    """
    with monkeypatch.context() as m:
        walks = log_walks(m)
        fast = empirical_hsl(*args)
    reference, outside = orbit_tally(*args)
    assert fast.as_dict() == reference.as_dict()
    walked = {v for region, v, *_ in walks if region == "outside"}
    bound = fast.theoretical_bound
    lim = fast.empirical_max if bound is None else min(fast.empirical_max, bound)
    skipped = 0
    for v, orbit in outside.items():
        if v not in walked:
            assert orbit.kind == "nilpotent" and orbit.order <= lim, (v, orbit.order, lim)
            skipped += orbit.order > 0
    return fast, skipped


def sweep_input(request, name):
    """A fixture by name, W_7 / W_9 / D4 / O_2 (the orthant), or
    "random-<rank>-<seed>": the semigroup of
    random_raw_generators(random.Random(seed), rank)."""
    gens = {"W_7": wedge_gens(7), "W_9": wedge_gens(9), "D4": D4_GENS, "O_2": ((1, 0), (0, 1))}
    if name in gens:
        return build(gens[name])
    if name.startswith("random-"):
        _, rank, seed = name.split("-")
        return build(random_raw_generators(random.Random(int(seed)), int(rank)))
    return request.getfixturevalue(name)


# (input, p, window, e_max, cap, forced).  No input violates the theorem,
# so a forced row sets the bound to 0 for p > N_Q: every positive order is
# then a violation
ORBIT_TALLY_CASES = (
    ("wedge", 2, 8, 8, CAP, False),
    ("wedge", 3, 6, 1, 5, False),  # e_max below the bound, tiny cap: unknowns
    ("ns35", 2, 20, 5, 80, False),
    ("ns35", 2, 20, 2, 80, False),  # e_max below the constructive level 3 of (1,)
    ("index2", 2, 6, 10, 20, False),  # p <= N_Q: bound withheld, flags
    ("index2", 3, 6, 3, 20, False),
    ("d3", 5, 4, 3, 20, False),
    ("d3", 2, 3, 0, 20, False),
    # seeded random semigroups (seeds whose gamma search ends within
    # the default budget in well under 0.1 s); the rank-3 case has
    # unknowns from the small cap
    ("random-2-7021", 2, 5, 4, 20, False),
    ("random-3-7034", 2, 2, 4, 20, False),
    ("random-4-7046", 3, 1, 3, 20, False),
    # large facet values: ceil(u_i(gamma) / 2^e) differs at ten levels
    ("W_9", 2, 4, 11, 20, False),
    ("W_9", 2, 5, 3, 40, False),  # e_max below the constructive level: unknowns
    # window 0: the origin alone
    ("d3", 5, 0, 3, 20, False),
    ("ns35", 2, 0, 5, 80, False),
    ("W_9", 2, 0, 3, 40, False),
    ("d3", 5, 4, 3, 20, True),
    ("D4", 5, 2, 3, 40, True),
    ("W_9", 2, 6, 11, 20, True),  # small cap: orders up to 9
    ("random-3-7034", 3, 2, 6, 320, True),
)


@pytest.mark.parametrize(
    "name, p, window, e_max, cap, forced",
    ORBIT_TALLY_CASES,
    ids=["-".join(map(str, case[:5])) + "-forced" * case[5] for case in ORBIT_TALLY_CASES],
)
def test_empirical_hsl_matches_orbit_tally(request, monkeypatch, name, p, window, e_max, cap, forced):
    S = sweep_input(request, name)
    cert, facets = pipeline(S)
    if forced:
        assert p > n_q(S, facets)
        monkeypatch.setattr(cohomology, "theoretical_bound", lambda cert, nq, p: None if p <= nq else 0)
    fast, _ = sweep_against_orbit_tally(monkeypatch, S, cert, facets, p, window, e_max, cap)
    if forced:
        assert fast.theoretical_bound == 0 and fast.violations


@pytest.mark.parametrize(
    "name, p, window, e_max, cap",
    [
        ("d3", 5, 4, 3, 20),
        ("d3", 2, 3, 5, 20),
        ("W_7", 2, 10, 10, 1750),
        ("W_7", 3, 8, 2, 30),
        ("D4", 5, 2, 3, 40),
        ("index2", 2, 6, 10, 20),  # u_2(gamma) = 0 and p <= N_Q: flags
        ("ns35", 2, 20, 5, 80),  # rank 1: a single row
        ("O_2", 3, 5, 4, 10),  # form 0 is constant along a row: long boundary runs
        ("d3", 5, 0, 3, 20),
        ("W_7", 2, 0, 10, 1750),
        ("D4", 2, 1, 3, 40),
        ("index2", 3, 1, 3, 20),
    ],
)
def test_sweep_work_matches_reference_chain(request, monkeypatch, name, p, window, e_max, cap):
    # the sweep walks the boundary degrees in the same order, with the same
    # zero_class calls, as frobenius_orbit at e_max 0 degree by degree,
    # and gets the orders an orbit at the full e_max gives; the outside
    # degrees it walks come in reference order (it skips those whose order
    # cannot change the report), each one hands zero_class exactly its
    # reference chain and gets the reference order, and no degree is
    # walked whose constructive level is at most lim, the least of the
    # running maximum as its row starts, the bound and e_max
    S = sweep_input(request, name)
    cert, facets = pipeline(S)
    orders, chains = reference_outside_orders(S, cert, facets, p, window, e_max, cap)
    # the chains are empty only in tiny windows or when Q is saturated (m_q = 0)
    assert any(chains.values()) or window <= 1 or cert.m_q == 0
    for v, order in orders.items():
        assert frobenius_orbit(S, cert, facets, v, p, e_max, cap).order == order, v
    boundary = boundary_degrees(S, window)
    # the boundary orders at the full e_max, which the sweep's must equal
    full_orders = {v: frobenius_orbit(S, cert, facets, v, p, e_max, cap).order for v in boundary}
    walks = log_walks(monkeypatch)
    cohomology.empirical_hsl(S, cert, facets, p, window, e_max, cap)
    sweep = walks.copy()
    walks.clear()
    for v in boundary:
        cohomology.frobenius_orbit(S, cert, facets, v, p, 0, cap)
    assert ("boundary", S.zero) in [w[:2] for w in walks]
    assert [w for w in sweep if w[0] == "boundary"] == walks
    # a walk's order: its first zero level, else an outside walk's top
    # (level e_c is zero) up to e_max; None if not nilpotent
    sweep_orders = {
        v: len(calls) - 1 if calls and calls[-1][1] == "zero" else
        top if region == "outside" and top <= e_max else None
        for region, v, top, calls in sweep
    }
    assert all(sweep_orders[v] == order for v, order in full_orders.items())
    outside = [(v, calls) for region, v, _, calls in sweep if region == "outside"]
    reference = iter(v for v, chain in chains.items() if chain)
    assert all(v in reference for v, _ in outside)  # a subsequence, in order
    for v, calls in outside:
        assert [d for d, _ in calls] == chains[v], v
        assert sweep_orders[v] == orders[v], v
    bound = theoretical_bound(cert, n_q(S, facets), p)
    running_max, row = 0, None
    for region, v, *_ in sweep:
        if v[:-1] != row:  # the row split reads lim as the row starts
            row, lim = v[:-1], min(running_max, e_max, e_max if bound is None else bound)
        if region == "outside":
            # the constructive level by brute force: no level up to lim passes
            signs = sign_vector(S.cone, v)
            assert not any(
                p**e * s >= f for e in range(lim + 1) for s, f in zip(signs, cert.facet_values)
            ), (v, lim)
        running_max = max(running_max, sweep_orders[v] or 0)


@pytest.mark.parametrize(
    "name, window",
    [("d3", 2), ("D4", 1), ("W_7", 4), ("index2", 4), ("wedge", 4)]
    + [(f"signed-{seed}", (4, 2, 1)[seed % 3]) for seed in range(10)],
)
def test_outside_levels_monotone_along_generators(request, name, window):
    # the lemma behind the sweep's order table: for v and v - g outside
    # -sigma, g a generator, a level of v - g that is zero at a cap is
    # zero for v at that cap, whichever route zero_class took (membership,
    # the constructive witness or the capped search)
    if name.startswith("signed-"):
        seed = int(name.split("-")[1])
        rank = 2 + seed % 3
        S = build(random_signed_generators(random.Random(seed), rank, 1 if rank == 4 else 2))
    else:
        S = sweep_input(request, name)
    cert, facets = pipeline(S)
    searched = 0
    for cap in (2, 10 * cert.m_q):
        verdicts = {}

        def level(d):
            if d not in verdicts:
                verdicts[d] = zero_class(S, cert, facets, d, cap)
            return verdicts[d]

        for v in product(range(-window, window + 1), repeat=S.dim):
            if max(sign_vector(S.cone, v)) <= 0:
                continue
            for g in S.generators:
                u = vec_sub(v, g)
                if max(sign_vector(S.cone, u)) <= 0:
                    continue
                for e in range(4):
                    below = level(vec_scale(u, 2**e))
                    if below.is_zero:
                        assert level(vec_scale(v, 2**e)).is_zero, (v, g, e, cap)
                        signs = sign_vector(S.cone, vec_scale(u, 2**e))
                        searched += any(below.witness) and not any(
                            map(ge, signs, cert.facet_values)
                        )
    # the capped search's witnesses are among those carried along g
    assert searched or cert.m_q == 0


def test_boundary_orders_are_not_monotone():
    # a boundary degree's order is exact and uncapped, and the capped
    # outside order one generator further can exceed it: these pairs are
    # why the sweep's order table holds outside orders only
    def rising_pairs(S, p, window):
        cert, facets = pipeline(S)
        bound = theoretical_bound(cert, n_q(S, facets), p)
        e_max, cap = (10 if bound is None else bound + 2), 10 * cert.m_q
        orders, _ = reference_outside_orders(S, cert, facets, p, window, e_max, cap)
        pairs = []
        for u in product(range(-window, window + 1), repeat=S.dim):
            if neg_region(sign_vector(S.cone, u)).kind != "neg_boundary":
                continue
            orbit = frobenius_orbit(S, cert, facets, u, p, e_max, cap)
            for g in S.generators:
                v = vec_add(u, g)
                if orbit.kind != "nilpotent" or v not in orders:
                    continue
                if orders[v] is None or orders[v] > orbit.order:
                    pairs.append((u, v, orbit.order, orders[v]))
        return pairs

    d3 = build(D3_GENS)
    pairs = rising_pairs(d3, 5, 6)
    assert len(pairs) == 26
    assert {(b, o) for _, _, b, o in pairs} == {(0, 1)}
    assert ((-6, 2, -6), (-2, 1, -5), 0, 1) in pairs
    index2 = build(INDEX2_GENS)
    assert rising_pairs(index2, 2, 12) == [((-12, 0), (-11, 1), 0, 1)]


# degrees whose level 0 the capped search leaves unknown although a facet
# element w above the cap kills them: (input, p, v, facet, w)
CAPPED_UNKNOWNS = (
    ("d3", 5, (-8, 3, -8), 4, (12, -4, 9)),
    ("index2", 2, (-11, 1), 0, (12, 0)),
)


def test_witnesses_past_the_cap(request):
    # w lies in the facet semigroup, its grading is above the cap 20, and
    # v + w lies in Q, so [x^v] is zero at level 0
    for name, p, v, i, w in CAPPED_UNKNOWNS:
        S = request.getfixturevalue(name)
        fd = all_facet_data(S)[i]
        level = dot(S.grading, w)
        assert level > 20 and dot(fd.support_form, w) == 0, name
        assert w in semigroup_elements_upto(fd.facet_gens, S.grading, level), name
        assert member(S, vec_add(v, w)), name


@pytest.mark.xfail(
    strict=True,
    reason="frobenius_orbit counts an unknown level as nonzero, so a witness "
    "past the cap leaves the order one too high",
)
def test_orders_past_the_cap_are_exact(request):
    for name, p, v, _, _ in CAPPED_UNKNOWNS:
        S = request.getfixturevalue(name)
        cert, facets = pipeline(S)
        assert frobenius_orbit(S, cert, facets, v, p, 3, 20).order == 0, name


def test_facet_search_stops_at_the_element_limit(monkeypatch):
    # a search that reaches FACET_ELEMENT_LIMIT is truncated, as one the
    # cap cuts is.  index2's (0, 1) has no witness, so at a huge cap its
    # scan reads the limit on its one eligible facet, behind the zero
    # element.  A huge cap finds the CAPPED_UNKNOWNS witnesses; under a
    # limit no larger than the cap-20 lists, a fresh semigroup lists a
    # prefix of each at a huge cap and leaves the level unknown
    huge = 10**9
    S = build(INDEX2_GENS)
    cert, facets = pipeline(S)
    assert zero_class(S, cert, facets, (0, 1), huge).verdict == "unknown"
    assert [len(listed) for listed, *_ in S._facet_walks.values()] == [
        cohomology.FACET_ELEMENT_LIMIT + 1
    ]
    gens = {"d3": D3_GENS, "index2": INDEX2_GENS}
    for name, _, v, _, _ in CAPPED_UNKNOWNS:
        S = build(gens[name])
        cert, facets = pipeline(S)
        assert zero_class(S, cert, facets, v, huge).is_zero, name
        capped = [list(cohomology._facet_elements(S, fd, 20)) for fd in facets]
        limit = min(map(len, capped))
        monkeypatch.setattr(cohomology, "FACET_ELEMENT_LIMIT", limit)
        S = build(gens[name])
        for fd, full in zip(facets, capped):
            assert list(cohomology._facet_elements(S, fd, huge)) == full[:limit], name
        assert zero_class(S, cert, facets, v, huge).verdict == "unknown", name
        monkeypatch.undo()


def test_facet_lists_grow_only_as_far_as_read(monkeypatch):
    # D3 at p = 5, window 8 and cap 10^6: every scan stops at its first
    # witness, a few dozen elements in, and each facet's list holds just
    # the elements its scans read, not the FACET_ELEMENT_LIMIT the cap
    # would allow
    read = {}
    real = cohomology._facet_elements

    def counting(S, fd, cap):
        for k, element in enumerate(real(S, fd, cap), 1):
            read[fd.index] = max(read.get(fd.index, 0), k)
            yield element

    monkeypatch.setattr(cohomology, "_facet_elements", counting)
    S = build(D3_GENS)
    cert, facets = pipeline(S)
    empirical_hsl(S, cert, facets, 5, 8, cap=10**6)
    listed = {i: len(walk[0]) - 1 for i, walk in S._facet_walks.items()}
    assert read and listed == read
    assert max(listed.values()) < cohomology.FACET_ELEMENT_LIMIT


@pytest.mark.parametrize(
    "name, p, window",
    [("wedge", 2, 6), ("index2", 2, 12), ("d3", 5, 6), ("d3", 2, 2), ("D4", 5, 1), ("W_7", 2, 6)],
)
def test_frobenius_orbit_scaling_relation(request, name, p, window):
    # relation (S): [x^{p v}] is the Frobenius image of [x^v], so
    # order(p v) = max(order(v) - 1, 0), and a degree that is not
    # nilpotent, or unknown, scales to one of the same kind.  Limits as
    # in the window sweep
    S = sweep_input(request, name)
    cert, facets = pipeline(S)
    bound = theoretical_bound(cert, n_q(S, facets), p)
    args = (p, 10 if bound is None else bound + 2, 10 * cert.m_q)
    kinds = Counter()
    for v in product(range(-window, window + 1), repeat=S.dim):
        orbit = frobenius_orbit(S, cert, facets, v, *args)
        scaled = frobenius_orbit(S, cert, facets, vec_scale(v, p), *args)
        assert scaled.kind == orbit.kind, v
        if orbit.kind == "nilpotent":
            assert scaled.order == max(orbit.order - 1, 0), v
        kinds[orbit.kind] += 1
    assert kinds["nilpotent"] and kinds["not_nilpotent"], kinds


def test_random_sweeps_match_orbit_tally(monkeypatch):
    # seeded rank-2/3 semigroups, some with generators that are not
    # lexicographically positive (their v - g is visited after v, so the
    # order table has no entry for it); p is the next prime above N_Q
    exhausted, skipped = Counter(), 0
    for seed in range(12):
        rank = 2 + seed % 2
        S = build(random_signed_generators(random.Random(seed), rank, 2))
        try:
            cert = find_gamma(S, budget=1000)
        except BudgetExhaustedError:
            exhausted[rank] += 1
            continue
        facets = all_facet_data(S)
        nq = n_q(S, facets)
        p = next(q for q in range(nq + 1, 2 * nq + 3) if intlinalg.is_prime(q))
        bound = theoretical_bound(cert, nq, p)
        args = (S, cert, facets, p, (6, 3)[rank - 2], bound + 2, 10 * cert.m_q)
        fast, n = sweep_against_orbit_tally(monkeypatch, *args)
        assert fast.violations == () and fast.class_counts["unknown"] == 0, seed
        skipped += n
    assert exhausted == SEEDED_COVERAGE["random_sweeps_exhausted"]
    assert skipped  # some skipped outside degree has a positive order


# the window-sweep benchmark's sweeps: (input, p, window), verify defaults
SWEEP_WORK_INPUTS = (("wedge", 2, 40), ("index2", 2, 30), ("d3", 5, 8), ("D4", 5, 4), ("W_7", 2, 80))


def test_sweep_work_pinned(request, monkeypatch):
    # the work of the five benchmark sweeps, counted: a fallback to a
    # degree-by-degree walk, an outside walk past its constructive level,
    # a sweep that stops skipping the outside degrees whose order cannot
    # change the report or a facet Hermite form recomputed per solve
    # moves these counts.  A pin changes only on purpose, stated
    # with the change.
    cases = []
    for name, p, window in SWEEP_WORK_INPUTS:
        S = sweep_input(request, name)
        cert, facets = pipeline(S)
        cases.append((S, cert, facets, p, window))
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        return wrapper

    walks = log_walks(monkeypatch)
    monkeypatch.setattr(cohomology, "frobenius_orbit", counting("frobenius_orbit", cohomology.frobenius_orbit))
    real_hnf = intlinalg.hermite_normal_form
    hnf = counting("hermite_normal_form", real_hnf)
    for module in (intlinalg, cones, semigroups, cohomology):
        if getattr(module, "hermite_normal_form", None) is real_hnf:
            monkeypatch.setattr(module, "hermite_normal_form", hnf)
    for case in cases:
        empirical_hsl(*case)
    # at most one Hermite form per facet lattice, kept on its FacetData
    facet_count = sum(len(facets) for _, _, facets, *_ in cases)
    assert facet_count == 19 and calls.pop("hermite_normal_form", 0) <= facet_count
    # every level goes through the one walk; frobenius_orbit is not called
    assert not calls
    assert Counter(region for region, *_ in walks) == {"boundary": 340, "outside": 141}
    # the 562 zero_class calls, by verdict
    verdicts = Counter(verdict for *_, levels in walks for _, verdict in levels)
    assert verdicts == {"zero": 412, "nonzero": 147, "unknown": 3}


def boundary_degrees(S, window):
    """The degrees of [-window, window]^rank on the boundary of -sigma."""
    return [
        v
        for v in product(range(-window, window + 1), repeat=S.dim)
        if neg_region(sign_vector(S.cone, v)).kind == "neg_boundary"
    ]


def smith_reference(facets, v, p, smith):
    """(kind, order) of the boundary degree v, by the p-adic formula read
    off a Smith decomposition (oracles.smith_boundary_order)."""
    order = smith_boundary_order(facets, v, p, smith)
    return ("not_nilpotent", None) if order is None else ("nilpotent", order)


def test_boundary_orders_match_smith_formula_on_benchmark_windows(request):
    # every boundary degree of the five benchmark sweeps, at their limits:
    # frobenius_orbit's levels against the independent p-adic route
    pytest.importorskip("sympy")
    count = 0
    for name, p, window in SWEEP_WORK_INPUTS:
        S = sweep_input(request, name)
        cert, facets = pipeline(S)
        bound = theoretical_bound(cert, n_q(S, facets), p)
        e_max = 10 if bound is None else bound + 2
        smith = {}
        for v in boundary_degrees(S, window):
            orbit = frobenius_orbit(S, cert, facets, v, p, e_max, 10 * cert.m_q)
            assert (orbit.kind, orbit.order) == smith_reference(facets, v, p, smith), (name, v)
            count += 1
    assert count == 340


def test_boundary_orders_match_smith_formula_on_random_semigroups():
    # seeded rank 2-4 semigroups at small primes and small e_max, so that
    # some orders lie past e_max, where frobenius_orbit tests on up to the
    # level the invariant factors bound; inputs whose gamma search runs
    # out of budget are counted.  Each rank has orders past e_max and
    # degrees that are not nilpotent
    pytest.importorskip("sympy")
    windows = {2: 6, 3: 3, 4: 2}
    spreads = {2: 2, 3: 2, 4: 1}  # at rank 4 most spread-2 searches run out
    exhausted, kinds = Counter(), Counter()
    for seed, rank in product(range(6), (2, 3, 4)):
        inputs = (
            random_raw_generators(random.Random(seed), rank),
            random_signed_generators(random.Random(seed), rank, spreads[rank]),
        )
        for gens in inputs:
            S = build(gens)
            try:
                cert = find_gamma(S, budget=1000)
            except BudgetExhaustedError:
                exhausted[rank] += 1
                continue
            facets = all_facet_data(S)
            smith = {}
            for v, p in product(boundary_degrees(S, windows[rank]), (2, 3, 5)):
                kind, order = smith_reference(facets, v, p, smith)
                for e_max in (0, 1, 3):
                    orbit = frobenius_orbit(S, cert, facets, v, p, e_max, 10 * cert.m_q)
                    assert (orbit.kind, orbit.order) == (kind, order), (gens, v, p, e_max)
                    assert len(orbit.statuses) == e_max + 1
                    past = order is not None and order > e_max
                    kinds[rank, "past e_max" if past else kind] += 1
    assert exhausted == SEEDED_COVERAGE["smith_formula_exhausted"]
    assert all(kinds[rank, k] for rank in windows for k in ("past e_max", "not_nilpotent")), kinds


def test_row_runs_against_brute_force():
    # one row of signs base + x * column, |x| <= window: the interior count,
    # the boundary positions and the visited outside positions (outside
    # -sigma, not constructive at level 0: no s_i >= u_i(gamma)), against
    # neg_region degree by degree
    rng = random.Random(23)
    for _ in range(3000):
        m = rng.randint(1, 4)
        window = rng.randint(0, 5)
        base = tuple(rng.randint(-12, 12) for _ in range(m))
        column = tuple(rng.choice((0, rng.randint(-4, 4))) for _ in range(m))
        values = tuple(rng.choice((0, 1, rng.randint(0, 20))) for _ in range(m))
        interior, nonpositive, runs = cohomology._row_runs(base, column, window, values)
        kinds = {}
        for x in range(-window, window + 1):
            signs = tuple(b + x * c for b, c in zip(base, column))
            kinds[x] = neg_region(signs).kind
            if kinds[x] == "outside_neg" and any(map(ge, signs, values)):
                kinds[x] = "order_0"
        case = (base, column, window, values)
        visited = [(boundary, x) for boundary, run in runs for x in run]
        expected = [x for x, kind in kinds.items() if kind in ("neg_boundary", "outside_neg")]
        assert [x for _, x in visited] == expected, case
        assert all(boundary == (kinds[x] == "neg_boundary") for boundary, x in visited), case
        counts = Counter(kinds.values())
        assert interior == counts["neg_interior"], case
        assert nonpositive == counts["neg_interior"] + counts["neg_boundary"], case


def test_constructive_level_against_brute_force():
    # the least e <= e_max with p^e * s_i >= f_i for some i, or e_max + 1,
    # on signs with some s_i > 0 (an outside degree's); it is at most
    # ceil(log_p max f_i), the paper's bound, since some s_i >= 1
    rng = random.Random(17)
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        e_max = rng.randint(0, 9)
        m = rng.randint(1, 4)
        values = tuple(rng.choice((0, 1, rng.randint(0, 600))) for _ in range(m))
        signs = tuple(rng.randint(-4, 40) for _ in range(m))
        if max(signs) <= 0:
            continue
        brute = next(
            (
                e
                for e in range(e_max + 1)
                if any(p**e * s >= f for s, f in zip(signs, values))
            ),
            e_max + 1,
        )
        level = cohomology._constructive_level(signs, values, p, e_max)
        assert level == brute, (p, e_max, values, signs)
        assert level <= cohomology._least_exponent(max(values), p), (p, e_max, values, signs)
