"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
expected value is either pinned from an independent derivation or
recomputed here by a brute-force oracle; tolerances are exact integer
comparisons throughout, plus the stated wall-clock limits.
"""

import random
import time
from itertools import product

from hslbound.cohomology import empirical_hsl, frobenius_orbit, hsl_exact_dim1, theoretical_bound, zero_class
from hslbound.cones import Cone, is_pointed, parallelepiped_points, support_forms, triangulate
from hslbound.intlinalg import dot, hermite_normal_form, smith_normal_form, vec_add, vec_scale
from hslbound.semigroups import all_facet_data, build, find_gamma, member, n_q, verify_gamma
from conftest import WEDGE_GENS
from oracles import (
    brute_min_power_in_numerical,
    brute_zero_class,
    decompose,
    det,
    mat_mul,
    random_int_matrix,
    sat_member,
    smith_factors_hold,
)

DIM1_FIXTURES = (((3,), (5,)), ((2,), (3,)), ((4,), (7,), (9,)))


def report(num, elapsed, limit, text):
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"PASS criterion {num} ({elapsed:.2f}s): {text}")


def wedge_pipeline():
    S = build(WEDGE_GENS)
    cert = find_gamma(S)
    facets = all_facet_data(S)
    return S, cert, facets


def test_criterion_1_geometry():
    t0 = time.perf_counter()
    forms = support_forms(WEDGE_GENS, 2)
    assert set(forms) == {(-1, 5), (4, -1)}
    assert is_pointed(Cone.from_generators(WEDGE_GENS, 2))
    report(1, time.perf_counter() - t0, 1.0, "support forms {(-1,5),(4,-1)}, pointed")


def test_criterion_2_gamma_verification():
    t0 = time.perf_counter()
    S = build(WEDGE_GENS)
    cert = verify_gamma(S, (14, 9))
    assert cert is not None
    assert cert.facet_values == (31, 47)
    assert cert.m_q == 47  # certified value is the maximum
    assert cert.min_facet_value == 31  # surfaced, but certifies nothing
    assert cert.recheck(S)
    report(2, time.perf_counter() - t0, 5.0, "gamma (14,9): values (31,47), m_q 47, uncertified min 31")


def test_criterion_3_invariant_factors():
    t0 = time.perf_counter()
    S = build(WEDGE_GENS)
    facets = all_facet_data(S)
    assert [fd.invariant_factors for fd in facets] == [(1,), (1,)]
    assert n_q(S, facets) == 0
    report(3, time.perf_counter() - t0, 1.0, "all invariant factors 1, N_Q = 0")


def test_criterion_4_bound_conformance():
    S, cert, facets = wedge_pipeline()
    for p in (2, 3, 5, 7):
        t0 = time.perf_counter()
        bound = theoretical_bound(cert, 0, p)
        rep = empirical_hsl(S, cert, facets, p, 10)
        assert rep.violations == ()
        assert rep.class_counts["unknown"] == 0
        report(4, time.perf_counter() - t0, 60.0, f"p={p}: no violation of bound {bound} on window 10")


def test_criterion_5_dim1_equivalence():
    t0 = time.perf_counter()
    for gens in DIM1_FIXTURES:
        S = build(gens)
        cert = find_gamma(S)
        facets = all_facet_data(S)
        flat = tuple(g[0] for g in gens)
        for p in (2, 3, 5, 7, 11):
            exact = hsl_exact_dim1(S, p)
            assert exact == brute_min_power_in_numerical(flat, p)
            rep = empirical_hsl(S, cert, facets, p, 30)
            assert rep.empirical_max == exact
    report(5, time.perf_counter() - t0, 5.0, "rank-1 exact = brute force = window maximum, 15 cases")


def test_criterion_6_dim1_bound_sanity():
    t0 = time.perf_counter()
    for gens in DIM1_FIXTURES:
        S = build(gens)
        cert = find_gamma(S)
        assert n_q(S) == 0
        for p in (2, 3, 5, 7, 11):
            assert hsl_exact_dim1(S, p) <= theoretical_bound(cert, 0, p)
    S35 = build(((3,), (5,)))
    cert35 = find_gamma(S35)
    assert cert35.m_q == 8
    assert hsl_exact_dim1(S35, 2) == theoretical_bound(cert35, 0, 2) == 3
    report(6, time.perf_counter() - t0, 5.0, "rank-1 bounds hold, tight at <3,5> with p=2")


def test_criterion_7_zero_class_oracle_equivalence():
    t0 = time.perf_counter()
    S, cert, facets = wedge_pipeline()
    zero_beyond_cap = 0
    for v in product(range(-8, 9), repeat=2):
        res = zero_class(S, cert, facets, v, 60)
        if res.verdict == "unknown":
            continue
        assert res.verdict in ("zero", "nonzero")
        assert res.recheck(S, facets, v), v
        brute = brute_zero_class(S, facets, v, 60)
        if res.verdict == "nonzero":
            assert not brute, v
        elif dot(S.grading, res.witness) <= 60:
            assert brute, v
        else:
            # certified witness above the search cap; the capped
            # enumeration cannot see it and certifies nothing
            zero_beyond_cap += 1
        if brute:
            assert res.is_zero, v
    report(
        7,
        time.perf_counter() - t0,
        120.0,
        f"zero-class verdicts match capped exhaustive search ({zero_beyond_cap} zeros certified past the cap)",
    )


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(80)
    # 500 random matrices: the exact HNF identity, and invariant factors
    # against the determinantal divisors
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -9, 9)
        H, U = hermite_normal_form(A)
        assert mat_mul(U, A) == H and abs(det(U)) == 1
        assert smith_factors_hold(A, smith_normal_form(A)), A
    # 500 decompose round-trips on random cone lattice points
    S = build(WEDGE_GENS)
    cone = S.cone
    residues = set()
    subs = triangulate(cone)
    for sub in subs:
        residues.update(parallelepiped_points(sub))
    pool = [
        v for v in product(range(-2, 40), repeat=2) if sat_member(S, v)
    ]
    for _ in range(500):
        s = rng.choice(pool)
        q, rho = decompose(cone, subs, s)
        assert vec_add(q, rho) == s
        assert rho in residues
        assert member(S, q)
    # 500 witness-scaling checks on random nilpotent classes
    cert = find_gamma(S)
    facets = all_facet_data(S)
    cap = 10 * cert.m_q
    checked = 0
    degrees = list(product(range(-6, 7), repeat=2))
    rng.shuffle(degrees)
    for v in degrees * 8:
        if checked >= 500:
            break
        p = rng.choice((2, 3, 5))
        rep = frobenius_orbit(S, cert, facets, v, p, 6, cap)
        if rep.kind != "nilpotent" or rep.order > 6:
            continue
        st = rep.statuses[rep.order]
        scaled_degree = vec_scale(v, p ** (rep.order + 1))
        scaled_witness = vec_scale(st.witness, p)
        assert member(S, vec_add(scaled_degree, scaled_witness))
        checked += 1
    assert checked == 500
    report(8, time.perf_counter() - t0, 120.0, "500x SNF/HNF, 500x decompose, 500x witness scaling")


def test_criterion_9_large_prime_bound_is_one():
    t0 = time.perf_counter()
    S, cert, facets = wedge_pipeline()
    assert cert.m_q <= 47 and n_q(S, facets) == 0
    bound = theoretical_bound(cert, 0, 53)
    assert bound == 1
    rep = empirical_hsl(S, cert, facets, 53, 10)
    assert rep.violations == ()
    assert rep.empirical_max <= 1
    report(9, time.perf_counter() - t0, 60.0, "p=53: bound 1, empirical max <= 1 on window 10")
