import functools
import math
import random
from collections import Counter
from dataclasses import replace
from itertools import product
from operator import add

import pytest

from hslbound import cones
from hslbound.cones import sign_vector
from hslbound.errors import BudgetExhaustedError, EmptyInputError, NotPointedError
from hslbound import semigroups
from hslbound.intlinalg import (
    dot,
    hermite_normal_form,
    hyperplane_basis,
    smith_normal_form,
    solve_in_hermite_basis,
    vec_add,
    vec_mat,
    vec_scale,
)
from hslbound.cohomology import empirical_hsl
from hslbound.semigroups import (
    all_facet_data,
    build,
    express,
    facet_data,
    facet_witness_combo,
    find_gamma,
    member,
    n_q,
    saturation_residues,
    verify_gamma,
)
from conftest import D3_GENS, D4_GENS, INDEX2_GENS, wedge_gens
from oracles import (
    generator_sum_gamma,
    greedy_express,
    random_raw_generators,
    random_signed_generators,
    sat_member,
    semigroup_elements_upto,
)


def test_build_wedge(wedge):
    assert wedge.dim == 2
    assert wedge.generators == ((5, 1), (4, 1), (1, 3), (1, 4))
    assert wedge.grading == (3, 4)


def test_build_numerical(ns35):
    assert ns35.dim == 1
    assert ns35.lattice_basis == ((1,),)
    assert ns35.generators == ((3,), (5,))


def test_build_reduces_rank():
    S = build(((2, 4),))
    assert S.dim == 1
    assert S.generators == ((1,),)
    assert S.lattice_basis == ((2, 4),)


def test_build_reduces_index8_lattice():
    # Z(3,1) + Z(1,3) has index 8 in Z^2; in its own coordinates the
    # semigroup is free on two generators, hence saturated
    S = build(((3, 1), (1, 3)))
    assert S.dim == 2
    assert S.lattice_basis == ((1, 3), (0, 8))
    cert = find_gamma(S)
    assert cert.gamma == S.zero and cert.m_q == 0


def test_build_rejects_bad_input():
    with pytest.raises(NotPointedError):
        build(((1,), (-1,)))
    with pytest.raises(EmptyInputError):
        build(((0, 0),))


def test_member_examples(wedge, ns35):
    assert member(wedge, (6, 4))  # (5,1) + (1,3)
    assert not member(wedge, (1, 1))
    assert not member(ns35, (7,))
    assert member(ns35, (8,))


def test_member_against_enumeration(wedge):
    table = semigroup_elements_upto(wedge.generators, wedge.grading, 40)
    for v in product(range(-14, 15), repeat=2):
        if dot(wedge.grading, v) <= 40:
            assert member(wedge, v) == (v in table), v


def test_member_and_express_against_generator_sums():
    # seeded semigroups of rank 2-4, compared in ambient coordinates with
    # the plain enumeration of generator sums up to level cap of the last
    # coordinate; a degree on a level <= CAP is a member iff it is listed
    cap = 12
    kinds = {"member": 0, "hole": 0, "outside": 0, "negative": 0}
    for seed in range(12):
        rng = random.Random(4000 + seed)
        raws = random_raw_generators(rng, 2 + seed % 3)
        S = build(raws)
        n = len(raws[0])
        level = (0,) * (n - 1) + (1,)
        table = semigroup_elements_upto(raws, level, cap)

        def ambient(x):
            return tuple(sum(c * b[j] for c, b in zip(x, S.lattice_basis)) for j in range(n))

        for g, raw in zip(S.generators, raws):
            assert ambient(g) == raw
        degrees = []
        for _ in range(60):
            coeffs = [rng.randint(0, 2) for _ in S.generators]
            x = tuple(sum(c * g[k] for c, g in zip(coeffs, S.generators)) for k in range(S.dim))
            unit = [0] * S.dim
            unit[rng.randrange(S.dim)] = rng.choice((-1, 1))
            degrees += [x, vec_add(x, unit), tuple(-e for e in x)]
            degrees.append(tuple(rng.randint(-5, 5) for _ in range(S.dim)))
        for x in degrees:
            a = ambient(x)
            if a[-1] > cap:
                continue
            expected = a in table
            assert member(S, x) == expected, (raws, x)
            coeffs = express(S, x)
            if not expected:
                assert coeffs is None, (raws, x)
                kind = "hole" if sat_member(S, x) else "negative" if a[-1] < 0 else "outside"
                kinds[kind] += 1
                continue
            kinds["member"] += 1
            assert len(coeffs) == len(raws) and min(coeffs) >= 0
            total = tuple(sum(c * r[j] for c, r in zip(coeffs, raws)) for j in range(n))
            assert total == a, (raws, x)
    assert all(kinds.values()), kinds


def test_member_answers_do_not_depend_on_query_order(index2, ns35):
    # the Apéry table grows lazily, up to the largest grading asked so far;
    # fresh semigroups asked the same degrees in increasing, decreasing and
    # shuffled grading order must each agree with the enumeration.  index2
    # has a non-normal facet and <3,5> a finite set of lines, so its search
    # runs dry
    rng = random.Random(4100)
    inputs = [random_raw_generators(rng, rank) for rank in (1, 2, 3, 4)]
    inputs += [index2.raw_generators, ns35.raw_generators]
    kinds = Counter()
    for raws in inputs:
        S = build(raws)
        top = 4 * max(dot(S.grading, g) for g in S.generators)
        table = semigroup_elements_upto(S.generators, S.grading, top)
        members = sorted(table)
        high = [x for x in members if 2 * dot(S.grading, x) > top]
        degrees = set(rng.sample(high, min(10, len(high))))
        for x in rng.sample(members, min(30, len(members))):
            degrees.add(tuple(-e for e in x))
            for k in range(S.dim):
                for step in (-1, 1):
                    degrees.add(x[:k] + (x[k] + step,) + x[k + 1 :])
        degrees.update(tuple(rng.randint(-6, 6) for _ in range(S.dim)) for _ in range(30))
        degrees = sorted(x for x in degrees if dot(S.grading, x) <= top)
        expected = {x: x in table for x in degrees}
        for x, inside in expected.items():
            kinds["member" if inside else "hole" if sat_member(S, x) else "outside"] += 1
        rising = sorted(degrees, key=lambda x: dot(S.grading, x))
        shuffled = list(degrees)
        rng.shuffle(shuffled)
        for order in (rising, rising[::-1], shuffled):
            fresh = build(raws)
            assert {x: member(fresh, x) for x in order} == expected, (raws, order[0])
    assert all(kinds[k] for k in ("member", "hole", "outside")), kinds


def test_member_implies_sat_member(wedge):
    rng = random.Random(20)
    for _ in range(300):
        v = (rng.randint(-12, 12), rng.randint(-12, 12))
        if member(wedge, v):
            assert sat_member(wedge, v)


def test_member_additivity(wedge):
    rng = random.Random(21)
    pts = sorted(semigroup_elements_upto(wedge.generators, wedge.grading, 60))
    for _ in range(200):
        a = rng.choice(pts)
        b = rng.choice(pts)
        assert member(wedge, vec_add(a, b))


def test_express_reconstructs(wedge):
    rng = random.Random(22)
    pts = sorted(semigroup_elements_upto(wedge.generators, wedge.grading, 60))
    for _ in range(100):
        v = rng.choice(pts)
        coeffs = express(wedge, v)
        total = (0, 0)
        for c, g in zip(coeffs, wedge.generators):
            assert c >= 0
            total = vec_add(total, tuple(c * e for e in g))
        assert total == v
    assert express(wedge, (1, 1)) is None


def test_sat_member_examples(wedge):
    assert sat_member(wedge, (1, 1))
    assert not sat_member(wedge, (-1, 0))
    assert sat_member(wedge, (0, 0))


def test_saturation_residues(wedge, ns35):
    B = saturation_residues(wedge).residues
    assert len(B) == 19
    assert (0, 0) in B
    assert all(sat_member(wedge, rho) for rho in B)
    assert saturation_residues(ns35).residues == ((0,), (1,), (2,))
    orthant = build(((1, 0), (0, 1)))
    assert saturation_residues(orthant).residues == ((0, 0),)


def test_saturation_residues_take_one_adjugate_per_simplex(monkeypatch, wedge, d3):
    # each simplex keeps the ridge normals triangulate reads off its one
    # dual_basis pass, and its parallelepiped walk reuses them
    calls = []
    real = cones.dual_basis

    def counting(A):
        calls.append(A)
        return real(A)

    rng = random.Random(5)
    inputs = [wedge, d3] + [build(random_raw_generators(rng, rank)) for rank in (3, 3, 4, 4)]
    simplices = [len(cones.triangulate(S.cone)) for S in inputs]
    monkeypatch.setattr(cones, "dual_basis", counting)
    made = []
    for S in inputs:
        calls.clear()
        saturation_residues(S)
        made.append(len(calls))
    assert made == simplices and max(simplices) > 1


def test_verify_gamma_wedge(wedge):
    cert = verify_gamma(wedge, (14, 9))
    assert cert is not None
    assert cert.facet_values == (31, 47)
    assert cert.m_q == 47
    assert cert.min_facet_value == 31
    assert cert.recheck(wedge)
    assert verify_gamma(wedge, (0, 0)) is None  # (1,1) is saturated but missing


def test_verify_gamma_numerical(ns35):
    cert = verify_gamma(ns35, (8,))
    assert cert is not None and cert.m_q == 8
    assert verify_gamma(ns35, (6,)) is None


def test_verify_gamma_rejects_points_outside_the_cone(monkeypatch, wedge, ns35):
    # the Apéry table assumes every form value is >= 0, so a gamma with a
    # negative one must fail on its own membership, before any table lookup
    def refuse(table, c):
        raise AssertionError(f"table asked {c}")

    monkeypatch.setattr(semigroups._AperyTable, "contains", refuse)
    assert min(sign_vector(wedge.cone, (-1, 0))) < 0
    assert verify_gamma(wedge, (-1, 0)) is None
    assert verify_gamma(ns35, (-3,)) is None


def test_gamma_random_saturation_samples(wedge):
    # 200 random saturation points: gamma + s must land in the semigroup
    cert = verify_gamma(wedge, (14, 9))
    rng = random.Random(23)
    box = [
        v
        for v in product(range(0, 26), repeat=2)
        if sat_member(wedge, v)
    ]
    for _ in range(200):
        s = rng.choice(box)
        assert member(wedge, vec_add(cert.gamma, s))


def test_find_gamma(wedge, ns35, ns23, ns479):
    cert = find_gamma(wedge)
    assert cert.m_q <= 47
    assert cert.recheck(wedge)
    assert find_gamma(ns35).gamma == (8,)
    assert find_gamma(ns35).m_q == 8
    assert find_gamma(ns23).m_q == 2
    assert find_gamma(ns479).m_q == 11
    orthant = build(((1, 0), (0, 1)))
    sat = find_gamma(orthant)
    assert sat.gamma == (0, 0) and sat.m_q == 0


def test_find_gamma_budget():
    gens = ((3,), (5,))
    with pytest.raises(BudgetExhaustedError):
        find_gamma(build(gens), budget=0)
    check_budget_boundary(gens)


def gamma_key(S, cert):
    return (cert.m_q, dot(S.grading, cert.gamma), cert.gamma)


@pytest.mark.parametrize("name", ["wedge", "ns35", "ns23", "ns479", "W_7"])
def test_find_gamma_is_optimal_against_enumeration(name, request):
    S = build(wedge_gens(7)) if name == "W_7" else request.getfixturevalue(name)
    cert = find_gamma(S)
    # the grading is the sum of the support forms, so every gamma with
    # max_i u_i(gamma) <= m_Q has grading at most r * m_Q
    r = len(S.support_forms)
    assert S.grading == tuple(map(sum, zip(*S.support_forms)))
    candidates = semigroup_elements_upto(S.generators, S.grading, r * cert.m_q)
    valid = [c for c in (verify_gamma(S, g) for g in candidates) if c is not None]
    best = min(valid, key=lambda c: gamma_key(S, c))
    assert gamma_key(S, cert) == gamma_key(S, best)
    assert cert == best


R3_GENS = ((1, 0, 3), (5, 3, 3), (3, 5, 3), (2, 4, 2))
# the benchmark's analyze ladder; wedge2d is W_5
LADDER = {f"W_{k}": wedge_gens(k) for k in (5, 7, 9, 11)}
LADDER.update(index2_facet=INDEX2_GENS, numerical_3_5=((3,), (5,)), D3=D3_GENS, D4=D4_GENS)


@functools.cache
def search_work(gens):
    """find_gamma(build(gens)) at the default budget, counted.

    Returns the certificate, the grading level of each probe (a
    first_failure call) and the row (probes, Apéry table lines, residue
    lookups, _contains calls, memo entries) when the search returns.  Only
    the winner's certificate walk asks _contains and fills the memo.
    """
    levels, calls = [], Counter()
    first_failure, contains = semigroups._AperyTable.first_failure, semigroups._contains

    def probe(table, level, key, reduced):
        tried = list(reduced)
        below = first_failure(table, level, key, reduced)
        levels.append(level)
        calls["lookups"] += len(tried) if below is None else tried.index(reduced[0]) + 1
        return below

    def counting(S, c):
        calls["_contains"] += 1
        return contains(S, c)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(semigroups._AperyTable, "first_failure", probe)
        m.setattr(semigroups, "_contains", counting)
        S = build(gens)
        cert = find_gamma(S)
    row = (len(levels), len(S._apery._least), calls["lookups"], calls["_contains"], len(S._memo))
    return cert, tuple(levels), row


def check_budget_boundary(gens):
    """At a budget of the counted probes a fresh search returns the counted
    certificate; one probe short it runs out, reporting the probes it
    popped and the largest level among them.  Returns both semigroups."""
    cert, levels, _ = search_work(gens)
    S, short = build(gens), build(gens)
    assert find_gamma(S, budget=len(levels)) == cert
    with pytest.raises(BudgetExhaustedError) as info:
        find_gamma(short, budget=len(levels) - 1)
    assert (info.value.examined, info.value.max_level) == (len(levels) - 1, max(levels[:-1], default=0))
    return S, short


@pytest.mark.parametrize(
    "name, m_q", [("W_9", 441), ("W_11", 891), ("D3", 2), ("D4", 4), ("R3", 114)]
)
def test_ladder_certificates(name, m_q):
    # the search tests the residue that failed last first; the certificate
    # must be the one verify_gamma builds in canonical order on a fresh
    # semigroup.  R3's optimum lies within the default budget
    gens = dict(LADDER, R3=R3_GENS)[name]
    S = build(gens)
    cert = find_gamma(S)
    assert cert.m_q == m_q
    assert cert == verify_gamma(build(gens), cert.gamma)
    assert cert.recheck(S)


def test_find_gamma_w13_optimal_at_default_budget():
    # the default budget reaches W_13's optimum, whose key is pinned here
    # and not compared with the generator-sum walk (that walk needs more
    # candidates than test_find_gamma_matches_the_generator_sum_search allows)
    S, _ = check_budget_boundary(wedge_gens(13))
    cert = search_work(wedge_gens(13))[0]
    assert cert.m_q == 1573 and cert.gamma == (142, 131)
    assert cert.recheck(S)


def test_find_gamma_matches_the_generator_sum_search():
    # the chain search skips only points whose failure is proven, so it
    # returns the certificate of the best-first walk over every generator
    # sum: on the benchmark ladder, W_13 and the seeded rank 1-3 inputs
    # whose walk ends within 2000 candidates
    inputs = list(LADDER.values()) + [wedge_gens(13)]
    for seed, rank in product(range(50), (1, 2, 3)):
        inputs.append(random_raw_generators(random.Random(seed), rank))
        inputs.append(random_signed_generators(random.Random(seed), rank, 2))
    compared = Counter()
    for gens in inputs:
        S = build(gens)
        expected = generator_sum_gamma(S, budget=2000)
        if expected is not None:
            assert repr(find_gamma(build(gens))) == repr(expected), gens
            compared[S.dim] += 1
    assert compared == SEEDED_COVERAGE["generator_sum_search"], compared


def test_find_gamma_caches_no_answers(monkeypatch):
    # the search asks the Apéry table directly: nothing asks _contains or
    # fills the memo before _certify walks the winner's witnesses, in a
    # search that certifies at the counted budget or in one that runs out
    # a probe short.  W_17 has the longest search of the table below
    gens = wedge_gens(17)
    search_work(gens)  # counted before the guards go in
    certifying = []
    contains, certify = semigroups._contains, semigroups._certify

    def guarded(S, c):
        assert certifying, f"_contains{c} asked before _certify"
        return contains(S, c)

    def logged(S, *args):
        assert S._memo == {}
        certifying.append(S)
        return certify(S, *args)

    monkeypatch.setattr(semigroups, "_contains", guarded)
    monkeypatch.setattr(semigroups, "_certify", logged)
    _, short = check_budget_boundary(gens)
    assert len(certifying) == 1 and short._memo == {}


def test_first_failure_bounds_against_a_settled_table(monkeypatch):
    # each failure's bound b (the result plus the failing residue's
    # grading) against the least grading d of its line, read from a second
    # table settled up to b: b = d when the first table holds the line at
    # most its frontier top, and b <= d otherwise, where the top plus the
    # least step grading also bounds d.  On the ladder, <3, 5> (rank 1,
    # where the frontier empties) among it, and the seeded rank 1-3 inputs
    # of seeds 0-9; a frontier bound one more fails on seed 0's signed
    # rank-2 input
    real = semigroups._AperyTable.first_failure
    tally = Counter()

    def checked(table, level, key, reduced):
        below = real(table, level, key, reduced)
        if below is not None and below < math.inf:
            grade, low, high, carry = reduced[0]
            line = tuple(map(add, key, high if key[table._i] >= carry else low))
            bound = below + grade
            other.settle(bound)
            least = other._least.get(line, math.inf)
            settled = table._least.get(line, math.inf) <= table._heap[0][0]
            assert least == bound if settled else least >= bound, (table._e, level, key)
            tally[settled, least == bound] += 1
        return below

    monkeypatch.setattr(semigroups._AperyTable, "first_failure", checked)
    inputs = list(LADDER.values())
    for seed, rank in product(range(10), (1, 2, 3)):
        inputs.append(random_raw_generators(random.Random(seed), rank))
        inputs.append(random_signed_generators(random.Random(seed), rank, 2))
    for gens in inputs:
        other = build(gens)._apery
        try:
            find_gamma(build(gens), budget=2000)
        except BudgetExhaustedError:
            pass
    assert min(tally[True, True], tally[False, True], tally[False, False]) > 0, tally


# Seeded inputs that a cross-check covers, by rank, and seeded gamma
# searches that run out of budget; like the table below, they move when the
# search's reach does
SEEDED_COVERAGE = {
    # test_find_gamma_matches_the_generator_sum_search: inputs compared
    "generator_sum_search": {1: 103, 2: 102, 3: 86, 4: 1},
    # test_certificate_witnesses_match_one_walk_per_point: inputs checked
    "one_walk_per_point": {1: 1, 2: 26, 3: 11, 4: 1},
    # test_cohomology's seeded sweeps and boundary orbits: searches out of
    # budget 1000, by rank (the orbits' rank-4 raw inputs all run out)
    "random_sweeps_exhausted": {},
    "smith_formula_exhausted": {3: 2, 4: 6},
}


# The gamma search's work per input, counted by search_work: probes, Apéry
# table lines, residue lookups, and the _contains calls and memo entries of
# the winner's certificate walk, which builds the witnesses of gamma and of
# every gamma + rho in one walk that stops at the first point an earlier
# walk recorded.  A change to the search moves these on purpose, and says so
SEARCH_WORK = {
    # name: (probes, table lines, lookups, _contains, memo)
    "W_5": (29, 92, 103, 112, 65),
    "W_7": (138, 284, 420, 281, 186),
    "W_9": (418, 636, 1186, 554, 395),
    "W_11": (929, 1196, 2469, 955, 716),
    "index2_facet": (2, 9, 6, 16, 6),
    "numerical_3_5": (3, 3, 8, 12, 9),
    "D3": (2, 66, 6, 29, 10),
    "D4": (21, 421, 46, 82, 39),
    "R3": (6349, 9456, 8954, 581, 281),
    "W_13": (1783, 2012, 4615, 1508, 1173),
    "W_17": (4899, 4604, 11820, 3166, 2591),
}


def test_search_work_per_ladder_input():
    inputs = dict(LADDER, R3=R3_GENS, W_13=wedge_gens(13), W_17=wedge_gens(17))
    work = {name: search_work(gens)[2] for name, gens in inputs.items()}
    assert work == SEARCH_WORK, work


@pytest.mark.parametrize("k, tests, memo", [(k, *SEARCH_WORK[f"W_{k}"][3:]) for k in (7, 9, 11)])
def test_certificate_walks_share_their_membership_tests(monkeypatch, k, tests, memo):
    # the table's walk columns, counted on a fresh semigroup with _contains
    # patched directly rather than through search_work; the walks ask the
    # same points as one walk per point, so the memo sizes are those of one
    # walk per point.  The certificate the shared walks build is the one
    # verify_gamma builds for the same gamma
    calls = []
    contains = semigroups._contains

    def counting(S, c):
        calls.append(c)
        return contains(S, c)

    monkeypatch.setattr(semigroups, "_contains", counting)
    S = build(wedge_gens(k))
    cert = find_gamma(S)
    assert len(calls) == tests and len(S._memo) == memo
    assert cert == verify_gamma(build(wedge_gens(k)), cert.gamma)


def test_certificate_witnesses_match_one_walk_per_point():
    # every witness of a certificate is the greedy walk of its own point,
    # taken on brute membership with nothing shared between points: on
    # W_5, W_7, D3, D4, <3, 5> and seeded rank 2-3 inputs whose search
    # ends within the budget (rank 3: whose witnesses lie at grading <= 60)
    inputs = [wedge_gens(5), wedge_gens(7), D3_GENS, D4_GENS, ((3,), (5,))]
    for seed, rank in product(range(12), (2, 3)):
        inputs.append(random_raw_generators(random.Random(seed), rank))
        inputs.append(random_signed_generators(random.Random(seed), rank, 2))
    checked = Counter()
    for gens in inputs:
        S = build(gens)
        try:
            cert = find_gamma(S, budget=2000)
        except BudgetExhaustedError:
            continue
        points = [cert.gamma] + [vec_add(cert.gamma, rho) for rho, _ in cert.residue_witnesses]
        if S.dim > 2 and max(dot(S.grading, v) for v in points) > 60:
            continue
        witnesses = [cert.gamma_coeffs] + [coeffs for _, coeffs in cert.residue_witnesses]
        for v, coeffs in zip(points, witnesses):
            assert coeffs == greedy_express(S.generators, S.grading, v), (gens, v)
        checked[S.dim] += 1
    assert checked == SEEDED_COVERAGE["one_walk_per_point"], checked


def test_reduced_residue_lookup_against_contains():
    # first_failure(level, key(c), [reduce(r)]) on the line keys of c and r
    # must answer contains(c + r), asked of a second table, whether the
    # keys' i-th entries sum below u_i(e) or reach it: c + r is in iff it
    # returns None, and otherwise it returns b - sum(r), b a lower bound
    # on the least grading of the line of c + r, above c + r's grading
    kinds, ends = Counter(), Counter()
    for seed, rank in product(range(6), (2, 3)):
        rng = random.Random(seed)
        gens = random_raw_generators(rng, rank)
        S = build(gens)
        table, other = S._apery, build(gens)._apery
        forms = S.cone.generator_forms
        residues = [sign_vector(S.cone, rho) for rho in saturation_residues(S).residues]
        e_i = table._e[table._i]
        for _ in range(150):
            coeffs = [rng.randint(0, 3) for _ in forms]
            # a generator sum, or one less a generator: a member or not
            c = vec_add(vec_mat(coeffs, forms), vec_scale(rng.choice(forms), -rng.randint(0, 1)))
            if min(c) < 0:
                continue
            r = rng.choice(residues)
            key = table.key(c)
            level = sum(c) + sum(r)
            below = table.first_failure(sum(c), key, [table.reduce(r)])
            answer = below is None
            assert answer == other.contains(vec_add(c, r)), (gens, c, r)
            if not answer and below < math.inf:
                # the line's least grading, from the second table settled
                # up to the bound: no member of the line lies below it
                bound = below + sum(r)
                assert bound > level, (gens, c, r)
                other.settle(bound)
                least = other._least.get(other.key(vec_add(c, r)), math.inf)
                assert least >= bound, (gens, c, r)
                ends[least == bound] += 1
            kinds[key[table._i] + table.key(r)[table._i] >= e_i, answer] += 1
    assert len(kinds) == 4 and min(kinds.values()) >= 20, kinds
    assert min(ends.values()) >= 20 and len(ends) == 2, ends


def test_recheck_rejects_forged_facet_values():
    S = build(wedge_gens(5))
    cert = find_gamma(S)
    assert cert.recheck(S)
    assert not replace(cert, facet_values=(1, 1), m_q=1).recheck(S)
    assert not replace(cert, m_q=cert.m_q + 1).recheck(S)


def test_recheck_rejects_wrong_residue_lists():
    S = build(wedge_gens(5))
    cert = find_gamma(S)
    witnesses = cert.residue_witnesses
    assert len(witnesses) > 1
    for forged in (witnesses[:1], witnesses[1:], witnesses + witnesses[:1], ()):
        assert not replace(cert, residue_witnesses=forged).recheck(S)
    # a coefficient list of the wrong length is no witness either, nor
    # one whose sum is not gamma + rho
    assert not replace(cert, gamma_coeffs=cert.gamma_coeffs + (0,)).recheck(S)
    rho, coeffs = witnesses[-1]
    tampered = (coeffs[0] + 1,) + coeffs[1:]
    assert not replace(cert, residue_witnesses=witnesses[:-1] + ((rho, tampered),)).recheck(S)


def test_facet_data_wedge(wedge):
    fd0 = facet_data(wedge, 0)
    assert fd0.support_form == (-1, 5)
    assert fd0.facet_gens == ((5, 1),)
    assert fd0.invariant_factors == (1,)
    fd1 = facet_data(wedge, 1)
    assert fd1.support_form == (4, -1)
    assert fd1.facet_gens == ((1, 4),)
    assert fd1.invariant_factors == (1,)
    for fd in (fd0, fd1):
        for j, u in enumerate(wedge.support_forms):
            val = dot(u, fd.interior_element)
            assert val == 0 if j == fd.index else val > 0


def test_facet_data_rank1(ns35):
    fd = facet_data(ns35, 0)
    assert fd.facet_gens == ()
    assert fd.invariant_factors == ()
    assert fd.interior_element == (0,)


def test_facet_witness_combo(wedge):
    fd0 = facet_data(wedge, 0)
    assert facet_witness_combo(fd0, (-10, -2)) == (-2,)
    assert facet_witness_combo(fd0, (1, 0)) is None


def test_facet_witness_combo_matches_row_lattice(monkeypatch, d3, index2):
    # the kept Hermite form gives the coefficients of a fresh solve over
    # the facet generators' row lattice, on targets in the facet lattice,
    # in the hyperplane lattice and off the hyperplane; each facet builds
    # its Hermite form once.  Some facets have more generators than the
    # hyperplane's rank, so dependent rows are solved too
    rng = random.Random(5150)
    inputs = [d3, index2, build(D4_GENS)]
    inputs += [build(random_raw_generators(rng, rank)) for rank in (2, 3, 4) for _ in range(4)]
    built = []
    real = semigroups.hermite_normal_form

    def counting(A):
        built.append(A)
        return real(A)

    monkeypatch.setattr(semigroups, "hermite_normal_form", counting)
    solved = Counter()
    dependent = 0
    for S in inputs:
        for fd in all_facet_data(S):
            dependent += len(fd.facet_gens) > S.dim - 1
            H, U = hermite_normal_form(fd.facet_gens)
            built.clear()
            for _ in range(15):
                inside = S.zero
                for g in fd.facet_gens:
                    inside = vec_add(inside, vec_scale(g, rng.randint(-3, 3)))
                step = rng.choice(hyperplane_basis(fd.support_form))
                off = tuple(rng.randint(-2, 2) for _ in range(S.dim))
                targets = (
                    ("lattice", inside),
                    ("hyperplane", vec_add(inside, step)),
                    ("off", vec_add(inside, off)),
                )
                for kind, target in targets:
                    y = solve_in_hermite_basis(H, target)
                    expected = None if y is None else vec_mat(y, U)
                    assert expected is None or vec_mat(expected, fd.facet_gens) == target
                    assert facet_witness_combo(fd, target) == expected, (fd.index, target)
                    solved[kind, expected is not None] += 1
            assert built == [fd.facet_gens]
    assert not solved["lattice", False]
    assert solved["hyperplane", False] and solved["off", False]
    assert dependent


def test_nq_wedge_and_1d(wedge, ns35, ns479):
    assert n_q(wedge) == 0
    assert n_q(ns35) == 0
    assert n_q(ns479) == 0


def test_nq_index_two(index2):
    # facet through (2,0): hyperplane lattice Z*(1,0), facet lattice 2Z*(1,0)
    facets = all_facet_data(index2)
    flat = sorted(d for fd in facets for d in fd.invariant_factors)
    assert flat == [1, 2]
    assert n_q(index2) == 2
    # cross-check the index-2 factor straight from the Smith form
    fd = next(f for f in facets if 2 in f.invariant_factors)
    assert fd.facet_gens == ((2, 0),)
    assert smith_normal_form(fd.coord_matrix) == (2,)


def test_facet_invariants_random():
    # the invariant factors, taken from the facet generators in Z^n, equal
    # those of their hyperplane coordinates and sympy's, on seeded rank 2-4
    # inputs that include dependent facet generators and nontrivial factors
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1717)
    inputs = [random_raw_generators(rng, rank) for rank in (2, 3, 4) for _ in range(12)]
    inputs += [random_signed_generators(rng, rank, 2) for rank in (2, 3, 4) for _ in range(12)]
    dependent = nontrivial = 0
    for raws in inputs:
        S = build(raws)
        for fd in all_facet_data(S):
            assert all(dot(fd.support_form, g) == 0 for g in fd.facet_gens)
            assert len(fd.invariant_factors) == S.dim - 1
            assert fd.invariant_factors == smith_normal_form(fd.coord_matrix)
            ref = invariant_factors(sympy.Matrix(fd.facet_gens), domain=sympy.ZZ)
            assert fd.invariant_factors == tuple(int(d) for d in ref if d)
            dependent += len(fd.facet_gens) > S.dim - 1
            nontrivial += max(fd.invariant_factors) > 1
    assert dependent and nontrivial


def test_pipeline_builds_no_hyperplane_basis(monkeypatch, d3, index2):
    # no pipeline step reads coord_matrix, so none builds a hyperplane
    # basis; coord_matrix builds one on its first read and keeps the result
    def refuse(u):
        raise AssertionError(f"hyperplane basis of {u} built")

    monkeypatch.setattr(semigroups, "hyperplane_basis", refuse)
    built_facets = []
    for raws in (d3.raw_generators, D4_GENS, index2.raw_generators):
        S = build(raws)
        saturation_residues(S)
        facets = all_facet_data(S)
        n_q(S, facets)
        cert = find_gamma(S)
        empirical_hsl(S, cert, facets, 2, 2, 3, 10 * cert.m_q)
        built_facets += facets
    monkeypatch.undo()
    built = []
    real = semigroups.hyperplane_basis

    def counting(u):
        built.append(u)
        return real(u)

    monkeypatch.setattr(semigroups, "hyperplane_basis", counting)
    for fd in built_facets:
        first = fd.coord_matrix
        assert fd.coord_matrix is first
        assert len(first) == len(fd.facet_gens)
    assert built == [fd.support_form for fd in built_facets]
