import random
from itertools import product

import pytest

from hslbound.cones import (
    Cone,
    SimplicialSubcone,
    classify,
    is_pointed,
    parallelepiped_points,
    support_forms,
    triangulate,
)
from hslbound.intlinalg import (
    det,
    dot,
    hermite_normal_form,
    matrix,
    solve_rational,
    transpose,
    vec_add,
)
from oracles import (
    adjugate,
    brute_extreme_ray_reps,
    brute_in_cone,
    brute_parallelepiped,
    brute_support_forms,
    decompose,
    fraction_rank,
    random_int_matrix,
    random_raw_generators,
)

WEDGE_GENS = ((5, 1), (4, 1), (1, 3), (1, 4))


def wedge_cone():
    return Cone.from_generators(WEDGE_GENS, 2)


def test_support_forms_wedge():
    assert set(support_forms(WEDGE_GENS, 2)) == {(-1, 5), (4, -1)}


def test_support_forms_orthant():
    assert set(support_forms(((1, 0), (0, 1)), 2)) == {(1, 0), (0, 1)}


def test_support_forms_halfline():
    assert support_forms(((3,), (5,)), 1) == ((1,),)


def test_support_forms_rejects_low_rank():
    with pytest.raises(ValueError):
        support_forms(((1, 0), (2, 0)), 2)


def test_support_forms_random_against_cone_oracle():
    # membership by the forms must agree with rational Caratheodory search
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(1, 3)
        gens = []
        while len(gens) < n + rng.randint(0, 2):
            g = tuple(rng.randint(0, 4) for _ in range(n))
            if any(g):
                gens.append(g)
        gens = tuple(gens)
        from hslbound.intlinalg import matrix_rank

        if matrix_rank(gens) != n:
            continue
        forms = support_forms(gens, n)
        for g in gens:
            assert all(dot(u, g) >= 0 for u in forms)
        for v in product(range(-3, 4), repeat=n):
            by_forms = all(dot(u, v) >= 0 for u in forms)
            assert by_forms == brute_in_cone(gens, v), (gens, v)


def test_support_forms_against_brute_facets():
    # rank 2-4, signed entries (so some cones hold a line), some with a
    # repeated or a parallel generator; extreme rays checked when pointed
    rng = random.Random(16)
    pointed = lined = 0
    while pointed + lined < 150:
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(n, n + 2))]
        shape = rng.random()
        if shape < 0.4:
            gens = [g[:-1] + (abs(g[-1]) + 1,) for g in gens]  # pointed
        elif shape < 0.7:
            gens.append(tuple(-e for e in rng.choice(gens)))  # a line
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        if rng.random() < 0.3:
            gens.append(tuple(2 * e for e in rng.choice(gens)))
        gens = tuple(g for g in gens if any(g))
        if fraction_rank(gens) != n:
            continue
        want = brute_support_forms(gens, n)
        assert support_forms(gens, n) == want, gens
        c = Cone.from_generators(gens, n)
        if fraction_rank(want) == n:
            pointed += 1
            assert c.extreme_ray_reps == brute_extreme_ray_reps(gens, want, n), gens
        else:
            lined += 1
            assert c.extreme_ray_reps == ()
    assert pointed > 50 and lined > 40


def test_cone_facet_structure_invariants():
    from hslbound.intlinalg import matrix_rank, primitive

    for gens, n in (
        (WEDGE_GENS, 2),
        (((2, 0), (1, 1), (1, 2)), 2),
        (((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)), 3),
    ):
        c = Cone.from_generators(gens, n)
        for i, u in enumerate(c.support_forms):
            assert primitive(u) == u
            on_facet = [c.generators[j] for j in c.facet_generator_sets[i]]
            assert matrix_rank(on_facet) == n - 1
            assert all(dot(u, g) >= 0 for g in c.generators)


def test_is_pointed():
    assert is_pointed(wedge_cone())
    assert not is_pointed(Cone.from_generators(((1, 0), (-1, 0), (0, 1)), 2))
    assert is_pointed(Cone.from_generators(((3,), (5,)), 1))
    assert not is_pointed(Cone.from_generators(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), 3))
    assert is_pointed(Cone.from_generators(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), 3))


def test_classify_wedge():
    c = wedge_cone()
    sigma, neg = classify(c, (-1, -1))
    assert neg.kind == "neg_interior" and sigma.kind == "outside_sigma"
    sigma, neg = classify(c, (-5, -1))
    assert (neg.kind, neg.zero_facets) == ("neg_boundary", (0,))
    sigma, neg = classify(c, (0, 0))
    assert sigma.kind == "sigma_boundary" and neg.kind == "neg_boundary"
    assert sigma.zero_facets == (0, 1) and neg.zero_facets == (0, 1)
    sigma, neg = classify(c, (2, 1))
    assert sigma.kind == "sigma_interior" and neg.kind == "outside_neg"


def test_classify_scaling_invariance():
    c = wedge_cone()
    rng = random.Random(11)
    for _ in range(200):
        v = (rng.randint(-8, 8), rng.randint(-8, 8))
        for p in (2, 3, 5):
            a = classify(c, v)
            b = classify(c, tuple(p * e for e in v))
            assert a == b


def test_triangulate_wedge_single_subcone():
    c = wedge_cone()
    subs = triangulate(c)
    assert len(subs) == 1
    assert subs[0].determinant == 19  # det((5,1),(1,4)) = 20 - 1
    assert set(c.extreme_rays) == {(5, 1), (1, 4)}


def test_triangulate_orthant():
    c = Cone.from_generators(((1, 0), (0, 1)), 2)
    subs = triangulate(c)
    assert len(subs) == 1 and subs[0].determinant == 1


def test_triangulate_square_cone_splits_in_two():
    gens = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
    c = Cone.from_generators(gens, 3)
    subs = triangulate(c)
    assert len(subs) == 2
    assert sum(s.determinant for s in subs) == 2


def cone_points_in_box(c, box):
    for v in product(range(-box, box + 1), repeat=c.dim):
        if all(dot(u, v) >= 0 for u in c.support_forms):
            yield v


def barycentric(c, sub, v):
    rays = [c.extreme_rays[i] for i in sub.ray_indices]
    return solve_rational(transpose(matrix(rays)), v)


def test_triangulation_covers_and_is_disjoint():
    cones = [
        wedge_cone(),
        Cone.from_generators(((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)), 3),
        Cone.from_generators(((2, 0), (1, 1), (1, 2)), 2),
    ]
    rng = random.Random(17)
    for rank, count in ((3, 6), (4, 4)):
        made = 0
        while made < count:
            gens = random_raw_generators(rng, rank)
            if fraction_rank(gens) == rank:
                cones.append(Cone.from_generators(gens, rank))
                made += 1
    for c in cones:
        subs = triangulate(c)
        # the parallelepipeds hold det-many points each
        points = 0
        for s in subs:
            points += len(parallelepiped_points(s, [c.extreme_rays[i] for i in s.ray_indices]))
        assert points == sum(s.determinant for s in subs)
        for v in cone_points_in_box(c, 4 if c.dim < 4 else 2):
            inside = [s for s in subs if all(f >= 0 for f in barycentric(c, s, v))]
            assert inside, (c.generators, v)
            strict = [s for s in subs if all(f > 0 for f in barycentric(c, s, v))]
            assert len(strict) <= 1, (c.generators, v)


def test_parallelepiped_wedge():
    c = wedge_cone()
    sub = triangulate(c)[0]
    rays = [c.extreme_rays[i] for i in sub.ray_indices]
    pts = parallelepiped_points(sub, rays)
    assert len(pts) == 19
    assert (0, 0) in pts
    assert list(pts) == brute_parallelepiped(rays)
    for rho in pts:
        assert all(dot(u, rho) >= 0 for u in c.support_forms)


def test_parallelepiped_unimodular_and_1d():
    c = Cone.from_generators(((1, 0), (0, 1)), 2)
    sub = triangulate(c)[0]
    assert parallelepiped_points(sub, ((1, 0), (0, 1))) == ((0, 0),)
    c1 = Cone.from_generators(((3,), (5,)), 1)
    sub1 = triangulate(c1)[0]
    assert parallelepiped_points(sub1, ((3,),)) == ((0,), (1,), (2,))


def test_parallelepiped_random_against_brute_force():
    # swapping two rays flips the sign of the determinant but not the
    # half-open parallelepiped, so both orders must give the oracle's points
    rng = random.Random(13)
    signs = set()
    for n, count, bound in ((1, 6, 7), (2, 12, 4), (3, 8, 2), (4, 6, 1)):
        done = 0
        while done < count:
            rays = random_int_matrix(rng, n, n, -bound, bound)
            d = det(rays)
            if d == 0:
                continue
            done += 1
            want = brute_parallelepiped(rays)
            sub = SimplicialSubcone(tuple(range(n)), abs(d))
            for order in (rays, rays[1::-1] + rays[2:]) if n > 1 else (rays,):
                signs.add(det(order) > 0)
                assert list(parallelepiped_points(sub, order)) == want, order
    assert signs == {True, False}


def test_parallelepiped_walk_large_determinants():
    # det >= 100, adjugate entries larger than |det| (a step of the walk
    # then wraps a residue more than once), and Hermite boxes with more
    # than one nontrivial digit (the walk resets inner digits)
    rng = random.Random(29)
    cases = [((6, 0), (3, 20)), ((6, 3, 0), (0, 5, 0), (2, 0, 5))]
    for k in range(6):
        b, d, sign = rng.randint(1, 60), rng.randint(100, 140), rng.choice((-1, 1))
        rays = [(sign * (b + d), 1), (sign * b, 1)]
        if k % 2:
            rays = [r + (0,) for r in rays] + [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 2))]
        rng.shuffle(rays)
        rays = tuple(rays)
        assert abs(det(rays)) >= 100
        assert max(abs(e) for r in adjugate(transpose(rays)) for e in r) > abs(det(rays))
        cases.append(rays)
    digits = set()
    for rays in cases:
        n = len(rays)
        H, _ = hermite_normal_form(rays)
        digits.add(sum(H[i][i] > 1 for i in range(n)))
        sub = SimplicialSubcone(tuple(range(n)), abs(det(rays)))
        assert list(parallelepiped_points(sub, rays)) == brute_parallelepiped(rays), rays
    assert {1, 2} <= digits


def test_decompose_examples():
    c = wedge_cone()
    subs = triangulate(c)
    assert decompose(c, subs, (5, 1)) == ((5, 1), (0, 0))
    assert decompose(c, subs, (1, 1)) == ((0, 0), (1, 1))
    c1 = Cone.from_generators(((3,), (5,)), 1)
    assert decompose(c1, triangulate(c1), (7,)) == ((6,), (1,))
    with pytest.raises(ValueError):
        decompose(c, subs, (-1, 0))


def test_decompose_roundtrip_random():
    rng = random.Random(12)
    cones = [
        wedge_cone(),
        Cone.from_generators(((2, 0), (1, 1), (1, 2)), 2),
        Cone.from_generators(((3, 0, 1), (0, 3, 1), (2, 2, 1), (4, 1, 1), (1, 4, 1), (0, 0, 1)), 3),
        Cone.from_generators(((2, -1, 1), (-1, 2, 1), (-1, -1, 1), (1, 1, 1)), 3),
    ]
    for c in cones:
        subs = triangulate(c)
        residues = set()
        for s in subs:
            rays = [c.extreme_rays[i] for i in s.ray_indices]
            residues.update(parallelepiped_points(s, rays))
        pts = list(cone_points_in_box(c, 9))
        for _ in range(250):
            s = rng.choice(pts)
            q, rho = decompose(c, subs, s)
            assert vec_add(q, rho) == s
            assert rho in residues
            # q must be a nonnegative integer combination of subcone rays
            found = False
            for sub in subs:
                mu = barycentric(c, sub, q)
                if all(f >= 0 and f.denominator == 1 for f in mu):
                    found = True
                    break
            assert found
