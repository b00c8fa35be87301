"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: bounded enumeration, exact rational
elimination, subset search.  None of it shares code paths with the library
routines it checks.  The reference chain of the window sweep and
`decompose` are plain per-call versions of what the library does in bulk,
or no longer does at all; so are `kernel_basis` and the cofactor
`adjugate`, which the library replaced by `hyperplane_basis` and
`adjugate_det`.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from itertools import combinations, product

from hslbound.cohomology import zero_class
from hslbound.cones import sign_vector
from hslbound.intlinalg import (
    det,
    dot,
    hermite_normal_form,
    mat_vec,
    matrix,
    matrix_rank,
    solve_rational,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)


def kernel_basis(A):
    """Basis of the integer kernel {x : A @ x == 0}, Hermite-canonicalized.

    Two Hermite forms: the rows of U that clear A^T span the kernel, and
    the second form makes that basis canonical.  The reference for
    intlinalg.hyperplane_basis on one-row A.
    """
    A = matrix(A)
    if not A:
        raise ValueError("empty matrix")
    H, U = hermite_normal_form(transpose(A))
    rows = [U[i] for i in range(len(H)) if not any(H[i])]
    if not rows:
        return ()
    KH, _ = hermite_normal_form(rows)
    return tuple(r for r in KH if any(r))


def adjugate(A):
    """Integer adjugate, the transposed cofactor matrix: A @ adj == det(A) * I.

    Each cofactor is a Bareiss determinant of a minor, so a singular
    matrix gets its adjugate too.  The reference for
    intlinalg.adjugate_det.
    """
    A = matrix(A)
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("adjugate needs a square matrix")

    def minor(i, j):
        return tuple(r[:j] + r[j + 1 :] for k, r in enumerate(A) if k != i)

    return tuple(
        tuple((-1) ** (i + j) * det(minor(j, i)) for j in range(n)) for i in range(n)
    )


def random_int_matrix(rng: random.Random, m: int, n: int, lo: int, hi: int):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def random_raw_generators(rng: random.Random, rank: int):
    """rank-dimensional generators whose last coordinate is in [1, 3], so
    that coordinate is a positive grading on them."""
    count = rng.randint(rank + 1, rank + 3)
    return [
        tuple(rng.randint(0, 4) for _ in range(rank - 1)) + (rng.randint(1, 3),)
        for _ in range(count)
    ]


def brute_row_lattice(rows, coeff_bound):
    """All integer combinations of the rows with coefficients in a box."""
    pts = set()
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=len(rows)):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0])))
        pts.add(v)
    return pts


def brute_kernel_vectors(A, box):
    """Small integer vectors x with A @ x == 0."""
    n = len(A[0])
    out = []
    for x in product(range(-box, box + 1), repeat=n):
        if any(x) and all(dot(row, x) == 0 for row in A):
            out.append(x)
    return out


def brute_in_cone(gens, v):
    """Exact test for v in cone(gens) via Caratheodory subsets.

    v lies in the cone iff some linearly independent subset of at most
    dim-many generators expresses it with nonnegative rational weights.
    """
    if not any(v):
        return True
    n = len(v)
    cols = list(gens)
    for size in range(1, n + 1):
        for subset in combinations(cols, size):
            if matrix_rank(subset) < size:
                continue
            A = tuple(zip(*subset))  # columns are the chosen generators
            x = solve_rational(A, v)
            if x is not None and all(f >= 0 for f in x):
                return True
    return False


def _fraction_echelon(rows):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    m = [[Fraction(e) for e in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [e / m[r][c] for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def fraction_rank(rows):
    return len(_fraction_echelon(rows)[1])


def brute_support_forms(gens, n):
    """Facet normals of cone(gens) by brute force, in Fractions only.

    For each (n-1)-subset of generators of rank n-1, the hyperplane it
    spans has a primitive integer normal; that normal, or its negative,
    is a facet form iff every generator lies on its side.  Returns the
    sorted tuple of facet forms (empty when the cone is all of space).
    """
    forms = set()
    for subset in combinations(gens, n - 1):
        m, pivots = _fraction_echelon(subset)
        if len(pivots) != n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        normal = [Fraction(0)] * n
        normal[free] = Fraction(1)
        for row, c in zip(m, pivots):
            normal[c] = -row[free]
        scale = math.lcm(*(f.denominator for f in normal))
        ints = [int(f * scale) for f in normal]
        g = math.gcd(*ints)
        normal = tuple(e // g for e in ints)
        values = [sum(a * b for a, b in zip(normal, v)) for v in gens]
        if all(x >= 0 for x in values):
            forms.add(normal)
        if all(x <= 0 for x in values):
            forms.add(tuple(-e for e in normal))
    return tuple(sorted(forms))


def brute_extreme_ray_reps(gens, forms, n):
    """Indices of generators spanning the extreme rays of a pointed cone:
    a generator is extreme iff the forms vanishing on it have rank n-1.
    Per ray the generator least in (sum of form values, lex) is kept,
    rays in order of first appearance."""
    best = {}
    for idx, g in enumerate(gens):
        values = [sum(a * b for a, b in zip(u, g)) for u in forms]
        active = [u for u, x in zip(forms, values) if x == 0]
        if fraction_rank(active) != n - 1:
            continue
        d = math.gcd(*g)
        key = tuple(e // d for e in g)
        cand = (sum(values), g, idx)
        if key not in best or cand[:2] < best[key][:2]:
            best[key] = cand
    return tuple(idx for _, _, idx in best.values())  # dicts keep first-seen order


def semigroup_elements_upto(gens, grading, cap):
    """All finite sums of gens with grading value <= cap (includes 0).

    grading must be positive on every generator.  Plain Python, no library
    call: this is the reference the membership walk is checked against.
    """
    zero = (0,) * len(gens[0])
    steps = [(sum(a * b for a, b in zip(grading, g)), g) for g in gens]
    seen = {zero}
    heap = [(0, zero)]
    while heap:
        lv, v = heapq.heappop(heap)
        for lg, g in steps:
            w = tuple(a + b for a, b in zip(v, g))
            lw = lv + lg
            if lw <= cap and w not in seen:
                seen.add(w)
                heapq.heappush(heap, (lw, w))
    return seen


def numerical_members_upto(gens, limit):
    """Membership table of a numerical semigroup up to limit (1-d, naive DP)."""
    dp = [False] * (limit + 1)
    dp[0] = True
    for i in range(1, limit + 1):
        dp[i] = any(i >= g and dp[i - g] for g in gens)
    return dp


def brute_min_power_in_numerical(gens, p):
    """Least e with p**e in the numerical semigroup generated by gens."""
    e = 0
    while True:
        x = p**e
        if numerical_members_upto(gens, x)[x]:
            return e
        e += 1


def brute_parallelepiped(rays):
    """Lattice points sum(mu_k * r_k) with 0 <= mu_k < 1, by box scan.

    The columns of R^-1 are solved for once in Fractions and scaled by
    the common denominator D to integers, so D * mu = (D * R^-1) @ v is
    tested against [0, D) in integers."""
    n = len(rays[0])
    A = tuple(zip(*rays))  # columns are the rays
    inverse_cols = [solve_rational(A, tuple(int(i == j) for i in range(n))) for j in range(n)]
    D = math.lcm(*(f.denominator for col in inverse_cols for f in col))
    scaled = [[int(col[k] * D) for col in inverse_cols] for k in range(n)]
    lo = [sum(min(r[j], 0) for r in rays) for j in range(n)]
    hi = [sum(max(r[j], 0) for r in rays) for j in range(n)]
    pts = []
    for v in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(0 <= dot(row, v) < D for row in scaled):
            pts.append(v)
    return sorted(pts)


def brute_zero_class(S, facets, v, cap):
    """Exhaustive witness search for the vanishing criterion.

    True iff some facet semigroup element w with grading value <= cap has
    v + w in the semigroup.  Facet elements are enumerated independently of
    the library's search order.
    """
    from hslbound.semigroups import member

    for fd in facets:
        if not fd.facet_gens:
            candidates = {(0,) * S.cone.dim}
        else:
            candidates = semigroup_elements_upto(fd.facet_gens, S.grading, cap)
        for w in sorted(candidates):
            if member(S, vec_add(v, w)):
                return True
    return False


def decompose(cone, subcones, s):
    """Split s in the cone as q + rho with q an extreme-ray sum and rho a
    parallelepiped residue of the first subcone (of triangulate(cone),
    passed in so callers triangulate once) that contains s."""
    s = tuple(int(e) for e in s)
    if any(dot(u, s) < 0 for u in cone.support_forms):
        raise ValueError("point lies outside the cone")
    rays = cone.extreme_rays
    for sub in subcones:
        R = transpose(matrix([rays[i] for i in sub.ray_indices]))
        d = det(R)
        y = mat_vec(adjugate(R), s)  # barycentric coordinates times d
        if any(e * d < 0 for e in y):
            continue
        q = mat_vec(R, tuple(e // d for e in y))
        return q, vec_sub(s, q)
    raise RuntimeError("triangulation failed to cover the cone")


def reference_outside_orders(S, cert, facets, p, window, e_max, cap):
    """Frobenius orders of the window's degrees outside -sigma, one chain
    at a time: the sign vector by dot products per degree, then at each
    level e the constructive test p^e u_i(v) >= u_i(gamma) and, when it
    fails, zero_class on p^e v, up to the first zero level.

    Returns ({degree: order, or None past e_max}, {degree: the degrees
    handed to zero_class for it, in call order}).
    """
    orders, called = {}, {}
    for v in product(range(-window, window + 1), repeat=S.dim):
        signs = sign_vector(S.cone, v)
        if max(signs) <= 0:
            continue
        orders[v] = None
        chain = called[v] = []
        for e in range(e_max + 1):
            if any(p**e * s >= f for s, f in zip(signs, cert.facet_values)):
                orders[v] = e
                break
            chain.append(vec_scale(v, p**e))
            if zero_class(S, cert, facets, chain[-1], cap).is_zero:
                orders[v] = e
                break
    return orders, called
