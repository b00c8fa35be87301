"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: bounded enumeration, exact rational
elimination, subset search.  None of it shares code paths with the library
routines it checks, except `kernel_basis`: it reads the kernel off the
library's Hermite form, as `hyperplane_basis` does, so only brute-force
kernel vectors check the two independently.  The reference chain of the
window sweep and `decompose` are plain per-call versions of what the
library does in bulk, or no longer does at all; so is the cofactor
`adjugate`, which the library replaced by `dual_basis`.
`smith_boundary_order` is the p-adic reading of a boundary degree's
Frobenius order off a Smith decomposition taken from sympy, which the
library replaced by zero_class's lattice test at every level;
`greedy_express` is the one-walk-per-call form of the shared walk that
builds gamma certificates, on brute membership, and
`generator_sum_gamma` is the gamma search over every generator sum that
the chain search replaced.  The
matrix products, `transpose`, the Bareiss `det` and `sat_member` are
here because only the tests read them.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from itertools import accumulate, combinations, product
from operator import mul

from hslbound.cohomology import zero_class
from hslbound.cones import sign_vector
from hslbound.intlinalg import (
    dot,
    hermite_normal_form,
    matrix,
    solve_rational,
    vec_add,
    vec_scale,
    vec_sub,
)
from hslbound.semigroups import saturation_residues, verify_gamma


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_mul(A, B):
    """A @ B."""
    return tuple(tuple(dot(row, col) for col in zip(*B)) for row in A)


def mat_vec(A, x):
    """A @ x with x a column vector."""
    return tuple(dot(row, x) for row in A)


def sat_member(S, v):
    """v in the saturation of S, i.e. in its cone, decided by form signs."""
    return min(sign_vector(S.cone, v)) >= 0


def det(A):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every entry after step k is a (k+1)-minor of the row-permuted A
    (Sylvester's identity), so each division by the previous pivot is
    exact, and the last pivot is the determinant up to the sign of the
    row swaps.  A column with no pivot left makes A singular.
    """
    n = len(A)
    if n == 0:
        return 1
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    M = [list(r) for r in A]
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        top = M[c]
        p = top[c]
        for row in M[c + 1 :]:
            a = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return sign * prev


def kernel_basis(A):
    """Basis of the integer kernel {x : A @ x == 0}, Hermite-canonicalized.

    Two Hermite forms: the rows of U that clear A^T span the kernel, and
    the second form makes that basis canonical.  The reference for
    intlinalg.hyperplane_basis on one-row A, which takes one Hermite form
    of [A^T | I] instead; both rest on hermite_normal_form.
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
    matrix gets its adjugate too.  The reference for the dual basis of
    intlinalg.dual_basis, its transpose up to the sign of the determinant.
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


def determinantal_divisors(A):
    """(D_1, ..., D_k), k = min(m, n), with D_j the gcd of the j x j minors
    of A (0 when they all vanish)."""
    m, n = len(A), len(A[0])
    return tuple(
        math.gcd(
            *(
                det(tuple(tuple(A[r][c] for c in cols) for r in rows))
                for rows in combinations(range(m), j)
                for cols in combinations(range(n), j)
            )
        )
        for j in range(1, min(m, n) + 1)
    )


def smith_factors_hold(A, factors):
    """factors are the invariant factors of A: min(m, n) nonnegative entries
    in a divisibility chain, zeros last, with d_1 * ... * d_j == D_j, the
    j-th determinantal divisor.  The chain and the products fix them."""
    if len(factors) != min(len(A), len(A[0])) or min(factors) < 0:
        return False
    if any((b % a if a else b) for a, b in zip(factors, factors[1:])):
        return False
    return tuple(accumulate(factors, mul)) == determinantal_divisors(A)


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


def random_signed_generators(rng: random.Random, rank: int, spread: int):
    """rank + 2 rank-dimensional generators, the last coordinate in [1, 2]
    (a positive grading on them) and the others in [-spread, spread], so
    that some generators are not lexicographically positive."""
    return [
        tuple(rng.randint(-spread, spread) for _ in range(rank - 1)) + (rng.randint(1, 2),)
        for _ in range(rank + 2)
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
            if fraction_rank(subset) < size:
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


def generator_sum_gamma(S, budget=10000):
    """The certificate of the first valid gamma in key order (max_i
    u_i(gamma), grading . gamma, gamma), or None when budget candidates
    fail: the gamma search as a best-first walk over every generator sum,
    with a set of the sums seen, each candidate's residues asked of the
    Apéry table one by one, and verify_gamma's certificate of the winner.
    """
    residues = [sign_vector(S.cone, rho) for rho in saturation_residues(S).residues]
    steps = [(u, dot(S.grading, g), g) for u, g in zip(S.cone.generator_forms, S.generators)]
    heap = [(0, 0, S.zero, (0,) * len(S.support_forms))]
    seen = {S.zero}
    for _ in range(budget):
        if not heap:
            break
        _, level, gamma, values = heapq.heappop(heap)
        if all(S._apery.contains(vec_add(values, rho)) for rho in residues):
            return verify_gamma(S, gamma)
        for step_values, step_level, g in steps:
            nxt = vec_add(gamma, g)
            if nxt not in seen:
                seen.add(nxt)
                nxt_values = vec_add(values, step_values)
                heapq.heappush(heap, (max(nxt_values), level + step_level, nxt, nxt_values))
    return None


def greedy_express(gens, grading, v):
    """Generator multiplicities summing to v, or None, one walk per call.

    The library's greedy rule (at each point, remove the first generator
    whose removal stays in the semigroup), decided on the brute
    enumeration of generator sums up to v's grading, with no shared state
    between calls.
    """
    members = semigroup_elements_upto(gens, grading, sum(a * b for a, b in zip(grading, v)))
    if v not in members:
        return None
    coeffs = [0] * len(gens)
    while any(v):
        for j, g in enumerate(gens):
            w = tuple(a - b for a, b in zip(v, g))
            if w in members:
                coeffs[j] += 1
                v = w
                break
    return tuple(coeffs)


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


def _p_adic_valuation(x: int, p: int) -> int:
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def smith_boundary_order(facets, v, p, smith=None):
    """Least e with p^e v in the lattice L_i of some facet i with
    u_i(v) == 0, or None; v is a degree on the boundary of -sigma, and the
    semigroup has rank at least 2.

    With a the hyperplane coordinates of v (in kernel_basis of u_i, which
    equals the hyperplane_basis coord_matrix C is written in) and
    D == U @ C @ V the Smith decomposition of C from sympy, a lies in the
    row lattice of C iff each diagonal entry d_j divides (a @ V)_j.  So
    p^e v lies in L_i iff the p-free part of each d_j divides (a @ V)_j
    and e makes up each p-power deficit.  smith, when given, is a dict
    that caches (kernel basis, diagonal, V) by facet index.
    """
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    smith = {} if smith is None else smith
    best = None
    for fd in facets:
        if dot(fd.support_form, v) != 0:
            continue
        if fd.index not in smith:
            D, _, V = smith_normal_decomp(Matrix(fd.coord_matrix), domain=ZZ)
            V = tuple(tuple(int(e) for e in V.row(i)) for i in range(V.rows))
            if abs(det(V)) != 1:
                raise AssertionError(f"facet {fd.index}: V is not unimodular")
            diag = tuple(abs(int(D[j, j])) for j in range(min(D.shape)))
            smith[fd.index] = (kernel_basis((fd.support_form,)), diag, V)
        basis, diag, V = smith[fd.index]
        a = solve_rational(transpose(basis), v)
        if a is None or any(x.denominator != 1 for x in a):
            raise AssertionError(f"{v} is not in the hyperplane lattice of facet {fd.index}")
        y = tuple(sum(int(x) * row[j] for x, row in zip(a, V)) for j in range(len(V[0])))
        cand = 0
        for d, yj in zip(diag, y):
            k = _p_adic_valuation(d, p)
            if yj % (d // p**k):
                cand = None
                break
            if k and yj:
                cand = max(cand, k - min(k, _p_adic_valuation(yj, p)))
        if cand is not None:
            best = cand if best is None else min(best, cand)
    return best
