import math
import random

import pytest

from hslbound.intlinalg import (
    SmithDecomposition,
    adjugate_det,
    det,
    hermite_normal_form,
    hyperplane_basis,
    identity_matrix,
    is_prime,
    largest_prime_factor,
    mat_mul,
    matrix_rank,
    primitive,
    smith_normal_form,
    solve_in_hermite_basis,
    solve_in_row_lattice,
    solve_rational,
    transpose,
    vec_mat,
    xgcd,
)
from oracles import (
    adjugate,
    brute_kernel_vectors,
    brute_row_lattice,
    kernel_basis,
    random_int_matrix,
)


def assert_hnf_shape(H):
    pivots = []
    seen_zero = False
    for row in H:
        nz = next((j for j, e in enumerate(row) if e), None)
        if nz is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        assert row[nz] > 0
        if pivots:
            assert nz > pivots[-1][1]
        pivots.append((row, nz))
    for i, (_, col) in enumerate(pivots):
        p = pivots[i][0][col]
        for above, _ in pivots[:i]:
            assert 0 <= above[col] < p


def test_xgcd():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3)]:
        g, x, y = xgcd(a, b)
        assert g == x * a + y * b
        assert g >= 0


def test_hnf_identity():
    I = identity_matrix(2)
    H, U = hermite_normal_form(I)
    assert H == I and U == I


def test_hnf_full_lattice():
    # det of ((5,1),(4,1)) is 1, so the row lattice is all of Z^2
    A = ((5, 1), (4, 1))
    H, U = hermite_normal_form(A)
    assert mat_mul(U, A) == H
    assert H == identity_matrix(2)
    # brute check that the unit vectors really are integer combinations
    lat = brute_row_lattice(A, 6)
    assert (1, 0) in lat and (0, 1) in lat


def test_hnf_already_reduced():
    A = ((2, 0), (0, 4))
    H, _ = hermite_normal_form(A)
    assert H == A


def test_hnf_properties_random():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -9, 9)
        H, U = hermite_normal_form(A)
        assert mat_mul(U, A) == H
        assert abs(det(U)) == 1
        assert_hnf_shape(H)


def test_snf_examples():
    # off-diagonal gcd interplay: diag(2,3) has invariant factors (1,6)
    assert smith_normal_form(((2, 0), (0, 3))).invariant_factors == (1, 6)
    assert smith_normal_form(identity_matrix(3)).invariant_factors == (1, 1, 1)
    assert smith_normal_form(((0,),)).invariant_factors == (0,)


def assert_snf_valid(A, snf: SmithDecomposition):
    assert mat_mul(mat_mul(snf.u, A), snf.v) == snf.d
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    k = min(len(A), len(A[0]))
    diag = [snf.d[i][i] for i in range(k)]
    assert snf.invariant_factors == tuple(diag)
    for i, r in enumerate(snf.d):
        for j, e in enumerate(r):
            if i != j:
                assert e == 0
    assert all(e >= 0 for e in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_snf_properties_random():
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -9, 9)
        assert_snf_valid(A, smith_normal_form(A))


def test_snf_invariant_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(8)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -9, 9)
        ref = [int(d) for d in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)]
        # sympy leaves out the zero factors of a rank-deficient matrix
        ref += [0] * (min(m, n) - len(ref))
        assert smith_normal_form(A).invariant_factors == tuple(ref), A


def test_hnf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    rng = random.Random(9)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -9, 9)
        if not any(any(r) for r in A):
            continue
        # sympy's column form of A^T puts its pivots bottom-right; it is
        # the row form of A with columns reversed, read back to front
        H, _ = hermite_normal_form(tuple(r[::-1] for r in A))
        ours = [list(r[::-1]) for r in H if any(r)][::-1]
        ref = [r for r in sympy_hnf(sympy.Matrix(A).T).T.tolist() if any(r)]
        assert ours == ref, A


def rank_test_matrices(rng):
    """Seeded matrices for rank and determinant: tall, wide and square,
    some with zero rows and columns or repeated rows, and some a product
    of thinner factors (so of known low rank), with entries up to about
    10^6, where an inexact division in the elimination would show."""
    out = []
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        big = rng.random() < 0.5
        bound = 10**6 if big else 3
        A = [list(r) for r in random_int_matrix(rng, m, n, -bound, bound)]
        if rng.random() < 0.3:
            k = rng.randint(1, min(m, n))
            B = random_int_matrix(rng, m, k, -1000, 1000)
            C = random_int_matrix(rng, k, n, -1000, 1000)
            A = [list(r) for r in mat_mul(B, C)]
        if rng.random() < 0.3:
            A[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for r in A:
                r[j] = 0
        if rng.random() < 0.3 and m > 1:
            A[rng.randrange(m)] = list(A[rng.randrange(m)])
        out.append(tuple(map(tuple, A)))
    return out


def test_rank_against_sympy_and_hnf():
    sympy = pytest.importorskip("sympy")
    deficient = 0
    for A in rank_test_matrices(random.Random(14)):
        rank = matrix_rank(A)
        assert rank == sympy.Matrix(A).rank(), A
        H, _ = hermite_normal_form(A)
        assert rank == sum(1 for r in H if any(r)), A
        deficient += rank < min(len(A), len(A[0]))
    assert deficient > 30
    assert matrix_rank(()) == 0


def test_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    singular = 0
    for A in rank_test_matrices(random.Random(15)):
        n = min(len(A), len(A[0]))
        A = tuple(r[:n] for r in A[:n])
        d = det(A)
        assert d == sympy.Matrix(A).det(method="berkowitz"), A
        singular += d == 0
    assert singular > 20
    assert det(()) == 1


def test_kernel_examples():
    assert kernel_basis(((-1, 5),)) == ((5, 1),)
    assert kernel_basis(((4, -1),)) == ((1, 4),)
    assert kernel_basis(identity_matrix(3)) == ()


def test_kernel_spans_brute_solutions():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -4, 4)
        basis = kernel_basis(A)
        for b in basis:
            assert all(sum(row[j] * b[j] for j in range(n)) == 0 for row in A)
        assert len(basis) == n - matrix_rank(A)
        for x in brute_kernel_vectors(A, 2):
            assert solve_in_row_lattice(basis, x) is not None


def test_hyperplane_basis_matches_kernel_basis():
    # lengths 1-6, entries in [-9, 9] with zeros and negatives, plus forms
    # with a single nonzero entry and forms whose last entry is 0
    rng = random.Random(11)
    shapes = {"single": 0, "last zero": 0}
    checked = 0
    while checked < 2000:
        n = rng.randint(1, 6)
        u = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
        if rng.random() < 0.1:
            u = [0] * n
            u[rng.randrange(n)] = rng.choice((-1, 1))
        if math.gcd(*u) != 1:
            continue
        basis = hyperplane_basis(u)
        assert basis == kernel_basis((tuple(u),)), u
        assert len(basis) == n - 1
        shapes["single"] += sum(1 for e in u if e) == 1
        shapes["last zero"] += u[-1] == 0
        checked += 1
    assert all(count > 100 for count in shapes.values()), shapes
    assert hyperplane_basis((1,)) == ()
    assert hyperplane_basis((-1, 5)) == ((5, 1),)
    assert hyperplane_basis((0, 3, -2, 0)) == ((1, 0, 0, 0), (0, 2, 3, 0), (0, 0, 0, 1))


def test_hyperplane_basis_rejects_zero_and_imprimitive_forms():
    for u in ((), (0,), (0, 0, 0), (2,), (2, 4), (0, -6, 9), (3, 0, 3)):
        with pytest.raises(ValueError):
            hyperplane_basis(u)


def test_solve_in_row_lattice():
    assert solve_in_row_lattice(((5, 1), (1, 4)), (6, 5)) == (1, 1)
    assert solve_in_row_lattice(((2, 0),), (3, 0)) is None
    assert solve_in_row_lattice(((5, 1),), (15, 3)) == (3,)
    # on a Hermite basis the back-substitution alone gives the same answer
    rng = random.Random(4)
    outside = 0
    for _ in range(200):
        A = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
        H, _ = hermite_normal_form(A)
        basis = tuple(r for r in H if any(r))
        if not basis:
            continue
        y = tuple(rng.randint(-5, 5) for _ in basis)
        inside = vec_mat(y, basis)
        assert solve_in_hermite_basis(basis, inside) == y
        assert solve_in_row_lattice(basis, inside) == y
        t = tuple(rng.randint(-9, 9) for _ in basis[0])
        expected = solve_in_row_lattice(basis, t)
        assert solve_in_hermite_basis(basis, t) == expected
        outside += expected is None
    assert outside > 20


def test_solve_in_row_lattice_dependent_rows():
    rows = ((2, 0), (4, 0), (0, 3))
    c = solve_in_row_lattice(rows, (6, 3))
    assert c is not None
    assert vec_mat(c, rows) == (6, 3)
    assert solve_in_row_lattice(rows, (1, 0)) is None


def test_solve_rational():
    x = solve_rational(((5, 1), (1, 4)), (1, 1))
    assert x is not None and (x[0].numerator, x[0].denominator) == (3, 19)
    assert (x[1].numerator, x[1].denominator) == (4, 19)
    assert solve_rational(((1, 0), (1, 0)), (0, 1)) is None


def test_adjugate_times_matrix_is_det_identity():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, n, n, -9, 9)
        if rng.random() < 0.25 and n > 1:
            A = A[:-1] + (A[0],)  # singular
        d_identity = tuple(tuple(det(A) * e for e in r) for r in identity_matrix(n))
        adj = adjugate(A)
        assert mat_mul(A, adj) == d_identity
        assert mat_mul(adj, A) == d_identity


def test_adjugate_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, n, n, -6, 6)
        ref = sympy.Matrix(A).adjugate().tolist()
        assert adjugate(A) == tuple(tuple(int(e) for e in r) for r in ref), A


def test_adjugate_det_one_pass():
    # the one-pass helper against the cofactor adjugate and Bareiss det,
    # on matrices that need row swaps (zero leading entries) and on
    # larger entries; singular matrices raise
    rng = random.Random(8)
    swapped = singular = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        A = random_int_matrix(rng, n, n, -30, 30)
        if rng.random() < 0.3:
            A = tuple(
                tuple(0 if rng.random() < 0.5 else e for e in r) for r in A
            )
        d = det(A)
        if d == 0:
            singular += 1
            with pytest.raises(ValueError):
                adjugate_det(A)
            continue
        swapped += A[0][0] == 0
        adj, dd = adjugate_det(A)
        assert dd == d
        assert adj == adjugate(A), A
        d_identity = tuple(tuple(d * e for e in r) for r in identity_matrix(n))
        assert mat_mul(A, adj) == d_identity
    assert swapped > 10 and singular > 10
    with pytest.raises(ValueError):
        adjugate_det(((1, 2),))


def test_primitive():
    assert primitive((-2, 10)) == (-1, 5)
    assert primitive((4, -1)) == (4, -1)
    assert primitive((0, 7)) == (0, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_primitive_scaling_property():
    rng = random.Random(4)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        if not any(v):
            continue
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        scaled = primitive(tuple(c * e for e in v))
        base = primitive(v)
        assert scaled == (base if c > 0 else tuple(-e for e in base))


def test_largest_prime_factor():
    assert largest_prime_factor(1) == 0
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(97) == 97
    with pytest.raises(ValueError):
        largest_prime_factor(0)
    # beyond the trial-division bound, exercising the rho fallback
    assert largest_prime_factor(1009 * 1013) == 1013
    assert largest_prime_factor(1009 * 1013) == 1013  # deterministic


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 53, 97, 1009}
    for n in range(2, 100):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    assert is_prime(1013) and not is_prime(1011)
    assert not is_prime(1) and not is_prime(0)
    assert all(is_prime(p) for p in primes)


def test_transpose_roundtrip():
    A = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(A)) == A
