import math
import random
from fractions import Fraction

import pytest

from hslbound.intlinalg import (
    dual_basis,
    hermite_normal_form,
    hyperplane_basis,
    identity_matrix,
    is_prime,
    largest_prime_factor,
    matrix,
    primitive,
    smith_normal_form,
    solve_in_hermite_basis,
    solve_rational,
    vec_mat,
    vector,
    xgcd,
)
from oracles import (
    adjugate,
    brute_kernel_vectors,
    brute_row_lattice,
    det,
    fraction_rank,
    kernel_basis,
    mat_mul,
    random_int_matrix,
    smith_factors_hold,
    transpose,
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
    with pytest.raises(ValueError, match="empty matrix"):
        hermite_normal_form(())


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
    assert smith_normal_form(((2, 0), (0, 3))) == (1, 6)
    assert smith_normal_form(identity_matrix(3)) == (1, 1, 1)
    assert smith_normal_form(((0,),)) == (0,)
    # row and column clear, but the pivot 4 does not divide 6: the
    # divisibility step adds row 1 to row 0
    assert smith_normal_form(((4, 0), (0, 6))) == (2, 12)
    # a zero row and column, so the zero factor goes last
    assert smith_normal_form(((0, 0), (0, 5))) == (5, 0)
    # negative pivots give positive factors
    assert smith_normal_form(((-3,),)) == (3,)
    assert smith_normal_form(((-2, 0), (0, -4))) == (2, 4)
    # the determinantal divisors tell (1, 6) from (2, 3), which has the
    # same product
    assert not smith_factors_hold(((2, 0), (0, 3)), (2, 3))
    with pytest.raises(ValueError, match="empty matrix"):
        smith_normal_form(())


def test_snf_properties_random():
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -9, 9)
        assert smith_factors_hold(A, smith_normal_form(A)), A


def test_snf_invariant_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(8)
    for _ in range(300):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        bound = rng.choice((9, 100, 10**4))
        A = [list(r) for r in random_int_matrix(rng, m, n, -bound, bound)]
        if m > 1 and rng.random() < 0.3:
            # rank deficient: row i is a combination of the others
            i = rng.randrange(m)
            coeffs = [0 if r == i else rng.randint(-3, 3) for r in range(m)]
            A[i] = list(vec_mat(coeffs, A))
        ref = [int(d) for d in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)]
        # sympy leaves out the zero factors of a rank-deficient matrix
        ref += [0] * (min(m, n) - len(ref))
        assert smith_normal_form(A) == tuple(ref), A


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
    # dual_basis picks greedily: a row is kept iff it is independent of
    # the kept rows before it, and the count of kept rows is the rank
    sympy = pytest.importorskip("sympy")
    deficient = 0
    for A in rank_test_matrices(random.Random(14)):
        kept = dual_basis(A)[0]
        rank = len(kept)
        assert rank == sympy.Matrix(A).rank(), A
        H, _ = hermite_normal_form(A)
        assert rank == sum(1 for r in H if any(r)), A
        for i, row in enumerate(A):
            before = [A[j] for j in kept if j < i]
            assert fraction_rank(before + [row]) == len(before) + (i in kept), (A, i)
        deficient += rank < min(len(A), len(A[0]))
    assert deficient > 30
    assert dual_basis(())[0] == ()


def test_vector_takes_only_integer_entries():
    # entries go through operator.index: ints pass exactly, anything that
    # would have to be truncated or parsed is rejected
    assert vector((3, -2, True)) == (3, -2, 1)
    assert vector([10**30]) == (10**30,)
    for bad in ((1.5, 2), (2.0, 1), (Fraction(1, 2), 0), ("1", "2")):
        with pytest.raises(TypeError):
            vector(bad)
        with pytest.raises(TypeError):
            matrix([(1, 1), bad])
    # shapes are checked too: rows of one length, one vector entry per row
    with pytest.raises(ValueError, match="ragged matrix"):
        matrix([(1, 2), (3,)])
    with pytest.raises(ValueError, match="ragged matrix"):
        dual_basis(((1, 2), (3,)))
    with pytest.raises(ValueError, match="length mismatch"):
        vec_mat((1, 2), ((1, 0),))


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
    # kernel_basis and hyperplane_basis both read a Hermite form, so only
    # brute force checks them independently
    rng = random.Random(3)
    hyperplanes = 0
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, m, n, -4, 4)
        bases = [kernel_basis(A)]
        if m == 1 and math.gcd(*A[0]) == 1:
            bases.append(hyperplane_basis(A[0]))
            hyperplanes += 1
        for basis in bases:
            for b in basis:
                assert all(sum(row[j] * b[j] for j in range(n)) == 0 for row in A)
            assert len(basis) == n - fraction_rank(A)
            # the basis is Hermite-canonical, so back-substitution solves on it
            for x in brute_kernel_vectors(A, 2):
                assert solve_in_hermite_basis(basis, x) is not None
    assert hyperplanes > 10


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


def test_solve_in_hermite_basis():
    # ((1, 4), (0, 19)) is the Hermite form of ((5, 1), (1, 4))
    assert solve_in_hermite_basis(((1, 4), (0, 19)), (6, 5)) == (6, -1)
    assert solve_in_hermite_basis(((1, 4), (0, 19)), (6, 6)) is None
    assert solve_in_hermite_basis(((2, 0),), (3, 0)) is None
    assert solve_in_hermite_basis(((5, 1),), (15, 3)) == (3,)
    # a target is in the row lattice iff appending it leaves the Hermite
    # form's nonzero rows unchanged
    rng = random.Random(4)
    outside = 0
    for _ in range(200):
        A = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
        H, _ = hermite_normal_form(A)
        basis = tuple(r for r in H if any(r))
        if not basis:
            continue
        y = tuple(rng.randint(-5, 5) for _ in basis)
        assert solve_in_hermite_basis(basis, vec_mat(y, basis)) == y
        t = tuple(rng.randint(-9, 9) for _ in basis[0])
        got = solve_in_hermite_basis(basis, t)
        grown, _ = hermite_normal_form(basis + (t,))
        assert (got is not None) == (tuple(r for r in grown if any(r)) == basis), (basis, t)
        assert got is None or vec_mat(got, basis) == t
        outside += got is None
    assert outside > 20


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
    # dual_basis against the cofactor adjugate and Bareiss det of the kept
    # rows A_P: d is |det A_P| and B the transposed adjugate oriented by
    # its sign.  Square matrices, some needing row swaps (zero leading
    # entries), and tall ones, some of rank below n; a rank below n gives
    # d = 0 and no B
    rng = random.Random(8)
    swapped = singular = tall = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        k = n if rng.random() < 0.6 else rng.randint(n + 1, n + 3)
        A = random_int_matrix(rng, k, n, -30, 30)
        if rng.random() < 0.3:
            A = tuple(
                tuple(0 if rng.random() < 0.5 else e for e in r) for r in A
            )
        elif n > 1 and rng.random() < 0.2:
            A = mat_mul(random_int_matrix(rng, k, n - 1, -3, 3), random_int_matrix(rng, n - 1, n, -3, 3))
        P, d, B = dual_basis(A)
        if fraction_rank(A) < n:
            singular += 1
            assert (d, B) == (0, ()), A
            continue
        A_P = tuple(A[i] for i in P)
        sign = 1 if det(A_P) > 0 else -1
        assert d == sign * det(A_P), A
        assert B == transpose(tuple(tuple(sign * e for e in r) for r in adjugate(A_P))), A
        assert mat_mul(B, transpose(A_P)) == tuple(tuple(d * e for e in r) for r in identity_matrix(n))
        swapped += A[0][0] == 0
        tall += k > n
    assert swapped > 10 and singular > 10 and tall > 10
    assert dual_basis(((1, 2),)) == ((0,), 0, ())
    assert dual_basis(((0, 1), (0, 2), (1, 0))) == ((0, 2), 1, ((0, 1), (1, 0)))


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
