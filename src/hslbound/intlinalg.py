"""Exact integer linear algebra: normal forms, kernels, lattice solving.

Vectors are tuples of Python ints and matrices are tuples of row tuples,
so everything runs on arbitrary-precision integers.  Normal-form pipelines
(Hermite, Smith) can blow up intermediate entries far past machine width,
which is why nothing here ever touches floating point or fixed-width
arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


# ---------------------------------------------------------------------------
# small vector / matrix helpers


def vector(entries) -> IntVector:
    return tuple(int(e) for e in entries)


def matrix(rows) -> IntMatrix:
    rows = tuple(vector(r) for r in rows)
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def dot(u: IntVector, v: IntVector) -> int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_scale(v, c):
    return tuple(c * a for a in v)


def vec_neg(v):
    return tuple(-a for a in v)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(A: IntMatrix) -> IntMatrix:
    return tuple(zip(*A)) if A else ()


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def mat_vec(A: IntMatrix, x: IntVector) -> IntVector:
    """A @ x with x a column vector."""
    return tuple(dot(row, x) for row in A)


def vec_mat(x: IntVector, A: IntMatrix) -> IntVector:
    """x @ A with x a row vector."""
    if len(x) != len(A):
        raise ValueError("length mismatch")
    n = len(A[0]) if A else 0
    return tuple(sum(x[i] * A[i][j] for i in range(len(A))) for j in range(n))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, x, y) with x*a + y*b == g and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _bareiss(M: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) row echelon form of M, in place.

    Returns (rank, sign, pivot): the row swaps make the sign, and the last
    pivot is a maximal nonvanishing minor of the row-permuted M.  A column
    with no nonzero entry from the current row down is skipped.  Every
    entry after step k is a (k+1)-minor of M (Sylvester's identity), so
    each division by the previous pivot is exact.  Only the columns right
    of a pivot are updated; the ones left of it are never read again.
    """
    m = len(M)
    r, sign, prev = 0, 1, 1
    for c in range(len(M[0]) if M else 0):
        top = M[r]
        p = top[c]
        if not p:
            pivot = next((i for i in range(r + 1, m) if M[i][c]), None)
            if pivot is None:
                continue
            top, M[pivot] = M[pivot], top
            M[r] = top
            p = top[c]
            sign = -sign
        r += 1
        if r == m:
            return r, sign, p
        for i in range(r, m):
            row = M[i]
            a = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return r, sign, prev


def det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    rank, sign, pivot = _bareiss([list(r) for r in A])
    return sign * pivot if rank == n else 0


# ---------------------------------------------------------------------------
# Hermite normal form


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.  Returns (H, U) with H == U @ A.

    U is unimodular.  Pivots are positive, pivot columns strictly increase,
    entries above a pivot are reduced into [0, pivot), and zero rows sink
    to the bottom, so the nonzero rows are a canonical basis of the row
    lattice of A.
    """
    A = matrix(A)
    if not A:
        raise ValueError("empty matrix")
    m, n = len(A), len(A[0])
    H = [list(r) for r in A]
    U = [list(r) for r in identity_matrix(m)]
    row = 0
    for col in range(n):
        if row == m:
            break
        pivot = next((i for i in range(row, m) if H[i][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            H[row], H[pivot] = H[pivot], H[row]
            U[row], U[pivot] = U[pivot], U[row]
        for i in range(row + 1, m):
            if H[i][col] == 0:
                continue
            a, b = H[row][col], H[i][col]
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            # rows (row, i) <- unimodular [x y; -bg ag] acting on them
            for R in (H, U):
                top, bot = R[row], R[i]
                R[row] = [x * s + y * t for s, t in zip(top, bot)]
                R[i] = [-bg * s + ag * t for s, t in zip(top, bot)]
        if H[row][col] < 0:
            H[row] = [-e for e in H[row]]
            U[row] = [-e for e in U[row]]
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p  # floor leaves the remainder in [0, p)
            if q:
                H[i] = [s - q * t for s, t in zip(H[i], H[row])]
                U[i] = [s - q * t for s, t in zip(U[i], U[row])]
        row += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def matrix_rank(A) -> int:
    """Rank of A, by fraction-free (Bareiss) elimination; no normal form."""
    rows = matrix(A)
    if not rows:
        return 0
    return _bareiss([list(r) for r in rows])[0]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal.

    The diagonal is nonnegative, forms a divisibility chain, and any zero
    entries come last.  invariant_factors is that diagonal.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    invariant_factors: tuple[int, ...]


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    A = matrix(A)
    if not A:
        raise ValueError("empty matrix")
    m, n = len(A), len(A[0])
    D = [list(r) for r in A]
    U = [list(r) for r in identity_matrix(m)]
    V = [list(r) for r in identity_matrix(n)]

    def row_combine(i1, i2, x, y, z, w):
        # rows (i1, i2) <- [x y; z w] @ rows, with xw - yz == +-1
        for R in (D, U):
            top, bot = R[i1], R[i2]
            R[i1] = [x * s + y * t for s, t in zip(top, bot)]
            R[i2] = [z * s + w * t for s, t in zip(top, bot)]

    def col_combine(j1, j2, x, y, z, w):
        # cols (j1, j2) <- cols @ [x z; y w]
        for R in (D, V):
            for r in R:
                a, b = r[j1], r[j2]
                r[j1] = x * a + y * b
                r[j2] = z * a + w * b

    def row_swap(i1, i2):
        for R in (D, U):
            R[i1], R[i2] = R[i2], R[i1]

    def col_swap(j1, j2):
        for R in (D, V):
            for r in R:
                r[j1], r[j2] = r[j2], r[j1]

    k = min(m, n)
    for t in range(k):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (pivot is None or abs(D[i][j]) < pivot[0]):
                    pivot = (abs(D[i][j]), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # Clear column t, then row t, repeating while gcd steps cross-dirty
        # the other line.  Divisible entries are removed by plain
        # elimination (which cannot re-dirty anything); a full 2x2 gcd
        # transform strictly shrinks |D[t][t]|, so the loop terminates.
        while True:
            col_dirty = [i for i in range(m) if i != t and D[i][t]]
            if col_dirty:
                for i in col_dirty:
                    a, b = D[t][t], D[i][t]
                    if b % a == 0:
                        row_combine(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        row_combine(t, i, x, y, -(b // g), a // g)
                continue
            row_dirty = [j for j in range(n) if j != t and D[t][j]]
            if row_dirty:
                for j in row_dirty:
                    a, b = D[t][t], D[t][j]
                    if b % a == 0:
                        col_combine(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_combine(t, j, x, y, -(b // g), a // g)
                continue
            break

    for t in range(k):
        if D[t][t] < 0:
            for R in (D, U):
                R[t] = [-e for e in R[t]]

    def fix_pair(i, j):
        # replace diag entries (a, b) by (gcd, lcm) via a local 2x2 reduction
        a, b = D[i][i], D[j][j]
        col_combine(i, j, 1, 0, 1, 1)  # col_j += col_i
        g, x, y = xgcd(a, b)
        row_combine(i, j, x, y, -(b // g), a // g)
        col_swap(i, j)
        q = (x * a) // g  # exact: g divides a
        col_combine(i, j, 1, 0, -q, 1)  # col_j -= q * col_i
        if D[j][j] < 0:
            for r in D:
                r[j] = -r[j]
            for r in V:
                r[j] = -r[j]

    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if (a == 0 and b != 0) or (a != 0 and b % a != 0):
                fix_pair(i, i + 1)
                changed = True

    factors = tuple(D[i][i] for i in range(k))
    return SmithDecomposition(matrix(D), matrix(U), matrix(V), factors)


# ---------------------------------------------------------------------------
# kernels and lattice solving


def hyperplane_basis(u) -> IntMatrix:
    """The row Hermite basis of the lattice {x : u . x == 0}, u primitive.

    Read off u without a normal form.  Let l be the last nonzero index of
    u.  Each j > l, and each j < l with u_j == 0, gets the row e_j.  Any
    other j < l gets the pivot h_j = g / gcd(u_j, g), where g is the gcd
    of u_{j+1}, ..., u_{n-1}: the least x_j > 0 that some tail completes
    to a kernel vector.  The tail comes from a Bezout vector of that gcd,
    built by an xgcd chain from the right.  The entries above each pivot
    are then reduced into [0, pivot), which makes the basis the unique
    Hermite one.  Raises ValueError on a zero or non-primitive u.
    """
    u = vector(u)
    if math.gcd(*u) != 1:
        raise ValueError(f"{u} is not a primitive form")
    n = len(u)
    last = max(j for j, e in enumerate(u) if e)
    # bezout is zero left of the suffix u_{j+1}, ..., u_{n-1}, and
    # u . bezout == g, the gcd of that suffix
    g = abs(u[last])
    bezout = [0] * n
    bezout[last] = 1 if u[last] > 0 else -1
    rows = []
    for j in range(last - 1, -1, -1):
        uj = u[j]
        if uj:
            h = g // math.gcd(uj, g)
            q = -h * uj // g  # exact: g divides h * u_j
            row = [q * e for e in bezout]
            row[j] = h
            g, a, b = xgcd(uj, g)
            bezout = [b * e for e in bezout]
            bezout[j] = a
        else:
            row = [0] * n
            row[j] = 1
        rows.append(row)
    rows.reverse()
    for j in range(last + 1, n):
        row = [0] * n
        row[j] = 1
        rows.append(row)
    pivots = [j for j in range(n) if j != last]
    for i, row in enumerate(rows):
        for lower, col in zip(rows[i + 1 :], pivots[i + 1 :]):
            q = row[col] // lower[col]
            if q:
                row[:] = [s - q * t for s, t in zip(row, lower)]
    return tuple(map(tuple, rows))


def solve_in_hermite_basis(H, target) -> IntVector | None:
    """Integer y with y @ H == target, or None.

    H is in row Hermite form (hermite_normal_form's H, its nonzero rows,
    or a hyperplane_basis), so back-substitution along the pivots solves it
    without computing a normal form again.
    """
    y = [0] * len(H)
    rem = list(target)
    for i, hrow in enumerate(H):
        pcol = next((j for j, e in enumerate(hrow) if e), None)
        if pcol is None:
            break
        if rem[pcol] % hrow[pcol] != 0:
            return None
        q = rem[pcol] // hrow[pcol]
        if q:
            rem = [s - q * t for s, t in zip(rem, hrow)]
        y[i] = q
    if any(rem):
        return None
    return tuple(y)


def solve_in_row_lattice(rows, target) -> IntVector | None:
    """Integer c with sum(c[j] * rows[j]) == target, or None.

    The rows need not be independent; any valid coefficient vector is
    returned (a deterministic one).
    """
    rows = matrix(rows)
    if not rows:
        return None if any(target) else ()
    H, U = hermite_normal_form(rows)
    y = solve_in_hermite_basis(H, vector(target))
    return None if y is None else vec_mat(y, U)


def solve_rational(A, b) -> tuple[Fraction, ...] | None:
    """One exact solution of A @ x == b over the rationals, or None.

    Free variables are set to zero, so full-column-rank systems get their
    unique solution.  No library path calls it; the test oracles use it
    as a reference independent of the integer routines.
    """
    A = matrix(A)
    m = len(A)
    n = len(A[0]) if A else 0
    aug = [[Fraction(e) for e in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [e / pv for e in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [e - f * g for e, g in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None
    x = [Fraction(0)] * n
    for rr, cc in pivots:
        x[cc] = aug[rr][n]
    return tuple(x)


def adjugate_det(A: IntMatrix) -> tuple[IntMatrix, int]:
    """(adj A, det A) of a nonsingular square A, so A @ adj == det(A) * I.

    One fraction-free (Bareiss) Gauss-Jordan pass over [A | I] clears
    every column above and below its pivot; columns left of the pivot
    are never read again, so they are not updated.  Each entry after step
    k is a (k+1)-minor of the row-permuted [A | I], so every division by
    the previous pivot is exact.  The right block ends as d * A^-1 with d
    the last pivot, and each row swap flips the sign that turns it into
    adj A.  Raises ValueError when A is singular.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("adjugate needs a square matrix")
    M = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)]
    sign, prev = 1, 1
    for c in range(n):
        top = M[c]
        p = top[c]
        if not p:
            pivot = next((i for i in range(c + 1, n) if M[i][c]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            top, M[pivot] = M[pivot], top
            M[c] = top
            p = top[c]
            sign = -sign
        tail = top[c + 1 :]
        for i, row in enumerate(M):
            if i != c:
                a = row[c]
                row[c + 1 :] = [(e * p - a * t) // prev for e, t in zip(row[c + 1 :], tail)]
        prev = p
    adj = tuple(tuple(sign * e for e in row[n:]) for row in M)
    return adj, sign * prev


# ---------------------------------------------------------------------------
# primitivity and prime factors


def primitive(v) -> IntVector:
    """v divided by the gcd of its entries; direction is preserved."""
    v = vector(v)
    g = 0
    for e in v:
        g = math.gcd(g, e)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(e // g for e in v)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all twelve bases above
# (Sorenson and Webster, Math. Comp. 86, 2017)
MILLER_RABIN_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37.

    Proven deterministic for n < MILLER_RABIN_LIMIT (psi_12, about
    3.2e23); at or above it a composite could pass.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_BOUND = 1000
_RHO_SEED = 0x5EED1A7  # fixed: factoring must be deterministic


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n."""
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(2, n)
        y = x
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def largest_prime_factor(n: int) -> int:
    """Largest prime dividing n; 0 for n == 1.  n must be positive."""
    if n <= 0:
        raise ValueError("positive integer required")
    best = 0
    for p in range(2, _TRIAL_BOUND + 1):
        while n % p == 0:
            best = p
            n //= p
        if n == 1:
            return best
    rng = random.Random(_RHO_SEED)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            best = max(best, m)
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return best
