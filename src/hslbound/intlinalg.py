"""Exact integer linear algebra: normal forms, hyperplane lattices, primes.

Vectors are tuples of Python ints and matrices are tuples of row tuples,
so everything runs on arbitrary-precision integers.  Normal-form pipelines
(Hermite, Smith) can blow up intermediate entries far past machine width,
which is why nothing here ever touches floating point or fixed-width
arithmetic.
"""

from __future__ import annotations

import math
import random
from operator import add, index, mul, sub

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


# ---------------------------------------------------------------------------
# small vector / matrix helpers


def vector(entries) -> IntVector:
    """The entries as ints, through operator.index: a float, Fraction or
    string raises TypeError rather than being truncated."""
    return tuple(map(index, entries))


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
    return tuple([c * a for a in v])


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_mat(x: IntVector, A: IntMatrix) -> IntVector:
    """x @ A with x a row vector."""
    if len(x) != len(A):
        raise ValueError("length mismatch")
    return tuple(sum(map(mul, x, col)) for col in zip(*A))


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


# ---------------------------------------------------------------------------
# independent rows and their dual basis


def dual_basis(A) -> tuple[tuple[int, ...], int, IntMatrix]:
    """(P, d, B): the rows P of A independent of the rows before them, and
    when they are n, d = |det A_P| and the rows B with B[j] . A[P[k]] ==
    d * (j == k).

    One fraction-free (Bareiss) Gauss-Jordan pass runs over [A^T | I]:
    a column of A^T with a nonzero entry from the current row down is a
    pivot, so P is picked greedily in order and len(P) is the rank of A,
    and a column without one is skipped.  Every entry after a step is a
    minor of the row-permuted [A^T | I] (Sylvester's identity), so each
    division by the previous pivot is exact; columns left of a pivot are
    never read again, so they are not updated.  With n pivots the right
    block E has E @ A_P^T == p * I, p the last pivot and |p| == d, so B =
    sign(p) * E is sign(det A_P) times the transposed adjugate of A_P.
    With fewer, d is 0 and B is empty.
    """
    n = len(A[0]) if A else 0
    if any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    k = len(A)
    M = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*A))]
    picked = []
    r, prev = 0, 1
    for c in range(k):
        if r == n:
            break
        pivot = next((i for i in range(r, n) if M[i][c]), None)
        if pivot is None:
            continue
        picked.append(c)
        top = M[pivot]
        M[r], M[pivot] = top, M[r]
        p = top[c]
        tail = top[c + 1 :]
        for i, row in enumerate(M):
            if i != r:
                a = row[c]
                row[c + 1 :] = [(e * p - a * t) // prev for e, t in zip(row[c + 1 :], tail)]
        prev = p
        r += 1
    if r < n:
        return tuple(picked), 0, ()
    sign = 1 if prev > 0 else -1
    return tuple(picked), sign * prev, tuple(tuple(sign * e for e in row[k:]) for row in M)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(A: IntMatrix) -> tuple[int, ...]:
    """The invariant factors of A: the diagonal of its Smith normal form.

    Some unimodular U and V have U @ A @ V == diag(d_1, ..., d_k), k =
    min(m, n), with every d_j >= 0, d_j dividing d_{j+1}, and the zero
    factors last; neither is built.  Step t is least-remainder
    elimination: an entry p of least absolute value moves to (t, t), and
    column t and row t are reduced by floor division by p.  A nonzero
    remainder is smaller than |p|, so it is the next pivot and the step
    restarts.  Once both are clear, a later row with an entry that p does
    not divide is added to row t, which restarts the step at the same p
    and leaves such a remainder; with none, d_t = |p|.
    """
    A = matrix(A)
    if not A:
        raise ValueError("empty matrix")
    m, n = len(A), len(A[0])
    k = min(m, n)
    D = [list(r) for r in A]
    factors = []
    for t in range(k):
        while True:
            # ties go to the lowest (i, j), so a restart keeps a least p at (t, t)
            least = min(
                ((abs(e), i, j) for i in range(t, m) for j in range(t, n) if (e := D[i][j])),
                default=None,
            )
            if least is None:
                return tuple(factors) + (0,) * (k - t)
            _, pi, pj = least
            D[t], D[pi] = D[pi], D[t]
            rest = D[t:]  # zero left of column t, as rows before t are right of it
            for r in rest:
                r[t], r[pj] = r[pj], r[t]
            top = D[t]
            p = top[t]
            clear = True
            for r in rest[1:]:
                q = r[t] // p
                if q:
                    r[t:] = [a - q * b for a, b in zip(r[t:], top[t:])]
                clear = clear and not r[t]
            for j in range(t + 1, n):
                q = top[j] // p
                if q:
                    for r in rest:
                        r[j] -= q * r[t]
                clear = clear and not top[j]
            if not clear:
                continue
            bad = next((r for r in rest[1:] if any(e % p for e in r[t + 1 :])), None)
            if bad is None:
                break
            D[t] = [a + b for a, b in zip(top, bad)]
        factors.append(abs(p))
    return tuple(factors)


# ---------------------------------------------------------------------------
# hyperplane lattices and lattice solving


def hyperplane_basis(u) -> IntMatrix:
    """The row Hermite basis of the lattice {x : u . x == 0}, u primitive.

    The rows (u_j, e_j) span the lattice of all (u . x, x).  Their Hermite
    form starts with the row (gcd(u), ...) = (1, ...), and every other row
    is some (0, x) with u . x == 0, so the x parts are the unique Hermite
    basis of the kernel.  Raises ValueError on a zero or non-primitive u.
    """
    u = vector(u)
    if math.gcd(*u) != 1:
        raise ValueError(f"{u} is not a primitive form")
    H, _ = hermite_normal_form([(e,) + row for e, row in zip(u, identity_matrix(len(u)))])
    return tuple(row[1:] for row in H[1:])


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


def solve_rational(A, b) -> tuple[Fraction, ...] | None:
    """One exact solution of A @ x == b over the rationals, or None.

    Free variables are set to zero, so full-column-rank systems get their
    unique solution.  No library path calls it; the test oracles use it
    as a reference independent of the integer routines.
    """
    from fractions import Fraction  # imported here, as no library path calls this

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
        if is_prime(m):
            best = max(best, m)
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return best
