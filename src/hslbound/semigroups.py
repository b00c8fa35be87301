"""Affine pointed semigroups over the lattice they generate.

An input list of integer vectors is reduced to coordinates on M, the
group it generates, so the cone of the semigroup is full-dimensional by
construction.  On top of that sit the membership oracle, the saturation
residue set, certified conductor-type translates (gamma) with the derived
constant m_Q, per-facet lattice data with invariant factors, and the
constant N_Q (largest prime dividing any invariant factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from math import inf
from operator import add, sub

from .cones import Cone, is_pointed, parallelepiped_points, sign_vector, triangulate
from .errors import BudgetExhaustedError, EmptyInputError, NotPointedError
from .intlinalg import (
    IntMatrix,
    IntVector,
    dot,
    hermite_normal_form,
    hyperplane_basis,
    largest_prime_factor,
    matrix,
    smith_normal_form,
    solve_in_hermite_basis,
    vec_add,
    vec_mat,
    vector,
)


class _AperyTable:
    """The least grading of the semigroup on each line c + Z·u(e).

    e is the generator of least grading (ties to the lowest index, j) and
    lines are keyed by c - floor(c_i / u_i(e))·u(e) for the fixed i where
    u(e) is largest.  The semigroup meets a line in {q + t·u(e) : t >= 0}
    or not at all, and the least element q uses no e, so the table is a
    shortest-path search from the line of 0 with one edge per other
    generator, weighted by its grading (the Apéry set along e, built as
    by Nijenhuis 1979).
    settle(G) pops it until every heap entry exceeds G (an inf entry ends
    it), when each line of least grading at most G is final.  The key of
    c + r is the sum of theirs, less u(e) if their i-th entries reach
    u_i(e); reduce(r) readies both, once per generator step or residue.
    """

    __slots__ = ("j", "_e", "_i", "_top", "_least_step", "_steps", "_least", "_heap")

    def __init__(self, generator_forms: IntMatrix):
        gradings = [sum(g) for g in generator_forms]
        j = self.j = gradings.index(min(gradings))
        e = self._e = generator_forms[j]
        self._i = e.index(max(e))
        self._top = max(gradings)
        self._steps = [self.reduce(g) for k, g in enumerate(generator_forms) if k != j]
        self._least_step = min([s[0] for s in self._steps], default=inf)
        zero = (0,) * len(e)
        self._least = {zero: 0}
        self._heap = [(0, zero), (inf, ())]

    def key(self, c: IntVector) -> IntVector:
        t = c[self._i] // self._e[self._i]
        return tuple([a - t * b for a, b in zip(c, self._e)]) if t else c

    def reduce(self, r: IntVector) -> tuple:
        """(sum(r), key, key - u(e), u_i(e) - key_i)."""
        key = self.key(r)
        return sum(r), key, tuple(map(sub, key, self._e)), self._e[self._i] - key[self._i]

    def settle(self, level: int) -> None:
        least = self._least
        heap = self._heap
        while heap[0][0] <= level:
            d, line = heappop(heap)
            if d > least[line]:
                continue
            r = line[self._i]
            for grade, low, high, carry in self._steps:
                nxt = tuple(map(add, line, high if r >= carry else low))
                nd = d + grade
                if nd < least.get(nxt, nd + 1):
                    least[nxt] = nd
                    heappush(heap, (nd, nxt))

    def first_failure(self, level, key, reduced: list):
        """None if c (grading level, line key) passes: c + rho is in for
        each reduce(rho) in reduced.  Else the failing rho moves to the
        front and the result is b - sum(rho), b = min(least.get(line, inf),
        top + s) for s the least step grading and top the frontier's, stale
        or not.  b exceeds the grading of c + rho, which the table settles
        to, and bounds the least grading on its line, so chain points
        c + k·u(e) below b fail too: a shortest path to an unsettled line
        enters the frontier at L', least[L'] = d(L') >= top, and stops or
        takes a step.
        """
        least = self._least
        heap = self._heap
        ki = key[self._i]
        for k, (grade, low, high, carry) in enumerate(reduced):
            top = level + grade
            if heap[0][0] <= top:
                self.settle(top)
            b = least.get(tuple(map(add, key, high if ki >= carry else low)), inf)
            if b > top:
                if k:
                    reduced.insert(0, reduced.pop(k))
                return min(b, heap[0][0] + self._least_step) - grade
        return None

    def tree(self, line, level):
        """(k, line') for each step k (the generators but e) from the least
        point of line, of grading level, to the least point of line'.  It
        settles the table up to level plus the largest generator grading."""
        self.settle(level + self._top)
        least = self._least
        r = line[self._i]
        for k, (grade, low, high, carry) in enumerate(self._steps):
            nxt = tuple(map(add, line, high if r >= carry else low))
            if least.get(nxt) == level + grade:
                yield k, nxt

    def contains(self, c: IntVector) -> bool:
        """c is in the semigroup.  c must be a point of the cone (entries
        >= 0); _contains checks that first."""
        level = sum(c)
        if self._heap[0][0] <= level:
            self.settle(level)
        return self._least.get(self.key(c), level + 1) <= level


@dataclass(frozen=True, eq=False)
class AffineSemigroup:
    """A pointed affine semigroup in coordinates on its own lattice.

    generators live in M-coordinates (rank = cone.dim); raw_generators and
    lattice_basis record the original ambient data.  Membership is asked
    of a point's support-form vector (u_1(v), ..., u_m(v)); the cone is
    pointed and full-dimensional, so v -> u(v) is injective on M.  The
    Apéry table answers, grown up to the largest grading asked.  _memo
    caches one answer per vector that member, the sweep or a certificate's
    shared witness walk asks inside the cone; the gamma search caches none.
    _facet_walks keeps one capped-search element list per facet index
    (cohomology._facet_elements), grown only as far as a search reads.
    """

    raw_generators: IntMatrix
    lattice_basis: IntMatrix
    generators: IntMatrix
    cone: Cone
    grading: IntVector
    _memo: dict = field(default_factory=dict, repr=False)
    _facet_walks: dict = field(default_factory=dict, repr=False)

    @cached_property
    def _apery(self) -> _AperyTable:
        # built on the first query, so a semigroup never asked holds no table
        return _AperyTable(self.cone.generator_forms)

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def support_forms(self) -> IntMatrix:
        return self.cone.support_forms

    @property
    def zero(self) -> IntVector:
        return (0,) * self.dim


def build(raw_generators) -> AffineSemigroup:
    """Construct the semigroup, reducing to coordinates on its lattice.

    Zero generators are dropped (the identity is implicit); a non-int
    entry raises TypeError (intlinalg.vector).  Raises EmptyInputError
    when nothing is left and NotPointedError when the generated cone
    contains a line, that is, when the grading (the sum of the support
    forms) vanishes on some generator.
    """
    raws = matrix(raw_generators)
    gens_ambient = tuple(g for g in raws if any(g))
    if not gens_ambient:
        raise EmptyInputError("need at least one nonzero generator")
    H, _ = hermite_normal_form(gens_ambient)
    basis = tuple(r for r in H if any(r))
    n = len(basis)
    gens = tuple(solve_in_hermite_basis(basis, g) for g in gens_ambient)
    cone = Cone.from_generators(gens, n)
    if not is_pointed(cone):
        raise NotPointedError("the cone generated by the input contains a line")
    return AffineSemigroup(raws, basis, gens, cone, cone.grading)


def _contains(S: AffineSemigroup, c: IntVector) -> bool:
    """The point with support-form vector c is in the semigroup.

    A point with a negative entry is outside the cone.  Any other is in
    iff its line c + Z·u(e) is reached at a least grading <= sum(c).
    Answers are cached in S._memo.  member, the witness walks, the sweep
    and verify_gamma's gamma ask here; residue tests ask the table.
    """
    memo = S._memo
    cached = memo.get(c)
    if cached is None:
        if min(c) < 0:
            return False
        cached = memo[c] = S._apery.contains(c)
    return cached


def member(S: AffineSemigroup, v) -> bool:
    """v in the semigroup, decided on v's support-form vector.

    Raises ValueError when v does not have S.dim entries.
    """
    return _contains(S, sign_vector(S.cone, vector(v)))


def _witnesses(S: AffineSemigroup, points):
    """Generator multiplicities summing to each form vector in points, or
    None, by one greedy walk downhill: at each point, the first generator
    whose removal stays in the semigroup.  A transient dict records it per
    point, so merging walks test each point once.
    """
    steps = S.cone.generator_forms
    removed = {}
    for c in points:
        if not _contains(S, c):
            yield None
            continue
        coeffs = [0] * len(steps)
        while any(c):
            j = removed.get(c)
            if j is None:
                for j, g in enumerate(steps):
                    d = tuple(map(sub, c, g))
                    if _contains(S, d):
                        removed[c] = j
                        break
                else:  # pragma: no cover
                    raise AssertionError("no generator can be removed from a member")
            else:
                d = tuple(map(sub, c, steps[j]))
            coeffs[j] += 1
            c = d
        yield tuple(coeffs)


def express(S: AffineSemigroup, v) -> tuple[int, ...] | None:
    """Nonnegative generator multiplicities summing to v, or None: the
    shared witness walk (_witnesses) on v alone.  Raises ValueError when
    v does not have S.dim entries.
    """
    return next(_witnesses(S, [sign_vector(S.cone, vector(v))]))


# ---------------------------------------------------------------------------
# saturation residues and gamma certificates


@dataclass(frozen=True)
class SaturationData:
    """The finite residue set B: every saturation point is q + rho with q a
    nonnegative sum of extreme-ray generators and rho in B."""

    residues: tuple[IntVector, ...]


def saturation_residues(S: AffineSemigroup) -> SaturationData:
    pts = set()
    for sub in triangulate(S.cone):
        pts.update(parallelepiped_points(sub))
    return SaturationData(tuple(sorted(pts)))


@dataclass(frozen=True)
class GammaCertificate:
    """A verified translate: gamma + (every saturation point) stays in the
    semigroup, witnessed residue by residue.

    facet_values are the support form values at gamma; m_q is their
    maximum and drives the nilpotence bound.  The minimum is kept around
    for reporting but certifies nothing.
    """

    gamma: IntVector
    gamma_coeffs: tuple[int, ...]
    facet_values: tuple[int, ...]
    m_q: int
    residue_witnesses: tuple[tuple[IntVector, tuple[int, ...]], ...]

    @property
    def min_facet_value(self) -> int:
        return min(self.facet_values)

    def recheck(self, S: AffineSemigroup) -> bool:
        """Re-verify the certificate by arithmetic on the witnesses.

        gamma and each gamma + rho must be the listed nonnegative generator
        combinations, the listed residues must be exactly the saturation
        residues, and facet_values and m_q must be the form values of gamma
        and their maximum.
        """

        def combo(coeffs):
            if len(coeffs) != len(S.generators) or any(c < 0 for c in coeffs):
                return None
            return vec_mat(coeffs, S.generators)

        if combo(self.gamma_coeffs) != self.gamma:
            return False
        for rho, coeffs in self.residue_witnesses:
            if combo(coeffs) != vec_add(self.gamma, rho):
                return False
        residues = sorted(rho for rho, _ in self.residue_witnesses)
        if residues != list(saturation_residues(S).residues):
            return False
        if self.facet_values != sign_vector(S.cone, self.gamma):
            return False
        return self.m_q == max(self.facet_values)


def _residues(S: AffineSemigroup):
    """The residues by grading, then lexicographically, their form vectors,
    and those reduced for first_failure, which reorders that list."""
    residues = sorted(saturation_residues(S).residues, key=lambda r: (dot(S.grading, r), r))
    values = [sign_vector(S.cone, rho) for rho in residues]
    return residues, values, [S._apery.reduce(r) for r in values]


def _certify(S, gamma, values, residues, residue_values) -> GammaCertificate:
    """Witnesses for a valid gamma and each gamma + rho, in one walk."""
    coeffs, *witnesses = _witnesses(S, [values] + [vec_add(values, r) for r in residue_values])
    return GammaCertificate(gamma, coeffs, values, max(values), tuple(zip(residues, witnesses)))


def verify_gamma(S: AffineSemigroup, gamma) -> GammaCertificate | None:
    """Certificate for gamma, or None if gamma does not work.

    Checking the finitely many residues suffices: any saturation point s
    splits as q + rho with q in the semigroup, so gamma + s =
    (gamma + rho) + q.  Conversely each rho is itself a saturation point.
    gamma is arbitrary, so _contains asks its own membership first,
    rejecting a negative form value before first_failure's lookups.
    """
    gamma = vector(gamma)
    values = sign_vector(S.cone, gamma)
    residues, residue_values, reduced = _residues(S)
    if not _contains(S, values):
        return None
    if S._apery.first_failure(sum(values), S._apery.key(values), reduced) is not None:
        return None
    return _certify(S, gamma, values, residues, residue_values)


def find_gamma(S: AffineSemigroup, budget: int = 10000) -> GammaCertificate:
    """The certificate of the valid gamma with the least key
    (max_i u_i(gamma), grading . gamma, gamma).

    The semigroup is the disjoint union of chains h + N·e, h the least
    point (head) of an Apéry line.  A head is pushed when its parent in
    the table's shortest-path tree pops (table.tree), any other point by
    the probe before it on its chain: each point at most once, and each
    push raises the key, so probes pop in key order and the first that
    passes table.first_failure is optimal.  Probes are points of the
    semigroup, so only probe + rho is tested.  A failed probe's chain
    resumes at its first point of grading at least what that returns;
    every point skipped fails, so the winner is the one a walk over every
    generator sum would return.  The residue order changes the probes,
    not the winner.  No answer is cached, and the frontier is freed
    before one walk builds the winner's witnesses.

    budget is the number of probes popped.  When it runs out first,
    BudgetExhaustedError reports that count and the largest grading level
    popped.
    """
    residues, residue_values, reduced = _residues(S)
    table = S._apery
    first_failure = table.first_failure
    pop, push = heappop, heappush
    steps = [(g, u, sum(u)) for g, u in zip(S.generators, S.cone.generator_forms)]
    e, e_values, e_level = steps.pop(table.j)
    zero = (0,) * len(S.support_forms)
    # entries are (max facet value, grading level, gamma, facet values, line, is head)
    heap = [(0, 0, S.zero, zero, zero, True)]
    heads = {zero}
    examined = 0
    max_level = 0
    while heap and examined < budget:
        _, level, gamma, values, line, head = pop(heap)
        examined += 1
        max_level = max(max_level, level)
        if head:
            for k, nxt in table.tree(line, level):
                if nxt not in heads:
                    heads.add(nxt)
                    g, u, grade = steps[k]
                    w = tuple(map(add, values, u))
                    push(heap, (max(w), level + grade, tuple(map(add, gamma, g)), w, nxt, True))
        below = first_failure(level, line, reduced)
        if below is None:
            break
        if below < inf:
            t = (below - level - 1) // e_level + 1
            w = tuple([a + t * b for a, b in zip(values, e_values)])
            gamma = tuple([a + t * b for a, b in zip(gamma, e)])
            push(heap, (max(w), level + t * e_level, gamma, w, line, False))
    else:
        raise BudgetExhaustedError(examined, max_level)
    del heap, heads
    return _certify(S, gamma, values, residues, residue_values)


# ---------------------------------------------------------------------------
# facets


@dataclass(frozen=True)
class FacetData:
    """Lattice data of one facet of the cone.

    facet_gens generate the facet semigroup (a generator sum can only land
    on the facet if every summand does, since the form is nonnegative on
    all generators).  invariant_factors are the nonzero Smith invariant
    factors of facet_gens themselves, taken in Z^n: the support form u is
    primitive, so the hyperplane lattice H = {x : u . x == 0} is a direct
    summand of Z^n and Z^n / L ≅ (H / L) ⊕ Z, L the lattice of the facet
    semigroup.  They measure L's index inside H: the quotient H / L is
    finite, and the largest factor is a multiple of the order of each of
    its elements.  interior_element, the sum of facet_gens, lies on this
    facet and strictly inside every other facet's half-space.

    coord_matrix expresses the facet generators in the Hermite basis of H,
    read off the Hermite form of the rows (u_j, e_j)
    (intlinalg.hyperplane_basis); its invariant factors are the same.  No
    pipeline step reads it, so it is built on first read and kept.  The
    Hermite form (H, U) of facet_gens, which facet_witness_combo solves
    against, is likewise built on the first solve and kept, as
    AffineSemigroup._apery is.
    """

    index: int
    support_form: IntVector
    facet_gen_indices: tuple[int, ...]
    facet_gens: IntMatrix
    invariant_factors: tuple[int, ...]
    interior_element: IntVector

    @cached_property
    def coord_matrix(self) -> IntMatrix:
        basis = hyperplane_basis(self.support_form)
        return matrix([solve_in_hermite_basis(basis, g) for g in self.facet_gens])

    @cached_property
    def _hermite(self) -> tuple[IntMatrix, IntMatrix]:
        return hermite_normal_form(self.facet_gens)


def facet_data(S: AffineSemigroup, i: int) -> FacetData:
    n = S.dim
    u = S.support_forms[i]
    idxs = S.cone.facet_generator_sets[i]
    fgens = tuple(S.generators[j] for j in idxs)
    if n == 1:
        return FacetData(i, u, idxs, fgens, (), S.zero)
    factors = tuple(d for d in smith_normal_form(fgens) if d)
    # the generators span the hyperplane iff there are n-1 nonzero factors
    if len(factors) != n - 1:
        raise AssertionError(f"facet {i}: facet generators do not span the hyperplane")
    # the generators' form vectors sum to the form vector of their sum
    values = vec_mat((1,) * len(idxs), [S.cone.generator_forms[j] for j in idxs])
    for j, value in enumerate(values):
        if j != i and value <= 0:
            raise AssertionError(f"facet {i}: generator sum lies on facet {j}")
    return FacetData(i, u, idxs, fgens, factors, vec_mat((1,) * len(fgens), fgens))


def all_facet_data(S: AffineSemigroup) -> tuple[FacetData, ...]:
    return tuple(facet_data(S, i) for i in range(len(S.support_forms)))


def facet_witness_combo(fd: FacetData, v) -> tuple[int, ...] | None:
    """Integer coefficients over facet_gens expressing v, or None.

    Back-substitution along the facet's kept Hermite form H = U @ facet_gens
    gives y with y @ H == v, and y @ U are the coefficients.
    """
    if not fd.facet_gens:
        return () if not any(v) else None
    H, U = fd._hermite
    y = solve_in_hermite_basis(H, vector(v))
    return None if y is None else vec_mat(y, U)


def n_q(S: AffineSemigroup, facets: tuple[FacetData, ...] | None = None) -> int:
    """Largest prime dividing any facet invariant factor; 0 if all are 1."""
    if facets is None:
        facets = all_facet_data(S)
    ds = [d for fd in facets for d in fd.invariant_factors if d > 1]
    if not ds:
        return 0
    return max(largest_prime_factor(d) for d in ds)


# ---------------------------------------------------------------------------
# the bound

MAX_WINDOW_DEGREES = 10**6  # empirical_hsl refuses a box of more degrees, (2w+1)^rank


def check_window(window: int, rank: int) -> None:
    """Refuse a box [-window, window]^rank of more than MAX_WINDOW_DEGREES
    degrees, with a ValueError that names its size."""
    degrees = (2 * window + 1) ** rank
    if degrees > MAX_WINDOW_DEGREES:
        raise ValueError(
            f"window {window} at rank {rank} spans {degrees} degrees,"
            f" more than the limit of {MAX_WINDOW_DEGREES}"
        )


def _check_limits(p: int, **limits: int | None) -> None:
    """Refuse p < 2, whose powers never reach m_q, and negative limits; None is unset."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    for name, value in limits.items():
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def theoretical_bound(cert: GammaCertificate, nq: int, p: int) -> int | None:
    """ceil(log_p m_q), i.e. the least e with p^e >= m_q; None if p <= nq.

    m_q <= 1 (the saturated case m_q = 0 too) gives 0; p < 2 raises ValueError.
    """
    _check_limits(p)
    if p <= nq:
        return None
    return _least_exponent(cert.m_q, p)


def _least_exponent(m: int, p: int) -> int:
    """The least e with p^e >= m."""
    e = 0
    power = 1
    while power < m:
        power *= p
        e += 1
    return e
