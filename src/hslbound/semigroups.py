"""Affine pointed semigroups over the lattice they generate.

An input list of integer vectors is reduced to coordinates on M, the
group it generates, so the cone of the semigroup is full-dimensional by
construction.  On top of that sit the membership oracle, the saturation
residue set, certified conductor-type translates (gamma) with the derived
constant m_Q, per-facet lattice data with invariant factors, and the
constant N_Q (largest prime dividing any invariant factor).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add, sub

from .cones import Cone, is_pointed, parallelepiped_points, sign_vector, triangulate
from .errors import BudgetExhaustedError, EmptyInputError, NotPointedError
from .intlinalg import (
    IntMatrix,
    IntVector,
    dot,
    hermite_normal_form,
    kernel_basis,
    largest_prime_factor,
    matrix,
    smith_normal_form,
    solve_in_hermite_basis,
    solve_in_row_lattice,
    vec_add,
)


@dataclass(frozen=True, eq=False)
class AffineSemigroup:
    """A pointed affine semigroup in coordinates on its own lattice.

    generators live in M-coordinates (rank = cone.dim); raw_generators and
    lattice_basis record the original ambient data.  The membership memo
    maps a point's support-form vector (u_1(v), ..., u_m(v)) to whether
    the point is in the semigroup.  The cone is pointed and
    full-dimensional, so its forms span the dual space and v -> u(v) is
    injective on M: each key names exactly one point.
    """

    raw_generators: IntMatrix
    lattice_basis: IntMatrix
    generators: IntMatrix
    cone: Cone
    grading: IntVector
    _memo: dict = field(default_factory=dict, repr=False)

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

    Zero generators are dropped (the identity is implicit).  Raises
    EmptyInputError when nothing is left and NotPointedError when the
    generated cone contains a line.
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
    grading = cone.grading
    if not all(dot(grading, g) > 0 for g in gens):
        raise AssertionError("grading is not positive on every generator")
    return AffineSemigroup(raws, basis, gens, cone, grading)


def sat_member(S: AffineSemigroup, v) -> bool:
    """v in the saturation, i.e. in the cone, decided by form signs."""
    return min(sign_vector(S.cone, v)) >= 0


def _contains(S: AffineSemigroup, c: IntVector) -> bool:
    """The point with support-form vector c is in the semigroup.

    Memoized descent along the grading: the point belongs iff c is zero
    or c - u(g) stays in the cone (every entry >= 0) and belongs, for some
    generator g.  The grading is strictly positive on generators, so each
    step drops it and the walk terminates; the cone test keeps the
    explored set inside a bounded region.
    """
    memo = S._memo
    cached = memo.get(c)
    if cached is not None:
        return cached
    if min(c) < 0:
        return False
    steps = S.cone.generator_forms
    stack = [c]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        if not any(u):
            memo[u] = True
            stack.pop()
            continue
        pending = []
        value = False
        for g in steps:
            d = tuple(map(sub, u, g))
            if min(d) < 0:
                continue
            known = memo.get(d)
            if known is True:
                value = True
                break
            if known is None:
                pending.append(d)
        if value:
            memo[u] = True
            stack.pop()
        elif pending:
            stack.extend(pending)
        else:
            memo[u] = False
            stack.pop()
    return memo[c]


def member(S: AffineSemigroup, v) -> bool:
    """v in the semigroup, by the memoized walk on v's support-form vector.

    Raises ValueError when v does not have S.dim entries.
    """
    return _contains(S, sign_vector(S.cone, tuple(int(e) for e in v)))


def express(S: AffineSemigroup, v) -> tuple[int, ...] | None:
    """Nonnegative generator multiplicities summing to v, or None.

    Reconstructed by walking the membership memo downhill; the result is
    deterministic (first usable generator at each step).  Raises
    ValueError when v does not have S.dim entries.
    """
    c = sign_vector(S.cone, tuple(int(e) for e in v))
    if not _contains(S, c):
        return None
    steps = S.cone.generator_forms
    coeffs = [0] * len(steps)
    while any(c):
        for j, g in enumerate(steps):
            d = tuple(map(sub, c, g))
            if _contains(S, d):
                coeffs[j] += 1
                c = d
                break
        else:  # pragma: no cover - contradicts _contains(c) being True
            raise AssertionError("membership walk lost its way")
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# saturation residues and gamma certificates


@dataclass(frozen=True)
class SaturationData:
    """The finite residue set B: every saturation point is q + rho with q a
    nonnegative sum of extreme-ray generators and rho in B."""

    residues: tuple[IntVector, ...]


def saturation_residues(S: AffineSemigroup) -> SaturationData:
    pts = set()
    rays = S.cone.extreme_rays
    for sub in triangulate(S.cone):
        chosen = [rays[i] for i in sub.ray_indices]
        pts.update(parallelepiped_points(sub, chosen))
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
            if len(coeffs) != len(S.generators):
                return None
            out = S.zero
            for c, g in zip(coeffs, S.generators):
                if c < 0:
                    return None
                out = vec_add(out, tuple(c * e for e in g))
            return out

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


def _ordered_residues(S: AffineSemigroup) -> list[IntVector]:
    """The saturation residues by grading, then lexicographically: the
    order in which candidates are tested and witnesses are listed."""
    return sorted(saturation_residues(S).residues, key=lambda r: (dot(S.grading, r), r))


def _valid(S, values, residue_values) -> bool:
    """gamma and gamma + rho lie in the semigroup for every residue rho,
    all given by their support-form vectors; stops at the first residue
    that fails."""
    return _contains(S, values) and all(
        _contains(S, tuple(map(add, values, r))) for r in residue_values
    )


def _certify(S, gamma, values, residues) -> GammaCertificate:
    """Witnesses for a gamma that passed _valid, residue by residue."""
    witnesses = tuple((rho, express(S, vec_add(gamma, rho))) for rho in residues)
    return GammaCertificate(gamma, express(S, gamma), values, max(values), witnesses)


def verify_gamma(S: AffineSemigroup, gamma) -> GammaCertificate | None:
    """Certificate for gamma, or None if gamma does not work.

    Checking the finitely many residues suffices: any saturation point s
    splits as q + rho with q in the semigroup, so gamma + s =
    (gamma + rho) + q.  Conversely each rho is itself a saturation point.
    """
    gamma = tuple(int(e) for e in gamma)
    values = sign_vector(S.cone, gamma)
    residues = _ordered_residues(S)
    residue_values = [sign_vector(S.cone, rho) for rho in residues]
    if not _valid(S, values, residue_values):
        return None
    return _certify(S, gamma, values, residues)


def find_gamma(S: AffineSemigroup, budget: int = 10000) -> GammaCertificate:
    """The certificate of the valid gamma with the least key
    (max_i u_i(gamma), grading . gamma, gamma).

    Candidates are generator sums, popped best-first by that key.  Every
    support form is nonnegative, and the grading positive, on every
    generator, so a generator step strictly raises the key: candidates pop
    in key order, and the first one that passes (gamma + rho in the
    semigroup for every residue rho) is optimal.  Each candidate carries
    its support-form vector, the sum of its generators' vectors, and is
    tested on it and on that vector plus each residue's, by the memoized
    walk; witnesses are built for the winner alone.

    budget is the number of candidates popped.  When it runs out first,
    BudgetExhaustedError reports that count and the largest grading level
    popped.
    """
    residues = _ordered_residues(S)
    residue_values = [sign_vector(S.cone, rho) for rho in residues]
    steps = [
        (step_values, dot(S.grading, g), g)
        for step_values, g in zip(S.cone.generator_forms, S.generators)
    ]
    # entries are (max facet value, grading level, gamma, facet values)
    heap = [(0, 0, S.zero, (0,) * len(S.support_forms))]
    seen = {S.zero}
    examined = 0
    max_level = 0
    while heap and examined < budget:
        _, level, gamma, values = heapq.heappop(heap)
        examined += 1
        max_level = max(max_level, level)
        if _valid(S, values, residue_values):
            return _certify(S, gamma, values, residues)
        for step_values, step_level, g in steps:
            nxt = vec_add(gamma, g)
            if nxt not in seen:
                seen.add(nxt)
                nxt_values = vec_add(values, step_values)
                heapq.heappush(heap, (max(nxt_values), level + step_level, nxt, nxt_values))
    raise BudgetExhaustedError(examined, max_level)


# ---------------------------------------------------------------------------
# facets


@dataclass(frozen=True)
class FacetData:
    """Lattice data of one facet of the cone.

    facet_gens generate the facet semigroup (a generator sum can only land
    on the facet if every summand does, since the form is nonnegative on
    all generators).  coord_matrix expresses them in the hyperplane basis;
    its Smith invariant factors measure the index of the facet semigroup's
    lattice inside the full hyperplane lattice.  smith_v is the column
    transform V of that Smith form: hyperplane coordinates a lie in the
    facet lattice iff each invariant factor d_j divides (a @ V)_j.
    """

    index: int
    support_form: IntVector
    facet_gen_indices: tuple[int, ...]
    facet_gens: IntMatrix
    hyperplane_basis: IntMatrix
    coord_matrix: IntMatrix
    invariant_factors: tuple[int, ...]
    interior_element: IntVector
    smith_v: IntMatrix


def facet_data(S: AffineSemigroup, i: int) -> FacetData:
    n = S.dim
    u = S.support_forms[i]
    idxs = S.cone.facet_generator_sets[i]
    fgens = tuple(S.generators[j] for j in idxs)
    if n == 1:
        return FacetData(i, u, idxs, fgens, (), (), (), S.zero, ())
    basis = kernel_basis((u,))
    if len(basis) != n - 1:
        raise AssertionError(f"facet {i}: hyperplane lattice has rank {len(basis)}, not {n - 1}")
    coords = matrix([solve_in_hermite_basis(basis, g) for g in fgens])
    snf = smith_normal_form(coords)
    # the generators span the hyperplane iff there are n-1 nonzero factors
    if len(snf.invariant_factors) != n - 1 or 0 in snf.invariant_factors:
        raise AssertionError(f"facet {i}: facet generators do not span the hyperplane")
    interior = S.zero
    for g in fgens:
        interior = vec_add(interior, g)
    for j, other in enumerate(S.support_forms):
        if j != i and dot(other, interior) <= 0:
            raise AssertionError(f"facet {i}: generator sum lies on facet {j}")
    return FacetData(i, u, idxs, fgens, basis, coords, snf.invariant_factors, interior, snf.v)


def all_facet_data(S: AffineSemigroup) -> tuple[FacetData, ...]:
    return tuple(facet_data(S, i) for i in range(len(S.support_forms)))


def facet_witness_combo(fd: FacetData, v) -> tuple[int, ...] | None:
    """Integer coefficients over facet_gens expressing v, or None."""
    if not fd.facet_gens:
        return () if not any(v) else None
    return solve_in_row_lattice(fd.facet_gens, v)


def n_q(S: AffineSemigroup, facets: tuple[FacetData, ...] | None = None) -> int:
    """Largest prime dividing any facet invariant factor; 0 if all are 1."""
    if facets is None:
        facets = all_facet_data(S)
    ds = [d for fd in facets for d in fd.invariant_factors if d > 1]
    if not ds:
        return 0
    return max(largest_prime_factor(d) for d in ds)
