"""Rational polyhedral cones with exact dual descriptions.

Machinery for full-dimensional cones over a lattice: inward facet normals
(support forms), pointedness, sign-pattern region tags relative to the
cone and its negative, placing triangulations into simplicial subcones,
and half-open fundamental parallelepipeds.  All arithmetic is on
integers: barycentric coordinates in a simplicial subcone with ray
matrix R are adj(R) @ x / det(R), so their signs and floors come from
integer products and floor division, without rationals.

No rank or sign question here needs a normal form.  The double
description keeps a candidate ray iff no other candidate's zero set
strictly contains its own, and each candidate's zero set is derived from
its parents' zero sets rather than from dot products; a generator spans
an extreme ray by the same test on the generators' zero sets.  A ridge
normal of the triangulation is the vector of signed maximal minors of
its rays; ranks come from fraction-free elimination
(intlinalg.matrix_rank).  A parallelepiped takes its adjugate and
determinant from one elimination pass (intlinalg.adjugate_det), and it
reads only the diagonal of the rays' Hermite form: the sides of the box
it walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul

from .intlinalg import (
    IntMatrix,
    IntVector,
    adjugate_det,
    det,
    dot,
    hermite_normal_form,
    matrix,
    matrix_rank,
    primitive,
    transpose,
    vec_neg,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class SimplicialSubcone:
    """A full-dimensional simplicial piece of a triangulated cone.

    ray_indices index into the parent cone's extreme_ray_reps; determinant
    is |det| of the chosen ray generators, which is also the lattice point
    count of the half-open fundamental parallelepiped.
    """

    ray_indices: tuple[int, ...]
    determinant: int


@dataclass(frozen=True)
class RegionTag:
    kind: str
    zero_facets: tuple[int, ...] = ()


@dataclass(frozen=True)
class Cone:
    """A full-dimensional cone with its dual description.

    generator_forms[j] is the support-form vector (u_1(g_j), ..., u_m(g_j))
    of generator j; on a pointed cone the forms span the dual space, so
    that vector determines the point.
    """

    dim: int
    generators: IntMatrix
    support_forms: IntMatrix
    extreme_ray_reps: tuple[int, ...]
    facet_generator_sets: tuple[tuple[int, ...], ...]
    generator_forms: IntMatrix

    @classmethod
    def from_generators(cls, generators, dim: int) -> "Cone":
        gens = matrix(generators)
        forms = support_forms(gens, dim)
        values = tuple(tuple(dot(u, g) for u in forms) for g in gens)
        facet_sets = tuple(
            tuple(j for j, gv in enumerate(values) if gv[i] == 0) for i in range(len(forms))
        )
        pointed = matrix_rank(forms) == dim
        reps = _extreme_ray_reps(gens, values) if pointed else ()
        return cls(dim, gens, forms, reps, facet_sets, values)

    @property
    def grading(self) -> IntVector:
        """The functional sum(u_i); strictly positive on a pointed cone."""
        return tuple(
            sum(u[j] for u in self.support_forms) for j in range(self.dim)
        )

    @property
    def extreme_rays(self) -> IntMatrix:
        return tuple(self.generators[i] for i in self.extreme_ray_reps)


def _extreme_ray_reps(gens, values):
    # on a pointed cone a generator spans an extreme ray iff no other
    # generator's zero set (the facets through it) strictly contains its
    # own: the facets through a face name it, and a face of dimension >= 2
    # holds a generator on one of its extreme rays, a smaller face.  Among
    # generators on the same ray keep the one minimizing (grading value,
    # lex), rays ordered by first appearance.  values[j] is the form
    # vector of generator j, so its grading value (the functional
    # Cone.grading) is sum(values[j])
    zeros = [frozenset(i for i, val in enumerate(gv) if val == 0) for gv in values]
    order: list[IntVector] = []
    best: dict[IntVector, int] = {}
    for idx, (g, gv, z) in enumerate(zip(gens, values, zeros)):
        if any(z < other for other in zeros):
            continue
        key = primitive(g)
        if key not in best:
            order.append(key)
            best[key] = idx
        else:
            cur = best[key]
            if (sum(gv), g) < (sum(values[cur]), gens[cur]):
                best[key] = idx
    return tuple(best[k] for k in order)


# ---------------------------------------------------------------------------
# dual description


def support_forms(generators, n: int) -> IntMatrix:
    """Irredundant primitive inward facet normals of cone(generators).

    Incremental halfspace processing (the double description method):
    the dual of the first k generators is kept as (lineality basis, rays);
    each new generator g_k restricts it to {u : u(g_k) >= 0}.  Every
    candidate ray carries its zero set, the indices of the processed
    generators it vanishes on, derived from its parents' with no dot
    product: a ray on the positive side keeps its set, one on the
    hyperplane, or projected along the lineality vector l0 (which
    vanishes on every earlier generator), gains k; a combination of a
    positive and a negative ray gets the intersection of theirs plus k;
    and l0 itself, the new ray on the positive side, vanishes on every
    earlier generator.  Rays are pruned to extreme ones after every step
    by comparing zero sets (_prune_rays), so the final ray set is exactly
    the facet normals, sorted for determinism.  The only rank computed is
    the check that the generators span rank n.
    """
    gens = matrix(generators)
    if not gens:
        raise ValueError("no generators")
    if any(not any(g) for g in gens):
        raise ValueError("zero generator")
    if matrix_rank(gens) != n:
        raise ValueError("generators do not span rank n")
    lineality = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[IntVector, frozenset[int]]] = []
    for k, g in enumerate(gens):
        on_g = frozenset((k,))
        cvals = [dot(l, g) for l in lineality]
        if any(cvals):
            i0 = next(i for i, c in enumerate(cvals) if c)
            l0, c0 = lineality[i0], cvals[i0]
            if c0 < 0:
                l0, c0 = vec_neg(l0), -c0
            new_lin = []
            for i, (l, c) in enumerate(zip(lineality, cvals)):
                if i != i0:
                    new_lin.append(primitive(vec_sub(vec_scale(l, c0), vec_scale(l0, c))))
            # every old ray is projected along l0 onto {u(g) = 0}; l0
            # itself carries the positive side
            new_rays = []
            for r, z in rays:
                pr = vec_sub(vec_scale(r, c0), vec_scale(l0, dot(r, g)))
                if any(pr):
                    new_rays.append((primitive(pr), z | on_g))
            new_rays.append((l0, frozenset(range(k))))
            lineality = new_lin
            rays = new_rays
        else:
            plus, zero, minus = [], [], []
            for r, z in rays:
                c = dot(r, g)
                if c > 0:
                    plus.append((r, z, c))
                elif c == 0:
                    zero.append((r, z | on_g))
                else:
                    minus.append((r, z, c))
            rays = [(r, z) for r, z, _ in plus] + zero
            for rp, zp, cp in plus:
                for rm, zm, cm in minus:
                    combo = primitive(vec_sub(vec_scale(rm, cp), vec_scale(rp, cm)))
                    rays.append((combo, zp & zm | on_g))
        rays = _prune_rays(rays)
    if lineality:
        raise AssertionError("generators span rank n, yet the dual cone has a lineality space")
    return tuple(sorted(r for r, _ in rays))


def _prune_rays(rays):
    """The (ray, zero set) candidates whose rays are extreme rays of the
    current dual cone, duplicates dropped, in first-seen order.

    The zero set of a candidate is the set of constraints (processed
    generators) it vanishes on, and it names the smallest face holding
    the candidate.  A candidate is extreme iff no other candidate has a
    zero set strictly containing its own (the combinatorial test of the
    double description method, Fukuda-Prodon 1996).  This is exact
    because the candidates always include every extreme ray of the
    current dual cone, and none lies in its lineality space, on which
    every constraint vanishes.  The zero sets come with the candidates
    (support_forms derives them), so no constraint is evaluated here.
    """
    unique = dict(rays)
    zeros = list(unique.values())
    return [(r, z) for r, z in unique.items() if not any(z < other for other in zeros)]


def is_pointed(cone: Cone) -> bool:
    """True iff the cone contains no line: Cone.from_generators records
    extreme rays only when the support forms span the dual space."""
    return bool(cone.extreme_ray_reps)


# ---------------------------------------------------------------------------
# region classification


def sign_vector(cone: Cone, v) -> IntVector:
    """The support form values (u_i(v))_i.

    They decide v's region relative to the cone and to its negative, and
    they scale with v: the sign vector of p*v is p times that of v.
    """
    return tuple(dot(u, v) for u in cone.support_forms)


NEG_INTERIOR = RegionTag("neg_interior")
OUTSIDE_NEG = RegionTag("outside_neg")


def neg_region(signs) -> RegionTag:
    """Tag relative to the negated cone of a degree with sign vector signs.

    The largest form value decides: below 0 is the interior, 0 the
    boundary (tagged with its zero facets), above 0 outside.  The interior
    and outside tags are shared; RegionTag is frozen.
    """
    top = max(signs)
    if top < 0:
        return NEG_INTERIOR
    if top == 0:
        return RegionTag("neg_boundary", tuple(i for i, s in enumerate(signs) if s == 0))
    return OUTSIDE_NEG


def classify(cone: Cone, v) -> tuple[RegionTag, RegionTag]:
    """Tags of v relative to the cone and to its negative.

    Both tags are read off the exact signs of the support form values.
    """
    signs = sign_vector(cone, v)
    if all(s > 0 for s in signs):
        sigma = RegionTag("sigma_interior")
    elif all(s >= 0 for s in signs):
        sigma = RegionTag("sigma_boundary", tuple(i for i, s in enumerate(signs) if s == 0))
    else:
        sigma = RegionTag("outside_sigma")
    return sigma, neg_region(signs)


# ---------------------------------------------------------------------------
# triangulation and parallelepipeds


def triangulate(cone: Cone) -> tuple[SimplicialSubcone, ...]:
    """Placing triangulation of a pointed full-dimensional cone.

    Rays are inserted in their stored order; each new ray, being extreme,
    lies strictly outside the cone built so far, and is coned over the
    boundary facets it sees.  A ridge's normal is its vector of signed
    maximal minors (_ridge_normal), computed once per ridge per call;
    only its signs against the opposite ray and the new ray are read.
    Subcones use extreme rays only, cover the cone, and have pairwise
    disjoint interiors.
    """
    if not cone.extreme_ray_reps:
        raise ValueError("triangulation needs a pointed cone")
    rays = cone.extreme_rays
    n = cone.dim
    m = len(rays)
    if n == 1:
        return (SimplicialSubcone((0,), abs(rays[0][0])),)
    base: list[int] = []
    for k in range(m):
        if matrix_rank([rays[i] for i in base] + [rays[k]]) > len(base):
            base.append(k)
        if len(base) == n:
            break
    if len(base) < n:
        raise ValueError("cone is not full-dimensional")
    simplices: list[tuple[int, ...]] = [tuple(sorted(base))]
    base_set = set(base)
    normals: dict[tuple[int, ...], IntVector] = {}
    for k in range(m):
        if k in base_set:
            continue
        owners: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for S in simplices:
            for drop in S:
                F = tuple(i for i in S if i != drop)
                owners.setdefault(F, []).append(S)
        for F, owning in owners.items():
            if len(owning) != 1:
                continue
            normal = normals.get(F)
            if normal is None:
                normal = normals[F] = _ridge_normal([rays[i] for i in F])
            opp = next(i for i in owning[0] if i not in F)
            if dot(normal, rays[opp]) < 0:
                normal = vec_neg(normal)
            if dot(normal, rays[k]) < 0:
                simplices.append(tuple(sorted(F + (k,))))
    out = []
    for S in simplices:
        d = abs(det(matrix([rays[i] for i in S])))
        if d == 0:
            raise AssertionError(f"triangulation produced a degenerate simplex {S}")
        out.append(SimplicialSubcone(S, d))
    return tuple(out)


def _ridge_normal(R) -> IntVector:
    """Signed maximal minors N of the (n-1) x n matrix R, so that
    N . x == det(R with x appended as the last row); nonzero and normal to
    the rows of R when they are independent."""
    n = len(R) + 1
    return tuple(
        (-1) ** (n - 1 + j) * det(tuple(r[:j] + r[j + 1 :] for r in R)) for j in range(n)
    )


def parallelepiped_points(sub: SimplicialSubcone, ray_gens) -> tuple[IntVector, ...]:
    """Lattice points sum(mu_k * r_k) with 0 <= mu_k < 1, sorted.

    The box 0 <= x_i < H[i][i] under the diagonal of the row Hermite form
    H of the rays holds one point of each class of Z^n modulo the ray
    lattice.  Each x is wrapped into the half-open parallelepiped as
    x - R @ floor(mu), where mu = adj(R) @ x / det(R), and adj(R) and
    det(R) come from one elimination pass (adjugate_det).  The box is
    walked like an odometer, with y = |det| * mu kept modulo |det| next
    to the current point: a step of x adds a fixed vector to the point
    and a fixed vector to y, and each y_j that wraps past |det| takes
    ray j off the point once more, so no point costs a matrix product.
    The count equals the determinant, and its distinct points are
    checked against it.
    """
    rays = matrix(ray_gens)
    n = len(rays)
    adj, d = adjugate_det(transpose(rays))  # the columns of R are the rays
    if d < 0:
        adj = tuple(map(vec_neg, adj))
    d = abs(d)
    H, _ = hermite_normal_form(rays)
    top = [H[i][i] - 1 for i in range(n)]
    # steps[k] advances digit k by one and resets every later digit to 0:
    # the residues it adds to y, and the point's change for each set of
    # wrapped y_j (a bit mask), filled in as masks occur
    steps = []
    for k in range(n):
        dx = [0] * k + [1] + [-t for t in top[k + 1 :]]
        shift, carry = tuple(dx), []
        for a, r in zip(adj, rays):
            q, rem = divmod(sum(map(mul, a, dx)), d)
            shift = vec_sub(shift, vec_scale(r, q))
            carry.append(rem)
        steps.append((carry, {0: shift}))
    x = [0] * n
    y = [0] * n
    point = (0,) * n
    pts = [point]
    k = n - 1
    while k >= 0:
        if x[k] == top[k]:
            x[k] = 0
            k -= 1
            continue
        x[k] += 1
        carry, moves = steps[k]
        wrapped = 0
        for j, rem in enumerate(carry):
            yj = y[j] + rem
            if yj >= d:
                yj -= d
                wrapped |= 1 << j
            y[j] = yj
        move = moves.get(wrapped)
        if move is None:
            move = moves[0]
            for j, r in enumerate(rays):
                if wrapped >> j & 1:
                    move = vec_sub(move, r)
            moves[wrapped] = move
        point = tuple(map(add, point, move))
        pts.append(point)
        k = n - 1
    if len(set(pts)) != sub.determinant:
        raise AssertionError(
            f"{len(set(pts))} distinct parallelepiped points, determinant {sub.determinant}"
        )
    return tuple(sorted(pts))
