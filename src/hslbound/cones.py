"""Rational polyhedral cones with exact dual descriptions.

Machinery for full-dimensional cones over a lattice: inward facet normals
(support forms), pointedness, sign-pattern region tags relative to the
cone and its negative, placing triangulations into simplicial subcones,
and half-open fundamental parallelepipeds.  All arithmetic is on
integers: barycentric coordinates in a simplicial subcone with ray
matrix R are adj(R) @ x / det(R), so their signs and floors come from
integer products and floor division, without rationals.

No rank or sign question here needs a normal form.  One fraction-free
elimination (intlinalg.dual_basis) picks the first n rays independent of
those before them and gives their determinant and ridge normals; _simplex
builds every simplex from it.  The double description is seeded with the
dual of such a simplex of generators.  It keeps a candidate ray iff no
other candidate's zero set strictly contains its own, and each
candidate's zero set is derived from its parents' zero sets rather than
from dot products; a generator spans an extreme ray by the same test on
the generators' zero sets.  The triangulation starts from such a simplex
of rays, and each simplex keeps its ridge normals for its
parallelepiped, which reads only the diagonal of the rays' Hermite form
besides, the sides of the box it walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul

from .intlinalg import (
    IntMatrix,
    IntVector,
    dot,
    dual_basis,
    hermite_normal_form,
    matrix,
    primitive,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class SimplicialSubcone:
    """A full-dimensional simplicial piece of a triangulated cone.

    ray_indices index into the parent cone's extreme_ray_reps; determinant
    is |det| of the chosen ray generators, which is also the lattice point
    count of the half-open fundamental parallelepiped.  rays are those
    generators in ray_indices order; normals[j], the normal of the ridge
    opposite rays[j], has normals[j] . rays[k] == determinant * (j == k).
    """

    ray_indices: tuple[int, ...]
    determinant: int
    rays: IntMatrix = field(repr=False, compare=False)
    normals: IntMatrix = field(repr=False, compare=False)


@dataclass(frozen=True)
class RegionTag:
    kind: str
    zero_facets: tuple[int, ...] = ()


@dataclass(frozen=True)
class Cone:
    """A full-dimensional cone with its dual description.

    generator_forms[j] is the support-form vector (u_1(g_j), ..., u_m(g_j))
    of generator j; on a pointed cone the forms span the dual space, so
    that vector determines the point.  The cone is pointed iff the
    grading sum(u_i) is positive on every generator: a line in the cone
    is a sum of generators on which every form vanishes.
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
        pointed = all(sum(gv) > 0 for gv in values)
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

    Incremental halfspace processing (the double description method,
    Fukuda-Prodon 1996), seeded with one simplex: _simplex on all the
    generators takes the first n independent of those before them, a
    simplicial cone whose dual has the primitive ridge normals of the
    simplex as its rays, each vanishing on the simplex's generators but
    the one it faces.  Fewer than n of them means the generators do not
    span rank n.  Every other generator g_k then restricts the dual to
    {u : u(g_k) >= 0}.  Each candidate ray carries its zero set, the
    indices of the processed generators it vanishes on, derived from its
    parents' with no dot product: a ray on the positive side keeps its
    set, one on the hyperplane gains k, and a combination of a positive
    and a negative ray gets the intersection of theirs plus k.  Rays are
    pruned to extreme ones after every step by comparing zero sets
    (_prune_rays), so the final ray set is exactly the facet normals,
    sorted for determinism.
    """
    gens = matrix(generators)
    if not gens:
        raise ValueError("no generators")
    if len(gens[0]) != n:
        raise ValueError(f"generators have {len(gens[0])} entries, not n = {n}")
    if any(not any(g) for g in gens):
        raise ValueError("zero generator")
    seed = _simplex(gens)
    if seed is None:
        raise ValueError("generators do not span rank n")
    base = seed.ray_indices
    rays = [
        (primitive(normal), frozenset(base[:j] + base[j + 1 :]))
        for j, normal in enumerate(seed.normals)
    ]
    for k, g in enumerate(gens):
        if k in base:
            continue
        on_g = frozenset((k,))
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
    current dual cone, which is pointed, as it lies in the dual of the
    seed simplex.  The zero sets come with the candidates
    (support_forms derives them), so no constraint is evaluated here.
    """
    unique = dict(rays)
    zeros = list(unique.values())
    return [(r, z) for r, z in unique.items() if not any(z < other for other in zeros)]


def is_pointed(cone: Cone) -> bool:
    """True iff the cone contains no line: Cone.from_generators records
    extreme rays only when the grading is positive on every generator."""
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

    The first simplex is _simplex on all the rays: the first n independent
    of those before them.  The other rays are inserted in their stored
    order; each new ray, being extreme, lies strictly outside the cone
    built so far, and is coned over the boundary ridges it sees.  Every
    simplex keeps the normals of its ridges (_simplex), so a ray sees a
    boundary ridge iff its product with that ridge's normal is negative,
    and no ridge takes a determinant of its own.  Subcones use extreme
    rays only, cover the cone, and have pairwise disjoint interiors.
    """
    if not cone.extreme_ray_reps:
        raise ValueError("triangulation needs a pointed cone")
    rays = cone.extreme_rays
    seed = _simplex(rays)
    if seed is None:
        raise ValueError("cone is not full-dimensional")
    base = seed.ray_indices
    simplices = [seed]
    for k in range(len(rays)):
        if k in base:
            continue
        owners: dict[tuple[int, ...], list[IntVector]] = {}
        for sub in simplices:
            S = sub.ray_indices
            for j, normal in enumerate(sub.normals):
                owners.setdefault(S[:j] + S[j + 1 :], []).append(normal)
        for F, owning in owners.items():
            if len(owning) == 1 and dot(owning[0], rays[k]) < 0:
                S = tuple(sorted(F + (k,)))
                sub = _simplex(rays, S)
                if sub is None:
                    raise AssertionError(f"triangulation produced a degenerate simplex {S}")
                simplices.append(sub)
    return tuple(simplices)


def _simplex(rays, S=None) -> SimplicialSubcone | None:
    """The subcone on the first n of the rays S (all rays by default)
    independent of those before them, with the normals of its ridges, or
    None when fewer than n are.

    intlinalg.dual_basis gives those rays' indices, their absolute
    determinant d and rows B with B[j] . rays[k] == d * (j == k): B[j]
    vanishes on every ray of the simplex but the j-th and is positive on
    that one, so it is the normal of the ridge opposite it, oriented
    toward it.
    """
    S = range(len(rays)) if S is None else S
    picked, d, normals = dual_basis([rays[i] for i in S])
    if not d:
        return None
    S = tuple(S[i] for i in picked)
    return SimplicialSubcone(S, d, tuple(rays[i] for i in S), normals)


def parallelepiped_points(sub: SimplicialSubcone) -> tuple[IntVector, ...]:
    """Lattice points sum(mu_k * r_k) of the rays r_k, 0 <= mu_k < 1, sorted.

    The box 0 <= x_i < H[i][i] under the diagonal of the row Hermite form
    H of the rays holds one point of each class of Z^n modulo the ray
    lattice.  Each x is wrapped into the half-open parallelepiped as
    x - sum(floor(mu_k) * r_k), where |det| * mu_k = normals[k] . x, the
    ridge normals the subcone keeps.  The box is walked like an
    odometer, with y = |det| * mu kept modulo |det| next to the current
    point: a step of x adds a fixed vector to the point and a fixed
    vector to y, and each y_j that wraps past |det| takes ray j off the
    point once more, so no point costs a matrix product.  The count
    equals the determinant, and its distinct points are checked against
    it.
    """
    rays, normals, d = sub.rays, sub.normals, sub.determinant
    n = len(rays)
    H, _ = hermite_normal_form(rays)
    top = [H[i][i] - 1 for i in range(n)]
    # steps[k] advances digit k by one and resets every later digit to 0:
    # the residues it adds to y, and the point's change for each set of
    # wrapped y_j (a bit mask), filled in as masks occur
    steps = []
    for k in range(n):
        dx = [0] * k + [1] + [-t for t in top[k + 1 :]]
        shift, carry = tuple(dx), []
        for a, r in zip(normals, rays):
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
    if len(set(pts)) != d:
        raise AssertionError(f"{len(set(pts))} distinct parallelepiped points, determinant {d}")
    return tuple(sorted(pts))
