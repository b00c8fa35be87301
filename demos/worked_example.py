#!/usr/bin/env python3
"""End-to-end walk through a 2-d example: k[x^5 y, x^4 y, x y^3, x y^4].

Builds the semigroup, prints its cone geometry, certifies a conductor
translate gamma, reads off m_Q and N_Q, and checks the resulting
Frobenius nilpotence bound against a window sweep for several primes.
"""

from hslbound import (
    all_facet_data,
    build,
    empirical_hsl,
    find_gamma,
    frobenius_orbit,
    n_q,
    saturation_residues,
    theoretical_bound,
    verify_gamma,
    zero_class,
)

GENS = ((5, 1), (4, 1), (1, 3), (1, 4))

S = build(GENS)
print("generators:", S.generators)
print("lattice rank:", S.dim)
print("support forms (inward facet normals):", S.support_forms)
print("grading functional:", S.grading)
print("extreme rays:", S.cone.extreme_rays)

B = saturation_residues(S).residues
print(f"\nsaturation residues: {len(B)} lattice points in the fundamental cell")

# A hand-picked translate: every residue shifted by gamma stays inside.
cert = verify_gamma(S, (14, 9))
print("\ngamma = (14, 9) verifies:", cert is not None)
print("  facet values:", cert.facet_values, "-> certified m_Q =", cert.m_q)
print("  (the smaller facet value", cert.min_facet_value, "certifies nothing)")

# The search finds a translate with a smaller maximum.
best = find_gamma(S)
print("searched gamma:", best.gamma, "with m_Q =", best.m_q)

facets = all_facet_data(S)
print("\nfacet invariant factors:", [fd.invariant_factors for fd in facets])
print("N_Q =", n_q(S, facets), " (every prime is safe)")

print("\nbounds ceil(log_p m_Q) and window sweeps (radius 10):")
for p in (2, 3, 5, 7, 53):
    bound = theoretical_bound(best, 0, p)
    rep = empirical_hsl(S, best, facets, p, 10)
    print(
        f"  p={p:>2}: bound {bound}, empirical max {rep.empirical_max}, "
        f"violations {len(rep.violations)}"
    )

# A few individual monomial classes.
print("\nsample vanishing verdicts:")
for v in ((-1, -1), (-5, -1), (1, 1), (6, 4)):
    res = zero_class(S, best, facets, v, 10 * best.m_q)
    extra = f" witness {res.witness} on facet {res.facet}" if res.is_zero else ""
    print(f"  [x^{v}]: {res.verdict}{extra}")

orbit = frobenius_orbit(S, best, facets, (-1, -1), 2, 5, 10 * best.m_q)
print("\nFrobenius orbit of (-1,-1) at p=2:", orbit.kind)
