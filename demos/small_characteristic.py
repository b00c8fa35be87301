#!/usr/bin/env python3
"""What N_Q guards against: a facet lattice of index 2.

For Q = <(2,0), (1,1), (1,2)> the facet along (2,0) spans only the even
multiples of (1,0), so its invariant factor is 2 and N_Q = 2.  At p = 2
Frobenius is no longer injective on boundary classes: (-1, 0) is a
nonzero class whose square vanishes.  For every p > 2 the bound
guarantee is back and boundary classes behave.
"""

from hslbound import (
    all_facet_data,
    build,
    empirical_hsl,
    find_gamma,
    frobenius_orbit,
    n_q,
    theoretical_bound,
    zero_class,
)

S = build(((2, 0), (1, 1), (1, 2)))
cert = find_gamma(S)
facets = all_facet_data(S)
cap = 10 * cert.m_q

print("support forms:", S.support_forms)
print("facet generators:", [fd.facet_gens for fd in facets])
print("invariant factors:", [fd.invariant_factors for fd in facets])
print("N_Q =", n_q(S, facets))
print("gamma =", cert.gamma, " m_Q =", cert.m_q)

print("\nboundary degree (-1, 0):")
print("  at e=0:", zero_class(S, cert, facets, (-1, 0), cap).verdict)
for p in (2, 3):
    orbit = frobenius_orbit(S, cert, facets, (-1, 0), p, 4, cap)
    print(f"  orbit at p={p}: {orbit.kind}", f"order {orbit.order}" if orbit.order is not None else "")

print("\nwindow sweeps (radius 6):")
for p in (2, 3, 5):
    bound = theoretical_bound(cert, n_q(S, facets), p)
    rep = empirical_hsl(S, cert, facets, p, 6)
    shown = bound if bound is not None else "withheld (p <= N_Q)"
    print(
        f"  p={p}: bound {shown}, empirical max {rep.empirical_max}, "
        f"flagged boundary degrees {len(rep.small_char_flags)}"
    )
