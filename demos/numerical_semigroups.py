#!/usr/bin/env python3
"""Rank-1 semigroups, where the nilpotence exponent has a closed form.

For a numerical semigroup Q the answer is exactly the least e with
p^e in Q.  This script tabulates that number for a few semigroups and
primes, and confirms that window sweeps reproduce it and that it never
exceeds ceil(log_p m_Q).
"""

from hslbound import (
    all_facet_data,
    build,
    empirical_hsl,
    find_gamma,
    hsl_exact_dim1,
    member,
    theoretical_bound,
)

FIXTURES = ((3, 5), (2, 3), (4, 7, 9))
PRIMES = (2, 3, 5, 7, 11)

for gens in FIXTURES:
    S = build(tuple((g,) for g in gens))
    cert = find_gamma(S)
    facets = all_facet_data(S)
    gaps = [k for k in range(1, cert.m_q + 1) if not member(S, (k,))]
    print(f"Q = <{', '.join(map(str, gens))}>  gaps {gaps}  m_Q = {cert.m_q}")
    for p in PRIMES:
        exact = hsl_exact_dim1(S, p)
        bound = theoretical_bound(cert, 0, p)
        rep = empirical_hsl(S, cert, facets, p, 30)
        tight = "  <- tight" if exact == bound else ""
        print(
            f"  p={p:>2}: exact {exact}, window max {rep.empirical_max}, "
            f"bound {bound}{tight}"
        )
    print()
