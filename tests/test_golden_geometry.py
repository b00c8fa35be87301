"""A byte-level pin of the geometry layer on seeded random semigroups.

The digest covers every geometric output the constants m_Q and N_Q are
read from: the lattice reduction, the dual description, the extreme rays
and the triangulation, the saturation residues, every FacetData field
and N_Q.  Any rewrite of the exact routines underneath (normal forms,
kernels, adjugates, the double description) must keep it.
"""

import hashlib
import random
from dataclasses import fields

from hslbound.cones import triangulate
from hslbound.semigroups import all_facet_data, build, n_q, saturation_residues
from oracles import random_raw_generators

GOLDEN_SEED = 20240611
GOLDEN_COUNT = 60
GOLDEN_DIGEST = "c2cb170dbba9fa18e3f5bcd758ad0ef07535139d597d9289a2020c37b965990d"


def geometry_record(S):
    facets = all_facet_data(S)
    return (
        S.lattice_basis,
        S.generators,
        S.support_forms,
        S.cone.extreme_ray_reps,
        triangulate(S.cone),
        saturation_residues(S).residues,
        tuple(tuple(getattr(fd, f.name) for f in fields(fd)) for fd in facets),
        n_q(S, facets),
    )


def golden_inputs():
    rng = random.Random(GOLDEN_SEED)
    return [random_raw_generators(rng, 2 + k % 3) for k in range(GOLDEN_COUNT)]


def test_geometry_digest_pinned():
    records = tuple(geometry_record(build(raws)) for raws in golden_inputs())
    assert {len(r[1][0]) for r in records} == {2, 3, 4}
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST
