"""Inputs and pinned answers of the three benchmark workloads.

Everything here is plain data or a pure function of the seed, so one
seed gives the same inputs on every machine.  The pinned digests are the
outputs of the library at the commit that introduced the benchmark; the
library promises byte-identical JSON, so a changed digest is a failure.
"""

from __future__ import annotations

import random
from fractions import Fraction

def wedge(k: int) -> list[list[int]]:
    """W_k = <(k,1), (k-1,1), (1,k-2), (1,k-1)>; m_Q grows like k^3."""
    return [[k, 1], [k - 1, 1], [1, k - 2], [1, k - 1]]


D3 = [[3, 0, 1], [0, 3, 1], [2, 2, 1], [4, 1, 1], [1, 4, 1], [0, 0, 1]]
D4 = [
    [1, 0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
    [2, 1, 0, 1],
    [0, 2, 1, 1],
    [1, 0, 2, 1],
    [1, 1, 1, 2],
]
DEMO_INPUTS = ("index2_facet", "numerical_3_5", "wedge2d")  # demos/inputs/<name>.json

# ---------------------------------------------------------------------------
# analyze-ladder: `hslbound analyze` on each input, in seeded order.
# W_13 (32.6 s) and W_17 (27 s, then exit 3: budget exhausted) are left
# out for run length only; see README.

LADDER = {
    "W_5": wedge(5),
    "W_7": wedge(7),
    "W_9": wedge(9),
    "W_11": wedge(11),
    "D3": D3,
    "D4": D4,
}

LADDER_M_Q = {
    "index2_facet": 2,
    "numerical_3_5": 8,
    "wedge2d": 45,
    "W_5": 45,
    "W_7": 175,
    "W_9": 441,
    "W_11": 891,
    "D3": 2,
    "D4": 4,
}

# sha256 of the analyze stdout (JSON format, default flags)
LADDER_SHA256 = {
    "index2_facet": "64b95a01ca91d3143550ef0d7076bd831ba5f6acde1f02a44e0bb7d4a10fc40e",
    "numerical_3_5": "d147850e4341e804de491832a9fd345684fc298e3c4b015c56c6b7db7fec267f",
    "wedge2d": "20667ec168dcf1c24a443523a708511159dbb1f3f0a7553834239a54f43870f0",
    "W_5": "20667ec168dcf1c24a443523a708511159dbb1f3f0a7553834239a54f43870f0",
    "W_7": "7f43883dcc1021aab56997bc660cec7f23b1a33c8d3e14b3964190842f7d18d9",
    "W_9": "1ef765176ab2c10ac7bf20bc1821557c4c3d06703cb3a9428bd11d0eb6f4e2f6",
    "W_11": "2a0f6f3cb41900fca4fb864fa430197ac9694f3c653c35c415f5676131817df6",
    "D3": "99fcf308951cbee7f575cc5af6093f19b61517c2f625ab77399defb549c92362",
    "D4": "79e2286639648cd67d3d708706f4ca40e6cc98f35a46ee8c4fa32db04d457236",
}

# ---------------------------------------------------------------------------
# window-sweep: empirical_hsl with the CLI defaults on each (input, p, w).

SWEEPS = (
    # name, generators (None: the demo input of that name), prime, window
    ("wedge2d", None, 2, 40),
    ("index2_facet", None, 2, 30),  # p <= N_Q: bound withheld, flags computed
    ("D3", D3, 5, 8),
    ("D4", D4, 5, 4),
    ("W_7", wedge(7), 2, 80),
)

# sha256 of json.dumps(HslReport.as_dict(), sort_keys=True)
SWEEP_SHA256 = {
    "wedge2d": "988e5829e8ca41da6f4a0afbe9642591603b39c9f3f9f480a277cc6d2cdd3ce2",
    "index2_facet": "0d246a71f78636e9b275ff134c75fe4e787fe923a1585ed1464f0e986334f7fa",
    "D3": "3291f1a6062e7c799ad2cc3b8eb81c32259fe12eacd1875f4ec2c1de81a8710c",
    "D4": "ed4ea3fce1b18ba458256ecc64e5fbc4872d1fd1f5d206c6e102c79240e56f5e",
    "W_7": "d91d3f962e3799ce501ee280cea57d5b6de0bc7bd97ded42a7db468a023cc3c5",
}

RECHECK_SAMPLE = 100  # degrees per sweep input re-decided and rechecked

# ---------------------------------------------------------------------------
# random-geometry: seeded pointed semigroups of rank 3 and 4.

GEOMETRY_COUNT = 150
# (rank, generator count) cells in the ratio 2:1 of rank 3 to rank 4, each
# rank with d+1..d+3 generators; cycling through them keeps the mix fixed
# so that only coordinates vary with the seed.
GEOMETRY_CELLS = ((3, 4), (3, 5), (3, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7))


def rational_rank(rows) -> int:
    """Rank over Q by Fraction elimination (independent of the library)."""
    m = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_semigroups(seed: int, pass_index: int, count: int = GEOMETRY_COUNT):
    """count generator lists for one pass; every pass draws new ones.

    The last coordinate is in [1,3], so every cone is pointed, the others
    are in [0,5].  Draws of lower rank are redrawn so that every semigroup
    has the rank of its cell."""
    rng = random.Random(f"random-geometry:{seed}:{pass_index}")
    out = []
    for i in range(count):
        d, k = GEOMETRY_CELLS[i % len(GEOMETRY_CELLS)]
        while True:
            gens = [
                [rng.randint(0, 5) for _ in range(d - 1)] + [rng.randint(1, 3)]
                for _ in range(k)
            ]
            if rational_rank(gens) == d:
                break
        out.append((f"P{pass_index}-G{i:03d}", gens))
    return out
