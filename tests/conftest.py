import pytest

from hslbound.semigroups import build


def wedge_gens(k):
    """The generators of the wedge W_k; W_5 is the worked example's wedge."""
    return ((k, 1), (k - 1, 1), (1, k - 2), (1, k - 1))


WEDGE_GENS = wedge_gens(5)
INDEX2_GENS = ((2, 0), (1, 1), (1, 2))  # one facet lattice has index 2
D3_GENS = ((3, 0, 1), (0, 3, 1), (2, 2, 1), (4, 1, 1), (1, 4, 1), (0, 0, 1))  # rank 3, not normal
D4_GENS = (
    (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (2, 1, 0, 1), (0, 2, 1, 1), (1, 0, 2, 1), (1, 1, 1, 2)
)


@pytest.fixture(scope="session")
def wedge():
    return build(WEDGE_GENS)


@pytest.fixture(scope="session")
def index2():
    return build(INDEX2_GENS)


@pytest.fixture(scope="session")
def ns35():
    return build(((3,), (5,)))


@pytest.fixture(scope="session")
def ns23():
    return build(((2,), (3,)))


@pytest.fixture(scope="session")
def ns479():
    return build(((4,), (7,), (9,)))


@pytest.fixture(scope="session")
def d3():
    return build(D3_GENS)
