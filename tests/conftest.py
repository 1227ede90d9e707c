import pytest

from homothetics import Container
from homothetics.instances import random_pointset


@pytest.fixture(scope="session")
def sphere_polytope() -> Container:
    """40 vertices on the unit sphere in R^8, about 10 000 facets: their
    enumeration exceeds ENUM_BOUND, so the body stays vertex-only."""
    return Container.from_vertices(random_pointset(40, 8, seed=1, distribution="sphere").points)
