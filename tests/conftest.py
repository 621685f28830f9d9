import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "suite",
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@st.composite
def blaschke_zeros(draw, max_degree=4, max_radius=0.8):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    radii = draw(
        st.lists(st.floats(min_value=0.0, max_value=max_radius), min_size=n, max_size=n)
    )
    phases = draw(
        st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), min_size=n, max_size=n)
    )
    return [r * np.exp(1j * p) for r, p in zip(radii, phases)]


@st.composite
def circle_angles(draw):
    return draw(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True))


@pytest.fixture(scope="session")
def z2():
    from blaschkeops import build_branches, make_blaschke

    b = make_blaschke([0, 0])
    return b, build_branches(b)


@pytest.fixture(scope="session")
def half():
    from blaschkeops import build_branches, make_blaschke

    b = make_blaschke([0.5])
    return b, build_branches(b)


@pytest.fixture(scope="session")
def mixed():
    from blaschkeops import build_branches, make_blaschke

    b = make_blaschke([0.5, -0.3j])
    return b, build_branches(b)


@pytest.fixture(scope="session")
def grid1024():
    from blaschkeops.circlefun import CircleGrid

    return CircleGrid(1024)


@pytest.fixture(scope="session")
def grid4096():
    from blaschkeops.circlefun import CircleGrid

    return CircleGrid(4096)


def ones_basis(b):
    """The family {1, ..., 1} with deg b members: no basis, the negative control of the basis checks."""
    from blaschkeops.model_space import ModelBasis

    n = b.degree
    return ModelBasis(labels=("1",) * n, rule=lambda z: np.ones((n,) + z.shape), owner=b, kind="user")


def seeded_zeros(n, radius):
    """n zeros r e^{it}, r = radius sqrt(U), t uniform, from default_rng(1)."""
    rng = np.random.default_rng(1)
    r = radius * np.sqrt(rng.uniform(size=n))
    t = rng.uniform(0, 2 * np.pi, n)
    return list(r * np.exp(1j * t))


#: products with b(1) = 1 or -1, a node of every grid: z^9, z^12 and a real-coefficient cubic.  That
#: node's fibre is the arc endpoints, where the half-open arc test meets one-ulp errors
B1_ON_THE_GRID = ([0] * 9, [0] * 12, [-0.645683 - 0.095767j, -0.645683 + 0.095767j, 0.867497])
