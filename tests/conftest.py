import numpy as np
import pytest

from chronoforest.measures import PointMeasure, Stick
from chronoforest.stochastic import StickLaw


@pytest.fixture(scope="session")
def reference_sticks() -> list[Stick]:
    """Ten sticks whose forest we know by hand.

    Worked out by hand: one tree, fully explored by the tenth stick.
    Index / life length / birth ages:

        0: 2.0  {1.5, 0.5}        5: 4.0  {3.5, 2.5, 1.0}
        1: 1.5  {1.2, 0.5}        6: 2.0  {}
        2: 1.5  {0.9}             7: 1.0  {}
        3: 1.0  {}                8: 1.0  {1.0}
        4: 2.0  {}                9: 1.0  {}

    Grafting always picks the highest pending birth, so the exploration
    runs 0 -> (child at 1.5) -> ... with birth times
    (0, 1.5, 2.7, 3.6, 2.0, 0.5, 4.0, 3.0, 1.5, 2.5) and generations
    (0, 1, 2, 3, 2, 1, 2, 2, 2, 3).
    """
    return [
        Stick(2.0, PointMeasure([1.5, 0.5])),
        Stick(1.5, PointMeasure([1.2, 0.5])),
        Stick(1.5, PointMeasure([0.9])),
        Stick(1.0),
        Stick(2.0),
        Stick(4.0, PointMeasure([3.5, 2.5, 1.0])),
        Stick(2.0),
        Stick(1.0),
        Stick(1.0, PointMeasure([1.0])),
        Stick(1.0),
    ]


REFERENCE_BIRTH_TIMES = (0.0, 1.5, 2.7, 3.6, 2.0, 0.5, 4.0, 3.0, 1.5, 2.5)
REFERENCE_DEPTHS = (0, 1, 2, 3, 2, 1, 2, 2, 2, 3)
REFERENCE_PARENTS = (-1, 0, 1, 2, 1, 0, 5, 5, 5, 8)
REFERENCE_WALK = (0, 1, 2, 2, 1, 0, 2, 1, 0, 0, -1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def sample_covering_v(law: StickLaw, rng: np.random.Generator, t: float, n: int) -> np.ndarray:
    """Life length of the stick whose renewal interval covers time t: the
    oracle for length-biased lives.

    Lays i.i.d. life lengths end to end from 0 and returns, for each of n
    independent runs, the length of the interval containing t.  As t grows
    this converges to the length-biased law.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    cols = int(t / law.mean_v * 1.5) + 30
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        v = law.life.sample(rng, (pending.size, cols))
        cs = np.cumsum(v, axis=1)
        covered = cs[:, -1] > t
        idx = (cs <= t).sum(axis=1)
        rows = np.nonzero(covered)[0]
        out[pending[rows]] = v[rows, idx[rows]]
        pending = pending[~covered]
        cols *= 2
    return out
