from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ssc_toolkit.graphs import Chain, ChainSet, DiGraph
from ssc_toolkit.forcing import ExplicitForces
from ssc_toolkit.synthesis import TimeFunction

settings.register_profile(
    "fixed",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")


def bidirectional(pairs) -> frozenset[tuple[int, int]]:
    return frozenset((x, y) for a, b in pairs for x, y in ((a, b), (b, a)))


@pytest.fixture
def ring6() -> DiGraph:
    """Two-way 6-ring with the 2-6 chord; {1, 2} is a forcing control set."""
    return DiGraph(6, bidirectional([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6), (1, 6)]))


@pytest.fixture
def ring6_policy() -> ExplicitForces:
    """The schedule whose intervals are 1:[1,1] 2:[1,2] 6:[2,5] 3:[3,3] 4:[4,4] 5:[5,5]."""
    return ExplicitForces(((1, 6), (2, 3), (3, 4), (4, 5)))


@pytest.fixture
def path3() -> DiGraph:
    return DiGraph(3, frozenset({(1, 2), (2, 3)}))


@pytest.fixture
def block_path3() -> tuple[DiGraph, TimeFunction]:
    """Two-way 3-path as a one-chain block."""
    g = DiGraph(3, bidirectional([(1, 2), (2, 3)]))
    tf = TimeFunction(ChainSet((Chain((1, 2, 3)),)), {1: 1, 2: 2, 3: 3})
    return g, tf


@pytest.fixture
def block_ring4() -> tuple[DiGraph, TimeFunction]:
    """Two-way 4-ring with the 1-4 diagonal as a two-chain block."""
    g = DiGraph(4, bidirectional([(1, 2), (2, 4), (1, 3), (4, 3), (1, 4)]))
    tf = TimeFunction(ChainSet((Chain((1, 3)), Chain((2, 4)))), {1: 1, 2: 1, 4: 2, 3: 3})
    return g, tf


@pytest.fixture
def chain3_tf() -> TimeFunction:
    return TimeFunction(ChainSet((Chain((1, 2, 3)),)), {1: 1, 2: 2, 3: 3})


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def digraphs(draw, max_n: int = 6, self_loops: bool = True) -> DiGraph:
    n = draw(st.integers(1, max_n))
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if self_loops or u != v
    ]
    edges = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return DiGraph(n, edges)


@st.composite
def chain_partitions(draw, max_n: int = 8) -> ChainSet:
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))
    perm = draw(st.permutations(range(1, n + 1)))
    cut_points = draw(
        st.frozensets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1)
        if n > 1
        else st.just(frozenset())
    )
    bounds = [0, *sorted(cut_points), n]
    return ChainSet(tuple(Chain(tuple(perm[a:b])) for a, b in zip(bounds, bounds[1:])))


@st.composite
def timed_partitions(draw, max_n: int = 8) -> TimeFunction:
    cs = draw(chain_partitions(max_n=max_n))
    slots: list[int] = []
    for i, c in enumerate(cs.chains):
        slots.extend([i] * (len(c) - 1))
    order = draw(st.permutations(slots)) if slots else []
    times = {c.source: 1 for c in cs.chains}
    progress = [1] * cs.m
    for step, i in enumerate(order):
        times[cs.chains[i].nodes[progress[i]]] = step + 2
        progress[i] += 1
    return TimeFunction(cs, times)
