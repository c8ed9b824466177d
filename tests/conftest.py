import random

import pytest
from hypothesis import HealthCheck, settings

from synchrokit.core import Dfa, StateSet, Transformation
from synchrokit.monoid import PermutationGroup
from synchrokit.pairgraph import PairDigraph, _bfs, _predecessors

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def singleton(n: int, state: int) -> StateSet:
    return StateSet.of(n, (state,))


def then(s: Transformation, t: Transformation) -> Transformation:
    """Composition acting left to right: ``s`` first, then ``t``."""
    if s.n != t.n:
        raise ValueError("cannot compose transformations of different sizes")
    return Transformation(tuple(t.images[x] for x in s.images))


def preimage_of(t: Transformation, states) -> frozenset[int]:
    targets = set(states)
    return frozenset(q for q in range(t.n) if t.images[q] in targets)


def group_contains(g: PermutationGroup, p) -> bool:
    """Membership by sifting ``p`` through the stabilizer chain of ``g``."""
    images = tuple(p.images) if isinstance(p, Transformation) else tuple(p)
    if len(images) != g.n or sorted(images) != list(range(g.n)):
        raise ValueError("membership is defined for permutations only")
    residue, _ = g._strip(images, 0)
    return residue == tuple(range(g.n))


def random_transformation(rng: random.Random, n: int) -> Transformation:
    return Transformation(tuple(rng.randrange(n) for _ in range(n)))


def random_permutation(rng: random.Random, n: int) -> Transformation:
    images = list(range(n))
    rng.shuffle(images)
    return Transformation(tuple(images))


def random_dfa(rng: random.Random, n: int, m: int) -> Dfa:
    """``m`` letters drawn uniformly from all transformations."""
    return Dfa(
        n,
        tuple((f"x{i}", random_transformation(rng, n)) for i in range(m)),
    )


def pair_orbit_two_transitive(gens, n: int) -> bool:
    """Independent oracle: breadth-first orbit of the pair (0, 1), coded as
    ``u * n + v``, against all n(n - 1) ordered pairs of distinct states."""
    seen = bytearray(n * n)
    seen[1] = 1
    queue = [1]
    for code in queue:  # the queue grows while it is walked
        u, v = divmod(code, n)
        for g in gens:
            nxt = g[u] * n + g[v]
            if not seen[nxt]:
                seen[nxt] = 1
                queue.append(nxt)
    return len(queue) == n * (n - 1)


def strongly_connected(adj) -> bool:
    """Whether vertex 0 of ``adj`` reaches every vertex and is reached from every vertex."""
    forward, _ = _bfs(adj, 0)
    backward, _ = _bfs(_predecessors(adj), 0)
    return min(forward) >= 0 and min(backward) >= 0


def is_strongly_connected(p: PairDigraph) -> bool:
    return strongly_connected(p.succ)


def edges_at(levels, n: int) -> frozenset[tuple[int, int]]:
    """All edges ``(q, p)`` on the given levels of edge codes ``q * n + p``."""
    return frozenset(divmod(code, n) for level in levels for code in level.tolist())


def strongly_connected_at(levels, n: int) -> bool:
    """Whether the edges on the given levels strongly connect all n states."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for q, p in edges_at(levels, n):
        adj[q].append(p)
    return strongly_connected(adj)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
