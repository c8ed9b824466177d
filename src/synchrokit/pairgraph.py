"""Digraph of unordered state pairs under the permutation letters.

The pair digraph has one vertex per unordered pair of distinct states and,
for each permutation letter, an edge from a pair to its image.  Its diameter
lower-bounds how fast any word can bring two states together, and a "descent
certificate" (a value per pair that drops by at most one along every edge)
turns a claimed distance into a machine-checkable proof.

Certificates are available for the two-letter family ``f``: the 7-state
values are a fixed table, and for ``n % 4 == 3, n >= 11`` they come from a
closed-form dispatch.  :func:`extremal_pair_word` builds an explicit word
realizing the certified distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Dfa, Word


def pair_index(n: int, i: int, j: int) -> int:
    """Canonical index of the unordered pair {i, j} with i < j."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) with n={n}")
    return i * n + j - (i + 1) * (i + 2) // 2


def index_pair(n: int, idx: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    if not 0 <= idx < n * (n - 1) // 2:
        raise ValueError(f"need 0 <= idx < n(n-1)/2, got {idx} with n={n}")
    i = 0
    row = n - 1
    while idx >= row:
        idx -= row
        row -= 1
        i += 1
    return i, i + 1 + idx


@dataclass(frozen=True)
class PairDigraph:
    n: int
    letter_names: tuple[str, ...]
    letter_indices: tuple[int, ...]  # positions of the used letters in the source Dfa
    succ: tuple[tuple[int, ...], ...]  # succ[v][slot] -> vertex

    @property
    def num_vertices(self) -> int:
        return len(self.succ)


def _pair_rows(n: int, images) -> list[tuple[int, ...]]:
    """Successor rows of the unordered pairs, in :func:`pair_index` order.

    ``row[slot]`` is the index of the pair's image under the permutation
    ``images[slot]``; a map sending both states to one would give
    ``n(n-1)/2``, past the last vertex.  Entries are taken from an n x n
    table, so each index is one shared int object however many rows hold it.
    """
    pairs = list(combinations(range(n), 2))
    merged = len(pairs)
    index = [[merged] * n for _ in range(n)]
    for v, (i, j) in enumerate(pairs):
        index[i][j] = index[j][i] = v
    return list(zip(*([index[img[i]][img[j]] for i, j in pairs] for img in images)))


def build_pair_digraph(d: Dfa) -> PairDigraph:
    """Pair digraph over the permutation letters of ``d``."""
    perm = d.permutation_letters()
    if not perm:
        raise ValueError("pair digraph needs at least one permutation letter")
    if d.n < 2:
        raise ValueError("pair digraph needs at least two states")
    return PairDigraph(
        n=d.n,
        letter_names=tuple(d.letters[li][0] for li in perm),
        letter_indices=tuple(perm),
        succ=tuple(_pair_rows(d.n, [d.transformation(li).images for li in perm])),
    )


def _bfs(adj, source: int) -> tuple[list[int], list[int]]:
    """Distances and parent vertices (-1 where none) from one vertex.

    ``adj[v]`` lists the neighbours of ``v``: ``PairDigraph.succ`` for the
    forward direction, the lists of :func:`_predecessors` for the backward
    one, which only :func:`diameter` runs.  Neighbours are tried in slot
    order, so the first slot of a parent that reaches its child spells the
    lexicographically least shortest word.
    """
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    append = queue.append
    for v in queue:
        step = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = step
                parent[w] = v
                append(w)
    return dist, parent


def _predecessors(succ) -> list[list[int]]:
    """Reverse adjacency: ``pred[w]`` holds every ``v`` with an edge v -> w."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, row in enumerate(succ):
        for w in row:
            pred[w].append(v)
    return pred


def _path_word(p: PairDigraph, parent: list[int], target: int) -> Word:
    slots = []
    v = target
    while parent[v] >= 0:
        u = parent[v]
        slots.append(p.succ[u].index(v))
        v = u
    slots.reverse()
    return Word(tuple(p.letter_indices[s] for s in slots))


def pair_distance(
    p: PairDigraph, source: tuple[int, int], target: tuple[int, int]
) -> tuple[int, Word] | None:
    """Shortest word (over the digraph's letters) from one pair to another.

    Returns ``None`` when the target pair is unreachable.  The witness is the
    lexicographically least shortest word under the letter order.
    """
    s = pair_index(p.n, min(source), max(source))
    t = pair_index(p.n, min(target), max(target))
    dist, parent = _bfs(p.succ, s)
    if dist[t] < 0:
        return None
    return dist[t], _path_word(p, parent, t)


@dataclass(frozen=True)
class DiameterResult:
    strongly_connected: bool
    value: int | None
    source: tuple[int, int] | None
    target: tuple[int, int] | None
    word: Word | None
    argmax: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()


def diameter(p: PairDigraph) -> DiameterResult:
    """Exact diameter by eccentricity bounding, with a deterministic witness.

    A forward BFS from a vertex ``v`` gives its eccentricity ``ecc(v)`` and
    every ``d(v, u)``; a backward BFS, over the reversed edges, gives every
    ``d(u, v)``.  By the triangle inequality every vertex ``u`` satisfies

        max(d(u, v), ecc(v) - d(v, u)) <= ecc(u) <= d(u, v) + ecc(v),

    and each vertex keeps the tightest bounds seen; it is resolved once they
    meet.  Runs alternate between the open vertex with the largest upper
    bound and the one with the smallest lower bound (smallest index on
    ties), and stop when no unresolved vertex has an upper bound above
    ``D``, the largest eccentricity known exactly (Takes & Kosters, CIKM
    2011).  The result is exact: ``D`` is attained, and every other
    eccentricity is at most its upper bound, which is at most ``D``.  The
    argmax pairs come from the sources whose upper bound reaches ``D``,
    reusing the targets at distance ``D`` recorded by earlier runs.

    A backward run is made from the first vertex, which settles strong
    connectivity, and then only when ``ecc(v) <= D - 2``.  Otherwise
    ``d(u, v) + ecc(v) >= D`` for every ``u != v``: it cannot show
    ``ecc(u) < D``, and a vertex whose eccentricity may equal ``D`` gets its
    own forward run for the argmax anyway.

    On path-like digraphs such as those of the ``f`` family this takes a
    handful of BFS runs (seven for the 1711 sources of f(59)); on random
    ones the bounds rarely meet and it costs about one forward run per
    source, as an all-sources scan does.

    When some pair cannot reach another, the result carries the first such
    ordered pair of pairs (smallest source index, then smallest target) and
    no diameter value.  Otherwise the witness is the argmax with the smallest
    source index, then smallest target index; all argmax pairs are reported.
    """
    nv = p.num_vertices
    pred = None  # built once vertex 0 is known to reach every vertex
    lower = [0] * nv
    upper = [nv] * nv  # no eccentricity reaches nv
    far: dict[int, list[int]] = {}  # targets at distance ecc(v), kept if ecc(v) >= best
    best = -1
    open_ = list(range(nv))
    widest = True
    while open_:
        if widest:
            v = max(open_, key=upper.__getitem__)
        else:
            v = min(open_, key=lower.__getitem__)
        widest = not widest
        forward, _ = _bfs(p.succ, v)
        if min(forward) < 0:  # only the first run, from vertex 0, can miss here
            return _unreachable(p, v, forward)
        ecc = max(forward)
        if ecc >= best:
            far[v] = [t for t in range(nv) if forward[t] == ecc]
        backward = None
        if best < 0 or ecc <= best - 2:
            if pred is None:
                pred = _predecessors(p.succ)
            backward, _ = _bfs(pred, v)
            if min(backward) < 0:
                # vertex 0 reaches every vertex, so the least source that
                # misses a target is the least vertex that cannot reach 0
                u = backward.index(-1)
                return _unreachable(p, u, _bfs(p.succ, u)[0])
        upper[v] = lower[v] = ecc
        for u in open_:
            lo = ecc - forward[u]
            if backward is not None:
                back = backward[u]
                if back + ecc < upper[u]:
                    upper[u] = back + ecc
                if back > lo:
                    lo = back
            if lo > lower[u]:
                lower[u] = lo
            if lower[u] == upper[u] > best:
                best = upper[u]
        open_ = [u for u in open_ if lower[u] < upper[u] and upper[u] > best]

    hits: list[tuple[int, int]] = []
    for s in range(nv):
        if upper[s] < best:
            continue
        targets = far.get(s)  # a run from s found ecc(s) == upper[s] == best
        if targets is None:
            dist, _ = _bfs(p.succ, s)
            targets = [t for t in range(nv) if dist[t] == best]
        hits.extend((s, t) for t in targets)
    s, t = hits[0]
    _, parent = _bfs(p.succ, s)
    return DiameterResult(
        strongly_connected=True,
        value=best,
        source=index_pair(p.n, s),
        target=index_pair(p.n, t),
        word=_path_word(p, parent, t),
        argmax=tuple((index_pair(p.n, s), index_pair(p.n, t)) for s, t in hits),
    )


def _unreachable(p: PairDigraph, source: int, dist: list[int]) -> DiameterResult:
    return DiameterResult(
        strongly_connected=False,
        value=None,
        source=index_pair(p.n, source),
        target=index_pair(p.n, dist.index(-1)),
        word=None,
    )


# ---------------------------------------------------------------------------
# Descent certificates for the `f` family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCertificate:
    """Per-pair values that drop by at most 1 along every pair-digraph edge.

    ``values[pair_index(n, i, j)]`` holds the value of the pair {i, j}.
    The certified statement: any word mapping ``start`` to ``target`` has
    length at least ``values[start] - values[target]``.
    """

    n: int
    values: tuple[int, ...]
    start: tuple[int, int]
    target: tuple[int, int]

    def value_of(self, i: int, j: int) -> int:
        return self.values[pair_index(self.n, min(i, j), max(i, j))]

    def bound(self) -> int:
        return self.value_of(*self.start) - self.value_of(*self.target)


# Values for the 7-state automaton, keyed by 1-based state pairs.
_CERT7 = {
    (1, 2): 6, (1, 3): 14, (1, 4): 7, (1, 5): 3, (1, 6): 6, (1, 7): 11,
    (2, 3): 9, (2, 4): 15, (2, 5): 10, (2, 6): 5, (2, 7): 2,
    (3, 4): 8, (3, 5): 1, (3, 6): 4, (3, 7): 10,
    (4, 5): 9, (4, 6): 7, (4, 7): 0,
    (5, 6): 13, (5, 7): 11, (6, 7): 12,
}


def _chain_decompose(state: int) -> tuple[int, int]:
    """Write a 1-based chain state (5 <= state <= 2k+3) as 4m+r, r in 1..4."""
    r = state % 4
    if r == 0:
        r = 4
    return (state - r) // 4, r


def _half(x: int) -> int:
    if x % 2 != 0:
        raise AssertionError(f"certificate formula produced a half-integer from {x}")
    return x // 2


def _certificate_value(n: int, i: int, j: int) -> int:
    """Value of the 1-based pair (i, j), i < j, for n % 4 == 3, n >= 11.

    One dispatch, mirroring the two published value lists: first the pairs
    touching a central state (1..4) or an extreme state (2k+4, 2k+5), then
    the pairs of two chain states.  Within a clause, special cases come
    before the general case.
    """
    k = (n - 5) // 2
    n1 = _half(k + 3)
    n2 = (k + 4) * (k - 1)
    hi1, hi2 = 2 * k + 4, 2 * k + 5

    # Pairs of two central states.
    if j <= 4:
        return {
            (1, 2): n1 + n2 + 2 * k + 1,
            (1, 3): n1 + n2 + 4 * k + 7,
            (1, 4): n1 + n2 + 2 * k + 2,
            (2, 3): n1 + n2 + 2 * k + 4,
            (2, 4): n1 + n2 + 4 * k + 8,
            (3, 4): n1 + n2 + 2 * k + 3,
        }[(i, j)]

    # A central state with a chain or extreme state.
    if i <= 4:
        if i == 1:
            if j == hi1:
                return n1 + k + 2
            if j == hi2:
                return n1 + 2 * k + 8
            m, r = _chain_decompose(j)
            if r == 1:
                if m == n1 - 1:
                    return _half(k + 3)
                return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k + 3
            if r == 2:
                return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k - 2 * m + 2
            if r == 3:
                if m == 1:
                    return n1 + n2 + 2 * k + 6
                return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k + 8
            return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k - 2 * m + 3
        if i == 2:
            if j == hi1:
                return n1 + k + 1
            if j == hi2:
                return n1 - 1
            m, r = _chain_decompose(j)
            if r == 1:
                if m == 1:
                    return n1 + n2 + 2 * k + 5
                return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k + 7
            if r == 2:
                return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k - 2 * m + 2
            if r == 3:
                return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k + 6
            return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k - 2 * m + 1
        if i == 3:
            if j == hi1:
                return n1 + k
            if j == hi2:
                return n1 + 2 * k + 6
            m, r = _chain_decompose(j)
            if r == 1:
                if m == n1 - 1:
                    return _half(k - 1)
                return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k + 5
            if r == 2:
                return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k - 2 * m + 4
            if r == 3:
                if m == 1:
                    return n1 + n2 + 2 * k + 5
                return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k + 6
            return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k - 2 * m + 1
        # i == 4
        if j == hi1:
            return n1 + k + 3
        if j == hi2:
            return n1 + 1
        m, r = _chain_decompose(j)
        if r == 1:
            if m == 1:
                return n1 + n2 + 2 * k + 4
            return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k + 5
        if r == 2:
            return n1 + (k + 4) * (k - 2 * m + 1) + 2 * k - 2 * m + 4
        if r == 3:
            return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k + 4
        return n1 + (k + 4) * (k - 2 * m - 1) + 2 * k - 2 * m + 3

    # The two extreme states together.
    if i == hi1 and j == hi2:
        return n1 + n2 + 3 * k + 6

    # A chain state with an extreme state.
    if j in (hi1, hi2):
        mp, rp = _chain_decompose(i)
        if rp == 1:
            if j == hi1:
                if 2 * mp == k + 1:
                    return n1 + n2 + 3 * k + 7
                return n1 + (k + 4) * (2 * mp) + k + 1
            if mp == n1 - 1:
                return n1 + (k + 4) * (2 * mp - 2) + 2 * k + 4 + 2 * mp
            return n1 + (k + 4) * (2 * mp - 2) + 2 * k + 5 + 2 * mp
        if rp == 2:
            if j == hi1:
                return n1 + (k + 4) * 2 * mp + k + 1 + 4 * mp
            if mp == 1:
                return n1 + 2 * k + 9
            if 2 * mp == k + 1:
                return n1 + n2 + 2 * k + mp + 8
            return n1 + (k + 4) * (2 * mp - 2) + 2 * k + 2 * mp + 7
        if rp == 3:
            if j == hi1:
                return n1 + (k + 4) * (2 * mp) + k
            if 2 * mp == k - 1:
                return n1 + (k + 4) * (2 * mp) + 2 * k + 2 * mp + 5
            return n1 + (k + 4) * (2 * mp) + 2 * k + 2 * mp + 6
        # rp == 4
        if j == hi1:
            return n1 + (k + 4) * 2 * mp + k + 2 + 4 * mp
        if 2 * mp == k - 1:
            return n1 + n2 + 3 * k + 5
        return n1 + (k + 4) * (2 * mp) + 2 * k + 2 * mp + 8

    # Two chain states.
    mp, rp = _chain_decompose(i)
    m, r = _chain_decompose(j)
    big_m = m + mp
    big_mp = m - mp
    if rp == 1:
        if r == 1:
            if m == mp + 1:
                return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k + 2 * mp + 4
            return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k + 2 * mp + 5
        if r == 2:
            if mp == m:
                return n1 + n2 + 4 * k + 8 - 2 * m
            return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k - 2 * m + 2
        if r == 3:
            if 2 * big_m < k + 1:
                return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k + 2 * mp + 4
            if 2 * big_m == k + 1:
                return _half(4 * m - k - 1)
            return n1 + (k + 4) * (2 * big_m - k - 3) + 2 * k + 2 * mp + 5
        if 2 * big_m < k + 1:
            return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k - 2 * m + 3
        if 2 * big_m == k + 1:
            return n1 + 2 * m
        return n1 + (k + 4) * (2 * big_m - k - 3) + 2 * k + 2 * m + 8
    if rp == 2:
        if r == 1:
            if mp == m - 1:
                return n1 + n2 + 2 * k + 2 * mp + 5
            return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k + 2 * mp + 7
        if r == 2:
            return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k - 2 * m + 4 * mp + 2
        if r == 3:
            if 2 * big_m < k + 1:
                return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k - 2 * mp + 4
            if 2 * big_m == k + 1:
                return n1 + 2 * mp - 1
            return n1 + (k + 4) * (2 * big_m - k - 3) + 2 * k + 2 * mp + 7
        if 2 * big_m < k + 1:
            return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k - 2 * m + 1
        if 2 * big_m == k + 1:
            return n1 + k + 2 * mp + 1
        return n1 + (k + 4) * (2 * big_m - k - 1) + 4 * mp + 2 * m
    if rp == 3:
        if r == 1:
            if 2 * big_m < k + 1:
                return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k + 2 * mp + 5
            if 2 * big_m == k + 1:
                return _half(4 * m - k - 3)
            return n1 + (k + 4) * (2 * big_m - k - 3) + 2 * k + 2 * mp + 6
        if r == 2:
            if 2 * big_m < k + 1:
                return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k - 2 * m + 4
            if 2 * big_m == k + 1:
                return n1 + 2 * m - 1
            return n1 + (k + 4) * (2 * big_m - k - 3) + 2 * k + 2 * m + 7
        if r == 3:
            if m == mp + 1:
                return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k + 2 * m + 3
            return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k + 2 * mp + 6
        if mp == m:
            return n1 + n2 + 4 * k + 7 - 2 * m
        return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k - 2 * m + 1
    # rp == 4
    if r == 1:
        if 2 * big_m < k + 1:
            return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k - 2 * mp + 3
        if 2 * big_m == k + 1:
            return n1 + 2 * mp
        return n1 + (k + 4) * (2 * big_m - k - 3) + 2 * k + 2 * mp + 8
    if r == 2:
        if 2 * big_m < k + 1:
            return n1 + (k + 4) * (k - 2 * big_m - 1) + 2 * k - 2 * m + 2
        if 2 * big_m == k + 1:
            return n1 + k + 2 * mp + 2
        return n1 + (k + 4) * (2 * big_m - k - 1) + 4 * mp + 2 * m + 1
    if r == 3:
        if m == mp + 1:
            return n1 + n2 + 2 * k + 2 * mp + 6
        return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k + 2 * mp + 8
    return n1 + (k + 4) * (k - 2 * big_mp + 1) + 2 * k - 2 * m + 4 * mp + 3


def pair_certificate(n: int) -> PairCertificate:
    """Descent certificate for the pair digraph of the ``f`` automaton.

    Defined for ``n == 7`` (fixed table) and ``n % 4 == 3, n >= 11``
    (closed form).  Construction asserts completeness: every pair receives
    exactly one non-negative value.
    """
    if n == 7:
        table = {(i - 1, j - 1): v for (i, j), v in _CERT7.items()}
        start, target = (1, 3), (3, 6)
    elif n % 4 == 3 and n >= 11:
        k = (n - 5) // 2
        table = {}
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                table[(i - 1, j - 1)] = _certificate_value(n, i, j)
        start, target = (1, 3), (k + 1, k + 3)
    else:
        raise ValueError("certificate is defined for n = 7 and n % 4 == 3, n >= 11")
    count = n * (n - 1) // 2
    if len(table) != count:
        raise AssertionError("certificate table does not cover every pair exactly once")
    values = [0] * count
    for (i, j), val in table.items():
        if not isinstance(val, int) or val < 0:
            raise AssertionError(f"certificate value for pair ({i}, {j}) is {val!r}")
        values[pair_index(n, i, j)] = val
    return PairCertificate(n=n, values=tuple(values), start=start, target=target)


@dataclass(frozen=True)
class CertificateCheck:
    valid: bool
    # (pair, letter name, image pair) of the first failing edge, if any.
    counterexample: tuple[tuple[int, int], str, tuple[int, int]] | None = None


def verify_certificate(p: PairDigraph, cert: PairCertificate) -> CertificateCheck:
    """Check the descent property on every edge of the pair digraph."""
    if cert.n != p.n:
        raise ValueError("certificate and digraph disagree on the state count")
    for v in range(p.num_vertices):
        for slot, w in enumerate(p.succ[v]):
            if cert.values[w] < cert.values[v] - 1:
                return CertificateCheck(
                    valid=False,
                    counterexample=(
                        index_pair(p.n, v),
                        p.letter_names[slot],
                        index_pair(p.n, w),
                    ),
                )
    return CertificateCheck(valid=True)


def _alternating_ba(count: int) -> list[int]:
    """Letter indices of (ba)^count b over the two-letter alphabet a=0, b=1."""
    return [1, 0] * count + [1]


def extremal_pair_word(n: int) -> Word:
    """Word over the ``f`` alphabet mapping the certified start pair to the
    zero-value pair, with length exactly the certified bound.

    Defined for ``n % 4 == 3, n >= 11``.  At ``n == 11`` the inner group
    degenerates to its boundary rows: the single group is simultaneously the
    first and the last one.  The closing factor is the alternating word
    starting with ``b`` of length ``(k - 1) / 2`` (when that length is odd it
    reads (ba)^((k-3)/4) b; even lengths end with ``a``).
    """
    if n % 4 != 3 or n < 11:
        raise ValueError("extremal word is defined for n % 4 == 3, n >= 11")
    k = (n - 5) // 2
    a3ba = [0, 0, 0, 1, 0]
    w: list[int] = [0]
    w += _alternating_ba(k)
    w += [0, 1, 0, 0, 0, 1, 0]
    w += _alternating_ba(k - 1)
    for j in range(1, (k - 1) // 2 + 1):
        w += a3ba
        w += _alternating_ba(j - 1)
        w += a3ba
        w += _alternating_ba(k - 1 - j)
    w += [0, 0]
    closing_len = (k - 1) // 2
    w += [1 if i % 2 == 0 else 0 for i in range(closing_len)]
    return Word(tuple(w))


def pair_digraph_dot(p: PairDigraph, values: PairCertificate | None = None) -> str:
    """DOT rendering of the pair digraph, optionally labeled with values."""
    lines = ["digraph pairs {"]
    for v in range(p.num_vertices):
        i, j = index_pair(p.n, v)
        label = f"q{i + 1}q{j + 1}"
        if values is not None:
            label += f"\\n{values.values[v]}"
        lines.append(f'  {v} [label="{label}"];')
    return _dot(lines, p.succ, p.letter_names)


def _dot(lines: list[str], rows, names) -> str:
    """Close a DOT digraph begun by ``lines`` with one edge per vertex pair.

    ``rows[v][slot]`` is the target of letter ``names[slot]`` from vertex
    ``v``.  Parallel edges merge into one, labeled by their letters in slot
    order; each vertex's edges go out sorted by target.
    """
    for src, row in enumerate(rows):
        grouped: dict[int, list[str]] = {}
        for name, dst in zip(names, row):
            grouped.setdefault(dst, []).append(name)
        for dst, labels in sorted(grouped.items()):
            lines.append(f'  {src} -> {dst} [label="{",".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
