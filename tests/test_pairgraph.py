import random
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from synchrokit import pairgraph
from synchrokit.core import Dfa, Transformation, Word
from synchrokit.families import cerny, f
from synchrokit.pairgraph import (
    DiameterResult,
    PairCertificate,
    PairDigraph,
    build_pair_digraph,
    diameter,
    extremal_pair_word,
    index_pair,
    pair_certificate,
    pair_digraph_dot,
    pair_distance,
    pair_index,
    verify_certificate,
)
import conftest
from conftest import is_strongly_connected, random_permutation


def apply_word_to_pair(d: Dfa, pair: tuple[int, int], w: Word) -> tuple[int, int]:
    """Image of an unordered pair under a word (sorted; may degenerate)."""
    u, v = pair
    for li in w:
        t = d.transformation(li)
        u, v = t.images[u], t.images[v]
    return (u, v) if u <= v else (v, u)


def reference_succ(d: Dfa) -> tuple[tuple[int, ...], ...]:
    """Pair rows over the permutation letters, one pair_index call per entry."""
    perms = [d.transformation(li).images for li in d.permutation_letters()]
    return tuple(
        tuple(pair_index(d.n, min(t[i], t[j]), max(t[i], t[j])) for t in perms)
        for i in range(d.n)
        for j in range(i + 1, d.n)
    )


@pytest.fixture
def bfs_sources(monkeypatch) -> list[int]:
    """The source of each ``pairgraph._bfs`` run, in order, once the test starts."""
    sources: list[int] = []
    bfs = pairgraph._bfs

    def counting_bfs(adj, source):
        sources.append(source)
        return bfs(adj, source)

    monkeypatch.setattr(pairgraph, "_bfs", counting_bfs)
    return sources


def closed_form_diameter(n: int) -> int:
    """Pair-digraph diameter of the f family for odd n >= 11.

    Quartic-residue split: (n^2 + 5n - 28) / 4 when n % 4 == 3 and
    (n^2 + 5n - 30) / 4 when n % 4 == 1 (valid from n = 13 up).
    """
    if n % 4 == 3:
        return (n * n + 5 * n - 28) // 4
    if n >= 13:
        return (n * n + 5 * n - 30) // 4
    raise ValueError(f"no closed form for n={n}")


class TestPairIndex:
    def test_small_table(self):
        # n = 4 enumerates {0,1},{0,2},{0,3},{1,2},{1,3},{2,3}
        expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for idx, (i, j) in enumerate(expected):
            assert pair_index(4, i, j) == idx
            assert index_pair(4, idx) == (i, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_index(4, 2, 2)
        with pytest.raises(ValueError):
            pair_index(4, 3, 1)
        with pytest.raises(ValueError):
            pair_index(4, 0, 4)
        for n, idx in [(3, 3), (3, -1), (4, 6), (2, 1), (1, 0), (0, 0)]:
            with pytest.raises(ValueError, match="need 0 <= idx"):
                index_pair(n, idx)

    @given(st.integers(2, 40), st.data())
    def test_round_trip(self, n, data):
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        assert index_pair(n, pair_index(n, i, j)) == (i, j)


class TestBuildPairDigraph:
    def test_vertex_and_edge_counts(self):
        d = f(7)
        p = build_pair_digraph(d)
        assert p.n == 7
        assert p.num_vertices == 21
        assert p.letter_names == ("a", "b")
        assert all(len(succ) == 2 for succ in p.succ)

    def test_edges_follow_the_letters(self):
        d = f(7)
        p = build_pair_digraph(d)
        a = d.transformation(0)
        for vtx in range(p.num_vertices):
            i, j = index_pair(7, vtx)
            u, w = sorted((a(i), a(j)))
            assert p.succ[vtx][0] == pair_index(7, u, w)

    @pytest.mark.parametrize("n", range(7, 22, 2))
    def test_rows_match_pair_index_reference_on_f(self, n):
        d = f(n)
        assert build_pair_digraph(d).succ == reference_succ(d)

    def test_rows_match_pair_index_reference_on_random_permutations(self):
        rng = random.Random(1990)
        for _ in range(120):
            n = rng.randint(2, 14)
            d = Dfa(n, tuple((f"x{i}", random_permutation(rng, n)) for i in range(rng.randint(1, 3))))
            assert build_pair_digraph(d).succ == reference_succ(d)

    def test_permutation_letters_only(self):
        # non-permutation letters are ignored: the cycle family keeps just "a"
        p = build_pair_digraph(cerny(5))
        assert p.letter_names == ("a",)

    def test_rejects_all_merging_alphabet(self):
        d = Dfa(3, (("a", Transformation((0, 0, 1))),))
        with pytest.raises(ValueError):
            build_pair_digraph(d)


class TestPairDistance:
    def test_seven_state_extremal_pair(self):
        p = build_pair_digraph(f(7))
        dist, word = pair_distance(p, (1, 3), (3, 6))
        assert dist == 15 and len(word) == 15
        assert apply_word_to_pair(f(7), (1, 3), word) == (3, 6)

    def test_orderless_endpoints(self):
        p = build_pair_digraph(f(7))
        assert pair_distance(p, (3, 1), (6, 3))[0] == 15

    def test_unreachable_returns_none(self):
        p = build_pair_digraph(cerny(4))
        assert pair_distance(p, (0, 1), (0, 2)) is None

    def test_zero_distance(self):
        p = build_pair_digraph(f(7))
        dist, word = pair_distance(p, (2, 5), (2, 5))
        assert dist == 0 and len(word) == 0


class TestDiameter:
    def test_seven_state_family(self):
        res = diameter(build_pair_digraph(f(7)))
        assert res.strongly_connected
        assert res.value == 15
        assert (res.source, res.target) == ((1, 3), (3, 6))
        assert ((1, 3), (3, 6)) in res.argmax
        assert apply_word_to_pair(f(7), res.source, res.word) == res.target

    @pytest.mark.parametrize("n", (9, 11, 13))
    def test_word_witnesses_the_value(self, n):
        d = f(n)
        res = diameter(build_pair_digraph(d))
        assert len(res.word) == res.value
        assert apply_word_to_pair(d, res.source, res.word) == res.target

    def test_not_strongly_connected(self):
        res = diameter(build_pair_digraph(cerny(4)))
        assert not res.strongly_connected
        assert res.value is None and res.word is None

    def test_single_permutation_cycle(self):
        # one cyclic letter on 3 states: pairs {0,1},{0,2},{1,2} form a 3-cycle
        d = Dfa(3, (("a", Transformation((1, 2, 0))),))
        res = diameter(build_pair_digraph(d))
        assert res.strongly_connected and res.value == 2


def oracle_diameter(p) -> DiameterResult:
    """All-sources scan: one BFS per source pair, argmax in (source, target) order.

    With letters tried in slot order, the first discovery of every pair lies
    on the lexicographically least of its shortest paths, so the parent
    pointers of the first argmax source spell the canonical witness.
    """
    nv = p.num_vertices

    def bfs(source):
        dist = {source: 0}
        parent = {source: None}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for slot, w in enumerate(p.succ[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = (v, slot)
                    queue.append(w)
        return dist, parent

    best = -1
    hits = []
    for s in range(nv):
        dist, _ = bfs(s)
        for t in range(nv):
            if t not in dist:
                return DiameterResult(
                    strongly_connected=False,
                    value=None,
                    source=index_pair(p.n, s),
                    target=index_pair(p.n, t),
                    word=None,
                )
            if dist[t] > best:
                best, hits = dist[t], [(s, t)]
            elif dist[t] == best:
                hits.append((s, t))
    s, t = hits[0]
    _, parent = bfs(s)
    letters = []
    v = t
    while parent[v] is not None:
        v, slot = parent[v]
        letters.append(p.letter_indices[slot])
    return DiameterResult(
        strongly_connected=True,
        value=best,
        source=index_pair(p.n, s),
        target=index_pair(p.n, t),
        word=Word(tuple(reversed(letters))),
        argmax=tuple((index_pair(p.n, s), index_pair(p.n, t)) for s, t in hits),
    )


class TestDiameterAgainstOracle:
    @pytest.mark.parametrize("n", range(7, 43, 2))
    def test_f_family(self, n):
        p = build_pair_digraph(f(n))
        assert diameter(p) == oracle_diameter(p)

    def test_seeded_random_permutations(self):
        rng = random.Random(20171103)
        connected = set()
        for index in range(330):
            n = 2 + index % 11
            letters = rng.choice((1, 2, 2, 3))
            d = Dfa(
                n,
                tuple((f"x{i}", random_permutation(rng, n)) for i in range(letters)),
            )
            p = build_pair_digraph(d)
            expected = oracle_diameter(p)
            assert diameter(p) == expected
            assert is_strongly_connected(p) == expected.strongly_connected
            connected.add(expected.strongly_connected)
        assert connected == {True, False}, "the sample must hold both kinds of digraphs"

    @settings(max_examples=60)
    @given(st.integers(2, 12), st.integers(1, 3), st.data())
    def test_hypothesis_permutations(self, n, letters, data):
        perms = [
            Transformation(tuple(data.draw(st.permutations(range(n)))))
            for _ in range(letters)
        ]
        p = build_pair_digraph(Dfa(n, tuple((f"x{i}", t) for i, t in enumerate(perms))))
        assert diameter(p) == oracle_diameter(p)

    def test_mixed_alphabet_uses_permutation_letters_only(self):
        # the merging letter sits between the two permutations in the alphabet
        d = Dfa(
            5,
            (
                ("a", Transformation((1, 2, 3, 4, 0))),
                ("c", Transformation((0, 0, 2, 3, 4))),
                ("b", Transformation((1, 0, 2, 3, 4))),
            ),
        )
        p = build_pair_digraph(d)
        res = diameter(p)
        assert res == oracle_diameter(p)
        assert apply_word_to_pair(d, res.source, res.word) == res.target

    def test_two_states_single_vertex(self):
        p = build_pair_digraph(Dfa(2, (("a", Transformation((1, 0))),)))
        res = diameter(p)
        assert res == oracle_diameter(p)
        assert res.value == 0 and res.word == Word(())
        assert res.argmax == (((0, 1), (0, 1)),)

    def test_reached_from_everywhere_is_not_enough(self, bfs_sources):
        # a hand-built path 0 -> 1 -> 2 (a loop at 2): 0 reaches every
        # vertex, but nothing reaches 0, which only a backward run notices
        p = PairDigraph(n=3, letter_names=("a",), letter_indices=(0,), succ=((1,), (2,), (2,)))
        assert not is_strongly_connected(p)
        res = diameter(p)
        assert res == oracle_diameter(p)
        assert (res.source, res.target) == ((0, 2), (0, 1))
        # forward and backward from 0, then one forward run from 1, the
        # least vertex that cannot reach 0; no scan over the sources
        assert bfs_sources == [0, 0, 1]

    def test_unreachable_report(self):
        for d in (cerny(4), cerny(5), cerny(9)):
            p = build_pair_digraph(d)
            assert diameter(p) == oracle_diameter(p)


class TestDiameterCost:
    def test_f101_matches_the_closed_form_quickly(self):
        p = build_pair_digraph(f(101))
        start = time.perf_counter()
        res = diameter(p)
        elapsed = time.perf_counter() - start
        assert res.value == closed_form_diameter(101)
        assert len(res.word) == res.value
        assert elapsed < 1.0, f"diameter(f(101)) took {elapsed:.2f} s"

    def test_f59_needs_few_bfs_runs(self, bfs_sources):
        p = build_pair_digraph(f(59))
        assert diameter(p).value == closed_form_diameter(59)
        assert len(bfs_sources) <= 20, f"{len(bfs_sources)} BFS runs for {p.num_vertices} sources"


def strongly_connected(num_vertices: int, edges) -> bool:
    """Strong connectivity of a digraph given as an edge list."""
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, w in edges:
        adj[u].append(w)
    return conftest.strongly_connected(adj)


class TestSccCount:
    def test_counts(self):
        assert not strongly_connected(3, [(0, 1), (1, 0)])
        assert strongly_connected(3, [(0, 1), (1, 2), (2, 0)])
        assert not strongly_connected(3, [(0, 1), (1, 2)])  # 0 reaches all, none reaches 0
        assert not strongly_connected(3, [(1, 0), (2, 0)])  # all reach 0, 0 reaches none
        assert not strongly_connected(4, [])
        assert strongly_connected(1, [])

    def test_is_strongly_connected(self):
        assert is_strongly_connected(build_pair_digraph(f(9)))
        assert not is_strongly_connected(build_pair_digraph(cerny(5)))

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_reachability_oracle(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        num = r.randint(1, 8)
        edges = [(r.randrange(num), r.randrange(num)) for _ in range(r.randint(0, 12))]
        # oracle: components from mutual reachability of the transitive closure
        reach = [set([x]) for x in range(num)]
        changed = True
        while changed:
            changed = False
            for u, w in edges:
                new = reach[w] - reach[u]
                if new:
                    reach[u] |= new
                    changed = True
        comps = {frozenset(x for x in range(num) if u in reach[x] and x in reach[u]) for u in range(num)}
        assert strongly_connected(num, edges) == (len(comps) == 1)


class TestCertificates:
    def test_seven_state_values(self):
        cert = pair_certificate(7)
        assert cert.bound() == 15
        assert cert.value_of(1, 3) == 15
        assert cert.value_of(3, 1) == 15  # unordered access
        assert cert.value_of(3, 6) == 0
        assert verify_certificate(build_pair_digraph(f(7)), cert).valid

    # f() does not check certificates itself: cover n = 7 and every n = 3 (mod 4) up to 59
    @pytest.mark.parametrize("n", (7, *range(11, 60, 4)))
    def test_closed_form_certificates_are_valid_and_tight(self, n):
        cert = pair_certificate(n)
        p = build_pair_digraph(f(n))
        assert verify_certificate(p, cert).valid
        dist, _ = pair_distance(p, cert.start, cert.target)
        # f(7) lies off the closed form, which holds from n = 11 up
        assert dist == cert.bound() == (15 if n == 7 else closed_form_diameter(n))
        # every value is exactly its pair's distance to the target pair
        to_target, _ = pairgraph._bfs(
            pairgraph._predecessors(p.succ), pair_index(n, *sorted(cert.target))
        )
        assert list(cert.values) == to_target

    def test_unsupported_sizes(self):
        for n in (9, 13, 17, 8):
            with pytest.raises(ValueError):
                pair_certificate(n)

    def test_certified_bound_constrains_bfs(self):
        # soundness: no word from start to target may beat the bound
        n = 11
        cert = pair_certificate(n)
        p = build_pair_digraph(f(n))
        dist, _ = pair_distance(p, cert.start, cert.target)
        assert dist >= cert.bound()

    def test_perturbed_certificate_is_caught(self):
        cert = pair_certificate(7)
        values = list(cert.values)
        values[pair_index(7, 1, 3)] += 5  # inflate the start value
        bad = PairCertificate(n=7, values=tuple(values), start=cert.start, target=cert.target)
        check = verify_certificate(build_pair_digraph(f(7)), bad)
        assert not check.valid
        pair, letter, image = check.counterexample
        assert letter in ("a", "b")
        assert bad.value_of(*image) < bad.value_of(*pair) - 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_certificate(build_pair_digraph(f(9)), pair_certificate(7))


class TestExtremalWord:
    @pytest.mark.parametrize("n", (11, 15, 19))
    def test_length_matches_certificate(self, n):
        cert = pair_certificate(n)
        w = extremal_pair_word(n)
        assert len(w) == cert.bound()
        assert apply_word_to_pair(f(n), cert.start, w) == cert.target

    def test_unsupported_sizes(self):
        for n in (7, 9, 13):
            with pytest.raises(ValueError):
                extremal_pair_word(n)


class TestClosedFormDiameters:
    @pytest.mark.parametrize("n,expected", [(11, 37), (13, 51), (15, 68), (17, 86), (19, 107)])
    def test_against_bfs(self, n, expected):
        assert closed_form_diameter(n) == expected
        assert diameter(build_pair_digraph(f(n))).value == expected

    def test_small_cases_fall_outside(self):
        # n = 7 and n = 9 predate the pattern: 15 and 25 measured directly
        assert diameter(build_pair_digraph(f(7))).value == 15
        assert diameter(build_pair_digraph(f(9))).value == 25


class TestDot:
    def test_pair_digraph_dot(self):
        text = pair_digraph_dot(build_pair_digraph(f(7)))
        assert text.startswith("digraph pairs {")
        assert 'label="q2q4"' in text
        assert text.count("->") == 42  # 21 vertices x 2 letters

    def test_values_annotation(self):
        text = pair_digraph_dot(build_pair_digraph(f(7)), pair_certificate(7))
        assert 'label="q2q4\\n15"' in text


@settings(max_examples=50)
@given(st.data())
def test_pair_walks_agree_with_the_automaton(data):
    """Pair-digraph edges mirror the action of the letters on state pairs."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(2, 8)
    d = Dfa(n, (("a", random_permutation(r, n)), ("b", random_permutation(r, n))))
    p = build_pair_digraph(d)
    w = Word(tuple(r.randrange(2) for _ in range(r.randint(0, 10))))
    i, j = r.randrange(n), r.randrange(n)
    if i == j:
        j = (j + 1) % n
    walked = pair_index(n, *apply_word_to_pair(d, (min(i, j), max(i, j)), w))
    vtx = pair_index(n, min(i, j), max(i, j))
    for letter in w:
        vtx = p.succ[vtx][letter]
    assert vtx == walked
