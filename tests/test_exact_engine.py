"""The numpy subset BFS behind ``reset_threshold_exact`` against a plain oracle.

The oracle is the straightforward breadth-first search with a dict of
parents: with letters tried in index order, it discovers every subset along
the lexicographically least of its shortest paths, so the first singleton
it reaches carries the canonical witness.  The same BFS runs over batches of
automata (``_reset_distances``); the oracle checks them one automaton at a
time.  The witness is walked depth-first on the BFS levels, and the backward
sweep takes over past the walk's budget: tests reach the sweep both at the
real budget and with a budget of 0, which sends every automaton to it.
The image tables read a subset in chunks of bits; the tests cover one chunk
and two against the oracle, and narrower chunks, patched in, against the
default layout.
"""

import itertools
import random
from collections import deque

import pytest

from synchrokit import sync
from synchrokit.core import Dfa, Word, word_transformation
from synchrokit.families import cerny, rystsov, v
from synchrokit.sync import NOT_SYNCHRONIZING, _reset_distances, reset_threshold_exact

from conftest import random_permutation, random_transformation


def oracle_reset_threshold(d: Dfa):
    """``(rt, word)`` with the lexicographically least shortest reset word."""
    images = [t.images for t in d.transformations()]
    full = frozenset(range(d.n))
    parent = {full: None}
    queue = deque([full])
    while queue:
        subset = queue.popleft()
        if len(subset) == 1:
            letters = []
            while parent[subset] is not None:
                subset, letter = parent[subset]
                letters.append(letter)
            return len(letters), Word(tuple(reversed(letters)))
        for letter, img in enumerate(images):
            image = frozenset(img[q] for q in subset)
            if image not in parent:
                parent[image] = (subset, letter)
                queue.append(image)
    return NOT_SYNCHRONIZING


def oracle_levels(d: Dfa, depth: int) -> list[list[int]]:
    """Bitmasks of the subsets first reached by words of length 0..depth."""
    images = [t.images for t in d.transformations()]
    full = (1 << d.n) - 1
    seen, levels = {full}, [[full]]
    while len(levels) <= depth:
        fresh = set()
        for mask in levels[-1]:
            for img in images:
                image = sum({1 << img[q] for q in range(d.n) if mask >> q & 1})
                if image not in seen:
                    seen.add(image)
                    fresh.add(image)
        levels.append(sorted(fresh))
    return levels


def oracle_distance(d: Dfa) -> int | None:
    expected = oracle_reset_threshold(d)
    return None if expected is NOT_SYNCHRONIZING else expected[0]


def assert_matches_oracle(d: Dfa) -> None:
    expected = oracle_reset_threshold(d)
    result = reset_threshold_exact(d)
    assert result == expected
    # a batch of one gives the length of the witness search
    assert _reset_distances([d]) == [None if result is NOT_SYNCHRONIZING else result[0]]


def seeded_automata():
    rng = random.Random(20170413)
    for index in range(400):
        n = 1 + index % 9
        m = rng.randint(1, 4)
        letters = []
        for i in range(m):
            # permutation-only automata never synchronize for n > 1
            draw = random_permutation if rng.random() < 0.4 else random_transformation
            letters.append((f"x{i}", draw(rng, n)))
        yield Dfa(n, tuple(letters))


def test_seeded_random_automata_match_oracle():
    outcomes = set()
    for d in seeded_automata():
        assert_matches_oracle(d)
        outcomes.add(oracle_reset_threshold(d) is NOT_SYNCHRONIZING)
    assert outcomes == {True, False}, "the sample must hold both kinds of automata"


@pytest.fixture
def sweeps(monkeypatch) -> list[int]:
    """The rt of each witness the backward sweep gives, as it gives them."""
    sweep = sync._sweep
    calls = []

    def spy(tables, levels, dist, n, rt):
        calls.append(rt)
        return sweep(tables, levels, dist, n, rt)

    monkeypatch.setattr(sync, "_sweep", spy)
    return calls


def _force_sweep(monkeypatch) -> None:
    monkeypatch.setattr(sync, "_walk_budget", lambda rt: 0)


def small_families():
    return (f(n) for f in (cerny, v, rystsov) for n in range(2, 13))


def test_the_sweep_alone_matches_the_oracle(monkeypatch, sweeps):
    _force_sweep(monkeypatch)
    expected = 0
    for d in itertools.chain(seeded_automata(), small_families()):
        assert_matches_oracle(d)
        expected += oracle_distance(d) not in (None, 0)
    assert len(sweeps) == expected > 250


def test_the_walk_gives_family_witnesses_and_random_ones_reach_the_sweep(sweeps):
    for d in small_families():
        reset_threshold_exact(d)
    assert sweeps == []
    for d in seeded_automata():
        before = len(sweeps)
        result = reset_threshold_exact(d)
        if len(sweeps) > before:
            assert result == oracle_reset_threshold(d)
    assert sweeps


def test_seeded_batches_match_oracle():
    # batches mixing automata that never reset with others of different
    # thresholds, each checked one automaton at a time
    groups: dict[tuple[int, int], list[Dfa]] = {}
    for d in seeded_automata():
        groups.setdefault((d.n, d.m), []).append(d)
    mixed = 0
    for group in groups.values():
        expected = [oracle_distance(d) for d in group]
        assert _reset_distances(group) == expected
        mixed += None in expected and len(set(expected)) > 2
    assert mixed >= 10


@pytest.mark.parametrize("size", [1, 2, 3, 1 << 16])
def test_batch_size_does_not_change_the_distances(monkeypatch, size):
    rng = random.Random(20261018)
    dfas = [
        Dfa(7, (("a", random_permutation(rng, 7)), ("b", random_transformation(rng, 7))))
        for _ in range(9)
    ]
    expected = [oracle_distance(d) for d in dfas]
    assert None in expected and len(set(expected)) > 3
    monkeypatch.setattr(sync, "_BATCH_SUBSETS", size << 7)
    assert _reset_distances(dfas) == expected


def _spy_chunks(monkeypatch) -> list[bool]:
    """Record, per ``_by_chunks`` call, whether it mapped several chunks."""
    by_chunks = sync._by_chunks
    split = []

    def spy(fn, codes, span, m):
        pieces = []
        out = by_chunks(lambda s: pieces.append(s.size) or fn(s), codes, span, m)
        split.append(len(pieces) > 1)
        return out

    monkeypatch.setattr(sync, "_by_chunks", spy)
    return split


def _many_letter_automata(rng: random.Random, count: int, n: int, m: int) -> list[Dfa]:
    dfas = []
    for _ in range(count):
        letters = []
        for i in range(m):
            draw = random_permutation if rng.random() < 0.9 else random_transformation
            letters.append((f"x{i}", draw(rng, n)))
        dfas.append(Dfa(n, tuple(letters)))
    return dfas


def test_many_letters_map_levels_in_chunks(monkeypatch):
    # with many letters a level is mapped in several chunks (of 256 subsets
    # here), and the backward sweep, forced here, marks a level only after
    # all its chunks
    _force_sweep(monkeypatch)
    split = _spy_chunks(monkeypatch)
    rng = random.Random(20240611)
    chunked = 0
    for index in range(16):
        n = 9 + index % 2
        (d,) = _many_letter_automata(rng, 1, n, rng.randint(8, 40))
        split.clear()
        assert_matches_oracle(d)
        chunked += any(split)
        distances, levels, _ = sync._forward_bfs(sync._letter_tables([d]), n)
        if distances[0] is not None:
            levels = [sorted(level.tolist()) for level in levels]
            assert levels == oracle_levels(d, len(levels) - 1)
    assert chunked >= 6


def test_batched_levels_mapped_in_chunks(monkeypatch):
    # each automaton's codes on a batched level are its own level, up to
    # the level where it resets and empty after (all levels for one that
    # never resets); levels over 256 codes are mapped in several chunks
    split = _spy_chunks(monkeypatch)
    rng = random.Random(20261019)
    chunked = retired_early = never = 0
    for index in range(4):
        n, m = 9 + index % 2, rng.randint(8, 24)
        dfas = _many_letter_automata(rng, 4, n, m)
        split.clear()
        distances, levels, _ = sync._forward_bfs(sync._letter_tables(dfas), n)
        chunked += any(split)
        full = (1 << n) - 1
        for t, d in enumerate(dfas):
            expected = oracle_distance(d)
            assert distances[t] == expected
            depth = len(levels) - 1 if expected is None else expected
            own = [sorted(c & full for c in level.tolist() if c >> n == t) for level in levels]
            assert own[: depth + 1] == oracle_levels(d, depth)
            assert not any(own[depth + 1 :])
            retired_early += depth < len(levels) - 1
            never += expected is None
    assert chunked == 4
    assert retired_early >= 6 and never >= 2


@pytest.mark.parametrize("family", [cerny, v, rystsov])
@pytest.mark.parametrize("n", range(2, 13))
def test_families_match_oracle(family, n):
    assert_matches_oracle(family(n))


def _check_exact(d: Dfa, expected_rt: int) -> None:
    rt, word = reset_threshold_exact(d)
    assert rt == expected_rt == len(word)
    assert word_transformation(d, word).rank() == 1
    assert word_transformation(d, Word(word.letters[:-1])).rank() > 1


def test_v_twenty(sweeps):
    _check_exact(v(20), 190)
    assert sweeps == []  # walked, in rt + 18 expansions


def test_cerny_twenty(sweeps):
    _check_exact(cerny(20), 361)
    assert sweeps == []


@pytest.mark.extended
def test_cerny_at_the_cap():
    _check_exact(cerny(25), 576)


def _layout_automata(rng: random.Random, n: int, count: int) -> list[Dfa]:
    """Random automata of n states and three letters: two permutations and a
    transformation, which keeps most of them synchronizing."""
    return [
        Dfa(n, (
            ("a", random_permutation(rng, n)),
            ("b", random_permutation(rng, n)),
            ("c", random_transformation(rng, n)),
        ))
        for _ in range(count)
    ]


@pytest.mark.parametrize("n", [11, 12, 13])
def test_chunk_layouts_match_the_oracle(n):
    # one 11-bit chunk, two 6-bit chunks, and a 7-bit chunk under a
    # narrower 6-bit last one; the n = 11 batch sets each automaton's offset
    # right above the only chunk
    assert sync._chunks(n) == {11: (1, 11), 12: (2, 6), 13: (2, 7)}[n]
    dfas = _layout_automata(random.Random(20261020 + n), n, 3)
    expected = [oracle_reset_threshold(d) for d in dfas]
    distances = [None if e is NOT_SYNCHRONIZING else e[0] for e in expected]
    assert sum(rt is not None for rt in distances) >= 2
    batch_distances, batch_levels, _ = sync._forward_bfs(sync._letter_tables(dfas), n)
    assert batch_distances == distances
    full = (1 << n) - 1
    for t, d in enumerate(dfas):
        assert reset_threshold_exact(d) == expected[t]
        (rt,), levels, dist = sync._forward_bfs(sync._letter_tables([d]), n)
        assert rt == distances[t]
        oracle = oracle_levels(d, len(levels) - 1)
        assert [sorted(level.tolist()) for level in levels] == oracle
        depth = [0] * (1 << n)
        for k, level in enumerate(oracle):
            for mask in level:
                depth[mask] = k + 1
        assert dist.tolist() == depth
        own = [sorted(c & full for c in level.tolist() if c >> n == t) for level in batch_levels]
        last = len(levels) - 1 if rt is None else rt
        assert own[: last + 1] == oracle[: last + 1]
        assert not any(own[last + 1 :])


def _engine_outputs(dfas: list[Dfa], n: int):
    """``dist``, levels as sets and both witnesses of each automaton, then
    the batch's distances, ``dist`` and levels as sets."""
    out = []
    for d in dfas:
        tables = sync._letter_tables([d])
        (rt,), levels, dist = sync._forward_bfs(tables, n)
        words = None
        if rt is not None:
            words = (sync._walk(tables, dist, n, rt, 1 << n), sync._sweep(tables, levels, dist, n, rt))
        out.append((rt, dist.tolist(), [set(level.tolist()) for level in levels], words))
    distances, levels, dist = sync._forward_bfs(sync._letter_tables(dfas), n)
    out.append((distances, dist.tolist(), [set(level.tolist()) for level in levels]))
    return out


@pytest.mark.parametrize("bits", [8, 5, 3])
def test_narrower_chunks_give_the_same_search(monkeypatch, bits):
    # chunks of at most 8 bits, the old byte width, split 9..13 states in
    # two; 5 and 3 bits split them into two to five, so the middle chunks'
    # masks run too
    rng = random.Random(20261021 + bits)
    cases = [(n, _layout_automata(rng, n, 3)) for n in range(9, 14)]
    expected = [_engine_outputs(dfas, n) for n, dfas in cases]
    monkeypatch.setattr(sync, "_CHUNK_BITS", bits)
    assert max(sync._chunks(n)[0] for n, _ in cases) == -(-13 // bits)
    assert [_engine_outputs(dfas, n) for n, dfas in cases] == expected
    assert sum(words is not None for out in expected for *_, words in out[:-1]) >= 10


def test_memory_check_charges_the_image_tables(monkeypatch):
    # the tables of every layout up to the widest, three 11-bit chunks at
    # 32 states, fit the per-letter bytes charged, single and batched
    monkeypatch.setattr(sync, "_physical_memory", lambda: 1 << 62)
    charged = []
    require = sync._require_memory
    monkeypatch.setattr(sync, "_require_memory", lambda n, need: charged.append(need) or require(n, need))
    rng = random.Random(20261022)
    batches = [_layout_automata(rng, n, 1) for n in range(1, 33)]
    batches += [_layout_automata(rng, n, sync._BATCH_SUBSETS >> n) for n in (8, 10, 12)]
    for dfas in batches:
        n, m, trials = dfas[0].n, dfas[0].m, len(dfas)
        tables = sync._letter_tables(dfas)
        assert tables.nbytes <= sync._exact_letter_bytes(n) * m * trials
        assert charged.pop() >= trials * ((sync._EXACT_BYTES << n) + sync._exact_letter_bytes(n) * m)
    assert sync._exact_letter_bytes(32) == 4 * 3 * 2**11 + 20 * 256
    assert max(map(sync._exact_letter_bytes, range(1, 33))) == sync._exact_letter_bytes(32)
