"""The numpy subset BFS behind ``reset_threshold_exact`` against a plain oracle.

The oracle is the straightforward breadth-first search with a dict of
parents: with letters tried in index order, it discovers every subset along
the lexicographically least of its shortest paths, so the first singleton
it reaches carries the canonical witness.  The same BFS runs over batches of
automata (``_reset_distances``); the oracle checks them one automaton at a
time.  The witness is walked depth-first on the BFS levels; past the walk's
budget the levels are pruned to the subsets that start a shortest reset
word, and the walk runs again on them: tests reach the prune both at the
real budget and with a budget of 0, which sends every automaton to it.
The image tables read a subset in chunks of bits; with narrower chunks
patched in, the tests cover one chunk for a batch and two chunks for single
automata against the oracle, and more chunks against the default layout.
A batch of several automata is always one chunk.
"""

import itertools
import random
import tracemalloc
from collections import deque

import pytest

from synchrokit import sync
from synchrokit.core import Dfa, Transformation, Word, word_transformation
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
def prunes(monkeypatch) -> list[int]:
    """The rt of each search whose levels are pruned, as they are pruned."""
    prune = sync._prune
    calls = []

    def spy(tables, levels, dist, n, rt):
        calls.append(rt)
        return prune(tables, levels, dist, n, rt)

    monkeypatch.setattr(sync, "_prune", spy)
    return calls


def _force_prune(monkeypatch) -> None:
    monkeypatch.setattr(sync, "_walk_budget", lambda rt: 0)


def small_families():
    return (f(n) for f in (cerny, v, rystsov) for n in range(2, 13))


def test_the_prune_alone_matches_the_oracle(monkeypatch, prunes):
    _force_prune(monkeypatch)
    expected = 0
    for d in itertools.chain(seeded_automata(), small_families()):
        assert_matches_oracle(d)
        expected += oracle_distance(d) not in (None, 0)
    assert len(prunes) == expected > 250


def test_the_walk_gives_family_witnesses_and_random_ones_reach_the_prune(prunes):
    for d in small_families():
        reset_threshold_exact(d)
    assert prunes == []
    for d in seeded_automata():
        before = len(prunes)
        result = reset_threshold_exact(d)
        if len(prunes) > before:
            assert result == oracle_reset_threshold(d)
    assert prunes


def test_pruned_levels_walk_without_backtracking():
    # after the prune, a walk allowed only rt expansions, one per letter,
    # never backtracks and gives the oracle's word
    walked = 0
    for d in itertools.chain(seeded_automata(), small_families()):
        expected = oracle_reset_threshold(d)
        if expected is NOT_SYNCHRONIZING:
            continue
        tables = sync._letter_tables([d])
        (rt,), levels, dist = sync._forward_bfs(tables, d.n)
        sync._prune(tables, levels, dist, d.n, rt)
        assert (rt, Word(tuple(sync._walk(tables, dist, d.n, rt, rt)))) == expected
        walked += rt > 1
    assert walked > 200


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
    # here), and the prune, forced here, maps every chunk of a level
    _force_prune(monkeypatch)
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


def test_v_twenty(prunes):
    _check_exact(v(20), 190)
    assert prunes == []  # walked, in rt + 18 expansions


def test_cerny_twenty(prunes):
    _check_exact(cerny(20), 361)
    assert prunes == []


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
def test_chunk_layouts_match_the_oracle(monkeypatch, n):
    # under 11-bit chunks: one 11-bit chunk, two 6-bit chunks, and a 7-bit
    # chunk under a narrower 6-bit last one; a batch is read only in one
    # chunk, with each automaton's offset right above it, and refused in two
    monkeypatch.setattr(sync, "_CHUNK_BITS", 11)
    assert sync._chunks(n) == {11: (1, 11), 12: (2, 6), 13: (2, 7)}[n]
    dfas = _layout_automata(random.Random(20261020 + n), n, 3)
    expected = [oracle_reset_threshold(d) for d in dfas]
    distances = [None if e is NOT_SYNCHRONIZING else e[0] for e in expected]
    assert sum(rt is not None for rt in distances) >= 2
    if n == 11:
        batch_distances, batch_levels, _ = sync._forward_bfs(sync._letter_tables(dfas), n)
        assert batch_distances == distances
    else:
        with pytest.raises(AssertionError, match="spans 2 chunks"):
            sync._letter_tables(dfas)
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
        if n == 11:
            own = [sorted(c & full for c in level.tolist() if c >> n == t) for level in batch_levels]
            last = len(levels) - 1 if rt is None else rt
            assert own[: last + 1] == oracle[: last + 1]
            assert not any(own[last + 1 :])


@pytest.mark.parametrize("n, count", [(14, 1), (16, 1), (10, 6)])
def test_levels_are_ascending_and_new(n, count):
    # the comparisons above sort each level first, so they would pass on a
    # level that held a code twice or came out unsorted: here every level is
    # strictly ascending and shares no code with an earlier one, in one
    # 14-bit chunk, in two chunks at 16 states, and in a batch of 10-state
    # automata some of which retire before the search ends
    dfas = _layout_automata(random.Random(20261022 + n), n, count)
    assert sync._chunks(n)[0] == (2 if n == 16 else 1)
    distances, levels, dist = sync._forward_bfs(sync._letter_tables(dfas), n)
    if count > 1:
        assert min(rt for rt in distances if rt is not None) < len(levels) - 1
    seen: set[int] = set()
    for k, level in enumerate(levels):
        codes = level.tolist()
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert seen.isdisjoint(codes)
        assert (dist.take(level) == k + 1).all()
        seen.update(codes)
    assert len(seen) > 2000


def _engine_outputs(dfas: list[Dfa], n: int):
    """``dist`` before and after the prune, levels as sets and both
    witnesses of each automaton."""
    out = []
    for d in dfas:
        tables = sync._letter_tables([d])
        (rt,), levels, dist = sync._forward_bfs(tables, n)
        pruned = words = None
        if rt is not None:
            pruned = dist.copy()
            sync._prune(tables, levels, pruned, n, rt)
            words = (sync._walk(tables, dist, n, rt, 1 << n), sync._walk(tables, pruned, n, rt, rt))
            pruned = pruned.tolist()
        levels = [set(level.tolist()) for level in levels]
        out.append((rt, dist.tolist(), pruned, levels, words))
    return out


@pytest.mark.parametrize("bits", [8, 5, 3])
def test_narrower_chunks_give_the_same_search(monkeypatch, bits):
    # chunks of at most 8 bits, the old byte width, split 9..13 states in
    # two; 5 and 3 bits split them into two to five, so the middle chunks'
    # masks run too; the default reads each in one chunk
    rng = random.Random(20261021 + bits)
    cases = [(n, _layout_automata(rng, n, 3)) for n in range(9, 14)]
    assert {sync._chunks(n)[0] for n, _ in cases} == {1}
    expected = [_engine_outputs(dfas, n) for n, dfas in cases]
    monkeypatch.setattr(sync, "_CHUNK_BITS", bits)
    assert max(sync._chunks(n)[0] for n, _ in cases) == -(-13 // bits)
    assert [_engine_outputs(dfas, n) for n, dfas in cases] == expected
    assert sum(words is not None for out in expected for *_, words in out) >= 10
    for n, dfas in cases:
        with pytest.raises(AssertionError, match="automata of"):
            sync._letter_tables(dfas)


def test_batches_of_several_automata_are_one_chunk(monkeypatch):
    # _reset_distances splits any number of automata into batches that
    # hold several only where a subset is one chunk, at every n it accepts
    batches = []

    def tables(dfas):
        batches.append((dfas[0].n, len(dfas)))
        return len(dfas)

    monkeypatch.setattr(sync, "_letter_tables", tables)
    monkeypatch.setattr(sync, "_forward_bfs", lambda trials, n: ([None] * trials, [], None))
    for n in range(1, 33):
        d = Dfa(n, (("a", Transformation(tuple(range(n)))),))
        count = (sync._BATCH_SUBSETS >> n) + 2
        assert _reset_distances([d] * count) == [None] * count
    assert {n for n, size in batches if size > 1} == set(range(1, 15))
    assert all(size == 1 or sync._chunks(n)[0] == 1 for n, size in batches)


def test_memory_check_charges_the_image_tables(monkeypatch):
    # the tables of every layout up to the widest, two 14-bit chunks at 27
    # and 28 states, fit the per-letter bytes charged, single and batched
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
    widest = 4 * 2 * 2**14 + 20 * 256
    assert [n for n in range(1, 33) if sync._exact_letter_bytes(n) == widest] == [27, 28]
    assert max(map(sync._exact_letter_bytes, range(1, 33))) == widest == 136192


@pytest.mark.parametrize("name", ["random", "v"])
def test_peak_memory_stays_under_the_charge(monkeypatch, prunes, name):
    # the bytes traced at the peak of a whole search, the prune included
    # for the random automaton, against what the memory check charges
    if name == "random":
        _force_prune(monkeypatch)
        (d,) = _layout_automata(random.Random(20261023), 14, 1)
    else:
        d = v(14)
    tracemalloc.start()
    try:
        result = reset_threshold_exact(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not NOT_SYNCHRONIZING
    assert len(prunes) == (name == "random")
    charge = (sync._EXACT_BYTES << d.n) + sync._exact_letter_bytes(d.n) * d.m
    assert peak < charge
