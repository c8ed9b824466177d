"""The numpy subset BFS behind ``reset_threshold_exact`` against a plain oracle.

The oracle is the straightforward breadth-first search with a dict of
parents: with letters tried in index order, it discovers every subset along
the lexicographically least of its shortest paths, so the first singleton
it reaches carries the canonical witness.
"""

import random
from collections import deque

import pytest

from synchrokit import sync
from synchrokit.core import Dfa, Word, word_transformation
from synchrokit.families import cerny, rystsov, v
from synchrokit.sync import NOT_SYNCHRONIZING, _reset_distance, reset_threshold_exact

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


def assert_matches_oracle(d: Dfa) -> None:
    expected = oracle_reset_threshold(d)
    assert reset_threshold_exact(d) == expected
    distance = _reset_distance(d)
    if expected is NOT_SYNCHRONIZING:
        assert distance is None
    else:
        assert distance == expected[0]


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


def test_many_letters_map_levels_in_chunks(monkeypatch):
    # with many letters a level is mapped in several chunks (of 256 subsets
    # here), and the backward sweep marks a level only after all its chunks
    by_chunks = sync._by_chunks
    split = []

    def spy(fn, subsets, n, m):
        pieces = []
        out = by_chunks(lambda s: pieces.append(s.size) or fn(s), subsets, n, m)
        split.append(len(pieces) > 1)
        return out

    monkeypatch.setattr(sync, "_by_chunks", spy)
    rng = random.Random(20240611)
    chunked = 0
    for index in range(16):
        n = 9 + index % 2
        m = rng.randint(8, 40)
        letters = []
        for i in range(m):
            draw = random_permutation if rng.random() < 0.9 else random_transformation
            letters.append((f"x{i}", draw(rng, n)))
        d = Dfa(n, tuple(letters))
        split.clear()
        assert_matches_oracle(d)
        chunked += any(split)
        bfs = sync._forward_bfs(sync._letter_tables(d), n)
        if bfs is not None:
            levels = [sorted(level.tolist()) for level in bfs[0]]
            assert levels == oracle_levels(d, len(levels) - 1)
    assert chunked >= 6


@pytest.mark.parametrize("family", [cerny, v, rystsov])
@pytest.mark.parametrize("n", range(2, 13))
def test_families_match_oracle(family, n):
    assert_matches_oracle(family(n))


def _check_exact(d: Dfa, expected_rt: int) -> None:
    rt, word = reset_threshold_exact(d)
    assert rt == expected_rt == len(word)
    assert word_transformation(d, word).rank() == 1
    assert word_transformation(d, Word(word.letters[:-1])).rank() > 1


def test_v_twenty():
    _check_exact(v(20), 190)


def test_cerny_twenty():
    _check_exact(cerny(20), 361)


@pytest.mark.extended
def test_cerny_at_the_cap():
    _check_exact(cerny(25), 576)
