import hashlib
import itertools
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synchrokit.core import Dfa, StateSet, Transformation, Word, apply_word, word_transformation
from synchrokit.families import cb, cerny, f, rystsov, v
from synchrokit import core, sync
from synchrokit.sync import (
    NOT_SYNCHRONIZING,
    Method,
    ResetResult,
    cb_reset_word,
    extension_reset_word,
    is_synchronizing,
    pairchase_reset_word,
    potential_lower_bound,
    reset_threshold_exact,
)

from conftest import (
    edges_at,
    pair_orbit_two_transitive,
    preimage_of,
    random_dfa,
    random_permutation,
    singleton,
    stratify,
    strongly_connected_at,
)


def resets(d: Dfa, w: Word) -> bool:
    return apply_word(StateSet.full(d.n), d, w).cardinality() == 1


def refuse_allocation(monkeypatch) -> None:
    """Make every numpy array allocation of a subset search fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    for name in ("zeros", "array", "concatenate"):
        monkeypatch.setattr(np, name, refuse)


class TestResetThresholdExact:
    # classic thresholds of the two-letter cycle family: (n - 1)^2
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 4), (4, 9), (5, 16), (6, 25)])
    def test_cycle_family(self, n, expected):
        rt, word = reset_threshold_exact(cerny(n))
        assert rt == expected == len(word)
        assert resets(cerny(n), word)

    def test_witness_is_least_shortest(self):
        # frozen from the first implementation; guards the BFS tie-breaking
        rt, word = reset_threshold_exact(v(5))
        assert rt == 10
        assert word.names(v(5)) == ("a5", "a2", "a3", "a4", "a5", "a2", "a3", "a5", "a2", "a5")

    def test_not_synchronizing_sentinel(self):
        result = reset_threshold_exact(f(7))
        assert result is NOT_SYNCHRONIZING is None

    def test_sink_family(self):
        assert reset_threshold_exact(rystsov(4))[0] == 6
        assert reset_threshold_exact(rystsov(5))[0] == 10

    def test_cap(self, monkeypatch):
        # the only cap is memory: 27 * 2^12 + 2 * (4 * 2^12 + 20 * 256)
        # = 153600 bytes for cerny(12), whose tables are one 12-bit chunk
        monkeypatch.setattr(sync, "_physical_memory", lambda: 153600)
        assert reset_threshold_exact(cerny(12))[0] == 121
        assert sync._reset_distances([cerny(12)]) == [121]
        monkeypatch.setattr(sync, "_physical_memory", lambda: 153599)
        refuse_allocation(monkeypatch)
        with pytest.raises(ValueError, match="153600 bytes, more than the 153599 bytes of physical memory"):
            reset_threshold_exact(cerny(12))
        with pytest.raises(ValueError, match="153600 bytes"):
            sync._reset_distances([cerny(12)])

    def test_cap_covers_the_whole_batch(self, monkeypatch):
        # one batch of three cerny(12) needs 3 * 153600 bytes, refused one
        # byte short although each automaton alone would fit
        batch = [cerny(12)] * 3
        monkeypatch.setattr(sync, "_physical_memory", lambda: 460800)
        assert sync._reset_distances(batch) == [121] * 3
        monkeypatch.setattr(sync, "_physical_memory", lambda: 460799)
        refuse_allocation(monkeypatch)
        with pytest.raises(ValueError, match="460800 bytes, more than the 460799 bytes"):
            sync._reset_distances(batch)

    def test_more_than_32_states_is_a_value_error_whatever_the_cap(self, monkeypatch):
        monkeypatch.setattr(sync, "_physical_memory", lambda: 1 << 62)
        refuse_allocation(monkeypatch)
        with pytest.raises(ValueError, match="at most 32 states"):
            reset_threshold_exact(cerny(33))

    def test_single_state(self):
        d = Dfa(1, (("a", Transformation((0,))),))
        rt, word = reset_threshold_exact(d)
        assert rt == 0 and len(word) == 0


class TestIsSynchronizing:
    def test_positive_and_negative(self):
        assert is_synchronizing(cerny(8))
        assert is_synchronizing(rystsov(6))
        assert not is_synchronizing(f(9))

    def test_permutation_letter_alone(self):
        d = Dfa(3, (("a", Transformation((1, 2, 0))),))
        assert not is_synchronizing(d)

    def test_agrees_with_exact_on_random_inputs(self, rng):
        for _ in range(150):
            d = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
            expected = reset_threshold_exact(d) is not NOT_SYNCHRONIZING
            assert is_synchronizing(d) == expected


def reference_merge_distances(d: Dfa) -> tuple[dict, dict]:
    """Plain BFS on (i, j) tuples, backwards from the pairs one letter collapses.

    Returns ``(dist, merge_letter)``: ``dist[(i, j)]`` counts the letters
    before the collapsing one (absent where no word collapses the pair), and
    ``merge_letter`` holds the least collapsing letter of each pair at 0.
    """
    images = [t.images for t in d.transformations()]
    rev: dict = {}
    dist: dict = {}
    merge_letter: dict = {}
    for i in range(d.n):
        for j in range(i + 1, d.n):
            for letter, img in enumerate(images):
                a, b = img[i], img[j]
                if a == b:
                    if (i, j) not in merge_letter:
                        merge_letter[(i, j)] = letter
                        dist[(i, j)] = 0
                else:
                    rev.setdefault((min(a, b), max(a, b)), []).append((i, j))
    frontier = deque(sorted(merge_letter))
    while frontier:
        p = frontier.popleft()
        for q in rev.get(p, ()):
            if q not in dist:
                dist[q] = dist[p] + 1
                frontier.append(q)
    return dist, merge_letter


def reference_pairchase(d: Dfa) -> tuple[int, ...]:
    """Greedy pair chasing with a per-round minimum over every image pair.

    The image moves one letter at a time through a plain set, independent of
    the run-length word action in :func:`core.apply_word`.
    """
    dist, merge_letter = reference_merge_distances(d)
    if len(dist) < d.n * (d.n - 1) // 2:
        raise ValueError("automaton is not synchronizing")
    images = [t.images for t in d.transformations()]
    image = set(range(d.n))
    letters: list[int] = []
    while len(image) > 1:
        states = sorted(image)
        remaining, i, j = min(
            (dist[(i, j)], i, j) for x, i in enumerate(states) for j in states[x + 1 :]
        )
        step = []
        while remaining > 0:
            for letter, img in enumerate(images):
                key = (min(img[i], img[j]), max(img[i], img[j]))
                if img[i] != img[j] and dist.get(key) == remaining - 1:
                    step.append(letter)
                    (i, j), remaining = key, remaining - 1
                    break
        step.append(merge_letter[(i, j)])
        for letter in step:
            img = images[letter]
            image = {img[q] for q in image}
        letters.extend(step)
    return tuple(letters)


def chase_or_error(chase, d: Dfa):
    try:
        return tuple(chase(d))
    except ValueError as exc:
        return str(exc)


#: Letter kinds of :func:`shaped_dfa`, each fixing most states as v(n)'s do.
SHAPED_KINDS = ("transposition", "3-cycle", "identity", "move-one", "constant", "block")


def shaped_letter(rng: random.Random, n: int, kind: str) -> tuple[int, ...]:
    """Images of one letter of ``kind`` on ``n`` states, at random places."""
    images = list(range(n))
    x, y, z = rng.sample(range(n), 3) if n >= 3 else (0, n - 1, 0)
    if kind == "transposition":
        images[x], images[y] = y, x
    elif kind == "3-cycle" and n >= 3:
        images[x], images[y], images[z] = y, z, x
    elif kind == "move-one":
        images[x] = y
    elif kind == "constant":
        images = [rng.randrange(n)] * n
    elif kind == "block":
        # a preimage block of 3 or more states (all of them below 3) onto one
        block = rng.sample(range(n), rng.randint(min(n, 3), n))
        for q in block:
            images[q] = block[0]
    return tuple(images)


def shaped_dfa(rng: random.Random, n: int) -> tuple[Dfa, list[str]]:
    """An automaton shaped like v(n), and its letter kinds: some adjacent
    transpositions along a random order of the states, plus one to three
    letters of :data:`SHAPED_KINDS`, in shuffled letter order.  Dropped
    transpositions and letters that merge nothing make some of them
    non-synchronizing."""
    order = rng.sample(range(n), n)
    letters = []
    for i in range(n - 1):
        if rng.random() < 0.8:
            images = list(range(n))
            images[order[i]], images[order[i + 1]] = order[i + 1], order[i]
            letters.append(("transposition", tuple(images)))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(SHAPED_KINDS)
        letters.append((kind, shaped_letter(rng, n, kind)))
    rng.shuffle(letters)
    d = Dfa(n, tuple((f"x{i}", Transformation(images)) for i, (_, images) in enumerate(letters)))
    return d, [kind for kind, _ in letters]


class TestPairchaseAgainstReference:
    def test_automata_shaped_like_v(self):
        # letters that fix most states, so that most pairs are skipped
        rng = random.Random(2017)
        kinds: set[str] = set()
        outcomes = {True: 0, False: 0}
        for n in range(1, 13):
            for _ in range(60):
                d, letter_kinds = shaped_dfa(rng, n)
                kinds.update(letter_kinds)
                expected = chase_or_error(reference_pairchase, d)
                assert chase_or_error(lambda d: pairchase_reset_word(d).word, d) == expected
                synchronizing = not isinstance(expected, str)
                assert is_synchronizing(d) == synchronizing
                outcomes[synchronizing] += 1
                dist, _ = sync._merge_distances(d)
                reference, _ = reference_merge_distances(d)
                assert {
                    (i, j): dist[i * n + j] - 1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if dist[i * n + j] > 0
                } == reference
        assert kinds == set(SHAPED_KINDS)
        assert min(outcomes.values()) >= 100

    def test_seeded_random_automata(self):
        rng = random.Random(20171)
        for _ in range(500):
            d = random_dfa(rng, rng.randint(2, 12), rng.randint(1, 4))
            expected = chase_or_error(reference_pairchase, d)
            assert chase_or_error(lambda d: pairchase_reset_word(d).word, d) == expected
            assert is_synchronizing(d) == (not isinstance(expected, str))

    @pytest.mark.parametrize("family", [cerny, v, rystsov])
    def test_families(self, family):
        for n in range(2, 31):
            d = family(n)
            assert tuple(pairchase_reset_word(d).word) == reference_pairchase(d)
            assert is_synchronizing(d)


class TestPairchase:
    @pytest.mark.parametrize("make", [lambda: cerny(10), lambda: v(9), lambda: rystsov(8), lambda: cb(17, 4)])
    def test_produces_verified_words(self, make):
        d = make()
        r = pairchase_reset_word(d)
        assert r.method is Method.PAIRCHASE
        assert r.verified
        assert r.length == len(r.word)
        assert resets(d, r.word)

    def test_large_instance(self):
        # frozen run: greedy chase on the 50-state three-letter automaton
        r = pairchase_reset_word(cb(50, 25))
        assert r.verified and r.length == 930

    def test_large_words_are_frozen(self):
        # sha256 of the chase words, computed with the pair-row BFS and its
        # predecessor lists before the BFS moved onto letter preimages
        h = hashlib.sha256()
        for family, n in ((cerny, 100), (cerny, 150), (v, 60), (v, 80), (v, 100)):
            r = pairchase_reset_word(family(n))
            assert r.verified
            h.update(f"{family.__name__}({n}) {' '.join(map(str, r.word))}\n".encode())
        assert h.hexdigest() == "f1564861936e41bdb42d8e7dda75589c09bbc112c0c7a374528e248c3ae670de"

    def test_memory_stays_off_per_pair_objects(self):
        # per-pair tuples peaked at 3.9 MiB here and two flat next-step tables
        # at 2.0; the key matrix and the one flat ``walked`` table at about 1.8
        d = cerny(150)
        tracemalloc.start()
        try:
            r = pairchase_reset_word(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.verified and peak < 2.5 * 2**20

    def test_cycle_family_is_quadratic_not_worse(self):
        for n in (5, 9, 13):
            r = pairchase_reset_word(cerny(n))
            assert (n - 1) ** 2 <= r.length <= (n - 1) ** 2 * 2

    def test_rejects_non_synchronizing(self):
        with pytest.raises(ValueError):
            pairchase_reset_word(f(7))


class TestExtension:
    @pytest.mark.parametrize("n", (4, 7, 12, 25))
    def test_merge_family(self, n):
        d = v(n)
        r = extension_reset_word(d)
        assert r.method is Method.EXTENSION
        assert r.verified
        assert resets(d, r.word)
        assert r.length <= 1 + (n - 2) * (2 * n - 2)

    def test_three_letter_family(self):
        d = cb(16, 8)
        r = extension_reset_word(d)
        assert r.verified and r.length <= 1 + 14 * 30

    def test_rejects_without_two_transitivity(self):
        # the sink family's permutations fix state 0
        with pytest.raises(ValueError, match="2-transitive"):
            extension_reset_word(rystsov(6))

    def test_rejects_without_rank_n_minus_one_letter(self):
        with pytest.raises(ValueError):
            extension_reset_word(f(7))

    def test_one_state_word_is_checked(self, monkeypatch):
        d = Dfa(1, (("a", Transformation((0,))),))
        r = extension_reset_word(d)
        assert r.length == 0 and r.verified
        monkeypatch.setattr(sync, "_resets", lambda d, w: False)
        assert not extension_reset_word(d).verified


@pytest.mark.parametrize(
    "make,length,digest",
    [
        (lambda: extension_reset_word(v(60)), 1770,
         "4420e41ab77575891a1a971441880fc4179c9b4802696a8a552315fee51351ff"),
        (lambda: extension_reset_word(v(80)), 3160,
         "0f19bee151b639b7a900336180f7cf96b7cfbf6462cedbc1561b55cc1b36d3ef"),
        (lambda: extension_reset_word(v(100)), 4950,
         "02d4e2d4a3dac96b866bb701cafadb97b12751582c5110ebd13943dad08f1f54"),
        (lambda: cb_reset_word(200, 2), 3110,
         "8479d9119f6e6245b253edb547d20368bf137910dff7e98ca6cbfdfc507cb44e"),
        (lambda: cb_reset_word(200, 66), 3393,
         "0fb4f8d22be92e0c6b3ea0eb301232b8adfd0b833fa000278589036f12152cd4"),
        (lambda: cb_reset_word(200, 100), 3358,
         "7c95d47446e592d17fe09a2d4f7177a09348465618443a21584d72ea7d7805bf"),
        (lambda: cb_reset_word(200, 199), 3258,
         "4f76167ddfa4dba64e121e6a9f615bc6b15ddf02eaba6676a199dcfa7efb2ed2"),
    ],
    ids=["ext-v60", "ext-v80", "ext-v100", "cb200-2", "cb200-66", "cb200-100", "cb200-199"],
)
def test_benchmark_words_are_frozen(make, length, digest):
    # sha256 of the letter indices of the extension and cb words of the
    # construct benchmark, computed before the word action moved onto
    # shift groups of the state mask
    r = make()
    assert r.verified and r.length == length
    assert hashlib.sha256(bytes(r.word.letters)).hexdigest() == digest


def reference_stratification(
    d: Dfa,
) -> tuple[list[list[tuple[int, int]]], dict[tuple[int, int], tuple[int, Word]]]:
    """The stratification as a queue-order loop over (edge, letter) steps that
    stores a whole witness word per edge in a plain dict: the non-empty levels
    of (q, p) edges, and edge -> (seed letter, witness word) in discovery order."""
    n = d.n
    seeds = d.rank_n_minus_one_letters()
    if not seeds:
        raise ValueError("no letter of rank n-1 to seed the stratification")
    perms = [(i, d.transformation(i).images) for i in d.permutation_letters()]
    if not perms:
        raise ValueError("no permutation letters to grow the stratification")
    witnesses: dict[tuple[int, int], tuple[int, Word]] = {}
    first: list[tuple[int, int]] = []
    for letter in seeds:
        t = d.transformation(letter)
        edge = (t.excluded_state(), t.duplicate_state())
        if edge not in witnesses:
            witnesses[edge] = (letter, Word(()))
            first.append(edge)
    levels = [first]
    for _ in range(2 * n - 3):
        fresh: list[tuple[int, int]] = []
        for q, p in levels[-1]:
            seed, w = witnesses[(q, p)]
            for letter, images in perms:
                img = (images[q], images[p])
                if img not in witnesses:
                    witnesses[img] = (seed, w + Word((letter,)))
                    fresh.append(img)
        if not fresh:
            break
        levels.append(fresh)
    return levels, witnesses


def stratification_witnesses(n: int, levels, parent, letter) -> dict[tuple[int, int], tuple[int, Word]]:
    """``stratify``'s output read as edge -> (seed letter, witness word)
    in discovery order, walking each edge's parent chain back to its seed edge."""
    witnesses = {}
    for code in (code for level in levels for code in level.tolist()):
        root, word = code, []
        while parent[root] >= 0:
            word.append(letter[root])
            root = parent[root]
        witnesses[divmod(code, n)] = (letter[root], Word(tuple(reversed(word))))
    assert sum(a >= 0 for a in letter) == len(witnesses)
    return witnesses


def reference_extension_letters(d: Dfa, witnesses, x: int) -> list[int]:
    """Extension chain ending in ``x``, rescanning every witness on each step
    for the least (word length, q, p) among the edges crossing into ``r``."""
    n = d.n
    t = d.transformation(x)
    r = preimage_of(t, (t.duplicate_state(),))
    word = [x]
    while len(r) < n:
        best = None
        best_edge = None
        for (q, p), (_, w) in witnesses.items():
            if p in r and q not in r:
                key = (len(w), q, p)
                if best is None or key < best:
                    best = key
                    best_edge = (q, p)
        if best_edge is None:
            raise ValueError(
                "no crossing edge in the stratification; "
                "the permutation letters do not act 2-transitively"
            )
        seed, w = witnesses[best_edge]
        u = [seed, *w]
        r = preimage_of(word_transformation(d, Word(tuple(u))), r)
        word = u + word
    return word


def reference_extension(d: Dfa) -> ResetResult:
    """The extension word with the pair-orbit 2-transitivity test and the
    rescanning edge choice; the first shortest chain over the rank n-1 letters."""
    n = d.n
    if n == 1:
        return ResetResult(Word(()), 0, Method.EXTENSION, True)
    if not d.rank_n_minus_one_letters():
        raise ValueError("extension requires a letter of rank n-1")
    perms = [d.transformation(i).images for i in d.permutation_letters()]
    if not perms or not pair_orbit_two_transitive(perms, n):
        raise ValueError(
            "extension requires permutation letters generating the "
            "symmetric group or at least acting 2-transitively"
        )
    _, witnesses = reference_stratification(d)
    best = None
    for x in d.rank_n_minus_one_letters():
        letters = reference_extension_letters(d, witnesses, x)
        if best is None or len(letters) < len(best):
            best = letters
    w = Word(tuple(best))
    return ResetResult(w, len(w), Method.EXTENSION, resets(d, w))


def random_rank_n_minus_one(rng: random.Random, n: int) -> Transformation:
    """A permutation with one image overwritten by another: rank n - 1."""
    images = list(random_permutation(rng, n).images)
    i, j = rng.sample(range(n), 2)
    images[i] = images[j]
    return Transformation(tuple(images))


def random_extension_automaton(rng: random.Random) -> Dfa:
    """1-3 permutation letters and 1-2 rank n-1 letters, shuffled."""
    n = rng.randint(3, 12)
    letters = [random_permutation(rng, n) for _ in range(rng.randint(1, 3))]
    letters += [random_rank_n_minus_one(rng, n) for _ in range(rng.randint(1, 2))]
    rng.shuffle(letters)
    return Dfa(n, tuple((f"x{i}", t) for i, t in enumerate(letters)))


class TestExtensionAgainstReference:
    @staticmethod
    def _agrees(d: Dfa) -> bool:
        """Same result or same error message; True when the input was accepted."""
        outcomes = []
        for extension in (reference_extension, extension_reset_word):
            try:
                outcomes.append(extension(d))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[1] == outcomes[0]
        return isinstance(outcomes[0], ResetResult)

    @pytest.mark.parametrize("n", range(4, 41))
    def test_merge_and_three_letter_families(self, n):
        assert self._agrees(v(n))
        assert self._agrees(cb(n, n // 2))

    @pytest.mark.extended
    @pytest.mark.parametrize("n", (60, 80, 100))
    def test_benchmark_merge_family(self, n):
        assert self._agrees(v(n))

    def test_composes_no_word_transformation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("word_transformation called")

        monkeypatch.setattr(core, "word_transformation", refuse)
        monkeypatch.setattr(sync, "word_transformation", refuse, raising=False)
        d = v(60)
        r = extension_reset_word(d)
        assert r.verified and resets(d, r.word)

    def test_sink_family(self):
        # its permutation letters fix state 0: every n is refused, with the
        # same message
        assert not any(self._agrees(rystsov(n)) for n in range(3, 21))

    def test_seeded_random_automata(self):
        # 1-3 permutation letters, 1-2 rank n-1 letters, letters shuffled;
        # two rank n-1 letters exercise the choice of the shortest chain
        rng = random.Random(0xE47)
        accepted = rejected = 0
        while accepted < 300:
            if self._agrees(random_extension_automaton(rng)):
                accepted += 1
            else:
                rejected += 1
        assert rejected > 0


class TestStratificationAgainstReference:
    @staticmethod
    def _agrees(d: Dfa) -> None:
        n = d.n
        levels, parent, letter = stratify(d)
        reference_levels, reference_witnesses = reference_stratification(d)
        assert len(levels) <= 2 * n - 2  # levels 0 .. 2n - 3
        assert all(level.dtype.kind == "i" for level in levels)
        edges = [[divmod(code, n) for code in level.tolist()] for level in levels]
        assert edges == reference_levels
        witnesses = stratification_witnesses(n, levels, parent, letter)
        assert witnesses == reference_witnesses
        assert list(witnesses) == list(reference_witnesses)  # discovery order
        assert all(type(a) is int for seed, w in witnesses.values() for a in (seed, *w))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_families(self, n):
        self._agrees(v(n))
        if n >= 4:
            self._agrees(cb(n, n // 2))
        if 3 <= n <= 20:
            self._agrees(rystsov(n))

    def test_seeded_random_automata(self):
        rng = random.Random(0x57A7)
        for _ in range(300):
            self._agrees(random_extension_automaton(rng))

    def test_many_letters(self):
        # more letters than n^2 / |frontier|: each level is mapped in slices
        rng = random.Random(0x511CE)
        for n in (4, 6, 9):
            letters = [random_permutation(rng, n) for _ in range(3 * n)]
            letters.append(random_rank_n_minus_one(rng, n))
            self._agrees(Dfa(n, tuple((f"x{i}", t) for i, t in enumerate(letters))))
        # every permutation of four states: one frontier edge per slice
        letters = [Transformation((0, 0, 2, 3))]
        letters += [Transformation(p) for p in itertools.permutations(range(4))]
        self._agrees(Dfa(4, tuple((f"x{i}", t) for i, t in enumerate(letters))))

    @pytest.mark.parametrize(
        "letters, message",
        [
            ((Transformation((1, 2, 0)),), "no letter of rank n-1"),
            ((Transformation((0, 0, 2)),), "no permutation letters"),
        ],
    )
    def test_refusals(self, letters, message):
        # sync._strata leaves both refusals to extension_reset_word
        d = Dfa(3, tuple((f"x{i}", t) for i, t in enumerate(letters)))
        with pytest.raises(ValueError, match=message):
            reference_stratification(d)
        refusal = {
            "no letter of rank n-1": "extension requires a letter of rank n-1",
            "no permutation letters": "extension requires permutation letters",
        }[message]
        with pytest.raises(ValueError, match=refusal):
            sync.extension_reset_word(d)

    def test_stratify_builds_no_word(self, monkeypatch):
        built = []
        post_init = Word.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        d = v(100)
        monkeypatch.setattr(Word, "__post_init__", counting)
        levels, _, _ = stratify(d)
        assert built == []
        assert sum(level.size for level in levels) == d.n * (d.n - 1)


class TestExtensionStratification:
    def test_seed_level_holds_merge_edges(self):
        d = v(6)
        levels, _, _ = stratify(d)
        # the merge letter excludes state 1 and duplicates state 0
        assert [divmod(code, d.n) for code in levels[0].tolist()] == [(1, 0)]

    def test_levels_cover_all_pairs_within_bound(self):
        for n in (4, 6, 9):
            levels, _, _ = stratify(v(n))
            assert len(levels) <= 2 * n - 2  # levels 0 .. 2n - 3
            assert len(edges_at(levels, n)) == n * (n - 1)
            assert strongly_connected_at(levels[: 2 * n - 2], n)

    def test_edges_monotone(self):
        n = 7
        levels, _, _ = stratify(v(n))
        for lvl in range(2 * n - 3):
            assert edges_at(levels[: lvl + 1], n) <= edges_at(levels[: lvl + 2], n)

    def test_witnesses_carry_seed_onto_pair(self):
        d = v(6)
        witnesses = stratification_witnesses(d.n, *stratify(d))
        assert len(witnesses) == d.n * (d.n - 1)
        for pair, (seed, w) in witnesses.items():
            t = word_transformation(d, w)
            seed_t = d.transformation(seed)
            assert (t(seed_t.excluded_state()), t(seed_t.duplicate_state())) == pair
            # witness words use permutation letters only
            assert all(d.transformation(i).is_permutation() for i in w)

    def test_no_crossing_edge_is_a_broken_invariant(self, monkeypatch):
        # past the 2-transitivity check some edge always crosses into R; with
        # the check bypassed, the only seed edge (1, 0) lies inside R = {0, 1}
        # and the permutation letter fixes it
        monkeypatch.setattr(sync, "_is_two_transitive", lambda gens, n: True)
        d = Dfa(4, (("a", Transformation((0, 1, 3, 2))), ("b", Transformation((0, 0, 2, 3)))))
        levels, parent, letter = stratify(d)
        assert [level.tolist() for level in levels] == [[1 * 4 + 0]]
        assert (parent[4], letter[4]) == (-1, 1)
        assert all(parent[code] == letter[code] == -1 for code in range(16) if code != 4)
        with pytest.raises(AssertionError, match="crosses into R"):
            extension_reset_word(d)


def grown_extension(monkeypatch, d: Dfa):
    """``extension_reset_word(d)`` with its stratification's growth recorded:
    the result, the levels grown, the grower's ``parent`` and ``letter`` as
    lists, and per rank n-1 letter the count of levels grown after its chain
    and the chain's length."""
    grown, pointers, after = [], [], []
    strata, extension_letters = sync._strata, sync._extension_letters

    def recording(d, parent, letter):
        pointers.append((parent, letter))
        for level in strata(d, parent, letter):
            grown.append(level.tolist())
            yield level

    def counting(*args):
        letters = extension_letters(*args)
        after.append((len(grown), len(letters)))
        return letters

    monkeypatch.setattr(sync, "_strata", recording)
    monkeypatch.setattr(sync, "_extension_letters", counting)
    r = extension_reset_word(d)
    monkeypatch.undo()
    [(parent, letter)] = pointers
    return r, grown, parent.tolist(), letter.tolist(), after


class TestLazyStratification:
    @pytest.mark.parametrize("n", (10, 40))
    def test_grows_only_the_levels_the_steps_read(self, monkeypatch, n):
        # step i of v(n)'s chain reads level i: the last step, n - 2, is the
        # deepest level grown, though the full stratification goes to 2n - 3
        d = v(n)
        levels, parent, letter = stratify(d)
        r, grown, grown_parent, grown_letter, _ = grown_extension(monkeypatch, d)
        assert r.length == n * (n - 1) // 2
        assert len(grown) == n - 1 < len(levels) == 2 * n - 2
        assert grown == [level.tolist() for level in levels[: n - 1]]
        built = {code for level in grown for code in level}
        assert len(built) == n * (n - 1) // 2
        for code in range(n * n):
            if code in built:
                assert (grown_parent[code], grown_letter[code]) == (parent[code], letter[code])
            else:
                assert grown_parent[code] == grown_letter[code] == -1

    def test_later_letter_grows_deeper_levels(self, monkeypatch):
        # v(8) and a second rank n-1 letter b sending state 7 onto 4: the
        # chain of b, tried second, reads two levels past those of a8's
        # chain, and a8's shorter chain is kept
        merge = list(range(8))
        merge[7] = 4
        d = Dfa(8, (*v(8).letters, ("b", Transformation(tuple(merge)))))
        assert d.rank_n_minus_one_letters() == (7, 8)
        r, grown, _, _, after = grown_extension(monkeypatch, d)
        assert after == [(3, 16), (5, 20)]
        assert len(grown) == 5 < len(stratify(d)[0])
        assert r == reference_extension(d)
        assert r.word.letters[-1] == 7 and r.length == 16


class TestCbWords:
    def test_k1_word_shape_and_optimality(self):
        for n in (3, 5, 6, 9, 12):
            r = cb_reset_word(n, 1)
            d = cb(n, 1)
            assert r.method is Method.CB_ROUNDS
            assert r.word.names(d) == ("b",) + ("c", "a", "b") * (n - 2)
            assert r.length == 3 * n - 5
            assert r.length == reset_threshold_exact(d)[0]

    @pytest.mark.parametrize("n,k", [(8, 3), (15, 7), (40, 13), (40, 39), (200, 100)])
    def test_general_k(self, n, k):
        r = cb_reset_word(n, k)
        assert r.verified
        assert resets(cb(n, k), r.word)
        assert r.length < 4 * n * math.ceil(math.log2(n))

    @pytest.mark.parametrize(
        "pairs,digest",
        [
            (
                [(n, k) for n in range(3, 61) for k in range(1, n)],
                "1ee30f8b75b188244e211f00ef4a47ad6f516774166033b9049375b3a1c9395d",
            ),
            (
                [(n, k) for n in range(50, 201, 25) for k in sorted({2, n // 3, n // 2, n - 1})],
                "4c1d603e510bfc70ec36478bd95876e45fba5a6d62ac0ccada639e3c546ab91f",
            ),
        ],
        ids=["all-k-up-to-60", "perfbench-construct"],
    )
    def test_round_letters_are_frozen(self, pairs, digest):
        # sha256 of the simulated letters, computed with the token-set
        # simulation (a rotating offset and a patched isolated count) before
        # the rounds moved onto the image bitmask
        h = hashlib.sha256()
        for n, k in pairs:
            letters = "".join("abc"[x] for x in sync._simulate_cb(n, k))
            h.update(f"{n} {k} {letters}\n".encode())
        assert h.hexdigest() == digest

    @staticmethod
    def replay_rounds(n: int, k: int) -> list[tuple[str, set[int], int, int]]:
        """Replay the word on a plain set of token states, counting isolated
        tokens from scratch: a merging round ends once every token is
        isolated, a pairing round once at most one is.  Returns per round
        its kind, the letters it used, and the token count before and after."""
        word = cb_reset_word(n, k).word
        assert list(word) == sync._simulate_cb(n, k)
        images = [t.images for t in cb(n, k).transformations()]

        def isolated(tokens):
            return sum((q - 1) % n not in tokens and (q + 1) % n not in tokens for q in tokens)

        tokens, letters = set(range(n)), iter(word)
        rounds = []
        while len(tokens) > 1:
            kind = "pairing" if isolated(tokens) == len(tokens) else "merging"
            size_before, used = len(tokens), set()
            while True:
                a = next(letters)
                used.add(a)
                tokens = {images[a][q] for q in tokens}
                iso = isolated(tokens)
                if (kind == "merging" and iso == len(tokens)) or (kind == "pairing" and iso <= 1):
                    break
            rounds.append((kind, used, size_before, len(tokens)))
        assert next(letters, None) is None  # the last round ends the word
        return rounds

    def test_round_trace_structure(self):
        for n, k in ((8, 3), (15, 7), (40, 13), (40, 39)):
            rounds = self.replay_rounds(n, k)
            assert rounds[0][0] == "merging"
            for prev, cur in zip(rounds, rounds[1:]):
                assert cur[0] != prev[0]  # merging and pairing alternate
            assert rounds[-1][3] == 1
            for idx, (kind, used, size_before, size_after) in enumerate(rounds):
                if kind == "merging":
                    # cycle and merge letters only; merging rounds after the
                    # first at least halve the live tokens
                    assert used <= {0, 1}
                    if idx > 0:
                        assert size_after <= (size_before + 1) // 2
                else:
                    # cycle and swap letters only, keeping every token
                    assert used <= {0, 2}
                    assert size_after == size_before

    def test_validation(self):
        with pytest.raises(ValueError):
            cb_reset_word(2, 1)
        with pytest.raises(ValueError):
            cb_reset_word(8, 0)
        with pytest.raises(ValueError):
            cb_reset_word(8, 8)


def assert_matches_plain_potential_bound(d: Dfa, weights, target: StateSet) -> None:
    """Subset by subset in mask order, letter by letter, with Python sets."""
    n = d.n
    expected = (True, sum(weights) - sum(weights[q] for q in target.members()), None)
    for letter, t in enumerate(d.transformations()):
        bad = [
            mask
            for mask in range(1 << n)
            if sum(weights[q] for q in {t(q) for q in range(n) if mask >> q & 1})
            < sum(weights[q] for q in range(n) if mask >> q & 1) - 1
        ]
        if bad:
            expected = (False, None, (bad[0], letter))
            break
    pb = potential_lower_bound(d, weights, target)
    found = None if pb.counterexample is None else (pb.counterexample[0].mask, pb.counterexample[1])
    assert (pb.valid, pb.bound, found) == expected


class TestPotentialBound:
    def test_merge_family_weights_certify_quadratic_bound(self):
        for n in (3, 5, 8):
            pb = potential_lower_bound(v(n), list(range(n)), singleton(n, 0))
            assert pb.valid
            assert pb.bound == n * (n - 1) // 2
            assert pb.counterexample is None

    def test_bound_is_sound(self):
        n = 6
        pb = potential_lower_bound(v(n), list(range(n)), singleton(n, 0))
        assert pb.bound <= reset_threshold_exact(v(n))[0]

    def test_cycle_family_violates_linear_weights(self):
        pb = potential_lower_bound(cerny(4), [0, 1, 2, 3], singleton(4, 0))
        assert not pb.valid and pb.bound is None
        subset, letter = pb.counterexample
        assert subset.members() == (3,) and letter == 0  # {q4} under a drops weight 3 -> 0

    def test_counterexample_is_a_real_violation(self):
        pb = potential_lower_bound(cerny(5), [0, 1, 2, 3, 4], singleton(5, 0))
        assert not pb.valid
        subset, letter = pb.counterexample
        weights = [0, 1, 2, 3, 4]
        t = cerny(5).transformation(letter)
        before = sum(weights[q] for q in subset.members())
        after = sum(weights[q] for q in {t(q) for q in subset.members()})
        assert after < before - 1

    def test_matches_plain_oracle(self):
        rng = random.Random(1729)
        for index in range(200):
            n = 1 + index % 8
            d = random_dfa(rng, n, rng.randint(1, 3))
            weights = [rng.randrange(4) for _ in range(n)]
            target = StateSet(n, rng.randrange(1, 1 << n))
            assert_matches_plain_potential_bound(d, weights, target)

    def test_validation(self):
        with pytest.raises(ValueError):
            potential_lower_bound(v(3), [0, 1], singleton(3, 0))
        with pytest.raises(ValueError):
            potential_lower_bound(v(3), [0, -1, 2], singleton(3, 0))
        with pytest.raises(ValueError):
            potential_lower_bound(v(3), [0, 1, 2], singleton(4, 0))

    def test_matches_plain_oracle_on_permutations_and_rank_drops(self):
        # letters drawn as permutations (single-state fibres only), rank n - 1
        # maps (one fibre of two) and arbitrary maps, against the same oracle
        rng = random.Random(4104)
        for index in range(450):
            n = 1 + index % 9
            letters = []
            for i in range(rng.randint(1, 3)):
                images = list(random_permutation(rng, n).images)
                kind = rng.randrange(3)
                if kind == 1 and n > 1:
                    p, q = rng.sample(range(n), 2)
                    images[p] = images[q]
                elif kind == 2:
                    images = [rng.randrange(n) for _ in range(n)]
                letters.append((f"x{i}", Transformation(tuple(images))))
            d = Dfa(n, tuple(letters))
            weights = [rng.randrange(10) for _ in range(n)]
            assert_matches_plain_potential_bound(d, weights, StateSet(n, rng.randrange(1 << n)))

    def test_allocates_nothing_at_any_n(self, monkeypatch):
        # the check is linear in n per letter: no subset table, no memory limit
        refuse_allocation(monkeypatch)
        monkeypatch.setattr(sync, "_physical_memory", lambda: 0)
        assert potential_lower_bound(v(12), list(range(12)), singleton(12, 0)).bound == 66
        assert potential_lower_bound(v(200), list(range(200)), singleton(200, 0)).bound == 19900


@settings(max_examples=80)
@given(st.data())
def test_every_synthesized_word_resets(data):
    """All three synthesis routes produce genuine reset words."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(2, 7)
    d = random_dfa(r, n, r.randint(2, 3))
    exact = reset_threshold_exact(d)
    if exact is NOT_SYNCHRONIZING:
        with pytest.raises(ValueError):
            pairchase_reset_word(d)
        return
    rt, word = exact
    assert resets(d, word) and len(word) == rt
    chase = pairchase_reset_word(d)
    assert chase.verified and resets(d, chase.word)
    assert chase.length >= rt  # exact search is optimal
