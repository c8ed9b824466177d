import hashlib
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchrokit.core import (
    Dfa,
    StateSet,
    Transformation,
    Word,
    _cycles,
    _power_groups,
    _shift_groups,
    apply_word,
    dfa_from_json_dict,
    dfa_to_json_dict,
    dump_dfa,
    format_dfa_text,
    load_dfa,
    loads_dfa,
    parse_dfa_text,
    word_transformation,
)

from synchrokit.families import cerny
from synchrokit.sync import pairchase_reset_word

from conftest import (
    identity,
    preimage_of,
    random_dfa,
    random_permutation,
    random_transformation,
    singleton,
    then,
)


# A fixed 4-state automaton reused across tests: one cyclic permutation
# and one rank-3 letter merging state 1 into state 0.
CYCLE4 = Transformation((1, 2, 3, 0))
MERGE4 = Transformation((0, 0, 2, 3))
D4 = Dfa(4, (("a", CYCLE4), ("b", MERGE4)))


def letter_by_letter(s: StateSet, d: Dfa, w: Word) -> StateSet:
    """Image of ``s`` under ``w`` by one plain set map per letter: the oracle for runs."""
    images = [t.images for t in d.transformations()]
    current = set(s.members())
    for i in w:
        t = images[i]
        current = {t[q] for q in current}
    return StateSet.of(s.n, current)


def cycle_lengths_of(t: Transformation) -> list[int]:
    lengths, seen = [], set()
    for q in range(t.n):
        length = 0
        while q not in seen:
            seen.add(q)
            q, length = t(q), length + 1
        if length:
            lengths.append(length)
    return lengths


def inverse(t: Transformation) -> Transformation:
    if not t.is_permutation():
        raise ValueError("only permutations are invertible")
    out = [0] * t.n
    for i, x in enumerate(t.images):
        out[x] = i
    return Transformation(tuple(out))


class TestTransformation:
    def test_identity(self):
        t = identity(5)
        assert t.images == (0, 1, 2, 3, 4)
        assert t.is_permutation()
        assert t.rank() == 5
        assert t(3) == 3

    def test_rank_and_permutation(self):
        assert CYCLE4.rank() == 4
        assert CYCLE4.is_permutation()
        assert MERGE4.rank() == 3
        assert not MERGE4.is_permutation()
        assert Transformation((0, 0, 0)).rank() == 1

    def test_excluded_and_duplicate(self):
        assert MERGE4.excluded_state() == 1
        assert MERGE4.duplicate_state() == 0

    def test_excluded_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            CYCLE4.excluded_state()
        with pytest.raises(ValueError):
            Transformation((0, 0, 0, 0)).duplicate_state()

    def test_then_is_left_to_right(self):
        # q --CYCLE4--> q+1 --MERGE4--> image
        t = then(CYCLE4, MERGE4)
        assert t.images == tuple(MERGE4.images[CYCLE4.images[q]] for q in range(4))

    def test_inverse_round_trip(self):
        inv = inverse(CYCLE4)
        assert then(CYCLE4, inv) == identity(4)
        assert then(inv, CYCLE4) == identity(4)
        with pytest.raises(ValueError):
            inverse(MERGE4)

    def test_preimage(self):
        assert preimage_of(MERGE4, {0}) == frozenset({0, 1})
        assert preimage_of(MERGE4, {1}) == frozenset()

    def test_rejects_out_of_range_images(self):
        with pytest.raises(ValueError):
            Transformation((0, 4, 1, 2))
        with pytest.raises(ValueError):
            Transformation(())

    def test_rejects_images_that_are_not_ints(self):
        # a bool is an int to isinstance, but would be written as True/False,
        # which neither reader takes back; numpy integers are named as such
        with pytest.raises(ValueError, match="image True is not an int"):
            Transformation((True, False))
        with pytest.raises(ValueError, match=r"image np\.int64\(1\) is not an int"):
            Transformation(tuple(np.array([1, 0], dtype=np.int64)))
        # the same images as ints are kept, and read back from both formats
        d = Dfa(2, (("a", Transformation((1, 0))), ("b", Transformation((0, 0)))))
        assert format_dfa_text(d) == "2 2\na 1 0\nb 0 0\n"
        assert parse_dfa_text(format_dfa_text(d)) == d
        assert loads_dfa(json.dumps(dfa_to_json_dict(d))) == d


class TestDfa:
    def test_basic_accessors(self):
        assert D4.m == 2
        assert D4.letter_names() == ("a", "b")
        assert D4.transformation(1) == MERGE4
        assert D4.letter_index("b") == 1
        with pytest.raises(KeyError):
            D4.letter_index("c")

    def test_letter_classification(self):
        assert D4.permutation_letters() == (0,)
        assert D4.rank_n_minus_one_letters() == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dfa(0, (("a", Transformation((0,))),))
        with pytest.raises(ValueError):
            Dfa(4, ())
        with pytest.raises(ValueError):
            Dfa(4, (("a", CYCLE4), ("a", MERGE4)))
        with pytest.raises(ValueError):
            Dfa(3, (("a", CYCLE4),))
        with pytest.raises(ValueError):
            Dfa(4, (("a b", CYCLE4),))
        with pytest.raises(ValueError):
            Dfa(4, (("", CYCLE4),))


class TestWord:
    def test_concatenation_and_names(self):
        w = Word((0, 1)) + Word((0,))
        assert len(w) == 3
        assert list(w) == [0, 1, 0]
        assert w.names(D4) == ("a", "b", "a")
        assert len(Word(())) == 0

    @pytest.mark.parametrize("letters, bad", [((-1, 0), -1), ((0, 2), 2)])
    def test_names_refuse_an_index_out_of_range(self, letters, bad):
        # apply_word's refusal: a negative index does not wrap around
        d = cerny(3)
        for read in (lambda w: w.names(d), lambda w: apply_word(StateSet.full(3), d, w)):
            with pytest.raises(ValueError, match=f"letter index {bad} out of range"):
                read(Word(letters))

    def test_word_transformation_matches_pointwise(self):
        w = Word((0, 1, 0, 0, 1))
        t = word_transformation(D4, w)
        for q in range(4):
            s = apply_word(singleton(4, q), D4, w)
            assert s.members() == (t(q),)

    def test_word_transformation_indexes_letters_like_a_tuple(self):
        # a negative index counts from the last letter; past the end fails
        assert word_transformation(D4, Word((-1, 0))) == word_transformation(D4, Word((1, 0)))
        with pytest.raises(IndexError):
            word_transformation(D4, Word((0, 2)))


class TestStateSet:
    def test_constructors(self):
        assert StateSet.full(4).members() == (0, 1, 2, 3)
        assert StateSet.of(4, (2, 0)).members() == (0, 2)
        assert singleton(4, 3).members() == (3,)
        assert StateSet.of(4, ()).cardinality() == 0

    def test_membership(self):
        s = StateSet.of(5, (1, 4))
        assert 1 in s and 4 in s
        assert 0 not in s
        assert 7 not in s
        assert len(s) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StateSet(0, 0)
        with pytest.raises(ValueError):
            StateSet(3, 1 << 3)
        with pytest.raises(ValueError):
            StateSet.of(3, (3,))

    def test_apply_letter(self):
        s = apply_word(StateSet.full(4), D4, Word((1,)))
        assert s.members() == (0, 2, 3)
        assert apply_word(StateSet.of(4, (1, 3)), D4, Word((0,))).members() == (0, 2)
        with pytest.raises(ValueError):
            apply_word(StateSet.full(3), D4, Word((1,)))

    def test_apply_word_rejects_bad_letter_index(self):
        with pytest.raises(ValueError):
            apply_word(StateSet.full(4), D4, Word((5,)))
        # a negative index must not wrap around to the last letter
        for letters in ((-1,), (0, 1, -1)):
            with pytest.raises(ValueError):
                apply_word(StateSet.full(4), D4, Word(letters))


@given(st.data())
def test_apply_word_splits(data):
    """Applying u + v equals applying u, then v, from any start set."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(1, 8)
    d = random_dfa(r, n, r.randint(1, 3))
    u = Word(tuple(r.randrange(d.m) for _ in range(r.randint(0, 6))))
    v = Word(tuple(r.randrange(d.m) for _ in range(r.randint(0, 6))))
    s = StateSet(n, r.randrange(1 << n))
    assert apply_word(s, d, u + v) == apply_word(apply_word(s, d, u), d, v)



@given(st.data())
def test_apply_word_on_the_full_set_is_the_word_image(data):
    """The full set goes onto the image set of the word's map, also past 64 states."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(1, 100)
    d = random_dfa(r, n, r.randint(1, 3))
    w = Word(tuple(r.randrange(d.m) for _ in range(r.randint(0, 8))))
    image = apply_word(StateSet.full(n), d, w)
    assert set(image.members()) == set(word_transformation(d, w).images)


@given(st.data())
def test_apply_word_reads_runs_like_single_letters(data):
    """Runs a^k of every kind of letter map a set as k single letters do.

    The letters are a random permutation, a permutation whose cycles have
    1 to 4 states (so the lcm of its cycle lengths is at most 12), the
    n-cycle ``rot`` (q to q + 1 mod n), a random map, and ``down`` (q to
    q - 1, 0 to 0), whose only fixed set is {0}.  A run has 1 to 3n
    letters, or k is a cycle length of a permutation letter, a multiple of
    its cycle-length lcm, or, for a non-permutation, twice the number of
    steps after which the set maps onto itself, so that the run reaches its
    fixed set halfway through.  n is drawn up to 100, or from 60 to 200 so
    that the masks cross the 64- and 128-bit boundaries.
    """
    seed = data.draw(st.integers(0, 2**32 - 1))
    lo, hi = data.draw(st.sampled_from(((1, 100), (60, 200))))
    r = random.Random(seed)
    n = r.randint(lo, hi)
    # cut a shuffled order of the states into cycles of 1 to 4 states
    order = list(range(n))
    r.shuffle(order)
    cycles, lo = list(range(n)), 0
    while lo < n:
        hi = min(n, lo + r.randint(1, 4))
        for x in range(lo, hi):
            cycles[order[x]] = order[x + 1 if x + 1 < hi else lo]
        lo = hi
    d = Dfa(n, (
        ("p", random_permutation(r, n)),
        ("c", Transformation(tuple(cycles))),
        ("rot", Transformation((*range(1, n), 0))),
        ("t", random_transformation(r, n)),
        ("down", Transformation((0, *range(n - 1)))),
    ))
    s = StateSet(n, r.getrandbits(n))
    letters: list[int] = []
    current = set(s.members())
    for _ in range(r.randint(1, 6)):
        i = r.randrange(d.m)
        t = d.transformation(i)
        ks = [r.randint(1, 3 * n)]
        if t.is_permutation():
            lengths = cycle_lengths_of(t)
            ks.append(r.choice(lengths))
            if (lcm := math.lcm(*lengths)) <= 3 * n:
                ks.append(lcm * r.randint(1, 3 * n // lcm))
        else:
            x, steps = current, 0
            while (y := {t(q) for q in x}) != x and steps < n:
                x, steps = y, steps + 1
            if y == x:
                ks.append(max(1, 2 * steps))
        k = r.choice(ks)
        letters += [i] * k
        for _ in range(k):
            current = {t(q) for q in current}
    w = Word(tuple(letters))
    assert apply_word(s, d, w) == StateSet.of(n, current)


def test_apply_word_on_the_frozen_cerny_200_chase():
    # frozen when the run rule came in: 108,662 letters in 1,463 runs
    d = cerny(200)
    r = pairchase_reset_word(d)
    assert r.verified and r.length == 108_662
    digest = hashlib.sha256(bytes(r.word.letters)).hexdigest()
    assert digest == "d0ba507716756a1705fbc655f3fe3af3350f4ca386896108d227db2fe94f7a20"
    full = StateSet.full(200)
    image = apply_word(full, d, r.word)
    assert image.cardinality() == 1 and image == letter_by_letter(full, d, r.word)


def test_cached_groups_leave_equality_hash_repr_and_pickles_alone():
    # a Transformation crosses process pools and is digested by its repr,
    # so the groups apply_word caches on it must not show
    r = random.Random(7)
    n = 150
    letters = (("rot", Transformation((*range(1, n), 0))), ("p", random_permutation(r, n)))
    d = Dfa(n, (*letters, ("down", Transformation((0, *range(n - 1))))))
    w = Word(tuple(x for k in range(1, 2 * n) for x in [0] * k + [1] * (k % 13) + [2]))
    assert apply_word(StateSet.full(n), d, w) == letter_by_letter(StateSet.full(n), d, w)
    for t in d.transformations():
        fresh = Transformation(t.images)
        assert "_groups" in vars(t) and "_groups" not in vars(fresh)
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
        assert pickle.dumps(t) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(t)) == fresh
    # the kept powers hold about 4n groups at most: all n of the n-cycle, few of p
    rot, p = (vars(t)["_powers"][2] for t in d.transformations()[:2])
    assert len(rot) == n
    assert 0 < sum(1 + len(ups) + len(downs) for _, ups, downs in p.values()) < 5 * n


def reference_power_groups(t: Transformation, k: int) -> tuple:
    """Groups of ``t^k`` by the route the run cuts replaced: the images of
    ``t^k``, built by moving each listed cycle k places, split by offset."""
    images = list(range(t.n))
    for cycle in _cycles(t.images):
        j = k % len(cycle)
        for q, x in zip(cycle, cycle[j:] + cycle[:j]):
            images[q] = x
    fixed, ups, downs = _shift_groups(images)
    return fixed, set(ups), set(downs)


def power_test_permutations(r: random.Random, n: int) -> list[tuple[int, ...]]:
    """Random permutations, the n-cycle, the reversal, the stride-2 cycle
    q -> q + 2 mod n and a random transposition on ``n`` states."""
    swap = list(range(n))
    x, y = r.sample(range(n), 2) if n > 1 else (0, 0)
    swap[x], swap[y] = y, x
    return [
        *(random_permutation(r, n).images for _ in range(2 if n <= 12 else 1)),
        tuple((q + 1) % n for q in range(n)),
        tuple(range(n - 1, -1, -1)),
        tuple((q + 2) % n for q in range(n)),
        tuple(swap),
    ]


@pytest.mark.parametrize("n", [*range(1, 13), 63, 64, 65, 128, 200])
def test_power_groups_cut_at_runs_match_the_image_route(n):
    r = random.Random(n)
    for images in power_test_permutations(r, n):
        t = Transformation(images)  # fresh, so powers past the order come from the kept ones
        order = math.lcm(*map(len, _cycles(images)))
        reference: dict[int, tuple] = {}
        for k in range(2 * n + 3):
            fixed, ups, downs = _power_groups(t, k)
            if k % order not in reference:
                reference[k % order] = reference_power_groups(t, k)
            assert (fixed, set(ups), set(downs)) == reference[k % order], (images, k)
            assert len(ups) == len(set(ups)) and len(downs) == len(set(downs))


@given(st.data())
def test_word_transformation_is_composition(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(1, 7)
    d = random_dfa(r, n, 2)
    w = Word(tuple(r.randrange(2) for _ in range(r.randint(0, 8))))
    t = identity(n)
    for i in w:
        t = then(t, d.transformation(i))
    assert word_transformation(d, w) == t


class TestFormats:
    def test_text_round_trip(self):
        text = format_dfa_text(D4)
        assert text == "4 2\na 1 2 3 0\nb 0 0 2 3\n"
        assert parse_dfa_text(text) == D4

    def test_json_round_trip(self):
        obj = dfa_to_json_dict(D4)
        assert obj == {
            "n": 4,
            "letters": [
                {"name": "a", "images": [1, 2, 3, 0]},
                {"name": "b", "images": [0, 0, 2, 3]},
            ],
        }
        assert dfa_from_json_dict(obj) == D4

    def test_loads_sniffs_format(self):
        assert loads_dfa(format_dfa_text(D4)) == D4
        assert loads_dfa(json.dumps(dfa_to_json_dict(D4))) == D4
        assert loads_dfa("  \n " + json.dumps(dfa_to_json_dict(D4))) == D4

    def test_file_round_trip(self, tmp_path):
        for fmt in ("text", "json"):
            path = tmp_path / f"d4.{fmt}"
            dump_dfa(D4, str(path), fmt=fmt)
            assert load_dfa(str(path)) == D4
        with pytest.raises(ValueError):
            dump_dfa(D4, str(tmp_path / "x"), fmt="yaml")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "4\na 1 2 3 0",
            "4 2\na 1 2 3 0",
            "4 1\na 1 2 3",
            "4 1\na 1 2 3 x",
            "4 1\na 1 2 3 9",
            "x y\na 1 2 3 0",
            # int() takes these, the format does not
            "4 1\na 0_1 2 3 0",
            "4 1\na +1 2 3 0",
            "4 1\na \u0661 2 3 0",
            "0_4 1\na 1 2 3 0",
        ],
    )
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            parse_dfa_text(text)

    def test_json_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            dfa_from_json_dict({"n": 3})
        with pytest.raises(ValueError):
            loads_dfa("{not json")

    @staticmethod
    def two_state_json(n=2, images=(1, 0), name="a") -> dict:
        letters = [{"name": name, "images": list(images)}, {"name": "b", "images": [0, 0]}]
        return {"n": n, "letters": letters}

    def test_json_rejects_fractional_images(self):
        # truncated, these would load silently as (1, 0)
        with pytest.raises(ValueError, match="1.9 is not an integer"):
            dfa_from_json_dict(self.two_state_json(images=(1.9, 0.2)))

    def test_json_rejects_fractional_state_count(self):
        with pytest.raises(ValueError, match="2.5 is not an integer"):
            dfa_from_json_dict(self.two_state_json(n=2.5))

    def test_json_rejects_string_numbers(self):
        with pytest.raises(ValueError, match="'1' is not an integer"):
            dfa_from_json_dict(self.two_state_json(images=("1", 0)))
        with pytest.raises(ValueError, match="'2' is not an integer"):
            dfa_from_json_dict(self.two_state_json(n="2"))

    def test_json_rejects_booleans(self):
        with pytest.raises(ValueError, match="True is not an integer"):
            dfa_from_json_dict(self.two_state_json(n=True))
        with pytest.raises(ValueError, match="True is not an integer"):
            dfa_from_json_dict(self.two_state_json(images=(True, 0)))

    def test_json_rejects_non_string_letter_names(self):
        with pytest.raises(ValueError, match="letter name 7 is not a string"):
            dfa_from_json_dict(self.two_state_json(name=7))

    @given(st.data())
    def test_round_trip_random(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        d = random_dfa(r, r.randint(1, 9), r.randint(1, 4))
        assert parse_dfa_text(format_dfa_text(d)) == d
        assert dfa_from_json_dict(json.loads(json.dumps(dfa_to_json_dict(d)))) == d


def test_random_transformation_helper_is_total(rng):
    t = random_transformation(rng, 6)
    assert t.n == 6
    assert all(0 <= x < 6 for x in t.images)
