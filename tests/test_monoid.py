import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from synchrokit.core import Dfa, Transformation
from synchrokit.families import cerny, f, rystsov, v
from synchrokit import monoid
from synchrokit.monoid import (
    PermutationGroup,
    cycle_lengths,
    generates_symmetric_group,
    has_full_transition_monoid,
    is_two_transitive,
)

from conftest import group_contains, identity, pair_orbit_two_transitive, random_permutation


def monoid_closure_size(transformations) -> int:
    """Independent oracle: size of the monoid the maps generate, identity included.

    Plain breadth-first closure under composition; exponential in general.
    """
    if not transformations:
        raise ValueError("closure of an empty generating set is undefined here")
    gens = [t.images for t in transformations]
    identity = tuple(range(transformations[0].n))
    seen = {identity}
    queue = [identity]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = tuple(g[x] for x in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def brute_force_group_closure(perms, n):
    """Independent oracle: repeated composition until nothing new appears."""
    frontier = {tuple(range(n))}
    gens = [tuple(p.images) for p in perms]
    closure = set(frontier)
    while frontier:
        nxt = set()
        for g in frontier:
            for h in gens:
                prod = tuple(h[x] for x in g)
                if prod not in closure:
                    closure.add(prod)
                    nxt.add(prod)
        frontier = nxt
    return closure


class TestPermutationGroup:
    def test_symmetric_group_order(self):
        gens = [Transformation((1, 0, 2, 3, 4)), Transformation((1, 2, 3, 4, 0))]
        assert PermutationGroup(5, gens).order() == 120

    def test_cyclic_group_order(self):
        g = PermutationGroup(6, [Transformation((1, 2, 3, 4, 5, 0))])
        assert g.order() == 6

    def test_trivial_group(self):
        g = PermutationGroup(4, [identity(4)])
        assert g.order() == 1
        assert group_contains(g, identity(4))
        assert not group_contains(g, Transformation((1, 0, 2, 3)))

    def test_membership(self):
        g = PermutationGroup(5, [Transformation((1, 2, 3, 4, 0))])
        assert group_contains(g, (2, 3, 4, 0, 1))
        assert not group_contains(g, (1, 0, 2, 3, 4))
        with pytest.raises(ValueError):
            group_contains(g, (0, 0, 2, 3, 4))

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            PermutationGroup(3, [Transformation((0, 0, 1))])
        with pytest.raises(ValueError):
            PermutationGroup(0, [])

    def test_raw_sequences_accepted(self):
        assert PermutationGroup(3, [(1, 2, 0)]).order() == 3

    @settings(max_examples=60)
    @given(st.data())
    def test_order_matches_brute_force(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        n = r.randint(1, 6)
        perms = [random_permutation(r, n) for _ in range(r.randint(1, 3))]
        closure = brute_force_group_closure(perms, n)
        group = PermutationGroup(n, perms)
        assert group.order() == len(closure)
        for p in list(closure)[:20]:
            assert group_contains(group, p)
        # a permutation outside the closure must be rejected
        for _ in range(20):
            q = tuple(random_permutation(r, n).images)
            assert group_contains(group, q) == (q in closure)


class TestGeneratesSymmetricGroup:
    def test_transposition_plus_cycle(self):
        gens = [Transformation((1, 0, 2, 3)), Transformation((1, 2, 3, 0))]
        assert generates_symmetric_group(gens, 4)

    def test_cycle_alone_is_not_enough(self):
        assert not generates_symmetric_group([Transformation((1, 2, 3, 0))], 4)

    def test_single_state(self):
        assert generates_symmetric_group([identity(1)], 1)

    def test_even_generators_stay_in_alternating(self):
        # two 3-cycles on 5 points generate at most A_5
        gens = [Transformation((1, 2, 0, 3, 4)), Transformation((0, 1, 3, 4, 2))]
        assert not generates_symmetric_group(gens, 5)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            generates_symmetric_group([Transformation((0, 0, 1))], 3)
        with pytest.raises(ValueError):
            generates_symmetric_group([Transformation((0, 1))], 3)


def _is_symmetric_by_chain(gens, n):
    return PermutationGroup(n, gens).order() == math.factorial(n)


def _is_odd(p):
    return (len(p) - len(cycle_lengths(p))) % 2 == 1


def _spy_on_the_chain(monkeypatch):
    """Record the size of every stabilizer chain the recognizer builds."""
    calls = []

    class Spy(PermutationGroup):
        def __init__(self, n, generators):
            calls.append(n)
            super().__init__(n, generators)

    monkeypatch.setattr(monoid, "PermutationGroup", Spy)
    return calls


# AGL(1, 5) and PGL(2, 5) (on the projective line 0..4 plus infinity = 5) are
# proper 2-transitive groups with an odd generator and no Jordan element.
AGL_1_5 = ((1, 2, 3, 4, 0), (0, 2, 4, 1, 3))
PGL_2_5 = ((1, 2, 3, 4, 0, 5), (0, 2, 4, 1, 3, 5), (5, 4, 2, 3, 1, 0))
# AGL(1, 7): x -> x + 1 and x -> 3x, the latter a 6-cycle
AGL_1_7 = ((1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4))


class TestJordanBranch:
    """The walk-then-chain branch against the chain alone.

    The branch's precondition is an odd generator; pairs without one are
    checked to lie outside the symmetric group.
    """

    def _agrees(self, pairs, n):
        for p1, p2 in pairs:
            expected = _is_symmetric_by_chain((p1, p2), n)
            if _is_odd(p1) or _is_odd(p2):
                assert monoid._jordan_test((p1, p2), n) == expected, (p1, p2)
            else:
                assert not expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_pair(self, n):
        perms = list(itertools.permutations(range(n)))
        self._agrees(itertools.product(perms, repeat=2), n)

    def test_six_points_from_each_conjugacy_class(self):
        perms = list(itertools.permutations(range(6)))
        least = {}
        for p in perms:
            least.setdefault(tuple(sorted(cycle_lengths(p), reverse=True)), p)
        assert len(least) == 11
        self._agrees(((p1, p2) for p1 in least.values() for p2 in perms), 6)

    @pytest.mark.parametrize(
        "gens", [AGL_1_5, PGL_2_5, AGL_1_7], ids=["AGL(1,5)", "PGL(2,5)", "AGL(1,7)"]
    )
    def test_proper_two_transitive_group_falls_back_to_the_chain(self, monkeypatch, gens):
        n = len(gens[0])
        assert is_two_transitive([Transformation(g) for g in gens], n)
        assert any(_is_odd(g) for g in gens)
        calls = _spy_on_the_chain(monkeypatch)
        assert not monoid._jordan_test(gens, n)
        assert calls == [n]

    def test_proper_two_transitive_group_through_the_public_test(self, monkeypatch):
        calls = _spy_on_the_chain(monkeypatch)
        assert not generates_symmetric_group([Transformation(g) for g in AGL_1_7], 7)
        assert calls == [7]
        assert PermutationGroup(7, AGL_1_7).order() == 42

    @pytest.mark.parametrize(
        "gens",
        [((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)), ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))],
        ids=["S5", "S6"],
    )
    def test_small_symmetric_groups_need_no_chain(self, monkeypatch, gens):
        # five and six points take the walk too, which meets a Jordan element
        calls = _spy_on_the_chain(monkeypatch)
        assert generates_symmetric_group([Transformation(g) for g in gens], len(gens[0]))
        assert calls == []

    def test_six_point_proper_group_builds_one_chain(self, monkeypatch):
        calls = _spy_on_the_chain(monkeypatch)
        assert not generates_symmetric_group([Transformation(g) for g in PGL_2_5], 6)
        assert calls == [6]

    @settings(max_examples=60)
    @given(st.data())
    def test_seven_to_fourteen_points_agree_with_the_chain(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        n = r.randint(7, 14)
        perms = [random_permutation(r, n) for _ in range(r.randint(1, 4))]
        expected = _is_symmetric_by_chain(perms, n)
        assert generates_symmetric_group(perms, n) == expected


def _conjugate(gens, c):
    """``c^-1 g c`` for each ``g``: the same group with states renamed by ``c``."""
    inverse = [0] * len(c)
    for i, x in enumerate(c):
        inverse[x] = i
    return [tuple(c[g[inverse[x]]] for x in range(len(c))) for g in gens]


def _block_preserving(r, n, size):
    """A random permutation mapping the blocks ``{k*size .. k*size+size-1}`` to blocks."""
    blocks = list(range(n // size))
    r.shuffle(blocks)
    images = []
    for k in range(n // size):
        inside = list(range(size))
        r.shuffle(inside)
        images += [blocks[k] * size + x for x in inside]
    return tuple(images)


def _affine(p, a):
    """AGL(1, p): x -> x + 1 and x -> a x, for a primitive root ``a`` mod p."""
    return ((*range(1, p), 0), tuple(a * x % p for x in range(p)))


def _cyclic(n):
    return ((*range(1, n), 0),)


def _dihedral(n):
    return ((*range(1, n), 0), tuple(-x % n for x in range(n)))


# S_2 wr S_3 on the blocks {0, 1}, {2, 3}, {4, 5}: transitive, not 2-transitive
S2_WR_S3 = ((1, 0, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1), (2, 3, 0, 1, 4, 5))

#: name -> (points, generators, 2-transitive?)
NAMED_GROUPS = {
    "AGL(1,5)": (5, AGL_1_5, True),
    "PGL(2,5)": (6, PGL_2_5, True),
    "AGL(1,7)": (7, AGL_1_7, True),
    "AGL(1,11)": (11, _affine(11, 2), True),
    "AGL(1,13)": (13, _affine(13, 2), True),
    "f(7), order 2520": (7, tuple(t.images for _, t in f(7).letters), True),
    "S2 wr S3": (6, S2_WR_S3, False),
    **{f"C{n}": (n, _cyclic(n), n == 2) for n in range(2, 10)},
    **{f"D{n}": (n, _dihedral(n), n == 3) for n in range(3, 10)},
    **{
        f"rystsov({n}) permutations": (
            n,
            tuple(t.images for _, t in rystsov(n).letters if t.is_permutation()),
            False,
        )
        for n in range(3, 11)
    },
    **{f"identity on {n}": (n, (tuple(range(n)),), False) for n in range(2, 7)},
    **{f"no generator on {n}": (n, (), False) for n in range(2, 5)},
}


class TestIsTwoTransitive:
    """The Schreier-generator test against the pair-orbit BFS oracle."""

    def test_symmetric_group_is_two_transitive(self):
        gens = [Transformation((1, 0, 2, 3, 4)), Transformation((1, 2, 3, 4, 0))]
        assert is_two_transitive(gens, 5)

    def test_cyclic_group_is_not(self):
        assert not is_two_transitive([Transformation((1, 2, 3, 4, 0))], 5)

    def test_two_transitive_without_symmetric(self):
        # the two letters of the 7-state pair-diameter family generate a
        # proper 2-transitive subgroup (order 2520)
        d = f(7)
        perms = [t for _, t in d.letters]
        assert is_two_transitive(perms, 7)
        assert not generates_symmetric_group(perms, 7)
        assert PermutationGroup(7, perms).order() == 2520

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            is_two_transitive([identity(1)], 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_generator_and_generator_pair(self, n):
        perms = list(itertools.permutations(range(n)))
        for gens in itertools.chain(((p,) for p in perms), itertools.product(perms, repeat=2)):
            assert monoid._is_two_transitive(gens, n) == pair_orbit_two_transitive(gens, n), gens

    @pytest.mark.parametrize("name", list(NAMED_GROUPS))
    def test_named_groups(self, name):
        n, gens, expected = NAMED_GROUPS[name]
        assert pair_orbit_two_transitive(gens, n) == expected
        assert is_two_transitive([Transformation(g) for g in gens], n) == expected

    def test_seeded_random_generator_sets(self):
        # free draws (mostly 2-transitive), block-preserving draws (at most
        # transitive) and draws fixing some states (intransitive), each
        # renamed by a random permutation
        r = random.Random(0x2712)
        seen = {True: 0, False: 0}
        for n in range(6, 41):
            sizes = [b for b in range(2, n) if n % b == 0]
            for kind in ("free", "blocks", "fixed") * 4:
                k = r.randint(1, 4)
                if kind == "blocks" and sizes:
                    size = r.choice(sizes)
                    gens = [_block_preserving(r, n, size) for _ in range(k)]
                elif kind == "fixed":
                    moved = r.randint(2, n - 1)
                    gens = [
                        (*random_permutation(r, moved).images, *range(moved, n)) for _ in range(k)
                    ]
                else:
                    gens = [random_permutation(r, n).images for _ in range(k)]
                gens = _conjugate(gens, random_permutation(r, n).images)
                expected = pair_orbit_two_transitive(gens, n)
                assert monoid._is_two_transitive(gens, n) == expected, (n, kind, gens)
                seen[expected] += 1
        assert min(seen.values()) > 100

    def test_accepts_at_the_first_orbit_point(self, monkeypatch):
        # the Schreier generators of state 0 alone join states 1..99 of
        # v(100), so only the transversal inverses of states 0 and 1 are taken
        inverses = []

        def spy(p):
            inverses.append(p)
            return _inv(p)

        _inv = monoid._inv
        monkeypatch.setattr(monoid, "_inv", spy)
        d = v(100)
        assert is_two_transitive([d.transformation(i) for i in d.permutation_letters()], 100)
        assert len(inverses) == 2


class TestHasFullTransitionMonoid:
    def test_merge_family_is_full(self):
        for n in (2, 3, 4, 6, 9):
            assert has_full_transition_monoid(v(n))

    def test_cyclic_families_are_not(self):
        assert not has_full_transition_monoid(cerny(5))
        assert not has_full_transition_monoid(rystsov(5))
        assert not has_full_transition_monoid(f(7))

    def test_merge_family_at_sixty_states_is_fast(self, monkeypatch):
        d = v(60)
        calls = _spy_on_the_chain(monkeypatch)
        start = time.perf_counter()
        assert has_full_transition_monoid(d)
        assert time.perf_counter() - start < 1.0
        assert calls == []  # settled by a Jordan element, not the chain

    def test_merge_family_at_a_hundred_states_needs_no_chain(self, monkeypatch):
        calls = _spy_on_the_chain(monkeypatch)
        assert has_full_transition_monoid(v(100))
        assert calls == []

    def test_single_state_is_full(self):
        assert has_full_transition_monoid(Dfa(1, (("a", Transformation((0,))),)))

    def test_full_monoid_closure_has_all_maps(self):
        d = v(4)
        assert monoid_closure_size(d.transformations()) == 4**4


class TestMonoidClosureSize:
    def test_permutation_closure_is_group_order(self):
        gens = [Transformation((1, 2, 3, 0)), Transformation((1, 0, 2, 3))]
        assert monoid_closure_size(gens) == math.factorial(4)

    def test_constant_map(self):
        # identity plus the constant map
        assert monoid_closure_size([Transformation((0, 0, 0))]) == 2

    def test_empty_generating_set_rejected(self):
        with pytest.raises(ValueError):
            monoid_closure_size([])

    @settings(max_examples=40)
    @given(st.data())
    def test_group_case_agrees_with_chain(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        n = r.randint(2, 6)
        perms = [random_permutation(r, n) for _ in range(2)]
        assert monoid_closure_size(perms) == PermutationGroup(n, perms).order()
