import pytest

from synchrokit.families import build_family, cb, cerny, f, rystsov, v
from synchrokit.monoid import is_two_transitive
from synchrokit.pairgraph import build_pair_digraph

from conftest import is_strongly_connected


def piecewise_f_tables(n: int) -> tuple[list[int], list[int]]:
    """Direct per-state formula for the two-letter pair-diameter family.

    Independent of the growth recursion used by :func:`synchrokit.families.f`:
    each image is computed from the state index alone.  Below the seven base
    states the letters follow fixed tables; from state 4 up, each letter
    either lifts a state by two or drops it by two depending on the state's
    residue mod 4, with cutoffs keeping the top of the automaton intact.
    """
    a = list(range(n))
    b = list(range(n))
    base_a = [1, 2, 3, 0, 6, 5, 4]
    base_b = [5, 1, 4, 3, 2, 0, 6]
    for q in range(min(7, n)):
        a[q] = base_a[q]
        b[q] = base_b[q]
    for q in range(4, n):
        # letter a: lift on residues 0/1, drop on residues 2/3
        if q % 4 == 0 and (q == 4 or 8 <= q <= n - 3):
            a[q] = q + 2
        elif q % 4 == 1 and 5 <= q <= n - 4:
            a[q] = q + 2
        elif q % 4 == 2 and (q == 6 or 10 <= q <= n - 1):
            a[q] = q - 2
        elif q % 4 == 3 and 7 <= q <= n - 2:
            a[q] = q - 2
        # letter b: lift on residues 2/3, drop on residues 0/1
        if q % 4 == 3 and 7 <= q <= n - 4:
            b[q] = q + 2
        elif q % 4 == 2 and 6 <= q <= n - 3:
            b[q] = q + 2
        elif q % 4 == 1 and 9 <= q <= n - 2:
            b[q] = q - 2
        elif q % 4 == 0 and 8 <= q <= n - 1:
            b[q] = q - 2
    return a, b


class TestCerny:
    def test_structure(self):
        d = cerny(4)
        assert d.letter_names() == ("a", "b")
        assert d.transformation(0).images == (1, 2, 3, 0)
        assert d.transformation(1).images == (1, 1, 2, 3)

    def test_letter_ranks(self):
        for n in (2, 3, 7, 12):
            d = cerny(n)
            assert d.permutation_letters() == (0,)
            assert d.rank_n_minus_one_letters() == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            cerny(1)


class TestCb:
    def test_structure(self):
        d = cb(5, 2)
        assert d.letter_names() == ("a", "b", "c")
        assert d.transformation(0).images == (1, 2, 3, 4, 0)
        assert d.transformation(1).images == (1, 1, 2, 3, 4)
        # c swaps q2 and q3, i.e. states 1 and 2
        assert d.transformation(2).images == (0, 2, 1, 3, 4)

    def test_k_range(self):
        for k in (1, 4):
            d = cb(5, k)
            swap = d.transformation(2)
            assert swap(k - 1) == k and swap(k) == k - 1
        with pytest.raises(ValueError):
            cb(5, 0)
        with pytest.raises(ValueError):
            cb(5, 5)
        with pytest.raises(ValueError):
            cb(2, 1)

    def test_shares_cycle_and_merge_with_cerny(self):
        d, base = cb(9, 3), cerny(9)
        assert d.transformation(0) == base.transformation(0)
        assert d.transformation(1) == base.transformation(1)


class TestV:
    def test_structure(self):
        d = v(5)
        assert d.letter_names() == ("a1", "a2", "a3", "a4", "a5")
        # aj swaps states j-1 and j
        for j in range(1, 5):
            t = d.transformation(j - 1)
            assert t(j - 1) == j and t(j) == j - 1
            assert t.rank() == 5
        merge = d.transformation(4)
        assert merge.images == (0, 0, 2, 3, 4)

    def test_letter_counts(self):
        for n in (2, 3, 8):
            d = v(n)
            assert d.m == n
            assert len(d.permutation_letters()) == n - 1
            assert d.rank_n_minus_one_letters() == (n - 1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            v(1)


class TestRystsov:
    def test_is_v_without_the_first_swap(self):
        d, base = rystsov(6), v(6)
        assert d.letters == base.letters[1:]
        assert d.letter_names() == ("a2", "a3", "a4", "a5", "a6")

    def test_state_zero_is_a_sink(self):
        d = rystsov(5)
        for _, t in d.letters:
            assert t(0) == 0


class TestF:
    def test_base_tables(self):
        d = f(7)
        assert d.letter_names() == ("a", "b")
        assert d.transformation(0).images == (1, 2, 3, 0, 6, 5, 4)
        assert d.transformation(1).images == (5, 1, 4, 3, 2, 0, 6)

    def test_next_two_sizes(self):
        assert f(9).transformation(0).images == (1, 2, 3, 0, 6, 7, 4, 5, 8)
        assert f(9).transformation(1).images == (5, 1, 4, 3, 2, 0, 8, 7, 6)
        assert f(11).transformation(0).images == (1, 2, 3, 0, 6, 7, 4, 5, 10, 9, 8)
        assert f(11).transformation(1).images == (5, 1, 4, 3, 2, 0, 8, 9, 6, 7, 10)

    @pytest.mark.parametrize("n", range(7, 103, 2))
    def test_matches_piecewise_formula(self, n):
        d = f(n)
        a, b = piecewise_f_tables(n)
        assert d.transformation(0).images == tuple(a)
        assert d.transformation(1).images == tuple(b)

    @pytest.mark.parametrize("n", (7, 9, 13, 15))
    def test_letters_are_permutations_acting_two_transitively(self, n):
        d = f(n)
        perms = [t for _, t in d.letters]
        assert all(t.is_permutation() for t in perms)
        assert is_two_transitive(perms, n)
        assert is_strongly_connected(build_pair_digraph(d))

    def test_validation(self):
        for n in (5, 6, 8):
            with pytest.raises(ValueError):
                f(n)


class TestFamilySpec:
    def test_dispatch(self):
        assert build_family("cerny", 4) == cerny(4)
        assert build_family("cb", 6, 2) == cb(6, 2)
        assert build_family("v", 5) == v(5)
        assert build_family("rystsov", 5) == rystsov(5)
        assert build_family("f", 7) == f(7)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_family("foo", 4)

    def test_builders_check_the_parameters(self):
        with pytest.raises(ValueError, match="cb needs n >= 3"):
            build_family("cb", 2, 1)
        with pytest.raises(ValueError, match="f needs odd n >= 7"):
            build_family("f", 8)
        with pytest.raises(ValueError, match="v needs n >= 2"):
            build_family("v", 1)
        with pytest.raises(ValueError, match="rystsov needs n >= 2"):
            build_family("rystsov", 1)

    def test_k_only_for_cb(self):
        with pytest.raises(ValueError):
            build_family("cerny", 4, 1)
        with pytest.raises(ValueError):
            build_family("cb", 4)
