import itertools
import math

import pytest
from hypothesis import given, strategies as st

from kappalab.perms import (
    Parity,
    Perm,
    even_rank,
    even_unrank,
    exchange,
    parity,
    rank,
    rot_minus,
    rot_plus,
    swap,
    unrank,
)


def perms_strategy(min_n=3, max_n=7):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(lambda s: Perm(tuple(s)))
    )


def brute_inversions(symbols):
    return sum(
        1
        for a in range(len(symbols))
        for b in range(a + 1, len(symbols))
        if symbols[a] > symbols[b]
    )


class TestPermConstruction:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 3))
        with pytest.raises(ValueError):
            Perm((0, 1, 2))

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            Perm((1, 2))
        with pytest.raises(ValueError):
            Perm(tuple(range(1, 14)))

    def test_text_round_trip_small(self):
        p = Perm((1, 3, 4, 2, 5))
        assert p.text() == "13425"
        assert Perm.from_text("13425") == p

    def test_text_round_trip_large(self):
        p = Perm(tuple(range(1, 11)))
        assert p.text() == "1,2,3,4,5,6,7,8,9,10"
        assert Perm.from_text(p.text()) == p


class TestParity:
    def test_identity_even(self):
        assert parity(Perm.identity(4)) is Parity.EVEN

    def test_paper_example_13425_even(self):
        assert parity(Perm.from_text("13425")) is Parity.EVEN

    def test_single_transposition_odd(self):
        assert parity(Perm.from_text("2134")) is Parity.ODD

    @given(perms_strategy())
    def test_parity_matches_inversion_count(self, p):
        expected = Parity.EVEN if brute_inversions(p.symbols) % 2 == 0 else Parity.ODD
        assert parity(p) is expected

    @given(perms_strategy(), st.data())
    def test_rotation_preserves_and_swap_flips_parity(self, p, data):
        i = data.draw(st.integers(3, p.n))
        assert parity(rot_plus(p, i)) is parity(p)
        assert parity(rot_minus(p, i)) is parity(p)
        assert parity(exchange(p)) is not parity(p)

    def test_exhaustive_transposition_decomposition_agreement(self):
        # parity via inversions == parity via greedy transposition sort, n <= 6
        for n in range(3, 7):
            for raw in itertools.permutations(range(1, n + 1)):
                s = list(raw)
                flips = 0
                for pos in range(n):
                    while s[pos] != pos + 1:
                        tgt = s[pos] - 1
                        s[pos], s[tgt] = s[tgt], s[pos]
                        flips += 1
                expected = Parity.EVEN if flips % 2 == 0 else Parity.ODD
                assert parity(Perm(raw)) is expected


class TestGenerators:
    def test_paper_rotation_examples(self):
        p = Perm.from_text("13425")
        assert rot_plus(p, 4).text() == "21435"
        assert rot_minus(p, 4).text() == "32415"
        assert exchange(p).text() == "31425"
        assert swap(p, 3, 5).text() == "13524"

    def test_rotation_definitions_from_swaps(self):
        p = Perm.from_text("13425")
        assert rot_plus(p, 4) == swap(swap(p, 2, 4), 1, 2)
        assert rot_minus(p, 4) == swap(swap(p, 1, 4), 1, 2)
        q = Perm.identity(4)
        with pytest.raises(ValueError):
            rot_plus(q, 5)
        with pytest.raises(ValueError):
            rot_minus(q, 2)

    @given(perms_strategy(), st.data())
    def test_rot_plus_rot_minus_inverse_pair(self, p, data):
        i = data.draw(st.integers(3, p.n))
        assert rot_minus(rot_plus(p, i), i) == p
        assert rot_plus(rot_minus(p, i), i) == p

    @given(perms_strategy(), st.data())
    def test_rotation_has_order_three(self, p, data):
        i = data.draw(st.integers(3, p.n))
        q = rot_plus(rot_plus(rot_plus(p, i), i), i)
        assert q == p
        assert rot_plus(rot_plus(p, i), i) == rot_minus(p, i)

    @given(perms_strategy())
    def test_exchange_is_involution(self, p):
        assert exchange(exchange(p)) == p


class TestRanking:
    def test_unrank_zero_is_identity(self):
        assert unrank(0, 4) == Perm.identity(4)

    def test_unrank_matches_sorted_enumeration(self):
        # independent oracle: index into the lex-sorted list of S_4
        ordered = sorted(itertools.permutations(range(1, 5)))
        assert unrank(23, 4).symbols == ordered[23]
        assert ordered[23] == (4, 3, 2, 1)
        for k, symbols in enumerate(ordered):
            assert unrank(k, 4).symbols == symbols
            assert rank(Perm(symbols)) == k

    def test_round_trip_s5(self):
        for k in range(math.factorial(5)):
            assert rank(unrank(k, 5)) == k

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unrank(24, 4)
        with pytest.raises(ValueError):
            unrank(-1, 4)


class TestEvenRanking:
    def test_identity_first(self):
        assert even_rank(Perm.identity(4)) == 0

    def test_even_unrank_covers_a4(self):
        seen = {even_unrank(k, 4) for k in range(12)}
        assert len(seen) == 12
        assert all(parity(p) is Parity.EVEN for p in seen)

    def test_rejects_odd_permutation(self):
        with pytest.raises(ValueError):
            even_rank(Perm.from_text("2134"))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            even_unrank(12, 4)

    def test_round_trip_matches_sorted_even_enumeration(self):
        # independent oracle: lex-sorted even permutations of S_5
        evens = [
            s
            for s in sorted(itertools.permutations(range(1, 6)))
            if brute_inversions(s) % 2 == 0
        ]
        assert len(evens) == 60
        for k, symbols in enumerate(evens):
            assert even_unrank(k, 5).symbols == symbols
            assert even_rank(Perm(symbols)) == k
