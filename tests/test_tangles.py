"""Continued fractions, the boundary walk (against the six-state
boundary/connectivity tables), and knot enumeration."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertangle.quiverstate import MAX_VERTICES
from quivertangle.tangles import (OP, RI, UP, Slope, _euclidean_terms,
                                  boundary_after, cf_expand, cf_value,
                                  crossing_number, ends_ri,
                                  enumerate_rational_knots,
                                  good_representative, is_knot, knot_class,
                                  resolve_terms, twist_sequence)

from conftest import odd_cfs

KNOT, LINK = "knot", "link"
# the (boundary, connectivity) cycle written out edge by edge; each twist
# kind is an involution on the six states
T_EDGES = {(UP, LINK): (UP, KNOT), (UP, KNOT): (UP, LINK),
           (OP, KNOT): (RI, LINK), (RI, LINK): (OP, KNOT),
           (RI, KNOT): (OP, LINK), (OP, LINK): (RI, KNOT)}
R_EDGES = {(UP, KNOT): (OP, KNOT), (OP, KNOT): (UP, KNOT),
           (RI, LINK): (RI, KNOT), (RI, KNOT): (RI, LINK),
           (OP, LINK): (UP, LINK), (UP, LINK): (OP, LINK)}


def six_state(cf, seen=None):
    """The (boundary, connectivity) the tables reach over the building
    word of cf from the trivial tangle (UP, LINK), adding each edge they
    take to seen."""
    state = (UP, LINK)
    for kind in twist_sequence(cf):
        if seen is not None:
            seen.add((state, kind))
        state = (T_EDGES if kind == "T" else R_EDGES)[state]
    return state


class TestSlope:
    def test_lowest_terms_required(self):
        with pytest.raises(ValueError):
            Slope(4, 2)
        with pytest.raises(ValueError):
            Slope(3, 0)
        with pytest.raises(ValueError):
            Slope(-3, 1)

    def test_str(self):
        assert str(Slope(13, 3)) == "13/3"


class TestContinuedFractions:
    def test_examples(self):
        assert cf_value([3]) == Slope(3, 1)
        assert cf_value([1, 2, 4]) == Slope(13, 3)
        assert cf_value([2, 3, 1]) == Slope(9, 7)
        assert cf_expand(Slope(13, 3)) == [1, 2, 4]
        assert cf_expand(Slope(1, 1)) == [1]

    def test_round_trip_all_slopes(self):
        for p in range(1, 201):
            for q in range(1, p + 1):
                try:
                    s = Slope(p, q)
                except ValueError:
                    continue
                terms = cf_expand(s)
                assert len(terms) % 2 == 1
                assert all(t >= 1 for t in terms)
                assert cf_value(terms) == s

    def test_first_built_term_is_at_least_two(self):
        # the last Euclidean quotient of p/q > 1, the first term built,
        # is x/1 with x >= 2 whenever there is more than one term, so
        # neither the expansion nor its odd-length rewrite meets a
        # leading 1
        for p in range(2, 301):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    terms = _euclidean_terms(p, q)
                    assert len(terms) == 1 or terms[-1] >= 2, (p, q)

    def test_leading_one_rewrite(self):
        # [a1, ...] and [1, a1 - 1, ...] name the same slope
        for cf in odd_cfs(7):
            if cf[0] >= 2:
                other = [1, cf[0] - 1] + cf[1:]
                assert cf_value(other) == cf_value(cf)

    def test_matches_rational_evaluation(self):
        for cf in odd_cfs(10):
            value = Fraction(cf[0])
            for t in cf[1:]:
                value = t + 1 / value
            assert cf_value(cf) == Slope(value.numerator, value.denominator)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cf_value([])


class TestAutomaton:
    def test_boundary_after(self):
        assert boundary_after(UP, "T") == UP
        assert boundary_after(OP, "T") == RI
        assert boundary_after(RI, "T") == OP
        assert boundary_after(UP, "R") == OP
        assert boundary_after(OP, "R") == UP
        assert boundary_after(RI, "R") == RI
        with pytest.raises(ValueError):
            boundary_after(UP, "X")

    def test_twist_sequence(self):
        assert twist_sequence([1, 2, 4]) == list("TRRTTTT")

    def test_closure_connectivity_parity(self):
        # whenever the tangle admits a North-South closure (boundary not
        # RI), the closure is a knot exactly when p is odd
        for p in range(2, 101):
            for q in range(1, p):
                try:
                    s = Slope(p, q)
                except ValueError:
                    continue
                boundary, connectivity = six_state(cf_expand(s))
                assert is_knot(s) == (p % 2 == 1)
                assert ends_ri(s) == (boundary == RI)
                if boundary != RI:
                    assert (connectivity == KNOT) == (p % 2 == 1)

    def test_six_state_tables_match_the_walk(self):
        # the tables are the reference for what the package reads of a
        # twist word: its final boundary (ends_ri), the connectivity of
        # its closure (is_knot) and the closable diagram resolve_terms
        # picks; an odd-length CF is the slope's only one, cf_expand's
        cfs = odd_cfs(10)
        assert len(cfs) == 512
        seen = set()
        for cf in cfs:
            s = cf_value(cf)
            assert cf_expand(s) == cf
            boundary, _ = six_state(cf, seen)
            assert ends_ri(s) == (boundary == RI), cf
            boundary, connectivity = six_state(resolve_terms(s)[0])
            assert boundary != RI, cf
            assert (connectivity == KNOT) == is_knot(s), cf
        assert len(seen) == 12  # every edge of both tables is exercised

    def test_trefoil_and_its_flip(self):
        assert six_state([1])[0] == UP
        assert six_state([3]) == (UP, KNOT)
        # [1,1,1] is 3/2, the East-West form of the same knot's mirror
        assert cf_value([1, 1, 1]) == Slope(3, 2)
        assert six_state([1, 1, 1])[0] == RI
        assert ends_ri(Slope(3, 2)) and not ends_ri(Slope(3, 1))


class TestRepresentatives:
    def test_ends_ri_examples(self):
        assert ends_ri(Slope(3, 2))
        assert ends_ri(Slope(11, 7))
        assert not ends_ri(Slope(3, 1))
        assert not ends_ri(Slope(13, 3))

    def test_good_representative(self):
        s, mirrored = good_representative(Slope(13, 3))
        assert (s, mirrored) == (Slope(13, 3), False)
        s, mirrored = good_representative(Slope(1, 1))
        assert (s, mirrored) == (Slope(1, 1), False)
        s, mirrored = good_representative(Slope(3, 2))
        assert mirrored and not ends_ri(s) and s.p == 3
        # the representative names the same knot or its mirror
        for p in range(3, 70):
            for q in range(1, p):
                try:
                    slope = Slope(p, q)
                except ValueError:
                    continue
                rep, mirrored = good_representative(slope)
                assert not ends_ri(rep)
                assert rep.p == p
                cls = knot_class(p, q)
                assert rep.q in cls
                if not mirrored:
                    assert rep.q in {q % p, pow(q, -1, p)}

    def test_resolve_terms_is_the_representative_decision(self):
        # resolve_terms expands good_representative's choice, and the
        # chosen diagram always closes North-South
        for p in range(1, 100):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                rep, mirrored = good_representative(Slope(p, q))
                terms, flag = resolve_terms(Slope(p, q))
                assert (terms, flag) == (cf_expand(rep), mirrored), (p, q)
                assert six_state(terms)[0] != RI, (p, q)


class TestEnumeration:
    def test_small_budget(self):
        assert enumerate_rational_knots(3) == [Slope(3, 1)]
        with pytest.raises(ValueError):
            enumerate_rational_knots(2)

    def test_equivalent_slopes_deduplicated(self):
        # 13/3 ~ 13/9 (3 * 9 = 27 = 1 mod 13): only one appears
        slopes = enumerate_rational_knots(7)
        assert Slope(13, 3) in slopes
        assert Slope(13, 9) not in slopes

    def test_canonical_representative_is_minimal(self):
        for s in enumerate_rational_knots(8):
            assert s.q == min(knot_class(s.p, s.q))
            assert s.p % 2 == 1

    def test_crossing_numbers(self):
        assert crossing_number(Slope(3, 1)) == 3
        assert crossing_number(Slope(5, 2)) == 4  # figure-eight
        assert crossing_number(Slope(13, 3)) == 7
        # crossing number is a class invariant
        for q in knot_class(13, 3):
            assert crossing_number(Slope(13, q)) == 7

    def test_count_per_crossing_number_is_ernst_sumners(self):
        # Ernst-Sumners: (2^(c-3) + 2^floor((c-3)/2) + eps) / 3 rational
        # knots of crossing number c, up to mirror image, with eps = 0,
        # 0, -1, +1 for c = 0, 1, 2, 3 (mod 4)
        counts = [len(enumerate_rational_knots(b)) for b in range(3, 19)]
        assert counts == [1, 2, 4, 7, 14, 26, 50, 95, 186, 362, 714, 1407,
                          2794, 5546, 11050, 22015]
        for c, (below, upto) in enumerate(zip([0] + counts, counts), 3):
            eps = (0, 0, -1, 1)[c % 4]
            assert 3 * (upto - below) == (2 ** (c - 3) + 2 ** ((c - 3) // 2)
                                          + eps), c

    def test_corpus_is_pinned(self):
        # the exact lists at 14 and 16 crossings, as the former (p, q)
        # scan produced them
        for b, digest in (
                (14, "6a9205cc18bbddacd958b7e163d15fbad4ea55fd"
                     "742dec78aa15801a379014dc"),
                (16, "19b4c45ce363f9e38b65fdc59f2979ccb837199107a5e98"
                     "893ea090a8ff63d33")):
            text = " ".join(map(str, enumerate_rational_knots(b)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, b

    def test_knot_route_admits_up_to_16_crossings_only(self):
        # a knot of c crossings has p <= F(c+1): 1597 at 16 crossings
        # fits MAX_VERTICES, and 26 knots of 17 crossings do not
        assert max(s.p for s in enumerate_rational_knots(16)) == 1597 \
            <= MAX_VERTICES
        corpus = enumerate_rational_knots(17)
        assert len(corpus) == 11050
        assert sum(s.p > MAX_VERTICES for s in corpus) == 26

    def test_euclidean_term_sum_is_a_class_invariant(self):
        # the Euclidean term sum is the same on all four slopes of a
        # class, and cf_expand's odd-length rewrite keeps it
        for p in range(2, 300):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                weight = sum(cf_expand(Slope(p, q)))
                for qq in knot_class(p, q):
                    assert sum(_euclidean_terms(p, qq)) == weight, (p, q, qq)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_cf_value_expand_consistency(terms):
    if len(terms) % 2 == 0:
        terms = terms + [1]
    s = cf_value(terms)
    assert cf_value(cf_expand(s)) == s
