"""Address, ball and clopen-set layer."""

import random
from collections import Counter

import pytest

from spherotree.errors import DomainError, ValidationError
from spherotree.tree import (
    Ball,
    ClopenSet,
    all_words,
    balls_disjoint,
    down,
    format_address,
    parse_address,
    refine,
    root_code,
    up,
    upsilon,
    validate_prefix_code,
)

from oracles import ball_contains_word, ball_relation, complement, depth_members, split_ball


def A(text):
    return () if text == "." else tuple(int(c) for c in text)


def test_address_validation():
    assert parse_address("012", 3) == (0, 1, 2)
    assert parse_address("010", 2) == (0, 1, 0)
    assert parse_address(".", 2) == ()
    assert format_address((2, 0)) == "20"
    assert format_address(()) == "."
    with pytest.raises(ValidationError):
        parse_address("03", 2)  # second letter must be < n
    with pytest.raises(ValidationError):
        parse_address("31", 2)  # first letter must be <= n
    with pytest.raises(ValidationError):
        parse_address("x1", 2)
    # only ASCII digits: a superscript two, an Arabic-Indic one
    for text in ("0\u00b2", "\u0661"):
        with pytest.raises(ValidationError):
            parse_address(text, 2)


def test_prefix_code_validation():
    assert validate_prefix_code([(0,), (1,), (2,)], 2)
    assert validate_prefix_code([(0, 0), (0, 1), (1,), (2,)], 2)
    assert not validate_prefix_code([(0,), (1,)], 2)  # incomplete
    assert not validate_prefix_code([(0,), (0, 1), (1,), (2,)], 2)  # overlap
    assert not validate_prefix_code([], 2)
    with pytest.raises(ValidationError):
        validate_prefix_code([(0, 2)], 2)  # malformed word


def test_refine_is_coarsest_common_refinement():
    a = [(0,), (1,), (2,)]
    b = [(0, 0), (0, 1), (1,), (2,)]
    assert refine(a, b, 2) == ((0, 0), (0, 1), (1,), (2,))
    assert refine(b, a, 2) == ((0, 0), (0, 1), (1,), (2,))
    # membership oracle: a word lands in exactly one leaf of the refinement,
    # and that leaf is the longer of its leaves in the two inputs
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([2, 3])
        ca = _random_code(rng, n)
        cb = _random_code(rng, n)
        fine = refine(ca, cb, n)
        assert validate_prefix_code(fine, n)
        for w in all_words(n, 6):
            la = _leaf_of(ca, w)
            lb = _leaf_of(cb, w)
            lf = _leaf_of(fine, w)
            assert lf == (la if len(la) >= len(lb) else lb)


def _random_code(rng, arity, splits=4):
    code = set(root_code(arity))
    for _ in range(rng.randrange(splits + 1)):
        leaf = rng.choice(sorted(code))
        if len(leaf) >= 4:
            continue
        code.remove(leaf)
        code.update(leaf + (c,) for c in range(arity))
    return tuple(sorted(code))


def _leaf_of(code, word):
    for k in range(len(word) + 1):
        if word[:k] in set(code):
            return word[:k]
    raise AssertionError("word not covered")


def test_ball_relation_cases():
    assert ball_relation(down(A("0")), down(A("00"))) == "superset"
    assert ball_relation(down(A("00")), down(A("01"))) == "disjoint"
    assert ball_relation(up(A("0")), down(A("0"))) == "disjoint"
    assert ball_relation(up(A("0")), up(A("00"))) == "subset"
    assert ball_relation(down(A("00")), up(A("01"))) == "subset"
    assert ball_relation(up(A("0")), up(A("1"))) == "cocover"
    assert ball_relation(down(A("0")), up(A("00"))) == "cocover"
    assert ball_relation(down(A("0")), down(A("0"))) == "equal"


def test_ball_relation_matches_membership():
    """Every pair of balls with cuts down to depth 3, at arities 2 and 3:
    ``balls_disjoint`` agrees with the word sets at depth 3, and so does the
    five-way relation of the oracle."""
    depth = 3
    seen = Counter()
    for n in (2, 3):
        words = list(all_words(n, depth))
        members = {
            Ball(raised, cut): frozenset(w for w in words if ball_contains_word(Ball(raised, cut), w))
            for k in range(1, depth + 1)
            for cut in all_words(n, k)
            for raised in (False, True)
        }
        for a, sa in members.items():
            for b, sb in members.items():
                disjoint = not (sa & sb)
                assert balls_disjoint(a, b) == disjoint, (a, b)
                seen[(a.up, b.up, disjoint)] += 1
                rel = ball_relation(a, b)
                if rel == "equal":
                    assert sa == sb
                elif rel == "subset":
                    assert sa < sb
                elif rel == "superset":
                    assert sa > sb
                elif rel == "disjoint":
                    assert disjoint
                else:
                    assert sa | sb == set(words) and not disjoint
    # every mix of down and up balls, disjoint or not, but two disjoint up balls
    assert len(seen) == 7 and (True, True, True) not in seen


def _random_ball(rng, arity):
    depth = rng.randrange(1, 4)
    addr = (rng.randrange(arity + 1),) + tuple(rng.randrange(arity) for _ in range(depth - 1))
    return Ball(rng.random() < 0.5, addr)


def test_split_ball():
    # a Down ball splits into its child balls
    assert split_ball(down(A("0")), 2) == (down(A("00")), down(A("01")))
    # an Up ball above depth one splits into the cut vertex's sibling Downs
    # plus the Up one step closer to the root
    assert set(split_ball(up(A("00")), 2)) == {down(A("01")), up(A("0"))}
    # a depth-one Up ball splits into the other root branches
    assert set(split_ball(up(A("0")), 2)) == {down(A("1")), down(A("2"))}
    # split pieces partition the ball (membership check at depth 5)
    rng = random.Random(3)
    for n in (2, 3):
        words = list(all_words(n, 5))
        for _ in range(40):
            b = _random_ball(rng, n)
            parts = split_ball(b, n)
            assert len(parts) == n
            whole = {w for w in words if ball_contains_word(b, w)}
            union = set()
            for p in parts:
                pw = {w for w in words if ball_contains_word(p, w)}
                assert not (union & pw)
                union |= pw
            assert union == whole


def test_clopen_normal_form_merges_families():
    # fully marked sibling family collapses into the parent leaf
    om = ClopenSet.from_marks(2, {A("00"): True, A("01"): True, A("1"): False, A("2"): False})
    assert om.carrier == (A("0"), A("1"), A("2"))
    assert om.marked_leaves() == (A("0"),)
    # the root family survives even when it could merge by marks alone
    om2 = ClopenSet.from_marks(2, {A("0"): True, A("1"): False, A("2"): False})
    assert om2.carrier == (A("0"), A("1"), A("2"))
    # unmarked families merge too
    om3 = ClopenSet.from_marks(
        2,
        {A("00"): True, A("010"): False, A("011"): False, A("1"): False, A("2"): False},
    )
    assert om3.carrier == (A("00"), A("01"), A("1"), A("2"))


def test_clopen_from_marks_rejects_a_repeated_leaf():
    """A leaf given twice is refused, with the same flag or another, and
    whichever comes last; the pairs without the repeat make a set."""
    rest = [(A("1"), False), (A("2"), False)]
    for first, second in ((False, True), (True, False), (True, True)):
        with pytest.raises(ValidationError, match="repeated leaves"):
            ClopenSet.from_marks(2, [(A("0"), first), (A("0"), second)] + rest)
    assert ClopenSet.from_marks(2, [(A("0"), True)] + rest).marked_leaves() == (A("0"),)


def test_clopen_rejects_trivial_sets():
    with pytest.raises(DomainError):
        ClopenSet.from_marks(2, {A("0"): True, A("1"): True, A("2"): True})
    with pytest.raises(DomainError):
        ClopenSet.from_marks(2, {A("0"): False, A("1"): False, A("2"): False})


def test_clopen_equality_independent_of_presentation():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([2, 3])
        om = _random_clopen(rng, n)
        # refine a random leaf and rebuild: same normal form
        flags = dict(om.leaf_flags())
        leaf = rng.choice(om.carrier)
        val = flags.pop(leaf)
        for c in range(n):
            flags[leaf + (c,)] = val
        again = ClopenSet.from_marks(n, flags)
        assert again == om
        assert depth_members(om, om.depth() + 1) == depth_members(again, again.depth() + 1)


def _random_clopen(rng, arity, splits=4):
    while True:
        code = _random_code(rng, arity, splits)
        flags = {leaf: rng.random() < 0.5 for leaf in code}
        try:
            return ClopenSet.from_marks(arity, flags)
        except DomainError:
            continue


def test_from_balls_matches_membership():
    om = ClopenSet.from_balls(2, [down(A("0")), down(A("20"))])
    assert om.marked_leaves() == (A("0"), A("20"))
    om2 = ClopenSet.from_balls(2, [up(A("0"))])
    assert om2.marked_leaves() == (A("1"), A("2"))
    with pytest.raises(DomainError):
        ClopenSet.from_balls(2, [down(A("0")), down(A("00"))])
    # mixed Up and Down pieces
    om3 = ClopenSet.from_balls(2, [up(A("0")), down(A("000"))])
    words = list(all_words(2, 4))
    member = {w for w in words if om3.contains_word(w)}
    expect = {
        w
        for w in words
        if ball_contains_word(up(A("0")), w) or ball_contains_word(down(A("000")), w)
    }
    assert member == expect


def test_upsilon_counts_balls_mod_n_minus_1():
    # a single ball has residue 1 for n=3
    om = ClopenSet.from_balls(3, [down(A("0"))])
    assert upsilon(om) == 1
    # splitting the ball into three does not change the residue
    om_split = ClopenSet.from_balls(3, [down(A("00")), down(A("01")), down(A("02"))])
    assert om_split == om
    assert upsilon(om_split) == 1
    # n=2 collapses everything to residue zero
    assert upsilon(ClopenSet.from_balls(2, [down(A("0"))])) == 0


def test_upsilon_complement_identity():
    # upsilon(omega) + upsilon(complement) is the carrier size mod n-1,
    # which is always n+1 mod n-1, i.e. 2
    rng = random.Random(13)
    for _ in range(80):
        om = _random_clopen(rng, 4)
        assert (upsilon(om) + upsilon(complement(om))) % 3 == 2 % 3
        # brute force: recount from a random refinement of the decomposition
        flags = dict(om.leaf_flags())
        leaf = rng.choice(om.carrier)
        val = flags.pop(leaf)
        for c in range(4):
            flags[leaf + (c,)] = val
        count = sum(1 for v in flags.values() if v)
        assert count % 3 == upsilon(om)


def test_complement_involution():
    rng = random.Random(17)
    for _ in range(30):
        om = _random_clopen(rng, 2)
        assert complement(complement(om)) == om

