"""Tests for the tail-rigid element layer: tables, group law, actions."""

import random

import pytest

from spherotree.element import (
    Spheromorphism,
    act_on_ball,
    act_on_clopen,
    compose,
    conjugate,
    equals,
    finitary_automorphism,
    from_pieces,
    identity,
    invert,
    power,
    random_element,
    thompson_generators,
    truncated_action,
)
from spherotree.bithorn import is_automorphism
from spherotree.errors import DomainError, ValidationError
from spherotree.tree import (
    ClopenSet,
    children,
    down,
    parse_address,
    root_code,
    up,
    upsilon,
)

from oracles import (
    axis_translation,
    irreducible_uniform_pairing,
    preserves_all_balls,
    scan_act_on_ball,
    scan_compose,
    witness_nonautomorphism,
    witness_translation,
)


def A(text: str, arity: int = 2):
    return parse_address(text, arity)


def all_words(arity: int, depth: int):
    """Every address of exactly the given depth."""
    words = [(c,) for c in range(arity + 1)]
    for _ in range(depth - 1):
        words = [w + (c,) for w in words for c in range(arity)]
    return words


def sample_words(rng: random.Random, arity: int, depth: int, count: int):
    out = []
    for _ in range(count):
        w = (rng.randrange(arity + 1),) + tuple(
            rng.randrange(arity) for _ in range(depth - 1)
        )
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# canonical tables
# ---------------------------------------------------------------------------


def test_constructor_rejects_mergeable_table():
    # the two child pieces under 0 copy a whole sibling family literally
    with pytest.raises(ValidationError):
        Spheromorphism(
            2,
            (
                ((0, 0), (1, 0)),
                ((0, 1), (1, 1)),
                ((1,), (0,)),
                ((2,), (2,)),
            ),
        )


def test_from_pieces_canonicalizes_literal_families():
    g = from_pieces(
        2,
        [
            ((0, 0), (1, 0)),
            ((0, 1), (1, 1)),
            ((1,), (0,)),
            ((2,), (2,)),
        ],
    )
    assert g.pieces == (((0,), (1,)), ((1,), (0,)), ((2,), (2,)))


def test_root_family_is_never_merged():
    g = identity(2)
    assert len(g.pieces) == 3
    assert equals(g, identity(2))


def test_canonical_form_is_refinement_invariant():
    rng = random.Random(11)
    for arity in (2, 3):
        for trial in range(120):
            g = random_element(arity, 10, 5000 + trial)
            pieces = list(g.pieces)
            # split a few random pieces into full child families: same map
            for _ in range(rng.randint(1, 3)):
                u, v = pieces.pop(rng.randrange(len(pieces)))
                pieces.extend(
                    (u + (c,), v + (c,)) for c in range(arity)
                )
            assert from_pieces(arity, pieces).pieces == g.pieces


def test_validation_errors():
    with pytest.raises(ValidationError):
        from_pieces(2, [((), (0,)), ((1,), (1,)), ((2,), (2,))])
    with pytest.raises(ValidationError):
        from_pieces(2, [((0,), (0,)), ((0,), (1,)), ((2,), (2,))])
    with pytest.raises(ValidationError):
        from_pieces(2, [((0,), (0,)), ((1,), (1,))])  # incomplete code
    with pytest.raises(ValidationError):
        from_pieces(2, [((0,), (0,)), ((1,), (1,)), ((2,), (1,))])


# ---------------------------------------------------------------------------
# group law against the induced word maps
# ---------------------------------------------------------------------------


def test_compose_matches_word_chaining():
    rng = random.Random(21)
    for arity in (2, 3):
        for trial in range(60):
            g = random_element(arity, 9, 100 + trial)
            h = random_element(arity, 9, 200 + trial)
            gh = compose(g, h)
            depth = g.depth() + h.depth() + 1
            assert gh.depth() <= depth
            words = (
                all_words(arity, depth)
                if (arity + 1) * arity ** (depth - 1) <= 800
                else sample_words(rng, arity, depth, 400)
            )
            for w in words:
                assert gh.apply_word(w) == g.apply_word(h.apply_word(w))


def test_associativity_structural():
    for arity in (2, 3):
        for trial in range(40):
            g = random_element(arity, 8, 300 + trial)
            h = random_element(arity, 8, 400 + trial)
            k = random_element(arity, 8, 500 + trial)
            left = compose(compose(g, h), k)
            right = compose(g, compose(h, k))
            assert equals(left, right)


def test_identity_and_inverse_laws():
    for arity in (2, 3, 4):
        e = identity(arity)
        assert e.pieces == tuple((leaf, leaf) for leaf in root_code(arity))
        assert e.depth() == 1
        for trial in range(40):
            g = random_element(arity, 9, 600 + trial)
            assert equals(compose(g, e), g)
            assert equals(compose(e, g), g)
            gi = invert(g)
            assert equals(compose(g, gi), e)
            assert equals(compose(gi, g), e)
            assert equals(invert(gi), g)


def test_inverse_of_canonical_is_canonical():
    # swapping the columns of a canonical table is already canonical
    for arity in (2, 3):
        for trial in range(60):
            g = random_element(arity, 9, 700 + trial)
            flipped = tuple(sorted((v, u) for u, v in g.pieces))
            assert invert(g).pieces == flipped
            Spheromorphism(arity, flipped)  # must not raise


def test_equals_sees_through_presentation():
    deep_id = from_pieces(
        2, [(w, w) for w in all_words(2, 3)]
    )
    assert equals(deep_id, identity(2))
    h_raw = witness_translation()
    assert h_raw.pieces == (
        ((0,), (0, 0)),
        ((1, 0), (2,)),
        ((1, 1), (1,)),
        ((2,), (0, 1)),
    )


def test_power_and_conjugate():
    g = witness_translation()
    assert equals(power(g, 3), compose(g, compose(g, g)))
    assert equals(power(g, -2), invert(compose(g, g)))
    assert equals(power(g, 0), identity(2))
    h = witness_nonautomorphism()
    c = conjugate(g, h)
    assert equals(c, compose(h, compose(g, invert(h))))


def _power_by_loop(g, k):
    """Reference: k sequential compositions (of the inverse for k < 0)."""
    if k < 0:
        g, k = invert(g), -k
    acc = identity(g.arity)
    for _ in range(k):
        acc = compose(g, acc)
    return acc


def test_power_matches_sequential_composition():
    rotation, a, b = thompson_generators()
    for g in (a, b, rotation):
        expected = identity(2)
        for k in range(61):
            assert power(g, k).pieces == expected.pieces
            expected = compose(g, expected)
        for k in (-1, -2, -7, -16):
            assert power(g, k).pieces == _power_by_loop(g, k).pieces


def test_disjoint_support_elements_commute():
    # one element rearranges only below 0, the other only below 1
    g = from_pieces(
        2,
        [((0, 0), (0, 1)), ((0, 1), (0, 0)), ((1,), (1,)), ((2,), (2,))],
    )
    h = from_pieces(
        2,
        [((0,), (0,)), ((1, 0), (1, 1, 0)), ((1, 1, 0), (1, 1, 1)), ((1, 1, 1), (1, 0)), ((2,), (2,))],
    )
    assert equals(compose(g, h), compose(h, g))
    assert not equals(compose(g, h), identity(2))


def test_arity_mismatch_rejected():
    with pytest.raises(DomainError):
        compose(identity(2), identity(3))
    with pytest.raises(DomainError):
        equals(identity(2), identity(3))


# ---------------------------------------------------------------------------
# actions on words, balls, clopen sets
# ---------------------------------------------------------------------------


def test_truncated_action_basic():
    g = witness_nonautomorphism()
    with pytest.raises(DomainError):
        truncated_action(g, g.depth() - 1)
    table = truncated_action(g, 3)
    assert len(table) == len(all_words(2, 3))
    assert len(set(table.values())) == len(table)
    assert table[A("001")] == A("01")
    assert table[A("011")] == A("201")


def test_truncated_action_depth_consistency():
    for trial in range(40):
        g = random_element(2, 9, 800 + trial)
        d = g.depth()
        shallow = truncated_action(g, d)
        deep = truncated_action(g, d + 1)
        for w, image in shallow.items():
            for c in range(2):
                assert deep[w + (c,)] == image + (c,)


def test_act_on_clopen_fixed_case():
    g = witness_nonautomorphism()
    omega = ClopenSet.from_balls(2, [down(A("0"))])
    image = act_on_clopen(g, omega)
    expected = ClopenSet.from_balls(2, [down(A("0")), down(A("20"))])
    assert image == expected
    assert not image.is_single_ball()


def test_act_on_clopen_is_group_action():
    rng = random.Random(31)
    for trial in range(80):
        arity = rng.choice((2, 3))
        g = random_element(arity, 8, 900 + trial)
        h = random_element(arity, 8, 950 + trial)
        omega = _random_clopen(rng, arity)
        assert act_on_clopen(identity(arity), omega) == omega
        via_pair = act_on_clopen(g, act_on_clopen(h, omega))
        via_product = act_on_clopen(compose(g, h), omega)
        assert via_pair == via_product
        back = act_on_clopen(invert(g), act_on_clopen(g, omega))
        assert back == omega


def test_action_preserves_upsilon():
    rng = random.Random(41)
    for trial in range(150):
        arity = rng.choice((2, 3, 4))
        g = random_element(arity, 9, 1000 + trial)
        omega = _random_clopen(rng, arity)
        assert upsilon(act_on_clopen(g, omega)) == upsilon(omega)


def test_act_on_ball_matches_clopen_action():
    rng = random.Random(51)
    for trial in range(120):
        arity = rng.choice((2, 3))
        g = random_element(arity, 9, 1100 + trial)
        cut = (rng.randrange(arity + 1),) + tuple(
            rng.randrange(arity) for _ in range(rng.randint(0, 3))
        )
        ball = up(cut) if rng.random() < 0.5 else down(cut)
        pieces = act_on_ball(g, ball)
        assert len(pieces) >= 1
        via_balls = ClopenSet.from_balls(arity, list(pieces))
        via_clopen = act_on_clopen(g, ClopenSet.from_balls(arity, [ball]))
        assert via_balls == via_clopen


def test_act_on_ball_deep_cut_is_single_ball():
    g = witness_translation()
    ball = down(A("11010"))
    (image,) = act_on_ball(g, ball)
    assert image == down(A("1010"))
    (raised,) = act_on_ball(g, up(A("11010")))
    assert raised == up(A("1010"))


@pytest.mark.parametrize("ball", [down((0, 7)), down((5,)), up((0, 3)), down((0, 1.0))], ids=str)
def test_act_on_ball_rejects_a_cut_outside_the_tree(ball):
    _, a, _ = thompson_generators()
    with pytest.raises(ValidationError, match="ball cut"):
        act_on_ball(a, ball)


def test_piece_lookup_matches_the_table_scan_on_many_piece_elements():
    """``compose`` and ``act_on_ball`` find pieces by bisection; the former
    scans must agree on every ball down to one level below the table and on
    every product of uniform pairings (up to 80 pieces), shifted or not."""
    shapes = {2: ((3, 3, 3), (2, 3, 4), (4, 4, 4)), 3: ((3, 3, 3, 3), (2, 3, 3, 2)),
              4: ((2, 2, 2, 2, 2), (3, 3, 3, 3, 3))}
    checked = 0
    for arity, depths in shapes.items():
        shift = axis_translation(arity)
        elements = [irreducible_uniform_pairing(arity, d, seed) for d in depths for seed in (0, 1)]
        elements += [compose(shift, g) for g in elements[:2]] + [random_element(arity, 12, 7)]
        for g in elements:
            for depth in range(1, g.depth() + 2):
                for word in all_words(arity, depth):
                    for ball in (down(word), up(word)):
                        assert act_on_ball(g, ball) == scan_act_on_ball(g, ball)
                        checked += 1
            for h in elements:
                assert compose(g, h) == scan_compose(g, h)
    assert checked > 9_000


# ---------------------------------------------------------------------------
# automorphism subgroup and witnesses
# ---------------------------------------------------------------------------


def test_finitary_trivial_is_identity():
    assert equals(finitary_automorphism(2), identity(2))
    assert equals(finitary_automorphism(3, (0, 1, 2, 3), {}), identity(3))


def test_finitary_root_cycle():
    r = finitary_automorphism(2, (1, 2, 0))
    assert r.pieces == (((0,), (1,)), ((1,), (2,)), ((2,), (0,)))
    assert equals(power(r, 3), identity(2))


def test_finitary_child_permutation():
    g = finitary_automorphism(2, None, {(0,): (1, 0)})
    assert g.apply_word(A("001")) == A("011")
    assert g.apply_word(A("10")) == A("10")
    assert preserves_all_balls(g)


def test_finitary_validation():
    with pytest.raises(ValidationError):
        finitary_automorphism(2, (0, 1))
    with pytest.raises(ValidationError):
        finitary_automorphism(2, None, {(): (1, 0)})
    with pytest.raises(ValidationError):
        finitary_automorphism(2, None, {(0,): (0, 0)})


def test_finitary_elements_preserve_balls():
    rng = random.Random(61)
    for trial in range(25):
        arity = rng.choice((2, 3))
        rp = list(range(arity + 1))
        rng.shuffle(rp)
        perms = {}
        for _ in range(rng.randint(0, 2)):
            vertex = (rng.randrange(arity + 1),) + tuple(
                rng.randrange(arity) for _ in range(rng.randint(0, 1))
            )
            p = list(range(arity))
            rng.shuffle(p)
            perms[vertex] = p
        g = finitary_automorphism(arity, rp, perms)
        assert preserves_all_balls(g)


def test_witnesses():
    g = witness_nonautomorphism()
    assert not preserves_all_balls(g)
    h = witness_translation()
    assert preserves_all_balls(h)
    assert not equals(h, identity(2))


def test_thompson_generators():
    r, a, b = thompson_generators()
    e = identity(2)
    assert equals(power(r, 3), e)
    assert not equals(r, e)
    assert not equals(a, e)
    assert not equals(b, e)
    assert equals(compose(a, invert(a)), e)
    assert equals(compose(b, invert(b)), e)
    assert preserves_all_balls(r)
    assert not preserves_all_balls(a)
    assert not preserves_all_balls(b)


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------


def test_random_element_deterministic_and_valid():
    for arity in (2, 3):
        for seed in range(60):
            g = random_element(arity, 9, seed)
            assert g == random_element(arity, 9, seed)
            assert g.arity == arity
            assert len(g.pieces) <= 9


def test_random_element_mixes_kinds():
    kinds = set()
    sizes = set()
    for seed in range(80):
        g = random_element(2, 9, seed)
        kinds.add(is_automorphism(g))
        sizes.add(len(g.pieces))
    assert True in kinds  # finitary draws occur
    assert max(sizes) > 3  # proper splittings occur


def test_random_element_budget():
    with pytest.raises(DomainError):
        random_element(2, 2, 0)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_clopen(rng: random.Random, arity: int) -> ClopenSet:
    while True:
        code = list(root_code(arity))
        for _ in range(rng.randint(0, 4)):
            leaf = code.pop(rng.randrange(len(code)))
            code.extend(children(leaf, arity))
        flags = {leaf: rng.random() < 0.5 for leaf in code}
        if any(flags.values()) and not all(flags.values()):
            return ClopenSet.from_marks(arity, flags)
