"""Tests for matched thorn pairs, similar-pair reduction, and coset codes."""

import random
import sys

import pytest

from spherotree import bithorn
from spherotree.bithorn import (
    BiThorn,
    CosetCode,
    bithorn_of,
    canonical_coset_code,
    coset_code,
    empty_bithorn,
    is_automorphism,
    minimal_bithorn,
    reduce_bithorn,
)
from spherotree.element import (
    compose,
    finitary_automorphism,
    from_pieces,
    identity,
    invert,
    power,
    random_element,
    thompson_generators,
)
from spherotree.errors import ValidationError
from spherotree.thorn import UP, SubThorn, empty_subthorn
from spherotree.tree import parse_address

from oracles import (
    axis_translation,
    exhaustive_coset_code,
    irreducible_uniform_pairing,
    preserves_all_balls,
    random_finitary,
    reference_coset_code,
    scan_reduce_bithorn,
    twisted_uniform_pairing,
    witness_nonautomorphism,
    witness_translation,
)


def A(text: str, arity: int = 2):
    return parse_address(text, arity)


# ---------------------------------------------------------------------------
# empty pairs: elements inside the automorphism subgroup
# ---------------------------------------------------------------------------


def test_identity_and_root_permutations_give_empty_pair():
    for arity in (2, 3, 4):
        assert bithorn_of(identity(arity)).is_empty
        assert is_automorphism(identity(arity))
    rotation = finitary_automorphism(2, (1, 2, 0))
    assert bithorn_of(rotation).is_empty
    assert coset_code(rotation).is_empty
    assert coset_code(rotation).text == "E"


def test_permuted_sibling_family_merges_away():
    swap = from_pieces(
        2, [((0, 0), (0, 1)), ((0, 1), (0, 0)), ((1,), (1,)), ((2,), (2,))]
    )
    assert len(swap.pieces) == 4  # the canonical table cannot absorb the swap
    assert bithorn_of(swap).is_empty
    assert is_automorphism(swap)


def test_deep_finitary_elements_give_empty_pair():
    rng = random.Random(7)
    for _ in range(40):
        arity = rng.choice((2, 3))
        g = random_finitary(rng, arity)
        assert bithorn_of(g).is_empty


# ---------------------------------------------------------------------------
# the two witnesses
# ---------------------------------------------------------------------------


def test_translation_pair_is_nonempty_but_fully_similar():
    h = witness_translation()
    pair = bithorn_of(h)
    assert not pair.is_empty
    assert pair.vertex_count == 2
    assert pair.dom.vertices == frozenset({(), (1,)})
    assert pair.ran.vertices == frozenset({(), (0,)})
    assert reduce_bithorn(pair).is_empty
    assert is_automorphism(h)
    assert coset_code(h).is_empty


def test_nonautomorphism_pair_is_already_minimal():
    g = witness_nonautomorphism()
    pair = bithorn_of(g)
    assert not pair.is_empty
    assert pair.vertex_count == 2
    assert pair.dom.vertices == frozenset({(), (0,)})
    assert pair.ran.vertices == frozenset({(), (2,)})
    assert reduce_bithorn(pair) == pair
    assert not is_automorphism(g)
    code = coset_code(g)
    assert code.text == "(2:(2:))|(2:(2:))|0>0,0>1,1>0,1>1"


def test_hyperbolic_rearrangement_is_automorphism():
    g = from_pieces(
        2, [((0,), (1, 0)), ((1,), (1, 1)), ((2, 0), (0,)), ((2, 1), (2,))]
    )
    assert is_automorphism(g)
    assert preserves_all_balls(g)


def test_thompson_generators_coset_codes():
    r, a, b = thompson_generators()
    assert coset_code(r).is_empty
    assert not coset_code(a).is_empty
    assert not coset_code(b).is_empty


def test_single_vertex_pair_reduces_to_empty():
    dom = SubThorn(2, frozenset({()}), frozenset({((), 0), ((), 1), ((), 2)}))
    ran = SubThorn(
        2, frozenset({(1,)}), frozenset({((1,), 0), ((1,), 1), ((1,), UP)})
    )
    pairing = tuple(
        sorted(zip(sorted(dom.spikes), sorted(ran.spikes)))
    )
    pair = BiThorn(2, dom, ran, pairing)
    assert reduce_bithorn(pair).is_empty


# ---------------------------------------------------------------------------
# agreement with the independent ball-preservation oracle
# ---------------------------------------------------------------------------


def test_agreement_with_ball_preservation():
    for arity in (2, 3):
        seen_aut = seen_non = 0
        for seed in range(75):
            g = random_element(arity, 9, 2000 + seed)
            verdict = is_automorphism(g)
            assert verdict == preserves_all_balls(g)
            seen_aut += verdict
            seen_non += not verdict
        assert seen_aut > 0 and seen_non > 0


# ---------------------------------------------------------------------------
# coset invariance and confluence
# ---------------------------------------------------------------------------


def test_code_invariant_under_two_sided_automorphisms():
    rng = random.Random(13)
    h = witness_translation()
    for seed in range(60):
        arity = rng.choice((2, 3))
        g = random_element(arity, 9, 3000 + seed)
        base = coset_code(g)
        f1 = random_finitary(rng, arity)
        f2 = random_finitary(rng, arity)
        assert coset_code(compose(f1, g)) == base
        assert coset_code(compose(g, f2)) == base
        assert coset_code(compose(f1, compose(g, f2))) == base
        if arity == 2:
            assert coset_code(compose(h, g)) == base
            assert coset_code(compose(g, h)) == base


def test_reduction_is_order_independent():
    rng = random.Random(17)
    checked = 0
    for seed in range(80):
        arity = rng.choice((2, 3))
        g = random_element(arity, 10, 4000 + seed)
        pair = bithorn_of(g)
        if pair.is_empty:
            continue
        checked += 1
        reference = reduce_bithorn(pair)
        for _ in range(5):
            assert scan_reduce_bithorn(pair, rng) == reference
        assert canonical_coset_code(reference) == coset_code(g)
    assert checked >= 30


def test_inverse_flips_the_pair():
    for seed in range(60):
        g = random_element(2, 9, 5000 + seed)
        assert bithorn_of(invert(g)) == bithorn_of(g).flip()
        assert minimal_bithorn(invert(g)) == minimal_bithorn(g).flip()


# shuffled self-pairings of uniform prefix codes the exhaustive search finishes
UNIFORM_CASES = (
    (2, (3, 3, 3)),
    (2, (3, 3, 4)),
    (2, (3, 3, 2)),
    (2, (3, 2, 3)),
    (3, (2, 2, 2, 2)),
    (3, (2, 2, 2, 3)),
    (4, (2, 2, 2, 2, 2)),
)


# twisted pairings the exhaustive search finishes: (2, (3, 3, 3)) has 10
# vertices, (3, (3, 3, 2, 2)) 9 and (4, (3, 2, 2, 2, 2)) 5
TWISTED_CASES = ((2, (3, 3, 3)), (3, (3, 3, 2, 2)), (4, (3, 2, 2, 2, 2)))


def test_coset_code_matches_the_exhaustive_search():
    """The pruned one-sided search finds the code that comparing every
    domain numbering with every range numbering finds, and the code the
    former search without root and automorphism pruning finds."""
    rng = random.Random(29)
    pairs = []
    for arity in (2, 3, 4):
        for seed in range(40):
            g = random_element(arity, 10, 4100 + seed)
            mate = compose(random_finitary(rng, arity), compose(g, random_finitary(rng, arity)))
            pairs += [minimal_bithorn(g), minimal_bithorn(mate)]
    pairs += [
        minimal_bithorn(irreducible_uniform_pairing(arity, depths, seed))
        for arity, depths in UNIFORM_CASES
        for seed in range(3)
    ]
    pairs += [
        minimal_bithorn(twisted_uniform_pairing(arity, depths)) for arity, depths in TWISTED_CASES
    ]
    pairs += [pair.flip() for pair in pairs]  # the inverse elements
    assert sum(not pair.is_empty for pair in pairs) >= 250
    for pair in pairs:
        code = canonical_coset_code(pair)
        assert code == exhaustive_coset_code(pair)
        assert code == reference_coset_code(pair)


def test_coset_code_matches_the_reference_search():
    """The rerooted search with root and automorphism pruning gives the code
    the former search gives on 300 seeded random budget-16 elements at
    arities 2-4 and their inverses, and on twisted pairings whose
    automorphisms the former search never used."""
    randoms = [
        minimal_bithorn(random_element(arity, 16, f"reference:{arity}:{seed}"))
        for arity in (2, 3, 4)
        for seed in range(100)
    ]
    pairs = randoms + [pair.flip() for pair in randoms]
    pairs += [
        minimal_bithorn(twisted_uniform_pairing(arity, depths))
        for arity, depths in ((2, (3, 3, 4)), (2, (3, 4, 4)))
    ]
    assert sum(not pair.is_empty for pair in pairs) >= 350
    for pair in pairs:
        assert canonical_coset_code(pair) == reference_coset_code(pair)


@pytest.mark.parametrize("arity, depths", [(2, (5, 5, 6)), (3, (4, 4, 4, 4))])
def test_coset_code_matches_the_reference_on_large_symmetric_pairings(arity, depths):
    """62 and 53 vertices, 16 and 12 minimal roots a side: about a second
    each for the former search."""
    pair = minimal_bithorn(irreducible_uniform_pairing(arity, depths, 0))
    assert canonical_coset_code(pair) == reference_coset_code(pair)


def test_the_coset_search_work_is_pinned(monkeypatch):
    """The bound evaluations (``_Passes.least`` calls) and the domain root
    passes they run, on the arity-2 (6, 6, 6) pairing of seed 0 (94
    vertices, 24 minimal roots a side) and on the twisted arity-2 (4, 4, 4)
    pairing.  Losing the root pruning raises the passes on the first, and
    losing the automorphism pruning raises the evaluations on the second
    from 148 to 6,138, with no timing involved.  A search that does less
    work changes the pins too; they are then updated."""
    work = [0, 0]
    least = bithorn._Passes.least

    def counted(passes, mask, place, top):
        work[0] += 1
        work[1] += bin(mask).count("1")
        return least(passes, mask, place, top)

    monkeypatch.setattr(bithorn._Passes, "least", counted)
    for g, pinned in (
        (irreducible_uniform_pairing(2, (6, 6, 6), 0), [1332, 23312]),
        (twisted_uniform_pairing(2, (4, 4, 4)), [148, 426]),
    ):
        pair = minimal_bithorn(g)
        work[:] = [0, 0]
        canonical_coset_code(pair)
        assert work == pinned


def test_the_coset_search_depth_costs_no_recursion():
    """The search keeps one stack entry per split, not a Python frame: the
    twisted arity-2 (5, 5, 5) pairing goes 20 splits deep, and its code
    comes out the same with the recursion limit 20 frames above the
    caller, where one frame per split would need more."""
    pair = minimal_bithorn(twisted_uniform_pairing(2, (5, 5, 5)))
    expected = canonical_coset_code(pair)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        code = canonical_coset_code(pair)
    finally:
        sys.setrecursionlimit(limit)
    assert code == expected


def test_reduction_matches_the_rescanning_reduction():
    """The worklist reduction gives what cutting one candidate at a time and
    rescanning gives, with the first candidate in address order cut each time
    and with a random one in three orders.  Shifting an element along an
    axis on both sides makes pairs whose cuts enable further cuts."""
    elements = [
        random_element(arity, budget, f"scan:{arity}:{budget}:{seed}")
        for arity in (2, 3, 4)
        for budget in (8, 12, 16, 20, 24)
        for seed in range(40)
    ]
    elements += [
        irreducible_uniform_pairing(arity, depths, seed)
        for arity, depths in UNIFORM_CASES
        for seed in range(2)
    ]
    shift = {arity: power(axis_translation(arity), 2) for arity in (2, 3, 4)}
    elements += [compose(shift[g.arity], compose(g, shift[g.arity])) for g in elements[::4]]
    pairs = [bithorn_of(g) for g in elements]
    assert sum(not pair.is_empty for pair in pairs) >= 500
    for pair in pairs:
        reference = reduce_bithorn(pair)
        assert scan_reduce_bithorn(pair) == reference
        for k in range(3):
            assert scan_reduce_bithorn(pair, random.Random(k)) == reference


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_bithorn_validation():
    good = minimal_bithorn(witness_nonautomorphism())
    with pytest.raises(ValidationError):
        BiThorn(2, good.dom, empty_subthorn(2), ())
    with pytest.raises(ValidationError):
        BiThorn(2, empty_subthorn(2), empty_subthorn(2), good.pairing)
    with pytest.raises(ValidationError):
        BiThorn(2, good.dom, good.ran, tuple(reversed(good.pairing)))
    with pytest.raises(ValidationError):
        BiThorn(2, good.dom, good.ran, good.pairing[:-1])
    lopsided = SubThorn(2, frozenset({()}), frozenset({((), 0), ((), 1)}))
    with pytest.raises(ValidationError):
        BiThorn(2, lopsided, lopsided, tuple(zip(sorted(lopsided.spikes), sorted(lopsided.spikes))))
    assert empty_bithorn(3).is_empty


def test_coset_code_validation_and_tokens():
    code = coset_code(witness_nonautomorphism())
    assert CosetCode.from_token(code.token) == code
    assert CosetCode(2, "E").is_empty
    with pytest.raises(ValidationError):
        CosetCode(2, "junk")
    with pytest.raises(ValidationError):
        CosetCode(2, "(2:(2:))|(2:(2:))|0>0")
    with pytest.raises(ValidationError):
        CosetCode(2, "(2:(2:))|(2:(2:))|0>1,0>0,1>0,1>1")
    with pytest.raises(ValidationError):
        CosetCode(2, "(1:(2:))|(2:(2:))|0>0,1>0,1>1")
    with pytest.raises(ValidationError):
        CosetCode.from_token("zzz")


@pytest.mark.parametrize(
    "text",
    [
        "(3:)|(3:)|0>0,0>0,0>\u00b2",  # a superscript two, which int() refuses
        "(3:)|(3:)|0>0,0>0,0>\u0660",  # an Arabic-Indic zero, which int() reads as 0
        "(2:(2:))|(2:(2:))|0>0,0>\u0661,1>0,1>1",  # an Arabic-Indic one, read as 1
    ],
)
def test_coset_code_rejects_non_ascii_digits(text):
    with pytest.raises(ValidationError):
        CosetCode(2, text)
