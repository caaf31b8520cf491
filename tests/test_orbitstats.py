"""Tests for moved-set listings and transition-count matrices."""

import functools
import gc
import hashlib
import random
import sys
import time
from collections import Counter

import pytest

from spherotree import orbitstats, thorn
from spherotree.bithorn import coset_code, is_automorphism, minimal_bithorn
from spherotree.element import (
    act_on_ball,
    compose,
    equals,
    finitary_automorphism,
    identity,
    invert,
    random_element,
)
from spherotree.errors import DomainError, InternalError, ValidationError
from spherotree.orbitstats import (
    ClassTable,
    TransitionCounts,
    moved_sets,
    theta,
)
from spherotree.spherical import SphericalSpec, phi_nessonov
from spherotree.thorn import (
    SubThorn,
    ThornCode,
    _orbit,
    ball_of_spike,
    canonical_code,
    classify_balls,
    classify_clopen,
    enumerate_class_codes,
    enumerate_embeddings,
    reduce_subthorn,
    subthorn_from_balls,
)
from spherotree.tree import ClopenSet, down, parse_address, spike_of_ball, up, upsilon

import oracles
from oracles import (
    _classified_unions,
    balance_defects,
    cell_touch_embeddings,
    full_class_index,
    irreducible_uniform_pairing,
    per_thorn_image,
    random_finitary,
    theta_bruteforce,
    two_sided_theta,
    witness_nonautomorphism,
    witness_translation,
)

BALL = ThornCode(2, "(1:)")
PAIR = ThornCode(2, "(1:(1:))")
SPREAD = ThornCode(2, "(0:(1:)(1:))")

BALL_TABLE = ClassTable(2, 0, (BALL,))
COMBINED_TABLE = ClassTable(2, 0, (BALL, PAIR))
CAP4_TABLE = ClassTable(2, 0, enumerate_class_codes(2, 0, 4))


def A(text: str, arity: int = 2):
    return parse_address(text, arity)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


def test_class_table_validation():
    assert BALL_TABLE.labels == ("P", BALL.token)
    with pytest.raises(ValidationError):
        ClassTable(2, 1, (BALL,))
    with pytest.raises(ValidationError):
        ClassTable(2, 0, ())
    with pytest.raises(ValidationError):
        ClassTable(2, 0, (BALL, BALL))
    with pytest.raises(ValidationError):
        ClassTable(3, 0, (BALL,))  # arity mismatch on the code
    with pytest.raises(ValidationError):
        ClassTable(2, 0, (ThornCode(2, "E"),))
    # arity 3: residues live mod 2, so a two-spike class sits in sector 0
    three_pair = ThornCode(3, "(1:(1:))")
    ClassTable(3, 0, (three_pair,))
    with pytest.raises(ValidationError):
        ClassTable(3, 1, (three_pair,))


def test_transition_counts_validation():
    matrix = ((None, 2), (2, None))
    counts = TransitionCounts(BALL_TABLE, matrix)
    assert counts.entry("P", BALL.token) == 2
    assert counts.entry(BALL.token, "P") == 2
    assert counts.entry("P", "P") is None
    assert counts.transpose().matrix == matrix
    with pytest.raises(ValidationError):
        TransitionCounts(BALL_TABLE, ((None, 1),))
    with pytest.raises(ValidationError):
        TransitionCounts(BALL_TABLE, ((0, 1), (1, None)))
    with pytest.raises(ValidationError):
        TransitionCounts(BALL_TABLE, ((None, -1), (1, None)))
    with pytest.raises(DomainError):
        counts.entry("P", "missing")


# ---------------------------------------------------------------------------
# automorphisms move nothing between classes
# ---------------------------------------------------------------------------


def test_automorphisms_have_zero_counts():
    for g in (
        identity(2),
        witness_translation(),
        finitary_automorphism(2, (2, 0, 1), {(0,): (1, 0)}),
    ):
        assert moved_sets(g, COMBINED_TABLE) == ()
        counts = theta(g, COMBINED_TABLE)
        for i, row in enumerate(counts.matrix):
            for j, value in enumerate(row):
                assert value is (None if i == j else 0) or value == 0


# ---------------------------------------------------------------------------
# the pinned witness
# ---------------------------------------------------------------------------


def test_witness_ball_counts():
    g = witness_nonautomorphism()
    counts = theta(g, BALL_TABLE)
    assert counts.entry(BALL.token, "P") == 2
    assert counts.entry("P", BALL.token) == 2
    records = moved_sets(g, BALL_TABLE)
    assert len(records) == 4
    leaving = {rec.omega for rec in records if rec.before == BALL}
    assert leaving == {
        ClopenSet.from_balls(2, [down(A("0"))]),
        ClopenSet.from_balls(2, [up(A("0"))]),
    }
    for rec in records:
        assert classify_clopen(rec.omega) == rec.before
        assert classify_clopen(rec.image) == rec.after
        assert upsilon(rec.omega) == upsilon(rec.image)
        assert (rec.before == BALL) != (rec.after == BALL)


def test_witness_against_bruteforce():
    g = witness_nonautomorphism()
    for depth in (4, 5):
        for table in (BALL_TABLE, COMBINED_TABLE):
            exact = theta_bruteforce(g, table, depth)
            assert not balance_defects(exact)
            assert exact == theta(g, table)


def test_bruteforce_depth_guard():
    g = witness_nonautomorphism()
    with pytest.raises(DomainError):
        theta_bruteforce(g, COMBINED_TABLE, 3)
    with pytest.raises(DomainError):
        theta(g, ClassTable(3, 0, (ThornCode(3, "(1:(1:))"),)))


# ---------------------------------------------------------------------------
# random agreement and symmetry
# ---------------------------------------------------------------------------


def _small_elements(count: int, max_depth: int, start_seed: int):
    found = []
    seed = start_seed
    while len(found) < count:
        g = random_element(2, 7, seed)
        seed += 1
        if g.depth() <= max_depth:
            found.append(g)
    return found


def test_theta_matches_bruteforce_on_random_elements():
    for g in _small_elements(25, 3, 9000):
        depth = g.depth() + 2
        exact = theta_bruteforce(g, COMBINED_TABLE, depth)
        assert not balance_defects(exact)
        assert theta(g, COMBINED_TABLE) == exact
        assert theta_bruteforce(g, COMBINED_TABLE, depth + 1) == exact


def test_inverse_transposes_counts():
    for seed in range(60):
        g = random_element(2, 9, 9500 + seed)
        assert theta(invert(g), COMBINED_TABLE) == theta(g, COMBINED_TABLE).transpose()


def test_moved_sets_deterministic_and_sound():
    rng = random.Random(3)
    for seed in range(40):
        g = random_element(2, 9, 9800 + seed)
        records = moved_sets(g, COMBINED_TABLE)
        assert records == moved_sets(g, COMBINED_TABLE)
        tracked = set(COMBINED_TABLE.tracked)
        for rec in records:
            assert rec.before != rec.after
            assert rec.before in tracked or rec.after in tracked
            assert classify_clopen(rec.omega) == rec.before
            assert classify_clopen(rec.image) == rec.after
            assert upsilon(rec.omega) == upsilon(rec.image)
        omegas = [rec.omega for rec in records]
        assert len(set(omegas)) == len(omegas)
        flags = [omega.leaf_flags() for omega in omegas]
        assert flags == sorted(flags)


# sha256 over the records of the 40 elements above, recorded from the listing
# that built every moved set as a clopen set before classifying it
MOVED_SETS_DIGEST = "cd0a9957b3ba99c3d0f8ceebbe8e4df07de3e569acf1a5887c8ff4f397ec5b58"


def test_moved_sets_records_and_order_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in range(40):
        for rec in moved_sets(random_element(2, 9, 9800 + seed), COMBINED_TABLE):
            count += 1
            fields = (rec.omega.leaf_flags(), rec.before.text, rec.image.leaf_flags(), rec.after.text)
            digest.update(repr(fields).encode())
    assert count == 1486
    assert digest.hexdigest() == MOVED_SETS_DIGEST


# the same over six budget-8 elements and the arity-2 cap-4 table, whose
# classes (4, 3) share a shape, recorded from the listing that classified
# every thorn of every orbit on its own
CAP4_MOVED_SETS_DIGEST = "3ee6bc63aeb199a7b221d42443c7306c1b3e69c264259fca6e5a4ac0bc87fd08"


def test_moved_sets_with_a_shared_shape_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in range(6):
        for rec in moved_sets(random_element(2, 8, 9900 + seed), CAP4_TABLE):
            count += 1
            fields = (rec.omega.leaf_flags(), rec.before.text, rec.image.leaf_flags(), rec.after.text)
            digest.update(repr(fields).encode())
    assert count == 2120
    assert digest.hexdigest() == CAP4_MOVED_SETS_DIGEST


def test_longer_pattern_table():
    spread_table = ClassTable(2, 0, (BALL, SPREAD))
    g = witness_nonautomorphism()
    depth = g.depth() + SPREAD.diameter + 1
    exact = theta_bruteforce(g, spread_table, depth)
    assert not balance_defects(exact)
    assert exact == theta(g, spread_table)


def test_composite_moves_more():
    g = witness_nonautomorphism()
    gg = compose(g, g)
    counts = theta(gg, BALL_TABLE)
    total = sum(v for row in counts.matrix for v in row if v is not None)
    assert total > 0
    assert theta(invert(gg), BALL_TABLE) == counts.transpose()


# ---------------------------------------------------------------------------
# differential tests beyond arity 2 and two-vertex classes
# ---------------------------------------------------------------------------


MAX_COSET_SEEDS = 500


def _distinct_cosets(arity, budget, max_depth, count, tag):
    """Non-automorphisms of bounded depth from pairwise distinct double cosets,
    drawn from at most ``MAX_COSET_SEEDS`` seeds."""
    found, tokens = [], set()
    for seed in range(MAX_COSET_SEEDS):
        g = random_element(arity, budget, f"{tag}:{seed}")
        if g.depth() > max_depth or is_automorphism(g):
            continue
        token = coset_code(g).token
        if token not in tokens:
            tokens.add(token)
            found.append(g)
            if len(found) == count:
                return found
    pytest.fail(f"{tag}: only {len(found)} distinct double cosets in {MAX_COSET_SEEDS} seeds")


def test_distinct_cosets_fails_when_too_few_cosets_exist():
    """Seeded arity-4 budget-8 depth-2 non-automorphisms fall into two
    double cosets, so asking for three ends at the seed cap."""
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match="arity4-few: only 2 distinct double cosets"):
        _distinct_cosets(4, 8, 2, 3, "arity4-few")
    assert time.perf_counter() - start < 2.0


def _check_against_bruteforce(table, elements):
    """theta equals the brute force on each element and on coset mates a·g·b,
    and the brute-force counts, which know nothing of the class-balance law,
    obey it.

    The mates are checked with the coset memo emptied before every call, so
    that each computes its own counts, and then warm, where every mate
    after g is a memo hit.
    """
    max_diameter = max(code.diameter for code in table.tracked)
    rng = random.Random(5)
    moved = 0
    for g in elements:
        exact = theta_bruteforce(g, table, g.depth() + max_diameter + 1)
        assert not balance_defects(exact)
        mates = [
            compose(random_finitary(rng, g.arity), compose(g, random_finitary(rng, g.arity)))
            for _ in range(3)
        ]
        assert any(not equals(h, g) for h in mates)
        for h in [g] + mates:
            theta.cache_clear()
            assert theta(h, table) == exact
        theta.cache_clear()
        for k, h in enumerate([g] + mates):
            assert theta(h, table) == exact
            assert theta.cache_info()[:2] == (k, 1)  # hits, misses
        assert theta(invert(g), table) == exact.transpose()
        moved += sum(v for row in exact.matrix for v in row if v is not None)
    assert moved > 0


def test_theta_matches_bruteforce_at_arity_three():
    table = ClassTable(3, 1, enumerate_class_codes(3, 1, 2))
    assert [code.text for code in table.tracked] == ["(1:)", "(1:(2:))"]
    _check_against_bruteforce(table, _distinct_cosets(3, 8, 2, 3, "arity3"))


def test_theta_matches_bruteforce_with_three_vertex_classes():
    table = ClassTable(2, 0, enumerate_class_codes(2, 0, 3))
    assert max(code.vertex_count for code in table.tracked) == 3
    elements = _distinct_cosets(2, 7, 3, 4, "three-vertex")
    _check_against_bruteforce(table, elements)
    # the 3-vertex classes really change places with others
    big = [i + 1 for i, code in enumerate(table.tracked) if code.vertex_count == 3]
    assert any(
        theta(g, table).matrix[i][j] for g in elements for i in big for j in range(5) if i != j
    )


def _moves_between(table, elements, vertices):
    """True iff some element moves a set of a tracked class with this many
    vertices into another class or out of one."""
    rows = [i + 1 for i, code in enumerate(table.tracked) if code.vertex_count == vertices]
    size = len(table.tracked) + 1
    return any(
        theta(g, table).matrix[i][j] or theta(g, table).matrix[j][i]
        for g in elements
        for i in rows
        for j in range(size)
        if i != j
    )


def test_theta_matches_bruteforce_at_arity_three_with_three_vertex_classes():
    # the centre of the 3-vertex class has two different branches, so the
    # literal text also pins the order of the encoder's child texts
    table = ClassTable(3, 1, (ThornCode(3, "(1:)"), ThornCode(3, "(0:(1:)(2:))")))
    elements = _distinct_cosets(3, 8, 2, 2, "arity3-three-vertex")
    _check_against_bruteforce(table, elements)
    assert _moves_between(table, elements, 3)


def test_theta_matches_bruteforce_at_arity_four():
    codes = [code for code in enumerate_class_codes(4, 2, 2) if code.spike_count == 2]
    table = ClassTable(4, 2, tuple(codes))
    assert [code.text for code in table.tracked] == ["(2:)", "(1:(1:))"]
    elements = _distinct_cosets(4, 8, 2, 2, "arity4")
    _check_against_bruteforce(table, elements)
    assert _moves_between(table, elements, 2)


def test_theta_matches_bruteforce_with_four_vertex_classes():
    """Two 4-vertex classes, a path and a star, each with 3 spikes, so one
    sweep of the oracle's 3-ball unions serves both; sets move between
    them."""
    path, star = ThornCode(2, "(0:(1:(1:))(1:))"), ThornCode(2, "(0:(1:)(1:)(1:))")
    table = ClassTable(2, 0, (path, star))
    assert {(code.vertex_count, code.spike_count) for code in table.tracked} == {(4, 3)}
    elements = _distinct_cosets(2, 6, 3, 2, "four-vertex")
    _check_against_bruteforce(table, elements)
    assert sum(theta(g, table).matrix[1][2] + theta(g, table).matrix[2][1] for g in elements) > 0


# (arity, "seeded", index) draws a seeded non-automorphism and (arity,
# "pairing", depths) is a shuffled uniform pairing
_VERTEX_RULE_CASES = [
    (2, "seeded", 0),
    (2, "seeded", 1),
    (2, "seeded", 2),
    (3, "seeded", 0),
    (3, "seeded", 1),
    (4, "seeded", 0),
    (2, "pairing", (3, 3, 3)),
    (3, "pairing", (2, 2, 2, 2)),
    (4, "pairing", (2, 2, 2, 2, 2)),
]


def _vertex_rule_case(arity, kind, arg):
    """The element, and one table per residue of the classes with at most
    three spikes and three vertices at arity 2, two above."""
    if kind == "pairing":
        g = irreducible_uniform_pairing(arity, arg, 0)
    else:
        drawn = (random_element(arity, 8, f"vertex-rule:{arity}:{arg}:{seed}") for seed in range(100))
        g = next(h for h in drawn if not is_automorphism(h))
    max_vertices = 3 if arity == 2 else 2
    tables = []
    for iota in range(arity - 1):
        codes = enumerate_class_codes(arity, iota, max_vertices)
        tables.append(ClassTable(arity, iota, tuple(c for c in codes if c.spike_count <= 3)))
    return g, tables


def _one_sided_cases():
    """(element, table) pairs: seeded non-automorphisms of distinct double
    cosets at arities 2-5 and the shuffled uniform pairings arity-2 (3,3,3)
    and arity-3 (2,2,2,2), each with, for every residue of its arity, the
    full class tables up to one cap and random sub-tables, in random order,
    up to a larger cap."""
    rng = random.Random("one-sided")
    # (arity, largest full cap, largest sub-table cap, most classes in a
    # sub-table, budget, elements): big classes at high arity have many
    # embeddings, so their sub-tables stay small
    plan = ((2, 3, 4, 2, 10, 18), (3, 2, 3, 1, 10, 8), (4, 1, 2, 1, 12, 6), (5, 1, 2, 1, 14, 3))
    cases = []
    for arity, full, top, most, budget, count in plan:
        tables = []
        for iota in range(arity - 1):
            for cap in range(1, top + 1):
                codes = enumerate_class_codes(arity, iota, cap)
                if cap <= full:
                    tables.append(ClassTable(arity, iota, codes))
                sample = rng.sample(codes, rng.randint(1, min(most, len(codes))))
                tables.append(ClassTable(arity, iota, tuple(sample)))
        elements = _distinct_cosets(arity, budget, 3, count, f"one-sided{arity}")
        if arity == 2:
            elements.append(irreducible_uniform_pairing(2, (3, 3, 3), 0))
        if arity == 3:
            elements.append(irreducible_uniform_pairing(3, (2, 2, 2, 2), 0))
        cases += [(g, table) for g in elements for table in tables]
    return cases


def test_theta_matches_the_two_sided_listing():
    """θ, which lists the domain side only and derives the lump's row from
    the class-balance law, is tuple-equal to the former two-sided listing,
    whose range side counts the lumped sets entering each tracked class
    directly, on every case of ``_one_sided_cases``; that listing obeys the
    law on every case, and the lump's row is not always zero."""
    cases = _one_sided_cases()
    assert len(cases) >= 300
    assert {(table.arity, table.iota) for _, table in cases} == {
        (arity, iota) for arity in (2, 3, 4, 5) for iota in range(arity - 1)
    }
    theta.cache_clear()
    entering = 0
    for g, table in cases:
        expected = two_sided_theta(g, table)
        assert not balance_defects(expected), (g, table)
        assert theta(g, table) == expected, (g, table)
        entering += any(expected.matrix[0][1:])
    theta.cache_clear()
    assert entering > len(cases) // 4


def test_theta_refuses_counts_that_break_the_class_balance_law(monkeypatch):
    """A listing in which a tracked class gains more sets from the other
    tracked class than it loses would give the lump's row a negative entry:
    θ raises ``InternalError`` instead."""
    g = witness_nonautomorphism()

    def unbalanced(h, region, table, moved):
        yield (), 1, (), 2, 1

    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(orbitstats, "_leaving", unbalanced)
        with pytest.raises(InternalError, match="gains 1 more sets than it loses"):
            theta(g, COMBINED_TABLE)
    theta.cache_clear()


def test_theta_never_lists_the_range_side(monkeypatch):
    """θ calls ``_embeddings`` only on the domain side of the minimal
    bi-thorn, on elements whose two sides differ."""
    regions = []
    real = orbitstats._embeddings

    def recorded(pattern, region):
        regions.append(region)
        return real(pattern, region)

    theta.cache_clear()
    differ = 0
    with monkeypatch.context() as patch:
        patch.setattr(orbitstats, "_embeddings", recorded)
        for g in _gram_products():
            pair = minimal_bithorn(g)
            if pair.is_empty:
                continue
            regions.clear()
            theta.cache_clear()
            theta(g, COMBINED_TABLE)
            assert regions and all(region == pair.dom for region in regions)
            differ += pair.dom != pair.ran
    theta.cache_clear()
    assert differ > 10


def test_thorns_meeting_the_pair_only_at_a_mid_edge_keep_their_class():
    """Every thorn that has a cell but no vertex in a side of the minimal
    bi-thorn, which ``enumerate_embeddings`` leaves out, is fixed or keeps
    its class: g on the domain side, g⁻¹ on the range side.  Some are left
    out on every kind of input, so the check is not vacuous."""
    dropped = Counter()
    for arity, kind, arg in _VERTEX_RULE_CASES:
        g, tables = _vertex_rule_case(arity, kind, arg)
        pair = minimal_bithorn(g)
        for side, h in ((pair.dom, g), (pair.ran, invert(g))):
            for pattern in (code for table in tables for code in table.tracked):
                listed = enumerate_embeddings(pattern, side)
                touching = cell_touch_embeddings(pattern, side)
                assert set(listed) <= set(touching)
                for thorn in set(touching) - set(listed):
                    assert thorn.vertices.isdisjoint(side.vertices)
                    balls = thorn.balls()
                    image = tuple(sorted(b for ball in balls for b in act_on_ball(h, ball)))
                    assert image == balls or classify_balls(image, arity) == pattern.text, (
                        pattern.text,
                        thorn,
                    )
                    dropped[arity, kind] += 1
    assert sorted(dropped) == sorted({(arity, kind) for arity, kind, _ in _VERTEX_RULE_CASES})


def test_theta_with_the_cell_touch_listing_is_the_same(monkeypatch):
    """θ over the cell-touch listing of the former enumeration, each thorn a
    record of weight 1, is tuple-equal to θ over the vertex rule and its
    orbit weights."""
    cases = [_vertex_rule_case(*case) for case in _VERTEX_RULE_CASES]
    theta.cache_clear()
    fast = [theta(g, table) for g, tables in cases for table in tables]
    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(
            orbitstats,
            "_embeddings",
            lambda pattern, region: [(tuple(t.spikes), 1) for t in cell_touch_embeddings(pattern, region)],
        )
        slow = [theta(g, table) for g, tables in cases for table in tables]
    theta.cache_clear()
    assert slow == fast
    assert any(v for counts in fast for row in counts.matrix for v in row)


def _shortcut_cases():
    """(element, table) pairs for the shape shortcut: seeded non-automorphisms
    at arities 2-4 with the cap-2, cap-3 and cap-4 tables of their arity (the
    tracked classes of at most that many vertices), and the shuffled uniform
    pairings with the tables of the vertex-rule cases."""
    caps = {2: (2, 3, 4), 3: (2, 3), 4: (2,)}
    cases = []
    for arity, kind, arg in _VERTEX_RULE_CASES:
        g, tables = _vertex_rule_case(arity, kind, arg)
        if kind == "seeded" and arg == 0:
            tables = [
                ClassTable(arity, iota, enumerate_class_codes(arity, iota, cap))
                for cap in caps[arity]
                for iota in range(arity - 1)
            ]
        cases += [(g, table) for table in tables]
    return cases


def test_theta_over_the_expanded_orbits_is_the_same(monkeypatch):
    """θ over every thorn of every orbit ``_embeddings`` lists, each expanded
    by ``_orbit`` into records of weight 1, is tuple-equal to θ over the
    weighted representatives, on the shortcut cases and on the Gram
    products; orbits of more than one thorn occur."""
    real = orbitstats._embeddings
    weights = Counter()

    def recorded(pattern, region):
        found = real(pattern, region)
        weights.update(weight for _, weight in found)
        return found

    def expanded(pattern, region):
        return [(member, 1) for spikes, _ in real(pattern, region) for member in _orbit(spikes, region)]

    cases = _shortcut_cases() + [(g, table) for g in _gram_products() for table in (COMBINED_TABLE, CAP4_TABLE)]
    results = []
    for listing in (recorded, expanded):
        theta.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(orbitstats, "_embeddings", listing)
            results.append([theta(g, table) for g, table in cases])
    theta.cache_clear()
    assert results[0] == results[1]
    assert max(weights) > 1 and weights[1]
    assert any(v for counts in results[0] for row in counts.matrix for v in row)


def _gram_products():
    """The 28 products g_i^-1 g_j of eight seeded Gram elements."""
    elements = [random_element(2, 8, seed) for seed in range(8)]
    return [compose(invert(a), b) for i, a in enumerate(elements) for b in elements[i + 1 :]]


def _shape_outcome(spikes, table):
    """How ``classify_spikes_among`` settles an image with the table's shape
    map: "lumped" for a shape no tracked class has, "shape" for a shape no
    other class has, "encoded" for a shape several share."""
    reduced = reduce_subthorn(subthorn_from_balls(list(map(ball_of_spike, spikes)), table.arity))
    shape = (len(reduced.vertices), len(reduced.spikes))
    if shape not in table.by_shape:
        return "lumped"
    return "shape" if isinstance(table.by_shape[shape], int) else "encoded"


def test_shape_shortcut_gives_every_image_the_full_class_index(monkeypatch):
    """Each image θ considers gets the same table index from the shape map
    as from full classification, and θ with the full classification patched
    in is tuple-equal.  All three outcomes of the shape map occur: lumped by
    shape, decided by shape, and encoded."""
    real = orbitstats.classify_spikes_among
    outcomes = Counter()

    def checked(table):
        def classify(spikes, arity, by_shape):
            assert by_shape is table.by_shape
            index = real(spikes, arity, by_shape)
            assert index == full_class_index(list(map(ball_of_spike, spikes)), table), (table, spikes)
            outcomes[_shape_outcome(spikes, table)] += 1
            return index

        return classify

    def full(table):
        return lambda spikes, arity, by_shape: full_class_index(
            list(map(ball_of_spike, spikes)), table
        )

    cases = _shortcut_cases()
    fast, slow = [], []
    for g, table in cases:
        with monkeypatch.context() as patch:
            theta.cache_clear()
            patch.setattr(orbitstats, "classify_spikes_among", checked(table))
            fast.append(theta(g, table))
            theta.cache_clear()
            patch.setattr(orbitstats, "classify_spikes_among", full(table))
            slow.append(theta(g, table))
    theta.cache_clear()
    assert slow == fast
    assert set(outcomes) == {"lumped", "shape", "encoded"}
    assert {table.arity for _, table in cases} == {2, 3, 4}
    assert any(v for counts in fast for row in counts.matrix for v in row)


def test_shape_map_of_the_cap_four_table():
    """At arity 2, residue 0, the eight classes of at most four vertices have
    seven shapes, and only (4, 3) is held by two classes; the map decides
    every other tracked shape, sends (4, 3) to its two classes by text, and
    leaves out the shapes of lumped classes.  A table tracking one of the
    two still encodes (4, 3)."""
    by_shape = CAP4_TABLE.by_shape
    assert len(CAP4_TABLE.tracked) == 8
    shared = {shape: rows for shape, rows in by_shape.items() if not isinstance(rows, int)}
    assert list(shared) == [(4, 3)]
    pair_of_four = [c for c in CAP4_TABLE.tracked if (c.vertex_count, c.spike_count) == (4, 3)]
    index = {code: i for i, code in enumerate(CAP4_TABLE.tracked, start=1)}
    assert shared[4, 3] == {code.text: index[code] for code in pair_of_four} and len(pair_of_four) == 2
    assert sorted(by_shape) == sorted({(c.vertex_count, c.spike_count) for c in CAP4_TABLE.tracked})
    assert by_shape[1, 1] == 1 and by_shape[2, 2] == 2
    # (1:(1:)) alone: (2, 2) is its shape, and (5, 3) belongs to lumped classes only
    assert ClassTable(2, 0, (PAIR,)).by_shape == {(2, 2): 1}
    assert ClassTable(2, 0, pair_of_four[1:]).by_shape == {(4, 3): {pair_of_four[1].text: 1}}
    assert CAP4_TABLE.by_shape is by_shape


def test_shape_map_enumerates_no_class(monkeypatch):
    """The shape map comes from the tracked classes alone: with the class
    enumeration refusing to run, a table tracking one seven-vertex class at
    arity 9 (a sector with millions of spike vectors up to that size) and
    the cap-four table get their maps, and the shapes they decide are the
    ones no other class has."""

    def refuse(*args, **kwargs):
        raise AssertionError("the shape map enumerated classes")

    path = [(0,) * k for k in range(7)]
    ends = {((), 1), (path[-1], 1)}
    bare = canonical_code(SubThorn(9, frozenset(path), frozenset(ends)))
    spiked = canonical_code(SubThorn(9, frozenset(path), frozenset(ends | {(path[3], 1)})))
    with monkeypatch.context() as patch:
        patch.setattr(thorn, "enumerate_class_codes", refuse)
        patch.setattr(thorn, "_free_trees", refuse)
        # two spikes on seven vertices: the bare path alone
        assert ClassTable(9, 2, (bare,)).by_shape == {(7, 2): 1}
        # three spikes: a tree with three leaves has that shape too
        assert ClassTable(9, 3, (spiked,)).by_shape == {(7, 3): {spiked.text: 1}}
        assert ClassTable(2, 0, CAP4_TABLE.tracked).by_shape == CAP4_TABLE.by_shape


def test_theta_encodes_only_images_of_a_tracked_shape(monkeypatch):
    """On the products g_i^-1 g_j of seeded Gram elements with the arity-2
    cap-4 table, θ runs the centre-rooted encoder for an image exactly when
    its reduced thorn has a tracked shape that several classes share, here
    (4, 3), and for fewer images than it classifies."""
    calls = [0]
    real_text = thorn._center_rooted_text
    real_classify = orbitstats.classify_spikes_among

    def counted_text(*args):
        calls[0] += 1
        return real_text(*args)

    images = []  # (image spikes, encoder runs) per classified image

    def classify(spikes, arity, by_shape):
        before = calls[0]
        index = real_classify(spikes, arity, by_shape)
        images.append((spikes, calls[0] - before))
        return index

    products = _gram_products()
    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(thorn, "_center_rooted_text", counted_text)
        patch.setattr(orbitstats, "classify_spikes_among", classify)
        for g in products:
            theta(g, CAP4_TABLE)
    theta.cache_clear()
    outcomes = Counter()
    for spikes, runs in images:
        outcome = _shape_outcome(spikes, CAP4_TABLE)
        outcomes[outcome] += 1
        assert runs == (outcome == "encoded"), (spikes, outcome)
    assert 0 < outcomes["encoded"] < len(images)
    assert outcomes["lumped"] > len(images) // 2


def test_theta_moves_each_domain_spike_once(monkeypatch):
    """On the products g_i^-1 g_j of seeded Gram elements, one θ computation
    moves, with g and never g^-1, the ball of each spike of the orbit
    representatives listed on the domain side exactly once, and θ with a
    per-thorn image through the public ``act_on_ball`` patched in is
    tuple-equal.  The representatives are some of the thorns
    ``enumerate_embeddings`` lists."""
    products = _gram_products()
    real_act = orbitstats._act_on_spike
    moved = []  # (element, spike) per call

    def counted_act(g, spike):
        moved.append((g, spike))
        return real_act(g, spike)

    fast, calls, per_thorn = [], 0, 0
    for g in products:
        pair = minimal_bithorn(g)
        theta.cache_clear()
        moved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(orbitstats, "_act_on_spike", counted_act)
            fast.append(theta(g, COMBINED_TABLE))
        listed = []
        for pattern in COMBINED_TABLE.tracked:
            every = {frozenset(t.spikes) for t in enumerate_embeddings(pattern, pair.dom)}
            for spikes, _ in orbitstats._embeddings(pattern, pair.dom):
                assert frozenset(spikes) in every
                listed += spikes
        assert all(h is g for h, _ in moved)
        assert sorted(spike for _, spike in moved) == sorted(set(listed))
        per_thorn += len(listed)
        calls += len(moved)
    assert per_thorn > 2 * calls
    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(orbitstats, "_image", per_thorn_image)
        slow = [theta(g, COMBINED_TABLE) for g in products]
    theta.cache_clear()
    assert len(products) == 28 and slow == fast
    assert any(v for counts in fast for row in counts.matrix for v in row)


def test_candidates_left_in_place_classify_to_their_own_pattern():
    """On the Gram products, each listed candidate whose image under g (or
    g^-1 on the range side) is the same set gets its own pattern's index from
    ``classify_spikes_among``.  So ``_leaving`` needs no fixed-set test: it
    sees j = i and does not yield it, on the domain side θ lists and on the
    range side ``moved_sets`` lists."""
    fixed = listed = 0
    for g in _gram_products():
        pair = minimal_bithorn(g)
        for h, region in ((g, pair.dom), (invert(g), pair.ran)):
            for i, pattern in enumerate(COMBINED_TABLE.tracked, start=1):
                for found in enumerate_embeddings(pattern, region):
                    listed += 1
                    balls = found.balls()
                    image = [b for ball in balls for b in act_on_ball(h, ball)]
                    if ClopenSet.from_balls(2, image) == ClopenSet.from_balls(2, balls):
                        fixed += 1
                        spikes = [spike_of_ball(b) for b in image]
                        assert orbitstats.classify_spikes_among(spikes, 2, COMBINED_TABLE.by_shape) == i
    assert 0 < fixed < listed


def test_theta_and_moved_sets_read_no_order_of_balls(monkeypatch):
    """θ and the ``moved_sets`` records are unchanged when ``_embeddings``
    hands out each thorn's spikes, and ``_image`` the image's, reversed."""
    real_image = orbitstats._image
    real_embeddings = orbitstats._embeddings

    def reversed_image(g, spikes, moved):
        return real_image(g, spikes, moved)[::-1]

    def reversed_embeddings(pattern, region):
        return [(spikes[::-1], weight) for spikes, weight in real_embeddings(pattern, region)]

    products = _gram_products()
    theta.cache_clear()
    plain = [(theta(g, COMBINED_TABLE), moved_sets(g, COMBINED_TABLE)) for g in products]
    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(orbitstats, "_image", reversed_image)
        patch.setattr(orbitstats, "_embeddings", reversed_embeddings)
        reversed_ = [(theta(g, COMBINED_TABLE), moved_sets(g, COMBINED_TABLE)) for g in products]
    theta.cache_clear()
    assert reversed_ == plain
    assert any(records for _, records in plain)


def test_theta_and_coset_codes_leave_no_reference_cycles():
    """A cold θ over the Gram products and the coset code of a symmetric
    pairing leave nothing for the cycle collector: no nested function
    reaches itself through its closure once its call has returned, so each
    call's state is freed when it returns."""
    products = _gram_products()
    pairing = irreducible_uniform_pairing(2, (3, 3, 3), 0)
    theta.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for g in products:
            theta(g, COMBINED_TABLE)
        coset_code(pairing)
        assert gc.collect() == 0
    finally:
        gc.enable()
        theta.cache_clear()


def test_bruteforce_leaves_no_reference_cycles():
    """A cold and then a warm ``theta_bruteforce`` (its pool of classified
    unions built, then reused) leave nothing for the cycle collector: the
    oracle's recursive matchers are freed when their calls return."""
    g = random_element(2, 8, 3)
    _classified_unions.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            theta_bruteforce(g, COMBINED_TABLE, g.depth() + 3)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_theta_neither_parses_nor_checks_a_tracked_class(monkeypatch):
    """Once the table is built, θ over the Gram products reads each tracked
    class's parsed model and runs no class check: with the code-text parser
    and the class check refusing to run, cold θ gives the same counts."""

    def refuse(*args, **kwargs):
        raise AssertionError("theta parsed or checked a class code")

    products = _gram_products()
    table = ClassTable(2, 0, (BALL, PAIR))
    theta.cache_clear()
    expected = [theta(g, table) for g in products]
    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(thorn, "_parse_code", refuse)
        patch.setattr(thorn, "class_code_defect", refuse)
        with pytest.raises(AssertionError, match="parsed or checked"):
            ThornCode(2, "(1:)")  # the patches do bite
        counts = [theta(g, table) for g in products]
    theta.cache_clear()
    assert counts == expected
    assert any(v for c in counts for row in c.matrix for v in row)


def test_coset_memo_stays_within_its_bound(monkeypatch):
    assert theta.cache_info().maxsize == orbitstats.MEMO_SIZE
    small = functools.lru_cache(maxsize=3)(orbitstats._coset_theta.__wrapped__)
    monkeypatch.setattr(orbitstats, "_coset_theta", small)
    elements = _distinct_cosets(2, 7, 3, 5, "memo-bound")
    for g in elements:
        theta(g, COMBINED_TABLE)
        assert small.cache_info().currsize <= 3
    assert small.cache_info() == (0, 5, 3, 3)
    theta(elements[-1], COMBINED_TABLE)  # among the three most recent
    theta(elements[0], COMBINED_TABLE)  # evicted, so computed again
    assert small.cache_info() == (1, 6, 3, 3)


def test_large_symmetric_coset_goes_through_the_memo():
    """A symmetric pairing with 3,072 numberings a side: its coset code is
    found quickly, so theta memoises it like any other coset."""
    g = irreducible_uniform_pairing(2, (4, 4, 4), 0)
    rng = random.Random(31)
    mate = compose(random_finitary(rng, 2), compose(g, random_finitary(rng, 2)))
    assert not equals(mate, g)
    theta.cache_clear()
    start = time.perf_counter()
    exact = theta(g, COMBINED_TABLE)
    assert time.perf_counter() - start < 2.0
    brute = theta_bruteforce(g, COMBINED_TABLE, g.depth() + 2)
    assert not balance_defects(brute)
    assert exact == brute
    assert theta(mate, COMBINED_TABLE) == exact
    assert theta.cache_info()[:2] == (1, 1)


def test_bruteforce_span_bound_keeps_every_tracked_set():
    """Skipping unions whose anchors span many vertices loses no tracked set."""
    codes = set(enumerate_class_codes(2, 0, 3))

    def pool(max_vertices):
        found = {}
        for count in sorted({code.spike_count for code in codes}):
            for omega, _ in _classified_unions(2, 4, count, max_vertices):
                code = classify_clopen(omega)
                if code in codes:
                    found[omega] = code
        return found

    assert pool(3) == pool(10**9)


def test_theta_and_phi_build_no_clopen_sets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("theta built a clopen set")

    elements = _small_elements(6, 3, 9300)
    spec = SphericalSpec(COMBINED_TABLE, ((1.0, 0.5, 0.25), (0.5, 1.0, 0.125), (0.25, 0.125, 1.0)))
    theta.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(ClopenSet, "from_balls", staticmethod(refuse))
        counts = [theta(g, COMBINED_TABLE) for g in elements]
        values = [phi_nessonov(invert(g), spec) for g in elements]
    for g, exact, value in zip(elements, counts, values):
        brute = theta_bruteforce(g, COMBINED_TABLE, g.depth() + 2)
        assert not balance_defects(brute)
        assert exact == brute
        assert value == phi_nessonov(g, spec)


def test_bruteforce_shares_nothing_with_theta_classification(monkeypatch):
    """With theta's reduction, encoding and ball-image helpers refusing to run
    in every library module that binds them and in the oracles module, the
    oracle still gives the pinned counts."""

    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle reached theta's machinery")

    g = witness_nonautomorphism()
    table = ClassTable(2, 0, (BALL,))
    names = (
        "classify_balls",
        "classify_spikes_among",
        "_reduced_text",
        "reduce_subthorn",
        "subthorn_from_balls",
        "canonical_code",
        "_rooted_texts",
        "act_on_ball",
        "_act_on_spike",
        "_spanned",
        "_embeddings",
        "_leaving",
        "_image",
    )
    modules = [
        module
        for key, module in sorted(sys.modules.items())
        if key == "spherotree" or key.startswith("spherotree.")
    ] + [oracles]
    bound = [(module, name) for module in modules for name in names if hasattr(module, name)]
    assert {name for _, name in bound} == set(names)
    with monkeypatch.context() as patch:
        for module, name in bound:
            patch.setattr(module, name, refuse)
        _classified_unions.cache_clear()
        theta.cache_clear()
        with pytest.raises(AssertionError, match="theta's machinery"):
            theta(g, table)  # the patches do bite
        counts = theta_bruteforce(g, table, 5)
    assert counts.matrix == ((None, 2), (2, None))
    assert counts == theta(g, table)
