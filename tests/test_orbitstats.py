"""Tests for moved-set listings and transition-count matrices."""

import functools
import hashlib
import random
import sys
import time

import pytest

from spherotree import orbitstats
from spherotree.bithorn import coset_code, is_automorphism
from spherotree.element import (
    compose,
    equals,
    finitary_automorphism,
    identity,
    invert,
    random_element,
    witness_nonautomorphism,
    witness_translation,
)
from spherotree.errors import DomainError, ValidationError
from spherotree.orbitstats import (
    ClassTable,
    TransitionCounts,
    _classified_unions,
    moved_sets,
    theta,
    theta_bruteforce,
)
from spherotree.spherical import SphericalSpec, phi_nessonov
from spherotree.thorn import ThornCode, classify_clopen, enumerate_class_codes
from spherotree.tree import ClopenSet, down, parse_address, up, upsilon

from oracles import irreducible_uniform_pairing, random_finitary

BALL = ThornCode(2, "(1:)")
PAIR = ThornCode(2, "(1:(1:))")
SPREAD = ThornCode(2, "(0:(1:)(1:))")

BALL_TABLE = ClassTable(2, 0, (BALL,))
COMBINED_TABLE = ClassTable(2, 0, (BALL, PAIR))


def A(text: str, arity: int = 2):
    return parse_address(text, arity)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


def test_class_table_validation():
    assert BALL_TABLE.labels == ("P", BALL.token)
    assert BALL_TABLE.index_of(BALL) == 1
    assert BALL_TABLE.index_of(PAIR) == 0
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
        assert theta_bruteforce(g, BALL_TABLE, depth) == theta(g, BALL_TABLE)
        assert theta_bruteforce(g, COMBINED_TABLE, depth) == theta(
            g, COMBINED_TABLE
        )


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
        exact = theta(g, COMBINED_TABLE)
        assert theta_bruteforce(g, COMBINED_TABLE, depth) == exact
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


def test_longer_pattern_table():
    spread_table = ClassTable(2, 0, (BALL, SPREAD))
    g = witness_nonautomorphism()
    depth = g.depth() + SPREAD.diameter + 1
    assert theta_bruteforce(g, spread_table, depth) == theta(g, spread_table)


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
    """theta equals the brute force on each element and on coset mates a·g·b.

    The mates are checked with the coset memo emptied before every call, so
    that each computes its own counts, and then warm, where every mate
    after g is a memo hit.
    """
    max_diameter = max(code.diameter for code in table.tracked)
    rng = random.Random(5)
    moved = 0
    for g in elements:
        exact = theta_bruteforce(g, table, g.depth() + max_diameter + 1)
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
    assert exact == theta_bruteforce(g, COMBINED_TABLE, g.depth() + 2)
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
        assert exact == theta_bruteforce(g, COMBINED_TABLE, g.depth() + 2)
        assert value == phi_nessonov(g, spec)


def test_bruteforce_shares_nothing_with_theta_classification(monkeypatch):
    """With theta's reduction, encoding and ball-image helpers refusing to run
    in every module that binds them, the oracle still gives the pinned counts."""

    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle reached theta's machinery")

    g = witness_nonautomorphism()
    table = ClassTable(2, 0, (BALL,))
    names = (
        "classify_balls",
        "reduce_subthorn",
        "subthorn_from_balls",
        "canonical_code",
        "rooted_encoder",
        "act_on_ball",
        "_act_on_ball",
    )
    modules = [
        module
        for key, module in sorted(sys.modules.items())
        if key == "spherotree" or key.startswith("spherotree.")
    ]
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
