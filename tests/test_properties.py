"""Generated-input properties of θ, the Gram certificate and coset codes.

Each property draws seeds with Hypothesis, derandomized and with a fixed
example budget, so every run tries the same inputs; the module skips
without ``hypothesis``.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
strategies = hypothesis.strategies

from spherotree.bithorn import coset_code, is_automorphism
from spherotree.element import compose, invert, random_element
from spherotree.orbitstats import ClassTable, theta
from spherotree.spherical import SphericalSpec, gram_psd_check, nessonov_evaluator
from spherotree.thorn import enumerate_class_codes

from oracles import balance_defects, full_gram_matrix, random_finitary, two_sided_theta

EXAMPLES = 25

derandomized = hypothesis.settings(
    derandomize=True,
    max_examples=EXAMPLES,
    deadline=None,
    database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)

# (arity, residue, cap) of the class tables drawn from: every residue at
# arities 2-4, two-vertex classes above arity 2
SECTORS = ((2, 0, 2), (2, 0, 3), (3, 0, 2), (3, 1, 2), (4, 0, 1), (4, 1, 2), (4, 2, 2))


def _table(sector: int) -> ClassTable:
    arity, iota, cap = SECTORS[sector]
    return ClassTable(arity, iota, enumerate_class_codes(arity, iota, cap))


def _case(sector: int, extra: int, seed: int):
    """The first non-automorphism among the seeded elements from ``seed`` on,
    with a budget of 2n + 2 + extra leaves, and the sector's table."""
    arity = SECTORS[sector][0]
    drawn = (random_element(arity, 2 * arity + 2 + extra, seed + k) for k in range(100))
    return next(g for g in drawn if not is_automorphism(g)), _table(sector)


elements = strategies.builds(
    _case,
    strategies.integers(0, len(SECTORS) - 1),
    strategies.integers(0, 3),
    strategies.integers(0, 10**6),
)


@derandomized
@hypothesis.given(elements)
def test_two_sided_counts_obey_the_class_balance_law(case):
    """As many sets enter each tracked class as leave it, in counts that
    list both sides and never use the law, and θ, which does, agrees."""
    g, table = case
    counts = two_sided_theta(g, table)
    assert not balance_defects(counts)
    assert theta(g, table) == counts


@derandomized
@hypothesis.given(elements)
def test_inverse_transposes_theta(case):
    g, table = case
    assert theta(invert(g), table) == theta(g, table).transpose()


@derandomized
@hypothesis.given(
    strategies.lists(strategies.integers(0, 10**6), min_size=2, max_size=4),
    strategies.lists(strategies.integers(0, 10**6), min_size=1, max_size=3),
    strategies.integers(0, 10**6),
)
def test_gram_rows_are_equal_within_a_left_coset(seeds, mates, spec_seed):
    """Elements g and g·a, a an automorphism, have equal rows, both in the
    certificate's matrix and in phi evaluated on every product."""
    rng = random.Random(spec_seed)
    els = [random_element(2, 8, seed) for seed in seeds]
    for seed in mates:
        els.append(compose(els[seed % len(seeds)], random_finitary(random.Random(seed), 2)))
    table = ClassTable(2, 0, enumerate_class_codes(2, 0, 2))
    off = [rng.uniform(0.1, 0.9) for _ in range(3)]
    spec = SphericalSpec(table, ((1.0, off[0], off[1]), (off[0], 1.0, off[2]), (off[1], off[2], 1.0)))
    phi = nessonov_evaluator(spec)
    report = gram_psd_check(els, phi)
    full = full_gram_matrix(els, phi)
    assert report.matrix == full
    for i in range(len(els)):
        for j in range(i):
            if is_automorphism(compose(invert(els[j]), els[i])):
                assert full[i] == full[j]


@derandomized
@hypothesis.given(
    strategies.integers(2, 4),
    strategies.integers(0, 10**6),
    strategies.integers(0, 10**6),
)
def test_coset_token_is_invariant_under_two_sided_automorphisms(arity, seed, moves):
    """a·g·b has the coset token of g for random finitary automorphisms a
    and b, g a random budget-16 element."""
    g = random_element(arity, 16, seed)
    rng = random.Random(moves)
    a, b = random_finitary(rng, arity), random_finitary(rng, arity)
    assert coset_code(compose(a, compose(g, b))).token == coset_code(g).token
