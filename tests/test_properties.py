"""Generated-input properties of θ, the Gram certificate, coset codes, the
group laws and the text formats.

Each property draws seeds with Hypothesis, derandomized and with a fixed
example budget, so every run tries the same inputs; the module skips
without ``hypothesis``.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
strategies = hypothesis.strategies

from spherotree.bithorn import coset_code, is_automorphism
from spherotree.element import compose, identity, invert, random_element
from spherotree.orbitstats import ClassTable, theta
from spherotree.spherical import SphericalSpec, TensorSpec, gram_psd_check, nessonov_evaluator
from spherotree.textio import (
    format_class_table,
    format_clopen,
    format_element,
    format_spherical_spec,
    format_subthorn,
    format_tensor_spec,
    parse_class_table,
    parse_clopen,
    parse_element,
    parse_spherical_spec,
    parse_subthorn,
    parse_tensor_spec,
)
from spherotree.thorn import UP, SubThorn, enumerate_class_codes
from spherotree.tree import ClopenSet, children, neighbors

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


seeds = strategies.integers(0, 10**6)
# finite floats, signed zeros and subnormals included: the formats print repr
entries = strategies.floats(allow_nan=False, allow_infinity=False)


@derandomized
@hypothesis.given(strategies.integers(2, 4), strategies.integers(0, 12), seeds, seeds, seeds)
def test_compose_and_invert_obey_the_group_laws(arity, extra, x, y, z):
    """Associativity, the identity on both sides, inverses on both sides,
    and the inverse of a product, on seeded elements of up to 2n + 2 +
    ``extra`` leaves."""
    g, h, k = (random_element(arity, 2 * arity + 2 + extra, seed) for seed in (x, y, z))
    e = identity(arity)
    assert compose(compose(g, h), k) == compose(g, compose(h, k))
    assert compose(g, e) == g == compose(e, g)
    assert compose(g, invert(g)) == e == compose(invert(g), g)
    assert invert(invert(g)) == g
    assert invert(compose(g, h)) == compose(invert(h), invert(g))


def _round_trip(parse, format_, obj) -> None:
    """parse(format(x)) == x, and formatting the parsed object gives the
    same bytes."""
    text = format_(obj)
    again = parse(text)
    assert again == obj
    assert format_(again) == text


@derandomized
@hypothesis.given(strategies.integers(2, 9), strategies.integers(0, 20), seeds)
def test_element_text_round_trips(arity, extra, seed):
    _round_trip(parse_element, format_element, random_element(arity, arity + 1 + extra, seed))


def _random_clopen(arity: int, seed: int) -> ClopenSet:
    """Random marks on a random complete prefix code, with at least one leaf
    marked and one not."""
    rng = random.Random(seed)
    code = [(c,) for c in range(arity + 1)]
    for _ in range(rng.randint(0, 4)):
        code += children(code.pop(rng.randrange(len(code))), arity)
    flags = {leaf: rng.random() < 0.5 for leaf in code}
    flags[code[0]], flags[code[-1]] = True, False
    return ClopenSet.from_marks(arity, flags)


@derandomized
@hypothesis.given(strategies.integers(2, 9), seeds)
def test_clopen_text_round_trips(arity, seed):
    _round_trip(parse_clopen, format_clopen, _random_clopen(arity, seed))


def _random_subthorn(arity: int, seed: int) -> SubThorn:
    """A random connected set of up to five vertices near the root, with a
    random set of the spikes it leaves free; empty one time in ten."""
    rng = random.Random(seed)
    if rng.random() < 0.1:
        return SubThorn(arity, frozenset(), frozenset())
    start = (rng.randrange(arity + 1),) * rng.randint(0, 1)
    vertices = {start}
    for _ in range(rng.randint(0, 4)):
        vertices.add(rng.choice(sorted({w for v in vertices for w in neighbors(v, arity)})))
    free = [
        (v, d)
        for v in sorted(vertices)
        for d in [*range(arity + 1 if not v else arity), *([UP] if v else [])]
        if (v[:-1] if d == UP else v + (d,)) not in vertices
    ]
    spikes = [s for s in free if rng.random() < 0.5]
    return SubThorn(arity, frozenset(vertices), frozenset(spikes))


@derandomized
@hypothesis.given(strategies.integers(2, 9), seeds)
def test_thorn_text_round_trips(arity, seed):
    _round_trip(parse_subthorn, format_subthorn, _random_subthorn(arity, seed))


# class enumerations per (arity, residue), at most three vertices
CLASSES = {
    (arity, iota): enumerate_class_codes(arity, iota, 3) for arity in (2, 3, 4) for iota in range(arity - 1)
}


def _random_table(sector: int, seed: int) -> ClassTable:
    """A random nonempty selection of a sector's classes, in random order."""
    arity, iota = sorted(CLASSES)[sector]
    rng = random.Random(seed)
    codes = CLASSES[arity, iota]
    return ClassTable(arity, iota, tuple(rng.sample(codes, rng.randint(1, min(4, len(codes))))))


sectors = strategies.integers(0, len(CLASSES) - 1)


@derandomized
@hypothesis.given(sectors, seeds)
def test_class_table_text_round_trips(sector, seed):
    _round_trip(parse_class_table, format_class_table, _random_table(sector, seed))


@derandomized
@hypothesis.given(sectors, seeds, strategies.lists(entries, min_size=10, max_size=10))
def test_spherical_spec_text_round_trips(sector, seed, off):
    """A unit-diagonal symmetric matrix of any finite entries."""
    table = _random_table(sector, seed)
    size = len(table.tracked) + 1
    rows = [[1.0] * size for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i)]
    for (i, j), x in zip(pairs, off):
        rows[i][j] = rows[j][i] = x
    _round_trip(parse_spherical_spec, format_spherical_spec, SphericalSpec(table, tuple(map(tuple, rows))))


@derandomized
@hypothesis.given(sectors, strategies.integers(1, 3), strategies.integers(1, 4), seeds)
def test_tensor_spec_text_round_trips(sector, cap, dimension, seed):
    """Random unit vectors on a random set of the classes within the cap."""
    arity, iota = sorted(CLASSES)[sector]
    rng = random.Random(seed)

    def unit() -> tuple[float, ...]:
        while True:
            vec = [rng.gauss(0.0, 1.0) for _ in range(dimension)]
            norm = sum(x * x for x in vec) ** 0.5
            if norm > 1e-3:
                return tuple(x / norm for x in vec)

    codes = [code for code in CLASSES[arity, iota] if code.vertex_count <= cap]
    chosen = rng.sample(codes, rng.randint(0, min(4, len(codes))))
    tspec = TensorSpec(arity, iota, cap, tuple((code, unit()) for code in chosen), unit())
    _round_trip(parse_tensor_spec, format_tensor_spec, tspec)
