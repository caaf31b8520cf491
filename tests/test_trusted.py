"""Objects the library builds without checks pass the checks unchanged.

Internal results skip ``__post_init__``; rebuilding each one through its
validating constructor must raise nothing and give an equal object.  The
single sibling-family merge helper is also compared with the three merge
loops it replaced, kept here as references.
"""

import random

import pytest

from spherotree.bithorn import BiThorn, CosetCode, bithorn_of, coset_code, minimal_bithorn
from spherotree.element import (
    Spheromorphism,
    _canonical_pieces,
    compose,
    invert,
    power,
    random_element,
)
from spherotree.thorn import SubThorn, ThornCode, enumerate_class_codes
from spherotree.tree import ClopenSet, children, root_code

SEEDS = range(40)


def _elements():
    for arity in (2, 3):
        for seed in SEEDS:
            yield random_element(arity, 10, f"trusted:{seed}"), random_element(
                arity, 10, f"trusted-other:{seed}"
            )


def _rebuilt_thorn(t):
    return SubThorn(t.arity, t.vertices, t.spikes)


def _rebuilt_pair(b):
    return BiThorn(b.arity, _rebuilt_thorn(b.dom), _rebuilt_thorn(b.ran), b.pairing)


def test_group_operations_pass_the_constructor():
    for g, h in _elements():
        for k in (-3, 2, 5):
            for result in (compose(g, h), invert(g), power(g, k)):
                assert Spheromorphism(result.arity, result.pieces) == result


def test_bithorns_pass_the_constructors():
    for g, _ in _elements():
        for b in (bithorn_of(g), minimal_bithorn(g), minimal_bithorn(g).flip()):
            assert _rebuilt_thorn(b.dom) == b.dom
            assert _rebuilt_thorn(b.ran) == b.ran
            assert _rebuilt_pair(b) == b


def test_coset_codes_pass_the_constructor():
    for g, h in _elements():
        for code in (coset_code(g), coset_code(compose(g, h))):
            assert CosetCode(code.arity, code.text) == code


@pytest.mark.parametrize("arity, iota", [(2, 0), (3, 0), (3, 1), (4, 0), (4, 2)])
def test_enumerated_class_codes_pass_the_constructor(arity, iota):
    for max_vertices in range(1, 5):
        for code in enumerate_class_codes(arity, iota, max_vertices):
            again = ThornCode(code.arity, code.text)
            assert again == code
            assert (again.vertex_count, again.spike_count, again.diameter) == (
                code.vertex_count,
                code.spike_count,
                code.diameter,
            )


# ---------------------------------------------------------------------------
# the three merge loops that ``tree.merge_families`` replaced
# ---------------------------------------------------------------------------


def _reference_canonical_pieces(arity, pieces):
    table = dict(pieces)
    changed = True
    while changed:
        changed = False
        for u in sorted(table, key=len, reverse=True):
            if u not in table or len(u) <= 1:
                continue
            stem = u[:-1]
            family = children(stem, arity)
            if not all(c in table for c in family):
                continue
            target_stem = table[family[0]][:-1]
            if not target_stem:
                continue
            if all(table[c] == target_stem + (c[-1],) for c in family):
                for c in family:
                    del table[c]
                table[stem] = target_stem
                changed = True
    return tuple(sorted(table.items()))


def _reference_bithorn_table(g):
    table = dict(g.pieces)
    changed = True
    while changed:
        changed = False
        for u in sorted(table, key=len, reverse=True):
            if u not in table or len(u) <= 1:
                continue
            stem = u[:-1]
            family = children(stem, g.arity)
            if not all(c in table for c in family):
                continue
            targets = {table[c] for c in family}
            stems = {t[:-1] for t in targets}
            if len(stems) != 1:
                continue
            (target_stem,) = stems
            if not target_stem or targets != set(children(target_stem, g.arity)):
                continue
            for c in family:
                del table[c]
            table[stem] = target_stem
            changed = True
    return table


def _reference_normalize(arity, flags):
    work = dict(flags)
    pending = sorted(work, key=len, reverse=True)
    while pending:
        leaf = pending.pop(0)
        if leaf not in work or len(leaf) <= 1:
            continue
        stem = leaf[:-1]
        family = children(stem, arity)
        if all(f in work for f in family):
            val = work[family[0]]
            if all(work[f] == val for f in family):
                for f in family:
                    del work[f]
                work[stem] = val
                pending.insert(0, stem)
    return tuple(sorted(work)), frozenset(leaf for leaf, v in work.items() if v)


def _split_literally(rng, arity, pieces, times):
    """The same map on a finer table: pieces split into literal families."""
    table = dict(pieces)
    for _ in range(times):
        u = rng.choice(sorted(table))
        v = table.pop(u)
        for c in range(arity):
            table[u + (c,)] = v + (c,)
    return list(table.items())


def test_merge_helper_matches_the_reference_loops():
    rng = random.Random(5150)
    for g, _ in _elements():
        refined = _split_literally(rng, g.arity, g.pieces, rng.randint(1, 6))
        assert _canonical_pieces(g.arity, refined) == _reference_canonical_pieces(g.arity, refined)
        assert _canonical_pieces(g.arity, refined) == g.pieces
        b = bithorn_of(g)
        table = _reference_bithorn_table(g)
        if set(table) == set(root_code(g.arity)):
            assert b.is_empty
        else:
            assert b.pairing == tuple(
                sorted(((u[:-1], u[-1]), (v[:-1], v[-1])) for u, v in table.items())
            )
        # flags constant on each piece of g merge back up to g's domain code
        chosen = {u for u in g.sources if rng.random() < 0.5}
        flags = {
            leaf: (g.piece_for_source(leaf)[0] in chosen) != (rng.random() < 0.1)
            for leaf, _ in refined
        }
        if any(flags.values()) and not all(flags.values()):
            carrier, marks = _reference_normalize(g.arity, flags)
            omega = ClopenSet.from_marks(g.arity, flags)
            assert (omega.carrier, omega.marks) == (carrier, marks)
