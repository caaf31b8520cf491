"""Two-sided thorn data for table elements, up to tree automorphisms.

A table element g carries a pair of perfect sub-thorns: one spanned by the
interior of its domain code, one by its range code, with spikes matched the
way g matches the corresponding balls.  Multiplying g on either side by an
automorphism can re-route every matched ball internally, so the only
retained structure is which ball goes to which — the pairing.

Cutting "similar" vertex pairs (a boundary vertex whose matched balls all
sit at a single far-side vertex) shrinks the pair without changing the
two-sided coset; the fixpoint is empty exactly when g is induced by a tree
automorphism.  ``CosetCode`` serializes the fixpoint canonically, giving a
computable invariant of the two-sided automorphism coset of g.
"""

from __future__ import annotations

import binascii
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import factorial
from typing import Iterator

from .element import Spheromorphism
from .errors import ValidationError
from .thorn import (
    EMPTY_CODE_TEXT,
    AbstractThorn,
    Spike,
    SubThorn,
    ThornCode,
    abstract_from_code,
    decode_token,
    empty_subthorn,
    rooted_encoder,
    spike_toward,
)
from .tree import Address, check_arity, children, merge_families, root_code, trusted


@dataclass(frozen=True)
class BiThorn:
    """A matched pair of perfect sub-thorns, or the empty pair.

    ``pairing`` lists (domain spike, range spike) pairs, sorted, covering
    every spike on each side exactly once.
    """

    arity: int
    dom: SubThorn
    ran: SubThorn
    pairing: tuple[tuple[Spike, Spike], ...]

    def __post_init__(self) -> None:
        check_arity(self.arity)
        if self.dom.arity != self.arity or self.ran.arity != self.arity:
            raise ValidationError("thorn arity differs from the pair arity")
        if self.dom.is_empty != self.ran.is_empty:
            raise ValidationError("one side is empty and the other is not")
        if self.dom.is_empty:
            if self.pairing:
                raise ValidationError("the empty pair cannot match spikes")
            return
        if not self.dom.is_perfect or not self.ran.is_perfect:
            raise ValidationError("both sides of a nonempty pair must be perfect")
        if len(self.dom.vertices) != len(self.ran.vertices):
            raise ValidationError("the two sides must have the same vertex count")
        if self.pairing != tuple(sorted(self.pairing)):
            raise ValidationError("the pairing must be sorted")
        firsts = [s for s, _ in self.pairing]
        seconds = [q for _, q in self.pairing]
        if len(set(firsts)) != len(firsts) or set(firsts) != set(self.dom.spikes):
            raise ValidationError("pairing does not cover the domain spikes exactly once")
        if len(set(seconds)) != len(seconds) or set(seconds) != set(self.ran.spikes):
            raise ValidationError("pairing does not cover the range spikes exactly once")

    @property
    def is_empty(self) -> bool:
        return self.dom.is_empty

    @property
    def vertex_count(self) -> int:
        return len(self.dom.vertices)

    @cached_property
    def pair_map(self) -> dict[Spike, Spike]:
        return dict(self.pairing)

    def flip(self) -> "BiThorn":
        """The pair of the inverse element: sides swapped, pairing reversed."""
        return trusted(
            BiThorn, self.arity, self.ran, self.dom, tuple(sorted((q, s) for s, q in self.pairing))
        )


def empty_bithorn(arity: int) -> BiThorn:
    return BiThorn(arity, empty_subthorn(arity), empty_subthorn(arity), ())


def _code_thorn(arity: int, leaves) -> SubThorn:
    """Perfect sub-thorn spanned by the interior of a complete prefix code."""
    leaf_list = list(leaves)
    interior = {leaf[:k] for leaf in leaf_list for k in range(len(leaf))}
    spikes = frozenset((leaf[:-1], leaf[-1]) for leaf in leaf_list)
    return trusted(SubThorn, arity, frozenset(interior), spikes)


def bithorn_of(g: Spheromorphism) -> BiThorn:
    """The matched thorn pair of a table element.

    Sibling families mapped onto sibling families (in any order) merge into
    their parents first: rearranging the inside of a matched ball is an
    automorphism move, so only the coarsest ball matching is kept.  The
    result is empty exactly when the merged domain code is the root code,
    which happens exactly for elements that permute the root branches.
    """

    def onto_family(targets: list[Address]) -> Address | None:
        stem = targets[0][:-1]
        if stem and set(targets) == set(children(stem, g.arity)):
            return stem
        return None

    table = merge_families(g.arity, dict(g.pieces), onto_family)
    if set(table) == set(root_code(g.arity)):
        return empty_bithorn(g.arity)
    dom = _code_thorn(g.arity, table.keys())
    ran = _code_thorn(g.arity, table.values())
    pairing = tuple(
        sorted(((u[:-1], u[-1]), (v[:-1], v[-1])) for u, v in table.items())
    )
    return trusted(BiThorn, g.arity, dom, ran, pairing)


def _cut_leaf(t: SubThorn, a: Address) -> tuple[SubThorn, Spike]:
    """Remove a skeleton leaf; its former edge becomes a spike at the neighbor."""
    (r,) = t.internal_neighbors(a)
    new_spike = spike_toward(r, a)
    verts = t.vertices - {a}
    spikes = frozenset(s for s in t.spikes if s[0] != a) | {new_spike}
    return trusted(SubThorn, t.arity, verts, spikes), new_spike


def _cut_similar_pair(b: BiThorn, a: Address, far: Address) -> BiThorn:
    """Cut a domain vertex whose n spikes all meet the range vertex ``far``.

    Both sides are perfect, so ``far`` carries exactly those n spikes and
    both vertices are skeleton leaves.
    """
    new_dom, new_dom_spike = _cut_leaf(b.dom, a)
    new_ran, new_ran_spike = _cut_leaf(b.ran, far)
    pairs = [(s, q) for s, q in b.pairing if s[0] != a]
    pairs.append((new_dom_spike, new_ran_spike))
    return trusted(BiThorn, b.arity, new_dom, new_ran, tuple(sorted(pairs)))


def reduce_bithorn(b: BiThorn, rng: random.Random | None = None) -> BiThorn:
    """Cut similar pairs until none remain.  The fixpoint is order-independent.

    A single matched vertex pair matches two full branch stars, which any
    tree automorphism can align, so reaching one vertex means reaching the
    empty pair.  Passing a random generator picks cut candidates at random
    instead of in address order; the result is the same either way.
    """
    current = b
    while not current.is_empty:
        if current.vertex_count == 1:
            return empty_bithorn(current.arity)
        pair = current.pair_map
        candidates = []
        for a in sorted(current.dom.vertices):
            a_spikes = current.dom.spikes_at(a)
            if len(a_spikes) != current.arity:
                continue
            far = {pair[s][0] for s in a_spikes}
            if len(far) == 1:
                candidates.append((a, *far))
        if not candidates:
            return current
        pick = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
        current = _cut_similar_pair(current, *pick)
    return current


def minimal_bithorn(g: Spheromorphism) -> BiThorn:
    return reduce_bithorn(bithorn_of(g))


def is_automorphism(g: Spheromorphism) -> bool:
    """Whether g is induced by an isomorphism of the tree."""
    return minimal_bithorn(g).is_empty


# ---------------------------------------------------------------------------
# canonical coset codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetCode:
    """Canonical invariant of the two-sided automorphism coset of an element.

    The text is ``E`` for automorphisms and otherwise three ``|``-separated
    parts: the rooted shapes of the two sides and the sorted multiset of
    matched vertex index pairs (``i>j``), minimized over every choice of
    rooting and index assignment on both sides.
    """

    arity: int
    text: str

    def __post_init__(self) -> None:
        check_arity(self.arity)
        _validate_coset_text(self.arity, self.text)

    @property
    def token(self) -> str:
        return f"{self.arity}c" + binascii.hexlify(self.text.encode("ascii")).decode("ascii")

    @staticmethod
    def from_token(token: str) -> "CosetCode":
        return CosetCode(*decode_token(token, "c", "coset code"))

    @property
    def is_empty(self) -> bool:
        return self.text == EMPTY_CODE_TEXT


def _validate_coset_text(arity: int, text: str) -> None:
    if text == EMPTY_CODE_TEXT:
        return
    parts = text.split("|")
    if len(parts) != 3:
        raise ValidationError(f"coset code text needs three parts: {text!r}")
    shape_dom, shape_ran, arc_part = parts
    models = []
    for shape in (shape_dom, shape_ran):
        model = abstract_from_code(ThornCode(arity, shape))
        if model.vertex_count == 0:
            raise ValidationError("a nonempty coset code cannot use the empty shape")
        for i in range(model.vertex_count):
            if len(model.adjacency[i]) + model.spike_counts[i] != arity + 1:
                raise ValidationError(f"shape {shape!r} is not perfect for arity {arity}")
        models.append(model)
    dom_model, ran_model = models
    if dom_model.vertex_count != ran_model.vertex_count:
        raise ValidationError("coset code sides have different vertex counts")
    arcs = []
    for chunk in arc_part.split(","):
        left, sep, right = chunk.partition(">")
        if not sep or not left.isdigit() or not right.isdigit():
            raise ValidationError(f"bad arc {chunk!r} in coset code")
        arcs.append((int(left), int(right)))
    if arcs != sorted(arcs):
        raise ValidationError("coset code arcs must be sorted")
    from_counts = [0] * dom_model.vertex_count
    to_counts = [0] * ran_model.vertex_count
    for i, j in arcs:
        if i >= dom_model.vertex_count or j >= ran_model.vertex_count:
            raise ValidationError(f"arc {i}>{j} points outside the shapes")
        from_counts[i] += 1
        to_counts[j] += 1
    if tuple(from_counts) != dom_model.spike_counts:
        raise ValidationError("arc multiplicities disagree with the domain shape")
    if tuple(to_counts) != ran_model.spike_counts:
        raise ValidationError("arc multiplicities disagree with the range shape")


class _Side:
    """The minimal rooted shape text of one side and the numberings it allows.

    Vertices are indexed in address order; a numbering gives each index its
    place in a preorder from a vertex achieving the minimal text, with
    sibling subtrees in sorted shape order.  Equal shapes may be swapped,
    so every valid index assignment of the shape is produced.
    """

    def __init__(self, t: SubThorn) -> None:
        self.index = {v: i for i, v in enumerate(sorted(t.vertices))}
        model = AbstractThorn.from_subthorn(t)
        self.adjacency = model.adjacency
        self.text = rooted_encoder(model.adjacency, model.spike_counts)
        texts = [self.text(v) for v in range(len(self.index))]
        self.shape = min(texts)
        self.roots = [v for v, text in enumerate(texts) if text == self.shape]

    def _groups(self, v: int, parent: int | None) -> list[list[int]]:
        """Children of v away from parent, grouped by equal shape, groups sorted."""
        groups: dict[str, list[int]] = {}
        for w in sorted(self.adjacency[v]):
            if w != parent:
                groups.setdefault(self.text(w, v), []).append(w)
        return [groups[key] for key in sorted(groups)]

    def numbering_count(self) -> int:
        """How many numberings ``numberings`` lists, counted without listing them.

        Minimal roots are isomorphic as rooted trees, so the count is their
        number times the product of m! over every group of m equal child
        shapes below one of them.
        """
        count = len(self.roots)
        stack: list[tuple[int, int | None]] = [(self.roots[0], None)]
        while stack:
            v, parent = stack.pop()
            for group in self._groups(v, parent):
                count *= factorial(len(group))
                stack.extend((w, v) for w in group)
        return count

    def numberings(self) -> list[tuple[int, ...]]:
        def rec(v: int, parent: int | None) -> Iterator[tuple[int, ...]]:
            groups = self._groups(v, parent)
            if not groups:
                yield (v,)
                return
            for choice in product(*[list(permutations(group)) for group in groups]):
                ordered = [w for group in choice for w in group]
                for parts in product(*[list(rec(w, v)) for w in ordered]):
                    yield (v,) + tuple(x for part in parts for x in part)

        numberings = []
        for root in self.roots:
            for preorder in rec(root, None):
                place = [0] * len(self.index)
                for i, v in enumerate(preorder):
                    place[v] = i
                numberings.append(tuple(place))
        return numberings


def canonical_coset_code(b: BiThorn) -> CosetCode:
    if b.is_empty:
        return trusted(CosetCode, b.arity, EMPTY_CODE_TEXT)
    return _search(b, _Side(b.dom), _Side(b.ran))


def bounded_coset_code(b: BiThorn, max_numberings: int) -> CosetCode | None:
    """``canonical_coset_code(b)``, or None if its search is too large.

    The search compares every pair of a domain and a range numbering; when
    there are more than ``max_numberings`` pairs, None is returned without
    searching.  Counting the pairs is linear in the bi-thorn.
    """
    if b.is_empty:
        return trusted(CosetCode, b.arity, EMPTY_CODE_TEXT)
    dom, ran = _Side(b.dom), _Side(b.ran)
    if dom.numbering_count() * ran.numbering_count() > max_numberings:
        return None
    return _search(b, dom, ran)


def _search(b: BiThorn, dom: _Side, ran: _Side) -> CosetCode:
    arcs = [(dom.index[s[0]], ran.index[q[0]]) for s, q in b.pairing]
    ran_numberings = ran.numberings()
    best = min(
        sorted((dom_place[i], ran_place[j]) for i, j in arcs)
        for dom_place in dom.numberings()
        for ran_place in ran_numberings
    )
    arc_text = ",".join(f"{i}>{j}" for i, j in best)
    return trusted(CosetCode, b.arity, f"{dom.shape}|{ran.shape}|{arc_text}")


def coset_code(g: Spheromorphism) -> CosetCode:
    """Canonical code of the two-sided automorphism coset of g."""
    return canonical_coset_code(minimal_bithorn(g))
