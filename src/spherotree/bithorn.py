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
from operator import itemgetter

from .element import Spheromorphism
from .errors import ValidationError
from .thorn import (
    EMPTY_CODE_TEXT,
    AbstractThorn,
    Spike,
    SubThorn,
    ThornCode,
    _across,
    _spike_dirs,
    _subthorn_of,
    abstract_from_code,
    decode_token,
    empty_subthorn,
    rooted_encoder,
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


def reduce_bithorn(b: BiThorn, rng: random.Random | None = None) -> BiThorn:
    """Cut similar pairs until none remain.  The fixpoint is order-independent.

    Both sides are read into {vertex: spike directions}.  A worklist holds
    the domain vertices with n spikes; a popped vertex whose n partners all
    sit at one range vertex ``far`` is cut together with ``far`` (both are
    skeleton leaves, as both sides are perfect), and the two new spikes are
    paired.  A vertex's partner spikes keep their range vertices until the
    vertex itself is cut, so each is tested once, when it reaches n spikes.
    A single matched vertex pair matches two full branch stars, which any
    tree automorphism can align, so reaching one vertex means reaching the
    empty pair.  Passing a random generator pops the worklist at random
    instead of from its end; the result is the same either way.
    """
    if b.is_empty:
        return b
    arity = b.arity
    dom, ran = _spike_dirs(b.dom), _spike_dirs(b.ran)
    pair = dict(b.pairing)
    pending = [a for a, dirs in dom.items() if len(dirs) == arity]
    while pending and len(dom) > 1:
        a = pending.pop() if rng is None else pending.pop(rng.randrange(len(pending)))
        far = {pair[a, d][0] for d in dom[a]}
        if len(far) > 1:
            continue
        for d in dom[a]:
            del pair[a, d]
        w, back = _across(a, dom, arity)
        x, ran_back = _across(far.pop(), ran, arity)
        dom[w].add(back)
        ran[x].add(ran_back)
        pair[w, back] = x, ran_back
        if len(dom[w]) == arity:
            pending.append(w)
    if len(dom) == 1:
        return empty_bithorn(arity)
    pairing = tuple(sorted(pair.items()))
    return trusted(BiThorn, arity, _subthorn_of(dom, arity), _subthorn_of(ran, arity), pairing)


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
        # str.isdigit alone admits other scripts' digits and superscripts
        if not sep or not chunk.isascii() or not left.isdigit() or not right.isdigit():
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
    """The minimal rooted shape text of one side and its minimal roots.

    Vertices are indexed in address order.  A numbering gives each index its
    place in a preorder from a minimal root, with sibling subtrees in sorted
    shape order; equal shapes may come in any order.
    """

    def __init__(self, t: SubThorn) -> None:
        self.index = {v: i for i, v in enumerate(sorted(t.vertices))}
        model = AbstractThorn.from_subthorn(t)
        self.adjacency = model.adjacency
        self.text = rooted_encoder(model.adjacency, model.spike_counts)
        texts = [self.text(v) for v in range(len(self.index))]
        self.shape = min(texts)
        self.roots = [v for v, text in enumerate(texts) if text == self.shape]

    def rooted(self, root: int) -> dict[int, list[list[int]]]:
        """Each vertex's children away from root, grouped by equal shape with
        the groups in shape order, vertices in preorder: each vertex, then its
        children's subtrees group by group, the order of the shape text."""
        kids: dict[int, list[list[int]]] = {}
        stack: list[tuple[int, int | None]] = [(root, None)]
        while stack:
            v, parent = stack.pop()
            groups: dict[str, list[int]] = {}
            for w in sorted(self.adjacency[v]):
                if w != parent:
                    groups.setdefault(self.text(w, v), []).append(w)
            kids[v] = [groups[key] for key in sorted(groups)]
            stack += reversed([(w, v) for group in kids[v] for w in group])
        return kids


def canonical_coset_code(b: BiThorn) -> CosetCode:
    """The least sorted arc list of (domain place, range place) over numberings.

    For a fixed range numbering τ the arc lists compare as the blocks K(v),
    the sorted τ-places of v's partners, in domain preorder, and the least
    sequence below v is K(v) and then, group by group, the least sequences
    of its equal-shape children in ascending order: one bottom-up pass per
    minimal domain root.  τ is fixed by each range vertex's rank among its
    equal-shape siblings and found by branch and bound over ranks (McKay and
    Piperno, "Practical graph isomorphism, II", 2014): a rank not yet given
    out counts as the least one left, which bounds places and sequence from
    below.  A branch ends when its bound reaches the best sequence or holds
    only exact places, and splits on the topmost open rank above the first
    inexact entry.
    """
    if b.is_empty:
        return trusted(CosetCode, b.arity, EMPTY_CODE_TEXT)
    dom, ran = _Side(b.dom), _Side(b.ran)
    partners: list[list[int]] = [[] for _ in dom.index]
    for s, q in b.pairing:
        partners[dom.index[s[0]]].append(ran.index[q[0]])
    rootings = [dom.rooted(root) for root in dom.roots]
    passes = [[(v, partners[v], kids[v]) for v in reversed(kids)] for kids in rootings]
    best = [len(partners)]  # above every sequence: all places are smaller

    def least(place: list[int], top: list[int | None]) -> tuple[list[int], int | None]:
        """The least sequence and the ``top`` of its first inexact entry."""
        found = []
        for order in passes:
            seq: dict[int, tuple[list[int], int | None]] = {}
            for v, near, groups in order:
                block = sorted((place[j], j) for j in near)
                values = [x for x, _ in block]
                split = next((top[j] for _, j in block if top[j] is not None), None)
                for group in groups:
                    for part, below in sorted((seq.pop(w) for w in group), key=itemgetter(0)):
                        values += part
                        split = below if split is None else split
                seq[v] = values, split
            found.append(seq[v])
        return min(found, key=itemgetter(0))

    def bound() -> tuple[list[int], int | None]:
        # top[w]: the topmost vertex at or above w whose rank is open, if any
        place = [0] * len(partners)
        top: list[int | None] = [None] * len(partners)
        for v, groups in kids.items():
            at = place[v] + 1
            for group in groups:
                size, ranked = sizes[group[0]], chosen[group[0]]
                for w in group:
                    known = w in ranked
                    place[w] = at + (ranked.index(w) if known else len(ranked)) * size
                    open_rank = not known and len(group) - len(ranked) > 1
                    top[w] = w if top[v] is None and open_rank else top[v]
                at += len(group) * size
        return least(place, top)

    def search(values: list[int], split: int | None) -> None:
        nonlocal best
        if values >= best:
            return
        if split is None:
            best = values
            return
        group = home[split]
        ranked = chosen[group[0]]
        branches = []
        for w in group:
            if w not in ranked:
                ranked.append(w)
                branches.append((*bound(), w))
                ranked.pop()
        branches.sort(key=itemgetter(0))
        for values, split, w in branches:
            ranked.append(w)
            search(values, split)
            ranked.pop()

    for root in ran.roots:  # the state below describes the current rooting
        kids = ran.rooted(root)
        home = {w: group for groups in kids.values() for group in groups for w in group}
        chosen: dict[int, list[int]] = {group[0]: [] for group in home.values()}
        sizes: dict[int, int] = {}
        for v in reversed(kids):
            sizes[v] = 1 + sum(sizes[w] for group in kids[v] for w in group)
        search(*bound())
    del search  # it calls itself through its closure; the cycle would outlive this call
    # an arc's domain place is that of its vertex in the shape text's order
    firsts = [p for p, v in enumerate(rootings[0]) for _ in partners[v]]
    arc_text = ",".join(f"{i}>{j}" for i, j in zip(firsts, best))
    return trusted(CosetCode, b.arity, f"{dom.shape}|{ran.shape}|{arc_text}")


def coset_code(g: Spheromorphism) -> CosetCode:
    """Canonical code of the two-sided automorphism coset of g."""
    return canonical_coset_code(minimal_bithorn(g))
