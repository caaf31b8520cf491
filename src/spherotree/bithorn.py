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
computable invariant of the two-sided automorphism coset of g; the texts of
its two sides come from ``thorn._rooted_texts``, as the classifier's do.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import itemgetter

from .element import Spheromorphism
from .errors import ValidationError
from .thorn import (
    _VERTEX_OPEN,
    EMPTY_CODE_TEXT,
    Spike,
    SubThorn,
    ThornCode,
    _across,
    _rooted_texts,
    _spanned,
    _spike_dirs,
    _subthorn_of,
    abstract_from_code,
    decode_token,
    empty_subthorn,
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
    pairing = tuple(
        sorted(((u[:-1], u[-1]), (v[:-1], v[-1])) for u, v in table.items())
    )
    # a complete prefix code has leaves in every root branch, so its spikes'
    # anchors meet at the root and span the whole interior of the code
    dom = _subthorn_of(_spanned(s for s, _ in pairing), g.arity)
    ran = _subthorn_of(_spanned(q for _, q in pairing), g.arity)
    return trusted(BiThorn, g.arity, dom, ran, pairing)


def reduce_bithorn(b: BiThorn) -> BiThorn:
    """Cut similar pairs until none remain.  The fixpoint is order-independent.

    Both sides are read into {vertex: spike directions}.  A worklist holds
    the domain vertices with n spikes; a popped vertex whose n partners all
    sit at one range vertex ``far`` is cut together with ``far`` (both are
    skeleton leaves, as both sides are perfect), and the two new spikes are
    paired.  A vertex's partner spikes keep their range vertices until the
    vertex itself is cut, so each is tested once, when it reaches n spikes.
    A single matched vertex pair matches two full branch stars, which any
    tree automorphism can align, so reaching one vertex means reaching the
    empty pair.  A pair with nothing to cut comes back as itself.
    """
    if b.is_empty:
        return b
    arity = b.arity
    dom, ran = _spike_dirs(b.dom), _spike_dirs(b.ran)
    pair = dict(b.pairing)
    pending = [a for a, dirs in dom.items() if len(dirs) == arity]
    while pending and len(dom) > 1:
        a = pending.pop()
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
    if len(dom) == b.vertex_count:  # nothing was cut
        return b
    pairing = tuple(sorted(pair.items()))
    return trusted(BiThorn, arity, _subthorn_of(dom, arity), _subthorn_of(ran, arity), pairing)


def minimal_bithorn(g: Spheromorphism) -> BiThorn:
    """g's minimal bi-thorn, kept on g as ``g.sources`` keeps its value: g
    is immutable, so a product that the Gram grouping has reduced to test
    for an automorphism is not reduced again when θ reads it."""
    kept = vars(g)
    pair = kept.get("minimal_bithorn")
    if pair is None:
        pair = kept["minimal_bithorn"] = reduce_bithorn(bithorn_of(g))
    return pair


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


_FIRST = itemgetter(0)


class _Side:
    """One side of a bi-thorn: its vertices, its rooted shape text, its
    minimal roots, and the sibling groups of any rooting at one of them,
    from one rerooting pass (``_rooted_texts``).

    Vertices are indexed in address order, so the meet of the side, vertex
    0, comes first and every other vertex after its parent address.
    """

    def __init__(self, t: SubThorn) -> None:
        vertices = sorted(t.vertices)
        self.index = index = {v: i for i, v in enumerate(vertices)}
        parent = [-1] + [index[v[:-1]] for v in vertices[1:]]
        # the side is perfect: spikes fill the directions its edges leave free
        counts = [t.arity + 1] + [t.arity] * (len(vertices) - 1)
        for p in parent[1:]:
            counts[p] -= 1
        # a rooted text starts with its root's spike count, one digit when
        # there are two or more vertices: only the least count can be minimal
        low = min(counts)
        candidates = [v for v, k in enumerate(counts) if k == low]
        # toward[v]: (text of the neighbour's side, neighbour), in text order
        self.toward, rooted = _rooted_texts(parent, counts, candidates)
        self.shape = min(rooted)
        self.roots = [v for v, text in zip(candidates, rooted) if text == self.shape]

    def rooting(self, root: int) -> list:
        """(v, parent, groups) for each vertex, parents first: v's children
        away from root as (subtree size, members, ranked) groups of equal
        text, in text order, with ``ranked`` empty.  The root's parent is
        -1."""
        out: list = [(root, -1, [])]
        for v, up, groups in out:
            last = None
            for text, w in self.toward[v]:
                if w != up:
                    out.append((w, v, []))
                    if text == last:
                        groups[-1][1].append(w)
                    else:
                        groups.append((text.count("("), [w], []))
                        last = text
        return out


class _Passes:
    """The bottom-up passes of every minimal domain root, sharing the
    directed edges they have in common.

    An edge (v, parent) stands for the subtree at v away from its parent
    (away from nothing at a root).  The edges of the first root's pass have
    their vertices' ids, the others the ids after them.  ``edges`` lists
    (id, partners, children's equal-shape groups as edge ids), children
    before parents; ``need[e]`` has bit k set when root k's pass uses edge
    e, and ``tops[k]`` is the edge of root k itself.  ``least`` runs the
    passes of the roots in a bit mask.
    """

    def __init__(self, side: _Side, partners: list[list[int]]) -> None:
        first = side.rooting(side.roots[0])
        self.edges = [
            (v, partners[v], [members for _, members, _ in groups]) for v, _, groups in reversed(first)
        ]
        self.need = [1] * len(partners)
        self.tops = [side.roots[0]]
        parent = [-1] * len(partners)  # in the first rooting, for the others
        if len(side.roots) > 1:
            for v, up, _ in first:
                parent[v] = up
        ids: dict[tuple[int, int], int] = {}  # the edges of no pass before
        for k, root in enumerate(side.roots[1:], 1):
            rooting = side.rooting(root)
            for v, up, groups in reversed(rooting):
                e = v if parent[v] == up else ids.get((v, up))
                if e is None:
                    e = ids[v, up] = len(self.need)
                    kids = [
                        [w if parent[w] == v else ids[w, v] for w in members]
                        for _, members, _ in groups
                    ]
                    self.edges.append((e, partners[v], kids))
                    self.need.append(0)
                self.need[e] |= 1 << k
            self.tops.append(e)
        self.everyone = (1 << len(self.tops)) - 1
        # per mask: the edges its passes use, and (root, its edge) for each root
        self.schedules = {self.everyone: (self.edges, list(enumerate(self.tops)))}

    def least(self, mask: int, place: list[int], top: list) -> tuple[list, list[int]]:
        """The bound of a search node: (least sequence, top of its first
        inexact entry, k) for each root k in the mask, from the edges their
        passes use (``_least``), and the places it was taken from."""
        found = self.schedules.get(mask)
        if found is None:
            edges = [edge for edge in self.edges if self.need[edge[0]] & mask]
            roots = [(k, e) for k, e in enumerate(self.tops) if mask >> k & 1]
            found = self.schedules[mask] = edges, roots
        seq = _least(found[0], len(self.need), place, top)
        return [(*seq[e], k) for k, e in found[1]], place


def _least(schedule: list, size: int, place: list[int], top: list) -> list:
    """Each scheduled edge's least sequence under the places, with the top of
    its first inexact entry, by edge id: the bound of one search node.

    The least sequence below v is the sorted places of v's partners and
    then, group by group, the least sequences of its children in ascending
    order.
    """
    seq: list = [None] * size
    at = place.__getitem__
    for e, near, groups in schedule:
        block = sorted(near, key=at)
        values = list(map(at, block))
        split = None
        for j in block:
            if top[j] is not None:
                split = top[j]
                break
        for group in groups:
            if len(group) == 1:  # a lone child needs no sort
                part, below = seq[group[0]]
                values += part
                if split is None:
                    split = below
                continue
            for part, below in sorted([seq[f] for f in group], key=_FIRST):
                values += part
                if split is None:
                    split = below
        seq[e] = values, split
    return seq


class _Ranking:
    """The range side rooted at one minimal root, with the sibling ranks
    given out so far: ``group[w]`` is (size, members, ranked) of w's group
    when it has more than one member, ``ranked`` growing as ranks are
    given out."""

    def __init__(self, side: _Side, root: int) -> None:
        self.root = root
        self.size = len(side.index)
        self.kids = side.rooting(root)
        self.group = {
            w: group
            for _, _, groups in self.kids
            for group in groups
            if len(group[1]) > 1
            for w in group[1]
        }

    def places(self) -> tuple[list[int], list]:
        """Each vertex's place, a rank not yet given out counting as the
        least one left, and ``top``: the topmost vertex at or above it
        whose rank is open, if any."""
        place = [0] * self.size
        top: list = [None] * self.size
        for v, _, groups in self.kids:
            at = place[v] + 1
            above = top[v]
            for size, members, ranked in groups:
                free = at + len(ranked) * size
                opened = above is None and len(members) - len(ranked) > 1
                for w in members:
                    if w in ranked:
                        place[w] = at + ranked.index(w) * size
                        top[w] = above
                    else:
                        place[w] = free
                        top[w] = w if opened else above
                at += len(members) * size
        return place, top


def _orbit(w: int, generators: list[list[int]]) -> set[int]:
    """The orbit of w under the group the permutations generate."""
    orbit = {w}
    stack = [w]
    while stack:
        x = stack.pop()
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                stack.append(g[x])
    return orbit


class _Search:
    """Branch and bound over range numberings, with the best sequence, the
    numbering that gave it and the range automorphisms found so far."""

    def __init__(self, passes: _Passes, ran: _Side) -> None:
        self.passes = passes
        self.ran = ran
        self.best = [len(ran.index)]  # above every sequence: all places are smaller
        self.best_place: list[int] = []
        self.automorphisms: list[list[int]] = []

    def run(self) -> list[int]:
        starts = []
        for root in self.ran.roots:
            ranking = _Ranking(self.ran, root)
            found = self.passes.least(self.passes.everyone, *ranking.places())
            starts.append((min(found[0], key=_FIRST)[0], root, found, ranking))
        starts.sort(key=itemgetter(0, 1))
        explored: list[int] = []
        for _, root, found, ranking in starts:
            if explored and not _orbit(root, self.automorphisms).isdisjoint(explored):
                continue
            explored.append(root)
            self.descend(ranking, found)
        return self.best

    def descend(self, ranking: _Ranking, found: tuple) -> None:
        """Search below a range root with the bound ``found``, from a stack
        with one entry per split on the current branch, so that deep
        searches need no deep recursion."""
        fixed = [ranking.root]  # the root and the ranks given out
        stack: list = []
        while True:
            node = self.visit(found)
            if node is not None:
                stack.append(self.branches(ranking, *node))
            while stack:  # the next branch, backing up from splits with none left
                found = self.advance(stack[-1], fixed)
                if found is not None:
                    break
                stack.pop()
            else:
                return

    def visit(self, found: tuple) -> tuple[int, int] | None:
        """End a node whose bound reaches the best sequence or holds only
        exact places; otherwise its split and the bit mask of the roots
        whose passes stay below the best sequence."""
        seqs, place = found
        values, split, _ = min(seqs, key=_FIRST)
        if values >= self.best:
            if split is None and values == self.best:
                # the range automorphism taking this numbering to the best one
                inverse = [0] * len(place)
                for w, at in enumerate(self.best_place):
                    inverse[at] = w
                self.automorphisms.append([inverse[at] for at in place])
            return None
        if split is None:
            self.best, self.best_place = values, place
            return None
        return split, sum(1 << k for seq, _, k in seqs if seq < self.best)

    def branches(self, ranking: _Ranking, split: int, live: int) -> tuple:
        """The stack entry of a split: (the group's ranks, the bound of
        giving each open member the next rank under the passes of the roots
        in ``live``, the least bound last, the members taken)."""
        _, members, ranked = ranking.group[split]
        todo = []
        for w in members:
            if w not in ranked:
                ranked.append(w)
                found = self.passes.least(live, *ranking.places())
                todo.append((min(found[0], key=_FIRST)[0], w, found))
                ranked.pop()
        todo.sort(key=itemgetter(0, 1), reverse=True)
        return ranked, todo, []

    def advance(self, entry: tuple, fixed: list[int]) -> tuple | None:
        """Move a split's entry to its next branch: take back the rank of
        the branch searched last, if any, and give the next rank to the next
        member that no automorphism fixing ``fixed`` maps onto a member
        taken.  Its bound, or None when no branch is left."""
        ranked, todo, taken = entry
        if taken:
            ranked.pop()
            fixed.pop()
        while todo:
            _, w, found = todo.pop()
            if taken and self.automorphisms:
                generators = [g for g in self.automorphisms if all(g[x] == x for x in fixed)]
                if generators and not _orbit(w, generators).isdisjoint(taken):
                    continue
            taken.append(w)
            ranked.append(w)
            fixed.append(w)
            return found
        return None


def canonical_coset_code(b: BiThorn) -> CosetCode:
    """The least sorted arc list of (domain place, range place) over numberings.

    Each side comes from one rerooting pass (``_Side``): its subtree texts,
    its minimal roots, and the equal-shape sibling groups of each rooting at
    one of them.  For a fixed range numbering τ the arc lists compare as the
    blocks K(v), the sorted τ-places of v's partners, in domain preorder,
    and the least sequence below v is K(v) and then, group by group, the
    least sequences of its equal-shape children in ascending order: one
    bottom-up pass per minimal domain root, the passes sharing the subtrees
    they have in common (``_Passes``).  τ is fixed by its root and each
    range vertex's rank among its equal-shape siblings, and found by branch
    and bound (McKay and Piperno, "Practical graph isomorphism, II", 2014):
    a rank not yet given out counts as the least one left, which bounds
    places and sequence from below.  One search runs over all minimal range
    roots, in the order of their bounds, with one best sequence.  A branch
    ends when its bound reaches the best sequence or holds only exact
    places, and splits on the topmost open rank above the first inexact
    entry; the splits of the current branch are kept on a stack, not in
    Python frames, so a deep search needs no deep recursion.  It prunes in
    two more ways:

    - by root: fixing a rank only raises places, so a domain root whose own
      pass reaches the best sequence at a node is dropped below it;
    - by automorphism: two leaves with equal sequences differ by an
      automorphism of the bi-thorn, whose range part is recorded.  A range
      root in the orbit of one explored is skipped, and so is a branch that
      the automorphisms fixing the node's root and ranks map onto a branch
      already explored.
    """
    if b.is_empty:
        return trusted(CosetCode, b.arity, EMPTY_CODE_TEXT)
    dom, ran = _Side(b.dom), _Side(b.ran)
    partners: list[list[int]] = [[] for _ in dom.index]
    near, far = dom.index, ran.index
    for s, q in b.pairing:
        partners[near[s[0]]].append(far[q[0]])
    best = _Search(_Passes(dom, partners), ran).run()
    # an arc's domain place is that of its vertex in the shape text's order
    firsts = chain.from_iterable(map(repeat, count(), map(int, _VERTEX_OPEN.findall(dom.shape))))
    arc_text = ",".join(map("{}>{}".format, firsts, best))
    return trusted(CosetCode, b.arity, f"{dom.shape}|{ran.shape}|{arc_text}")


def coset_code(g: Spheromorphism) -> CosetCode:
    """Canonical code of the two-sided automorphism coset of g."""
    return canonical_coset_code(minimal_bithorn(g))
