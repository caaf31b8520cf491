"""Thorns: finite subtrees with stubbed half-edges, and their canonical codes.

A sub-thorn of the tree is a nonempty connected set of vertices together
with a set of spikes, where a spike is a half-edge sticking out of a thorn
vertex toward a neighbor that is not part of the thorn.  Every spike names a
ball: the branch on the far side of its mid-edge.  Disjoint ball families
correspond to sub-thorns, boundary partitions to perfect sub-thorns (every
vertex uses all n+1 directions), and proper clopen sets to reduced sub-thorns
via their partition into maximal sub-balls.

The orbit of a clopen set under the full automorphism group is captured by
the isomorphism class of its reduced thorn, encoded here as a canonical
center-rooted string (``ThornCode``).  Enumerated classes get their texts as
their trees are built; ``_rooted_texts`` builds every other, coset shapes too.
"""

from __future__ import annotations

import binascii
import re
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from math import comb
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, ValidationError
from .tree import (
    ROOT,
    UP,
    Address,
    Ball,
    ClopenSet,
    Spike,
    ball_of_spike,
    check_arity,
    children,
    down,
    format_address,
    neighbors,
    require_disjoint,
    spike_of_ball,
    trusted,
    validate_address,
)


@dataclass(frozen=True)
class SubThorn:
    """An embedded thorn.  The empty thorn has no vertices and no spikes."""

    arity: int
    vertices: frozenset[Address]
    spikes: frozenset[Spike]

    def __post_init__(self) -> None:
        check_arity(self.arity)
        if not self.vertices:
            if self.spikes:
                raise ValidationError("spikes need incident vertices")
            return
        for v in self.vertices:
            validate_address(v, self.arity, "thorn vertex")
        self._check_connected()
        # a vertex has one spike per direction at most and none on an internal
        # edge, so no valence exceeds n+1 and no two spikes share a mid-edge
        for vertex, direction in self.spikes:
            if vertex not in self.vertices:
                raise ValidationError(f"spike at {format_address(vertex)} has no thorn vertex")
            # a plain int, as for address labels: 1.0 and True would pass the range test
            bound = self.arity if not vertex else self.arity - 1
            if type(direction) is not int or not (direction == UP or 0 <= direction <= bound):
                raise ValidationError(
                    f"spike direction {direction!r} is out of range at {format_address(vertex)}"
                )
            if direction == UP and not vertex:
                raise ValidationError("the root has no upward spike")
            if (vertex[:-1] if direction == UP else vertex + (direction,)) in self.vertices:
                raise ValidationError(
                    f"spike at {format_address(vertex)} lies on an internal edge"
                )

    def _check_connected(self) -> None:
        verts = self.vertices
        start = next(iter(verts))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in neighbors(v, self.arity):
                if w in verts and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != verts:
            raise ValidationError("thorn vertices are not connected")

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def internal_edges(self) -> tuple[tuple[Address, Address], ...]:
        out = []
        for v in self.vertices:
            for c in children(v, self.arity):
                if c in self.vertices:
                    out.append((v, c))
        return tuple(sorted(out))

    def balls(self) -> tuple[Ball, ...]:
        return tuple(sorted(ball_of_spike(s) for s in self.spikes))

    @property
    def is_perfect(self) -> bool:
        """Every vertex uses all n+1 directions.  Perfect thorns carry boundary partitions.

        The valences sum to 2(V-1) edge ends plus the spikes and none exceeds
        n+1, so all are n+1 exactly when there are (n-1)V + 2 spikes.
        """
        V = len(self.vertices)
        return V > 0 and len(self.spikes) == (self.arity - 1) * V + 2

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.vertices)), tuple(sorted(self.spikes)))


def empty_subthorn(arity: int) -> SubThorn:
    return SubThorn(arity, frozenset(), frozenset())


def subthorn_from_balls(balls: Sequence[Ball], arity: int) -> SubThorn:
    """The minimal sub-thorn whose spikes are the mid-edges of the given balls.

    The balls must be pairwise disjoint and must not be a two-ball partition
    of the whole boundary (that degenerate partition has a bare mid-edge and
    no vertex, which the SubThorn type cannot carry).
    """
    blist = require_disjoint(sorted(set(balls)), arity)
    if not blist:
        return empty_subthorn(arity)
    if len(blist) == 2 and blist[0].cut == blist[1].cut:
        raise DomainError(
            "a two-ball partition of the whole boundary has no thorn vertex"
        )
    return _subthorn_of(_spanned(map(spike_of_ball, blist)), arity)


def _spanned(spikes: Iterable[Spike]) -> dict[Address, set[int]]:
    """{vertex: spike directions} of the minimal thorn with the given spikes.

    The spikes' balls must be nonempty, pairwise disjoint and not the two
    halves of one mid-edge.  The vertices are the span of the spike anchors:
    every prefix of an anchor at least as long as the meet, the common prefix
    of the least and the greatest anchor.  Each anchor walks up toward the meet
    and stops at the first vertex already present, which is an anchor or lies
    on an earlier walk, so its own stretch up to the meet is walked once.
    """
    spikes_at: dict[Address, set[int]] = {}
    for vertex, direction in spikes:
        spikes_at.setdefault(vertex, set()).add(direction)
    anchors = tuple(spikes_at)
    low, high = min(anchors), max(anchors)
    meet = 0
    while meet < len(low) and meet < len(high) and low[meet] == high[meet]:
        meet += 1
    for a in anchors:
        for k in range(len(a) - 1, meet - 1, -1):
            if a[:k] in spikes_at:
                break
            spikes_at[a[:k]] = set()
    return spikes_at


def _subthorn_of(spikes_at: dict[Address, set[int]], arity: int) -> SubThorn:
    spikes = frozenset((v, d) for v, dirs in spikes_at.items() for d in dirs)
    return trusted(SubThorn, arity, frozenset(spikes_at), spikes)


def reduce_subthorn(t: SubThorn) -> SubThorn:
    """Cut mergeable boundary vertices until none remain.

    A vertex whose n spikes exhaust every direction but the one left for the
    rest of the thorn stands for n balls that merge into a single ball one
    edge further out; the cut replaces them by that ball's spike.  A lone
    vertex with all n+1 spikes is a partition of the whole boundary and
    reduces to the empty thorn.
    """
    return _subthorn_of(_reduce(_spike_dirs(t), t.arity), t.arity)


def _spike_dirs(t: SubThorn) -> dict[Address, set[int]]:
    """{vertex: spike directions} of a sub-thorn, vertices in address order."""
    spikes_at: dict[Address, set[int]] = {v: set() for v in sorted(t.vertices)}
    for v, d in t.spikes:
        spikes_at[v].add(d)
    return spikes_at


def _skeleton(
    spikes_at: dict[Address, set[int]], arity: int
) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
    """(skeleton adjacency, spike counts) of {vertex: spike directions},
    vertices numbered in address order, which is parent first."""
    order = sorted(spikes_at)
    index = {v: i for i, v in enumerate(order)}
    adjacency = tuple(frozenset(index[w] for w in neighbors(v, arity) if w in index) for v in order)
    return adjacency, tuple(len(spikes_at[v]) for v in order)


def _reduce(spikes_at: dict[Address, set[int]], arity: int) -> dict[Address, set[int]]:
    """The moves of ``reduce_subthorn`` on {vertex: spike directions}, in place.

    In a thorn of two or more vertices, the one direction a vertex with n
    spikes leaves free is its one internal edge.  The empty thorn comes back
    as an empty dict.  The moves are confluent, so their order does not
    matter.
    """
    pending = [v for v, dirs in spikes_at.items() if len(dirs) == arity]
    while pending and len(spikes_at) > 1:
        w, back = _across(pending.pop(), spikes_at, arity)
        dirs = spikes_at[w]
        dirs.add(back)
        if len(dirs) == arity:
            pending.append(w)
    if len(spikes_at) == 1:
        ((v, dirs),) = spikes_at.items()
        if len(dirs) == arity + 1:
            return {}
        if len(dirs) == arity:
            w, back = _across(v, spikes_at, arity)
            return {w: {back}}
    return spikes_at


def _across(v: Address, spikes_at: dict[Address, set[int]], arity: int) -> tuple[Address, int]:
    """Pop v, whose spikes use every direction but one; return the neighbour
    across that direction and the direction from it back to v."""
    used = spikes_at.pop(v)
    for d in range(arity) if v else range(arity + 1):
        if d not in used:
            return v + (d,), UP
    return v[:-1], v[-1]


# ---------------------------------------------------------------------------
# abstract thorns and canonical codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractThorn:
    """A thorn up to embedding: skeleton adjacency plus spike counts.

    The library builds these only from parsed code texts, so the
    constructor checks nothing.  The vertices are numbered in text order,
    which is parent first: each vertex but 0 has one earlier neighbour.
    """

    arity: int
    adjacency: tuple[frozenset[int], ...]
    spike_counts: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def spike_count(self) -> int:
        return sum(self.spike_counts)


EMPTY_CODE_TEXT = "E"


@dataclass(frozen=True)
class ThornCode:
    """Canonical isomorphism-class code of a thorn.

    The text is a center-rooted serialization where every vertex contributes
    ``(k:...)`` with k its spike count and the child blocks sorted; two
    thorns get the same text exactly when they are isomorphic.
    """

    arity: int
    text: str

    def __post_init__(self) -> None:
        check_arity(self.arity)
        _ = self._model  # parsing validates the text

    @property
    def token(self) -> str:
        return f"{self.arity}x" + binascii.hexlify(self.text.encode("ascii")).decode("ascii")

    @staticmethod
    def from_token(token: str) -> "ThornCode":
        return ThornCode(*decode_token(token, "x", "thorn code"))

    @property
    def is_empty(self) -> bool:
        return self.text == EMPTY_CODE_TEXT

    @cached_property
    def _model(self) -> tuple[AbstractThorn, int]:
        """(representative abstract thorn, skeleton diameter), parsed once."""
        adjacency, counts, diameter = _parse_code(self.text, self.arity)
        return AbstractThorn(self.arity, adjacency, counts), diameter

    @property
    def vertex_count(self) -> int:
        """One ``(`` per vertex, read off the text with no parse."""
        return self.text.count("(")

    @property
    def spike_count(self) -> int:
        """The sum of the k in each ``(k:``, read off the text with no parse."""
        return sum(map(int, _VERTEX_OPEN.findall(self.text)))

    @property
    def diameter(self) -> int:
        """Skeleton diameter in edges (0 for at most one vertex)."""
        return self._model[1]

    def residue(self) -> int:
        return self.spike_count % (self.arity - 1)


def decode_token(token: str, sep: str, what: str) -> tuple[int, str]:
    """(arity, text) of a ``<arity><sep><hex of text>`` token."""
    try:
        arity_part, hex_part = token.split(sep, 1)
        if not _INTEGER.fullmatch(arity_part):
            raise ValueError(f"arity {arity_part!r} is not an integer")
        return int(arity_part), binascii.unhexlify(hex_part.encode("ascii")).decode("ascii")
    except (ValueError, binascii.Error) as err:
        raise ValidationError(f"bad {what} token {token!r}: {err}") from None


# int() alone admits other scripts' digits, a plus sign and underscores
_INTEGER = re.compile(r"-?[0-9]+")
_VERTEX_OPEN = re.compile(r"\(([0-9]+):")


def _parse_code(text: str, arity: int) -> tuple[tuple[frozenset[int], ...], tuple[int, ...], int]:
    """Validate a code text; return (adjacency, spike counts, skeleton diameter).

    Vertices are numbered in text order, and none may exceed valence n+1.
    The parse keeps its open vertices on a list, so nesting depth is not
    bounded by the interpreter's recursion limit.
    """
    if text == EMPTY_CODE_TEXT:
        return (), (), 0
    adjacency: list[set[int]] = []
    counts: list[int] = []
    # per open vertex: [index, tallest child height, second tallest, diameter]
    open_vertices: list[list[int]] = []
    pos = 0
    while True:
        opening = _VERTEX_OPEN.match(text, pos)
        if opening is None:
            raise ValidationError(f"bad thorn code text {text!r} at {pos}")
        pos = opening.end()
        me = len(adjacency)
        adjacency.append(set())
        if open_vertices:
            parent = open_vertices[-1][0]
            adjacency[parent].add(me)
            adjacency[me].add(parent)
        counts.append(int(opening.group(1)))
        open_vertices.append([me, 0, 0, 0])
        while text.startswith(")", pos):
            pos += 1
            me, h1, h2, diam = open_vertices.pop()
            if len(adjacency[me]) + counts[me] > arity + 1:
                raise ValidationError(f"vertex {me} of {text!r} exceeds valence {arity + 1}")
            diam = max(diam, h1 + h2)
            if not open_vertices:
                if pos != len(text):
                    raise ValidationError(f"trailing junk in thorn code text {text!r}")
                return tuple(frozenset(a) for a in adjacency), tuple(counts), diam
            up_one = open_vertices[-1]
            h1 += 1
            if h1 > up_one[1]:
                up_one[1], up_one[2] = h1, up_one[1]
            elif h1 > up_one[2]:
                up_one[2] = h1
            up_one[3] = max(up_one[3], diam)
        if not text.startswith("(", pos):
            raise ValidationError(f"bad thorn code text {text!r} at {pos}")


def canonical_code(t: SubThorn) -> ThornCode:
    """Center-rooted canonical code of any sub-thorn, reduced or not; equal
    codes mean isomorphic thorns.  Clopen sets and ball unions are
    classified by ``classify_clopen`` and ``classify_balls``, which reduce
    first."""
    if not isinstance(t, SubThorn):
        raise DomainError("canonical_code expects a sub-thorn")
    return trusted(ThornCode, t.arity, _reduced_text(_spike_dirs(t), t.arity))


def _center_rooted_text(
    adjacency: Sequence[Iterable[int]], spike_counts: Sequence[int]
) -> str:
    """Least rooted text over the skeleton centers: the canonical code text.
    Numbered parent first, a vertex's parent is its least neighbour."""
    parent = [-1] + [min(nbrs) for nbrs in adjacency[1:]]
    return min(_rooted_texts(parent, spike_counts, _skeleton_centers(adjacency))[1])


def _skeleton_centers(adjacency: Sequence[frozenset[int]]) -> list[int]:
    V = len(adjacency)
    if V == 1:
        return [0]
    degree = [len(a) for a in adjacency]
    alive = set(range(V))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
        for v in layer:
            for w in adjacency[v]:
                if w in alive:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(alive)


def _rooted_texts(
    parent: Sequence[int], spike_counts: Sequence[int], roots: Sequence[int]
) -> tuple[list[list[tuple[str, int]]], list[str]]:
    """The rooted texts of a given skeleton, from one rerooting pass; class
    enumeration builds its texts as it builds its trees (``_class_texts``).

    The vertices are numbered parent first: ``parent[v] < v`` for every v
    but 0, and ``parent[0]`` is -1.  A rooted text is ``(k:`` with k the
    spike count of its vertex, the sorted texts of the vertex's subtrees,
    then ``)``; equal texts mean isomorphic rooted subtrees (Aho, Hopcroft
    and Ullman).  The pass builds each subtree's text away from its parent,
    children first, then, parents first, the text of the rest of the thorn
    seen from each vertex on the paths from the roots up to vertex 0, cut
    out of its parent's whole text.

    Returns ``toward`` and the whole text rooted at each of ``roots``.
    ``toward[v]`` lists (text of the side of neighbour w away from v, w),
    sorted; it holds every neighbour of vertex 0 and of the vertices on
    those paths, and only the children of any other vertex, which is all a
    rooting at one of the roots reads.
    """
    V = len(spike_counts)
    heads = [f"({k}:" for k in spike_counts]
    toward: list[list[tuple[str, int]]] = [[] for _ in range(V)]
    for w in range(V - 1, 0, -1):
        near = toward[w]
        near.sort()
        toward[parent[w]].append((heads[w] + "".join([text for text, _ in near]) + ")", w))
    toward[0].sort()
    on_path = [False] * V
    for v in roots:
        while v and not on_path[v]:
            on_path[v] = True
            v = parent[v]
    whole = [""] * V
    for v, near in enumerate(toward):
        if v and not on_path[v]:
            continue
        whole[v] = heads[v] + "".join([text for text, _ in near]) + ")"
        at = len(heads[v])
        for text, w in near:
            if on_path[w] and w != parent[v]:  # v's side seen from w
                insort(toward[w], (whole[v][:at] + whole[v][at + len(text) :], v))
            at += len(text)
    return toward, [whole[r] for r in roots]


def abstract_from_code(code: ThornCode) -> AbstractThorn:
    """A representative abstract thorn of a code, vertices in text order,
    kept from the code's one parse."""
    return code._model[0]


# ---------------------------------------------------------------------------
# classification of clopen sets
# ---------------------------------------------------------------------------


def maximal_ball_thorn(omega: ClopenSet) -> SubThorn:
    """Reduced sub-thorn of the partition of omega into maximal sub-balls."""
    spikes_at = _spanned(spike_of_ball(down(leaf)) for leaf in omega.marked_leaves())
    return _subthorn_of(_reduce(spikes_at, omega.arity), omega.arity)


def classify_clopen(omega: ClopenSet) -> ThornCode:
    """Orbit invariant of a proper clopen set: the code of its reduced thorn.

    The marked leaves of the normal form are disjoint balls whose union is
    omega, so this is ``classify_balls`` of them, the classifier θ uses.
    """
    if not isinstance(omega, ClopenSet):
        raise DomainError("classification needs a proper nonempty clopen set")
    balls = (down(leaf) for leaf in omega.marked_leaves())
    return trusted(ThornCode, omega.arity, classify_balls(balls, omega.arity))


def classify_balls(balls: Iterable[Ball], arity: int) -> str:
    """Code text of the reduced thorn of a union of balls, whatever its shape.

    Works on {vertex: spike directions}: no thorn, abstract thorn or clopen
    object is built and nothing is validated.  The balls must be pairwise
    disjoint and must not be the two halves of one mid-edge.  A partition of
    the whole boundary gives the empty code text.  θ works on the balls'
    spikes, reduces first and encodes only shapes that several classes
    share, through ``classify_spikes_among``.
    """
    return _reduced_text(_reduce(_spanned(map(spike_of_ball, balls)), arity), arity)


def classify_spikes_among(
    spikes: Iterable[Spike], arity: int, by_shape: Mapping[tuple[int, int], int | Mapping[str, int]]
) -> int:
    """The index of the class of the spikes' balls among some indexed
    classes, 0 for any other, with a text built only where the shape leaves
    the class open.  ``by_shape`` maps the (vertex count, spike count) of
    the reduced thorn to the index of the one class with that shape, or,
    where several classes share it (``_shape_is_shared``), to the indices
    of the indexed ones by code text; a shape it lacks belongs to no
    indexed class.  Codes of one class share their shape.  θ calls this
    once per orbit of candidates (``_embeddings``): swapping free branches
    at a candidate's vertices outside the bi-thorn side commutes with the
    element up to an automorphism, so every member has the
    representative's classes."""
    spikes_at = _reduce(_spanned(spikes), arity)
    index = by_shape.get((len(spikes_at), sum(map(len, spikes_at.values()))), 0)
    if isinstance(index, int):
        return index
    return index.get(_reduced_text(spikes_at, arity), 0)


def _reduced_text(spikes_at: dict[Address, set[int]], arity: int) -> str:
    """Code text of a {vertex: spike directions}, empty or not; classifiers
    pass it reduced."""
    if not spikes_at:
        return EMPTY_CODE_TEXT
    return _center_rooted_text(*_skeleton(spikes_at, arity))


def class_code_defect(code: ThornCode) -> str | None:
    """Why a code cannot arise from ``classify_clopen``; None if it can.

    Classification outputs are exactly the canonical codes of nonempty,
    non-perfect, reduced thorns whose skeleton leaves all carry a spike:
    maximal-ball thorns have spiked leaves (every leaf anchors a ball) and
    reduction keeps that, while conversely any such thorn embeds so that its
    spike balls are exactly the maximal balls of their union.
    """
    if code.is_empty:
        return "the empty code"
    t = abstract_from_code(code)
    defect = _shape_defect(tuple(len(nbrs) for nbrs in t.adjacency), t.spike_counts, code.arity)
    if defect is None and _center_rooted_text(t.adjacency, t.spike_counts) != code.text:
        return "the text is not in canonical center-rooted form"
    return defect


def _shape_defect(degs: Sequence[int], counts: Sequence[int], arity: int) -> str | None:
    """Why skeleton degrees and spike counts fit no orbit class; None if they fit.

    Every test here depends only on the multiset of (degree, count) pairs.
    """
    if not any(counts):
        return "it has no spikes"
    if all(d + k == arity + 1 for d, k in zip(degs, counts)):
        return "it is perfect (a partition of the whole boundary)"
    if any(k == arity and d <= 1 for d, k in zip(degs, counts)):
        return "it is not reduced"
    if len(degs) >= 2 and any(d == 1 and k == 0 for d, k in zip(degs, counts)):
        return "it has a bare skeleton leaf"
    return None


def require_class_code(code: ThornCode) -> ThornCode:
    defect = class_code_defect(code)
    if defect is not None:
        # a code text grows with its vertex count; quote only its start
        text = code.text if len(code.text) <= 60 else code.text[:60] + "..."
        raise ValidationError(
            f"code {text!r} ({code.vertex_count} vertices) is not an orbit class: {defect}"
        )
    return code


def check_sector(arity: int, iota: int) -> None:
    """Reject a bad arity, or a residue outside 0 .. n-2."""
    check_arity(arity)
    if not 0 <= iota <= arity - 2:
        raise ValidationError(f"residue {iota} is out of range for arity {arity}")


def enumerate_class_codes(arity: int, iota: int, max_vertices: int) -> tuple[ThornCode, ...]:
    """All orbit-class codes of the residue sector with at most V vertices,
    sorted by (vertex count, spike count, text), each built once and already
    canonical (``_class_texts``), as Beyer and Hedetniemi (SIAM J. Comput. 9,
    1980) generate rooted trees and Wright, Richmond, Odlyzko and McKay (SIAM
    J. Comput. 15, 1986) free ones.  A skeleton leaf, or a lone vertex, takes
    1 .. n-1 spikes: 0 would leave it bare (or the thorn spikeless), n
    unreduced and n+1 perfect; any other vertex takes 0 .. n+1-d, with d its
    degree.  So every class passes ``_shape_defect``, which is not run.
    """
    check_sector(arity, iota)
    if max_vertices < 1:
        raise ValidationError("class enumeration needs at least one vertex")
    found = sorted(_class_texts(arity, iota, max_vertices))
    return tuple(trusted(ThornCode, arity, text) for _, _, text in found)


def _class_texts(arity: int, iota: int, max_vertices: int) -> list[tuple[int, int, str]]:
    """(vertex count, spike count, code text) of each class once, unsorted.

    A planted subtree of height h is a spike count and a multiset of lower
    subtrees, one at least of height h-1, picked in text order so that their
    texts come sorted, and has at most max_vertices - h - 1 vertices, since a
    subtree of height h or more lies beside it.  A centre has two or more
    children of the top height; a bicentre edge joins two of one height.
    """
    n, step = arity, arity - 1
    found = [(1, k, f"({k}:)") for k in range(1, n) if k % step == iota]
    # (text, vertices, spikes, root spike count, child texts); a leaf takes 1 .. n-1
    level = [(f"({k}:)", 1, k, k, ()) for k in range(1, n)]
    pool: list[tuple[str, int, int, int]] = []  # (text, vertices, spikes, height), by text
    height = 0
    while level:
        for i, (a, Va, Sa, ka, kids_a) in enumerate(level):
            for b, Vb, Sb, kb, kids_b in level[i:]:
                if Va + Vb <= max_vertices and (Sa + Sb) % step == iota:
                    at_a = f"({ka}:{''.join(sorted((*kids_a, b)))})"
                    at_b = f"({kb}:{''.join(sorted((*kids_b, a)))})"
                    found.append((Va + Vb, Sa + Sb, min(at_a, at_b)))
        pool = sorted(pool + [(text, V, S, height) for text, V, S, _, _ in level])
        height += 1
        # a root with c <= n children takes 0 .. n-c spikes, a centre 0 .. n+1-c
        level = [
            (f"({k}:{''.join(kids)})", V + 1, S + k, k, kids)
            for kids, V, S, top, _ in _picks(pool, 0, n, max_vertices - height - 2)
            if top == height - 1
            for k in range(n + 1 - len(kids))
        ]
    for kids, V, S, _, tops in _picks(pool, 0, n + 1, max_vertices - 1):
        spikes = range((iota - S) % step, n + 2 - len(kids), step) if tops >= 2 else ()
        found += [(V + 1, S + k, f"({k}:{''.join(kids)})") for k in spikes]
    return found


def _picks(pool: Sequence[tuple], start: int, most: int, budget: int) -> Iterator[tuple]:
    """Each multiset of 1 .. most pool members from ``start`` on, of at most ``budget``
    vertices, once, in pool order: (texts, vertices, spikes, top height, how many have it)."""
    for i in range(start, len(pool)):
        text, V, S, h = pool[i]
        if V <= budget:
            yield (text,), V, S, h, 1
            for kids, V2, S2, h2, tops in _picks(pool, i, most - 1, budget - V) if most > 1 else ():
                if h2 < h:
                    h2, tops = h, 0
                yield (text, *kids), V + V2, S + S2, h2, tops + (h2 == h)


def _shape_is_shared(arity: int, vertex_count: int, spike_count: int) -> bool:
    """Whether several orbit classes have V vertices and S spikes, for a
    shape that some class has; no class is enumerated.

    By the leaf rule of ``enumerate_class_codes`` a tree on V >= 2 vertices
    with L leaves takes every spike count from L to (n-1)V + 2 - L: at most
    n-1 at a leaf and n+1-d at a vertex of degree d, and the degrees add up
    to 2V - 2.  From four vertices on, the path (L = 2) and a tree with
    three leaves both take every count strictly between 2 and (n-1)V, which
    gives two classes; S = 2 and S = (n-1)V leave the path alone, with every
    count at its least or at its most.  Below four vertices the path is the
    only tree, and its counts are told apart up to reversal: one count per
    end in 1 .. n-1, and on three vertices one in 0 .. n-1 between them.  A
    lone vertex takes all S spikes.  The residue S mod (n-1) is the same for
    every class of one shape.
    """
    n, V, S = arity, vertex_count, spike_count
    if V == 1:
        return False
    if V >= 4:
        return 2 < S < (n - 1) * V
    between = range(n) if V == 3 else range(1)
    return sum(S - a - b in between for a in range(1, n) for b in range(a, n)) > 1


# ---------------------------------------------------------------------------
# embedding enumeration
# ---------------------------------------------------------------------------


def enumerate_embeddings(pattern: ThornCode, region: SubThorn) -> tuple[SubThorn, ...]:
    """All reduced sub-thorns of the given class sharing a vertex with the region.

    The pattern must be an orbit-class code of the region's arity
    (``class_code_defect``), or ``DomainError`` is raised; ``_embeddings``
    describes the listing, and ``_orbit`` gives back the thorns each of its
    representatives stands for.  The thorns come sorted by
    ``SubThorn.sort_key``.
    """
    if pattern.arity != region.arity:
        raise DomainError("pattern and region arity differ")
    if region.is_empty:
        return ()
    if pattern.is_empty:
        raise DomainError("cannot embed the empty pattern")
    defect = class_code_defect(pattern)
    if defect is not None:
        raise DomainError(f"cannot embed {pattern.text!r}: {defect}")
    # every skeleton leaf of a class thorn carries a spike, so the span of
    # the spike anchors is the whole vertex set
    found = (
        _subthorn_of(_spanned(member), region.arity)
        for spikes, _ in _embeddings(pattern, region)
        for member in _orbit(spikes, region)
    )
    return tuple(sorted(found, key=SubThorn.sort_key))


def _embeddings(pattern: ThornCode, region: SubThorn) -> list[tuple[tuple[Spike, ...], int]]:
    """``enumerate_embeddings`` without its checks, for an orbit-class code
    of the region's arity, such as a tracked class of a ``ClassTable``, and
    one thorn per symmetry orbit: (spikes of a representative, in no
    particular order, and the size of its orbit), and no ``SubThorn``.

    The pattern is placed vertex by vertex in the order of its code text,
    which roots it at vertex 0, a centre, and lists each vertex after its
    parent.  A child goes to a neighbour of its parent's image other than
    the grandparent's image, so every placement embeds the skeleton.  Each
    thorn is built once: equal sibling subtrees sit next to each other in the
    text and take increasing addresses, and when the texts rooted at the two
    centres of a bicentre are equal, the other centre takes the larger
    address.

    No vertex lies further from vertex 0 than the pattern's height from it,
    so vertex 0 goes only to vertices within that height of the region, and
    a placement that misses the region is dropped before its spikes are
    chosen.

    For θ the region is one side of a minimal bi-thorn, which is perfect.
    A connected thorn with no vertex in it then lies beyond one spike
    mid-edge of it, in a half-tree that the element carries isometrically
    onto the matched half-tree; the thorn's one ball that holds the rest of
    the tree goes to the complement of the image of its complement, so its
    class cannot change, and thorns that merely touch the region at a
    mid-edge need not be listed.

    The same half-trees make the spikes at a vertex x outside the region
    interchangeable.  The thorn is connected and meets the region, so x's
    edge toward the region is internal, and every free direction at x leads
    into the one half-tree beyond a spike of the region that holds x.  A
    swap α of two free branches at x fixes the region and the thorn's
    vertices, and an element h that carries that half-tree isometrically
    onto its match satisfies h∘α = α′∘h, with α′ the matching swap there.
    So α maps a candidate to a candidate, and h maps the two to sets of one
    class, whatever the classes before and after.  The spikes at x take the
    first k of its f free directions, and the thorn stands for the
    ∏ C(f, k) thorns that choose them otherwise; at a vertex of the region
    every choice is listed.
    """
    arity = pattern.arity
    model = abstract_from_code(pattern)
    adjacency, counts = model.adjacency, model.spike_counts
    V = len(adjacency)
    # text order is a preorder: a vertex's one smaller neighbour is its parent
    parent = [-1] + [min(nbrs) for nbrs in adjacency[1:]]
    centre_nbrs = sorted(adjacency[0])
    toward, rooted = _rooted_texts(parent, counts, [0, *centre_nbrs])
    # above[v]: the vertex whose image v's image must exceed, if any
    above: list[int | None] = [None] * V
    for v, near in enumerate(toward):
        kids = [(text, w) for text, w in near if w != parent[v]]  # in text order
        for (a_text, a), (b_text, b) in zip(kids, kids[1:]):
            if a_text == b_text:
                above[b] = a
    for w, text in zip(centre_nbrs, rooted[1:]):
        if text == rooted[0]:
            above[w] = 0
    region_verts = region.vertices
    image: list[Address] = [ROOT] * V
    results = []

    def add_spikes() -> None:
        verts = frozenset(image)
        if verts.isdisjoint(region_verts):
            return
        pools = []
        weight = 1
        for x, k in zip(image, counts):
            free = _free(x, verts, arity)
            if x in region_verts:
                pools.append(list(combinations(free, k)))
            else:
                pools.append((free[:k],))
                weight *= comb(len(free), k)
        results.extend((tuple(chain.from_iterable(pick)), weight) for pick in product(*pools))

    def place(v: int) -> None:
        if v == V:
            add_spikes()
            return
        p = parent[v]
        back = image[parent[p]] if p else None
        low = image[above[v]] if above[v] is not None else None
        for y in neighbors(image[p], arity):
            if y == back or (low is not None and y <= low) or y in image[p + 1 : v]:
                continue
            image[v] = y
            place(v + 1)

    # the height from a centre is the radius, half the diameter rounded up
    for root in _ball_of_vertices(region_verts, (pattern.diameter + 1) // 2, arity):
        image[0] = root
        place(1)
    del place  # it calls itself through its closure; the cycle would outlive this call
    return results


def _free(x: Address, verts: Container[Address], arity: int) -> list[Spike]:
    """The spikes a thorn on ``verts`` may have at its vertex x, one per
    direction that does not lead to another of its vertices."""
    free = [(x, d) for d in (range(arity) if x else range(arity + 1)) if x + (d,) not in verts]
    if x and x[:-1] not in verts:
        free.append((x, UP))
    return free


def _orbit(spikes: Sequence[Spike], region: SubThorn) -> Iterator[tuple[Spike, ...]]:
    """The spikes of every thorn that a representative from ``_embeddings``
    stands for, itself included: at each vertex outside the region, its k
    spikes go to every k of the vertex's free directions."""
    arity = region.arity
    spikes_at = _spanned(spikes)
    kept: list[Spike] = []
    pools = []
    for x, dirs in spikes_at.items():
        if x in region.vertices:
            kept += [(x, d) for d in dirs]
        else:
            pools.append(combinations(_free(x, spikes_at, arity), len(dirs)))
    for pick in product(*pools):
        yield (*kept, *chain.from_iterable(pick))


def _ball_of_vertices(seeds: Iterable[Address], radius: int, arity: int) -> set[Address]:
    out = set(seeds)
    frontier = set(out)
    for _ in range(radius):
        nxt = set()
        for v in frontier:
            for w in neighbors(v, arity):
                if w not in out:
                    out.add(w)
                    nxt.add(w)
        frontier = nxt
    return out
