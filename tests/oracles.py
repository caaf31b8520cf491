"""Reference helpers that only the tests need, kept apart from the library."""

import math
import random
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from spherotree.bithorn import BiThorn, CosetCode, empty_bithorn, minimal_bithorn
from spherotree.element import (
    Spheromorphism,
    _act_on_spike,
    act_on_ball,
    act_on_clopen,
    compose,
    finitary_automorphism,
    from_pieces,
    invert,
)
from spherotree.errors import DomainError, InternalError, ValidationError
from spherotree.orbitstats import ClassTable, TransitionCounts, _counts
from spherotree.spherical import symmetric_eigenvalues
from spherotree.thorn import (
    EMPTY_CODE_TEXT,
    UP,
    AbstractThorn,
    Spike,
    SubThorn,
    ThornCode,
    _embeddings,
    _free_trees,
    _orbit,
    _shape_defect,
    _skeleton,
    _spike_dirs,
    abstract_from_code,
    classify_balls,
    classify_spikes_among,
    maximal_ball_thorn,
)
from spherotree.tree import (
    Address,
    Ball,
    ClopenSet,
    all_words,
    ball_of_spike,
    balls_disjoint,
    children,
    common_refinement,
    down,
    format_address,
    is_prefix,
    neighbors,
    spike_of_ball,
    trusted,
    up,
)


def ball_contains_word(ball: Ball, word: Address) -> bool:
    """Membership of the cylinder of ``word`` in a ball; the word must not be
    shorter than the cut."""
    if len(word) < len(ball.cut):
        raise DomainError(f"word {format_address(word)} is shorter than the cut of {ball.text()}")
    return is_prefix(ball.cut, word) != ball.up


def ball_relation(a: Ball, b: Ball) -> str:
    """How two balls sit relative to each other.

    Returns one of 'equal', 'subset', 'superset', 'disjoint' or 'cocover'.
    Balls are never in general position: they are nested, disjoint, or they
    jointly cover the whole boundary ('cocover', equivalently the complements
    are disjoint).
    """
    if a == b:
        return "equal"
    if not a.up and not b.up:
        if is_prefix(b.cut, a.cut):
            return "subset"
        if is_prefix(a.cut, b.cut):
            return "superset"
        return "disjoint"
    if a.up and b.up:
        if is_prefix(a.cut, b.cut):
            return "subset"
        if is_prefix(b.cut, a.cut):
            return "superset"
        return "cocover"
    if not a.up and b.up:
        if is_prefix(b.cut, a.cut):
            return "disjoint"
        if is_prefix(a.cut, b.cut):
            return "cocover"
        return "subset"
    rel = ball_relation(b, a)
    return {"subset": "superset", "superset": "subset"}.get(rel, rel)


def complement(omega: ClopenSet) -> ClopenSet:
    """The complementary clopen set, on the same carrier."""
    return ClopenSet(omega.arity, omega.carrier, frozenset(set(omega.carrier) - omega.marks))


def depth_members(omega: ClopenSet, depth: int) -> frozenset[Address]:
    """All depth-``depth`` words inside the set."""
    if depth < omega.depth():
        raise DomainError(f"depth {depth} is below the carrier depth {omega.depth()}")
    out = set()
    for leaf in omega.marked_leaves():
        tails = [()]
        for _ in range(depth - len(leaf)):
            tails = [tail + (c,) for tail in tails for c in range(omega.arity)]
        out.update(leaf + tail for tail in tails)
    return frozenset(out)


def rooted_encoder(
    adjacency: Sequence[Iterable[int]], spike_counts: Sequence[int]
) -> Callable[..., str]:
    """The library's former rooted encoder, memoised (Aho-Hopcroft-Ullman
    style), kept as the reference for ``thorn._rooted_texts``; it takes any
    numbering of the vertices.

    ``text(v, parent)`` is the canonical text of the subtree at v on the far
    side of the edge to ``parent`` (the whole thorn rooted at v when parent
    is None): ``(k:`` with k the spike count of v, the sorted texts of its
    children, then ``)``.  Equal texts mean isomorphic rooted subtrees.
    """
    memo: dict[tuple[int, int | None], str] = {}

    def text(v: int, parent: int | None = None) -> str:
        found = memo.get((v, parent))
        if found is not None:
            return found
        # breadth-first list of the directed edges not yet encoded; reversed,
        # it has every child edge before its parent's
        order = [(v, parent)]
        for u, p in order:
            for w in adjacency[u]:
                if w != p and (w, u) not in memo:
                    order.append((w, u))
        for u, p in reversed(order):
            kids = [memo[w, u] for w in adjacency[u] if w != p]
            kids.sort()
            memo[u, p] = f"({spike_counts[u]}:{''.join(kids)})"
        return memo[v, parent]

    return text


def skeleton_centres(adjacency: Sequence[Iterable[int]]) -> list[int]:
    """The vertices of least eccentricity, by a breadth-first search from
    each vertex."""
    eccentricity = []
    for start in range(len(adjacency)):
        dist = {start: 0}
        frontier = [start]
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        eccentricity.append(max(dist.values()))
    return [v for v, e in enumerate(eccentricity) if e == min(eccentricity)]


def reference_code_text(
    adjacency: Sequence[Iterable[int]], spike_counts: Sequence[int], centres: Sequence[int] | None = None
) -> str:
    """The canonical code text by the reference encoder, for any numbering:
    the least text rooted at a skeleton centre.  Callers that encode one
    skeleton under many spike vectors pass its centres."""
    text = rooted_encoder(adjacency, spike_counts)
    return min(map(text, skeleton_centres(adjacency) if centres is None else centres))


def _subthorn_model(t: SubThorn) -> AbstractThorn:
    """The skeleton of a sub-thorn with its spike counts, vertices numbered
    in address order, which is parent first."""
    return AbstractThorn(t.arity, *_skeleton(_spike_dirs(t), t.arity))


def subthorn_route_code(omega: ClopenSet) -> ThornCode:
    """``classify_clopen`` by its former route: the reduced maximal-ball
    ``SubThorn``, renumbered in address order as an ``AbstractThorn``, then
    encoded from its centre by the reference encoder, where the library now
    encodes the reduced {vertex: spike directions} directly."""
    t = _subthorn_model(maximal_ball_thorn(omega))
    return ThornCode(omega.arity, reference_code_text(t.adjacency, t.spike_counts))


def random_finitary(rng: random.Random, arity: int) -> Spheromorphism:
    """A random automorphism: root branches permuted, up to two deeper swaps."""
    rp = list(range(arity + 1))
    rng.shuffle(rp)
    perms = {}
    for _ in range(rng.randint(0, 2)):
        vertex = (rng.randrange(arity + 1),) + tuple(
            rng.randrange(arity) for _ in range(rng.randint(0, 1))
        )
        p = list(range(arity))
        rng.shuffle(p)
        perms[vertex] = p
    return finitary_automorphism(arity, rp, perms)


def axis_translation(arity: int) -> Spheromorphism:
    """The automorphism that moves every vertex one edge along the axis from
    the branch ``n`` through the root into the branch ``0``: the root goes
    to ``0``, ``0`` to ``00``, each other root branch ``i`` to ``0i`` and
    the children of ``n`` to the root branches ``1`` .. ``n``."""
    pieces = [((0,), (0, 0))] + [((i,), (0, i)) for i in range(1, arity)]
    pieces += [((arity, c), (c + 1,)) for c in range(arity)]
    return from_pieces(arity, pieces)


def witness_nonautomorphism() -> Spheromorphism:
    """A 4-piece element of arity 2 outside the automorphism subgroup.

    It tears the ball under 0 apart: the image of Down(0) is the union of
    Down(0) and Down(20), which is not a ball.
    """
    return from_pieces(
        2,
        [((0, 0), (0,)), ((0, 1), (2, 0)), ((1,), (1,)), ((2,), (2, 1))],
    )


def witness_translation() -> Spheromorphism:
    """A hyperbolic translation of arity 2: an automorphism moving the root.

    The table has pieces of unequal depth displacement, so it is not
    finitary, yet every ball still maps to a ball.
    """
    return from_pieces(
        2,
        [
            ((0, 0), (0, 0, 0)),
            ((0, 1), (0, 0, 1)),
            ((1, 0), (2,)),
            ((1, 1, 0), (1, 0)),
            ((1, 1, 1), (1, 1)),
            ((2,), (0, 1)),
        ],
    )


def preserves_all_balls(g: Spheromorphism) -> bool:
    """Independent automorphism oracle: every ball maps to a ball, both ways.

    Cuts deeper than the table act literally, so checking every cut down to
    two levels below the table depth decides the property for all balls.
    A map sending balls to balls bijectively is induced by a tree isomorphism
    (balls are mid-edges; inclusion recovers adjacency), so this is the
    extendability test, built only from table/refinement primitives.
    """
    for element in (g, invert(g)):
        bound = element.depth() + 2
        for depth in range(1, bound + 1):
            for word in all_words(element.arity, depth):
                balls = act_on_ball(element, down(word))
                if len(balls) == 1:
                    continue
                image = ClopenSet.from_balls(element.arity, list(balls))
                if not image.is_single_ball():
                    return False
    return True


def _uniform_code(arity: int, depths: tuple[int, ...]) -> list[Address]:
    """The prefix code whose root branch k has all its leaves at depth
    ``depths[k]``."""
    code = []
    for child, depth in enumerate(depths):
        level = [(child,)]
        for _ in range(depth - 1):
            level = [w + (k,) for w in level for k in range(arity)]
        code.extend(level)
    return code


def irreducible_uniform_pairing(arity: int, depths: tuple[int, ...], seed: int) -> Spheromorphism:
    """The uniform prefix code of the given root-branch depths, paired with
    itself by a seeded shuffle whose minimal bi-thorn keeps every vertex of
    the code's tree: the symmetric case where coset codes are most costly."""
    code = _uniform_code(arity, depths)
    vertices = len({w[:i] for w in code for i in range(len(w))})
    rng = random.Random(seed)
    for _ in range(1000):
        targets = code[:]
        rng.shuffle(targets)
        g = from_pieces(arity, list(zip(code, targets)))
        if minimal_bithorn(g).vertex_count == vertices:
            return g
    raise RuntimeError(f"no irreducible pairing of the code {depths}")


def twisted_uniform_pairing(arity: int, depths: tuple[int, ...]) -> Spheromorphism:
    """The uniform prefix code of the given root-branch depths, each leaf of
    length three or more paired with the leaf that swaps its last two
    labels.  No two spikes of a skeleton leaf meet one range vertex, so the
    minimal bi-thorn keeps those branches whole, and every automorphism of
    their upper levels preserves the pairing: the case automorphism pruning
    is for."""
    code = _uniform_code(arity, depths)
    return from_pieces(arity, [(w, w[:-2] + (w[-1], w[-2]) if len(w) > 2 else w) for w in code])


def exhaustive_coset_code(b: BiThorn) -> CosetCode:
    """``canonical_coset_code`` by comparing every domain numbering with every
    range numbering.

    A numbering gives each vertex (indexed in address order) its place in a
    preorder from a vertex of minimal rooted text, with sibling subtrees in
    sorted shape order and equal shapes in every order.  The code's arcs are
    the least sorted list of (domain place, range place) over all pairs, so
    the cost is the product of the two sides' numbering counts.
    """
    if b.is_empty:
        return CosetCode(b.arity, EMPTY_CODE_TEXT)
    dom_index, dom_shape, dom_numberings = _side_numberings(b.dom)
    ran_index, ran_shape, ran_numberings = _side_numberings(b.ran)
    arcs = [(dom_index[s[0]], ran_index[q[0]]) for s, q in b.pairing]
    best = min(
        sorted((dom_place[i], ran_place[j]) for i, j in arcs)
        for dom_place in dom_numberings
        for ran_place in ran_numberings
    )
    arc_text = ",".join(f"{i}>{j}" for i, j in best)
    return CosetCode(b.arity, f"{dom_shape}|{ran_shape}|{arc_text}")


def _side_numberings(t: SubThorn):
    """(vertex index, minimal shape text, every numbering) of one side."""
    index = {v: i for i, v in enumerate(sorted(t.vertices))}
    model = _subthorn_model(t)
    text = rooted_encoder(model.adjacency, model.spike_counts)
    texts = [text(v) for v in range(len(index))]
    shape = min(texts)

    def rec(v: int, parent: int | None) -> Iterator[tuple[int, ...]]:
        groups: dict[str, list[int]] = {}
        for w in sorted(model.adjacency[v]):
            if w != parent:
                groups.setdefault(text(w, v), []).append(w)
        choices = [list(permutations(groups[key])) for key in sorted(groups)]
        for choice in product(*choices):
            ordered = [w for group in choice for w in group]
            for parts in product(*[list(rec(w, v)) for w in ordered]):
                yield (v,) + tuple(x for part in parts for x in part)

    numberings = []
    for root in (v for v, t_v in enumerate(texts) if t_v == shape):
        for preorder in rec(root, None):
            place = [0] * len(index)
            for i, v in enumerate(preorder):
                place[v] = i
            numberings.append(tuple(place))
    return index, shape, numberings


class _Side:
    """The minimal rooted shape text of one side and its minimal roots.

    Vertices are indexed in address order.  A numbering gives each index its
    place in a preorder from a minimal root, with sibling subtrees in sorted
    shape order; equal shapes may come in any order.
    """

    def __init__(self, t: SubThorn) -> None:
        self.index = {v: i for i, v in enumerate(sorted(t.vertices))}
        model = _subthorn_model(t)
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


def reference_coset_code(b: BiThorn) -> CosetCode:
    """``canonical_coset_code`` by its former search, kept as a reference.

    The least sorted arc list of (domain place, range place) over numberings.

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


def scan_reduce_bithorn(b: BiThorn, rng: random.Random | None = None) -> BiThorn:
    """``reduce_bithorn`` by its former algorithm: after every cut, rebuild
    both sides and rescan every domain vertex for a similar pair.

    The first domain vertex in address order with n spikes whose partners
    all sit at one range vertex, or a random one of them given ``rng``, is
    cut together with that range vertex: each one's internal edge becomes a
    spike at its neighbour, and the two new spikes are paired.  The fixpoint
    does not depend on the picks.
    """
    current = b
    while not current.is_empty:
        if len(current.dom.vertices) == 1:
            return empty_bithorn(current.arity)
        pair = dict(current.pairing)
        similar = []
        for a in sorted(current.dom.vertices):
            a_spikes = [s for s in current.dom.spikes if s[0] == a]
            far = {pair[s][0] for s in a_spikes}
            if len(a_spikes) == current.arity and len(far) == 1:
                similar.append((a, far.pop()))
        if not similar:
            return current
        a, far = similar[0] if rng is None else rng.choice(similar)
        new_dom, new_dom_spike = _cut_leaf(current.dom, a)
        new_ran, new_ran_spike = _cut_leaf(current.ran, far)
        pairs = [(s, q) for s, q in current.pairing if s[0] != a]
        pairs.append((new_dom_spike, new_ran_spike))
        current = trusted(BiThorn, current.arity, new_dom, new_ran, tuple(sorted(pairs)))
    return current


def _cut_leaf(t: SubThorn, a: Address) -> tuple[SubThorn, Spike]:
    """Remove a skeleton leaf; its former edge becomes a spike at the neighbor."""
    (r,) = [w for w in neighbors(a, t.arity) if w in t.vertices]
    new_spike = (r, UP) if r[:-1] == a else (r, a[-1])
    spikes = frozenset(s for s in t.spikes if s[0] != a) | {new_spike}
    return trusted(SubThorn, t.arity, t.vertices - {a}, spikes), new_spike


def scan_compose(g: Spheromorphism, h: Spheromorphism) -> Spheromorphism:
    """``compose`` by its former algorithm: refine h's range code and g's
    domain code to a common code, then find both pieces of each of its
    words by a scan of the tables."""
    pieces = []
    for m in common_refinement([v for _, v in h.pieces], g.sources):
        hu, hv = next((u, v) for u, v in h.pieces if is_prefix(v, m))
        gs, gt = next((u, v) for u, v in g.pieces if is_prefix(u, m))
        pieces.append((hu + m[len(hv) :], gt + m[len(gs) :]))
    return from_pieces(g.arity, pieces)


def scan_act_on_ball(g: Spheromorphism, ball: Ball) -> tuple[Ball, ...]:
    """``act_on_ball`` by its former algorithm, a scan of the table."""
    u = ball.cut
    for s, t in g.pieces:
        if is_prefix(s, u):
            image_cut = t + u[len(s) :]
            return (up(image_cut) if ball.up else down(image_cut),)
    inside = tuple(t for s, t in g.pieces if is_prefix(u, s))
    outside = tuple(t for s, t in g.pieces if not is_prefix(u, s))
    return tuple(down(t) for t in (outside if ball.up else inside))


def per_thorn_image(g: Spheromorphism, spikes: Sequence[Spike], moved: dict) -> list[Spike]:
    """``orbitstats._image`` by a former algorithm: each of the thorn's balls
    moved with the public ``act_on_ball``, nothing kept between thorns."""
    balls = [ball_of_spike(spike) for spike in spikes]
    return [spike_of_ball(b) for b in chain.from_iterable(act_on_ball(g, b) for b in balls)]


def _tabulate(table: ClassTable, transitions) -> TransitionCounts:
    size = len(table.tracked) + 1
    counts = [[0] * size for _ in range(size)]
    for i, j in transitions:
        if i == j:
            raise InternalError("a class transition cannot sit on the diagonal")
        counts[i][j] += 1
    return _counts(table, counts)


def two_sided_theta(g: Spheromorphism, table: ClassTable) -> TransitionCounts:
    """``theta`` by its former two-sided listing, with no class-balance law,
    no orbit weights and no shape map.

    One loop serves (g, ``pair.dom``) and (g⁻¹, ``pair.ran``), each with a
    fresh dict from spike to the spikes of its ball's image.  Every thorn of
    every orbit ``_embeddings`` lists is expanded (``_orbit``) and
    classified on its own, with a text built for every image that has a
    tracked class's (vertex count, spike count).  The domain side counts
    each tracked set that leaves its class, as ``theta`` does; the range
    side counts each lumped set that enters a tracked class, as the source
    under g⁻¹ of a tracked set that g⁻¹ moves into the lump.
    """
    pair = minimal_bithorn(g)
    rows = {code.text: i for i, code in enumerate(table.tracked, start=1)}
    encode = dict.fromkeys(((code.vertex_count, code.spike_count) for code in table.tracked), rows)
    transitions = []
    for forward, h, region in ((True, g, pair.dom), (False, invert(g), pair.ran)):
        moved: dict[Spike, tuple[Spike, ...]] = {}
        for i, pattern in enumerate(table.tracked, start=1):
            for representative, _ in _embeddings(pattern, region):
                for spikes in _orbit(representative, region):
                    image = []
                    for spike in spikes:
                        if spike not in moved:
                            moved[spike] = _act_on_spike(h, spike)
                        image += moved[spike]
                    j = classify_spikes_among(image, g.arity, encode)
                    if forward and j != i:
                        transitions.append((i, j))
                    elif not forward and not j:
                        transitions.append((0, i))
    return _tabulate(table, transitions)


def balance_defects(counts: TransitionCounts) -> list[int]:
    """The tracked classes whose count of sets entering differs from the
    count leaving: none, by the class-balance law."""
    m = counts.matrix
    size = len(m)
    return [
        i
        for i in range(1, size)
        if sum(m[i][j] for j in range(size) if j != i) != sum(m[k][i] for k in range(size) if k != i)
    ]


def full_gram_matrix(elements: Sequence[Spheromorphism], phi) -> tuple[tuple[float, ...], ...]:
    """``gram_psd_check``'s matrix by its former algorithm: phi evaluated on
    every product g_i^-1 g_j of the upper triangle, diagonal included, and
    mirrored."""
    size = len(elements)
    inverses = [invert(g) for g in elements]
    rows = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = float(phi(compose(inverses[i], elements[j])))
    return tuple(tuple(row) for row in rows)


def two_branch_psd_verdict(
    matrix: Sequence[Sequence[float]], tol: float, sizes: Sequence[int] | None = None
) -> tuple[float, float, bool]:
    """``spherical._psd_verdict`` by its former two-branch rule: without
    ``sizes``, or with every size 1, the least eigenvalue of the matrix
    itself; otherwise min(0, lambda_min(D^(1/2) A D^(1/2))), D the diagonal
    of the sizes.  The threshold is -tol * max|entry| (-tol for the zero
    matrix)."""
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    if sizes is None or len(sizes) == sum(sizes):
        low = min(symmetric_eigenvalues(matrix))
    else:
        scaled = [
            [x * math.sqrt(sizes[a] * sizes[b]) for b, x in enumerate(row)]
            for a, row in enumerate(matrix)
        ]
        low = min(0.0, min(symmetric_eigenvalues(scaled)))
    scale = max(abs(x) for row in matrix for x in row)
    threshold = -tol * (scale if scale > 0.0 else 1.0)
    return low, threshold, low >= threshold


def pairwise_path_span(balls: Iterable[Ball]) -> dict[Address, set[int]]:
    """``thorn._spanned`` by its former algorithm: the anchors with their
    spike directions, then every vertex on the path from the first anchor to
    each other one, up to their common prefix and down again."""
    spikes_at: dict[Address, set[int]] = {}
    for b in balls:
        if b.up:
            spikes_at.setdefault(b.cut, set()).add(UP)
        else:
            spikes_at.setdefault(b.cut[:-1], set()).add(b.cut[-1])
    base, *others = spikes_at
    for a in others:
        meet = 0
        while meet < min(len(base), len(a)) and base[meet] == a[meet]:
            meet += 1
        rising = [base[:k] for k in range(len(base), meet - 1, -1)]
        for v in rising + [a[:k] for k in range(meet + 1, len(a) + 1)]:
            spikes_at.setdefault(v, set())
    return spikes_at


def split_ball(ball: Ball, arity: int) -> tuple[Ball, ...]:
    """The n balls obtained by moving the cut one edge deeper into the branch."""
    if not ball.up:
        return tuple(down(ball.cut + (c,)) for c in range(arity))
    cut = ball.cut
    if len(cut) == 1:
        return tuple(down((c,)) for c in range(arity + 1) if c != cut[0])
    stem = cut[:-1]
    sibs = tuple(down(stem + (c,)) for c in range(arity) if c != cut[-1])
    return sibs + (up(stem),)


def spike_midpoint(spike: Spike) -> Address:
    """Mid-edges are keyed by the deeper endpoint of their edge."""
    vertex, direction = spike
    return vertex if direction == UP else vertex + (direction,)


def midpoint_cells(t: SubThorn) -> frozenset[Address]:
    """Mid-edge 0-cells of a thorn: spike midpoints and internal edge midpoints."""
    mids = {spike_midpoint(s) for s in t.spikes}
    mids.update(child for _, child in t.internal_edges())
    return frozenset(mids)


def skeleton_diameter(t: AbstractThorn) -> int:
    """Longest skeleton path in edges, by two breadth-first sweeps."""
    if t.vertex_count <= 1:
        return 0
    far, _ = _farthest(t, 0)
    return _farthest(t, far)[1]


def _farthest(t: AbstractThorn, start: int) -> tuple[int, int]:
    dist = {start: 0}
    frontier = [start]
    best = (start, 0)
    while frontier:
        v = frontier.pop(0)
        for w in t.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if dist[w] > best[1]:
                    best = (w, dist[w])
                frontier.append(w)
    return best


def pruefer_class_codes(arity: int, iota: int, max_vertices: int) -> tuple[ThornCode, ...]:
    """``enumerate_class_codes`` by brute force over labelled trees.

    Every labelled tree (Prüfer decoding) with every admissible spike-count
    vector, deduplicated through the reference encoder's code texts;
    V^(V-2) trees per size, so only small bounds finish.
    """
    found: set[ThornCode] = set()
    for V in range(1, max_vertices + 1):
        for adjacency in labeled_trees(V):
            degs = tuple(len(nbrs) for nbrs in adjacency)
            centres = skeleton_centres(adjacency)
            for counts in product(*(range(arity + 2 - d) for d in degs)):
                if sum(counts) % (arity - 1) != iota or _shape_defect(degs, counts, arity):
                    continue
                found.add(trusted(ThornCode, arity, reference_code_text(adjacency, counts, centres)))
    return tuple(sorted(found, key=lambda c: (c.vertex_count, c.spike_count, c.text)))


def every_vector_class_codes(arity: int, iota: int, max_vertices: int) -> tuple[ThornCode, ...]:
    """``enumerate_class_codes`` as first written, over every spike vector.

    Each unlabelled tree (``_free_trees``) with every spike-count vector
    that fits its degrees; the residue test and ``_shape_defect`` drop the
    vectors that are no orbit class, and a set of the reference encoder's
    texts drops repeats.
    """
    found: set[tuple[int, int, str]] = set()
    for V, trees in enumerate(_free_trees(max_vertices), start=1):
        for adjacency in trees:
            degs = tuple(len(nbrs) for nbrs in adjacency)
            centres = skeleton_centres(adjacency)
            for counts in product(*(range(arity + 2 - d) for d in degs)):
                spikes = sum(counts)
                if spikes % (arity - 1) != iota or _shape_defect(degs, counts, arity):
                    continue
                found.add((V, spikes, reference_code_text(adjacency, counts, centres)))
    return tuple(trusted(ThornCode, arity, text) for _, _, text in sorted(found))


def labeled_trees(V: int) -> Iterator[tuple[frozenset[int], ...]]:
    """Adjacency lists of every labelled tree on V vertices (Prüfer decoding)."""
    if V == 1:
        yield (frozenset(),)
        return
    for seq in product(range(V), repeat=V - 2):
        degree = [1] * V
        for x in seq:
            degree[x] += 1
        adj: list[set[int]] = [set() for _ in range(V)]
        for x in seq:
            leaf = min(i for i in range(V) if degree[i] == 1)
            adj[leaf].add(x)
            adj[x].add(leaf)
            degree[leaf] = 0
            degree[x] -= 1
        a, b = (i for i in range(V) if degree[i] == 1)
        adj[a].add(b)
        adj[b].add(a)
        yield tuple(frozenset(s) for s in adj)


def full_class_index(balls: Sequence[Ball], table: ClassTable) -> int:
    """The table index of the class of a union of balls by full
    classification: ``classify_balls`` encodes the reduced thorn whatever
    its shape, and the text is looked up among the tracked codes (0 for a
    lumped class)."""
    text = classify_balls(balls, table.arity)
    return next((i for i, code in enumerate(table.tracked, start=1) if code.text == text), 0)


def subset_embeddings(pattern: ThornCode, region: SubThorn) -> tuple[SubThorn, ...]:
    """``enumerate_embeddings`` by generate and filter, its former algorithm.

    All reduced sub-thorns of the given class sharing a vertex with the
    region.  Such a thorn reaches no further than its diameter from that
    vertex, so the candidates are the connected vertex sets of the pattern's
    size inside the radius-diameter neighbourhood of the region's vertices,
    and only those holding a region vertex get their spikes chosen.
    """
    region_verts = region.vertices
    results = [
        trusted(SubThorn, pattern.arity, verts, frozenset(spikes))
        for verts, spike_sets in _class_placements(pattern, region, region_verts, pattern.diameter)
        if not verts.isdisjoint(region_verts)
        for spikes in spike_sets
    ]
    results.sort(key=SubThorn.sort_key)
    return tuple(results)


def cell_touch_embeddings(pattern: ThornCode, region: SubThorn) -> tuple[SubThorn, ...]:
    """All reduced sub-thorns of the given class having a cell in the region:
    a shared vertex or a shared mid-edge point, internal or spike.

    A connected thorn that touches the region reaches no further out than
    its own diameter, so the candidates come from the neighborhood of radius
    diameter + 1 around the region's vertices and mid-edge points.
    """
    region_mids = midpoint_cells(region)
    seeds = set(region.vertices)
    for mid in region_mids:
        seeds.add(mid)
        seeds.add(mid[:-1])
    region_verts = region.vertices
    results = []
    for verts, spike_sets in _class_placements(pattern, region, seeds, pattern.diameter + 1):
        touches = bool(verts & region_verts)
        if not touches:
            internal_mids = {w for v in verts for w in children(v, pattern.arity) if w in verts}
            touches = bool(internal_mids & region_mids)
        for spikes in spike_sets:
            if touches or any(spike_midpoint(s) in region_mids for s in spikes):
                results.append(trusted(SubThorn, pattern.arity, verts, frozenset(spikes)))
    results.sort(key=SubThorn.sort_key)
    return tuple(results)


def _class_placements(
    pattern: ThornCode, region: SubThorn, seeds: Iterable[Address], radius: int
) -> Iterator[tuple[frozenset[Address], Iterator[tuple[Spike, ...]]]]:
    """Each connected vertex set of the pattern's size within ``radius`` of
    the seeds, with a lazy iterator over the spike sets that make it a thorn
    of the pattern's class: a caller that drops a vertex set pays nothing for
    its spikes."""
    if pattern.arity != region.arity:
        raise DomainError("pattern and region arity differ")
    if region.is_empty:
        return
    if pattern.is_empty:
        raise DomainError("cannot embed the empty pattern")
    arity = pattern.arity
    model = abstract_from_code(pattern)
    model_degs = tuple(len(a) for a in model.adjacency)
    defect = _shape_defect(model_degs, model.spike_counts, arity)
    if defect is not None:
        raise DomainError(f"cannot embed {pattern.text!r}: {defect}")
    profile = tuple(sorted(zip(model.spike_counts, model_degs)))

    def spike_sets(verts: frozenset[Address]) -> Iterator[tuple[Spike, ...]]:
        vlist = sorted(verts)
        index = {v: i for i, v in enumerate(vlist)}
        free: list[list[int]] = []
        adjacency = []
        for v in vlist:
            dirs: Iterable[int]
            if v:
                dirs = list(range(arity)) + [UP]
            else:
                dirs = list(range(arity + 1))
            slots = []
            internal = []
            for d in dirs:
                w = v[:-1] if d == UP else v + (d,)
                if w in verts:
                    internal.append(index[w])
                else:
                    slots.append(d)
            free.append(slots)
            adjacency.append(frozenset(internal))
        degs = tuple(len(a) for a in adjacency)
        # the spike directions do not change the isomorphism class, so the
        # shape is settled once per spike-count vector; vectors share the
        # pattern's (count, degree) profile, hence its reducedness
        for counts in _count_vectors(free, degs, model.spike_count, profile):
            if reference_code_text(adjacency, counts) == pattern.text:
                yield from _direction_combos(vlist, free, counts)

    universe = _neighbourhood(seeds, radius, arity)
    for verts in _connected_subsets(universe, model.vertex_count, arity):
        yield verts, spike_sets(verts)


def _neighbourhood(seeds: Iterable[Address], radius: int, arity: int) -> set[Address]:
    """Every vertex within ``radius`` edges of a seed, by breadth-first layers."""
    out = set(seeds)
    layer = set(out)
    for _ in range(radius):
        layer = {w for v in layer for w in neighbors(v, arity)} - out
        out |= layer
    return out


def _count_vectors(
    free: Sequence[Sequence[int]],
    degs: tuple[int, ...],
    total: int,
    profile: tuple[tuple[int, int], ...],
) -> Iterator[tuple[int, ...]]:
    """Per-vertex spike counts matching a (spikes, degree) multiset exactly."""
    for counts in product(*(range(len(slots) + 1) for slots in free)):
        if sum(counts) != total:
            continue
        if tuple(sorted(zip(counts, degs))) != profile:
            continue
        yield counts


def _direction_combos(
    vlist: Sequence[Address], free: Sequence[Sequence[int]], counts: tuple[int, ...]
) -> Iterator[tuple[Spike, ...]]:
    pools = [
        tuple(combinations(slots, c)) for slots, c in zip(free, counts)
    ]
    for pick in product(*pools):
        yield tuple(
            (v, d) for v, combo in zip(vlist, pick) for d in combo
        )


def _connected_subsets(universe: set[Address], size: int, arity: int) -> Iterator[frozenset[Address]]:
    """All connected vertex sets of the given size inside the universe.

    Standard rooted enumeration: each subset is produced exactly once, from
    its smallest element, by growing with neighbors larger than the root.
    """
    if size <= 0:
        return
    order = sorted(universe)
    rank = {v: i for i, v in enumerate(order)}

    def nbrs(v: Address) -> list[Address]:
        return [w for w in neighbors(v, arity) if w in universe]

    for root in order:
        r = rank[root]

        def grow(current: set[Address], frontier: list[Address], banned: set[Address]) -> Iterator[frozenset[Address]]:
            if len(current) == size:
                yield frozenset(current)
                return
            local_banned = set(banned)
            for i, v in enumerate(frontier):
                ext = [
                    w
                    for w in nbrs(v)
                    if rank[w] > r and w not in current and w not in local_banned and w not in frontier[i + 1 :]
                ]
                yield from grow(current | {v}, frontier[i + 1 :] + ext, local_banned)
                local_banned.add(v)

        start = [w for w in nbrs(root) if rank[w] > r]
        yield from grow({root}, start, set())


# ---------------------------------------------------------------------------
# brute-force theta oracle
# ---------------------------------------------------------------------------


def _anchor(ball: Ball) -> Address:
    """The vertex a ball's spike hangs off: the near end of its cut edge."""
    return ball.cut if ball.up else ball.cut[:-1]


def _span(words: Iterable[Address]) -> set[Address]:
    """Every prefix of the words at least as long as their longest common one,
    which is that of the least and the greatest word.  For spike anchors this
    is their thorn's vertex set: every path between them runs through it."""
    words = set(words)
    low, high = min(words), max(words)
    meet = next((k for k, (a, b) in enumerate(zip(low, high)) if a != b), min(len(low), len(high)))
    return {w[:k] for w in words for k in range(meet, len(w) + 1)}


def _maximal_balls(omega: ClopenSet) -> tuple[Ball, ...]:
    """The balls inside omega that lie in no larger ball inside omega.

    ``down(u)`` lies inside when u starts no unmarked carrier leaf, and
    ``up(u)`` when u starts every one of them.  So the one maximal up ball,
    if any, is cut at the stem of the unmarked leaves (their longest common
    prefix), and each marked leaf below the stem lies in the down ball of its
    shortest prefix past the stem that starts no unmarked leaf.
    """
    near = _span(leaf for leaf in omega.carrier if leaf not in omega.marks)
    stem = min(near)
    found = {up(stem)} if stem else set()
    for leaf in omega.marks:
        if leaf[: len(stem)] == stem:
            k = len(stem) + 1
            while leaf[:k] in near:
                k += 1
            found.add(down(leaf[:k]))
    return tuple(sorted(found))


def _shape(balls: Sequence[Ball], arity: int) -> AbstractThorn:
    """Skeleton and spike counts of the thorn whose spikes are the balls.

    Vertices are numbered in address order, which puts the anchors' common
    prefix first and every other vertex after its parent.
    """
    anchors = Counter(_anchor(b) for b in balls)
    order = sorted(_span(anchors))
    index = {v: i for i, v in enumerate(order)}
    adjacency: list[set[int]] = [set() for _ in order]
    for i, v in enumerate(order[1:], start=1):
        adjacency[i].add(index[v[:-1]])
        adjacency[index[v[:-1]]].add(i)
    return AbstractThorn(arity, tuple(map(frozenset, adjacency)), tuple(anchors[v] for v in order))


def _isomorphic(a: AbstractThorn, b: AbstractThorn) -> bool:
    """True iff a bijection between the vertices keeps edges and spike counts.

    The vertices of a are placed in index order, each on a free vertex of b
    with its spike count and its adjacency to the vertices placed before.
    """

    def place(image: list[int]) -> bool:
        v = len(image)
        return v == a.vertex_count or any(
            place(image + [x])
            for x in range(a.vertex_count)
            if x not in image
            and b.spike_counts[x] == a.spike_counts[v]
            and all((image[u] in b.adjacency[x]) == (u in a.adjacency[v]) for u in range(v))
        )

    found = a.vertex_count == b.vertex_count and place([])
    del place  # it calls itself through its closure; the cycle would outlive this call
    return found


@lru_cache(maxsize=32)
def _classified_unions(
    arity: int, depth: int, count: int, max_vertices: int
) -> tuple[tuple[ClopenSet, AbstractThorn], ...]:
    """Sets of ``count`` maximal balls of cut depth <= depth, with their thorns.

    A set's maximal balls are the spikes of its reduced thorn, so each set
    whose reduced thorn has ``count`` spikes, at most ``max_vertices``
    vertices and carrier depth at most ``depth`` is listed once, in the
    order of its balls.  The anchors of such balls span at most
    ``max_vertices`` vertices, so all lie within ``max_vertices - 1`` edges
    of the first one, and none is deeper than ``depth``.
    """
    balls = [Ball(raised, cut) for k in range(depth) for cut in all_words(arity, k + 1) for raised in (False, True)]
    at: dict[Address, list[int]] = {}
    for i, ball in enumerate(balls):
        at.setdefault(_anchor(ball), []).append(i)
    found = {}

    def extend(chosen: list[Ball], candidates: list[int]) -> None:
        if len(chosen) == count:
            key = tuple(sorted(chosen))
            try:
                omega = ClopenSet.from_balls(arity, key)
            except DomainError:
                return  # the union is the whole boundary
            if _maximal_balls(omega) == key:
                found[key] = (omega, _shape(key, arity))
            return
        for k, i in enumerate(candidates):
            wider = chosen + [balls[i]]
            if all(balls_disjoint(balls[i], b) for b in chosen) and (
                len(_span(map(_anchor, wider))) <= max_vertices
            ):
                extend(wider, candidates[k + 1 :])

    for i, first in enumerate(balls):
        near = {_anchor(first)}
        for _ in range(min(max_vertices - 1, 2 * depth)):
            near |= {w for v in near for w in neighbors(v, arity) if len(w) <= depth}
        extend([first], sorted(j for v in near for j in at.get(v, ()) if j > i))
    del extend  # it calls itself through its closure; the cycle would outlive this call
    return tuple(found[key] for key in sorted(found))


def theta_bruteforce(g: Spheromorphism, table: ClassTable, depth: int) -> TransitionCounts:
    """Transition counts recomputed by sweeping all bounded-depth candidates.

    The pool holds every set of a tracked class whose carrier reaches at
    most ``depth``; the depth must exceed the table depth of g plus the
    largest tracked diameter, so that every set that can change class (in
    either direction) is inside the pool.
    """
    if g.arity != table.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {table.arity}")
    max_diameter = max(code.diameter for code in table.tracked)
    needed = g.depth() + max_diameter + 1
    if depth < needed:
        raise DomainError(
            f"depth {depth} cannot certify this element; it needs at least {needed}"
        )
    models = [abstract_from_code(code) for code in table.tracked]

    def class_of(thorn: AbstractThorn) -> int:
        """Matrix index of a thorn's class: 1.. for tracked, 0 for lumped."""
        return next((i + 1 for i, model in enumerate(models) if _isomorphic(thorn, model)), 0)

    max_vertices = max(code.vertex_count for code in table.tracked)
    inverse = invert(g)
    transitions = []
    for count in sorted({code.spike_count for code in table.tracked}):
        for omega, thorn in _classified_unions(g.arity, depth, count, max_vertices):
            i = class_of(thorn)
            if not i:
                continue
            image = act_on_clopen(g, omega)
            if image != omega:
                after = class_of(_shape(_maximal_balls(image), g.arity))
                if after != i:
                    transitions.append((i, after))
            source = act_on_clopen(inverse, omega)
            if source != omega and not class_of(_shape(_maximal_balls(source), g.arity)):
                transitions.append((0, i))
    return _tabulate(table, transitions)
