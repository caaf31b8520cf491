"""Orbit transition statistics: how an element moves clopen sets between classes.

A class table fixes a residue sector and a finite list of tracked orbit
classes (thorn codes); every other class of that residue is lumped into a
single background class ``P``.  For a table element g, only finitely many
clopen sets change class: their reduced thorns must touch the minimal
matched thorn pair of g.  One enumeration finds them: it classifies the
ball tuples of each candidate set and its image directly (``classify_balls``)
and builds no clopen set.  ``theta`` tabulates the resulting class
transitions, and ``moved_sets`` lists the same sets with ``omega``/``image``
built as clopen normal forms; only ``moved_sets`` builds them.
``theta_bruteforce`` sweeps every tracked-class set of bounded carrier
depth, moves it with ``act_on_clopen`` and matches the thorn of its maximal
balls against the tracked codes by an isomorphism test: an independent,
much slower oracle.

θ is the same for every element of a double coset of the automorphism
group, so ``theta`` memoises it on (coset code, table) in an ``lru_cache``
of ``MEMO_SIZE`` entries.  Automorphisms move nothing and skip the memo.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .bithorn import BiThorn, CosetCode, canonical_coset_code, minimal_bithorn
from .element import Spheromorphism, _act_on_ball, act_on_clopen, invert
from .errors import DomainError, InternalError, ValidationError
from .thorn import (
    AbstractThorn,
    ThornCode,
    abstract_from_code,
    check_sector,
    classify_balls,
    enumerate_embeddings,
    require_class_code,
)
from .tree import Address, Ball, ClopenSet, all_words, balls_disjoint, down, neighbors, trusted, up

LUMP_LABEL = "P"


@dataclass(frozen=True)
class ClassTable:
    """A residue sector and the orbit classes tracked individually within it."""

    arity: int
    iota: int
    tracked: tuple[ThornCode, ...]

    def __post_init__(self) -> None:
        check_sector(self.arity, self.iota)
        if not self.tracked:
            raise ValidationError("a class table needs at least one tracked class")
        seen = set()
        for code in self.tracked:
            if code.arity != self.arity:
                raise ValidationError(f"class {code.token} has the wrong arity")
            require_class_code(code)
            if code.residue() != self.iota:
                raise ValidationError(
                    f"class {code.token} has residue {code.residue()}, table wants {self.iota}"
                )
            if code in seen:
                raise ValidationError(f"class {code.token} is tracked twice")
            seen.add(code)

    @property
    def labels(self) -> tuple[str, ...]:
        return (LUMP_LABEL,) + tuple(code.token for code in self.tracked)

    def index_of(self, code: ThornCode) -> int:
        """Matrix index of a class code: 0 for lumped, 1.. for tracked."""
        for i, tracked in enumerate(self.tracked):
            if tracked == code:
                return i + 1
        return 0


@dataclass(frozen=True)
class MovedSet:
    """One clopen set whose class changes, with its image and both classes."""

    omega: ClopenSet
    before: ThornCode
    image: ClopenSet
    after: ThornCode


@dataclass(frozen=True)
class TransitionCounts:
    """Class-to-class transition counts; the infinite diagonal is omitted."""

    table: ClassTable
    matrix: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.table.tracked) + 1
        if len(self.matrix) != size or any(len(row) != size for row in self.matrix):
            raise ValidationError("transition matrix size disagrees with the table")
        for i, row in enumerate(self.matrix):
            for j, value in enumerate(row):
                if i == j:
                    if value is not None:
                        raise ValidationError("diagonal transition counts are not finite")
                elif not isinstance(value, int) or value < 0:
                    raise ValidationError(f"bad count {value!r} at ({i},{j})")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.table.labels

    def entry(self, source_label: str, target_label: str) -> int | None:
        labels = self.labels
        try:
            i = labels.index(source_label)
            j = labels.index(target_label)
        except ValueError:
            raise DomainError(f"unknown class label among {labels}") from None
        return self.matrix[i][j]

    def transpose(self) -> "TransitionCounts":
        size = len(self.matrix)
        flipped = tuple(
            tuple(self.matrix[j][i] for j in range(size)) for i in range(size)
        )
        return trusted(TransitionCounts, self.table, flipped)


def _moved(g: Spheromorphism, pair: BiThorn, table: ClassTable) -> Iterator[
    tuple[tuple[Ball, ...], ThornCode, tuple[Ball, ...], ThornCode]
]:
    """Each clopen set involving a tracked class whose class changes under g.

    Yields (set balls, class before, image balls, class after) once per set;
    ``pair`` is the minimal bi-thorn of g.
    Covers both directions: tracked sets leaving their class, and lumped
    sets entering a tracked class.  A set whose class changes must have its
    reduced thorn touch the minimal matched pair of the element (sets whose
    thorns avoid it sit inside one matched ball and keep their class), so
    enumerating embeddings around the pair is exhaustive.  Ball images are
    classified directly by ``classify_balls``.

    No set comes out twice.  A domain-side set is one embedding, and each
    embedding is built once.  A range-side set has an untracked source, so
    it is never a domain-side set, and g is a bijection, so distinct
    range-side images have distinct sources.
    """
    if pair.is_empty:
        return
    arity = g.arity
    inverse = invert(g)
    codes = {code.text: code for code in table.tracked}
    tracked_texts = set(codes)

    def code_of(text: str) -> ThornCode:
        code = codes.get(text)
        if code is None:
            code = codes[text] = trusted(ThornCode, arity, text)
        return code

    for pattern in table.tracked:
        for thorn in enumerate_embeddings(pattern, pair.dom):
            balls = thorn.balls()
            image = _ball_image(g, balls)
            if image == balls:
                continue  # the set itself is fixed
            text = classify_balls(image, arity)
            if text != pattern.text:
                yield balls, pattern, image, code_of(text)
        for thorn in enumerate_embeddings(pattern, pair.ran):
            balls = thorn.balls()
            source = _ball_image(inverse, balls)
            if source == balls:
                continue
            text = classify_balls(source, arity)
            if text not in tracked_texts:
                yield source, code_of(text), balls, pattern


def _ball_image(g: Spheromorphism, balls: tuple[Ball, ...]) -> tuple[Ball, ...]:
    return tuple(sorted(chain.from_iterable(_act_on_ball(g, b) for b in balls)))


def moved_sets(g: Spheromorphism, table: ClassTable) -> tuple[MovedSet, ...]:
    """Every clopen set involving a tracked class whose class changes under g.

    The same listing ``theta`` counts, with each set and its image built as
    clopen normal forms, ordered by the set's carrier flags.  ``theta``
    itself classifies ball tuples directly and builds no clopen set.
    """
    if g.arity != table.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {table.arity}")
    records = [
        MovedSet(
            ClopenSet.from_balls(g.arity, omega),
            before,
            ClopenSet.from_balls(g.arity, image),
            after,
        )
        for omega, before, image, after in _moved(g, minimal_bithorn(g), table)
    ]
    return tuple(sorted(records, key=lambda rec: rec.omega.leaf_flags()))


def _tabulate(table: ClassTable, transitions) -> TransitionCounts:
    size = len(table.tracked) + 1
    counts = [[0] * size for _ in range(size)]
    for i, j in transitions:
        if i == j:
            raise InternalError("a class transition cannot sit on the diagonal")
        counts[i][j] += 1
    matrix = tuple(
        tuple(None if i == j else counts[i][j] for j in range(size))
        for i in range(size)
    )
    return trusted(TransitionCounts, table, matrix)


MEMO_SIZE = 4096


@dataclass(frozen=True)
class _Coset:
    """A double coset that compares by its code alone, carrying one of its
    elements and that element's minimal bi-thorn to compute from."""

    code: CosetCode
    g: Spheromorphism = field(compare=False)
    pair: BiThorn = field(compare=False)


@lru_cache(maxsize=MEMO_SIZE)
def _coset_theta(coset: _Coset, table: ClassTable) -> TransitionCounts:
    moved = _moved(coset.g, coset.pair, table)
    return _tabulate(table, ((table.index_of(p), table.index_of(q)) for _, p, _, q in moved))


def theta(g: Spheromorphism, table: ClassTable) -> TransitionCounts:
    """Transition counts of g over the table, from the exact moved-set listing.

    For automorphisms a and b, the sets a·g·b moves are the preimages under
    b of the sets g moves, with the same classes, so the counts depend only
    on the double coset of g.  They are memoised on (coset code, table);
    ``theta.cache_info()`` and ``theta.cache_clear()`` report and empty the
    memo.  Automorphisms move nothing and skip it.
    """
    if g.arity != table.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {table.arity}")
    pair = minimal_bithorn(g)
    if pair.is_empty:
        return _tabulate(table, ())
    return _coset_theta(_Coset(canonical_coset_code(pair), g, pair), table)


theta.cache_info = _coset_theta.cache_info  # type: ignore[attr-defined]
theta.cache_clear = _coset_theta.cache_clear  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# brute-force oracle
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

    return a.vertex_count == b.vertex_count and place([])


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
