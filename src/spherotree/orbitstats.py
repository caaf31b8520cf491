"""Orbit transition statistics: how an element moves clopen sets between classes.

A class table fixes a residue sector and a finite list of tracked orbit
classes (thorn codes); every other class of that residue is lumped into a
single background class ``P``.  For a table element g, only finitely many
clopen sets change class: their reduced thorns must share a vertex with
the minimal matched thorn pair of g.  Both sides of the pair are perfect,
so a connected thorn with no vertex in a side lies beyond one of its spike
mid-edges, in a half-tree that g (or g⁻¹) carries isometrically onto the
matched half-tree (literal pieces, family merges and bi-thorn cuts are all
isometries), and its class cannot change.

``theta`` lists only the domain side: the tracked sets around it that g
moves out of their class (``_leaving``).  That fills every row of a
tracked class, and the lump's row follows from the class-balance law: as
many sets enter a tracked class as leave it.  For S_i the sets of class i,
χ_i(g) = |S_i∖g⁻¹S_i| − |g⁻¹S_i∖S_i| is a homomorphism to ℤ, and the
group, Higman's G_{n,n+1}, has a finite abelianisation (G. Higman,
"Finitely presented infinite simple groups", 1974), so χ_i = 0.  The
candidates come as bare spikes from one enumeration, and a dict from each
spike to the spikes of its ball's image moves each ball once; nothing is
sorted and no ``Ball``, thorn or clopen set is built.

θ is bi-invariant, and the same half-trees give it a symmetry inside one
element.  At a candidate's vertex x outside the domain side, the edge
toward the side is internal (the thorn is connected and meets the side), so
every free direction at x leads into the half-tree beyond a spike of the
side that holds x, which g carries isometrically.  Swapping two free
branches at x is an automorphism α with g∘α = α′∘g, α′ the matching swap
beyond g's image of that spike, so α maps a candidate to a candidate with
the same class before and after.  The enumeration lists one candidate per
orbit of these swaps with the orbit's size, and θ classifies each orbit
once.  The thorn of each image is reduced and its (vertex count, spike
count) looked up in the table's shape map (``ClassTable.by_shape``): a
shape no tracked class has is lumped, a shape no other class has decides
its class, and only a shape several classes share is encoded
(``classify_spikes_among``).  Which shapes are shared follows from the
leaf rule of the class enumeration without enumerating any class
(``thorn._shape_is_shared``).  A candidate the element leaves in place is
classified like any other and keeps its class.  ``moved_sets`` lists the
same sets plus the lumped ones entering a tracked class, read off the
range side with g⁻¹, expanding each orbit into its sets, with
``omega``/``image`` built as clopen normal forms, classifying lumped ones
from them.  The tests check ``theta``
against a brute-force oracle that sweeps every tracked-class set of bounded
carrier depth and shares none of its enumeration, reduction or encoding.

θ is the same for every element of a double coset of the automorphism
group, so ``theta`` memoises it on (coset code, table) in an ``lru_cache``
of ``MEMO_SIZE`` entries.  Automorphisms move nothing and skip the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterator, Sequence

from .bithorn import BiThorn, CosetCode, canonical_coset_code, minimal_bithorn
from .element import Spheromorphism, _act_on_spike, invert
from .errors import DomainError, InternalError, ValidationError
from .thorn import (
    SubThorn,
    ThornCode,
    _embeddings,
    _orbit,
    _shape_is_shared,
    check_sector,
    classify_clopen,
    classify_spikes_among,
    require_class_code,
)
from .tree import ClopenSet, Spike, ball_of_spike, trusted

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

    @cached_property
    def by_shape(self) -> dict[tuple[int, int], int | dict[str, int]]:
        """The shape map of ``classify_spikes_among``, from the tracked
        classes alone: each (vertex count, spike count) that a tracked class
        has goes to that class's index when no other class has it
        (``thorn._shape_is_shared``), and otherwise to the indices of the
        tracked classes of that shape by code text.  A shape left out is
        held only by lumped classes."""
        holders: dict[tuple[int, int], dict[str, int]] = {}
        for i, code in enumerate(self.tracked, start=1):
            holders.setdefault((code.vertex_count, code.spike_count), {})[code.text] = i
        return {
            shape: rows if _shape_is_shared(self.arity, *shape) else next(iter(rows.values()))
            for shape, rows in holders.items()
        }


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


def _leaving(
    h: Spheromorphism,
    region: SubThorn,
    table: ClassTable,
    moved: dict[Spike, tuple[Spike, ...]],
) -> Iterator[tuple[Sequence[Spike], int, Sequence[Spike], int, int]]:
    """Each symmetry orbit of tracked sets around ``region`` whose class h
    changes.

    Yields (spikes of a representative set, index before, spikes of its
    image, index after, size of its orbit) once per orbit, spikes
    unordered, indices 1.. for the tracked classes in table order and 0 for
    lumped ones, as in ``ClassTable.labels``.  With h = g and ``region`` the
    domain side of g's minimal bi-thorn, these are all the tracked sets g
    moves out of their class: only a set whose thorn shares a vertex with
    the domain side can change class (see the module docstring), so the
    embeddings around it are exhaustive.  A table's classes are orbit-class
    codes, checked when it was built or enumerated as such, so their
    embeddings are listed unchecked (``_embeddings``).

    ``_embeddings`` lists one thorn per orbit of the swaps of free branches
    at its vertices outside the region.  Those branches lie in one
    half-tree beyond a spike of the region, which h carries isometrically,
    so a swap α there has h∘α = α′∘h for a swap α′ on the far side: every
    set of the orbit has the representative's class before and its image's
    class after, and one classification serves the orbit.

    ``moved``, the caller's dict from spike to the spikes of its ball's
    image under h, grows as candidates are moved, so a spike's ball is moved
    once however many candidates share it.  A candidate of class i gets the
    index j of its image's class from its (vertex count, spike count) when
    no other class has that shape, and from its code text only when one
    does (``classify_spikes_among`` with ``ClassTable.by_shape``), and
    comes out when j != i.  A candidate h
    leaves in place needs no test of its own: it is a reduced thorn of class
    i with a spike on every skeleton leaf, so its image, the same set,
    classifies to class i, j = i.  Each embedding is listed once, so no set
    comes out twice.
    """
    arity = h.arity
    by_shape = table.by_shape
    for i, pattern in enumerate(table.tracked, start=1):
        for spikes, weight in _embeddings(pattern, region):
            image = _image(h, spikes, moved)
            j = classify_spikes_among(image, arity, by_shape)
            if j != i:
                yield spikes, i, image, j, weight


def _image(
    h: Spheromorphism, spikes: Sequence[Spike], moved: dict[Spike, tuple[Spike, ...]]
) -> list[Spike]:
    """The spikes of the image under h of the spikes' balls, unordered.

    ``moved`` maps each spike seen so far to the spikes of its ball's image,
    so a spike shared by many thorns is moved once."""
    image: list[Spike] = []
    for spike in spikes:
        found = moved.get(spike)
        if found is None:
            found = moved[spike] = _act_on_spike(h, spike)
        image += found
    return image


def moved_sets(g: Spheromorphism, table: ClassTable) -> tuple[MovedSet, ...]:
    """Every clopen set involving a tracked class whose class changes under g.

    The tracked sets leaving their class are ``_leaving`` on the domain side
    of g's minimal bi-thorn, the sets ``theta`` counts.  The lumped sets
    entering a tracked class are the images under g⁻¹ of tracked sets that
    g⁻¹ moves into the lump: ``_leaving`` on the range side with g⁻¹, its
    records with j = 0 read backwards.  A lumped set entering a tracked
    class has an untracked source, so it is never a leaving set, and g is a
    bijection, so no set comes out twice.  Each orbit record is expanded
    into its sets (``_members``).  Each set and its image are built as
    clopen normal forms, ordered by the set's carrier flags; a lumped class
    is classified from its clopen set.  ``theta`` itself builds no clopen
    set and never lists the range side.
    """
    if g.arity != table.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {table.arity}")
    pair = minimal_bithorn(g)
    entering = (
        (image, 0, spikes, i)
        for spikes, i, image, j in _members(invert(g), pair.ran, table)
        if not j
    )
    codes = (None,) + table.tracked
    records = []
    for omega_spikes, i, image_spikes, j in chain(_members(g, pair.dom, table), entering):
        omega = ClopenSet.from_balls(g.arity, map(ball_of_spike, omega_spikes))
        image = ClopenSet.from_balls(g.arity, map(ball_of_spike, image_spikes))
        before = codes[i] or classify_clopen(omega)
        records.append(MovedSet(omega, before, image, codes[j] or classify_clopen(image)))
    return tuple(sorted(records, key=lambda rec: rec.omega.leaf_flags()))


def _members(h: Spheromorphism, region: SubThorn, table: ClassTable) -> Iterator[
    tuple[Sequence[Spike], int, Sequence[Spike], int]
]:
    """``_leaving`` with each orbit expanded into its sets (``_orbit``):
    (spikes of the set, index before, spikes of its image, index after),
    every member keeping the representative's two indices.  One dict serves
    the listing and the expansion, so each spike's ball is moved once."""
    moved: dict[Spike, tuple[Spike, ...]] = {}
    for spikes, i, _, j, _ in _leaving(h, region, table, moved):
        for member in _orbit(spikes, region):
            yield member, i, _image(h, member, moved), j


def _counts(table: ClassTable, counts: list[list[int]]) -> TransitionCounts:
    """The finished counts of an off-diagonal count table."""
    matrix = tuple(
        tuple(None if i == j else row[j] for j in range(len(row))) for i, row in enumerate(counts)
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
    """θ of a double coset from the domain side of its bi-thorn alone.

    ``_leaving`` fills the rows of the tracked classes, each orbit record
    counting its whole orbit.  χ_i(g) =
    |S_i∖g⁻¹S_i| − |g⁻¹S_i∖S_i|, S_i the sets of class i, adds along
    products as an index does, so it is a homomorphism to ℤ, and it vanishes
    because the abelianisation of Higman's G_{n,n+1} has order at most 2.
    So as many sets enter class i as leave it, and θ[0][i] = Σ_{j≠i} θ[i][j]
    − Σ_{k∉{0,i}} θ[k][i].  A negative entry would disprove the law and
    raises ``InternalError``.
    """
    size = len(table.tracked) + 1
    counts = [[0] * size for _ in range(size)]
    for _, i, _, j, weight in _leaving(coset.g, coset.pair.dom, table, {}):
        counts[i][j] += weight
    for i in range(1, size):
        entering = sum(counts[i]) - sum(counts[k][i] for k in range(1, size))
        if entering < 0:
            raise InternalError(f"class {i} gains {-entering} more sets than it loses")
        counts[0][i] = entering
    return _counts(table, counts)


def theta(g: Spheromorphism, table: ClassTable) -> TransitionCounts:
    """Transition counts of g over the table, from the exact moved-set listing.

    Only the tracked sets that leave their class are listed.  The lump's
    row, the sets entering each tracked class i, follows from the
    class-balance law: χ_i(g) = |S_i∖g⁻¹S_i| − |g⁻¹S_i∖S_i|, S_i the sets
    of class i, is a homomorphism to ℤ and the group's abelianisation is
    finite (Higman), so χ_i = 0 and θ[0][i] is what leaves i less what
    enters it from other tracked classes (``_coset_theta``).

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
        size = len(table.tracked) + 1
        return _counts(table, [[0] * size for _ in range(size)])
    return _coset_theta(_Coset(canonical_coset_code(pair), g, pair), table)


theta.cache_info = _coset_theta.cache_info  # type: ignore[attr-defined]
theta.cache_clear = _coset_theta.cache_clear  # type: ignore[attr-defined]
