"""Tail-rigid boundary transformations given by finite prefix-exchange tables.

An element is a bijection between the leaves of two complete prefix codes;
the pair (u -> v) moves every boundary end u.w to v.w, copying the tail w
verbatim.  These elements form a dense subgroup of the full spheromorphism
group of the tree.  The library works with this subgroup only: the missing
elements differ from tail-rigid ones by branch automorphisms, which never
change a coset of the automorphism subgroup, an orbit of a clopen set, or
any of the statistics computed downstream.

Tables are kept in a canonical reduced form (maximal literal pieces), so
structural equality coincides with equality of boundary maps.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ValidationError
from .tree import (
    UP,
    Address,
    Ball,
    ClopenSet,
    Spike,
    all_words,
    ball_of_spike,
    children,
    check_arity,
    common_refinement,
    format_address,
    is_prefix,
    merge_families,
    normal_clopen,
    require_complete_code,
    root_code,
    spike_of_ball,
    trusted,
    validate_address,
)

Piece = tuple[Address, Address]


@dataclass(frozen=True)
class Spheromorphism:
    """A tail-rigid element in canonical reduced table form."""

    arity: int
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        pieces = _checked_pieces(self.arity, self.pieces)
        if self.pieces != _canonical_pieces(self.arity, pieces):
            raise ValidationError("table is not in canonical reduced form")

    @cached_property
    def sources(self) -> tuple[Address, ...]:
        return tuple(u for u, _ in self.pieces)

    def depth(self) -> int:
        """Largest leaf length over both codes."""
        return max(max(len(u), len(v)) for u, v in self.pieces)

    def piece_for_source(self, word: Address) -> Piece:
        for u, v in self.pieces:
            if is_prefix(u, word):
                return (u, v)
        raise DomainError(
            f"word {format_address(word)} does not reach the domain code"
        )

    def apply_word(self, word: Address) -> Address:
        """Image of a finite word that reaches the domain code."""
        u, v = self.piece_for_source(word)
        return v + word[len(u) :]


def _canonical_pieces(arity: int, pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    """Merge literal sibling families to a fixpoint; unique coarsest table."""
    return tuple(sorted(merge_families(arity, dict(pieces), _literal_family).items()))


def _literal_family(targets: list[Address]) -> Address | None:
    """The common parent of targets that are its children in child order."""
    stem = targets[0][:-1]
    if stem and all(t == stem + (c,) for c, t in enumerate(targets)):
        return stem
    return None


def _reduced(arity: int, pieces: Iterable[Piece]) -> Spheromorphism:
    """The element of a valid table, canonicalised once and not re-checked."""
    return trusted(Spheromorphism, arity, _canonical_pieces(arity, pieces))


def from_pieces(arity: int, pieces: Iterable[tuple[Iterable[int], Iterable[int]]]) -> Spheromorphism:
    """Build an element from raw (source, target) pairs, canonicalizing."""
    return _reduced(arity, _checked_pieces(arity, pieces))


def _from_addresses(arity: int, pieces: list[Piece]) -> Spheromorphism:
    """``from_pieces`` for address pairs whose addresses were each checked
    already (``parse_address`` checks them): only the table is checked."""
    check_arity(arity)
    return _reduced(arity, _paired_codes(arity, pieces))


def _checked_pieces(arity: int, pieces: Iterable[tuple[Iterable[int], Iterable[int]]]) -> list[Piece]:
    """The pieces as address pairs, checked to pair two complete prefix codes."""
    check_arity(arity)
    raw = [
        (validate_address(u, arity, "table source"), validate_address(v, arity, "table target"))
        for u, v in pieces
    ]
    return _paired_codes(arity, raw)


def _paired_codes(arity: int, raw: list[Piece]) -> list[Piece]:
    """Pairs of valid addresses, checked to pair two complete prefix codes."""
    for side, name in ((0, "source"), (1, "target")):
        seen = set()
        for piece in raw:
            leaf = piece[side]
            if not leaf:
                raise ValidationError("table pieces cannot use the root address")
            if leaf in seen:
                raise ValidationError(f"duplicate {name} {format_address(leaf)} in table")
            seen.add(leaf)
    # the leaves of each side are distinct valid addresses by now
    require_complete_code(tuple(sorted(u for u, _ in raw)), arity, "domain code")
    require_complete_code(tuple(sorted(v for _, v in raw)), arity, "range code")
    return raw


def identity(arity: int) -> Spheromorphism:
    return from_pieces(arity, [(leaf, leaf) for leaf in root_code(arity)])


def _covering(g: Spheromorphism, word: Address) -> slice:
    """The slice of ``g.pieces`` that covers ``word``: the one piece whose
    source is a prefix of it, or else every piece whose source extends it.

    Sources are sorted, so an extension of a source follows it directly and
    the extensions of ``word`` form one run after it.
    """
    sources = g.sources
    i = bisect_right(sources, word)
    if i and is_prefix(sources[i - 1], word):
        return slice(i - 1, i)
    return slice(i, bisect_left(sources, word + (g.arity + 1,), i))


def compose(g: Spheromorphism, h: Spheromorphism) -> Spheromorphism:
    """The element acting as h first, then g."""
    if g.arity != h.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {h.arity}")
    # of hv and a g-source over it, the shorter one takes the other's tail
    pieces = [
        (hu + gs[len(hv) :], gt + hv[len(gs) :])
        for hu, hv in h.pieces
        for gs, gt in g.pieces[_covering(g, hv)]
    ]
    return _reduced(g.arity, pieces)


def invert(g: Spheromorphism) -> Spheromorphism:
    # a literal family maps onto a literal family both ways, so the
    # reversed table is already reduced
    return trusted(Spheromorphism, g.arity, tuple(sorted((v, u) for u, v in g.pieces)))


def equals(g: Spheromorphism, h: Spheromorphism) -> bool:
    """Equality as boundary maps; canonical tables make this structural."""
    if g.arity != h.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {h.arity}")
    return g.pieces == h.pieces


def power(g: Spheromorphism, k: int) -> Spheromorphism:
    """g composed with itself k times (the inverse's -k times for k < 0).

    Repeated squaring: about 2 log2(k) compositions instead of k.
    """
    if k < 0:
        return power(invert(g), -k)
    acc = identity(g.arity)
    square = g
    while k:
        if k & 1:
            acc = compose(square, acc)
        k >>= 1
        if k:
            square = compose(square, square)
    return acc


def conjugate(g: Spheromorphism, h: Spheromorphism) -> Spheromorphism:
    """h g h^-1."""
    return compose(h, compose(g, invert(h)))


def act_on_clopen(g: Spheromorphism, omega: ClopenSet) -> ClopenSet:
    if g.arity != omega.arity:
        raise DomainError(f"arity mismatch: {g.arity} vs {omega.arity}")
    flags = {}
    for leaf in common_refinement(omega.carrier, g.sources):
        u, v = g.piece_for_source(leaf)
        flags[v + leaf[len(u) :]] = omega.contains_word(leaf)
    return normal_clopen(g.arity, flags)


def act_on_ball(g: Spheromorphism, ball: Ball) -> tuple[Ball, ...]:
    """Image of a ball as a tuple of pairwise disjoint balls.

    A single ball comes back whenever the cut is at or below the domain
    code; shallow cuts map to one ball per covered piece.
    """
    if not isinstance(ball, Ball):
        raise DomainError("act_on_ball expects a ball")
    validate_address(ball.cut, g.arity, "ball cut")
    return tuple(map(ball_of_spike, _act_on_spike(g, spike_of_ball(ball))))


def _act_on_spike(g: Spheromorphism, spike: Spike) -> tuple[Spike, ...]:
    """``act_on_ball`` on spikes and without its checks, for a spike of g's
    tree: the spikes of the image balls, in the same order."""
    vertex, direction = spike
    u = vertex if direction == UP else vertex + (direction,)
    at = _covering(g, u)
    s, t = g.pieces[at.start]
    if is_prefix(s, u):
        cut = t + u[len(s) :]
        return ((cut, UP),) if direction == UP else ((cut[:-1], cut[-1]),)
    # the cut is a proper prefix of several domain leaves
    pieces = g.pieces[: at.start] + g.pieces[at.stop :] if direction == UP else g.pieces[at]
    return tuple((t[:-1], t[-1]) for _, t in pieces)


def truncated_action(g: Spheromorphism, depth: int) -> dict[Address, Address]:
    """The induced map on all depth-`depth` words.  Universal test oracle."""
    if depth < g.depth():
        raise DomainError(
            f"depth {depth} is below the table depth {g.depth()}"
        )
    return {word: g.apply_word(word) for word in all_words(g.arity, depth)}


# ---------------------------------------------------------------------------
# constructors for notable elements
# ---------------------------------------------------------------------------


def finitary_automorphism(
    arity: int,
    root_perm: Sequence[int] | None = None,
    child_perms: Mapping[Address, Sequence[int]] | None = None,
) -> Spheromorphism:
    """Automorphism moving only a finite neighborhood of the root.

    `root_perm` permutes the n+1 root children; `child_perms[v]` permutes
    the n children of the non-root vertex v (keyed by the source vertex).
    All omitted permutations are trivial.
    """
    check_arity(arity)
    rp = tuple(root_perm) if root_perm is not None else tuple(range(arity + 1))
    if sorted(rp) != list(range(arity + 1)):
        raise ValidationError(f"root permutation {rp!r} is not a permutation of 0..{arity}")
    perms: dict[Address, tuple[int, ...]] = {}
    for vertex, perm in (child_perms or {}).items():
        addr = validate_address(vertex, arity, "permutation vertex")
        if not addr:
            raise ValidationError("use root_perm for the root vertex")
        p = tuple(perm)
        if sorted(p) != list(range(arity)):
            raise ValidationError(
                f"child permutation {p!r} at {format_address(addr)} is invalid"
            )
        if p != tuple(range(arity)):
            perms[addr] = p
    depth = 1 + max((len(v) for v in perms), default=0)
    pieces = []
    for word in all_words(arity, depth):
        image = [rp[word[0]]]
        for k in range(1, len(word)):
            perm = perms.get(word[:k])
            image.append(perm[word[k]] if perm else word[k])
        pieces.append((word, tuple(image)))
    return from_pieces(arity, pieces)


def thompson_generators() -> tuple[Spheromorphism, Spheromorphism, Spheromorphism]:
    """Tree-pair generators of Thompson's circle group inside arity 2.

    Returns (rotation, a, b): the order-3 rotation of the root star plus the
    two standard interval-subdivision generators, written on the coding with
    three top-level arcs.  The rotation is an automorphism; a and b are not.
    """
    rotation = from_pieces(2, [((0,), (1,)), ((1,), (2,)), ((2,), (0,))])
    a = from_pieces(
        2,
        [
            ((0, 0), (0, 0, 0)),
            ((0, 1, 0), (0, 0, 1)),
            ((0, 1, 1), (0, 1)),
            ((1,), (1,)),
            ((2,), (2,)),
        ],
    )
    b = from_pieces(
        2,
        [
            ((0, 0), (0, 0)),
            ((0, 1, 0), (0, 1, 0, 0)),
            ((0, 1, 1, 0), (0, 1, 0, 1)),
            ((0, 1, 1, 1), (0, 1, 1)),
            ((1,), (1,)),
            ((2,), (2,)),
        ],
    )
    return (rotation, a, b)


def random_element(arity: int, budget: int, seed: int) -> Spheromorphism:
    """Deterministic pseudo-random element with at most `budget` leaves.

    Draws a finitary automorphism about a quarter of the time and a random
    leaf pairing otherwise, so both automorphisms and proper spheromorphisms
    occur in any long seed sweep.
    """
    check_arity(arity)
    if budget < arity + 1:
        raise DomainError(f"budget {budget} is below the minimal table size {arity + 1}")
    rng = random.Random(f"element:{arity}:{budget}:{seed}")
    if rng.random() < 0.25:
        return _random_finitary(rng, arity, budget)
    splits = 0
    max_splits = (budget - (arity + 1)) // (arity - 1)
    if max_splits > 0:
        splits = rng.randint(0, max_splits)
    source = _random_code(rng, arity, splits)
    target = _random_code(rng, arity, splits)
    target_list = sorted(target)
    rng.shuffle(target_list)
    return from_pieces(arity, list(zip(sorted(source), target_list)))


def _random_code(rng: random.Random, arity: int, splits: int) -> list[Address]:
    code = list(root_code(arity))
    for _ in range(splits):
        leaf = code.pop(rng.randrange(len(code)))
        code.extend(children(leaf, arity))
    return code


def _random_finitary(rng: random.Random, arity: int, budget: int) -> Spheromorphism:
    while True:
        rp = list(range(arity + 1))
        rng.shuffle(rp)
        perms = {}
        for _ in range(rng.randint(0, 2)):
            depth = rng.randint(1, 2)
            vertex = (rng.randrange(arity + 1),) + tuple(
                rng.randrange(arity) for _ in range(depth - 1)
            )
            perm = list(range(arity))
            rng.shuffle(perm)
            perms[vertex] = perm
        g = finitary_automorphism(arity, rp, perms)
        if len(g.pieces) <= budget:
            return g
