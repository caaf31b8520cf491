"""Rooted coordinate model of the homogeneous tree with valence n+1.

Chart: the root has n+1 children labeled 0..n and every other vertex has n
children labeled 0..n-1, so each vertex address is a finite label path from
the root (the empty path is the root itself).  The chart is bookkeeping only;
everything canonical downstream is independent of it.

A nonempty address u also names the edge joining u to its parent.  Cutting
that edge in the middle splits the boundary into two complementary balls:
``Down(u)`` (the branch away from the root, all boundary words with prefix u)
and ``Up(u)`` (everything else).  Clopen boundary sets are stored as a marked
complete prefix code in a unique normal form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import DomainError, ValidationError

Address = tuple[int, ...]

ROOT: Address = ()

MAX_TEXT_ARITY = 9  # single-digit labels keep the text formats unambiguous

T = TypeVar("T")


def trusted(cls: type[T], *values) -> T:
    """An instance of the frozen dataclass ``cls`` built without its checks.

    For objects the library derives from objects that are already valid,
    which are sound by construction.  Input from outside the library goes
    through the validating constructor ``cls(...)`` instead.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


def check_arity(arity: int) -> int:
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise ValidationError(f"arity must be an integer, got {arity!r}")
    if arity < 2:
        raise ValidationError(f"arity must be at least 2, got {arity}")
    if arity > MAX_TEXT_ARITY:
        raise ValidationError(
            f"arity {arity} exceeds the supported maximum {MAX_TEXT_ARITY}"
        )
    return arity


def validate_address(word: Iterable[int], arity: int, what: str = "address") -> Address:
    """Check the chart constraints: first label in 0..n, later labels in 0..n-1."""
    addr = tuple(word)
    for pos, label in enumerate(addr):
        if type(label) is not int:
            raise ValidationError(f"{what} {addr!r}: label at position {pos} is not an integer")
        bound = arity if pos == 0 else arity - 1
        if not 0 <= label <= bound:
            raise ValidationError(
                f"{what} {format_address(addr)!r}: label {label} at position {pos} "
                f"is out of range 0..{bound}"
            )
    return addr


def parse_address(text: str, arity: int, what: str = "address") -> Address:
    """Parse a string of ASCII digits; '.' denotes the root."""
    if text == ".":
        return ROOT
    # str.isdigit alone admits other scripts' digits and superscripts
    if not text or not text.isascii() or not text.isdigit():
        raise ValidationError(f"{what} {text!r} is not a digit string")
    return validate_address(tuple(int(ch) for ch in text), arity, what)


def format_address(addr: Address) -> str:
    return "".join(str(label) for label in addr) if addr else "."


@lru_cache(maxsize=262144)
def children(addr: Address, arity: int) -> tuple[Address, ...]:
    bound = arity + 1 if not addr else arity
    return tuple(addr + (c,) for c in range(bound))


@lru_cache(maxsize=262144)
def neighbors(addr: Address, arity: int) -> tuple[Address, ...]:
    out = children(addr, arity)
    if addr:
        out = (addr[:-1],) + out
    return out


def is_prefix(shorter: Address, longer: Address) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def common_prefix(a: Address, b: Address) -> Address:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return a[:k]


def tree_path(a: Address, b: Address) -> tuple[Address, ...]:
    """All vertices on the geodesic from a to b, inclusive."""
    meet = common_prefix(a, b)
    up = [a[:k] for k in range(len(a), len(meet) - 1, -1)]
    down = [b[:k] for k in range(len(meet) + 1, len(b) + 1)]
    return tuple(up) + tuple(down)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Ball:
    """One of the two boundary branches cut off by the mid-point of an edge.

    ``up=False`` is the branch under ``cut`` (all boundary words with that
    prefix); ``up=True`` is the complementary branch containing the root side.
    """

    up: bool
    cut: Address

    def __post_init__(self) -> None:
        if not self.cut:
            raise ValidationError("a ball needs a nonempty cut address")

    def text(self) -> str:
        return ("~" if self.up else "") + format_address(self.cut)

    def contains_word(self, word: Address) -> bool:
        """Membership of the cylinder of ``word``; word must not be shorter than cut."""
        if len(word) < len(self.cut):
            raise DomainError(
                f"word {format_address(word)} is shorter than the cut of {self.text()}"
            )
        inside = is_prefix(self.cut, word)
        return inside != self.up


def down(cut: Address) -> Ball:
    return Ball(False, cut)


def up(cut: Address) -> Ball:
    return Ball(True, cut)


def parse_ball(text: str, arity: int) -> Ball:
    raised = text.startswith("~")
    addr = parse_address(text[1:] if raised else text, arity, what="ball cut")
    if not addr:
        raise ValidationError("a ball cut cannot be the root")
    return Ball(raised, addr)


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


def balls_disjoint(a: Ball, b: Ball) -> bool:
    return ball_relation(a, b) == "disjoint"


# ---------------------------------------------------------------------------
# complete prefix codes
# ---------------------------------------------------------------------------


def validate_prefix_code(leaves: Iterable[Address], arity: int) -> bool:
    """True iff the leaves form a complete prefix code of the boundary.

    Malformed addresses raise ``ValidationError``; an incomplete or
    overlapping code just returns False.
    """
    check_arity(arity)
    return _prefix_code_ok(tuple(leaves), arity)


@lru_cache(maxsize=65536)
def _prefix_code_ok(leaves: tuple, arity: int) -> bool:
    code = [validate_address(leaf, arity, what="leaf") for leaf in leaves]
    if not code:
        return False
    seen = set()
    for leaf in code:
        if not leaf or leaf in seen:
            return False
        seen.add(leaf)
    # trie walk: every node reachable from the root must either be a leaf or
    # have every child covered; each present node fills one slot of its
    # parent, and children are distinct, so counting slots suffices
    interior = set()
    for leaf in seen:
        for k in range(len(leaf)):
            interior.add(leaf[:k])
    if interior & seen:
        return False
    covered = Counter(node[:-1] for node in chain(interior, seen) if node)
    for node in interior:
        if covered[node] != (arity + 1 if not node else arity):
            return False
    return True


def require_prefix_code(leaves: Iterable[Address], arity: int, what: str = "code") -> tuple[Address, ...]:
    code = tuple(sorted(set(leaves)))
    if not validate_prefix_code(code, arity):
        raise ValidationError(f"{what} is not a complete prefix code")
    return code


def refine(code_a: Iterable[Address], code_b: Iterable[Address], arity: int) -> tuple[Address, ...]:
    """Coarsest common refinement of two complete prefix codes."""
    return common_refinement(
        require_prefix_code(code_a, arity, "first code"),
        require_prefix_code(code_b, arity, "second code"),
    )


def common_refinement(a: Sequence[Address], b: Sequence[Address]) -> tuple[Address, ...]:
    """``refine`` without the checks, for codes known to be complete."""
    b_set = set(b)
    out = set()
    for leaf in a:
        # keep the finer side: the leaf itself where b is coarser there,
        # otherwise every b-leaf properly below it
        if any(leaf[:k] in b_set for k in range(len(leaf) + 1)):
            out.add(leaf)
        else:
            out.update(other for other in b if is_prefix(leaf, other))
    return tuple(sorted(out))


def merge_families(arity: int, table: dict[Address, T], rule: Callable[[list[T]], T | None]) -> dict[Address, T]:
    """Merge complete sibling families of a leaf-keyed table to a fixpoint.

    ``rule`` gets the values of a complete family under a non-root stem, in
    child order, and returns the stem's value, or None to keep the family
    apart.  The root family is never merged.  A family's values are fixed
    once all its members exist and merges touch disjoint families, so the
    fixpoint does not depend on the order.  Stems are taken deepest level
    first, so a family is final when its stem's turn comes and each stem is
    tested once.  ``table`` is changed in place.
    """
    levels = [set() for _ in range(max(map(len, table), default=0))]  # stems by length
    for leaf in table:
        levels[len(leaf) - 1].add(leaf[:-1])
    for k in range(len(levels) - 1, 0, -1):
        for stem in levels[k]:
            family = children(stem, arity)
            if all(c in table for c in family):
                merged = rule([table[c] for c in family])
                if merged is not None:
                    for c in family:
                        del table[c]
                    table[stem] = merged
                    levels[k - 1].add(stem[:-1])
    return table


def root_code(arity: int) -> tuple[Address, ...]:
    return tuple((c,) for c in range(arity + 1))


# ---------------------------------------------------------------------------
# clopen sets
# ---------------------------------------------------------------------------


class _FullBoundary:
    """Sentinel for the improper 'everything' answer of thorn reconstruction."""

    _instance = None

    def __new__(cls) -> "_FullBoundary":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FULL_BOUNDARY"


FULL_BOUNDARY = _FullBoundary()


@dataclass(frozen=True)
class ClopenSet:
    """A proper nonempty clopen boundary set in carrier normal form.

    The carrier is the unique coarsest complete prefix code on which the set
    is a union of leaf cylinders: sibling families of leaves that are fully
    inside or fully outside are merged into their parent, except that the
    root family of n+1 leaves is never merged away.
    """

    arity: int
    carrier: tuple[Address, ...]
    marks: frozenset[Address]

    @staticmethod
    def from_marks(arity: int, marked: Mapping[Address, bool] | Iterable[tuple[Address, bool]]) -> "ClopenSet":
        check_arity(arity)
        table = dict(marked)
        code = require_prefix_code(table.keys(), arity, "carrier")
        if len(code) != len(table):
            raise ValidationError("carrier has repeated leaves")
        return normal_clopen(
            arity, {validate_address(k, arity, "leaf"): bool(v) for k, v in table.items()}
        )

    @staticmethod
    def from_balls(arity: int, balls: Iterable[Ball]) -> "ClopenSet":
        """Union of pairwise disjoint balls."""
        check_arity(arity)
        blist = list(balls)
        if not blist:
            raise DomainError("clopen set is empty")
        for i, a in enumerate(blist):
            validate_address(a.cut, arity, "ball cut")
            for b in blist[i + 1 :]:
                if not balls_disjoint(a, b):
                    raise DomainError(f"balls {a.text()} and {b.text()} overlap")
        split = {b.cut[:k] for b in blist for k in range(1, len(b.cut))}
        carrier = []
        stack = list(root_code(arity))
        while stack:
            leaf = stack.pop()
            if leaf in split:
                stack.extend(children(leaf, arity))
            else:
                carrier.append(leaf)
        return normal_clopen(
            arity, {leaf: any(is_prefix(b.cut, leaf) != b.up for b in blist) for leaf in carrier}
        )

    def leaf_flags(self) -> tuple[tuple[Address, bool], ...]:
        return tuple((leaf, leaf in self.marks) for leaf in self.carrier)

    def marked_leaves(self) -> tuple[Address, ...]:
        return tuple(leaf for leaf in self.carrier if leaf in self.marks)

    def contains_word(self, word: Address) -> bool:
        """Cylinder membership; the word must reach carrier depth."""
        cset = self._carrier_set
        for k in range(len(word) + 1):
            pre = word[:k]
            if pre in cset:
                return pre in self.marks
        raise DomainError(f"word {format_address(word)} is shorter than the carrier")

    @cached_property
    def _carrier_set(self) -> frozenset[Address]:
        return frozenset(self.carrier)

    def depth(self) -> int:
        return max(len(leaf) for leaf in self.carrier)

    def is_single_ball(self) -> bool:
        """A clopen set is a ball iff exactly one leaf is marked or exactly one is not."""
        return len(self.marks) == 1 or len(self.carrier) - len(self.marks) == 1


def normal_clopen(arity: int, flags: dict[Address, bool]) -> ClopenSet:
    """Normal form of the set marked on a complete prefix code (unchecked).

    ``flags`` is merged in place.  Raises ``DomainError`` when the marks
    select nothing or everything.
    """
    merge_families(arity, flags, lambda marks: marks[0] if len(set(marks)) == 1 else None)
    marks = frozenset(leaf for leaf, marked in flags.items() if marked)
    if not marks:
        raise DomainError("clopen set is empty")
    if len(marks) == len(flags):
        raise DomainError("clopen set is the full boundary")
    return ClopenSet(arity, tuple(sorted(flags)), marks)


def complement(omega: ClopenSet) -> ClopenSet:
    return ClopenSet(omega.arity, omega.carrier, frozenset(set(omega.carrier) - omega.marks))


def upsilon(omega: ClopenSet) -> int:
    """Ball count of any disjoint-ball decomposition, reduced mod n-1.

    Splitting one ball into n changes the count by n-1, so the residue does
    not depend on the decomposition; the marked leaves of the normal form are
    one such decomposition.
    """
    if not isinstance(omega, ClopenSet):
        raise DomainError("upsilon is only defined for proper nonempty clopen sets")
    return len(omega.marks) % (omega.arity - 1)


def depth_members(omega: ClopenSet, depth: int) -> frozenset[Address]:
    """All depth-``depth`` words inside the set.  Independent oracle helper."""
    if depth < omega.depth():
        raise DomainError(f"depth {depth} is below the carrier depth {omega.depth()}")
    out = []
    for leaf in omega.marked_leaves():
        out.extend(_extend_all(leaf, depth, omega.arity))
    return frozenset(out)


def all_words(arity: int, depth: int) -> Iterator[Address]:
    if depth == 0:
        yield ROOT
        return
    for first in range(arity + 1):
        for tail in _tails(arity, depth - 1):
            yield (first,) + tail


def _tails(arity: int, length: int) -> Iterator[Address]:
    if length == 0:
        yield ()
        return
    for tail in _tails(arity, length - 1):
        for c in range(arity):
            yield tail + (c,)


def _extend_all(leaf: Address, depth: int, arity: int) -> Iterator[Address]:
    for tail in _tails(arity, depth - len(leaf)):
        yield leaf + tail
