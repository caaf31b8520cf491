"""Positive-definite function evaluation and Gram certification.

Three families of candidate positive-definite functions on the
prefix-exchange group are evaluated exactly:

* ``phi_nessonov`` — a product of matrix entries raised to the exact
  class-transition counts of an element, driven by a unit-diagonal
  symmetric positive-semidefinite matrix indexed by the lumped remainder
  plus the tracked orbit classes of a residue sector;
* ``phi_tensor`` — a product of inner products of unit vectors attached to
  orbit classes, with a common limit vector standing in for every class
  beyond a vertex-count cap: ``phi_nessonov`` of the vectors' Gram spec;
* ``phi_l2`` — the membership indicator of the automorphism subgroup.

Pointwise products of any of these are again candidates, and
``gram_psd_check`` certifies positive semidefiniteness of the matrix
``phi(g_i^-1 g_j)`` over a chosen element set with a self-contained cyclic
Jacobi eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .bithorn import is_automorphism
from .element import Spheromorphism, compose, equals, invert
from .errors import DomainError, InternalError, ValidationError
from .orbitstats import ClassTable, theta
from .thorn import ThornCode, check_sector, enumerate_class_codes, require_class_code
from .tree import trusted

Vector = tuple[float, ...]
Matrix = tuple[tuple[float, ...], ...]
PhiFunction = Callable[[Spheromorphism], float]

DEFAULT_PSD_TOL = 1e-8
UNIT_NORM_TOL = 1e-9
_JACOBI_EPS = 1e-12
_MAX_SWEEPS = 100


def _clean_vector(values: Iterable[float], what: str) -> Vector:
    vec = tuple(float(x) for x in values)
    if not vec:
        raise ValidationError(f"{what} must not be empty")
    for x in vec:
        if not math.isfinite(x):
            raise ValidationError(f"{what} has a non-finite entry {x!r}")
    return vec


def _unit_vector(values: Iterable[float], what: str) -> Vector:
    vec = _clean_vector(values, what)
    norm = math.sqrt(_dot(vec, vec))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(f"{what} has norm {norm!r}, expected 1")
    return vec


def _dot(a: Vector, b: Vector) -> float:
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# matrix-driven family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalSpec:
    """A unit-diagonal symmetric matrix over the lump and the tracked classes.

    Row/column 0 belongs to the lumped remainder of the residue sector and
    row/column i >= 1 to ``table.tracked[i-1]``.  The constructor enforces
    the exact structural invariants (shape, finiteness, symmetry, unit
    diagonal); positive semidefiniteness is a numerical property certified
    separately by ``validate_spec``.
    """

    table: ClassTable
    matrix: Matrix

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        size = len(self.table.tracked) + 1
        if len(rows) != size or any(len(row) != size for row in rows):
            raise ValidationError(
                f"matrix must be {size}x{size} to cover the lump and the tracked classes"
            )
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if not math.isfinite(x):
                    raise ValidationError(f"matrix entry ({i},{j}) is not finite")
                if j < i and x != rows[j][i]:
                    raise ValidationError(f"matrix is not symmetric at ({i},{j})")
            if row[i] != 1.0:
                raise ValidationError(f"diagonal entry {i} is {row[i]!r}, expected 1")

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.table.labels


@dataclass(frozen=True)
class SpecReport:
    """Outcome of the positive-semidefiniteness certificate for a spec."""

    ok: bool
    min_eigenvalue: float
    threshold: float
    messages: tuple[str, ...]


def validate_spec(spec: SphericalSpec, tol: float = DEFAULT_PSD_TOL) -> SpecReport:
    """Certify the spec matrix: min eigenvalue >= -tol * (largest |entry|)."""
    low, threshold, ok = _psd_verdict(spec.matrix, tol)
    messages: tuple[str, ...] = ()
    if not ok:
        messages = (
            f"matrix is not positive semidefinite: min eigenvalue {low:.6e} "
            f"is below the threshold {threshold:.6e}",
        )
    return SpecReport(ok, low, threshold, messages)


def _psd_verdict(matrix: Matrix, tol: float) -> tuple[float, float, bool]:
    """(min eigenvalue, threshold, passes): it passes iff the min eigenvalue
    is at least -tol * max|entry| (-tol for the zero matrix)."""
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    low = min(symmetric_eigenvalues(matrix))
    scale = max(abs(x) for row in matrix for x in row)
    threshold = -tol * (scale if scale > 0.0 else 1.0)
    return low, threshold, low >= threshold


def phi_nessonov(g: Spheromorphism, spec: SphericalSpec) -> float:
    """Product of spec entries raised to the exact transition counts of g."""
    if g.arity != spec.table.arity:
        raise DomainError("element and spec arity differ")
    return _pooled_product(spec.matrix, theta(g, spec.table).matrix)


def _pooled_product(matrix: Matrix, counts: tuple[tuple[int | None, ...], ...]) -> float:
    """Product of matrix[p][q] ** (counts[p][q] + counts[q][p]) over p < q.

    The exponents are the integer class-transition counts; factors with a
    zero exponent contribute 1 (in particular 0**0 == 1), so the value is a
    finite product even though the number of class-preserved sets is not.
    A zero entry with a positive exponent makes the value exactly 0.

    The two directions of each unordered class pair share one matrix entry
    (the matrix is symmetric), so their counts are pooled into a single
    power; inversion, which transposes the counts, then leaves the computed
    value identical bit for bit.
    """
    value = 1.0
    for p in range(len(matrix)):
        for q in range(p + 1, len(matrix)):
            exponent = counts[p][q] + counts[q][p]
            if exponent:
                value *= matrix[p][q] ** exponent
    return value


def nessonov_evaluator(spec: SphericalSpec) -> PhiFunction:
    def phi(g: Spheromorphism) -> float:
        return phi_nessonov(g, spec)

    return phi


# ---------------------------------------------------------------------------
# tensor-model family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSpec:
    """Unit vectors for orbit classes up to a vertex-count cap, plus a limit.

    Classes with at most ``cap`` vertices may carry an explicit unit vector
    in ``vectors``; every class without one — in particular every class
    larger than the cap — uses the ``limit`` vector.  The induced tracking
    table spans all classes up to the cap, so the finite product in
    ``phi_tensor`` sees every factor that can differ from 1 and can flag
    factors that touch classes beyond the cap.
    """

    arity: int
    iota: int
    cap: int
    vectors: tuple[tuple[ThornCode, Vector], ...]
    limit: Vector

    def __post_init__(self) -> None:
        check_sector(self.arity, self.iota)
        if self.cap < 1:
            raise ValidationError("the class-size cap must be at least 1")
        limit = _unit_vector(self.limit, "limit vector")
        object.__setattr__(self, "limit", limit)
        cleaned = []
        seen = set()
        for code, raw in self.vectors:
            require_class_code(code)
            if code.arity != self.arity:
                raise ValidationError(f"class {code.text!r} has the wrong arity")
            if code.residue() != self.iota:
                raise ValidationError(
                    f"class {code.text!r} has residue {code.residue()}, spec wants {self.iota}"
                )
            if code.vertex_count > self.cap:
                raise ValidationError(
                    f"class {code.text!r} has {code.vertex_count} vertices, above the cap {self.cap}"
                )
            if code in seen:
                raise ValidationError(f"class {code.text!r} is listed twice")
            seen.add(code)
            vec = _unit_vector(raw, f"vector for class {code.text!r}")
            if len(vec) != len(limit):
                raise ValidationError(
                    f"vector for class {code.text!r} has dimension {len(vec)}, "
                    f"the limit vector has {len(limit)}"
                )
            cleaned.append((code, vec))
        cleaned.sort(key=lambda pair: pair[0].token)
        object.__setattr__(self, "vectors", tuple(cleaned))

    @cached_property
    def entries(self) -> dict[ThornCode, Vector]:
        return dict(self.vectors)

    @cached_property
    def tracking_table(self) -> ClassTable:
        return trusted(
            ClassTable, self.arity, self.iota, enumerate_class_codes(self.arity, self.iota, self.cap)
        )

    def vector_for(self, code: ThornCode) -> Vector:
        return self.entries.get(code, self.limit)

    def gram_spec(self) -> SphericalSpec:
        """The matrix-driven spec with the same values: entries <e_p, e_q>.

        Index 0 carries the limit vector; tracked indices carry their listed
        vectors (or the limit where none is listed).  The diagonal is pinned
        to exactly 1 so the structural invariant holds bit-for-bit.
        """
        codes = self.tracking_table.tracked
        vecs = [self.limit] + [self.vector_for(code) for code in codes]
        rows = tuple(
            tuple(1.0 if i == j else _dot(a, b) for j, b in enumerate(vecs))
            for i, a in enumerate(vecs)
        )
        return trusted(SphericalSpec, self.tracking_table, rows)


@dataclass(frozen=True)
class TensorValue:
    """A tensor-model value plus whether any factor touched an uncapped class."""

    value: float
    cap_lumped: bool


def phi_tensor(g: Spheromorphism, tspec: TensorSpec) -> TensorValue:
    """Finite product of vector inner products over the class-changed sets.

    Sets whose class is unchanged contribute <v, v> = 1 and are skipped.
    Sets whose class stays beyond the cap on both sides contribute exactly
    <e, e> = 1 under the model and are not searched.  The product is
    ``phi_nessonov`` of the Gram spec, bit for bit.  ``cap_lumped`` reports
    whether any factor involved a class beyond the cap, i.e. whether θ moves
    a set into or out of the lump, so that the limit vector shaped the value
    instead of a per-class choice.
    """
    if g.arity != tspec.arity:
        raise DomainError("element and tensor spec arity differ")
    counts = theta(g, tspec.tracking_table).matrix
    lumped = any(counts[0][1:]) or any(row[0] for row in counts[1:])
    return TensorValue(_pooled_product(tspec.gram_spec().matrix, counts), lumped)


def tensor_evaluator(tspec: TensorSpec) -> PhiFunction:
    return nessonov_evaluator(tspec.gram_spec())


# ---------------------------------------------------------------------------
# indicator family and products
# ---------------------------------------------------------------------------


def phi_l2(g: Spheromorphism) -> float:
    """Membership indicator of the automorphism subgroup: 1 inside, 0 outside."""
    return 1.0 if is_automorphism(g) else 0.0


def phi_product(phi_a: PhiFunction, phi_b: PhiFunction) -> PhiFunction:
    """Pointwise product evaluator of two positive-definite functions."""

    def phi(g: Spheromorphism) -> float:
        return phi_a(g) * phi_b(g)

    return phi


# ---------------------------------------------------------------------------
# eigenvalues and Gram certification
# ---------------------------------------------------------------------------


def symmetric_eigenvalues(matrix: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """All eigenvalues of a real symmetric matrix, by cyclic Jacobi sweeps.

    Deterministic upper-triangle sweep order; converges when the
    off-diagonal Frobenius mass drops below 1e-12 times the matrix norm.
    Built for the small dense matrices used here (dimension <= ~64).
    """
    a = [list(map(float, row)) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValidationError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if not math.isfinite(a[i][j]):
                raise ValidationError(f"matrix entry ({i},{j}) is not finite")
            if a[i][j] != a[j][i]:
                raise ValidationError(f"matrix is not symmetric at ({i},{j})")
    if n == 0:
        return ()
    norm = math.sqrt(sum(x * x for row in a for x in row))
    if norm == 0.0:
        return tuple(0.0 for _ in range(n))
    goal = _JACOBI_EPS * norm
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= goal:
            return tuple(sorted(a[i][i] for i in range(n)))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = 1.0 / (tau + math.copysign(math.sqrt(tau * tau + 1.0), tau))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    raise InternalError("Jacobi iteration did not converge")


@dataclass(frozen=True)
class GramReport:
    """Certificate that phi(g_i^-1 g_j) is PSD on the given elements."""

    elements: tuple[Spheromorphism, ...]
    matrix: Matrix
    min_eigenvalue: float
    tolerance: float
    threshold: float
    ok: bool
    warnings: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def gram_psd_check(
    elements: Sequence[Spheromorphism],
    phi: PhiFunction,
    tol: float = DEFAULT_PSD_TOL,
) -> GramReport:
    """Numerically certify that phi is positive-definite on the elements.

    Builds M[i][j] = phi(compose(invert(g_i), g_j)) on the upper triangle
    and mirrors it (every family provided here satisfies
    phi(g) == phi(g^-1) exactly), finds the full spectrum with the Jacobi
    solver, and passes iff min eigenvalue >= -tol * max|entry|.  Duplicate
    elements are allowed; they make the matrix singular and are reported as
    a warning.
    """
    els = tuple(elements)
    if not els:
        raise DomainError("the Gram certificate needs at least one element")
    arity = els[0].arity
    for g in els[1:]:
        if g.arity != arity:
            raise DomainError("elements mix arities")
    warnings = []
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            if equals(els[i], els[j]):
                warnings.append(
                    f"elements {i} and {j} coincide; the Gram matrix is singular"
                )
    size = len(els)
    inverses = [invert(g) for g in els]
    rows = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = float(phi(compose(inverses[i], els[j])))
            rows[i][j] = value
            rows[j][i] = value
    matrix = tuple(tuple(row) for row in rows)
    low, threshold, ok = _psd_verdict(matrix, tol)
    return GramReport(els, matrix, low, tol, threshold, ok, tuple(warnings))
