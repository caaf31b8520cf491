import math
import random

import pytest

from spherotree.bithorn import coset_code, is_automorphism
from spherotree.element import (
    compose,
    equals,
    finitary_automorphism,
    identity,
    invert,
    random_element,
    thompson_generators,
    witness_nonautomorphism,
    witness_translation,
)
from spherotree.errors import DomainError, ValidationError
from spherotree.orbitstats import ClassTable, theta
from spherotree.spherical import (
    GramReport,
    SphericalSpec,
    TensorSpec,
    gram_psd_check,
    nessonov_evaluator,
    phi_l2,
    phi_nessonov,
    phi_product,
    phi_tensor,
    symmetric_eigenvalues,
    tensor_evaluator,
    validate_spec,
)
from spherotree.thorn import ThornCode, enumerate_class_codes

BALL = ThornCode(2, "(1:)")
PAIR = ThornCode(2, "(1:(1:))")
BALL_TABLE = ClassTable(2, 0, (BALL,))


def _unit(rng, dim):
    while True:
        raw = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(x * x for x in raw))
        if norm > 1e-6:
            return tuple(x / norm for x in raw)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _gram_rows(vectors):
    return tuple(
        tuple(1.0 if i == j else _dot(a, b) for j, b in enumerate(vectors))
        for i, a in enumerate(vectors)
    )


def _random_spec(rng, table, dim=3):
    vectors = [_unit(rng, dim) for _ in range(len(table.tracked) + 1)]
    return SphericalSpec(table, _gram_rows(vectors))


def _random_finitary_aut(rng, arity):
    def perm(k):
        p = list(range(k))
        rng.shuffle(p)
        return tuple(p)

    child = {}
    for v in [(c,) for c in range(arity + 1)] + [(0, 0), (1, 0)]:
        if rng.random() < 0.6:
            child[v] = perm(arity)
    return finitary_automorphism(arity, perm(arity + 1), child)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def test_jacobi_against_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random("jacobi-oracle")
    for trial in range(60):
        n = rng.randint(1, 12)
        base = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        sym = [[(base[i][j] + base[j][i]) / 2.0 for j in range(n)] for i in range(n)]
        mine = symmetric_eigenvalues(sym)
        ref = sorted(np.linalg.eigvalsh(np.array(sym)))
        scale = max(1.0, max(abs(x) for x in ref))
        assert len(mine) == n
        for a, b in zip(mine, ref):
            assert abs(a - b) <= 1e-9 * scale


def test_jacobi_edge_cases():
    assert symmetric_eigenvalues([[0.0, 0.0], [0.0, 0.0]]) == (0.0, 0.0)
    assert symmetric_eigenvalues([[5.0]]) == (5.0,)
    assert symmetric_eigenvalues([]) == ()
    with pytest.raises(ValidationError):
        symmetric_eigenvalues([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        symmetric_eigenvalues([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(ValidationError):
        symmetric_eigenvalues([[math.inf, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# matrix specs
# ---------------------------------------------------------------------------


def test_spec_structural_validation():
    SphericalSpec(BALL_TABLE, ((1.0, 0.5), (0.5, 1.0)))
    with pytest.raises(ValidationError):
        SphericalSpec(BALL_TABLE, ((1.0,),))
    with pytest.raises(ValidationError):
        SphericalSpec(BALL_TABLE, ((1.0, 0.5), (0.4, 1.0)))
    with pytest.raises(ValidationError):
        SphericalSpec(BALL_TABLE, ((0.9, 0.5), (0.5, 1.0)))
    with pytest.raises(ValidationError):
        SphericalSpec(BALL_TABLE, ((1.0, math.nan), (math.nan, 1.0)))


def test_validate_spec_examples():
    assert validate_spec(SphericalSpec(BALL_TABLE, ((1.0, 0.0), (0.0, 1.0)))).ok
    ones = validate_spec(SphericalSpec(BALL_TABLE, ((1.0, 1.0), (1.0, 1.0))))
    assert ones.ok
    assert abs(ones.min_eigenvalue) <= 1e-12
    bad = validate_spec(SphericalSpec(BALL_TABLE, ((1.0, 1.5), (1.5, 1.0))))
    assert not bad.ok
    assert abs(bad.min_eigenvalue - (-0.5)) <= 1e-12
    assert bad.messages
    with pytest.raises(ValidationError):
        validate_spec(SphericalSpec(BALL_TABLE, ((1.0, 0.0), (0.0, 1.0))), tol=-1.0)


def test_phi_nessonov_identity_and_automorphisms():
    rng = random.Random("phi-identity")
    table = ClassTable(2, 0, (BALL, PAIR))
    for _ in range(5):
        spec = _random_spec(rng, table)
        assert phi_nessonov(identity(2), spec) == 1.0
        assert phi_nessonov(_random_finitary_aut(rng, 2), spec) == 1.0
        assert phi_nessonov(witness_translation(), spec) == 1.0


def test_phi_nessonov_fixed_case():
    g0 = witness_nonautomorphism()
    for t in (0.5, 0.0, 1.0, -0.5):  # dyadic values make the power exact
        spec = SphericalSpec(BALL_TABLE, ((1.0, t), (t, 1.0)))
        assert phi_nessonov(g0, spec) == t**4
    spec = SphericalSpec(BALL_TABLE, ((1.0, 0.3), (0.3, 1.0)))
    assert abs(phi_nessonov(g0, spec) - 0.3**4) <= 1e-15


def test_phi_nessonov_biinvariance_and_class_function():
    rng = random.Random("phi-biinv")
    table = ClassTable(2, 0, (BALL, PAIR))
    specs = [_random_spec(rng, table) for _ in range(3)]
    for trial in range(25):
        g = random_element(2, rng.randint(3, 9), seed=rng.randrange(10**6))
        h = _random_finitary_aut(rng, 2)
        hp = _random_finitary_aut(rng, 2)
        moved = compose(h, compose(g, hp))
        assert coset_code(moved) == coset_code(g)
        for spec in specs:
            assert phi_nessonov(moved, spec) == phi_nessonov(g, spec)


def test_phi_nessonov_symmetry_and_bound():
    rng = random.Random("phi-sym")
    table = ClassTable(2, 0, (BALL, PAIR))
    for trial in range(20):
        spec = _random_spec(rng, table)
        g = random_element(2, rng.randint(3, 9), seed=rng.randrange(10**6))
        value = phi_nessonov(g, spec)
        assert phi_nessonov(invert(g), spec) == value
        assert abs(value) <= 1.0 + 1e-12


def test_phi_nessonov_arity_guard():
    with pytest.raises(DomainError):
        phi_nessonov(identity(3), SphericalSpec(BALL_TABLE, ((1.0, 0.0), (0.0, 1.0))))


# ---------------------------------------------------------------------------
# indicator
# ---------------------------------------------------------------------------


def test_phi_l2_witnesses():
    rotation, a, b = thompson_generators()
    assert phi_l2(identity(2)) == 1.0
    assert phi_l2(witness_translation()) == 1.0
    assert phi_l2(rotation) == 1.0
    assert phi_l2(witness_nonautomorphism()) == 0.0
    assert phi_l2(a) == 0.0
    assert phi_l2(b) == 0.0


# ---------------------------------------------------------------------------
# tensor model
# ---------------------------------------------------------------------------


def test_tensor_spec_validation():
    good = TensorSpec(2, 0, 2, ((BALL, (1.0, 0.0)),), (0.0, 1.0))
    assert good.vector_for(BALL) == (1.0, 0.0)
    assert good.vector_for(PAIR) == (0.0, 1.0)
    assert [c.text for c in good.tracking_table.tracked] == ["(1:)", "(1:(1:))"]
    with pytest.raises(ValidationError):
        TensorSpec(2, 0, 0, (), (1.0,))
    with pytest.raises(ValidationError):
        TensorSpec(2, 1, 2, (), (1.0,))
    with pytest.raises(ValidationError):
        TensorSpec(2, 0, 1, ((PAIR, (1.0, 0.0)),), (0.0, 1.0))  # above the cap
    with pytest.raises(ValidationError):
        TensorSpec(2, 0, 2, ((BALL, (1.0, 1.0)),), (0.0, 1.0))  # not unit
    with pytest.raises(ValidationError):
        TensorSpec(2, 0, 2, ((BALL, (1.0,)),), (0.0, 1.0))  # dimension clash
    with pytest.raises(ValidationError):
        TensorSpec(
            2, 0, 2, ((BALL, (1.0, 0.0)), (BALL, (0.0, 1.0))), (0.0, 1.0)
        )  # duplicate
    with pytest.raises(ValidationError):
        TensorSpec(2, 0, 2, ((ThornCode(2, "(2:)"), (1.0, 0.0)),), (0.0, 1.0))
    with pytest.raises(ValidationError):
        TensorSpec(3, 0, 2, ((BALL, (1.0, 0.0)),), (0.0, 1.0))  # arity clash


def test_phi_tensor_identity_and_fixed_case():
    tspec = TensorSpec(2, 0, 1, ((BALL, (1.0, 0.0)),), (0.6, 0.8))
    out = phi_tensor(identity(2), tspec)
    assert out.value == 1.0 and out.cap_lumped is False

    g0 = witness_nonautomorphism()
    for c in (0.6, 0.25, -0.5):
        s = math.sqrt(1.0 - c * c)
        tspec = TensorSpec(2, 0, 1, ((BALL, (1.0, 0.0)),), (c, s))
        out = phi_tensor(g0, tspec)
        assert out.cap_lumped is True
        assert abs(out.value - c**4) <= 1e-15


def test_phi_tensor_arity_guard():
    tspec = TensorSpec(2, 0, 1, ((BALL, (1.0, 0.0)),), (0.6, 0.8))
    with pytest.raises(DomainError):
        phi_tensor(identity(3), tspec)


def test_tensor_matches_matrix_spec():
    rng = random.Random("tensor-consistency")
    for trial in range(40):
        arity = 2 if trial % 4 else 3
        iota = 0 if arity == 2 else rng.randrange(arity - 1)
        cap = rng.randint(1, 3)
        dim = rng.randint(1, 3)
        pool = enumerate_class_codes(arity, iota, cap)
        listed = [code for code in pool if rng.random() < 0.7]
        tspec = TensorSpec(
            arity,
            iota,
            cap,
            tuple((code, _unit(rng, dim)) for code in listed),
            _unit(rng, dim),
        )
        g = random_element(arity, rng.randint(arity + 1, 8), seed=rng.randrange(10**6))
        tensor = phi_tensor(g, tspec)
        assert tensor.value == phi_nessonov(g, tspec.gram_spec())
        counts = theta(g, tspec.tracking_table).matrix
        size = len(counts)
        assert tensor.cap_lumped == any(counts[0][j] or counts[j][0] for j in range(1, size))


def test_phi_tensor_is_exactly_inversion_symmetric():
    rng = random.Random("tensor-inverse")
    pool = enumerate_class_codes(2, 0, 3)
    tspec = TensorSpec(2, 0, 3, tuple((code, _unit(rng, 3)) for code in pool[:-1]), _unit(rng, 3))
    for seed in range(12):
        g = random_element(2, 9, seed=f"tensor-inverse:{seed}")
        assert phi_tensor(g, tspec) == phi_tensor(invert(g), tspec)


def test_gram_spec_is_psd():
    rng = random.Random("tensor-psd")
    tspec = TensorSpec(
        2,
        0,
        2,
        ((BALL, _unit(rng, 3)), (PAIR, _unit(rng, 3))),
        _unit(rng, 3),
    )
    assert validate_spec(tspec.gram_spec()).ok


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_with_indicator_zeroes_non_automorphisms():
    rng = random.Random("product-l2")
    spec = _random_spec(rng, BALL_TABLE)
    phi = phi_product(nessonov_evaluator(spec), phi_l2)
    assert phi(identity(2)) == 1.0
    assert phi(witness_translation()) == 1.0
    assert phi(witness_nonautomorphism()) == 0.0


def test_product_of_matrix_specs_squares_entries():
    rng = random.Random("product-square")
    table = ClassTable(2, 0, (BALL, PAIR))
    spec = _random_spec(rng, table)
    squared = SphericalSpec(
        table,
        tuple(
            tuple(1.0 if i == j else x * x for j, x in enumerate(row))
            for i, row in enumerate(spec.matrix)
        ),
    )
    phi2 = phi_product(nessonov_evaluator(spec), nessonov_evaluator(spec))
    for seed in range(10):
        g = random_element(2, 7, seed=seed)
        a = phi2(g)
        b = phi_nessonov(g, squared)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Gram certification
# ---------------------------------------------------------------------------


def test_gram_all_automorphisms_is_all_ones():
    rng = random.Random("gram-aut")
    spec = _random_spec(rng, BALL_TABLE)
    els = [identity(2), witness_translation()] + [
        _random_finitary_aut(rng, 2) for _ in range(3)
    ]
    report = gram_psd_check(els, nessonov_evaluator(spec))
    assert all(x == 1.0 for row in report.matrix for x in row)
    assert report.ok
    np = pytest.importorskip("numpy")
    ref = sorted(np.linalg.eigvalsh(np.array(report.matrix)))
    assert abs(report.min_eigenvalue - ref[0]) <= 1e-9
    assert abs(max(symmetric_eigenvalues(report.matrix)) - len(els)) <= 1e-9


def test_gram_l2_identity_matrix():
    report = gram_psd_check(
        [identity(2), witness_nonautomorphism()], phi_l2
    )
    assert report.matrix == ((1.0, 0.0), (0.0, 1.0))
    assert report.ok
    assert report.verdict == "PASS"
    assert not report.warnings


def test_gram_duplicate_warning():
    g = witness_nonautomorphism()
    report = gram_psd_check([g, g], phi_l2)
    assert report.warnings
    assert report.ok  # singular but PSD


def test_gram_random_suites_pass():
    np = pytest.importorskip("numpy")
    rng = random.Random("gram-random")
    table = ClassTable(2, 0, (BALL, PAIR))
    for trial in range(4):
        spec = _random_spec(rng, table)
        els = [
            random_element(2, rng.randint(3, 8), seed=rng.randrange(10**6))
            for _ in range(5)
        ]
        for phi in (
            nessonov_evaluator(spec),
            phi_l2,
            phi_product(nessonov_evaluator(spec), phi_l2),
        ):
            report = gram_psd_check(els, phi)
            assert report.ok, report
            ref = sorted(np.linalg.eigvalsh(np.array(report.matrix)))
            assert abs(report.min_eigenvalue - ref[0]) <= 1e-9 * max(
                1.0, abs(ref[0])
            )


def test_gram_guards():
    with pytest.raises(DomainError):
        gram_psd_check([], phi_l2)
    with pytest.raises(DomainError):
        gram_psd_check([identity(2), identity(3)], phi_l2)
    with pytest.raises(ValidationError):
        gram_psd_check([identity(2)], phi_l2, tol=-1.0)


def test_gram_tensor_family():
    rng = random.Random("gram-tensor")
    tspec = TensorSpec(
        2, 0, 2, ((BALL, _unit(rng, 2)), (PAIR, _unit(rng, 2))), _unit(rng, 2)
    )
    els = [random_element(2, 6, seed=s) for s in range(4)]
    report = gram_psd_check(els, tensor_evaluator(tspec))
    assert report.ok
