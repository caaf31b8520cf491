"""Acceptance suite: seven numbered criteria, one printed verdict line each.

Each criterion emits ``ACCEPTANCE <k> PASS|FAIL runtime=<t>s``.  The line is
printed immediately (visible with ``-s`` and in failure capture) and also
routed through the ``acceptance_log`` fixture so the conftest terminal hook
echoes every verdict at the end of the run even when output is captured.
Runtimes are reported, never asserted.
"""

import random
import time

from spherotree import (
    UP,
    ClassTable,
    ClopenSet,
    SphericalSpec,
    SubThorn,
    TensorSpec,
    ThornCode,
    act_on_clopen,
    bithorn_of,
    classify_clopen,
    compose,
    coset_code,
    equals,
    finitary_automorphism,
    gram_psd_check,
    identity,
    invert,
    is_automorphism,
    nessonov_evaluator,
    phi_l2,
    phi_nessonov,
    phi_product,
    phi_tensor,
    power,
    random_element,
    reduce_bithorn,
    theta,
    thompson_generators,
    truncated_action,
    upsilon,
)
from spherotree.thorn import enumerate_class_codes
from spherotree.tree import children

from oracles import (
    _connected_subsets,
    balance_defects,
    preserves_all_balls,
    scan_reduce_bithorn,
    theta_bruteforce,
    witness_nonautomorphism,
    witness_translation,
)

BALL2 = ThornCode(2, "(1:)")
PAIR2 = ThornCode(2, "(1:(1:))")


class _criterion:
    """Times a criterion body and records its verdict line unconditionally."""

    def __init__(self, number: int, budget_seconds: float, sink: list):
        self.number = number
        self.budget = budget_seconds
        self.sink = sink

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line = (
            f"ACCEPTANCE {self.number} {status} "
            f"runtime={elapsed:.1f}s (budget {self.budget:.0f}s)"
        )
        self.sink.append(line)
        print(line, flush=True)
        return False


def _all_words(arity: int, depth: int):
    words = [(c,) for c in range(arity + 1)]
    for _ in range(depth - 1):
        words = [w + (c,) for w in words for c in range(arity)]
    return words


def _sample_words(rng: random.Random, arity: int, depth: int, count: int):
    return [
        (rng.randrange(arity + 1),)
        + tuple(rng.randrange(arity) for _ in range(depth - 1))
        for _ in range(count)
    ]


def _words_for(rng: random.Random, arity: int, depth: int, cap: int = 800):
    if (arity + 1) * arity ** (depth - 1) <= cap:
        return _all_words(arity, depth)
    return _sample_words(rng, arity, depth, 400)


def _random_finitary(rng: random.Random, arity: int):
    root_perm = list(range(arity + 1))
    rng.shuffle(root_perm)
    child_perms = {}
    for spot in [(rng.randrange(arity + 1),), (0, 0), (1, 0)]:
        perm = list(range(arity))
        rng.shuffle(perm)
        child_perms[spot] = tuple(perm)
    return finitary_automorphism(arity, tuple(root_perm), child_perms)


def _random_clopen(rng: random.Random, arity: int, max_depth: int = 3) -> ClopenSet:
    flags = {}
    stack = [(c,) for c in range(arity + 1)]
    while stack:
        leaf = stack.pop()
        if len(leaf) < max_depth and rng.random() < 0.4:
            stack.extend(children(leaf, arity))
        else:
            flags[leaf] = rng.random() < 0.5
    if not any(flags.values()):
        flags[next(iter(flags))] = True
    if all(flags.values()):
        flags[next(iter(flags))] = False
    return ClopenSet.from_marks(arity, flags)


def _unit_vector(rng: random.Random, dim: int):
    while True:
        raw = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = sum(x * x for x in raw) ** 0.5
        if norm > 1e-6:
            return tuple(x / norm for x in raw)


def _random_psd_spec(rng: random.Random, table: ClassTable, dim: int = 3) -> SphericalSpec:
    size = len(table.tracked) + 1
    vecs = [_unit_vector(rng, dim) for _ in range(size)]
    rows = tuple(
        tuple(
            1.0 if i == j else sum(a * b for a, b in zip(vecs[i], vecs[j]))
            for j in range(size)
        )
        for i in range(size)
    )
    # exact float symmetry: mirror the upper triangle
    sym = [list(row) for row in rows]
    for i in range(size):
        for j in range(i + 1, size):
            sym[j][i] = sym[i][j]
    return SphericalSpec(table, tuple(tuple(row) for row in sym))


# ---------------------------------------------------------------------------
# 1. group law against truncated word maps
# ---------------------------------------------------------------------------


def test_acceptance_1_group_law_oracle(acceptance_log):
    with _criterion(1, 10, acceptance_log):
        rng = random.Random("acceptance-1")
        for case in range(500):
            arity = 2 if case % 2 == 0 else 3
            budget = rng.randint(arity + 1, 12)
            g = random_element(arity, budget, seed=f"a1-g-{case}")
            h = random_element(arity, budget, seed=f"a1-h-{case}")
            if case % 2 == 0:
                # pair: compose and invert against word-level application
                gh = compose(g, h)
                depth = max(g.depth(), h.depth()) + 3
                depth = max(depth, g.depth() + h.depth() + 1)
                for w in _words_for(rng, arity, depth):
                    assert gh.apply_word(w) == g.apply_word(h.apply_word(w))
                gi = invert(g)
                for w in _words_for(rng, arity, g.depth() + 3):
                    assert gi.apply_word(g.apply_word(w)) == w
                # equals agrees with truncated-map equality both ways
                same = compose(gh, invert(h))
                d_eq = max(same.depth(), g.depth()) + 3
                assert equals(same, g)
                assert truncated_action(same, d_eq) == truncated_action(g, d_eq)
                d_gh = max(g.depth(), h.depth()) + 3
                assert equals(g, h) == (
                    truncated_action(g, d_gh) == truncated_action(h, d_gh)
                )
            else:
                # triple: word chaining through three factors, plus associativity
                k = random_element(arity, budget, seed=f"a1-k-{case}")
                left = compose(compose(g, h), k)
                right = compose(g, compose(h, k))
                assert equals(left, right)
                depth = g.depth() + h.depth() + k.depth() + 1
                for w in _sample_words(rng, arity, depth, 40):
                    assert left.apply_word(w) == g.apply_word(
                        h.apply_word(k.apply_word(w))
                    )


# ---------------------------------------------------------------------------
# 2. double-coset canonical form
# ---------------------------------------------------------------------------


def test_acceptance_2_coset_code_invariance(acceptance_log):
    with _criterion(2, 30, acceptance_log):
        rng = random.Random("acceptance-2")
        for case in range(300):
            arity = 2 if case % 2 == 0 else 3
            g = random_element(arity, rng.randint(arity + 1, 9), seed=f"a2-{case}")
            token = coset_code(g).token
            for _ in range(2):
                f1 = _random_finitary(rng, arity)
                f2 = _random_finitary(rng, arity)
                moved = compose(f1, compose(g, f2))
                assert coset_code(moved).token == token
            pair = bithorn_of(g)
            reduced = reduce_bithorn(pair)
            for i in range(5):
                cuts = random.Random(f"a2-order-{case}-{i}")
                assert scan_reduce_bithorn(pair, cuts) == reduced


# ---------------------------------------------------------------------------
# 3. automorphism detection against the extendability oracle
# ---------------------------------------------------------------------------


def test_acceptance_3_automorphism_detection(acceptance_log):
    with _criterion(3, 10, acceptance_log):
        rng = random.Random("acceptance-3")
        assert is_automorphism(witness_translation())
        assert preserves_all_balls(witness_translation())
        assert not is_automorphism(witness_nonautomorphism())
        assert not preserves_all_balls(witness_nonautomorphism())
        for case in range(300):
            arity = 2 if case % 2 == 0 else 3
            g = random_element(arity, rng.randint(arity + 1, 8), seed=f"a3-{case}")
            if case % 5 == 0:
                g = compose(g, _random_finitary(rng, arity))
            if case % 7 == 0:
                g = _random_finitary(rng, arity)
            assert is_automorphism(g) == preserves_all_balls(g)


# ---------------------------------------------------------------------------
# 4. thorn/clopen calculus
# ---------------------------------------------------------------------------


def test_acceptance_4_thorn_clopen_calculus(acceptance_log):
    with _criterion(4, 20, acceptance_log):
        rng = random.Random("acceptance-4")
        # residue invariance under the action, and classify's residue
        for case in range(1000):
            arity = (2, 3, 4)[case % 3]
            omega = _random_clopen(rng, arity)
            g = random_element(arity, rng.randint(arity + 1, 7), seed=f"a4-{case}")
            image = act_on_clopen(g, omega)
            assert upsilon(image) == upsilon(omega)
            if case % 4 == 0:
                assert classify_clopen(omega).residue() == upsilon(omega)
        # perfect census: every connected vertex set inside depth 3 with all
        # free directions spiked is perfect and has V(n-1)+2 spikes
        caps = {2: 6, 3: 4, 4: 3}  # vertex-count caps keep n=3,4 tractable
        for arity, cap in caps.items():
            universe = set(_all_addresses(arity, 3))
            seen = 0
            for size in range(1, cap + 1):
                for verts in _connected_subsets(universe, size, arity):
                    spikes = set()
                    for v in verts:
                        if v and v[:-1] not in verts:
                            spikes.add((v, UP))
                        for w in children(v, arity):
                            if w not in verts:
                                spikes.add((v, w[-1]))
                    t = SubThorn(arity, frozenset(verts), frozenset(spikes))
                    assert t.is_perfect
                    assert len(spikes) == size * (arity - 1) + 2
                    seen += 1
            assert seen > 2 * len(universe)  # the census is not vacuous


def _all_addresses(arity: int, depth: int):
    out = [()]
    layer = [()]
    for _ in range(depth):
        layer = [w + (c,) for w in layer for c in range(arity + 1 if not w else arity)]
        out.extend(layer)
    return out


# ---------------------------------------------------------------------------
# 5. transition counts against the brute-force oracle
# ---------------------------------------------------------------------------


def test_acceptance_5_theta_against_bruteforce(acceptance_log):
    with _criterion(5, 60, acceptance_log):
        one_spike = ClassTable(2, 0, (BALL2,))
        two_spike = ClassTable(2, 0, (PAIR2,))
        accepted = 0
        case = 0
        while accepted < 50:
            g = random_element(2, 4, seed=f"a5-{case}")
            case += 1
            if g.depth() > 2:
                continue  # the depth-4 sweep needs table depth + diameter + 1 <= 4
            accepted += 1
            for table in (one_spike, two_spike):
                exact = theta_bruteforce(g, table, 4)
                assert not balance_defects(exact)  # counted both ways, no law used
                assert theta(g, table) == exact
                assert theta_bruteforce(g, table, 5) == exact
        # fixed witness, recomputed by the brute-force oracle
        g0 = witness_nonautomorphism()
        fixed = theta_bruteforce(g0, one_spike, 5)
        assert fixed.entry(BALL2.token, "P") == 2
        assert fixed.entry("P", BALL2.token) == 2
        assert theta(g0, one_spike) == fixed
        # inversion transposes the counts
        tables = {
            2: ClassTable(2, 0, (BALL2, PAIR2)),
            3: ClassTable(3, 1, (ThornCode(3, "(1:)"),)),
        }
        for case in range(200):
            arity = 2 if case % 2 == 0 else 3
            g = random_element(arity, max(arity + 1, 3 + case % 5), seed=f"a5-t-{case}")
            table = tables[arity]
            assert theta(invert(g), table) == theta(g, table).transpose()


# ---------------------------------------------------------------------------
# 6. spherical functions
# ---------------------------------------------------------------------------


def test_acceptance_6_spherical_suite(acceptance_log):
    with _criterion(6, 60, acceptance_log):
        rng = random.Random("acceptance-6")
        table2 = ClassTable(2, 0, (BALL2, PAIR2))
        spec2 = _random_psd_spec(rng, table2)
        tspec2 = TensorSpec(2, 0, 1, ((BALL2, (1.0, 0.0)),), _unit_vector(rng, 2))

        # identity maps to 1 in all three families
        for arity in (2, 3):
            assert phi_l2(identity(arity)) == 1.0
        assert phi_nessonov(identity(2), spec2) == 1.0
        assert phi_tensor(identity(2), tspec2).value == 1.0

        # nessonov biinvariance under finitary automorphisms, exactly
        for case in range(40):
            g = random_element(2, rng.randint(3, 8), seed=f"a6-bi-{case}")
            f1 = _random_finitary(rng, 2)
            f2 = _random_finitary(rng, 2)
            moved = compose(f1, compose(g, f2))
            assert phi_nessonov(moved, spec2) == phi_nessonov(g, spec2)

        # the indicator family: 1 on automorphisms, 0 outside
        rotation, a, b = thompson_generators()
        assert phi_l2(witness_translation()) == 1.0
        assert phi_l2(rotation) == 1.0
        assert phi_l2(_random_finitary(rng, 2)) == 1.0
        assert phi_l2(witness_nonautomorphism()) == 0.0
        assert phi_l2(a) == 0.0
        assert phi_l2(b) == 0.0

        # tensor evaluation equals the matrix evaluation of the Gram spec
        for case in range(100):
            arity, cap = (2, 1 + case % 3) if case % 4 else (3, 1 + case % 2)
            iota = 0 if arity == 2 else (case // 4) % 2
            dim = 1 + case % 3
            codes = enumerate_class_codes(arity, iota, cap)
            listed = tuple(
                (code, _unit_vector(rng, dim))
                for code in codes
                if rng.random() < 0.7
            )
            tspec = TensorSpec(arity, iota, cap, listed, _unit_vector(rng, dim))
            g = random_element(arity, rng.randint(arity + 1, 7), seed=f"a6-c-{case}")
            assert phi_tensor(g, tspec).value == phi_nessonov(g, tspec.gram_spec())

        # PSD certificates for 20 random 6-element sets, three families
        for case in range(20):
            elements = [
                random_element(2, rng.randint(3, 6), seed=f"a6-g-{case}-{i}")
                for i in range(6)
            ]
            spec_a = _random_psd_spec(rng, table2)
            spec_b = _random_psd_spec(rng, table2)
            families = [
                nessonov_evaluator(spec_a),
                phi_l2,
                phi_product(nessonov_evaluator(spec_a), phi_l2),
                phi_product(nessonov_evaluator(spec_a), nessonov_evaluator(spec_b)),
            ]
            for phi in families:
                report = gram_psd_check(elements, phi, tol=1e-8)
                assert report.ok, report.min_eigenvalue


# ---------------------------------------------------------------------------
# 7. the standard generators
# ---------------------------------------------------------------------------


def test_acceptance_7_thompson_generators(acceptance_log):
    with _criterion(7, 5, acceptance_log):
        rotation, a, b = thompson_generators()
        for g in (rotation, a, b):
            assert g.arity == 2  # construction itself validates the tables
            assert equals(compose(g, invert(g)), identity(2))
            assert equals(compose(invert(g), g), identity(2))
        assert is_automorphism(rotation)
        assert not is_automorphism(a)
        assert not is_automorphism(b)
        assert equals(power(rotation, 3), identity(2))
        assert not equals(power(rotation, 2), identity(2))
