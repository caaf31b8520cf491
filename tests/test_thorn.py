import random
import sys
from collections import Counter

import pytest

from spherotree.bithorn import CosetCode, minimal_bithorn
from spherotree.element import random_element
from spherotree.errors import DomainError, ValidationError
from spherotree.thorn import (
    UP,
    _center_rooted_text,
    _class_texts,
    _shape_is_shared,
    _rooted_texts,
    _spanned,
    AbstractThorn,
    SubThorn,
    ThornCode,
    abstract_from_code,
    ball_of_spike,
    canonical_code,
    class_code_defect,
    classify_balls,
    classify_clopen,
    empty_subthorn,
    enumerate_class_codes,
    enumerate_embeddings,
    maximal_ball_thorn,
    reduce_subthorn,
    subthorn_from_balls,
)
from spherotree.tree import (
    ROOT,
    Ball,
    ClopenSet,
    all_words,
    balls_disjoint,
    down,
    parse_address,
    spike_of_ball,
    up,
    upsilon,
)

from oracles import (
    _isomorphic,
    _maximal_balls,
    ball_contains_word,
    ball_relation,
    depth_members,
    every_vector_class_codes,
    free_trees,
    labeled_trees,
    pairwise_path_span,
    pruefer_class_codes,
    reference_code_text,
    rooted_encoder,
    skeleton_diameter,
    split_ball,
    subset_embeddings,
    subthorn_route_code,
)


def A(text, arity=2):
    return parse_address(text, arity)


def _random_clopen(rng, arity, max_depth=3):
    while True:
        leaves = [(c,) for c in range(arity + 1)]
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(len(leaves))
            leaf = leaves.pop(i)
            if len(leaf) >= max_depth:
                leaves.append(leaf)
                continue
            leaves.extend(leaf + (c,) for c in range(arity))
        flags = {leaf: rng.random() < 0.5 for leaf in leaves}
        if any(flags.values()) and not all(flags.values()):
            return ClopenSet.from_marks(arity, flags)


def _random_subthorn(rng, arity, max_v=4, allow_empty_spikes=True):
    verts = {ROOT if rng.random() < 0.4 else (rng.randrange(arity + 1),)}
    for _ in range(rng.randrange(max_v)):
        v = rng.choice(sorted(verts))
        opts = [w for w in _nbrs(v, arity) if w not in verts]
        if opts:
            verts.add(rng.choice(opts))
    spikes = set()
    for v in verts:
        for d in ([UP] if v else []) + list(range(arity + (0 if v else 1))):
            w = v[:-1] if d == UP else v + (d,)
            if w not in verts and rng.random() < 0.45:
                spikes.add((v, d))
    if not spikes and not allow_empty_spikes:
        v = sorted(verts)[0]
        for d in ([UP] if v else []) + list(range(arity + (0 if v else 1))):
            w = v[:-1] if d == UP else v + (d,)
            if w not in verts:
                spikes.add((v, d))
                break
    return SubThorn(arity, frozenset(verts), frozenset(spikes))


def _nbrs(v, arity):
    out = [v + (c,) for c in range(arity + 1 if not v else arity)]
    if v:
        out.append(v[:-1])
    return out


# ---------------------------------------------------------------------------
# construction and reduction
# ---------------------------------------------------------------------------


def test_sibling_pair_reduces_to_single_ball():
    t = subthorn_from_balls([down(A("00")), down(A("01"))], 2)
    r = reduce_subthorn(t)
    assert r.vertices == frozenset({ROOT})
    assert r.spikes == frozenset({(ROOT, 0)})
    assert r.balls() == (down(A("0")),)


def test_two_ball_set_has_two_vertex_thorn():
    t = reduce_subthorn(subthorn_from_balls([down(A("0")), down(A("20"))], 2))
    assert len(t.vertices) == 2
    assert t.balls() == (down(A("0")), down(A("20")))
    code = canonical_code(t)
    assert code.text == "(1:(1:))"
    assert code.vertex_count == 2
    assert code.spike_count == 2
    assert code.diameter == 1


def test_root_star_is_perfect_and_reduces_to_empty():
    t = subthorn_from_balls([down((c,)) for c in range(3)], 2)
    assert t.is_perfect
    with pytest.raises(DomainError, match="full boundary"):
        ClopenSet.from_balls(2, t.balls())
    assert reduce_subthorn(t).is_empty
    assert canonical_code(reduce_subthorn(t)).is_empty


def test_lone_vertex_relocation():
    # two root children form the complement of the third: one ball one edge out
    t = subthorn_from_balls([down(A("0")), down(A("1"))], 2)
    r = reduce_subthorn(t)
    assert r.vertices == frozenset({(2,)})
    assert r.spikes == frozenset({((2,), UP)})
    assert r.balls() == (up(A("2")),)


def test_complement_pair_rejected():
    with pytest.raises(DomainError):
        subthorn_from_balls([down(A("01")), up(A("01"))], 2)


def test_overlapping_balls_rejected():
    with pytest.raises(DomainError):
        subthorn_from_balls([down(A("0")), down(A("01"))], 2)


def test_subthorn_validation():
    with pytest.raises(ValidationError):
        SubThorn(2, frozenset({ROOT, (0, 0)}), frozenset())  # not connected
    with pytest.raises(ValidationError):
        SubThorn(2, frozenset({ROOT, (0,)}), frozenset({(ROOT, 0)}))  # internal spike
    with pytest.raises(ValidationError):
        SubThorn(2, frozenset({(0,)}), frozenset({((1,), 0)}))  # spike off thorn
    with pytest.raises(ValidationError):
        SubThorn(2, frozenset(), frozenset({(ROOT, 0)}))  # spike without vertex
    assert empty_subthorn(2).is_empty


@pytest.mark.parametrize("direction", [1.0, True, "x"])
def test_subthorn_rejects_a_spike_direction_that_is_not_an_int(direction):
    """Directions are plain ints, as address labels are: 1.0 and True equal
    a valid direction and "x" fails the range comparison itself."""
    with pytest.raises(ValidationError, match="spike direction"):
        SubThorn(2, frozenset({ROOT}), frozenset({(ROOT, direction)}))
    assert SubThorn(2, frozenset({ROOT}), frozenset({(ROOT, 1)})).balls() == (down((1,)),)


def test_single_spike_round_trip():
    for ball in [down(A("01")), up(A("2")), down(A("0")), up(A("120", 3), )]:
        arity = 3 if max(ball.cut) > 1 or len(ball.cut) > 2 else 2
        t = subthorn_from_balls([ball], arity)
        assert t.balls() == (ball,)
        assert reduce_subthorn(t) == t
        assert ClopenSet.from_balls(arity, t.balls()).is_single_ball()


def test_reduction_preserves_clopen_set(rng=None):
    rng = random.Random(4205)
    for _ in range(220):
        arity = rng.choice([2, 3])
        t = _random_subthorn(rng, arity, allow_empty_spikes=False)
        r = reduce_subthorn(t)
        assert reduce_subthorn(r) == r
        if t.is_perfect:  # its balls partition the whole boundary
            assert r.is_empty
            with pytest.raises(DomainError, match="full boundary"):
                ClopenSet.from_balls(arity, t.balls())
        else:
            assert ClopenSet.from_balls(arity, r.balls()) == ClopenSet.from_balls(arity, t.balls())


def _random_order_reduce(t, rng):
    """Reference reducer applying moves in random order."""
    arity = t.arity
    verts = set(t.vertices)
    spikes = set(t.spikes)

    def spikes_at(v):
        return [s for s in spikes if s[0] == v]

    def internal(v):
        return [w for w in _nbrs(v, arity) if w in verts]

    def toward(v, w):
        return (v, UP) if v and w == v[:-1] else (v, w[-1])

    while True:
        if len(verts) == 1:
            (a,) = verts
            at = spikes_at(a)
            if len(at) == arity + 1:
                return empty_subthorn(arity)
            if len(at) == arity:
                used = {d for _, d in at}
                dirs = set(range(arity + 1)) if not a else set(range(arity)) | {UP}
                (d,) = dirs - used
                w = a[:-1] if d == UP else a + (d,)
                verts = {w}
                spikes = {toward(w, a)}
                continue
            break
        movable = [v for v in verts if len(spikes_at(v)) == arity]
        if not movable:
            break
        a = rng.choice(movable)
        (b,) = internal(a)
        verts.remove(a)
        spikes = {s for s in spikes if s[0] != a}
        spikes.add(toward(b, a))
    return SubThorn(arity, frozenset(verts), frozenset(spikes))


def test_reduction_is_confluent():
    rng = random.Random(977)
    for _ in range(200):
        arity = rng.choice([2, 3])
        t = _random_subthorn(rng, arity, allow_empty_spikes=False)
        expected = reduce_subthorn(t)
        for _ in range(3):
            assert _random_order_reduce(t, rng) == expected


# ---------------------------------------------------------------------------
# canonical codes
# ---------------------------------------------------------------------------


def _rooted_iso(a, ra, pa, b, rb, pb):
    if a.spike_counts[ra] != b.spike_counts[rb]:
        return False
    ka = [v for v in a.adjacency[ra] if v != pa]
    kb = [w for w in b.adjacency[rb] if w != pb]
    if len(ka) != len(kb):
        return False

    def match(i, used):
        if i == len(ka):
            return True
        for j in range(len(kb)):
            if j not in used and _rooted_iso(a, ka[i], ra, b, kb[j], rb):
                used.add(j)
                if match(i + 1, used):
                    return True
                used.discard(j)
        return False

    return match(0, set())


def _rooted_isomorphic(a: AbstractThorn, b: AbstractThorn) -> bool:
    if a.vertex_count != b.vertex_count:
        return False
    if sorted(a.spike_counts) != sorted(b.spike_counts):
        return False
    if a.vertex_count == 0:
        return True
    return any(_rooted_iso(a, 0, None, b, w, None) for w in range(b.vertex_count))


def _random_abstract(rng, arity, max_v=5):
    V = rng.randint(1, max_v)
    adj = [set() for _ in range(V)]
    for v in range(1, V):
        opts = [u for u in range(v) if len(adj[u]) < arity + 1]
        u = rng.choice(opts)
        adj[u].add(v)
        adj[v].add(u)
    counts = [rng.randint(0, arity + 1 - len(adj[v])) for v in range(V)]
    return AbstractThorn(arity, tuple(frozenset(s) for s in adj), tuple(counts))


def _code_text(t: AbstractThorn) -> str:
    """The canonical code text of an abstract thorn numbered parent first."""
    return _center_rooted_text(t.adjacency, t.spike_counts)


def _relabel(t: AbstractThorn, rng) -> AbstractThorn:
    """t renumbered parent first, as the library numbers abstract thorns,
    from a random root and in a random order."""
    order = [rng.randrange(t.vertex_count)]
    frontier = list(t.adjacency[order[0]])
    while frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        order.append(v)
        frontier += [w for w in t.adjacency[v] if w not in order]
    perm = [0] * t.vertex_count
    for i, v in enumerate(order):
        perm[v] = i
    adj = [frozenset()] * t.vertex_count
    counts = [0] * t.vertex_count
    for v in range(t.vertex_count):
        adj[perm[v]] = frozenset(perm[w] for w in t.adjacency[v])
        counts[perm[v]] = t.spike_counts[v]
    return AbstractThorn(t.arity, tuple(adj), tuple(counts))


def test_code_equality_matches_isomorphism():
    rng = random.Random(15101)
    for _ in range(150):
        arity = rng.choice([2, 3])
        a = _random_abstract(rng, arity)
        b = _relabel(a, rng)
        assert _code_text(a) == _code_text(b)
        c = _random_abstract(rng, arity)
        assert (_code_text(a) == _code_text(c)) == _rooted_isomorphic(a, c)


def test_rooted_texts_match_the_reference_encoder():
    """On random labelled trees with random spike counts at arities 2-9,
    the rerooting pass, fed the tree renumbered parent first from a random
    vertex, gives the reference encoder's text rooted at every vertex and
    of every neighbour's side; asked for some roots only, it gives their
    texts and still every child's subtree text."""
    rng = random.Random("rooted-texts")
    for _ in range(300):
        arity = rng.randint(2, 9)
        V = rng.randint(1, 12)
        labels = list(range(V))
        rng.shuffle(labels)
        adjacency = [set() for _ in range(V)]
        for i in range(1, V):
            j = rng.choice([j for j in range(i) if len(adjacency[labels[j]]) <= arity])
            adjacency[labels[i]].add(labels[j])
            adjacency[labels[j]].add(labels[i])
        counts = [rng.randint(0, arity + 1 - len(nbrs)) for nbrs in adjacency]
        text = rooted_encoder(adjacency, counts)
        order = [rng.randrange(V)]  # parent first, from a random vertex
        parent = [-1]
        for i, v in enumerate(order):
            kids = [w for w in adjacency[v] if w not in order]
            rng.shuffle(kids)
            order += kids
            parent += [i] * len(kids)
        index = {v: i for i, v in enumerate(order)}
        counts_in_order = [counts[v] for v in order]
        toward, rooted = _rooted_texts(parent, counts_in_order, range(V))
        assert rooted == [text(v) for v in order]
        for i, v in enumerate(order):
            assert toward[i] == sorted((text(w, v), index[w]) for w in adjacency[v])
        roots = rng.sample(range(V), rng.randint(1, V))
        toward, rooted = _rooted_texts(parent, counts_in_order, roots)
        assert rooted == [text(order[r]) for r in roots]
        for i, near in enumerate(toward):
            assert near == sorted(near)
            assert all(text(order[w], order[i]) == side for side, w in near)
            assert {w for _, w in near} >= {w for w in range(V) if parent[w] == i}


def test_code_round_trip():
    rng = random.Random(88)
    for _ in range(60):
        t = _random_abstract(rng, rng.choice([2, 3]))
        code = ThornCode(t.arity, _code_text(t))
        again = abstract_from_code(code)
        assert _code_text(again) == code.text
        assert again.vertex_count == code.vertex_count
        assert again.spike_count == code.spike_count
        assert skeleton_diameter(again) == code.diameter
        assert ThornCode.from_token(code.token) == code


def test_canonical_code_refuses_anything_but_a_sub_thorn():
    """The encoder reads each vertex's least neighbour as its parent, so an
    abstract thorn numbered otherwise, like this path 1-0-3-2, whose vertex
    2 comes before its parent 3, would lose that vertex from its text
    ("(0:(0:)(1:))"); no abstract thorn, clopen set or code is taken for a
    sub-thorn."""
    adjacency = (frozenset({1, 3}), frozenset({0}), frozenset({3}), frozenset({0, 2}))
    path = AbstractThorn(2, adjacency, (0, 0, 0, 1))
    assert reference_code_text(path.adjacency, path.spike_counts) == "(0:(0:)(1:(0:)))"
    pair = ThornCode(2, "(1:(1:))")
    omega = ClopenSet.from_balls(2, [down(A("0")), down(A("20"))])
    for bad in (path, abstract_from_code(pair), omega, pair, pair.text):
        with pytest.raises(DomainError, match="expects a sub-thorn"):
            canonical_code(bad)
    assert canonical_code(maximal_ball_thorn(omega)) == pair


def test_code_text_validation():
    for bad in ["", "(", "(1", "(1:", "(1:))", "((:))", "(1:)x", "(:)", "E(1:)"]:
        with pytest.raises(ValidationError):
            ThornCode(2, bad)
    with pytest.raises(ValidationError):
        ThornCode.from_token("zzz")
    assert ThornCode(2, "E").is_empty


@pytest.mark.parametrize("arity", ["\uff12", "\u0662", "+2", "1_0", " 2"])
def test_code_tokens_take_an_ascii_arity_only(arity):
    """int() reads a fullwidth or an Arabic-Indic two, a plus sign, an
    underscore between digits and spaces; a token's arity is ASCII digits,
    as in ``2x28313a29``."""
    assert ThornCode.from_token("2x28313a29") == ThornCode(2, "(1:)")
    with pytest.raises(ValidationError, match="is not an integer"):
        ThornCode.from_token(arity + "x28313a29")
    with pytest.raises(ValidationError, match="is not an integer"):
        CosetCode.from_token(arity + "c" + "(2:(2:))|(2:(2:))|0>0,0>1,1>0,1>1".encode().hex())


def test_deeply_nested_code_texts():
    # a path nested far deeper than the interpreter's recursion limit
    n = 3001
    assert n > sys.getrecursionlimit()
    end_rooted = ThornCode(2, "(1:" + "(0:" * (n - 2) + "(1:)" + ")" * (n - 1))
    assert (end_rooted.vertex_count, end_rooted.spike_count, end_rooted.diameter) == (n, 2, n - 1)
    assert class_code_defect(end_rooted) is not None
    branch = "(0:" * (n // 2 - 1) + "(1:)" + ")" * (n // 2 - 1)
    centred = ThornCode(2, _code_text(abstract_from_code(end_rooted)))
    assert centred.text == "(0:" + branch + branch + ")"
    assert class_code_defect(centred) is None
    assert centred.diameter == n - 1


def test_star_code_counts():
    t = subthorn_from_balls(
        [down(A("00")), down(A("10")), down(A("20"))], 2
    )
    code = canonical_code(reduce_subthorn(t))
    assert code.vertex_count == 4
    assert code.spike_count == 3
    assert code.diameter == 2
    assert code.text == "(0:(1:)(1:)(1:))"


# ---------------------------------------------------------------------------
# classification of clopen sets
# ---------------------------------------------------------------------------


def test_classify_simple_cases():
    ball = ClopenSet.from_balls(2, [down(A("01"))])
    assert classify_clopen(ball).text == "(1:)"
    pair = ClopenSet.from_marks(2, {A("0"): True, A("10"): True, A("11"): False, A("2"): False})
    assert classify_clopen(pair).text == "(1:(1:))"
    # sibling marks merge first: this is just a ball again
    merged = ClopenSet.from_marks(2, {A("00"): True, A("01"): True, A("1"): False, A("2"): False})
    assert classify_clopen(merged).text == "(1:)"


def test_classify_up_ball():
    omega = ClopenSet.from_marks(2, {A("0"): False, A("1"): True, A("2"): True})
    assert omega.is_single_ball()
    assert maximal_ball_thorn(omega).balls() == (up(A("0")),)
    assert classify_clopen(omega).text == "(1:)"


def test_single_ball_iff_one_spike_class():
    rng = random.Random(315)
    for _ in range(200):
        arity = rng.choice([2, 3])
        omega = _random_clopen(rng, arity)
        code = classify_clopen(omega)
        is_ball_class = code.vertex_count == 1 and code.spike_count == 1
        assert omega.is_single_ball() == is_ball_class


def test_classify_residue_matches_upsilon():
    rng = random.Random(316)
    for _ in range(150):
        arity = rng.choice([2, 3, 4])
        omega = _random_clopen(rng, arity)
        assert classify_clopen(omega).residue() == upsilon(omega)


def _ball_members(ball, arity, depth):
    return frozenset(w for w in all_words(arity, depth) if ball_contains_word(ball, w))


def test_maximal_balls_against_exhaustive_search():
    rng = random.Random(317)
    for _ in range(40):
        arity = rng.choice([2, 3])
        omega = _random_clopen(rng, arity, max_depth=2)
        depth = omega.depth() + 1
        k = depth + 1
        members = depth_members(omega, k)
        inside = []
        for cut_depth in range(1, depth + 1):
            for w in all_words(arity, cut_depth):
                for ball in (down(w), up(w)):
                    if _ball_members(ball, arity, k) <= members:
                        inside.append(ball)
        expected = {
            b
            for b in inside
            if not any(ball_relation(b, c) == "subset" for c in inside if c != b)
        }
        got = maximal_ball_thorn(omega).balls()
        assert set(got) == expected
        # the maximal balls partition the set
        union = set()
        for b in got:
            part = _ball_members(b, arity, k)
            assert not union & part
            union |= part
        assert union == members


def test_classify_clopen_matches_the_subthorn_route():
    """``classify_clopen`` encodes the reduced {vertex: spike directions} of
    the marked leaves directly; on random clopen sets at arities 2 to 4 it
    agrees with the former route through ``SubThorn`` and ``AbstractThorn``.
    Single balls, other one-vertex thorns and larger thorns all occur."""
    rng = random.Random(1211)
    seen = Counter()
    for _ in range(110):
        for arity in (2, 3, 4):
            omega = _random_clopen(rng, arity)
            code = classify_clopen(omega)
            assert code == subthorn_route_code(omega), omega
            if code.vertex_count > 1:
                seen["larger thorn"] += 1
            else:
                seen["single ball" if omega.is_single_ball() else "other one-vertex thorn"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


def test_classify_presentation_independent():
    rng = random.Random(318)
    for _ in range(120):
        arity = rng.choice([2, 3])
        omega = _random_clopen(rng, arity)
        rebuilt = ClopenSet.from_balls(arity, maximal_ball_thorn(omega).balls())
        assert rebuilt == omega
        assert classify_clopen(rebuilt) == classify_clopen(omega)


def _random_cut(rng, arity, max_depth):
    depth = rng.randint(1, max_depth)
    return (rng.randrange(arity + 1),) + tuple(rng.randrange(arity) for _ in range(depth - 1))


def _random_disjoint_balls(rng, arity, max_depth, max_count):
    """Pairwise disjoint balls, never just the two halves of one edge.

    Some balls are split into their n sub-balls afterwards, so that sibling
    families which must merge back occur often.
    """
    target = rng.randint(1, max_count)
    chosen = []
    for _ in range(20 * target):
        ball = Ball(rng.random() < 0.25, _random_cut(rng, arity, max_depth))
        if all(balls_disjoint(ball, b) for b in chosen) and not (
            len(chosen) == 1 and chosen[0].cut == ball.cut
        ):
            chosen.append(ball)
            if len(chosen) == target:
                break
    for _ in range(rng.randint(0, 3)):
        chosen.extend(split_ball(chosen.pop(rng.randrange(len(chosen))), arity))
    return chosen


def _star_balls(vertex, directions):
    return [ball_of_spike((vertex, d)) for d in directions]


def _check_classify_balls(balls, arity):
    """classify_balls and reduce_subthorn against the move-by-move reference
    reducer and, for a proper set, the brute-force oracle's maximal-ball
    reader."""
    text = classify_balls(tuple(sorted(balls)), arity)
    thorn = subthorn_from_balls(balls, arity)
    spikes = reduce_subthorn(thorn).spikes
    reference = _random_order_reduce(thorn, random.Random(len(balls)))
    assert spikes == reference.spikes
    assert text == canonical_code(reference).text
    try:
        omega = ClopenSet.from_balls(arity, balls)
    except DomainError:  # the balls partition the whole boundary
        assert (spikes, text) == (frozenset(), "E")
        return
    assert text == classify_clopen(omega).text
    assert sorted(ball_of_spike(s) for s in spikes) == list(_maximal_balls(omega))


def test_classify_balls_matches_clopen_classification():
    rng = random.Random(1207)
    for arity in (2, 3, 4):
        for _ in range(150):
            _check_classify_balls(_random_disjoint_balls(rng, arity, 4, 6), arity)


def test_classify_balls_lone_vertex_cases():
    rng = random.Random(1208)
    for arity in (2, 3, 4):
        for vertex in (ROOT, _random_cut(rng, arity, 1), _random_cut(rng, arity, 3)):
            directions = list(range(arity + 1)) if not vertex else list(range(arity)) + [UP]
            # n + 1 spikes: a partition of the whole boundary
            _check_classify_balls(_star_balls(vertex, directions), arity)
            assert classify_balls(_star_balls(vertex, directions), arity) == "E"
            # n spikes: one ball, across the free direction
            for free in directions:
                balls = _star_balls(vertex, [d for d in directions if d != free])
                _check_classify_balls(balls, arity)
                assert classify_balls(balls, arity) == "(1:)"


def test_spanned_matches_the_pairwise_path_span():
    """The one-walk span gives the {vertex: spike directions} of the union of
    paths from the first anchor, whatever the order of the balls, on random
    families with up balls, cuts next to the root, single-anchor sets and
    sets whose meet is the root."""
    rng = random.Random(1209)
    seen = Counter()
    for arity in (2, 3, 4):
        for _ in range(200):
            if rng.random() < 0.2:
                vertex = _random_cut(rng, arity, 3) if rng.random() < 0.7 else ROOT
                directions = list(range(arity + 1)) if not vertex else list(range(arity)) + [UP]
                balls = _star_balls(vertex, rng.sample(directions, rng.randint(1, len(directions))))
            else:
                balls = _random_disjoint_balls(rng, arity, 4, 6)
            rng.shuffle(balls)
            expected = pairwise_path_span(balls)
            assert _spanned([spike_of_ball(b) for b in balls]) == expected, balls
            anchors = {b.cut if b.up else b.cut[:-1] for b in balls}
            seen["up ball"] += any(b.up for b in balls)
            seen["cut next to the root"] += any(len(b.cut) == 1 for b in balls)
            seen["one anchor"] += len(anchors) == 1
            seen["meet at the root"] += len(anchors) > 1 and ROOT in expected
    assert len(seen) == 4 and min(seen.values()) >= 30, seen


def test_maximal_ball_thorn_matches_the_pairwise_path_span():
    rng = random.Random(1210)
    for _ in range(300):
        arity = rng.choice([2, 3, 4])
        omega = _random_clopen(rng, arity)
        spikes_at = pairwise_path_span(down(leaf) for leaf in omega.marked_leaves())
        spikes = frozenset((v, d) for v, dirs in spikes_at.items() for d in dirs)
        expected = reduce_subthorn(SubThorn(arity, frozenset(spikes_at), spikes))
        assert maximal_ball_thorn(omega) == expected


# ---------------------------------------------------------------------------
# embedding enumeration
# ---------------------------------------------------------------------------


def test_enumerate_single_spike_around_edge():
    region = SubThorn(2, frozenset({ROOT, (0,)}), frozenset())
    pattern = ThornCode(2, "(1:)")
    found = enumerate_embeddings(pattern, region)
    assert len(found) == 6
    for t in found:
        assert canonical_code(t) == pattern
        assert t.vertices & region.vertices


def test_enumerate_two_vertex_class_at_root():
    region = SubThorn(2, frozenset({ROOT}), frozenset())
    pattern = ThornCode(2, "(1:(1:))")
    found = enumerate_embeddings(pattern, region)
    assert len(found) == 12
    for t in found:
        assert ROOT in t.vertices
        assert canonical_code(t) == pattern


def test_enumerate_is_exhaustive_by_random_probe():
    # every reduced thorn of the class that shares a vertex with the region
    # must be listed, and no other
    rng = random.Random(4242)
    cases = [
        (SubThorn(2, frozenset({(0,)}), frozenset({((0,), 0)})), ThornCode(2, "(1:(1:))")),
        (SubThorn(3, frozenset({ROOT, (1,)}), frozenset({(ROOT, 0)})), ThornCode(3, "(1:(2:))")),
    ]
    for region, pattern in cases:
        found = set(enumerate_embeddings(pattern, region))
        hits = 0
        for _ in range(400):
            t = _random_subthorn(rng, region.arity, max_v=3, allow_empty_spikes=False)
            if canonical_code(t) != pattern or reduce_subthorn(t) != t:
                continue
            if t.vertices & region.vertices:
                assert t in found
                hits += 1
            else:
                assert t not in found
        assert hits > 0


def test_enumerate_rejects_what_is_no_class():
    region = SubThorn(2, frozenset({ROOT}), frozenset())
    with pytest.raises(DomainError, match="arity"):
        enumerate_embeddings(ThornCode(3, "(1:)"), region)
    with pytest.raises(DomainError, match="empty pattern"):
        enumerate_embeddings(ThornCode(2, "E"), region)
    assert enumerate_embeddings(ThornCode(2, "E"), empty_subthorn(2)) == ()
    for text, hint in (("(2:)", "not reduced"), ("(0:(1:))", "bare skeleton leaf"), ("(1:(0:(1:)))", "canonical")):
        with pytest.raises(DomainError, match=hint):
            enumerate_embeddings(ThornCode(2, text), region)


def _bithorn_sides(arity, count):
    """Both sides of the minimal bi-thorns of ``count`` seeded non-automorphisms."""
    sides = []
    seed = 0
    while len(sides) < 2 * count:
        b = minimal_bithorn(random_element(arity, 8, seed=f"embed-{arity}-{seed}"))
        seed += 1
        if not b.is_empty:
            sides += [b.dom, b.ran]
    return sides


@pytest.mark.parametrize("arity, max_vertices, elements", [(2, 4, 5), (3, 3, 2), (4, 2, 3)])
def test_enumerate_matches_subset_oracle(arity, max_vertices, elements):
    # tuple equality: the same thorns, each once, in the same order
    codes = [c for iota in range(arity - 1) for c in enumerate_class_codes(arity, iota, max_vertices)]
    for region in _bithorn_sides(arity, elements):
        for code in codes:
            assert enumerate_embeddings(code, region) == subset_embeddings(code, region), code.text


# ---------------------------------------------------------------------------
# orbit-class codes
# ---------------------------------------------------------------------------


def test_class_code_acceptance_and_defects():
    from spherotree.thorn import require_class_code

    for text in ["(1:)", "(1:(1:))", "(0:(1:)(1:))", "(1:(1:)(1:))"]:
        assert class_code_defect(require_class_code(ThornCode(2, text))) is None
    rejected = {
        "E": "empty",
        "(0:)": "no spikes",
        "(3:)": "perfect",
        "(2:)": "not reduced",
        "(1:(2:))": "not reduced",
        "(0:(1:))": "bare skeleton leaf",
        "(1:(0:(1:)))": "canonical",
    }
    for text, hint in rejected.items():
        assert class_code_defect(ThornCode(2, text)) is not None
        with pytest.raises(ValidationError, match=hint):
            require_class_code(ThornCode(2, text))


def test_enumerate_class_codes_small():
    assert [c.text for c in enumerate_class_codes(2, 0, 2)] == ["(1:)", "(1:(1:))"]
    assert [c.text for c in enumerate_class_codes(2, 0, 3)] == [
        "(1:)",
        "(1:(1:))",
        "(0:(1:)(1:))",
        "(1:(1:)(1:))",
    ]
    for arity, iota in [(3, 0), (3, 1), (4, 2)]:
        codes = enumerate_class_codes(arity, iota, 3)
        assert codes
        assert len(set(codes)) == len(codes)
        for code in codes:
            assert class_code_defect(code) is None
            assert code.residue() == iota
            assert code.vertex_count <= 3
    assert len(enumerate_class_codes(4, 0, 5)) == 233
    with pytest.raises(ValidationError):
        enumerate_class_codes(2, 1, 3)
    with pytest.raises(ValidationError):
        enumerate_class_codes(2, 0, 0)


def test_enumerated_codes_are_realized_by_clopen_sets():
    region = SubThorn(2, frozenset({ROOT}), frozenset())
    for code in enumerate_class_codes(2, 0, 4):
        found = enumerate_embeddings(code, region)
        assert found, code.text
        omega = ClopenSet.from_balls(2, found[0].balls())
        assert classify_clopen(omega) == code


def test_random_classifications_appear_in_enumeration():
    rng = random.Random("classification-census")
    for arity, bound in ((2, 8), (3, 6)):
        universe = {c.text for c in enumerate_class_codes(arity, 0, bound)}
        if arity > 2:
            universe |= {c.text for c in enumerate_class_codes(arity, 1, bound)}
        for _ in range(120):
            omega = _random_clopen(rng, arity)
            code = classify_clopen(omega)
            assert class_code_defect(code) is None
            assert code.residue() == upsilon(omega)
            if code.vertex_count <= bound:
                assert code.text in universe


ORACLE_GRID = (
    [(2, 0, 6), (3, 0, 5), (3, 1, 5)]
    + [(4, iota, 4) for iota in range(3)]
    + [(5, iota, 3) for iota in range(4)]
    + [(6, iota, 3) for iota in range(5)]
)


@pytest.mark.parametrize("arity, iota, max_vertices", ORACLE_GRID)
def test_enumerate_class_codes_match_pruefer_oracle(arity, iota, max_vertices):
    assert enumerate_class_codes(arity, iota, max_vertices) == pruefer_class_codes(
        arity, iota, max_vertices
    )


# every residue at the benchmark's ``enum-thorns`` caps, at cap 4 up to arity
# 9 and at cap 6 for arity 3, and arity 2 up to 9 vertices
EVERY_VECTOR_GRID = [(2, 0, 8), (2, 0, 9)] + [
    (arity, iota, cap)
    for arity, cap in ((3, 5), (3, 6), (4, 5), (5, 4), (6, 4), (7, 4), (8, 4), (9, 4))
    for iota in range(arity - 1)
]


@pytest.mark.parametrize("arity, iota, max_vertices", EVERY_VECTOR_GRID)
def test_enumerate_class_codes_match_every_vector_oracle(arity, iota, max_vertices):
    # tuple equality: the same texts in the same order
    assert enumerate_class_codes(arity, iota, max_vertices) == every_vector_class_codes(
        arity, iota, max_vertices
    )


@pytest.mark.parametrize("arity, iota, max_vertices", EVERY_VECTOR_GRID)
def test_each_class_is_built_once(arity, iota, max_vertices):
    """The generator's unsorted output repeats no text: no class is built
    twice and dropped by the sort."""
    texts = [text for _, _, text in _class_texts(arity, iota, max_vertices)]
    assert len(set(texts)) == len(texts) == len(enumerate_class_codes(arity, iota, max_vertices))


def test_shared_shapes_match_the_enumeration():
    """``_shape_is_shared`` tells, without enumerating, exactly the
    (vertex count, spike count) pairs that several enumerated classes of a
    sector have, every residue included; both outcomes occur at every vertex
    count from 4 on."""
    grid = [(2, 9), (3, 7), (4, 6), (5, 5), (9, 4)]
    outcomes = set()
    for arity, cap in grid:
        for iota in range(arity - 1):
            shapes = Counter((c.vertex_count, c.spike_count) for c in enumerate_class_codes(arity, iota, cap))
            for (V, S), holders in shapes.items():
                assert _shape_is_shared(arity, V, S) == (holders > 1), (arity, iota, V, S)
                outcomes.add((min(V, 4), holders > 1))
    assert outcomes == {(V, shared) for V in range(1, 5) for shared in (False, True)} - {(1, True)}


def test_code_counts_are_read_off_the_text():
    """vertex_count and spike_count, read off the text, match the parsed
    model on enumerated codes, on validated hand-written ones (two-digit
    spike counts included) and on the empty code."""
    codes = [c for arity in range(2, 7) for iota in range(arity - 1) for c in enumerate_class_codes(arity, iota, 4)]
    codes += [
        ThornCode(2, "E"),
        ThornCode(2, "(0:)"),
        ThornCode(3, "(0:(2:)(1:(1:)))"),
        ThornCode(9, "(10:)"),
        ThornCode(9, "(8:(9:)(0:(9:)))"),
    ]
    for code in codes:
        model = abstract_from_code(code)
        assert (code.vertex_count, code.spike_count) == (model.vertex_count, model.spike_count), code.text
    assert (ThornCode(2, "E").vertex_count, ThornCode(2, "E").spike_count) == (0, 0)
    assert ThornCode(9, "(8:(9:)(0:(9:)))").spike_count == 26


def _skeleton_texts(trees):
    """Centre-rooted texts of bare skeletons in any numbering, by the
    reference encoder."""
    return [reference_code_text(adjacency, [0] * len(adjacency)) for adjacency in trees]


def test_free_trees_counts():
    # OEIS A000055: unlabelled trees on 1..10 vertices
    layers = list(free_trees(10))
    assert [len(trees) for trees in layers] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for V, trees in enumerate(layers, start=1):
        assert all(len(adjacency) == V for adjacency in trees)
        assert len(set(_skeleton_texts(trees))) == len(trees)
    # the labelled trees fall into exactly these classes
    for V in range(1, 7):
        assert set(_skeleton_texts(labeled_trees(V))) == set(_skeleton_texts(layers[V - 1]))


def test_free_trees_match_networkx():
    nx = pytest.importorskip("networkx")
    for V, trees in enumerate(free_trees(10), start=1):
        reference = []
        for graph in nx.nonisomorphic_trees(V):
            nodes = sorted(graph.nodes)
            index = {v: i for i, v in enumerate(nodes)}
            reference.append(tuple(frozenset(index[w] for w in graph[v]) for v in nodes))
        assert sorted(_skeleton_texts(reference)) == sorted(_skeleton_texts(trees))


@pytest.mark.parametrize("arity, max_vertices", [(2, 6), (3, 4)])
def test_class_codes_agree_with_both_isomorphism_tests(arity, max_vertices):
    """Equal code texts, the oracle's backtracking ``_isomorphic`` and
    networkx's isomorphism test with spike counts as node labels agree on
    every pair of class codes, each side renumbered at random; and every
    renumbered model gets its own code back."""
    nx = pytest.importorskip("networkx")
    match = nx.algorithms.isomorphism.categorical_node_match("spikes", None)
    rng = random.Random(f"class-code-isomorphism:{arity}")
    codes = [code for iota in range(arity - 1) for code in enumerate_class_codes(arity, iota, max_vertices)]
    models = [_relabel(abstract_from_code(code), rng) for code in codes]
    graphs = []
    for model in models:
        graph = nx.Graph()
        graph.add_nodes_from((v, {"spikes": k}) for v, k in enumerate(model.spike_counts))
        graph.add_edges_from((v, w) for v, nbrs in enumerate(model.adjacency) for w in nbrs)
        graphs.append(graph)
    for code, model in zip(codes, models):
        assert _code_text(model) == code.text
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            same = a.text == b.text
            other = _relabel(models[j], rng)
            assert _isomorphic(models[i], other) == same, (a.text, b.text)
            assert nx.is_isomorphic(graphs[i], graphs[j], node_match=match) == same, (a.text, b.text)

