"""Inputs, operation lists and output checks of the two workloads.

A workload is a sequence of parts (``PARTS``): ``gram`` alone, and
``distinct`` made of ``theta``, ``canon`` and ``enum``.  A round's plan lists
the operations of its parts in that order, and each part keeps its own
inputs and checks.  Every input of a part comes from
``random.Random(f"{part}:{seed}:{round}")`` or from seed strings built the
same way, so one seed always gives the same files.  Where the cost of an
input varies a lot with its shape, candidates are drawn from the seed and
kept only to fill a fixed quota per stratum of a cheap structural property
(the vertex count of the element's minimal bi-thorn).  Each round then has
the same cost profile while its inputs still change with the seed, which
keeps the medians of different seeds comparable.

An operation is one CLI command, ``{"kind": "cli", "argv": [...]}``, run
in-process through ``spherotree.cli.main``, or one ``element.power`` call,
``{"kind": "power", "file": ..., "k": ...}``, which has no CLI command and
parses, raises to the power and formats exactly as a command would.  An
operation may name a file its standard output is saved to, so that later
operations of the round can read it, as ``> file`` would in a shell.

``check`` verifies the outputs of a round and returns the indices of the
operations whose output is wrong, with a message for each.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

# Two workloads rather than one per part: on a host whose speed drifts over
# tens of seconds, each run needs about a minute to give steady medians, and
# the total time allowed for all runs fits two such workloads, not four.
PARTS = {"gram": ("gram",), "distinct": ("theta", "canon", "enum")}
WORKLOADS = tuple(PARTS)

# sha256 of the newline-joined class tokens that ``enum-thorns`` prints for
# each (arity, iota, max_vertices), recorded from the library as first
# benchmarked.  The class lists are fixed mathematical objects, so any
# change here is a wrong answer.
ENUM_DIGESTS = {
    "2,0,4": "0f565dfe232931e98fe81f59b96083b313cd633bc54d3b29b7d1da2c02c5a23b",
    "2,0,6": "762d99865133dccd15a05a1aaa2e28e41163930c545933b198e58e6b1fe9cfdf",
    "3,0,3": "ab8226c871e947990608f02941021c562760cd0c872836db7622ff1e6d68a88e",
    "3,0,5": "091f72cfdbf6359bfeec652d2871fe522fd0d23448cd6f8d876344e4ee79d504",
    "3,1,3": "b5b173ab29f25a0daf4bc389197437ae42f1202951e1b5821d018c60bc3507cb",
    "3,1,5": "e6872cad1a0e2454b183a8bf1edc8899d5750ede7b06eaa7b1f7511e62dce073",
    "4,0,5": "8a5742c1260f9521cb6d7157a46ba311c5633c210df1df56f37976f64d51176b",
    "5,0,4": "100ccd4ce2f97c9689179664ee46d3e4fc00efcbdde0906d6562c974691b92d0",
    "5,1,4": "6f6c204f87972dec1ab42d9dd39fa68aed81d0f58de95d4f910292e502b89772",
    "5,2,4": "3fe284fb603c2c43b1f1855695977c59fb22c0570c55060b8516b0a548ce6ad3",
    "5,3,4": "0d562fd33fdb1e7ae068444b07da94254266073a00f24ff3f930299695db3941",
    "6,0,4": "ab1cdd7d7ed0c2688e0e860894af935ee49a985e259410d5b961de6decc1ea88",
    "6,1,4": "90c28d187400d6b97f39bbcf084bfdaa16689cb3637e260a95b351c4d5d8815e",
}

ENUM_CONFIGS = ("2,0,6", "3,0,5", "3,1,5", "4,0,5", "5,0,4", "5,1,4", "5,2,4", "5,3,4", "6,0,4", "6,1,4")
ENUM_CONFIGS_TINY = ("2,0,4", "3,0,3", "3,1,3")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(argv, save=None) -> dict:
    return {"kind": "cli", "argv": list(argv), "save": save}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _stratified(st, arity: int, budget: int, quota: dict[int, int], tag: str, distinct=None) -> list:
    """Random elements filling ``quota``: minimal bi-thorn vertex count -> how many.

    Candidates come from seeds ``tag:0``, ``tag:1``, ... in order, so the
    choice is a function of ``tag`` alone.  With a ``distinct`` set, a
    candidate whose double coset is in it is skipped, and chosen cosets are
    added to it.
    """
    need = dict(quota)
    chosen = []
    index = 0
    while any(need.values()):
        if index > 20000:
            raise RuntimeError(f"quota {quota} not met after {index} candidates")
        g = st.random_element(arity, budget, f"{tag}:{index}")
        index += 1
        size = st.minimal_bithorn(g).vertex_count
        if need.get(size, 0) == 0:
            continue
        if distinct is not None:
            token = st.coset_code(g).token
            if token in distinct:
                continue
            distinct.add(token)
        need[size] -= 1
        chosen.append(g)
    return chosen


def _positive_spec(st, rng: random.Random, table):
    """A unit-diagonal Gram matrix of random unit vectors in the positive orthant."""
    size = len(table.tracked) + 1
    vectors = []
    for _ in range(size):
        raw = [abs(rng.gauss(0.0, 1.0)) + 0.05 for _ in range(size)]
        norm = sum(x * x for x in raw) ** 0.5
        vectors.append([x / norm for x in raw])
    rows = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = sum(a * b for a, b in zip(vectors[i], vectors[j]))
    return st.SphericalSpec(table, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def generate(st, name: str, seed: int, rnd: int, tiny: bool, out: Path) -> dict:
    """Write the round's input files into ``out`` and return its plan."""
    ops, parts = [], []
    for part in PARTS[name]:
        tag = f"{part}:{seed}:{rnd}"
        plan = _GENERATORS[part](st, random.Random(tag), tag, tiny, out)
        parts.append({"part": part, "start": len(ops), "plan": plan})
        ops.extend(plan["ops"])
    return {"ops": ops, "parts": parts}


def _gen_gram(st, rng, tag, tiny, out) -> dict:
    table = st.ClassTable(2, 0, st.enumerate_class_codes(2, 0, 2))
    _write(out / "spec.txt", st.textio.format_spherical_spec(_positive_spec(st, rng, table)))
    # Two automorphisms per family, as in the natural mix of budget-8
    # elements, put the products of one element with either of them into one
    # double coset, and small bi-thorns have few cosets: about 70% of the
    # non-automorphism products of a round repeat a coset seen earlier in it.
    quota = {0: 1, 2: 1} if tiny else {0: 2, 2: 1, 3: 1, 4: 1}
    families = 1 if tiny else 12
    ops = []
    for f in range(families):
        files = []
        for i, g in enumerate(_stratified(st, 2, 8, quota, f"{tag}:family{f}")):
            path = f"f{f}e{i}.txt"
            _write(out / path, st.textio.format_element(g))
            files.append(path)
        rng.shuffle(files)
        ops.append(_cli(["gram", *files, "--family", "nessonov", "--spec", "spec.txt"]))
    return {"ops": ops}


def _gen_theta(st, rng, tag, tiny, out) -> dict:
    # arity 2, cap 3 (four classes of residue 0); arity 3, cap 2 at residue 1.
    # Bi-thorns of two vertices have a single double coset at either arity,
    # and of three vertices two at arity 2, which bounds the quotas.
    parts = (
        (2, 0, 2 if tiny else 3, {2: 1} if tiny else {2: 1, 3: 2, 4: 2, 5: 1}),
        (3, 1, 2, {2: 1} if tiny else {2: 1, 3: 2, 4: 1}),
    )
    ops = []
    cosets = set()  # every element of a round has its own double coset: no reuse
    for arity, iota, cap, quota in parts:
        table_file = f"table{arity}.txt"
        table = st.ClassTable(arity, iota, st.enumerate_class_codes(arity, iota, cap))
        _write(out / table_file, st.textio.format_class_table(table))
        for i, g in enumerate(_stratified(st, arity, 10, quota, f"{tag}:a{arity}", cosets)):
            path = f"a{arity}e{i}.txt"
            _write(out / path, st.textio.format_element(g))
            ops.append(_cli(["theta", path, "--table", table_file]))
    rng.shuffle(ops)
    return {"ops": ops}


def _uniform_code(arity: int, depths) -> list:
    code = []
    for child, depth in enumerate(depths):
        level = [(child,)]
        for _ in range(depth - 1):
            level = [w + (k,) for w in level for k in range(arity)]
        code.extend(level)
    return code


def _random_automorphism(st, rng, arity: int):
    root = list(range(arity + 1))
    rng.shuffle(root)
    perms = {}
    for _ in range(2):
        vertex = (rng.randrange(arity + 1),) + tuple(rng.randrange(arity) for _ in range(rng.randint(0, 1)))
        perm = list(range(arity))
        rng.shuffle(perm)
        perms[vertex] = perm
    return st.finitary_automorphism(arity, root, perms)


def _gen_canon(st, rng, tag, tiny, out) -> dict:
    ops = []
    invariance = []
    # symmetric tables: a uniform prefix code paired with itself, shuffled so
    # that the minimal bi-thorn keeps every vertex of the code's tree (no
    # sibling family maps to a sibling family in order).  The cost of
    # ``canon`` is then fixed by the shape; a pairing whose bi-thorn reduces
    # is 5-30 times cheaper, which would make the tail depend on the seed.
    shapes = ((3, (2, 2, 2, 2)),) if tiny else (
        (2, (3, 3, 3)), (2, (3, 3, 4)), (3, (2, 2, 2, 2)), (3, (2, 2, 2, 3)), (4, (2,) * 5),
    )
    sym = []
    for arity, depths in shapes:
        code = _uniform_code(arity, depths)
        vertices = len({w[:i] for w in code for i in range(len(w))})
        for copy in range(1 if tiny else 2):
            for _ in range(1000):
                targets = code[:]
                rng.shuffle(targets)
                g = st.from_pieces(arity, list(zip(code, targets)))
                if st.minimal_bithorn(g).vertex_count == vertices:
                    break
            else:
                raise RuntimeError(f"no irreducible pairing of the code {depths}")
            path = f"sym{arity}-{len(code)}-{copy}.txt"
            _write(out / path, st.textio.format_element(g))
            sym.append((_cli(["canon", path]), arity))
    # random budget-16 elements, spread evenly over the minimal bi-thorn
    # sizes they reach (automorphisms have size 0 and are left out)
    randoms = []
    for arity, sizes, copies in ((2, range(2, 15), 2), (3, range(2, 8), 3)):
        quota = {sizes[0]: 1} if tiny else {size: copies for size in sizes}
        for i, g in enumerate(_stratified(st, arity, 16, quota, f"{tag}:r{arity}")):
            path = f"r{arity}-{i}.txt"
            _write(out / path, st.textio.format_element(g))
            randoms.append((_cli(["canon", path]), arity))
    canon_ops = sym + randoms
    rng.shuffle(canon_ops)
    ops.extend(op for op, _ in canon_ops)
    # two-sided automorphism invariance, checked on a sample after timing
    for index in rng.sample(range(len(canon_ops)), 1 if tiny else 4):
        op, arity = canon_ops[index]
        path = op["argv"][1]
        left = _random_automorphism(st, rng, arity)
        right = _random_automorphism(st, rng, arity)
        _write(out / f"left{index}.txt", st.textio.format_element(left))
        _write(out / f"right{index}.txt", st.textio.format_element(right))
        invariance.append([index, path, f"left{index}.txt", f"right{index}.txt"])
    # Thompson words: w, w^-1, w.w^-1, and w.w^-1 == id
    rotation, a, b = st.thompson_generators()
    letters = {"rot": rotation, "a": a, "b": b, "ai": st.invert(a), "bi": st.invert(b)}
    for letter, g in letters.items():
        _write(out / f"{letter}.txt", st.textio.format_element(g))
    _write(out / "id.txt", st.textio.format_element(st.identity(2)))
    for w in range(1 if tiny else 6):
        word = [rng.choice(sorted(letters)) + ".txt" for _ in range(rng.randint(6, 10))]
        ops.append(_cli(["compose", *word], save=f"w{w}.txt"))
        ops.append(_cli(["invert", f"w{w}.txt"], save=f"w{w}inv.txt"))
        ops.append(_cli(["compose", f"w{w}.txt", f"w{w}inv.txt"], save=f"w{w}id.txt"))
        ops.append(_cli(["equals", f"w{w}id.txt", "id.txt"]))
    # powers of the generators a, b and their inverses
    for k in (10,) if tiny else (30, 55, 80, 100):
        base = rng.choice(("a", "b", "ai", "bi"))
        ops.append({"kind": "power", "file": f"{base}.txt", "k": k, "save": None})
    return {"ops": ops, "invariance": invariance}


def _gen_enum(st, rng, tag, tiny, out) -> dict:
    configs = list(ENUM_CONFIGS_TINY if tiny else ENUM_CONFIGS)
    rng.shuffle(configs)
    ops = []
    for config in configs:
        arity, iota, vertices = config.split(",")
        ops.append(_cli(["enum-thorns", "--arity", arity, "--iota", iota, "--max-vertices", vertices]))
    return {"ops": ops, "configs": configs}


_GENERATORS = {"gram": _gen_gram, "theta": _gen_theta, "canon": _gen_canon, "enum": _gen_enum}


# ---------------------------------------------------------------------------
# output checks (run after the timed operations)
# ---------------------------------------------------------------------------


def check(st, plan: dict, outputs: list[str], folder: Path) -> dict[int, str]:
    """Indices of operations whose output is wrong, each with the reason."""
    bad = {}
    for part in plan["parts"]:
        start, sub = part["start"], part["plan"]
        found = _CHECKS[part["part"]](st, sub, outputs[start : start + len(sub["ops"])], folder)
        bad.update((start + index, message) for index, message in found.items())
    return bad


def _check_gram(st, plan, outputs, folder) -> dict[int, str]:
    bad = {}
    for index, (op, text) in enumerate(zip(plan["ops"], outputs)):
        lines = text.splitlines()
        matrix = [[float(x) for x in line.split()[1:]] for line in lines if line.startswith("matrix ")]
        size = op["argv"].index("--family") - 1  # one row per element file
        if len(matrix) != size or any(len(row) != size for row in matrix):
            bad[index] = f"no {size}x{size} matrix in the report"
        elif any(matrix[i][i] != 1.0 for i in range(size)):
            bad[index] = "diagonal entry other than 1"
        elif any(matrix[i][j] != matrix[j][i] for i in range(size) for j in range(i)):
            bad[index] = "matrix is not symmetric"
        elif "verdict PASS" not in lines:
            bad[index] = "verdict is not PASS"
    return bad


def _load(st, folder: Path, path: str):
    return st.textio.parse_element((folder / path).read_text(encoding="utf-8"))


def _check_theta(st, plan, outputs, folder) -> dict[int, str]:
    bad = {}
    for index, op in enumerate(plan["ops"]):
        _, element_file, _, table_file = op["argv"]
        table = st.textio.parse_class_table((folder / table_file).read_text(encoding="utf-8"))
        inverse = st.theta(st.invert(_load(st, folder, element_file)), table)
        expected = st.textio.format_transition_counts(inverse).splitlines()
        got = outputs[index].splitlines()
        transposed = [list(column) for column in zip(*(line.split()[1:] for line in got[1:]))]
        if got[:1] != expected[:1] or transposed != [line.split()[1:] for line in expected[1:]]:
            bad[index] = "theta(g^-1) is not the transpose of theta(g)"
    return bad


def _power_by_squaring(st, g, k: int):
    result = st.identity(g.arity)
    while k:
        if k & 1:
            result = st.compose(g, result)
        g = st.compose(g, g)
        k >>= 1
    return result


def _check_canon(st, plan, outputs, folder) -> dict[int, str]:
    bad = {}
    for index, op in enumerate(plan["ops"]):
        command = op["argv"][0] if op["kind"] == "cli" else op["kind"]
        if command == "canon":
            try:
                st.CosetCode.from_token(outputs[index].strip())
            except st.ValidationError as err:
                bad[index] = f"canon printed no coset token: {err}"
        elif command == "equals" and outputs[index] != "true\n":
            bad[index] = "w . w^-1 is not the identity"
        elif command == "power":
            expected = _power_by_squaring(st, _load(st, folder, op["file"]), op["k"])
            if st.textio.parse_element(outputs[index]) != expected:
                bad[index] = f"power {op['k']} disagrees with repeated squaring"
    for index, path, left, right in plan["invariance"]:
        moved = st.compose(_load(st, folder, left), st.compose(_load(st, folder, path), _load(st, folder, right)))
        if st.coset_code(moved).token != outputs[index].strip():
            bad[index] = "coset token changes under two-sided automorphisms"
    return bad


def _check_enum(st, plan, outputs, folder) -> dict[int, str]:
    bad = {}
    for index, config in enumerate(plan["configs"]):
        tokens = "\n".join(line.split()[0] for line in outputs[index].splitlines())
        if _sha(tokens) != ENUM_DIGESTS[config]:
            bad[index] = f"class list digest for {config} differs from the recorded one"
    return bad


_CHECKS = {"gram": _check_gram, "theta": _check_theta, "canon": _check_canon, "enum": _check_enum}


# ---------------------------------------------------------------------------
# workload property: how often a double coset repeats within a round
# ---------------------------------------------------------------------------


def coset_repeats(st, plan: dict, outputs: list[str], folder: Path) -> tuple[int, int]:
    """(repeats, base): non-automorphism operations and how many of them have
    a coset code already seen earlier in the round.

    For ``gram`` the operations are the products g_i^-1 g_j whose phi the
    command evaluates; for ``theta`` the elements; for ``canon`` the printed
    tokens.  ``enum-thorns`` and group arithmetic have no coset codes.
    """
    codes = []
    for index, op in enumerate(plan["ops"]):
        command = op["argv"][0] if op["kind"] == "cli" else op["kind"]
        argv = op.get("argv")
        if command == "gram":
            elements = [_load(st, folder, path) for path in argv[1 : argv.index("--family")]]
            inverses = [st.invert(g) for g in elements]
            for i in range(len(elements)):
                for j in range(i, len(elements)):
                    codes.append(st.coset_code(st.compose(inverses[i], elements[j])).token)
        elif command == "theta":
            codes.append(st.coset_code(_load(st, folder, argv[1])).token)
        elif command == "canon":
            codes.append(outputs[index].strip())
    seen = set()
    repeats = base = 0
    for code in codes:
        if st.CosetCode.from_token(code).is_empty:
            continue
        base += 1
        repeats += code in seen
        seen.add(code)
    return repeats, base
