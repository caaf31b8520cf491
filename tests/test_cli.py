"""End-to-end tests for the command-line front end (exit codes and bytes)."""

import ast
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spherotree import (
    ClassTable,
    SphericalSpec,
    TensorSpec,
    ThornCode,
    InternalError,
    compose,
    identity,
    random_element,
    thompson_generators,
    thorn,
)
from spherotree.cli import build_parser, main
from spherotree.textio import (
    format_class_table,
    format_clopen,
    format_element,
    format_spherical_spec,
    format_tensor_spec,
    parse_element,
)
from spherotree.tree import ClopenSet, down

from oracles import irreducible_uniform_pairing, random_finitary, witness_nonautomorphism

BALL = ThornCode(2, "(1:)")
PAIR = ThornCode(2, "(1:(1:))")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def work(tmp_path):
    files = {
        "id2": identity(2),
        "g0": witness_nonautomorphism(),
        "r1": random_element(2, 6, seed="cli-1"),
        "r2": random_element(2, 6, seed="cli-2"),
    }
    paths = {}
    for name, g in files.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(format_element(g))
        paths[name] = str(p)
    table = ClassTable(2, 0, (BALL, PAIR))
    spec = SphericalSpec(table, ((1.0, 0.5, 0.25), (0.5, 1.0, 0.125), (0.25, 0.125, 1.0)))
    tspec = TensorSpec(2, 0, 1, ((BALL, (1.0, 0.0)),), (0.6, 0.8))
    omega = ClopenSet.from_balls(2, [down((0, 0))])
    for name, text in [
        ("table", format_class_table(table)),
        ("spec", format_spherical_spec(spec)),
        ("tensor", format_tensor_spec(tspec)),
        ("omega", format_clopen(omega)),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_every_kind(work, capsys):
    for kind, name in [
        ("element", "g0"),
        ("clopen", "omega"),
        ("table", "table"),
        ("spec", "spec"),
        ("tensor-spec", "tensor"),
    ]:
        code, out, err = _run(capsys, "validate", work[name], "--kind", kind)
        assert code == 0, err
        assert out.startswith("ok " + kind.replace("tensor-spec", "tensor-spec"))


def test_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("arity 2\n00 -> 0\n")
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "bad.txt" in err and "error:" in err


def test_validate_rejects_non_ascii_digits(tmp_path, capsys):
    for name, source in (("superscript", "0\u00b2 -> 0"), ("arabic", "\u0661 -> 1")):
        bad = tmp_path / f"{name}.txt"
        bad.write_text(f"arity 2\n{source}\n0 -> 0\n2 -> 2\n", encoding="utf-8")
        code, out, err = _run(capsys, "validate", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}:2: ")


def test_validate_table_with_deeply_nested_code(tmp_path, capsys):
    # a 1,202-vertex path nests deeper than the interpreter's recursion limit
    n = 1202
    end_rooted = "(1:" + "(0:" * (n - 2) + "(1:)" + ")" * (n - 1)
    near = "(0:" * (n // 2 - 1) + "(1:)" + ")" * (n // 2 - 1)
    far = "(0:" * (n // 2) + "(1:)" + ")" * (n // 2)
    verdicts = {}
    for name, text in (("centred", "(0:" + far + near + ")"), ("end", end_rooted)):
        table = tmp_path / f"{name}.txt"
        table.write_text(f"arity 2\niota 0\nclass {text}\n")
        verdicts[name] = _run(capsys, "validate", str(table), "--kind", "table")
    assert verdicts["centred"] == (0, "ok table arity=2 iota=0 classes=1\n", "")
    code, out, err = verdicts["end"]
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path / 'end.txt'}:3: ")
    assert "not in canonical center-rooted form" in err
    # the message names the size and quotes only the start of the text
    assert len(err.encode()) < 300 and "(1202 vertices)" in err


def test_compose_invert_equals_round_trip(work, capsys, tmp_path):
    code, out, _ = _run(capsys, "invert", work["r1"])
    assert code == 0
    inv = tmp_path / "inv.txt"
    inv.write_text(out)

    code, out, _ = _run(capsys, "compose", work["r1"], str(inv))
    assert code == 0
    prod = tmp_path / "prod.txt"
    prod.write_text(out)

    code, out, _ = _run(capsys, "equals", str(prod), work["id2"])
    assert code == 0
    assert out.strip() == "true"

    code, out, _ = _run(capsys, "equals", work["r1"], work["r2"])
    assert code == 0
    assert out.strip() == "false"


def test_compose_output_parses_back(work, capsys):
    code, out, _ = _run(capsys, "compose", work["r1"], work["r2"], work["g0"])
    assert code == 0
    g = parse_element(out)
    assert g.arity == 2


def test_canon_identity_prints_empty_token(work, capsys):
    code, out, _ = _run(capsys, "canon", work["id2"])
    assert code == 0
    assert out.strip() == "2c45"  # hex of "E": the empty pair


def test_canon_dot_output(work, capsys):
    code, out, _ = _run(capsys, "canon", work["g0"], "--dot")
    assert code == 0
    token, rest = out.split("\n", 1)
    assert token.startswith("2c")
    assert rest.startswith("graph bithorn {")


def test_canon_of_a_symmetric_pairing_is_fast(tmp_path, capsys):
    """31,104 numberings a side, yet a coset mate prints the same token at once."""
    g = irreducible_uniform_pairing(3, (3, 3, 3, 3), 0)
    rng = random.Random(37)
    mate = compose(random_finitary(rng, 3), compose(g, random_finitary(rng, 3)))
    tokens = []
    for name, h in (("g", g), ("mate", mate)):
        path = tmp_path / f"{name}.txt"
        path.write_text(format_element(h))
        start = time.perf_counter()
        code, out, _ = _run(capsys, "canon", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        tokens.append(out)
    assert tokens[0] == tokens[1]
    assert tokens[0].startswith("3c")


def test_is_aut(work, capsys):
    assert _run(capsys, "is-aut", work["id2"])[1].strip() == "true"
    assert _run(capsys, "is-aut", work["g0"])[1].strip() == "false"


def test_classify_and_upsilon(work, capsys):
    code, out, _ = _run(capsys, "classify-clopen", work["omega"])
    assert code == 0
    assert out.split() == [BALL.token, BALL.text]
    code, out, _ = _run(capsys, "classify-clopen", work["omega"], "--dot")
    assert "graph thorn {" in out
    code, out, _ = _run(capsys, "upsilon", work["omega"])
    assert code == 0
    assert out.strip() == "0"  # one ball, and n-1 = 1 makes every count 0


def test_theta_table_output(work, capsys):
    code, out, _ = _run(capsys, "theta", work["g0"], "--table", work["table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["classes", "P"]
    assert len(lines) == 4


def test_phi_families(work, capsys):
    code, out, _ = _run(capsys, "phi", "l2", work["g0"])
    assert code == 0 and out.strip() == "value 0.0"

    code, out, _ = _run(capsys, "phi", "nessonov", work["id2"], "--spec", work["spec"])
    assert code == 0 and out.strip() == "value 1.0"

    code, out, _ = _run(capsys, "phi", "tensor", work["g0"], "--tensor-spec", work["tensor"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"value {0.6 ** 4!r}"
    assert lines[1] == "cap_lumped true"

    code, out, _ = _run(
        capsys, "phi", "product", work["g0"], "--spec", work["spec"], "--l2"
    )
    assert code == 0 and out.strip() == "value 0.0"


def test_phi_flag_validation(work, capsys, tmp_path):
    code, _, err = _run(capsys, "phi", "nessonov", work["g0"])
    assert code == 1 and "exactly one --spec" in err
    code, _, err = _run(capsys, "phi", "product", work["g0"], "--l2")
    assert code == 1 and "at least two factors" in err
    code, _, err = _run(capsys, "phi", "tensor", work["g0"], "--spec", work["spec"])
    assert code == 1 and "--tensor-spec" in err
    # the rules are checked before any file is read: none of these exists
    missing = str(tmp_path / "missing.txt")
    for argv, message in [
        (["phi", "product", missing, "--spec", missing], "at least two factors"),
        (["phi", "nessonov", missing, "--spec", missing, "--l2"], "exactly one --spec"),
        (["phi", "tensor", missing, "--tensor-spec", missing, "--l2"], "exactly one --tensor-spec"),
        (["gram", missing, "--family", "l2", "--spec", missing], "takes no --spec"),
    ]:
        code, _, err = _run(capsys, *argv)
        assert code == 1 and message in err and "cannot read" not in err


def test_phi_rejects_non_psd_spec(work, capsys, tmp_path):
    table = ClassTable(2, 0, (BALL,))
    bad = SphericalSpec(table, ((1.0, 1.5), (1.5, 1.0)))
    p = tmp_path / "badspec.txt"
    p.write_text(format_spherical_spec(bad))
    code, _, err = _run(capsys, "phi", "nessonov", work["g0"], "--spec", str(p))
    assert code == 1
    assert "badspec.txt" in err


def test_a_tolerance_that_is_not_a_nonnegative_number_exits_one(work, capsys):
    for tol in ("nan", "-1e-8"):
        for argv in (
            ["validate", work["spec"], "--kind", "spec"],
            ["gram", work["id2"], work["g0"], "--family", "l2"],
        ):
            code, out, err = _run(capsys, *argv, f"--tol={tol}")
            assert code == 1 and not out and "nonnegative number" in err


def test_gram_accepts_files_and_directories(work, capsys, tmp_path):
    code, out, _ = _run(
        capsys, "gram", work["id2"], work["g0"], work["r1"], "--family", "l2"
    )
    assert code == 0
    assert out.splitlines()[0] == "gram certificate over 3 elements"
    assert out.rstrip().endswith("verdict PASS")

    gdir = tmp_path / "elements"
    gdir.mkdir()
    for i in range(3):
        (gdir / f"e{i}.txt").write_text(
            format_element(random_element(2, 5, seed=f"gram-{i}"))
        )
    code, out, _ = _run(
        capsys, "gram", str(gdir), "--family", "nessonov", "--spec", work["spec"]
    )
    assert code == 0
    assert out.splitlines()[0] == "gram certificate over 3 elements"
    assert out.rstrip().endswith("verdict PASS")


def test_enum_thorns_listing(capsys):
    code, out, _ = _run(capsys, "enum-thorns", "--arity", "2", "--iota", "0",
                        "--max-vertices", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[1] == "(1:)"
    assert lines[1].split()[1] == "(1:(1:))"
    code, _, err = _run(capsys, "enum-thorns", "--arity", "2", "--iota", "1",
                        "--max-vertices", "2")
    assert code == 1 and "residue" in err


def _recorded_enum_digests() -> dict[str, str]:
    """The benchmark's ``ENUM_DIGESTS``, read from its source, not imported."""
    source = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ENUM_DIGESTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{source} records no ENUM_DIGESTS")


def test_enum_thorns_matches_every_recorded_class_list_digest(capsys):
    # sha256 of the newline-joined tokens, as the benchmark's enum check takes it
    digests = _recorded_enum_digests()
    assert len(digests) == 13
    for config, digest in digests.items():
        arity, iota, cap = config.split(",")
        code, out, _ = _run(capsys, "enum-thorns", "--arity", arity, "--iota", iota, "--max-vertices", cap)
        tokens = "\n".join(line.split()[0] for line in out.splitlines())
        assert code == 0
        assert hashlib.sha256(tokens.encode("utf-8")).hexdigest() == digest, config


def test_enum_thorns_parses_no_code(capsys, monkeypatch):
    """enum-thorns prints each class's counts off its text: the code-text
    parser runs zero times."""
    calls = []
    parse = thorn._parse_code

    def counting(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(thorn, "_parse_code", counting)
    ThornCode(2, "(1:)")  # the patch does bite
    assert len(calls) == 1
    calls.clear()
    code, out, _ = _run(capsys, "enum-thorns", "--arity", "4", "--iota", "0", "--max-vertices", "5")
    assert code == 0 and len(out.splitlines()) == 233
    assert calls == []


def test_random_element_is_seed_deterministic(capsys):
    runs = [
        _run(capsys, "random-element", "--arity", "2", "--budget", "6", "--seed", "s1")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    other = _run(capsys, "random-element", "--arity", "2", "--budget", "6", "--seed", "s2")
    assert other[1] != runs[0][1]
    code, _, err = _run(capsys, "random-element", "--arity", "2", "--budget", "6")
    assert code == 1 and "--seed" in err


def test_thompson_gens_output(capsys):
    code, out, _ = _run(capsys, "thompson-gens", "--which", "rotation")
    assert code == 0
    rotation, _, _ = thompson_generators()
    assert parse_element(out) == rotation

    code, out, _ = _run(capsys, "thompson-gens")
    assert code == 0
    assert out.count("arity 2") == 3
    assert "# rotation" in out and "# a" in out and "# b" in out


def test_oracle_depth_and_determinism(work, capsys):
    first = _run(capsys, "oracle", work["g0"], "--depth", "3")
    assert first == _run(capsys, "oracle", work["g0"], "--depth", "3")
    assert first[0] == 0
    lines = first[1].splitlines()
    assert lines[0] == "arity 2" and lines[1] == "depth 3"
    assert all("->" in line for line in lines[2:])
    assert len(lines) == 2 + 12  # all 3*2*2 depth-3 words of the rooted chart

    code, _, err = _run(capsys, "oracle", work["g0"], "--depth", "1")
    assert code == 1 and "below the table depth" in err


def test_depth_belongs_to_oracle_alone(work, capsys):
    code, out, err = _run(capsys, "--depth", "3", "oracle", work["g0"])
    assert code == 1 and out == "" and err.startswith("error: ")
    code, out, _ = _run(capsys, "oracle", work["g0"], "--depth", "3")
    assert code == 0 and out.splitlines()[1] == "depth 3"
    code, out, _ = _run(capsys, "oracle", work["g0"])
    assert code == 0 and out.splitlines()[1] == "depth 5"  # table depth + 3


def test_parser_is_built_once_and_keeps_no_state_between_calls(work, capsys):
    assert build_parser() is build_parser()
    commands = [
        ("phi", "product", work["g0"], "--spec", work["spec"], "--l2"),
        ("phi", "nessonov", work["r1"], "--spec", work["spec"]),
        ("gram", work["id2"], work["g0"], work["r1"], "--family", "l2"),
    ]
    alone = []
    for argv in commands:
        build_parser.cache_clear()
        alone.append(_run(capsys, *argv))
    before = build_parser.cache_info()
    assert [_run(capsys, *argv) for argv in commands] == alone
    after = build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + len(commands))
    assert [code for code, _, _ in alone] == [0, 0, 0]


def test_module_entry_point_matches_the_in_process_run(capsys, tmp_path, monkeypatch):
    """``python -m spherotree`` runs ``main`` and exits with its code."""
    monkeypatch.chdir(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, expected in [(["thompson-gens", "--which", "rotation"], 0), (["invert", "missing.txt"], 1)]:
        done = subprocess.run(
            [sys.executable, "-m", "spherotree", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == _run(capsys, *argv)
        assert done.returncode == expected


def test_closed_stdout_exits_one_quietly(tmp_path):
    """A reader that closes stdout before the run writes (``| head``) gets
    exit 1 and nothing on stderr, whether the write fails at the final flush
    (a short, buffered output), part way through the printing (468 classes)
    or at the first write (unbuffered, ``-u``)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for flags, argv in (
        ([], ["thompson-gens", "--which", "rotation"]),
        ([], ["enum-thorns", "--arity", "2", "--iota", "0", "--max-vertices", "9"]),
        (["-u"], ["thompson-gens", "--which", "rotation"]),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "spherotree", *argv],
                cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, ""), (flags, argv)


def test_usage_errors_exit_one(capsys):
    code, _, err = _run(capsys, "no-such-command")
    assert code == 1 and "invalid choice" in err
    code, _, err = _run(capsys)
    assert code == 1


def test_internal_error_trap_exits_two(work, capsys, monkeypatch):
    import spherotree.cli as cli_module

    def boom(_):
        raise InternalError("fabricated invariant failure")

    monkeypatch.setattr(cli_module, "coset_code", boom)
    code, _, err = _run(capsys, "canon", work["g0"])
    assert code == 2
    assert "internal error (bug)" in err

    def crash(_):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli_module, "coset_code", crash)
    code, _, err = _run(capsys, "canon", work["g0"])
    assert code == 2
