"""Round-trip and diagnostic tests for the plain-text formats."""

import random
import re
import sys

import pytest

from spherotree import tree
from spherotree import (
    ClassTable,
    ClopenSet,
    SphericalSpec,
    SubThorn,
    TensorSpec,
    ThornCode,
    UP,
    ValidationError,
    bithorn_of,
    down,
    identity,
    random_element,
    theta,
    thompson_generators,
)
from spherotree.spherical import gram_psd_check, phi_l2
from spherotree.textio import (
    bithorn_dot,
    format_class_table,
    format_clopen,
    format_element,
    format_gram_report,
    format_spherical_spec,
    format_subthorn,
    format_tensor_spec,
    format_transition_counts,
    parse_class_table,
    parse_clopen,
    parse_element,
    parse_spherical_spec,
    parse_subthorn,
    parse_tensor_spec,
    subthorn_dot,
)

from oracles import witness_nonautomorphism, witness_translation

BALL = ThornCode(2, "(1:)")
PAIR = ThornCode(2, "(1:(1:))")


def test_element_round_trip_random():
    rotation, a, b = thompson_generators()
    fixtures = [identity(2), identity(3), witness_nonautomorphism(),
                witness_translation(), rotation, a, b]
    fixtures += [random_element(2, 8, seed=f"io-{i}") for i in range(10)]
    fixtures += [random_element(3, 7, seed=f"io3-{i}") for i in range(10)]
    for g in fixtures:
        text = format_element(g)
        assert parse_element(text) == g
        assert format_element(parse_element(text)) == text


def test_element_format_is_line_oriented_with_comments():
    text = "# a comment\narity 2\n\n00 -> 0   # trailing comment\n01 -> 20\n1 -> 21\n2 -> 1\n"
    g = parse_element(text)
    assert g.arity == 2
    assert g.apply_word((0, 0, 1)) == (0, 1)


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("", "empty"),
        ("arity 2\nxx yy\n", "expected"),
        ("depth 3\n", "expected 'arity"),
        ("arity 2\n00 -> 0\n", "prefix code"),
        ("arity 2\n00 -> 0\n00 -> 1\n1 -> 21\n2 -> 20\n01 -> 2\n", "duplicate source"),
        ("arity 9999\n0 -> 0\n", "arity"),
    ],
)
def test_element_parse_errors_name_source_and_line(bad, fragment):
    with pytest.raises(ValidationError, match=fragment) as err:
        parse_element(bad, source="input.txt")
    assert "input.txt" in str(err.value)


def test_clopen_round_trip():
    rng = random.Random("clopen-io")
    for trial in range(25):
        arity = rng.choice([2, 3])
        base = ClopenSet.from_balls(
            arity,
            [down((rng.randrange(arity + 1), rng.randrange(arity)))],
        )
        text = format_clopen(base)
        again = parse_clopen(text)
        assert again == base
        assert format_clopen(again) == text


def test_clopen_parse_errors():
    with pytest.raises(ValidationError, match="expected '<address> <0|1>'".replace("|", r"\|")):
        parse_clopen("arity 2\n0 maybe\n")
    with pytest.raises(ValidationError, match="appears twice"):
        parse_clopen("arity 2\n0 1\n0 0\n1 0\n2 0\n")
    with pytest.raises(ValidationError, match="empty"):
        parse_clopen("arity 2\n0 0\n1 0\n2 0\n")


def test_parsers_check_each_address_once(monkeypatch):
    """A four-leaf clopen file and ``ClopenSet.from_marks`` on its leaves
    make one ``validate_address`` call per leaf, and a five-piece element
    file one per address."""
    calls = []
    real = tree.validate_address

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for key, module in sorted(sys.modules.items()):
        if (key == "spherotree" or key.startswith("spherotree.")) and hasattr(module, "validate_address"):
            monkeypatch.setattr(module, "validate_address", counted)
    omega = parse_clopen("arity 2\n00 1\n01 0\n1 1\n2 0\n")
    assert sorted(calls) == sorted(omega.carrier) == [(0, 0), (0, 1), (1,), (2,)]
    calls.clear()
    assert ClopenSet.from_marks(2, omega.leaf_flags()) == omega
    assert sorted(calls) == sorted(omega.carrier)
    calls.clear()
    g = parse_element("arity 2\n000 -> 0\n001 -> 10\n01 -> 11\n1 -> 20\n2 -> 21\n")
    assert len(g.pieces) == 5
    assert len(calls) == 10


def test_subthorn_round_trip_including_empty_and_up():
    empty = SubThorn(2, frozenset(), frozenset())
    one = SubThorn(2, frozenset({(0,)}), frozenset({((0,), 1), ((0,), UP)}))
    deep = SubThorn(
        2,
        frozenset({(), (0,), (1,)}),
        frozenset({((), 2), ((0,), 0), ((1,), 1)}),
    )
    for t in (empty, one, deep):
        text = format_subthorn(t)
        again = parse_subthorn(text)
        assert again == t
        assert format_subthorn(again) == text
    assert "spike 0:up" in format_subthorn(one)


def test_subthorn_parse_errors():
    with pytest.raises(ValidationError, match="needs the form"):
        parse_subthorn("arity 2\nvertex .\nspike 0\n")
    with pytest.raises(ValidationError, match="no thorn vertex"):
        parse_subthorn("arity 2\nvertex .\nspike 00:1\n")


def test_class_table_and_spec_round_trip():
    table = ClassTable(2, 0, (BALL, PAIR))
    text = format_class_table(table)
    assert parse_class_table(text) == table

    spec = SphericalSpec(table, ((1.0, 0.5, 0.25), (0.5, 1.0, 0.125), (0.25, 0.125, 1.0)))
    stext = format_spherical_spec(spec)
    again = parse_spherical_spec(stext)
    assert again == spec
    assert format_spherical_spec(again) == stext


def test_class_table_accepts_literal_code_text():
    table = parse_class_table("arity 2\niota 0\nclass (1:)\n")
    assert table.tracked == (BALL,)
    with pytest.raises(ValidationError, match="not an orbit class"):
        parse_class_table("arity 2\niota 0\nclass (2:)\n")
    with pytest.raises(ValidationError, match="missing 'iota"):
        parse_class_table("arity 2\nclass (1:)\n")
    with pytest.raises(ValidationError, match="unexpected line"):
        parse_class_table("arity 2\niota 0\nclass (1:)\nrow 1.0\n")


def test_tensor_spec_round_trip():
    tspec = TensorSpec(2, 0, 2, ((BALL, (1.0, 0.0)), (PAIR, (0.0, 1.0))), (0.6, 0.8))
    text = format_tensor_spec(tspec)
    again = parse_tensor_spec(text)
    assert again == tspec
    assert format_tensor_spec(again) == text
    with pytest.raises(ValidationError, match="missing 'cap'"):
        parse_tensor_spec("arity 2\niota 0\nlimit 1.0\n")
    with pytest.raises(ValidationError, match="unexpected line"):
        parse_tensor_spec("arity 2\niota 0\ncap 1\nlimit 1.0\nrow 1.0\n")


@pytest.mark.parametrize("key, line", [("iota", "iota 0"), ("cap", "cap 2"), ("limit", "limit 0.6 0.8")])
def test_tensor_spec_rejects_repeated_settings(key, line):
    text = "arity 2\niota 0\ncap 1\nlimit 1.0 0.0\n" + line + "\n"
    with pytest.raises(ValidationError, match=f"^spec.txt:5: {key} given twice$"):
        parse_tensor_spec(text, source="spec.txt")


@pytest.mark.parametrize(
    "parse, text, fragment",
    [
        # a fullwidth two, which int() reads as 2
        (parse_element, "arity \uff12\n0 -> 0\n1 -> 1\n2 -> 2\n", "in.txt:1: arity '\uff12'"),
        (parse_element, "arity +2\n0 -> 0\n1 -> 1\n2 -> 2\n", "in.txt:1: arity '+2'"),
        # an Arabic-Indic zero, which int() reads as 0
        (parse_class_table, "arity 2\niota \u0660\nclass 2x28313a29\n", "in.txt:2: iota '\u0660'"),
        (parse_subthorn, "arity 2\nvertex .\nspike .:\u0660\n", "in.txt:3: spike direction '\u0660'"),
        (parse_tensor_spec, "arity 2\niota 0\ncap 1_0\nlimit 1.0 0.0\n", "in.txt:3: cap '1_0'"),
        (parse_class_table, "arity 2\niota 0\nclass \u0662x28313a29\n", "in.txt:3: bad thorn code token"),
    ],
)
def test_integer_fields_take_ascii_digits_only(parse, text, fragment):
    with pytest.raises(ValidationError, match="^" + re.escape(fragment) + ".* is not an integer$"):
        parse(text, source="in.txt")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_class_table, "arity 2\niota -1\nclass 2x28313a29\n", "in.txt:3: residue -1 is out of range for arity 2"),
        (parse_class_table, "arity 2\niota 0\nclass -2x28313a29\n", "in.txt:3: arity must be at least 2, got -2"),
        (
            parse_tensor_spec,
            "arity 2\niota 0\ncap -1\nlimit 1.0 0.0\nvector 2x28313a29 1.0 0.0\n",
            "in.txt:5: the class-size cap must be at least 1",
        ),
    ],
)
def test_negative_integer_fields_meet_their_range_checks(parse, text, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        parse(text, source="in.txt")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        # a bad arity fails on its own line, before any later line reads it
        (parse_element, "arity -2\n0 -> 0\n", "in.txt:1: arity must be at least 2, got -2"),
        (parse_clopen, "arity 1\n0 1\n", "in.txt:1: arity must be at least 2, got 1"),
        (parse_subthorn, "arity 0\nvertex .\n", "in.txt:1: arity must be at least 2, got 0"),
        (
            parse_class_table,
            f"arity {tree.MAX_TEXT_ARITY + 1}\niota 0\nclass (1:)\n",
            f"in.txt:1: arity {tree.MAX_TEXT_ARITY + 1} exceeds the supported maximum {tree.MAX_TEXT_ARITY}",
        ),
        # UP is -1, but a spike toward the parent is spelt up only
        (parse_subthorn, "arity 2\nvertex 0\nspike 0:-1\n", "in.txt:3: spike direction '-1' is negative"),
        (parse_subthorn, "arity 2\nvertex 0\nspike 0:-0\n", "in.txt:3: spike direction '-0' is negative"),
    ],
)
def test_header_arity_and_spike_directions_meet_their_range_checks(parse, text, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        parse(text, source="in.txt")


@pytest.mark.parametrize(
    "parse, text, fragment",
    [
        # Arabic-Indic digits, which float() reads as 1.0 and 0.5
        (
            parse_spherical_spec,
            "arity 2\niota 0\nclass 2x28313a29\nrow \u0661.\u0660 \u0660.\u0665\nrow \u0660.\u0665 \u0661.\u0660\n",
            "in.txt:4: matrix entry '\u0661.\u0660'",
        ),
        # an underscore, which float() reads as a digit separator
        (
            parse_spherical_spec,
            "arity 2\niota 0\nclass 2x28313a29\nrow 1.0 0_0.5\nrow 0.5 1.0\n",
            "in.txt:4: matrix entry '0_0.5'",
        ),
        (parse_tensor_spec, "arity 2\niota 0\ncap 1\nlimit 1.0 0_0.0\n", "in.txt:4: limit entry '0_0.0'"),
        (
            parse_tensor_spec,
            "arity 2\niota 0\ncap 1\nlimit 1.0 0.0\nvector 2x28313a29 \uff11.0 0.0\n",
            "in.txt:5: vector entry '\uff11.0'",
        ),
    ],
)
def test_float_fields_take_ascii_only(parse, text, fragment):
    with pytest.raises(ValidationError, match="^" + re.escape(fragment) + " is not a number$"):
        parse(text, source="in.txt")


def test_transition_counts_format():
    table = ClassTable(2, 0, (BALL,))
    counts = theta(witness_nonautomorphism(), table)
    text = format_transition_counts(counts)
    lines = text.splitlines()
    assert lines[0].split() == ["classes", "P", BALL.token]
    assert lines[1].split() == ["P", "-", "2"]
    assert lines[2].split() == [BALL.token, "2", "-"]


def test_gram_report_format_keys():
    report = gram_psd_check([identity(2), witness_nonautomorphism()], phi_l2)
    text = format_gram_report(report)
    lines = text.splitlines()
    assert lines[0] == "gram certificate over 2 elements"
    assert "matrix 1.0 0.0" in lines
    assert any(line.startswith("min_eig ") for line in lines)
    assert "tol 1e-08" in lines
    assert lines[-1] == "verdict PASS"


def test_dot_emitters_shape():
    t = SubThorn(2, frozenset({(0,), (0, 0)}), frozenset({((0,), UP), ((0, 0), 1)}))
    dot = subthorn_dot(t)
    assert dot.startswith("graph thorn {")
    assert '"0" -- "00";' in dot
    assert dot.rstrip().endswith("}")

    b = bithorn_of(witness_nonautomorphism())
    dot2 = bithorn_dot(b)
    assert "cluster_domain" in dot2 and "cluster_range" in dot2
    assert "[style=dashed]" in dot2
