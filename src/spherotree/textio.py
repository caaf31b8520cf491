"""Line-oriented text formats for the objects the command line exchanges.

Every format shares one shape: ``#`` starts a comment, blank lines are
skipped, and each remaining line is a keyword (or a fixed positional form)
followed by whitespace-separated fields.  Parsers report problems as
``<source>:<line>: message``; whole-object problems that have no single
line name just the source.  Formatters emit deterministic bytes — floats
are printed with ``repr`` so that parse(format(x)) == x exactly and
format(parse(t)) is stable.
"""

from __future__ import annotations

from typing import Callable, NoReturn

from .bithorn import BiThorn
from .element import Spheromorphism, _from_addresses
from .errors import DomainError, ValidationError
from .orbitstats import ClassTable, TransitionCounts
from .spherical import GramReport, SphericalSpec, TensorSpec
from .thorn import _INTEGER, SubThorn, ThornCode
from .tree import UP, Address, ClopenSet, _marked_clopen, check_arity, format_address, parse_address


# ---------------------------------------------------------------------------
# shared line machinery
# ---------------------------------------------------------------------------


def _fail(source: str, lineno: int, message: str) -> NoReturn:
    where = f"{source}:{lineno}" if lineno else source
    raise ValidationError(f"{where}: {message}")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped content) for every non-blank non-comment line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_int(field: str, source: str, lineno: int, what: str) -> int:
    if not _INTEGER.fullmatch(field):
        _fail(source, lineno, f"{what} {field!r} is not an integer")
    return int(field)


def _parse_float(field: str, source: str, lineno: int, what: str) -> float:
    # float() alone admits other scripts' digits and underscores
    if field.isascii() and "_" not in field:
        try:
            return float(field)
        except ValueError:
            pass
    _fail(source, lineno, f"{what} {field!r} is not a number")


def _header_arity(lines: list[tuple[int, str]], source: str) -> tuple[int, list[tuple[int, str]]]:
    if not lines:
        _fail(source, 0, "the input is empty")
    lineno, line = lines[0]
    fields = line.split()
    if len(fields) != 2 or fields[0] != "arity":
        _fail(source, lineno, f"expected 'arity <n>' first, found {line!r}")
    arity = _parse_int(fields[1], source, lineno, "arity")
    return _build(source, lineno, check_arity, arity), lines[1:]


def _build(source: str, lineno: int, maker: Callable, *args, **kwargs):
    """Run a constructor, prefixing its complaint with the source location."""
    try:
        return maker(*args, **kwargs)
    except (ValidationError, DomainError) as err:
        _fail(source, lineno, str(err))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def format_element(g: Spheromorphism) -> str:
    lines = [f"arity {g.arity}"]
    lines.extend(
        f"{format_address(u)} -> {format_address(v)}" for u, v in g.pieces
    )
    return "\n".join(lines) + "\n"


def parse_element(text: str, source: str = "<element>") -> Spheromorphism:
    """Read a prefix-exchange table: 'arity n' then one 'u -> v' line per piece."""
    arity, rest = _header_arity(_content_lines(text), source)
    pieces = []
    last = 0
    for lineno, line in rest:
        last = lineno
        fields = line.split()
        if len(fields) != 3 or fields[1] != "->":
            _fail(source, lineno, f"expected '<source> -> <target>', found {line!r}")
        u = _build(source, lineno, parse_address, fields[0], arity, what="table source")
        v = _build(source, lineno, parse_address, fields[2], arity, what="table target")
        pieces.append((u, v))
    return _build(source, last, _from_addresses, arity, pieces)


# ---------------------------------------------------------------------------
# clopen sets
# ---------------------------------------------------------------------------


def format_clopen(omega: ClopenSet) -> str:
    lines = [f"arity {omega.arity}"]
    lines.extend(
        f"{format_address(leaf)} {1 if marked else 0}"
        for leaf, marked in omega.leaf_flags()
    )
    return "\n".join(lines) + "\n"


def parse_clopen(text: str, source: str = "<clopen>") -> ClopenSet:
    """Read a clopen set: 'arity n' then one '<address> <0|1>' line per leaf."""
    arity, rest = _header_arity(_content_lines(text), source)
    flags: dict[Address, bool] = {}
    last = 0
    for lineno, line in rest:
        last = lineno
        fields = line.split()
        if len(fields) != 2 or fields[1] not in ("0", "1"):
            _fail(source, lineno, f"expected '<address> <0|1>', found {line!r}")
        leaf = _build(source, lineno, parse_address, fields[0], arity, what="leaf")
        if leaf in flags:
            _fail(source, lineno, f"leaf {fields[0]} appears twice")
        flags[leaf] = fields[1] == "1"
    return _build(source, last, _marked_clopen, arity, flags)


# ---------------------------------------------------------------------------
# embedded thorns
# ---------------------------------------------------------------------------


def _format_spike(spike: tuple[Address, int]) -> str:
    vertex, direction = spike
    tail = "up" if direction == UP else str(direction)
    return f"{format_address(vertex)}:{tail}"


def format_subthorn(t: SubThorn) -> str:
    lines = [f"arity {t.arity}"]
    lines.extend(f"vertex {format_address(v)}" for v in sorted(t.vertices))
    lines.extend(f"spike {_format_spike(s)}" for s in sorted(t.spikes))
    return "\n".join(lines) + "\n"


def parse_subthorn(text: str, source: str = "<thorn>") -> SubThorn:
    """Read an embedded thorn: vertex addresses plus '<vertex>:<child|up>' spikes."""
    arity, rest = _header_arity(_content_lines(text), source)
    vertices: set[Address] = set()
    spikes: set[tuple[Address, int]] = set()
    last = 0
    for lineno, line in rest:
        last = lineno
        fields = line.split()
        if len(fields) != 2 or fields[0] not in ("vertex", "spike"):
            _fail(source, lineno, f"expected 'vertex <addr>' or 'spike <addr>:<dir>', found {line!r}")
        if fields[0] == "vertex":
            vertices.add(_build(source, lineno, parse_address, fields[1], arity, what="vertex"))
            continue
        head, sep, tail = fields[1].rpartition(":")
        if not sep:
            _fail(source, lineno, f"spike {fields[1]!r} needs the form <addr>:<child|up>")
        vertex = _build(source, lineno, parse_address, head, arity, what="spike vertex")
        direction = UP if tail == "up" else _parse_int(tail, source, lineno, "spike direction")
        if tail.startswith("-"):  # UP is -1, spelt only as up
            _fail(source, lineno, f"spike direction {tail!r} is negative")
        spikes.add((vertex, direction))
    return _build(source, last, SubThorn, arity, frozenset(vertices), frozenset(spikes))


# ---------------------------------------------------------------------------
# class tables and spherical matrix/vector files
# ---------------------------------------------------------------------------


def _parse_code_field(field: str, arity: int, source: str, lineno: int) -> ThornCode:
    """A thorn class, as either its hex token or its literal code text."""
    if field.startswith("(") or field == "E":
        return _build(source, lineno, ThornCode, arity, field)
    code = _build(source, lineno, ThornCode.from_token, field)
    if code.arity != arity:
        _fail(source, lineno, f"class {field} has arity {code.arity}, the table says {arity}")
    return code


def _parse_table_block(
    lines: list[tuple[int, str]], source: str
) -> tuple[ClassTable, list[tuple[int, str]], int]:
    arity, rest = _header_arity(lines, source)
    iota: int | None = None
    codes: list[ThornCode] = []
    last = lines[0][0]
    index = 0
    for index, (lineno, line) in enumerate(rest):
        fields = line.split()
        if fields[0] == "iota" and len(fields) == 2:
            if iota is not None:
                _fail(source, lineno, "iota given twice")
            iota = _parse_int(fields[1], source, lineno, "iota")
        elif fields[0] == "class" and len(fields) == 2:
            codes.append(_parse_code_field(fields[1], arity, source, lineno))
        else:
            index -= 1
            break
        last = lineno
    if iota is None:
        _fail(source, last, "missing 'iota <r>' line")
    table = _build(source, last, ClassTable, arity, iota, tuple(codes))
    return table, rest[index + 1 :], last


def format_class_table(table: ClassTable) -> str:
    lines = [f"arity {table.arity}", f"iota {table.iota}"]
    lines.extend(f"class {code.token}" for code in table.tracked)
    return "\n".join(lines) + "\n"


def parse_class_table(text: str, source: str = "<table>") -> ClassTable:
    """Read a class table: 'arity', 'iota', then one 'class <token>' per class."""
    table, rest, _ = _parse_table_block(_content_lines(text), source)
    if rest:
        _fail(source, rest[0][0], f"unexpected line {rest[0][1]!r} after the class table")
    return table


def format_spherical_spec(spec: SphericalSpec) -> str:
    lines = [format_class_table(spec.table).rstrip("\n")]
    lines.extend("row " + " ".join(repr(x) for x in row) for row in spec.matrix)
    return "\n".join(lines) + "\n"


def parse_spherical_spec(text: str, source: str = "<spec>") -> SphericalSpec:
    """Read a class-matrix file: a class table followed by its Gram rows."""
    table, rest, last = _parse_table_block(_content_lines(text), source)
    rows = []
    for lineno, line in rest:
        last = lineno
        fields = line.split()
        if fields[0] != "row":
            _fail(source, lineno, f"expected 'row <numbers>', found {line!r}")
        rows.append(
            tuple(_parse_float(f, source, lineno, "matrix entry") for f in fields[1:])
        )
    return _build(source, last, SphericalSpec, table, tuple(rows))


def format_tensor_spec(tspec: TensorSpec) -> str:
    lines = [
        f"arity {tspec.arity}",
        f"iota {tspec.iota}",
        f"cap {tspec.cap}",
        "limit " + " ".join(repr(x) for x in tspec.limit),
    ]
    lines.extend(
        f"vector {code.token} " + " ".join(repr(x) for x in vec)
        for code, vec in tspec.vectors
    )
    return "\n".join(lines) + "\n"


def parse_tensor_spec(text: str, source: str = "<tensor-spec>") -> TensorSpec:
    """Read a vector assignment: arity/iota/cap/limit lines plus 'vector' lines."""
    arity, rest = _header_arity(_content_lines(text), source)
    settings: dict[str, object] = {}
    vectors: list[tuple[ThornCode, tuple[float, ...]]] = []
    last = 0
    for lineno, line in rest:
        last = lineno
        fields = line.split()
        key = fields[0]
        if key == "vector" and len(fields) >= 3:
            code = _parse_code_field(fields[1], arity, source, lineno)
            vec = tuple(_parse_float(f, source, lineno, "vector entry") for f in fields[2:])
            vectors.append((code, vec))
            continue
        if not (key in ("iota", "cap") and len(fields) == 2 or key == "limit" and len(fields) >= 2):
            _fail(source, lineno, f"unexpected line {line!r} in a tensor spec file")
        if key in settings:
            _fail(source, lineno, f"{key} given twice")
        if key == "limit":
            settings[key] = tuple(_parse_float(f, source, lineno, "limit entry") for f in fields[1:])
        else:
            settings[key] = _parse_int(fields[1], source, lineno, key)
    for name in ("iota", "cap", "limit"):
        if name not in settings:
            _fail(source, last, f"missing '{name}' line")
    return _build(
        source, last, TensorSpec, arity, settings["iota"], settings["cap"], tuple(vectors), settings["limit"]
    )


# ---------------------------------------------------------------------------
# reports (output only)
# ---------------------------------------------------------------------------


def format_transition_counts(counts: TransitionCounts) -> str:
    labels = counts.labels
    lines = ["classes " + " ".join(labels)]
    for label, row in zip(labels, counts.matrix):
        cells = " ".join("-" if x is None else str(x) for x in row)
        lines.append(f"{label} {cells}")
    return "\n".join(lines) + "\n"


def format_gram_report(report: GramReport) -> str:
    lines = [f"gram certificate over {len(report.elements)} elements"]
    lines.extend(
        "matrix " + " ".join(repr(x) for x in row) for row in report.matrix
    )
    lines.extend(f"warning {w}" for w in report.warnings)
    lines.append(f"min_eig {report.min_eigenvalue!r}")
    lines.append(f"tol {report.tolerance!r}")
    lines.append(f"verdict {report.verdict}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph-description emitters
# ---------------------------------------------------------------------------


def _dot_thorn_lines(t: SubThorn, prefix: str, indent: str) -> list[str]:
    lines = []
    for v in sorted(t.vertices):
        lines.append(f'{indent}"{prefix}{format_address(v)}" [shape=circle];')
    for a, b in sorted(t.internal_edges()):
        lines.append(f'{indent}"{prefix}{format_address(a)}" -- "{prefix}{format_address(b)}";')
    for s in sorted(t.spikes):
        name = f"{prefix}spike:{_format_spike(s)}"
        lines.append(f'{indent}"{name}" [shape=point label=""];')
        lines.append(f'{indent}"{prefix}{format_address(s[0])}" -- "{name}";')
    return lines


def subthorn_dot(t: SubThorn) -> str:
    lines = ["graph thorn {"] + _dot_thorn_lines(t, "", "  ") + ["}"]
    return "\n".join(lines) + "\n"


def bithorn_dot(b: BiThorn) -> str:
    lines = ["graph bithorn {"]
    lines.append('  subgraph cluster_domain {')
    lines.append('    label="domain";')
    lines.extend(_dot_thorn_lines(b.dom, "dom:", "    "))
    lines.append("  }")
    lines.append('  subgraph cluster_range {')
    lines.append('    label="range";')
    lines.extend(_dot_thorn_lines(b.ran, "ran:", "    "))
    lines.append("  }")
    for s, t in sorted(b.pairing):
        lines.append(
            f'  "dom:spike:{_format_spike(s)}" -- "ran:spike:{_format_spike(t)}" [style=dashed];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
