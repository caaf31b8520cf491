"""Command-line front end: parse inputs, run operations, emit text reports.

Exit codes: 0 on success, 1 when an input (file or flag) fails validation —
the diagnostic names the offending file and line — and 2 when an internal
invariant breaks (a bug trap, never a user error); stdout closed early (as by
``| head``) gives a quiet 1.  All output is line-oriented plain text and
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .bithorn import coset_code, is_automorphism, minimal_bithorn
from .element import (
    Spheromorphism,
    compose,
    equals,
    invert,
    random_element,
    thompson_generators,
    truncated_action,
)
from .errors import DomainError, InternalError, ValidationError
from .orbitstats import theta
from .spherical import (
    DEFAULT_PSD_TOL,
    gram_psd_check,
    nessonov_evaluator,
    phi_l2,
    phi_product,
    phi_tensor,
    tensor_evaluator,
    validate_spec,
)
from .textio import (
    bithorn_dot,
    format_element,
    format_gram_report,
    format_transition_counts,
    parse_class_table,
    parse_clopen,
    parse_element,
    parse_spherical_spec,
    parse_subthorn,
    parse_tensor_spec,
    subthorn_dot,
)
from .thorn import classify_clopen, enumerate_class_codes, maximal_ball_thorn
from .tree import format_address, upsilon


class _Parser(argparse.ArgumentParser):
    """Usage problems are user errors: report them on exit code 1, not 2."""

    def error(self, message: str):
        raise ValidationError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err.strerror or err}") from None


def _load(parse, path: str):
    """The object that ``parse`` reads from the file at ``path``."""
    return parse(_read(path), source=path)


def _element_paths(inputs: Sequence[str]) -> list[str]:
    """Expand directories to their sorted *.txt files; keep files as given."""
    paths: list[str] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            found = sorted(str(q) for q in p.glob("*.txt"))
            if not found:
                raise ValidationError(f"directory {item} contains no .txt files")
            paths.extend(found)
        else:
            paths.append(item)
    return paths


def _checked_spec(path: str, tol: float):
    """The parsed spec and its semidefiniteness report, which must pass."""
    spec = _load(parse_spherical_spec, path)
    report = validate_spec(spec, tol)
    if not report.ok:
        raise ValidationError(f"{path}: " + "; ".join(report.messages))
    return spec, report


def _check_family(args) -> None:
    """The family's rule on its factor flags, applied before any file is read."""
    specs, tensors, l2 = len(args.spec or ()), len(args.tensor_spec or ()), args.l2
    family = args.family
    if family == "nessonov" and (specs, tensors, l2) != (1, 0, False):
        raise ValidationError("family 'nessonov' takes exactly one --spec and nothing else")
    if family == "tensor" and (specs, tensors, l2) != (0, 1, False):
        raise ValidationError("family 'tensor' takes exactly one --tensor-spec and nothing else")
    if family == "l2" and (specs or tensors):
        raise ValidationError("family 'l2' takes no --spec or --tensor-spec files")
    if family == "product" and specs + tensors + l2 < 2:
        raise ValidationError(
            "family 'product' needs at least two factors (--spec/--tensor-spec/--l2)"
        )


def _build_phi(args) -> Callable[[Spheromorphism], float]:
    """φ of checked flags, each file read once; the factors multiply in a
    fixed order: matrix specs, vector specs, indicator."""
    factors = [nessonov_evaluator(_checked_spec(path, args.tol)[0]) for path in args.spec or ()]
    factors += [tensor_evaluator(_load(parse_tensor_spec, path)) for path in args.tensor_spec or ()]
    if args.l2 or args.family == "l2":
        factors.append(phi_l2)
    return functools.reduce(phi_product, factors)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    text = _read(args.file)
    kind = args.kind
    if kind == "element":
        g = parse_element(text, source=args.file)
        print(f"ok element arity={g.arity} pieces={len(g.pieces)} depth={g.depth()}")
    elif kind == "clopen":
        omega = parse_clopen(text, source=args.file)
        print(
            f"ok clopen arity={omega.arity} leaves={len(omega.carrier)} "
            f"marked={len(omega.marks)}"
        )
    elif kind == "thorn":
        t = parse_subthorn(text, source=args.file)
        print(f"ok thorn arity={t.arity} vertices={len(t.vertices)} spikes={len(t.spikes)}")
    elif kind == "table":
        table = parse_class_table(text, source=args.file)
        print(f"ok table arity={table.arity} iota={table.iota} classes={len(table.tracked)}")
    elif kind == "spec":
        spec, report = _checked_spec(args.file, args.tol)
        print(f"ok spec size={spec.size} min_eig={report.min_eigenvalue!r}")
    else:  # tensor-spec
        tspec = parse_tensor_spec(text, source=args.file)
        dim = len(tspec.limit)
        print(
            f"ok tensor-spec arity={tspec.arity} iota={tspec.iota} cap={tspec.cap} "
            f"vectors={len(tspec.vectors)} dim={dim}"
        )
    return 0


def _cmd_compose(args) -> int:
    gs = [_load(parse_element, path) for path in args.files]
    result = gs[0]
    for g in gs[1:]:
        result = compose(result, g)
    sys.stdout.write(format_element(result))
    return 0


def _cmd_invert(args) -> int:
    sys.stdout.write(format_element(invert(_load(parse_element, args.file))))
    return 0


def _cmd_equals(args) -> int:
    same = equals(_load(parse_element, args.a), _load(parse_element, args.b))
    print("true" if same else "false")
    return 0


def _cmd_canon(args) -> int:
    g = _load(parse_element, args.file)
    print(coset_code(g).token)
    if args.dot:
        sys.stdout.write(bithorn_dot(minimal_bithorn(g)))
    return 0


def _cmd_is_aut(args) -> int:
    print("true" if is_automorphism(_load(parse_element, args.file)) else "false")
    return 0


def _cmd_classify_clopen(args) -> int:
    omega = _load(parse_clopen, args.file)
    code = classify_clopen(omega)
    print(f"{code.token} {code.text}")
    if args.dot:
        sys.stdout.write(subthorn_dot(maximal_ball_thorn(omega)))
    return 0


def _cmd_upsilon(args) -> int:
    print(upsilon(_load(parse_clopen, args.file)))
    return 0


def _cmd_theta(args) -> int:
    g = _load(parse_element, args.element)
    table = _load(parse_class_table, args.table)
    sys.stdout.write(format_transition_counts(theta(g, table)))
    return 0


def _cmd_phi(args) -> int:
    _check_family(args)
    g = _load(parse_element, args.element)
    if args.family == "tensor":
        result = phi_tensor(g, _load(parse_tensor_spec, args.tensor_spec[0]))
        print(f"value {result.value!r}")
        print(f"cap_lumped {'true' if result.cap_lumped else 'false'}")
        return 0
    print(f"value {_build_phi(args)(g)!r}")
    return 0


def _cmd_gram(args) -> int:
    _check_family(args)
    phi = _build_phi(args)
    elements = [_load(parse_element, path) for path in _element_paths(args.elements)]
    report = gram_psd_check(elements, phi, tol=args.tol)
    sys.stdout.write(format_gram_report(report))
    return 0


def _cmd_enum_thorns(args) -> int:
    codes = enumerate_class_codes(args.arity, args.iota, args.max_vertices)
    for code in codes:
        print(
            f"{code.token} {code.text} vertices={code.vertex_count} spikes={code.spike_count}"
        )
    return 0


def _cmd_random_element(args) -> int:
    sys.stdout.write(format_element(random_element(args.arity, args.budget, args.seed)))
    return 0


def _cmd_thompson_gens(args) -> int:
    rotation, a, b = thompson_generators()
    named = {"rotation": rotation, "a": a, "b": b}
    if args.which == "all":
        blocks = []
        for name in ("rotation", "a", "b"):
            blocks.append(f"# {name}\n" + format_element(named[name]))
        sys.stdout.write("\n".join(blocks))
    else:
        sys.stdout.write(format_element(named[args.which]))
    return 0


def _cmd_oracle(args) -> int:
    g = _load(parse_element, args.element)
    depth = args.depth if args.depth is not None else g.depth() + 3
    mapping = truncated_action(g, depth)
    print(f"arity {g.arity}")
    print(f"depth {depth}")
    for word in sorted(mapping):
        print(f"{format_address(word)} -> {format_address(mapping[word])}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_phi_flags(p: _Parser) -> None:
    p.add_argument("--spec", action="append", metavar="FILE",
                   help="class-matrix file (repeatable for products)")
    p.add_argument("--tensor-spec", action="append", metavar="FILE",
                   help="class-vector file (repeatable for products)")
    p.add_argument("--l2", action="store_true",
                   help="include the automorphism-indicator factor")
    p.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL,
                   help="relative tolerance for semidefiniteness checks")


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="spherotree",
        description="Exact arithmetic for tail-rigid tree-boundary transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="parse one input file and report its shape")
    p.add_argument("file")
    p.add_argument("--kind", choices=["element", "clopen", "thorn", "table", "spec", "tensor-spec"],
                   default="element")
    p.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("compose", help="compose element files left to right")
    p.add_argument("files", nargs="+")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("invert", help="invert an element file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("equals", help="compare two element files as boundary maps")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_equals)

    p = sub.add_parser("canon", help="print the double-coset canonical token")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true",
                   help="also emit the minimal matched pair as a graph description")
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("is-aut", help="does the element extend to a tree automorphism?")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_is_aut)

    p = sub.add_parser("classify-clopen", help="orbit class of a clopen boundary set")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true",
                   help="also emit the reduced thorn as a graph description")
    p.set_defaults(handler=_cmd_classify_clopen)

    p = sub.add_parser("upsilon", help="ball-count residue of a clopen set")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_upsilon)

    p = sub.add_parser("theta", help="class-transition counts of an element")
    p.add_argument("element")
    p.add_argument("--table", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("phi", help="evaluate a spherical function at an element")
    p.add_argument("family", choices=["nessonov", "tensor", "l2", "product"])
    p.add_argument("element")
    _add_phi_flags(p)
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("gram", help="positive-semidefiniteness certificate for a family")
    p.add_argument("elements", nargs="+",
                   help="element files, or directories of *.txt element files")
    p.add_argument("--family", choices=["nessonov", "tensor", "l2", "product"],
                   required=True)
    _add_phi_flags(p)
    p.set_defaults(handler=_cmd_gram)

    p = sub.add_parser("enum-thorns", help="all orbit classes up to a size cap")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--iota", type=int, required=True)
    p.add_argument("--max-vertices", type=int, required=True)
    p.set_defaults(handler=_cmd_enum_thorns)

    p = sub.add_parser("random-element", help="seeded random element (deterministic)")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", required=True,
                   help="mandatory seed: identical seeds give identical output")
    p.set_defaults(handler=_cmd_random_element)

    p = sub.add_parser("thompson-gens", help="the three standard prefix-exchange generators")
    p.add_argument("--which", choices=["rotation", "a", "b", "all"], default="all")
    p.set_defaults(handler=_cmd_thompson_gens)

    p = sub.add_parser("oracle", help="dump the truncated word action of an element")
    p.add_argument("element")
    p.add_argument("--depth", type=int, default=None,
                   help="word depth of the dump (default: table depth + 3)")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # devnull for the exit's own flush ("Note on SIGPIPE", signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValidationError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalError as err:
        print(f"internal error (bug): {err}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as err:  # anything unplanned is a bug, not a user error
        print(f"internal error (bug): {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
