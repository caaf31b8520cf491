"""Replay the README's command-line session and compare stdout byte for byte.

The ``sh`` block under "Command-line usage" is read from README.md itself:
each ``$ `` line is a command, and the lines after it, up to the next
command or blank line, are its output.  An output ending in ``…`` is cut
there, and only the lines before it are compared, as a prefix.  The few
shell forms the block uses are interpreted here: ``spherotree`` (run
through ``spherotree.cli.main``) with an optional ``> file``, ``cat file``,
``printf '...' > file``, a quoted here-document into a file, and a ``for``
loop over words.
"""

import re
import shlex
from pathlib import Path

from spherotree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CUT = "…"


def _session() -> list[tuple[str, list[str], list[str]]]:
    """(command, here-document lines, shown output lines) of the CLI block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.split("\n")
    steps = []
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line:
            continue
        assert line.startswith("$ "), f"README session line outside a command: {line!r}"
        command = line[2:]
        heredoc = []
        marker = re.search(r"<<'(\w+)'$", command)
        if marker:
            while lines[i] != marker.group(1):
                heredoc.append(lines[i])
                i += 1
            i += 1
        shown = []
        while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
            shown.append(lines[i])
            i += 1
        steps.append((command, heredoc, shown))
    return steps


def _run(command: str, heredoc: list[str], capsys, ran: list[str]) -> str:
    """Run one command of the session in the current directory; return its stdout."""
    loop = re.fullmatch(r"for (\w+) in ([^;]+); do (.+); done", command)
    if loop:
        name, words, body = loop.groups()
        return "".join(
            _run(body.replace(f"${name}", word), heredoc, capsys, ran) for word in words.split()
        )
    words = shlex.split(command, comments=True)
    target = None
    if ">" in words:
        at = words.index(">")
        words, target = words[:at], words[at + 1]
    if words[0] == "spherotree":
        capsys.readouterr()
        code = main(words[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), f"{command}: exit {code}, {captured.err}"
        ran.append(words[1])
        out = captured.out
    elif words == ["cat"]:
        out = "".join(line + "\n" for line in heredoc)
    elif words[0] == "cat":
        out = Path(words[1]).read_text()
    elif words[0] == "printf":
        out = words[1].replace("\\n", "\n")
    else:
        raise AssertionError(f"the README session uses a form this test cannot replay: {command}")
    if target is None:
        return out
    Path(target).write_text(out)
    return ""


def test_readme_cli_session_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran: list[str] = []
    for command, heredoc, shown in _session():
        out = _run(command, heredoc, capsys, ran)
        if shown and shown[-1] == CUT:
            expected = "".join(line + "\n" for line in shown[:-1])
            assert out.startswith(expected), command
            assert len(out) > len(expected), command
        else:
            assert out == "".join(line + "\n" for line in shown), command
    assert set(ran) == {
        "thompson-gens", "canon", "random-element", "is-aut", "compose", "invert", "equals",
        "validate", "classify-clopen", "upsilon", "enum-thorns", "theta", "phi", "gram", "oracle",
    }
