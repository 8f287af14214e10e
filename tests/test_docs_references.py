"""The prose docs name only things that exist.

README.md, DESIGN.md and EXPERIMENTS.md quote repo paths, ``repro``
module and attribute names, and ``python -m repro.<cli>`` command lines.
This test checks each one against the tree:

* every backticked repo path (``src/…``, ``tests/…``, ``benchmarks/…``,
  ``examples/…``, ``e2ebench/…``, ``.github/…``) exists (a glob must
  match something);
* every backticked ``repro.a.b[.c]`` name imports, or resolves as an
  attribute of the longest prefix that imports;
* every ``--flag`` on a ``python -m repro.<cli>`` line, in a code span
  or a fenced block, is an option of that CLI's parser.
"""

import glob
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks|examples|e2ebench|\.github)/[\w./*?-]*)")
_NAME = re.compile(r"(?<![\w.])(repro(?:\.\w+)+)")
_LOGICAL_LINE = re.compile(r"(?:[^\n]*\\\n)*[^\n]*")
_COMMAND = re.compile(r"python\s+-m\s+(repro(?:\.\w+)+)")
_FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")


def _line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def _spans(text):
    """(line, code) for every inline code span outside fenced blocks."""
    prose = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    return [(_line_of(prose, m.start()), m.group(1)) for m in _SPAN.finditer(prose)]


def _fenced(text):
    """(line, block) for every fenced code block."""
    return [(_line_of(text, m.start()), m.group(0)) for m in _FENCE.finditer(text)]


def _commands(text):
    """(line, code) for every code span and every logical line of a
    fenced block (backslash continuations joined)."""
    out = _spans(text)
    for start, block in _fenced(text):
        for m in _LOGICAL_LINE.finditer(block):
            out.append((start + block.count("\n", 0, m.start()), m.group(0)))
    return out


def _resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _options(cli):
    parser = importlib.import_module(f"{cli}.__main__").build_parser()
    return set(parser._option_string_actions)


def _doc_text(doc):
    return (ROOT / doc).read_text()


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    missing = []
    for line, code in _spans(_doc_text(doc)):
        for path in _PATH.findall(code):
            path = path.rstrip(".")
            if not glob.glob(str(ROOT / path)):
                missing.append(f"{doc}:{line}: {path}")
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_resolve(doc):
    missing = [
        f"{doc}:{line}: {name}"
        for line, code in _spans(_doc_text(doc))
        for name in _NAME.findall(code)
        if not _resolves(name)
    ]
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("doc", DOCS)
def test_cli_flags_are_options(doc):
    unknown = []
    for line, code in _commands(_doc_text(doc)):
        command = _COMMAND.search(code)
        if command is None:
            continue
        cli = command.group(1)
        options = _options(cli)
        at = line + code.count("\n", 0, command.start())
        for flag in _FLAG.findall(code[command.end():].split(" #")[0]):
            if flag not in options:
                unknown.append(f"{doc}:{at}: python -m {cli} {flag}")
    assert not unknown, "\n".join(unknown)
