"""List every statement in src/qrsp/ that the test suite never runs.

`coverage` is not a dependency, so this runs the tests in process under
sys.settrace, records each executed line of the package, then walks each
module's ast.  A statement counts as run when a line of its own span ran:
the whole span of a simple statement, or the header of a compound one
(decorators through the line before its body).  Docstrings are skipped.
It edits no file; like any test run, hypothesis keeps its git-ignored
.hypothesis/ cache.

    python tools/uncovered.py [pytest args]    # default: -q -p no:cacheprovider tests

Prints one `path:line: source` per statement not run and exits with
pytest's status.  Expect about twice the suite's normal time.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrsp"


def _trace_lines(run) -> tuple:
    """(run(), {filename: executed line numbers} over PACKAGE)."""
    prefix = str(PACKAGE)
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.settrace(scope)
    threading.settrace(scope)
    try:
        status = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def _own_lines(node) -> range:
    """The lines whose execution shows that `node` ran."""
    start = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(start, max(body[0].lineno, node.lineno + 1))
    return range(start, node.end_lineno + 1)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def uncovered(hits: dict) -> list:
    """(path, line, source) of each package statement that no line event reached."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ran = hits.get(str(path), set())
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.stmt) and not _is_docstring(node)
                    and ran.isdisjoint(_own_lines(node))):
                missed.append((path.relative_to(ROOT), node.lineno,
                               lines[node.lineno - 1].strip()))
    return sorted(missed)


def main(argv) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, hits = _trace_lines(lambda: pytest.main(args))
    for path, line, text in uncovered(hits):
        print(f"{path}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
