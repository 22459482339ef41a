"""List the statements of ``src/stagedtree`` that no test executes.

Usage: ``python tools/linecov.py [pytest arguments]`` from the repository
root; with no arguments it runs the tier-1 suite (``tests``).

pytest runs in this process under ``sys.settrace`` and ``threading.settrace``,
with line events recorded only in frames whose code lies in
``src/stagedtree``.  A statement counts as executed when a line event falls
on any of its lines; for a compound statement, any line of its header (from
its first decorator to the line before its body).  Statements come from
``ast``; docstrings, ``global`` and ``nonlocal`` are left out.  Code that
the tests run in subprocesses, such as the CLI spawned by ``subprocess``, is
not traced, so it is listed here even when a test exercises it.  Tracing
slows the suite several times over: the tier-1 suite takes minutes.

Prints ``path:line: source`` for each statement never executed, then a
count; exits with pytest's exit code.  Needs only the standard library and
pytest.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stagedtree"


def statement_spans(source: str) -> list[tuple[int, int, int]]:
    """(first line, last line, reported line) of every statement that runs."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = list(ast.walk(ast.parse(source)))
    docstrings = {
        id(node.body[0]) for node in nodes
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None
    }
    spans = []
    for node in nodes:
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                or id(node) in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            last = max(node.lineno, body[0].lineno - 1)  # the header only
        else:
            last = node.end_lineno
        spans.append((first, last, node.lineno))
    return sorted(spans)


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; return its exit code and the lines hit
    per file of the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename is None:  # seen on frames run at interpreter shutdown
            return None
        mine = ours.get(filename)
        if mine is None:
            mine = ours[filename] = str(Path(filename).resolve()).startswith(prefix)
            if mine:
                hits.setdefault(filename, set())
        if not mine:
            return None
        hits[filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for filename, lines in hits.items():
        by_path.setdefault(str(Path(filename).resolve()), set()).update(lines)
    return int(code), by_path


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        hit = hits.get(str(path), set())
        for first, last, line in statement_spans(source):
            if hit.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} statements not executed by the tests")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
