"""Print the lines of src/bundlewave that a pytest run never executes.

A line trace in the standard library alone, for hosts without a coverage
tool: pytest runs in this process, with a `sys.settrace` hook on the
calling thread and a `threading.settrace` hook on every thread started
after it (so the step workers are traced), each recording the lines it
sees in the package's files.  A file's executable lines are those that
its compiled code maps instructions to (`co_lines`), docstrings excepted;
comments and blank lines map to none.  Lines run only inside a subprocess
that a test starts are not seen.

Arguments go to pytest as they are.  After pytest's own output, prints

    line trace: K of M executable lines in src/bundlewave never ran
    src/bundlewave/grid.py:71: return min(max(idx, 0), self.npoints - 1)

one line per line never run, in file and line order, and exits with
pytest's exit code.  Example, one test module:

    python3 scripts/line_trace.py -q tests/test_grid.py
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bundlewave"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that compiled code maps to, less docstrings.

    A function's or class's first line maps to its own code too, but it runs
    as part of the enclosing code, so it is counted there only."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        header = None if code.co_name == "<module>" else code.co_firstlineno
        lines.update(line for _, _, line in code.co_lines() if line and line != header)
        codes.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines - docstrings


def traced(run):
    """(run(), {path: lines executed}) for the package's files."""
    prefix = str(PACKAGE) + os.sep
    ours, executed = {}, {}

    def lines(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return lines if ours[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = {}
    for name, seen in executed.items():
        found.setdefault(Path(os.path.realpath(name)), set()).update(seen)
    return result, found


def main(argv=None) -> int:
    # Import the package from this checkout, and only once tracing is on.
    sys.path.insert(0, str(ROOT / "src"))
    code, executed = traced(lambda: pytest.main(list(sys.argv[1:] if argv is None else argv)))
    missing, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        missing += [(path, line, text[line - 1].strip())
                    for line in sorted(lines - executed.get(path, set()))]
    print(f"line trace: {len(missing)} of {total} executable lines in src/bundlewave never ran")
    for path, line, source in missing:
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
