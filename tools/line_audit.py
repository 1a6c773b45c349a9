"""List the statements of ``src/qqasim`` that no tier-1 test reaches.

Runs the test suite in this process under a ``sys.settrace`` line hook that
records only the lines of code in ``src/qqasim``, then prints every
statement no line of which ran, as ``path:line: source``.  Docstrings and
the ``if __name__ == "__main__":`` guard are left out.  A compound
statement counts as reached when its header or its first inner statement
ran.  Standard library only, apart from pytest, which runs the suite;
tracing makes the suite several times slower.

    python tools/line_audit.py [pytest arguments]

Extra arguments go to pytest, after the defaults (``-q -p no:cacheprovider``).
The exit status is 1 if a statement is unreached or a test failed.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qqasim"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)


def statements(path: Path) -> list:
    """``(line, header lines, first inner statement's line or None)`` of every statement."""
    found = []

    def visit(body):
        for node in body:
            if _is_docstring(node) or _is_main_guard(node):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = [
                child for name in ("body", "orelse", "finalbody") for child in getattr(node, name, ())
            ] + [child for handler in getattr(node, "handlers", ()) for child in handler.body]
            if inner:
                header = range(first, min(child.lineno for child in inner))
                found.append((node.lineno, header, inner[0].lineno))
                visit(getattr(node, "body", ()))
                visit(getattr(node, "orelse", ()))
                visit(getattr(node, "finalbody", ()))
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body)
            else:
                found.append((node.lineno, range(first, node.end_lineno + 1), None))

    visit(ast.parse(path.read_text(), str(path)).body)
    return found


def main(argv: list) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict = {}  # file name -> lines that ran
    watched: dict = {}  # code object -> whether it is the package's

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in watched:
            name = code.co_filename
            watched[code] = name.startswith(prefix)
            if watched[code]:
                ran.setdefault(name, set())
        if not watched[code]:
            return None
        ran[code.co_filename].add(frame.f_lineno)
        return local

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        found = statements(path)
        reached = {line: any(k in lines for k in header) for line, header, _ in found}
        source = path.read_text().splitlines()
        for line, _, first_inner in found:
            if not reached[line] and not reached.get(first_inner):
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"\n{len(unreached)} statements in {PACKAGE.relative_to(ROOT)} reached by no test")
    print("\n".join(unreached))
    return 1 if unreached or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
