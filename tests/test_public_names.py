"""No public name of ``src/qqasim`` exists only for the tests.

Each module-level public name is exported by ``qqasim.__all__``, is a
click command, or is used by ``src/qqasim`` or ``perfbench/`` (which looks
some names up by string).  Read with ``ast``, so nothing is imported but
``qqasim`` itself.
"""
import ast
from pathlib import Path

import qqasim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qqasim"


def _trees(*directories):
    return {path: ast.parse(path.read_text(), str(path))
            for directory in directories for path in sorted(directory.glob("*.py"))}


def _is_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _defined(tree):
    """The public names a module defines at its top level, click commands left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_command(node):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _referenced(tree):
    """Every name a module reads, by name, attribute, import or string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_is_exported_a_command_or_used():
    package = _trees(PACKAGE)
    used = {name for tree in _trees(PACKAGE, ROOT / "perfbench").values()
            for name in _referenced(tree)}
    unused = [
        f"{path.stem}.{name}"
        for path, tree in package.items()
        for name in _defined(tree)
        if not name.startswith("_") and name not in qqasim.__all__ and name not in used
    ]
    assert unused == []


def test_input_index_is_public_as_the_inverse_of_bit_string():
    assert {"bit_string", "input_index", "all_inputs"} <= set(qqasim.__all__)
