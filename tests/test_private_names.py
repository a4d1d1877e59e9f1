"""No module of the package reads a private name of another one: a name
that one module shares with another is public in the one that defines it."""

import ast
import pathlib

import pytest

import geomfreq

PACKAGE = pathlib.Path(geomfreq.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(tree):
    """(line, name) of each private name of another package module that
    the module ``tree`` imports, or reads as ``<module>._name``."""
    modules = {p.stem for p in MODULES}
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                elif node.module is not None and _is_private(alias.name):
                    reads.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_another_modules_private_name(path):
    assert _foreign_private_reads(ast.parse(path.read_text())) == []


def test_the_walk_sees_a_private_read():
    tree = ast.parse(
        "from . import validate\nfrom .frenet import _cross\n"
        "x = validate._worst(1)\ny = model._table\n"
    )
    assert _foreign_private_reads(tree) == [(2, "frenet._cross"), (3, "validate._worst")]
