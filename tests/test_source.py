"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

from diffspectrum import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diffspectrum"
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a state the mathematics rules out must
    # raise InternalDegenerate instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


# (file, exception name) raises allowed although they are not GF2Error:
# cli.main maps _CliError to exit code 3 and it never leaves the CLI, and
# PEP 562 requires the package's module __getattr__ to raise
# AttributeError for a name it does not have
NON_LIBRARY_RAISES = {("cli.py", "_CliError"), ("__init__.py", "AttributeError")}


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_raise_is_a_library_error(path):
    # errors.py promises that one except GF2Error catches every library
    # error, so each raise must name a GF2Error subclass
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        name = _raised_name(node)
        if (path.name, name) in NON_LIBRARY_RAISES:
            continue
        cls = getattr(errors, name, None) if name else None
        if not (isinstance(cls, type) and issubclass(cls, errors.GF2Error)):
            offending.append(f"{path.name}:{node.lineno} {name}")
    assert offending == []


# (file, function) that may read Field._tables: the table builder and the
# generic chain's exponent form with its dispatch
TABLE_READERS = {
    ("field.py", "Field.__init__"),
    ("field.py", "Field.ensure_tables"),
    ("solver.py", "generic_intermediates"),
    ("solver.py", "_generic_on_logs"),
}


def _table_readers(path):
    """(file, dotted function name) for every ``._tables`` in path."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Attribute) and child.attr == "_tables":
                readers.add((path.name, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return readers


def test_only_the_exponent_chain_reads_the_log_tables():
    # mul, inv, pow, frobenius2 and every GF(2)-linear map run one path on
    # every field
    assert set().union(*map(_table_readers, SOURCES)) == TABLE_READERS


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_fast_tables_flag(path):
    # a field has log tables exactly when Field._tables is not None
    assert "_fast_tables" not in path.read_text()
