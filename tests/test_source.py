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
# cli.main maps _CliError to exit code 3 and it never leaves the CLI
NON_LIBRARY_RAISES = {("cli.py", "_CliError")}


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
