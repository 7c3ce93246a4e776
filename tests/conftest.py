"""Shared fixtures: one field per n, with the log tables prebuilt."""

from collections import Counter

import pytest

from diffspectrum import solver
from diffspectrum.field import Field


@pytest.fixture(scope="session")
def f1() -> Field:
    field = Field(1)
    field.ensure_tables()
    return field


@pytest.fixture(scope="session")
def f2() -> Field:
    field = Field(2)
    field.ensure_tables()
    return field


@pytest.fixture(scope="session")
def f3() -> Field:
    field = Field(3)
    field.ensure_tables()
    return field


@pytest.fixture(scope="session")
def f4() -> Field:
    field = Field(4)
    field.ensure_tables()
    return field


@pytest.fixture(scope="session")
def f6() -> Field:
    # the sweep cap: 128 MB of tables, built once (~1 s) for every test
    field = Field(6)
    field.ensure_tables()
    return field


@pytest.fixture(scope="session")
def fields(f1, f2, f3) -> dict[int, Field]:
    return {1: f1, 2: f2, 3: f3}


@pytest.fixture
def chain_runs(monkeypatch) -> Counter:
    """Runs of the generic chain per b, counted while the test runs."""
    runs = Counter()
    original = solver.generic_intermediates

    def counted(field, b):
        runs[b] += 1
        return original(field, b)

    monkeypatch.setattr(solver, "generic_intermediates", counted)
    return runs
