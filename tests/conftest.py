from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def reference_tables_path() -> Path:
    return FIXTURES / "reference_tables.csv"


@pytest.fixture(scope="session")
def example_tree_path() -> Path:
    return FIXTURES / "example.tree.json"


@pytest.fixture(scope="session")
def mixed_batch_path() -> Path:
    """A Q52 batch with a byte-order mark, quote-free lines, a quoted comma,
    a doubled quote, an answer spanning two lines, blank lines and blank
    answers, and repeated lines of each kind."""
    return FIXTURES / "mixed_batch.csv"
