import pytest

from gyrokit.catalog import all_groups
from gyrokit.core import Perm
from gyrokit.search import MODE_FIRST_NONASSOCIATIVE, SearchConfig, run_search


@pytest.fixture(scope="session")
def groups():
    """All groups of order <= 8 as validated gyrogroup tables."""
    return all_groups()


@pytest.fixture(scope="session")
def nonassoc8():
    """One verified nonassociative gyrogroup of order 8, from the search."""
    result = run_search(
        SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE, time_budget=3600)
    )
    assert result.tables, "search failed to produce a nonassociative order-8 table"
    table = result.tables[0]
    assert not table.is_group()
    return table


@pytest.fixture(scope="session")
def census8():
    """Every isomorphism class of order-8 gyrogroups (exhaustive search)."""
    result = run_search(SearchConfig(order=8, time_budget=3600))
    assert result.complete
    return result.tables


@pytest.fixture(scope="session")
def corpus(groups, nonassoc8):
    """The acceptance corpus: all small groups plus a nonassociative table."""
    named = dict(groups)
    named["na8"] = nonassoc8
    return named


@pytest.fixture
def mul_counter(monkeypatch):
    """Counts Perm products from here on, in a one-element list."""
    count = [0]
    real = Perm.__mul__

    def counting(p, q):
        count[0] += 1
        return real(p, q)

    monkeypatch.setattr(Perm, "__mul__", counting)
    return count
