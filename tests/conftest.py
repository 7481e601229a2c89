import pytest

from cyclopract import build_spf_table, sieve_order_star


@pytest.fixture(scope="session")
def spf10k():
    return build_spf_table(10**4)


@pytest.fixture(scope="session")
def spf100k():
    return build_spf_table(10**5)


@pytest.fixture(scope="session")
def order_tables():
    """Memoized order-star tables keyed by (base, limit)."""
    cache = {}

    def get(base: int, limit: int):
        key = (base, limit)
        if key not in cache:
            cache[key] = sieve_order_star(base, limit)
        return cache[key]

    return get
