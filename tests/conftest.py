import pytest

from carleman import CoefficientTable


@pytest.fixture(scope="session")
def table200():
    return CoefficientTable.from_recurrence(200)


@pytest.fixture(scope="session")
def oracle200():
    return CoefficientTable.from_series_oracle(200)


@pytest.fixture(scope="session")
def table1001():
    """The long table behind the n <= 1000 sweeps.

    Costs about 1.1 seconds to build (best of 21 on a 2-vCPU x86-64 host,
    BENCH_22.json), so it is session scoped and shared by every test that
    needs deep indices.
    """
    return CoefficientTable.from_recurrence(1001)
