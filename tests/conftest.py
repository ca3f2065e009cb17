import pytest

from platoonflow import SimParams, run
from platoonflow.verify import RunCorpus


@pytest.fixture(scope="session")
def params():
    return SimParams()


@pytest.fixture(scope="session")
def short_run():
    """One seeded 40 s open-highway run shared by engine-level tests."""
    return run(SimParams(duration=40.0, seed=1))


@pytest.fixture(scope="session")
def corpus():
    """The default-parameter verify corpus, built once per session by the
    first check that reads it."""
    return RunCorpus(SimParams())
