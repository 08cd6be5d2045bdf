import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def gates_prog():
    from basislam.corpus import corpus_program

    return corpus_program("gates")


@pytest.fixture(scope="session")
def deutsch_prog():
    from basislam.corpus import corpus_program

    return corpus_program("deutsch")


@pytest.fixture(scope="session")
def teleport_prog():
    from basislam.corpus import corpus_program

    return corpus_program("teleport")


@pytest.fixture
def eps_guard():
    """Restore the global tolerance after a test that changes it."""
    from basislam.core import set_eps

    yield
    set_eps(1e-9)


@pytest.fixture
def fuel_guard():
    """Restore the global evaluation fuel after a test that changes it."""
    from basislam import reduction

    saved = reduction.MAX_STEPS
    yield
    reduction.set_max_steps(saved)
