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


@pytest.fixture(autouse=True)
def default_settings():
    """Fail a test that ends with settings other than the defaults; the
    enclosing block keeps such a leak out of the next test."""
    from basislam.core import Settings, get_settings, local_settings

    with local_settings(Settings()):
        yield
        left = get_settings()
    assert left == Settings()
