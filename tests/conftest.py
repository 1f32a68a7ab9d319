import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _strict_float_errors():
    # surface accidental overflows in the code under test; libraries that
    # handle their own edge cases opt out locally with np.errstate
    with np.errstate(over="warn", invalid="warn"):
        yield


@pytest.fixture
def q_sizes(monkeypatch):
    """spy(method) starts recording the number of q values in each call of
    that Channel method and returns the list it appends to."""
    from glmphase.channels import Channel

    def spy(method):
        sizes = []
        original = getattr(Channel, method)

        def counted(self, q, rho):
            sizes.append(np.size(q))
            return original(self, q, rho)

        monkeypatch.setattr(Channel, method, counted)
        return sizes

    return spy
