import numpy as np
import pytest

import quenchsim.noise as noise_mod
from quenchsim import GridSpec, assemble_matrix, principal_eigenpair


@pytest.fixture(scope="session")
def grid41():
    return GridSpec(41)


@pytest.fixture(scope="session")
def op41(grid41):
    return assemble_matrix(grid41, 0.6)


@pytest.fixture(scope="session")
def pair41(op41):
    return principal_eigenpair(op41)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240917)


def _hostile_autocov(k, H, dt=1.0):
    k = np.abs(np.asarray(k, dtype=float))
    out = np.zeros_like(k)
    out[k == 0] = 1.0
    out[k == 1] = 0.9  # rho=0.9 at lag 1 only is not nonneg definite
    return out


@pytest.fixture()
def hostile_covariance(monkeypatch):
    """A non-embeddable fGN covariance: every embedding with n_steps > 1 and H > 1/2 clips."""
    monkeypatch.setattr(noise_mod, "fgn_autocovariance", _hostile_autocov)
