import numpy as np
import pytest

from drillstab.bitrock import BitRockModel, WobRatio, torque_batch
from drillstab.reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS,
                                 W_REF_KN, reference_plant)


@pytest.fixture
def r1():
    return WobRatio.from_ratio(1.0, W_REF_KN)


@pytest.fixture
def plant():
    """Equivalent 1-DOF drill string (I_eq=383.33, omega_n=0.85, xi=0.25)."""
    return reference_plant()


@pytest.fixture
def geometry():
    return REFERENCE_GEOMETRY


@pytest.fixture
def m1():
    return BitRockModel(kind=1, params=REFERENCE_PARAMS[1])


@pytest.fixture
def m2():
    return BitRockModel(kind=2, params=REFERENCE_PARAMS[2])


@pytest.fixture
def m3():
    return BitRockModel(kind=3, params=REFERENCE_PARAMS[3])


@pytest.fixture
def m4():
    return BitRockModel(kind=4, params=REFERENCE_PARAMS[4])


@pytest.fixture
def unvalidated_rho():
    """rho(kind, phi, speeds, y) = ||y - A(phi)||^2 / ||y||^2 at r = 1,
    without the law's sign checks, which ABC particles need not meet."""
    def rho(kind, phi, speeds, y):
        resid = y - torque_batch(kind, np.asarray(phi)[None, :], 1.0, speeds)[0]
        return float(np.dot(resid, resid) / np.dot(y, y))
    return rho
