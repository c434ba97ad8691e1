import math

import numpy as np
# numpy imports numpy.random on first use; importing it here keeps that
# import out of whichever tracemalloc peak test happens to draw first
import numpy.random  # noqa: F401
import pytest

from exclab import DqdParams, build_model, partition

GAMMA = 2 * math.pi * 0.1

# reference point of the timescale figure: g=1, gamma=2pi 0.1, T=2, U=10
REF = dict(g=1.0, gamma=GAMMA, temperature=2.0, u=10.0)


@pytest.fixture(scope="session")
def ref_params():
    return DqdParams(vg=0.0, vsd=7.0, **REF)


@pytest.fixture(scope="session")
def ref_model(ref_params):
    return build_model(ref_params)


@pytest.fixture(scope="session")
def ref_dec(ref_model):
    return partition(ref_model, 0)


@pytest.fixture(scope="session")
def ref_blockade_params():
    return DqdParams(vg=0.0, vsd=7.0, blockade=True, **REF)


@pytest.fixture(scope="session")
def ref_blockade_model(ref_blockade_params):
    return build_model(ref_blockade_params)


def grid(n_vg=7, n_vsd=7, vg_lim=10.0, vsd_lim=20.0):
    """The (vg, vsd) grid used throughout the cross-check tests."""
    for vsd in np.linspace(-vsd_lim, vsd_lim, n_vsd):
        for vg in np.linspace(-vg_lim, vg_lim, n_vg):
            yield float(vg), float(vsd)


def random_chain(rng, n):
    """Random dense irreducible rate matrix with O(1) rates."""
    w = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    return w
