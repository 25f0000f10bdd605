import dataclasses

import numpy as np
import pytest

from dysonprop.qed import build_model, default_toy_config
from dysonprop.suite import fleet, random_graded_model

SEED = 2026


@pytest.fixture(scope="session")
def toy_model():
    """The stock 560-dimensional photon/electron model, built once."""
    return build_model(default_toy_config())


@pytest.fixture(scope="session")
def lattice2_model():
    """The stock model with a second photon momentum: 2640 states, built once."""
    base = default_toy_config()
    return build_model(dataclasses.replace(
        base,
        momentum_points=base.momentum_points + ((-0.5, 1.0, -0.25),),
        chi_ph=base.chi_ph + base.chi_ph,
    ))


@pytest.fixture(scope="session")
def fleet_models():
    return fleet(seed=SEED)


@pytest.fixture()
def small_model():
    """A dim-8 non-normal model with shift 2, cheap enough for every test."""
    return random_graded_model(11, 8, grade_shift=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(99)
