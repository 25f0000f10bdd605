import dataclasses
import os

# One BLAS thread, as the benchmark runs, unless the environment sets its
# own.  BLAS reads these when numpy loads, so the warning filters that name
# numpy and scipy classes are added in ``pytest_configure``, not in
# pyproject.toml, where resolving them would load numpy before this file.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dysonprop.qed import build_model, default_toy_config  # noqa: E402
from dysonprop.suite import fleet, random_graded_model  # noqa: E402

SEED = 2026


def pytest_configure(config):
    for line in ("error::numpy.exceptions.ComplexWarning",
                 "error::scipy.sparse.SparseEfficiencyWarning"):
        config.addinivalue_line("filterwarnings", line)


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
