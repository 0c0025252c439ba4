"""Shared datasets and expensive MCMC runs reused across test modules."""

import time

import numpy as np
import pytest

from mixanchor.likelihood import Dataset
from mixanchor.priors import PriorSpec
from mixanchor.sampler import RunConfig, mwg_gaussian, mwg_gaussian_k2, mwg_poisson

TWO_COMP_TRUTH = {
    "weights": np.array([0.65, 0.35]),
    "locs": np.array([-8.0, -0.5]),
    "scales": np.array([2.0, 1.0]),
    "mean": -5.375,
    "var": 15.746875,
    "phi_sq": 0.8126612423099819,
    "eta": np.array([0.40633991364584243, 0.14908598951044058]),
}

THREE_COMP_TRUTH = {
    "weights": np.array([0.27, 0.4, 0.33]),
    "locs": np.array([-4.5, 10.0, 3.0]),
    "scales": np.array([1.0, 1.0, 1.0]),
}


def simulate_gaussian(truth, n, seed):
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(truth["weights"]), size=n, p=truth["weights"])
    x = rng.normal(truth["locs"][comp], truth["scales"][comp])
    return Dataset(x)


def simulate_poisson_model1(n, seed):
    rng = np.random.default_rng(seed)
    comp = rng.choice(2, size=n, p=[0.6, 0.4])
    return Dataset(rng.poisson(np.array([1.0, 5.0])[comp]).astype(float))


@pytest.fixture(scope="session")
def example1_data():
    # representative draw: component proportions and moments close to truth
    return simulate_gaussian(TWO_COMP_TRUTH, 50, seed=22)


@pytest.fixture(scope="session")
def example3_data():
    return simulate_gaussian(THREE_COMP_TRUTH, 50, seed=5)


class TimedRun:
    """A sampler result plus the wall-clock seconds it took to produce."""

    def __init__(self, result, elapsed, data=None):
        self.result = result
        self.elapsed = elapsed
        self.data = data

    @property
    def chains(self):
        return self.result.chains

    def acceptance_rates(self):
        return self.result.acceptance_rates()


def _timed(runner, *args):
    start = time.perf_counter()
    result = runner(*args)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def example1_k2_run(example1_data):
    config = RunConfig(iterations=20000, burn_in=1000, n_chains=4, seed=1, proposal=1)
    result, elapsed = _timed(mwg_gaussian_k2, example1_data, PriorSpec(), config)
    return TimedRun(result, elapsed, example1_data)


@pytest.fixture(scope="session")
def example3_run(example3_data):
    config = RunConfig(iterations=100000, burn_in=2000, n_chains=1, seed=2)
    result, elapsed = _timed(mwg_gaussian, example3_data, 3, PriorSpec(), config)
    return TimedRun(result, elapsed, example3_data)


@pytest.fixture(scope="session")
def model1_poisson_run():
    data = simulate_poisson_model1(10000, seed=101)
    config = RunConfig(iterations=50000, burn_in=1000, n_chains=1, seed=3)
    result, elapsed = _timed(mwg_poisson, data, 2, PriorSpec(), config)
    return TimedRun(result, elapsed, data)
