"""Shared fixtures.

The normal-form builds are the expensive part of the suite (each measures
its transform by flowing sample points and surveys its remainder), so they
are built once per session and shared between the unit tests and the
acceptance suite.
"""

import numpy as np
import pytest

import resodrift as rd

EPS_TRIO = (1e-2, 1e-3, 1e-4)


@pytest.fixture(scope="session")
def generic3_bundles():
    return {eps: rd.make_bundle("generic3", eps) for eps in EPS_TRIO}


@pytest.fixture(scope="session")
def one_step_results(generic3_bundles):
    return {
        eps: rd.one_step_normal_form(bundle)
        for eps, bundle in generic3_bundles.items()
    }


@pytest.fixture(scope="session")
def two_step_results(generic3_bundles, one_step_results):
    return {
        eps: rd.two_step_normal_form(bundle, step1=one_step_results[eps])
        for eps, bundle in generic3_bundles.items()
    }


@pytest.fixture(scope="session")
def moser_reduction():
    entry = rd.get_entry("moser")
    return rd.reduce_system(entry.system, entry.perturbation)


@pytest.fixture(scope="session")
def generic3_genericity():
    entry = rd.get_entry("generic3")
    return rd.genericity_check(entry.perturbation, entry.system)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240815)
