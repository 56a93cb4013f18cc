"""Fixtures shared across test modules."""

import pytest

from fusionsampler.evaluate import regularization_sweep
from fusionsampler.guidance import cfg_independent
from fusionsampler.posterior import ddim_step
from fusionsampler.runconfig import validate_config
from fusionsampler.sampler import SampleStreams
from fusionsampler.schedule import sigma_values


@pytest.fixture(scope="session")
def acceptance_sweep_rows():
    """Rows of the acceptance protocol's regularization sweep: lambda in
    {0, 0.01, 0.1, 1, 10} at seeds 0-2, 300 samples, default training.

    Computed once per session. A cell depends only on its (lambda, seed)
    (test_sweep_rows_depend_only_on_their_cell), so a test of a sub-grid
    reads the sub-grid's rows from here. Tests must not modify the rows.
    """
    return regularization_sweep(validate_config({
        "sweep": {"lambdas": [0.0, 0.01, 0.1, 1.0, 10.0], "seeds": [0, 1, 2]},
        "sampling": {"n_samples": 300}}))


@pytest.fixture(scope="session")
def independent_trajectory():
    """Independent-conditions sampling written out, the reference that fusion
    with m=0 must equal bit for bit: x_T from SampleStreams(seed, n), then at
    every t one ddim_step on cfg_independent of the unconditional,
    identity-only and text-only predictions."""
    def run(cond, weights, sigma, predictor, schedule, n, seed):
        streams = SampleStreams(seed, n)
        x = streams.standard_normal((n, predictor.d))
        conds = (cond.nulled(), cond.identity_only(), cond.text_only())
        sigmas = sigma_values(schedule, sigma)
        for t in range(schedule.T, 0, -1):
            eps = cfg_independent(*(predictor.predict_eps(x, c, t) for c in conds),
                                  weights)
            x = ddim_step(x, t, eps, schedule, sigmas[t - 1], streams)
        return x

    return run
