"""Fixtures shared across test modules."""

import pytest

from fusionsampler.evaluate import regularization_sweep
from fusionsampler.runconfig import validate_config


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
