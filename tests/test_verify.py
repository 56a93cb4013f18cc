"""The self-check battery: clean pass, filtering, and failure capture."""

from pathlib import Path

import numpy as np

import fusionsampler.mixture as mixture
import fusionsampler.nets as nets
import fusionsampler.sampler as sampler
import fusionsampler.verify as verify
from fusionsampler.posterior import fused_update_coefficients
from fusionsampler.verify import CHECK_NAMES, run_checks


def test_all_checks_pass_in_registry_order():
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert failed == []


def test_filter_is_a_name_substring():
    names = [r.name for r in run_checks("gradient")]
    assert names == ["mlp_gradient_fd", "encoder_chain_gradient_fd"]
    assert run_checks("no-such-check") == []


def test_details_fit_one_csv_cell():
    for result in run_checks():
        assert "," not in result.detail
        assert "\n" not in result.detail


def _result(name):
    """The result of the check called name; a filter also matches longer
    names."""
    (result,) = [r for r in run_checks(name) if r.name == name]
    return result


def test_injected_coefficient_drift_is_caught(monkeypatch):
    # a 0.1 percent error on the drift coefficient must trip both the
    # two-path comparison and the boundary collapse
    def drifted(ab_t, ab_prev, sigma_t):
        eps_coeff, noise_coeff = fused_update_coefficients(ab_t, ab_prev, sigma_t)
        return eps_coeff * 1.001, noise_coeff

    monkeypatch.setattr(verify, "fused_update_coefficients", drifted)
    by_name = {r.name: r for r in run_checks()}
    assert not by_name["posterior_two_path"].passed
    assert not by_name["boundary_sigma_collapse"].passed
    assert by_name["variance_bound"].passed


def test_injected_batch_dependent_stream_is_caught(monkeypatch):
    # one generator shared by the whole batch: row i's noise then depends on
    # how many rows came before it in every earlier draw
    class SharedStream:
        def __init__(self, seed, n):
            self.n = n
            self._gen = np.random.default_rng(seed)

        def standard_normal(self, shape):
            return self._gen.standard_normal(shape)

    monkeypatch.setattr(sampler, "SampleStreams", SharedStream)
    result = _result("oracle_rows_exact")
    assert not result.passed
    assert ("2x2 world: first 5 rows differ through memo-free calls at n=8"
            in result.detail)


def test_injected_pairwise_cell_sum_is_caught(monkeypatch):
    # numpy's own reduction sums 8 or more cells pairwise for a lone row but
    # in order across a batch, so row 0's bits would depend on the batch size
    monkeypatch.setattr(mixture, "_cell_sum", lambda a: np.add.reduce(a, axis=0))
    result = _result("oracle_rows_exact")
    assert not result.passed
    assert ("4x3 world: first 1 rows differ through memo-free calls at n=4"
            in result.detail)


def test_injected_unpadded_forward_is_caught(monkeypatch):
    # a one-row tile is the forward without padding: OpenBLAS then computes
    # the rows of an M-tail with other kernels than full tiles, so row 0's
    # bits depend on the batch size
    monkeypatch.setattr(nets, "_ROW_TILE", 1)
    (result,) = run_checks("learned_batch_prefix_invariance")
    assert not result.passed
    assert "rows differ" in result.detail


def test_injected_memo_keyed_on_t_alone_is_caught(monkeypatch):
    # a memo that ignores x serves a pass announced at a shifted x to the
    # calls at the x the sampler holds
    monkeypatch.setattr(mixture, "_input_key", lambda t, x: t)
    result = _result("oracle_rows_exact")
    assert not result.passed
    assert ("2x2 world: first 5 rows differ through MixtureOracle announced at"
            " x + 1 at n=5: samples differ" in result.detail)


def test_injected_eps_scale_is_caught_by_finite_differences(monkeypatch):
    # a 0.1 percent error on the closed-form eps must show against the
    # central differences of the log density
    exact = verify.oracle_eps
    monkeypatch.setattr(verify, "oracle_eps", lambda *args: 1.001 * exact(*args))
    result = _result("oracle_score_fd")
    assert not result.passed
    assert result.detail.startswith("max rel err 9.99e-04")


def test_readme_lists_the_check_names():
    # the README's verify paragraph lists the checks in run order
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("`verify` runs these numerical self-checks", 1)[1]
    items = block.split("\n\n", 2)[1]
    shown = [line.split("`")[1] for line in items.splitlines()
             if line.startswith("* `")]
    assert shown == list(CHECK_NAMES)


def test_raising_check_reported_as_failure(monkeypatch):
    def boom(schedule, profile):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(verify, "check_variance_bound", boom)
    (result,) = run_checks("variance_bound")
    assert not result.passed
    assert "synthetic fault" in result.detail
