"""Config schema: defaults, construction, and key-path error reporting."""

import json

import pytest

from fusionsampler.artifacts import render_json
from fusionsampler.runconfig import ConfigError, validate_config

FULL = {
    "seed": 7,
    "out_dir": "somewhere",
    "world": {"preset": "product", "identity_spacing": 1.5, "style_offset": 1.5,
              "s": 0.7},
    "schedule": {"T": 40, "beta_end": 0.1},
    "sigma": {"kind": "ddim_eta", "eta": 0.5},
    "fusion": {"m": 3, "gamma": 0.06, "use_refinement": True, "mode": "fusion"},
    "weights": {"omega": 4.0, "omega1": 0.6, "omega2": 5.0},
    "training": {"lam": 1.0, "steps": 10, "batch": 32, "augment": False,
                 "lr": 1e-3},
    "condition": {"identity": [[10.0, 16.0], [0.0, "-inf"]], "text": [0.0, 4.0]},
    "sampling": {"n_samples": 50},
    "sweep": {"lambdas": [0.0, 1.0], "seeds": [0, 4]},
    "denoiser": {"steps": 100},
}


def test_empty_payload_resolves_defaults():
    cfg = validate_config({})
    assert cfg.seed == 0
    assert cfg.out_dir is None
    assert cfg.world is None and cfg.condition is None
    assert cfg.schedule.T == 100
    assert cfg.fusion.m == 1 and cfg.fusion.mode == "fusion"
    assert cfg.fusion.sigma.kind == "boundary"
    assert cfg.fusion.weights.omega == 2.0
    assert cfg.training.steps == 600 and cfg.training.seed == 0
    assert cfg.n_samples == 500
    assert cfg.lambdas == (0.0, 0.01, 0.1, 1.0, 10.0)
    assert cfg.sweep_seeds == (0, 1, 2)
    assert cfg.denoiser_steps == 4000


def test_full_payload_constructs_every_component():
    cfg = validate_config(FULL)
    assert cfg.seed == 7 and cfg.out_dir == "somewhere"
    assert cfg.world.n_identities == 2 and cfg.world.s == 0.7
    assert cfg.schedule.T == 40
    assert cfg.fusion.m == 3 and cfg.fusion.sigma.eta == 0.5
    assert cfg.fusion.weights.omega2 == 5.0
    assert cfg.training.lam == 1.0 and cfg.training.augment is False
    # the seed threads into training so reruns share one stream family
    assert cfg.training.seed == 7
    assert cfg.condition.identity.shape == (2, 2)
    assert cfg.condition.text.shape == (2,)
    assert cfg.n_samples == 50
    assert cfg.lambdas == (0.0, 1.0) and cfg.sweep_seeds == (0, 4)


def test_null_world_and_condition_mean_absent():
    cfg = validate_config({"world": None, "condition": None})
    assert cfg.world is None and cfg.condition is None


def test_custom_sigma_values_accepted():
    cfg = validate_config({"schedule": {"T": 3},
                           "sigma": {"kind": "custom", "values": [0.0, 0.1, 0.2]}})
    assert cfg.fusion.sigma.kind == "custom"
    assert cfg.fusion.sigma.values.tolist() == [0.0, 0.1, 0.2]


@pytest.mark.parametrize("payload, fragment", [
    ({"xyz": 1}, "xyz"),
    ({"fusion": {"gamma2": 1}}, "fusion.gamma2"),
    ({"world": {"preset": "product", "spacing": 2}}, "world.spacing"),
    ({"world": {"preset": "nope"}}, "world.preset"),
    ({"world": {}}, "world.preset"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"out_dir": 3}, "out_dir"),
    ({"schedule": {"T": 0}}, "schedule.T"),
    ({"schedule": {"beta_end": "big"}}, "schedule.beta_end"),
    ({"schedule": {"beta_start": 0.5, "beta_end": 0.1}}, "schedule"),
    ({"sigma": {"kind": "weird"}}, "sigma"),
    ({"sigma": {"kind": "custom", "values": [0.1] * 5}}, "sigma.values"),
    ({"sigma": {"kind": "boundary", "eta": float("nan")}}, "sigma.eta"),
    ({"fusion": {"gamma": 1.5}}, "fusion.gamma"),
    ({"fusion": {"m": -1}}, "fusion.m"),
    ({"fusion": {"m": 0, "use_refinement": False}}, "fusion"),
    ({"fusion": {"mode": "turbo"}}, "fusion"),
    ({"weights": {"omega_list": 3}}, "weights.omega_list"),
    ({"weights": {"omega1": [1]}}, "weights.omega1"),
    ({"training": {"lam": -1}}, "training.lam"),
    ({"training": {"batch": 0}}, "training.batch"),
    ({"training": {"augment": 1}}, "training.augment"),
    ({"condition": {"identity": "zz"}}, "condition"),
    ({"condition": {"strength": 2}}, "condition.strength"),
    ({"sampling": {"n_samples": 0}}, "sampling.n_samples"),
    ({"sweep": {"lambdas": []}}, "sweep.lambdas"),
    ({"sweep": {"seeds": [0.5]}}, "sweep.seeds[0]"),
    ({"denoiser": {"steps": 0}}, "denoiser.steps"),
    ([1, 2], "config"),
])
def test_violations_name_the_offending_path(payload, fragment):
    with pytest.raises(ConfigError) as err:
        validate_config(payload)
    assert fragment in str(err.value)


def test_omega_list_is_an_unknown_key():
    # n-condition weights have no sampler behind them, so the key is refused
    with pytest.raises(ConfigError, match="unknown key.*weights.omega_list"):
        validate_config({"weights": {"omega_list": [1.0]}})


def test_multiple_unknown_keys_all_listed():
    with pytest.raises(ConfigError) as err:
        validate_config({"fusion": {"mm": 1, "gamma2": 2}})
    assert "fusion.gamma2" in str(err.value) and "fusion.mm" in str(err.value)


def test_resolved_payload_revalidates_to_itself():
    # the echo embedded in run records must be a legal config that
    # reconstructs the same run, so records are self-reproducing
    for payload in ({}, FULL):
        first = validate_config(payload)
        second = validate_config(json.loads(render_json(first.payload)))
        assert render_json(first.payload) == render_json(second.payload)
        assert first.fusion == second.fusion
        assert first.training == second.training
        assert first.lambdas == second.lambdas
        assert first.n_samples == second.n_samples
        assert (first.world is None) == (second.world is None)
