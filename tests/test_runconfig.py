"""Config schema: defaults, construction, and key-path error reporting."""

import json

import pytest

from fusionsampler.artifacts import render_json
from fusionsampler.cli import RUN_MODES
from fusionsampler.runconfig import MODE_KEYS, ConfigError, validate_config

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
    ({"fusion": {"use_refinement": False, "m": 3}}, "fusion"),
    ({"sigma": {"kind": "boundary", "eta": 0.5}}, "sigma.eta"),
    ({"sigma": {"kind": "custom", "values": [0.0], "eta": 0.0},
      "schedule": {"T": 1}}, "sigma.eta"),
    ({"condition": {"gamma": "0.5"}}, "condition.gamma"),
    ({"condition": {"gamma": True}}, "condition.gamma"),
    ({"condition": {"gamma": 1.5}}, "condition.gamma"),
    ({"condition": {"identity": [True, "2"]}}, "condition.identity"),
    ({"condition": {"identity": "5"}}, "condition.identity"),
    ({"condition": {"identity": [1.0, "inf"]}}, "condition.identity"),
    ({"condition": {"text": [[1.0], [None]]}}, "condition.text"),
    ({"condition": {"text": {"a": 1.0}}}, "condition.text"),
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


# the least payload that runs each mode: ablate and compare need world and
# condition together, or neither for the built-in benchmark
_MODE_PAYLOADS = [(mode, {}) for mode in sorted(RUN_MODES)] + [
    (mode, {"world": {"preset": "product"}, "condition": {"text": [0.0, 3.0]}})
    for mode in ("ablate", "compare")]


def test_mode_keys_name_every_run_mode_and_only_schema_keys():
    assert set(MODE_KEYS) == set(RUN_MODES) | {"builtin"}
    full = validate_config({}).payload
    for row in MODE_KEYS.values():
        for key in row:
            section, _, sub = key.partition(".")
            assert section in full and (not sub or sub in full[section]), key


@pytest.mark.parametrize("mode, payload", _MODE_PAYLOADS)
def test_mode_echo_is_part_of_the_full_echo_and_replays(mode, payload):
    # the echo's sections (tests/test_cli.py lists them per mode) are whole
    # sections of the echo without a mode, or parts of them
    full = validate_config(payload).payload
    echo = validate_config(payload, mode).payload
    for section, value in echo.items():
        assert value == full[section] or value.items() < full[section].items()
    # the echo replays for its mode
    assert validate_config(json.loads(render_json(echo)), mode).payload == echo


@pytest.mark.parametrize("mode, payload", _MODE_PAYLOADS)
def test_every_mode_accepts_seed_and_refuses_the_full_payload(mode, payload):
    assert validate_config({**payload, "seed": 5}, mode).seed == 5
    # every mode leaves at least one key of FULL unread
    with pytest.raises(ConfigError, match="not read by"):
        validate_config(FULL, mode)


@pytest.mark.parametrize("mode", ["ablate", "compare"])
def test_ablate_and_compare_refuse_half_set_and_builtin_extras(mode):
    for half in ("world", "condition"):
        with pytest.raises(ConfigError, match="both world and condition"):
            validate_config({half: FULL[half]}, mode)
    with pytest.raises(ConfigError, match="built-in benchmark.*: fusion$"):
        validate_config({"fusion": {"m": 3}}, mode)
