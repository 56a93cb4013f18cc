"""Config schema: defaults, construction, and key-path error reporting."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from fusionsampler.artifacts import render_json
from fusionsampler.cli import RUN_MODES
from fusionsampler.runconfig import MODE_KEYS, ConfigError, validate_config

FULL = {
    "seed": 7,
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
    assert cfg.seed == 7
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
                           "sigma": {"kind": "custom", "values": [0.0, 0.005, 0.2]}})
    assert cfg.fusion.sigma.kind == "custom"
    assert cfg.fusion.sigma.values.tolist() == [0.0, 0.005, 0.2]


@pytest.mark.parametrize("payload, fragment", [
    ({"xyz": 1}, "xyz"),
    ({"fusion": {"gamma2": 1}}, "fusion.gamma2"),
    ({"world": {"preset": "product", "spacing": 2}}, "world.spacing"),
    ({"world": {"preset": "nope"}}, "world.preset"),
    ({"world": {}}, "world.preset"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
    # not a key: the CLI's --out alone names the run directory
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
    ({"seed": -1}, "seed: must be >= 0"),
    ({"sweep": {"seeds": [0, -2]}}, "sweep.seeds[1]: must be >= 0"),
    # 1 - alpha_bar[1] = 1e-4 bounds sigma_2 at 0.01 on the default schedule
    ({"schedule": {"T": 3}, "sigma": {"kind": "custom", "values": [0.0, 0.1, 0.2]}},
     "sigma.values[1]: infeasible sigma_t=0.1"),
    ({"schedule": {"T": 8}, "sigma": {"kind": "custom", "values": [0.0] + [0.05] * 7}},
     "sigma.values[1]: infeasible sigma_t=0.05"),
    ({"schedule": {"T": 3}, "sigma": {"kind": "custom", "values": [0.5, 0.0, 0.0]}},
     "sigma.values[0]: infeasible"),
    # preset parameters with a scalar default take its JSON type
    ({"world": {"preset": "product", "s": True}}, "world.s: expected a number"),
    ({"world": {"preset": "conflict", "a": False}}, "world.a: expected a number"),
    # a repeated entry would run the same cells twice
    ({"sweep": {"seeds": [0, 0]}}, "sweep.seeds[1]: duplicate of sweep.seeds[0]"),
    ({"sweep": {"lambdas": [0.0, 1.0, 1]}},
     "sweep.lambdas[2]: duplicate of sweep.lambdas[1]"),
    # list preset arguments take their default entries' JSON type
    ({"world": {"preset": "conflict", "prior": [True, 1, 1, 1]}},
     "world.prior[0]: expected a number"),
    ({"world": {"preset": "single", "mean": [True, False]}},
     "world.mean[0]: expected a number"),
    # an integer beyond the float range is refused, not an OverflowError
    ({"fusion": {"gamma": 10**400}}, "fusion.gamma: must be finite"),
    ({"sweep": {"lambdas": [0.0, -10**400]}}, "sweep.lambdas[1]: must be finite"),
])
def test_violations_name_the_offending_path(payload, fragment):
    with pytest.raises(ConfigError) as err:
        validate_config(payload)
    assert fragment in str(err.value)


@pytest.mark.parametrize("payload, start", [
    ({"seed": -10**400}, "seed: must be >= 0, got -1"),
    ({"sweep": {"seeds": "x" * 300}}, "sweep.seeds: expected a nonempty list"),
    ({"fusion": {"mode": ["a"] * 100}}, "fusion.mode: expected a string"),
    ({"fusion": {"gamma": 10**300}}, "fusion.gamma: must be <= 1.0"),
    ({"schedule": {"T": {str(k): [k] * 50 for k in range(50)}}},
     "schedule.T: expected an integer"),
    ({"training": {"augment": ["x" * 100] * 3}}, "training.augment: expected true"),
    ({"world": {"preset": "p" * 300}}, "world.preset: unknown preset"),
    ({"sigma": {"kind": "k" * 300, "eta": 0.5}}, "sigma.eta: only valid"),
    ({"condition": {"identity": {"k" * 100: "v" * 100}}},
     "condition.identity: expected a list"),
    ({"condition": {"text": [0.0, "t" * 300]}}, "condition.text[1]: expected a number"),
    # a constructor's message is cut too
    ({"fusion": {"mode": "x" * 300}}, "fusion: mode must be one of"),
    ({"sigma": {"kind": "k" * 300}}, "sigma: unknown sigma profile kind 'kkk"),
])
def test_violations_show_the_value_shortened(payload, start):
    # the message keeps the key path, whatever the size of the value
    with pytest.raises(ConfigError) as err:
        validate_config(payload)
    assert str(err.value).startswith(start)
    assert len(str(err.value)) < 120, str(err.value)


# (key, a valid list for it, the payload that sets it)
_LIST_KEYS = [
    ("sweep.lambdas", [0.0, 1.0], lambda v: {"sweep": {"lambdas": v}}),
    ("sweep.seeds", [0, 1], lambda v: {"sweep": {"seeds": v}}),
    ("sigma.values", [0.0, 0.005, 0.01],
     lambda v: {"schedule": {"T": 3}, "sigma": {"kind": "custom", "values": v}}),
    ("world.prior", [0.45, 0.05, 0.35, 0.15],
     lambda v: {"world": {"preset": "conflict", "prior": v}}),
    ("world.mean", [1.0, -1.0], lambda v: {"world": {"preset": "single", "mean": v}}),
]


@pytest.mark.parametrize("key, valid, wrap", _LIST_KEYS, ids=[k[0] for k in _LIST_KEYS])
def test_list_keys_refuse_a_non_list_an_empty_list_and_bad_entries(key, valid, wrap):
    validate_config(wrap(valid))
    for value, where in ((valid[0], key), ({"a": valid}, key), ([], key),
                         ([valid[0], True, *valid[2:]], f"{key}[1]"),
                         ([valid[0], "1", *valid[2:]], f"{key}[1]")):
        with pytest.raises(ConfigError, match=re.escape(where + ":")):
            validate_config(wrap(value))


def test_readme_config_block_lists_the_defaults():
    # the README's config example copies the constructors' defaults;
    # its world and condition are examples
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    shown = json.loads(re.sub(r"//.*", "", block))
    defaults = validate_config({}).payload
    assert set(shown) == set(defaults)
    for section in set(shown) - {"world", "condition"}:
        assert shown[section] == defaults[section], section


def test_readme_modes_table_lists_the_mode_keys():
    # the "keys it reads" column of the README's Modes table is MODE_KEYS:
    # each mode's row, then for ablate the built-in one
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("### Modes\n", 1)[1].strip().split("\n\n", 1)[0]
    shown = {}
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        shown[cells[0].strip("`")] = cells[2]
    assert set(shown) == set(RUN_MODES)

    def listed(keys):
        return ", ".join(f"`{key}`" for key in keys) or "no key"

    for mode, cell in shown.items():
        expected = listed(MODE_KEYS[mode])
        if mode == "ablate":
            expected += "; built-in: " + listed(MODE_KEYS["builtin"])
        assert cell == expected, mode


def test_a_zero_sigma_is_refused_only_where_the_fusion_stage_runs():
    # the fusion stage re-noises with sigma_t, which must be > 0 at t >= 2;
    # custom values that are 0 at t=4 alone; at t=1 sigma is 0 for every
    # profile and the fusion stage does not run there
    ab = validate_config({"schedule": {"T": 6}}).schedule.alpha_bar
    values = [0.5 * (1.0 - a) ** 0.5 for a in ab[:-1]]
    values[3] = 0.0
    custom = {"schedule": {"T": 6}, "sigma": {"kind": "custom", "values": values}}
    with pytest.raises(ConfigError, match="sigma: 0 at t=4"):
        validate_config(custom, "sample")
    ablate = {**custom, "world": {"preset": "product"},
              "condition": FULL["condition"]}
    with pytest.raises(ConfigError, match="sigma: 0 at t=4"):
        validate_config(ablate, "ablate")
    values[3] = values[2]  # now 0 at t=1 alone
    validate_config(custom, "sample")
    for mode, fusion in (("sample", {"m": 0}),
                         ("sample", {"use_refinement": False}),
                         ("sample", {"mode": "independent"}),
                         ("sweep-lambda", {"mode": "vanilla_cfg"}),
                         ("ablate", {"m": 0}),
                         ("ablate", {"use_refinement": False})):
        payload = {"sigma": {"kind": "ddim_eta", "eta": 0.0}, "fusion": fusion}
        if mode == "ablate":
            payload.update(world={"preset": "product"}, condition=FULL["condition"])
        validate_config(payload, mode)


def test_a_zero_sigma_is_refused_without_a_mode_where_the_fusion_stage_runs():
    # validated without a mode every key is read, so the sampler that
    # fusion.mode names runs: regularization_sweep would otherwise train its
    # nets and then fail in the fusion stage at t=T
    eta0 = {"schedule": {"T": 10}, "sigma": {"kind": "ddim_eta", "eta": 0.0}}
    with pytest.raises(ConfigError, match="sigma: 0 at t=2"):
        validate_config(eta0)
    for fusion in ({"m": 0}, {"use_refinement": False}, {"mode": "independent"},
                   {"mode": "vanilla_cfg"}):
        validate_config({**eta0, "fusion": fusion})


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
        f1, f2 = first.fusion, second.fusion
        # a sigma profile compares by identity, so compare its fields
        assert replace(f1, sigma=f2.sigma) == f2
        assert (f1.sigma.kind, f1.sigma.eta, f1.sigma.values) == (
            f2.sigma.kind, f2.sigma.eta, f2.sigma.values)
        assert first.training == second.training
        assert first.lambdas == second.lambdas
        assert first.n_samples == second.n_samples
        assert (first.world is None) == (second.world is None)


# the least payload that runs each mode: ablate needs world and condition
# together, or neither for the built-in benchmark
_MODE_PAYLOADS = [
    ("ablate", {}),
    ("ablate", {"world": {"preset": "product"}, "condition": {"text": [0.0, 3.0]}}),
] + [(mode, {}) for mode in sorted(RUN_MODES) if mode != "ablate"]


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
    if mode == "ablate" and not payload:
        # the built-in benchmark reads no key, seed included
        with pytest.raises(ConfigError, match="built-in benchmark.*: seed$"):
            validate_config({"seed": 5}, mode)
    else:
        assert validate_config({**payload, "seed": 5}, mode).seed == 5
    # every mode leaves at least one key of FULL unread
    with pytest.raises(ConfigError, match="not read by"):
        validate_config(FULL, mode)


def test_ablate_refuses_half_set_and_builtin_extras():
    for half in ("world", "condition"):
        with pytest.raises(ConfigError, match="both world and condition"):
            validate_config({half: FULL[half]}, "ablate")
    with pytest.raises(ConfigError, match="built-in benchmark.*: fusion$"):
        validate_config({"fusion": {"m": 3}}, "ablate")
