"""Run configuration: a JSON mapping validated into constructed objects.

The schema is flat sections (seed, world, schedule, sigma, fusion, weights,
training, condition, sampling, sweep, denoiser), every one optional;
a section that feeds one constructor takes its keys and defaults from it
(_read_section), the others from _PLAIN, and a value must have its default's
JSON type (_read_values). Violations raise ConfigError with the dotted path
of the offending key, and unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default. Validated for a run mode, a key that
mode does not read (MODE_KEYS) is refused the same way; a sigma profile that
the fusion stage cannot run (sampler.check_fusion_sigma) is refused
wherever that stage would run, with or without a mode. require_condition
refuses, once a mode knows its world, a condition that does not fit it.
validate_config also materializes the resolved payload of the keys the run
reads, which run records embed so a run can be reproduced from its output
alone. The config
is the one source of a run's inputs; where a run writes is the CLI's --out,
not a config key.
"""

from __future__ import annotations

import inspect
import reprlib
from dataclasses import dataclass, field, replace

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.encoder import TrainingConfig
from fusionsampler.guidance import GuidanceWeights
from fusionsampler.mixture import MixtureWorld, cell_log_weights
from fusionsampler.sampler import FusionConfig, ablation_variants, check_fusion_sigma
from fusionsampler.schedule import (
    DiffusionSchedule,
    SigmaProfile,
    build_schedule,
    check_sigma,
)
from fusionsampler.worlds import WORLD_PRESETS

__all__ = ["ConfigError", "MODE_KEYS", "RunConfig", "require_condition",
           "validate_config"]


class ConfigError(ValueError):
    """A config payload violates the schema; the message carries key paths."""


_SECTIONS = ("seed", "world", "schedule", "sigma", "fusion", "weights", "training",
             "condition", "sampling", "sweep", "denoiser")

# The keys each run mode reads: a whole section, or "section.key" where a
# mode reads only part of one. Every mode accepts seed, though ablate and
# sweep-lambda take their seeds from sweep.seeds: the benchmark configs in
# perfbench/workloads.py set it for them. ablate with neither world nor
# condition runs the built-in benchmark (evaluate.degeneration_benchmark),
# which fixes every setting itself: its "builtin" row is empty, so it
# accepts only {}. sample and sweep-lambda read only the fusion and weights
# keys of the sampler that fusion.mode names (_sampler_keys); ablate reads
# them all through its variants.
_SAMPLER = ("schedule", "sigma", "fusion", "weights")
MODE_KEYS = {
    "sample": ("seed", "world", *_SAMPLER, "condition", "sampling"),
    "train-encoder": ("seed", "world", "schedule", "training", "denoiser"),
    "sweep-lambda": ("seed", "world", *_SAMPLER, "training.steps",
                     "training.batch", "training.augment", "training.lr",
                     "sampling", "sweep", "denoiser"),
    "ablate": ("seed", "world", *_SAMPLER, "condition", "sampling", "sweep.seeds"),
    "builtin": (),
}


# the offending value as a message shows it: a config value can be of any
# size, so a long string, integer or list is cut and a nested container
# shows as [...]; a float is always whole. Keeps a message near 120 chars.
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxlist, _SHORT.maxdict = 1, 2, 1
_SHORT.maxstring = _SHORT.maxlong = 20
_SHORT.maxother = 24


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, path: str, allowed) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        dotted = ", ".join(f"{path}.{k}" if path else k for k in unknown)
        raise ConfigError(f"unknown key(s): {dotted}")


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {_SHORT.repr(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {_SHORT.repr(value)}")
    return value


def _as_num(value, path: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {_SHORT.repr(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path}: must be finite, got an integer too large"
                          " for a float") from None
    if not np.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {_SHORT.repr(value)}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {_SHORT.repr(value)}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {_SHORT.repr(value)}")
    return out


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {_SHORT.repr(value)}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {_SHORT.repr(value)}")
    return value


# bounds on outside input, by key path; the constructors check theirs again.
# A list key's bounds hold for each entry, and unique refuses a repeat.
_BOUNDS = {"schedule.T": {"minimum": 1}, "fusion.m": {"minimum": 0},
           "fusion.gamma": {"minimum": 0.0, "maximum": 1.0},
           "training.lam": {"minimum": 0.0}, "training.steps": {"minimum": 0},
           "training.batch": {"minimum": 1}, "sigma.values": {"minimum": 0.0},
           "sampling.n_samples": {"minimum": 1}, "denoiser.steps": {"minimum": 1},
           # a repeated entry would run the same cells twice
           "sweep.lambdas": {"minimum": 0.0, "unique": True},
           "sweep.seeds": {"minimum": 0, "unique": True}}
# the JSON type a key must have, by the type of its default
_READERS = {bool: _as_bool, int: _as_int, float: _as_num, str: _as_str}
# the sections that feed no constructor: their keys and defaults
_PLAIN = {"sampling": {"n_samples": 500},
          "sweep": {"lambdas": (0.0, 0.01, 0.1, 1.0, 10.0), "seeds": (0, 1, 2)},
          "denoiser": {"steps": 4000}}


def _as_list(value, path: str, default: tuple, unique: bool = False,
             **bounds) -> list:
    """A nonempty list whose entries have the type of default's entries."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list, got {_SHORT.repr(value)}")
    read = _READERS[type(default[0])]
    out = [read(v, f"{path}[{i}]", **bounds) for i, v in enumerate(value)]
    for i, v in enumerate(out):
        if unique and v in out[:i]:
            raise ConfigError(f"{path}[{i}]: duplicate of {path}[{out.index(v)}]")
    return out


# a constructor's message may echo a value of any size; cut to this many
# characters behind its key path, it stays near 120 chars
_CONSTRUCTOR_TEXT = 96


def _construct(fn, path: str, *args, **kwargs):
    """fn(*args, **kwargs), with its ValueError or TypeError reported at path."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as err:
        text = str(err)
        if len(text) > _CONSTRUCTOR_TEXT:
            text = text[:_CONSTRUCTOR_TEXT - 3] + "..."
        raise ConfigError(f"{path}: {text}") from err


def _read_values(obj, path: str, defaults: dict) -> dict:
    """The mapping at path resolved against defaults, as JSON values.

    An absent key takes its default, a tuple as a list. A given one must
    have its default's JSON type (_READERS), a tuple default asking for a
    list of its entries' type (_as_list), and lie within _BOUNDS.
    """
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, defaults)
    echo = {}
    for key, default in defaults.items():
        bounds = _BOUNDS.get(f"{path}.{key}", {})
        if key not in obj:
            echo[key] = list(default) if isinstance(default, tuple) else default
        elif isinstance(default, tuple):
            echo[key] = _as_list(obj[key], f"{path}.{key}", default, **bounds)
        else:
            echo[key] = _READERS[type(default)](obj[key], f"{path}.{key}", **bounds)
    return echo


def _read_section(obj, path: str, fn, **supplied):
    """Construct fn from section path; returns (fn's result, the section's echo).

    The section's keys and defaults are fn's keyword parameters but those in
    supplied, which other sections give; _read_values reads them.
    """
    defaults = {key: p.default for key, p in inspect.signature(fn).parameters.items()
                if key not in supplied}
    echo = _read_values(obj, path, defaults)
    return _construct(fn, path, **supplied, **echo), echo


def _build_world(obj, path: str) -> MixtureWorld:
    obj = _require_mapping(obj, path)
    if "preset" not in obj:
        raise ConfigError(f"{path}.preset: required (one of {sorted(WORLD_PRESETS)})")
    name = _as_str(obj["preset"], f"{path}.preset")
    if name not in WORLD_PRESETS:
        raise ConfigError(
            f"{path}.preset: unknown preset {_SHORT.repr(name)};"
            f" choose from {sorted(WORLD_PRESETS)}"
        )
    kwargs = {k: v for k, v in obj.items() if k != "preset"}
    return _read_section(kwargs, path, WORLD_PRESETS[name])[0]


# the sigma keys that only one kind reads, and that kind
_KIND_KEYS = {"eta": "ddim_eta", "values": "custom"}


def _build_sigma(obj, path: str,
                 schedule: DiffusionSchedule) -> tuple[SigmaProfile, dict]:
    # values has no default: (0.0,) only gives its entries' type
    given = _read_values(obj, path, {"kind": "boundary", "eta": 0.0, "values": (0.0,)})
    resolved = {key: given[key] for key in ("kind", *obj)}  # kind and the given keys
    kind = resolved["kind"]
    for key, owner in _KIND_KEYS.items():
        if key in obj and kind != owner:
            raise ConfigError(f"{path}.{key}: only valid for kind {owner!r},"
                              f" not {_SHORT.repr(kind)}")
    if "values" in obj and len(resolved["values"]) != schedule.T:
        raise ConfigError(f"{path}.values: need one value per timestep"
                          f" ({schedule.T}), got {len(resolved['values'])}")
    kwargs = {key: np.array(v) if key == "values" else v
              for key, v in resolved.items() if key != "kind"}
    profile = _construct(SigmaProfile, path, kind, **kwargs)
    if kind == "custom":
        for i, sig in enumerate(resolved["values"]):
            _construct(check_sigma, f"{path}.values[{i}]", sig, schedule.alpha_bar[i])
    return profile, resolved


def _as_slot(value, path: str):
    """A condition slot: null, or a list, possibly nested, of numbers and
    "-inf" (an excluded cell's log-weight)."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigError(
            f'{path}: expected a list of numbers and "-inf", got {_SHORT.repr(value)}')
    for i, v in enumerate(value):
        if isinstance(v, list):
            _as_slot(v, f"{path}[{i}]")
        elif v != "-inf":
            _as_num(v, f"{path}[{i}]")
    return value


def _build_condition(obj, path: str) -> ConditionSet:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("identity", "text", "gamma"))
    payload = {
        "identity": _as_slot(obj.get("identity"), f"{path}.identity"),
        "text": _as_slot(obj.get("text"), f"{path}.text"),
        "gamma": _as_num(obj.get("gamma", 1.0), f"{path}.gamma",
                         minimum=0.0, maximum=1.0),
    }
    return _construct(ConditionSet.from_jsonable, path, payload)  # raises on a ragged slot


def require_condition(world: MixtureWorld, condition: ConditionSet) -> None:
    """Refuse, before any work, a condition whose slots do not fit world's
    (identity, style) grid or together exclude every cell. It is checked at
    gamma 1, where the identity slot counts: the fusion stage sets its own
    gamma."""
    try:
        cell_log_weights(world, replace(condition, gamma=1.0))
    except ValueError as err:
        raise ConfigError(f"condition: {err}") from None


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully constructed run inputs.

    world and condition stay None when their sections are absent (or null);
    each run mode substitutes its own default. payload is the resolved echo
    of the keys the mode reads (of every key when validated without a
    mode), embedded in run records; validating it again for the same mode
    reproduces this exact run, so a run can be replayed from its record
    alone.
    """

    seed: int
    world: MixtureWorld | None
    schedule: DiffusionSchedule
    fusion: FusionConfig
    training: TrainingConfig
    condition: ConditionSet | None
    n_samples: int
    lambdas: tuple[float, ...]
    sweep_seeds: tuple[int, ...]
    denoiser_steps: int
    payload: dict = field(default_factory=dict)


def _sampler_keys(fusion: FusionConfig) -> tuple[str, ...]:
    """The fusion and weights keys that the sampler reads under fusion.mode:
    vanilla_cfg is one joint-guided step; fusion reads gamma and omega only
    with m >= 1, and omega1 and omega2 only with the refinement step, so
    m=0, independent-conditions guidance, reads omega1 and omega2 alone."""
    if fusion.mode == "vanilla_cfg":
        return ("fusion.mode", "weights.omega")
    keys = ("fusion.m", "fusion.use_refinement", "fusion.mode")
    if fusion.m >= 1:
        keys += ("fusion.gamma", "weights.omega")
    if fusion.use_refinement:
        keys += ("weights.omega1", "weights.omega2")
    return keys


def _subkeys(row, section: str) -> list[str]:
    return [key.partition(".")[2] for key in row if key.startswith(section + ".")]


def _refuse_unread(payload: dict, row, reader: str) -> None:
    unread = []
    for section, value in payload.items():
        if section not in row:
            sub = _subkeys(row, section)
            unread += ([f"{section}.{key}" for key in value if key not in sub]
                       if sub else [section])
    if unread:
        raise ConfigError(f"key(s) not read by {reader}: {', '.join(sorted(unread))}")


def validate_config(payload, mode: str | None = None) -> RunConfig:
    """Validate a decoded JSON payload and construct every component.

    With a run mode, a key outside that mode's MODE_KEYS row is refused and
    the payload echoes only the row's keys; sample and sweep-lambda narrow
    fusion and weights to the keys fusion.mode reads, and ablate with
    neither world nor condition uses the "builtin" row. Raises
    ConfigError naming the offending key path on any violation.
    """
    payload = _require_mapping(payload, "config")
    _reject_unknown(payload, "", _SECTIONS)

    seed = _as_int(payload.get("seed", 0), "seed", minimum=0)

    world = None
    if payload.get("world") is not None:
        world = _build_world(payload["world"], "world")
    schedule, schedule_echo = _read_section(payload.get("schedule", {}), "schedule",
                                            build_schedule)
    sigma, sigma_echo = _build_sigma(payload.get("sigma", {}), "sigma", schedule)
    weights, weights_echo = _read_section(payload.get("weights", {}), "weights",
                                          GuidanceWeights)
    fusion, fusion_echo = _read_section(payload.get("fusion", {}), "fusion",
                                        FusionConfig, weights=weights, sigma=sigma)
    training, training_echo = _read_section(payload.get("training", {}), "training",
                                            TrainingConfig, seed=seed)
    condition = None
    if payload.get("condition") is not None:
        condition = _build_condition(payload["condition"], "condition")

    plain = {section: _read_values(payload.get(section, {}), section, defaults)
             for section, defaults in _PLAIN.items()}

    row, reader = (_SECTIONS, None) if mode is None else (MODE_KEYS[mode], mode)
    if mode in ("sample", "sweep-lambda"):
        row = (*(key for key in row if key not in ("fusion", "weights")),
               *_sampler_keys(fusion))
    if mode == "ablate":
        if (world is None) != (condition is None):
            raise ConfigError(
                "world, condition: ablate needs both world and condition (or"
                " neither, which runs the built-in benchmark)")
        if world is None:
            row = MODE_KEYS["builtin"]
            reader = "the built-in benchmark (ablate with neither world nor condition)"
    _refuse_unread(payload, row, reader)
    # ablate runs the ablation_variants of fusion, whatever fusion.mode and
    # fusion.use_refinement say; every other mode but train-encoder, and a
    # config validated without a mode, runs the sampler that fusion.mode names
    if mode != "train-encoder":
        samplers = ([variant for _, variant in ablation_variants(fusion)]
                    if mode == "ablate" else [fusion])
        for sampler in samplers:
            _construct(check_fusion_sigma, "sigma", sampler, schedule)
    resolved = {
        "seed": seed,
        "world": payload.get("world"),
        "schedule": schedule_echo,
        "sigma": sigma_echo,
        "fusion": fusion_echo,
        "weights": weights_echo,
        "training": training_echo,
        "condition": None if condition is None else condition.to_jsonable(),
        **plain,
    }
    echo = {}
    for section, value in resolved.items():
        if section in row:
            echo[section] = value
        elif sub := _subkeys(row, section):
            echo[section] = {key: v for key, v in value.items() if key in sub}
    return RunConfig(
        seed=seed,
        world=world,
        schedule=schedule,
        fusion=fusion,
        training=training,
        condition=condition,
        n_samples=plain["sampling"]["n_samples"],
        lambdas=tuple(plain["sweep"]["lambdas"]),
        sweep_seeds=tuple(plain["sweep"]["seeds"]),
        denoiser_steps=plain["denoiser"]["steps"],
        payload=echo,
    )
