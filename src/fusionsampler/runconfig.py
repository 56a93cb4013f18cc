"""Run configuration: a JSON mapping validated into constructed objects.

The schema is flat sections (seed, out_dir, world, schedule, sigma, fusion,
weights, training, condition, sampling, sweep, denoiser), every one optional.
Violations raise ConfigError with the dotted path of the offending key, and
unknown keys are rejected rather than ignored so a typo cannot silently fall
back to a default. Validated for a run mode, a key that mode does not read
(MODE_KEYS) is refused the same way. validate_config also materializes the
resolved payload of the keys the run reads, which run records embed so a run
can be reproduced from its output alone.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.encoder import TrainingConfig
from fusionsampler.guidance import GuidanceWeights
from fusionsampler.mixture import MixtureWorld
from fusionsampler.sampler import FusionConfig
from fusionsampler.schedule import (
    DEFAULT_BETA_END,
    DEFAULT_BETA_START,
    DEFAULT_T,
    DiffusionSchedule,
    SigmaProfile,
    build_schedule,
)
from fusionsampler.worlds import WORLD_PRESETS

__all__ = ["ConfigError", "MODE_KEYS", "RunConfig", "validate_config"]


class ConfigError(ValueError):
    """A config payload violates the schema; the message carries key paths."""


_SECTIONS = ("seed", "out_dir", "world", "schedule", "sigma", "fusion", "weights",
             "training", "condition", "sampling", "sweep", "denoiser")

# The keys each run mode reads: a whole section, or "section.key" where a
# mode reads only part of one. Every mode accepts seed, though ablate,
# compare and sweep-lambda take their seeds from sweep.seeds: the benchmark
# configs in perfbench/workloads.py set it for them. ablate and compare
# with neither world nor condition run the built-in benchmark
# (evaluate.degeneration_benchmark), which reads the "builtin" row and fixes
# everything else itself.
_SAMPLER = ("schedule", "sigma", "fusion", "weights")
_ABLATE = ("seed", "out_dir", "world", *_SAMPLER, "condition", "sampling",
           "sweep.seeds")
MODE_KEYS = {
    "sample": ("seed", "out_dir", "world", *_SAMPLER, "condition", "sampling"),
    "train-encoder": ("seed", "out_dir", "world", "schedule", "training",
                      "denoiser"),
    "sweep-lambda": ("seed", "out_dir", "world", *_SAMPLER, "training.steps",
                     "training.batch", "training.augment", "training.lr",
                     "sampling", "sweep", "denoiser"),
    "ablate": _ABLATE,
    "compare": _ABLATE,
    "builtin": ("seed", "out_dir"),
}


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
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_num(value, path: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value!r}")
    return out


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _build_world(obj, path: str) -> MixtureWorld:
    obj = _require_mapping(obj, path)
    if "preset" not in obj:
        raise ConfigError(f"{path}.preset: required (one of {sorted(WORLD_PRESETS)})")
    name = _as_str(obj["preset"], f"{path}.preset")
    if name not in WORLD_PRESETS:
        raise ConfigError(
            f"{path}.preset: unknown preset {name!r}; choose from {sorted(WORLD_PRESETS)}"
        )
    fn = WORLD_PRESETS[name]
    params = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in obj.items() if k != "preset"}
    _reject_unknown(kwargs, path, params)
    try:
        return fn(**kwargs)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_schedule(obj, path: str) -> tuple[DiffusionSchedule, dict]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("T", "beta_start", "beta_end"))
    resolved = {
        "T": _as_int(obj.get("T", DEFAULT_T), f"{path}.T", minimum=1),
        "beta_start": _as_num(obj.get("beta_start", DEFAULT_BETA_START),
                              f"{path}.beta_start"),
        "beta_end": _as_num(obj.get("beta_end", DEFAULT_BETA_END), f"{path}.beta_end"),
    }
    try:
        return build_schedule(**resolved), resolved
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_sigma(obj, path: str, T: int) -> tuple[SigmaProfile, dict]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("kind", "eta", "values"))
    kind = _as_str(obj.get("kind", "boundary"), f"{path}.kind")
    resolved: dict = {"kind": kind}
    kwargs: dict = {}
    if "eta" in obj:
        if kind != "ddim_eta":
            raise ConfigError(f"{path}.eta: only valid for kind 'ddim_eta', not {kind!r}")
        kwargs["eta"] = _as_num(obj["eta"], f"{path}.eta")
        resolved["eta"] = kwargs["eta"]
    if "values" in obj:
        vals = obj["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"{path}.values: expected a nonempty list of numbers")
        kwargs["values"] = np.array(
            [_as_num(v, f"{path}.values[{i}]", minimum=0.0) for i, v in enumerate(vals)]
        )
        if kwargs["values"].size != T:
            raise ConfigError(
                f"{path}.values: need one value per timestep"
                f" ({T}), got {kwargs['values'].size}"
            )
        resolved["values"] = [float(v) for v in kwargs["values"]]
    try:
        return SigmaProfile(kind, **kwargs), resolved
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_weights(obj, path: str) -> tuple[GuidanceWeights, dict]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("omega", "omega1", "omega2"))
    resolved = {
        "omega": _as_num(obj.get("omega", 2.0), f"{path}.omega"),
        "omega1": _as_num(obj.get("omega1", 2.0), f"{path}.omega1"),
        "omega2": _as_num(obj.get("omega2", 2.0), f"{path}.omega2"),
    }
    return GuidanceWeights(**resolved), resolved


def _build_fusion(obj, path: str, weights: GuidanceWeights,
                  sigma: SigmaProfile) -> tuple[FusionConfig, dict]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("m", "gamma", "use_refinement", "mode"))
    resolved = {
        "m": _as_int(obj.get("m", 1), f"{path}.m", minimum=0),
        "gamma": _as_num(obj.get("gamma", 0.4), f"{path}.gamma",
                         minimum=0.0, maximum=1.0),
        "use_refinement": _as_bool(obj.get("use_refinement", True),
                                   f"{path}.use_refinement"),
        "mode": _as_str(obj.get("mode", "fusion"), f"{path}.mode"),
    }
    try:
        return FusionConfig(m=resolved["m"], gamma=resolved["gamma"],
                            use_refinement=resolved["use_refinement"],
                            weights=weights, sigma=sigma,
                            mode=resolved["mode"]), resolved
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_training(obj, path: str, seed: int) -> tuple[TrainingConfig, dict]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("lam", "steps", "batch", "augment", "lr"))
    resolved = {
        "lam": _as_num(obj.get("lam", 0.0), f"{path}.lam", minimum=0.0),
        "steps": _as_int(obj.get("steps", 600), f"{path}.steps", minimum=0),
        "batch": _as_int(obj.get("batch", 128), f"{path}.batch", minimum=1),
        "augment": _as_bool(obj.get("augment", True), f"{path}.augment"),
        "lr": _as_num(obj.get("lr", 2e-3), f"{path}.lr"),
    }
    try:
        return TrainingConfig(seed=seed, **resolved), resolved
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _as_slot(value, path: str):
    """A condition slot: null, or a list, possibly nested, of numbers and
    "-inf" (an excluded cell's log-weight)."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigError(
            f'{path}: expected a list of numbers and "-inf", got {value!r}')
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
    try:
        return ConditionSet.from_jsonable(payload)
    except ValueError as err:  # a ragged slot
        raise ConfigError(f"{path}: {err}") from err


def _build_sweep(obj, path: str) -> dict:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, path, ("lambdas", "seeds"))
    lambdas = obj.get("lambdas", [0.0, 0.01, 0.1, 1.0, 10.0])
    seeds = obj.get("seeds", [0, 1, 2])
    if not isinstance(lambdas, list) or not lambdas:
        raise ConfigError(f"{path}.lambdas: expected a nonempty list of numbers")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{path}.seeds: expected a nonempty list of integers")
    return {
        "lambdas": [_as_num(v, f"{path}.lambdas[{i}]", minimum=0.0)
                    for i, v in enumerate(lambdas)],
        "seeds": [_as_int(v, f"{path}.seeds[{i}]") for i, v in enumerate(seeds)],
    }


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
    out_dir: str | None
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
    the payload echoes only the row's keys; ablate and compare with neither
    world nor condition use the "builtin" row. Raises ConfigError naming the
    offending key path on any violation.
    """
    payload = _require_mapping(payload, "config")
    _reject_unknown(payload, "", _SECTIONS)

    seed = _as_int(payload.get("seed", 0), "seed")
    out_dir = None
    if payload.get("out_dir") is not None:
        out_dir = _as_str(payload["out_dir"], "out_dir")

    world = None
    if payload.get("world") is not None:
        world = _build_world(payload["world"], "world")
    schedule, schedule_echo = _build_schedule(payload.get("schedule", {}), "schedule")
    sigma, sigma_echo = _build_sigma(payload.get("sigma", {}), "sigma", schedule.T)
    weights, weights_echo = _build_weights(payload.get("weights", {}), "weights")
    fusion, fusion_echo = _build_fusion(payload.get("fusion", {}), "fusion",
                                        weights, sigma)
    training, training_echo = _build_training(payload.get("training", {}),
                                              "training", seed)
    condition = None
    if payload.get("condition") is not None:
        condition = _build_condition(payload["condition"], "condition")

    sampling = _require_mapping(payload.get("sampling", {}), "sampling")
    _reject_unknown(sampling, "sampling", ("n_samples",))
    n_samples = _as_int(sampling.get("n_samples", 500), "sampling.n_samples",
                        minimum=1)

    sweep_echo = _build_sweep(payload.get("sweep", {}), "sweep")

    den = _require_mapping(payload.get("denoiser", {}), "denoiser")
    _reject_unknown(den, "denoiser", ("steps",))
    denoiser_steps = _as_int(den.get("steps", 4000), "denoiser.steps", minimum=1)

    row, reader = (_SECTIONS, None) if mode is None else (MODE_KEYS[mode], mode)
    if mode in ("ablate", "compare"):
        if (world is None) != (condition is None):
            raise ConfigError(
                f"world, condition: {mode} needs both world and condition (or"
                " neither, which runs the built-in benchmark)")
        if world is None:
            row = MODE_KEYS["builtin"]
            reader = (f"the built-in benchmark ({mode} with neither world"
                      " nor condition)")
    _refuse_unread(payload, row, reader)
    resolved = {
        "seed": seed,
        "out_dir": out_dir,
        "world": payload.get("world"),
        "schedule": schedule_echo,
        "sigma": sigma_echo,
        "fusion": fusion_echo,
        "weights": weights_echo,
        "training": training_echo,
        "condition": None if condition is None else condition.to_jsonable(),
        "sampling": {"n_samples": n_samples},
        "sweep": sweep_echo,
        "denoiser": {"steps": denoiser_steps},
    }
    echo = {}
    for section, value in resolved.items():
        if section in row:
            echo[section] = value
        elif sub := _subkeys(row, section):
            echo[section] = {key: value[key] for key in sub}
    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        world=world,
        schedule=schedule,
        fusion=fusion,
        training=training,
        condition=condition,
        n_samples=n_samples,
        lambdas=tuple(sweep_echo["lambdas"]),
        sweep_seeds=tuple(sweep_echo["seeds"]),
        denoiser_steps=denoiser_steps,
        payload=echo,
    )
