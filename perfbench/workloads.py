"""The benchmark's workloads: configs made from a workload seed, the analytic
predictor-call count of each, and the checks on their artifacts.

Every check reads only the files the CLI wrote. Expected values come from
closed forms written here, not from the package under test.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# ablate-oracle: the paper's conflicting-conditions benchmark written out as
# an explicit config (evaluate.degeneration_benchmark), so the workload seed
# reaches the program through sweep.seeds; the built-in {} config fixes
# seeds 0-4.
_ABLATE_BASE = {
    "world": {"preset": "conflict"},
    "condition": {"identity": [[16.0, 10.0], [0.0, 0.0]], "text": [0.0, 4.0]},
    "fusion": {"m": 3, "gamma": 0.06, "use_refinement": True, "mode": "fusion"},
    "weights": {"omega": 4.0, "omega1": 0.6, "omega2": 5.0},
    "sigma": {"kind": "boundary"},
    "sampling": {"n_samples": 500},
}
ABLATE_SEEDS = 5
ABLATE_VARIANTS = ("vanilla_cfg", "independent", "fusion_no_refinement",
                   "fusion_no_fusion_stage", "fusion")

# sample-wide: product world, null condition. The mean check below allows
# 0.02 of the largest data std, which is 0.02 * sqrt(n) standard errors of
# the sample mean: at n = 8000 that is 1.8 SE, so about one seed in seven
# would fail on sampling error alone; n = 40000 makes it 4 SE. A shorter T,
# with a larger beta_end so that alpha_bar_T stays near the default
# schedule's 0.016, keeps a run near 16 s at that n.
SAMPLE_N = 40000
SAMPLE_T = 16
SAMPLE_BETA_END = 0.42
SAMPLE_M = 2
_PRODUCT = {"identity_spacing": 4.0, "style_offset": 4.0, "s": 0.35}

# schedule.T of the configs that leave the schedule at its default
DEFAULT_T = 100

# sweep-learned: a reduced lambda grid, one training seed per run. With 300
# encoder steps the reconstruction error at lambda = 0 varies by about as
# much as the step from 0 to 0.1, and the grid {0, 0.1, 10} orders them the
# wrong way round at seeds 105 and 113; from 0 to 1 and from 1 to 10 the
# error rose by at least 0.06 at each of 60 seeds.
SWEEP_LAMBDAS = [0.0, 1.0, 10.0]
SWEEP_DENOISER_STEPS = 2000
SWEEP_ENCODER_STEPS = 300
SWEEP_N = 500
SWEEP_M = 1  # the config's default fusion.m


def fusion_nfe(T: int, m: int) -> int:
    """Predictor calls of one fusion trajectory with refinement: m joint
    guided passes (2 calls each) plus one independent pass (3 calls) per
    step, and only the independent pass at t=1, where sigma is 0."""
    return (T - 1) * (2 * m + 3) + 3


def ablate_nfe_per_seed(T: int, m: int) -> int:
    # vanilla 2T, independent 3T, fusion without refinement 2T (it returns
    # after the first joint pass), fusion with m=0 is independent: 3T
    return 2 * T + 3 * T + 2 * T + 3 * T + fusion_nfe(T, m)


@dataclass(frozen=True)
class Workload:
    mode: str
    config: Callable[[int], dict]
    nfe: int  # predictor calls of one run
    batch: int  # rows of every predictor call
    samples: int  # final sample rows of one run
    check: Callable[[str, dict], list]


def _ablate_config(seed: int) -> dict:
    seeds = [ABLATE_SEEDS * seed + k for k in range(ABLATE_SEEDS)]
    return {"seed": seed, **_ABLATE_BASE, "sweep": {"seeds": seeds}}


def _sample_config(seed: int) -> dict:
    return {
        "seed": seed,
        "world": {"preset": "product", **_PRODUCT},
        "schedule": {"T": SAMPLE_T, "beta_end": SAMPLE_BETA_END},
        "fusion": {"m": SAMPLE_M},
        "sampling": {"n_samples": SAMPLE_N},
    }


def _sweep_config(seed: int) -> dict:
    return {
        "seed": seed,
        "sweep": {"lambdas": SWEEP_LAMBDAS, "seeds": [seed]},
        "denoiser": {"steps": SWEEP_DENOISER_STEPS},
        "training": {"steps": SWEEP_ENCODER_STEPS},
        "sampling": {"n_samples": SWEEP_N},
    }


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_ablate(out: str, config: dict) -> list[str]:
    """The acceptance ordering gate of tests/test_acceptance.py, plus the
    m=0 identity: fusion_no_fusion_stage rows equal independent bit for bit
    (floats are written with repr, so equal text is equal bits)."""
    rows = _read_csv(os.path.join(out, "metrics.csv"))
    seeds = config["sweep"]["seeds"]
    problems = []
    if [(r["variant"], int(r["seed"])) for r in rows] != \
            [(v, s) for v in ABLATE_VARIANTS for s in seeds]:
        return ["metrics.csv does not hold one row per variant and seed"]
    means = {}
    for name in ABLATE_VARIANTS:
        mine = [r for r in rows if r["variant"] == name]
        means[name] = (float(np.mean([float(r["identity_score"]) for r in mine])),
                       float(np.mean([float(r["style_score"]) for r in mine])))
    fus_id, fus_sty = means["fusion"]
    van_id, van_sty = means["vanilla_cfg"]
    mins = {name: min(pair) for name, pair in means.items()}
    others = {k: v for k, v in mins.items() if k != "fusion"}
    if not all(mins["fusion"] > v for v in others.values()):
        problems.append(f"fusion min score {mins['fusion']:.4f} does not beat"
                        f" every other variant {others}")
    if not fus_sty > van_sty:
        problems.append(f"fusion style {fus_sty:.4f} <= vanilla {van_sty:.4f}")
    if not fus_id >= van_id - 0.05:
        problems.append(f"fusion identity {fus_id:.4f} < vanilla {van_id:.4f} - 0.05")

    def cells(name):
        return [(r["seed"], r["identity_score"], r["style_score"])
                for r in rows if r["variant"] == name]

    if cells("fusion_no_fusion_stage") != cells("independent"):
        problems.append("fusion_no_fusion_stage rows differ from independent")
    return problems


def _check_sample(out: str, config: dict) -> list[str]:
    """Sample moments against the product world's closed-form moments, with
    the tolerances of the acceptance test's oracle/DDIM moment check."""
    samples = np.loadtxt(os.path.join(out, "samples.csv"), delimiter=",",
                         skiprows=1, ndmin=2)
    if samples.shape != (SAMPLE_N, 2) or not np.all(np.isfinite(samples)):
        return [f"samples.csv holds {samples.shape}, expected ({SAMPLE_N}, 2)"]
    # two identities at +-spacing/2 on axis 0, two styles at +-offset/2 on
    # axis 1, uniform prior: mean 0, diagonal covariance
    s = _PRODUCT["s"]
    mean_target = np.zeros(2)
    cov_target = np.diag([s * s + (_PRODUCT["identity_spacing"] / 2) ** 2,
                          s * s + (_PRODUCT["style_offset"] / 2) ** 2])
    scale = float(np.sqrt(np.max(np.diag(cov_target))))
    mean_err = float(np.max(np.abs(samples.mean(axis=0) - mean_target)))
    cov_err = float(np.max(np.abs(np.cov(samples.T) - cov_target)))
    cov_tol = 0.05 * float(np.max(np.abs(cov_target)))
    problems = []
    if not mean_err <= 0.02 * scale:
        problems.append(f"mean error {mean_err:.4f} > {0.02 * scale:.4f}")
    if not cov_err <= cov_tol:
        problems.append(f"covariance error {cov_err:.4f} > {cov_tol:.4f}")
    return problems


def _check_sweep(out: str, config: dict) -> list[str]:
    """The acceptance gate of the regularization sweep: no failed cell,
    reconstruction error rising and embedding norm falling with lambda."""
    with open(os.path.join(out, "run_record.json")) as fh:
        metrics = json.load(fh)["metrics"]
    rows = _read_csv(os.path.join(out, "metrics.csv"))
    problems = []
    if len(rows) != len(SWEEP_LAMBDAS) or any(r["status"] != "ok" for r in rows):
        problems.append(f"failed cells: {[r['status'] for r in rows]}")
    if metrics.get("n_failed") != 0:
        problems.append(f"n_failed = {metrics.get('n_failed')}")
    if not metrics.get("spearman_recon", -2.0) >= 0.9:
        problems.append(f"spearman_recon {metrics.get('spearman_recon')} < 0.9")
    if not metrics.get("spearman_norm", 2.0) <= -0.9:
        problems.append(f"spearman_norm {metrics.get('spearman_norm')} > -0.9")
    return problems


WORKLOADS = {
    "ablate-oracle": Workload(
        mode="ablate",
        config=_ablate_config,
        nfe=ABLATE_SEEDS * ablate_nfe_per_seed(DEFAULT_T,
                                               _ABLATE_BASE["fusion"]["m"]),
        batch=_ABLATE_BASE["sampling"]["n_samples"],
        samples=len(ABLATE_VARIANTS) * ABLATE_SEEDS
        * _ABLATE_BASE["sampling"]["n_samples"],
        check=_check_ablate,
    ),
    "sample-wide": Workload(
        mode="sample",
        config=_sample_config,
        nfe=fusion_nfe(SAMPLE_T, SAMPLE_M),
        batch=SAMPLE_N,
        samples=SAMPLE_N,
        check=_check_sample,
    ),
    "sweep-learned": Workload(
        mode="sweep-lambda",
        config=_sweep_config,
        nfe=len(SWEEP_LAMBDAS) * fusion_nfe(DEFAULT_T, SWEEP_M),
        batch=SWEEP_N,
        samples=len(SWEEP_LAMBDAS) * SWEEP_N,
        check=_check_sweep,
    ),
}
