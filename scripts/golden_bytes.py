"""Hash the artifacts of a fixed set of small CLI runs.

Runs `python3 -m fusionsampler run` once per case below, each into its own
temporary directory, then `python3 -m fusionsampler report` over all of them,
and prints one JSON object that maps "case/file" to the sha256 of that file;
the report's rollup is "report/summary.csv". A change that must keep the
artifact bytes can be checked with one diff of the output before and after
it:

    python3 scripts/golden_bytes.py > after.json
    python3 scripts/golden_bytes.py --src /path/to/other/checkout/src > before.json
    diff before.json after.json

--src names the directory that holds the package (default: this
repository's src/). Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

_PRODUCT_SAMPLE = {
    "seed": 0,
    "world": {"preset": "product"},
    "schedule": {"T": 20},
    "fusion": {"m": 2, "gamma": 0.3},
    "condition": {"identity": [3.0, 0.0], "text": [0.0, 3.0]},
    "sampling": {"n_samples": 40},
}
# feasible on the T=20 default schedule: sigma_t^2 <= 1 - alpha_bar[t-1]
_CUSTOM_SIGMA = [0.0, 0.005, 0.0, 0.05, 0.08, 0.0, 0.12, 0.14, 0.0, 0.18,
                 0.2, 0.0, 0.24, 0.26, 0.0, 0.3, 0.31, 0.0, 0.34, 0.36]
# the same, but positive at every t >= 2, where the fusion stage re-noises
_POSITIVE_SIGMA = [0.0, 0.005, 0.03, 0.05, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18,
                   0.2, 0.22, 0.24, 0.26, 0.28, 0.3, 0.31, 0.32, 0.34, 0.36]
_TRAINING = {
    "seed": 0,
    "schedule": {"T": 20},
    "denoiser": {"steps": 100},
    "training": {"steps": 20, "batch": 32},
}
_CONFLICT = {
    "seed": 0,
    "world": {"preset": "conflict"},
    "condition": {"identity": [[16.0, 10.0], [0.0, 0.0]], "text": [0.0, 4.0]},
    "schedule": {"T": 40},
    "fusion": {"m": 3, "gamma": 0.06},
    "weights": {"omega": 4.0, "omega1": 0.6, "omega2": 5.0},
    "sampling": {"n_samples": 100},
    "sweep": {"seeds": [0, 1]},
}

# (case name, run mode, config)
CASES = [
    ("sample-fusion", "sample", _PRODUCT_SAMPLE),
    ("sample-vanilla_cfg", "sample",
     {**_PRODUCT_SAMPLE, "fusion": {"mode": "vanilla_cfg"}}),
    # independent guidance: fusion with m=0
    ("sample-independent", "sample", {**_PRODUCT_SAMPLE, "fusion": {"m": 0}}),
    ("sample-no-refinement", "sample",
     {**_PRODUCT_SAMPLE, "fusion": {"use_refinement": False}}),
    ("sample-ddim_eta", "sample",
     {**_PRODUCT_SAMPLE, "sigma": {"kind": "ddim_eta", "eta": 0.5}}),
    # eta=1, the ancestral scale, with fusion m=2: pins the largest
    # ddim_eta sigma_t, and the re-noising draws that use it, bit for bit
    ("sample-ddim_eta1", "sample",
     {**_PRODUCT_SAMPLE, "sigma": {"kind": "ddim_eta", "eta": 1.0}}),
    # the zeros take ddim_step's deterministic branch
    ("sample-independent-custom", "sample",
     {**_PRODUCT_SAMPLE, "fusion": {"m": 0},
      "sigma": {"kind": "custom", "values": _CUSTOM_SIGMA}}),
    # fusion with m=2: re-noising under a custom sigma
    ("sample-fusion-custom", "sample",
     {**_PRODUCT_SAMPLE, "sigma": {"kind": "custom", "values": _POSITIVE_SIGMA}}),
    # list preset arguments set
    ("sample-single-mean", "sample",
     {"seed": 2, "world": {"preset": "single", "mean": [1.5, -0.5], "s": 0.8},
      "schedule": {"T": 20}, "sampling": {"n_samples": 40}}),
    ("sample-conflict-prior", "sample",
     {**_PRODUCT_SAMPLE, "world": {"preset": "conflict", "prior": [1, 2, 3, 4]},
      "condition": _CONFLICT["condition"]}),
    ("train-encoder", "train-encoder", _TRAINING),
    # every schedule and training key, and scalar preset arguments, set
    ("train-encoder-args", "train-encoder",
     {"seed": 1, "world": {"preset": "product", "identity_spacing": 3.0, "s": 0.5},
      "schedule": {"T": 20, "beta_start": 0.001, "beta_end": 0.2},
      "denoiser": {"steps": 100},
      "training": {"lam": 0.5, "steps": 20, "batch": 32, "augment": False,
                   "lr": 0.001}}),
    ("sweep-lambda", "sweep-lambda",
     {**_TRAINING, "sampling": {"n_samples": 40},
      "sweep": {"lambdas": [0.0, 1.0, 10.0], "seeds": [0, 1]}}),
    ("ablate-conflict", "ablate", _CONFLICT),
    # the replayed noise under a custom sigma, which validation bounds once
    # per value and resolves once for all five variants
    ("ablate-custom-sigma", "ablate",
     {**_CONFLICT, "schedule": {"T": 20},
      "sigma": {"kind": "custom", "values": _POSITIVE_SIGMA}}),
    ("ablate-builtin", "ablate", {}),
]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_bytes(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        def cli(*args):
            subprocess.run([sys.executable, "-m", "fusionsampler", *args],
                           env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL)

        for name, mode, config in CASES:
            cfg_path = os.path.join(tmp, f"{name}.json")
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            out = os.path.join(tmp, name)
            cli("run", "--config", cfg_path, "--mode", mode, "--out", out)
            for file in sorted(os.listdir(out)):
                hashes[f"{name}/{file}"] = _sha256(os.path.join(out, file))
        # the rollup of every case's record, written into tmp itself
        cli("report", "--out", tmp)
        hashes["report/summary.csv"] = _sha256(os.path.join(tmp, "summary.csv"))
    return hashes


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory that holds the fusionsampler package")
    args = parser.parse_args(argv)
    print(json.dumps(golden_bytes(args.src), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
