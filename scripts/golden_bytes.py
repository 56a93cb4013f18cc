"""Hash the artifacts of a fixed set of small CLI runs.

Runs `python3 -m fusionsampler run` once per case below, each into its own
temporary directory, and prints one JSON object that maps "case/file" to the
sha256 of that file. A change that must keep the artifact bytes can be
checked with one diff of the output before and after it:

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
    ("sample-independent", "sample",
     {**_PRODUCT_SAMPLE, "fusion": {"mode": "independent"}}),
    ("sample-no-refinement", "sample",
     {**_PRODUCT_SAMPLE, "fusion": {"use_refinement": False}}),
    ("train-encoder", "train-encoder", _TRAINING),
    ("sweep-lambda", "sweep-lambda",
     {**_TRAINING, "sampling": {"n_samples": 40},
      "sweep": {"lambdas": [0.0, 1.0, 10.0], "seeds": [0, 1]}}),
    ("ablate-conflict", "ablate", _CONFLICT),
    ("compare-conflict", "compare", _CONFLICT),
    ("ablate-builtin", "ablate", {}),
    ("compare-builtin", "compare", {}),
]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_bytes(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, mode, config in CASES:
            cfg_path = os.path.join(tmp, f"{name}.json")
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            out = os.path.join(tmp, name)
            subprocess.run(
                [sys.executable, "-m", "fusionsampler", "run", "--config", cfg_path,
                 "--mode", mode, "--out", out],
                env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL,
            )
            for file in sorted(os.listdir(out)):
                hashes[f"{name}/{file}"] = _sha256(os.path.join(out, file))
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
