"""Check that the ablate-oracle config is the built-in ablation benchmark.

    python3 perfbench/check_builtin.py

Runs `fusionsampler run --mode ablate` twice from the checkout's src/: once
with the empty config {} (the built-in conflicting-conditions benchmark,
seeds 0-4) and once with the ablate-oracle config at workload seed 0, whose
sweep.seeds are [0, 1, 2, 3, 4]. Exits 0 when metrics.csv and variants.svg
are byte-identical between the two, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
COMPARED = ("metrics.csv", "variants.svg")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="builtin-", dir=ROOT / ".bench_work"))
    try:
        configs = {"builtin": {}, "ablate-oracle": WORKLOADS["ablate-oracle"].config(0)}
        outputs = {}
        for label, config in configs.items():
            path = work / f"{label}.json"
            path.write_text(json.dumps(config))
            subprocess.run([sys.executable, "-m", "fusionsampler", "run",
                            "--config", str(path), "--mode", "ablate",
                            "--out", str(work / label)],
                           env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, timeout=170)
            outputs[label] = {name: (work / label / name).read_bytes()
                              for name in COMPARED}
        same = outputs["builtin"] == outputs["ablate-oracle"]
        for name in COMPARED:
            verdict = ("identical" if outputs["builtin"][name]
                       == outputs["ablate-oracle"][name] else "DIFFERENT")
            print(f"{name}: {verdict} ({len(outputs['builtin'][name])} bytes)")
        return 0 if same else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
