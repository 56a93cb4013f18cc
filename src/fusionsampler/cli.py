"""Command-line front end: self-checks, configured runs, and report rollup.

verify prints one CSV row per check on stdout and exits nonzero when any
fails. run executes one mode from a JSON config; every mode stages its
artifacts in memory and writes them only after the whole mode finishes, so a
failed run leaves no partial files. The write goes through temp files renamed
into place, run_record.json last; an output that cannot be written exits 1
with no truncated artifact, no temp file and no run record left. run refuses
with exit 1, before the mode starts, an --out that already holds a
run_record.json, so one directory never mixes two runs' files. report scans
a directory (and its immediate subdirectories) for run_record.json files and
rolls them up into summary.csv, naming unreadable records in warnings
instead of aborting; it writes summary.csv the same way, and exits 1 when it
cannot.

Each run setting has one source: the JSON config holds every input of a
run, and --out (default runs) alone names the directory that run writes and
report scans. Every mode hands the config validated for it
(runconfig.MODE_KEYS: a key the mode does not read is refused with exit 2)
to the driver it runs. run_record.json holds the mode, the seed, the echo of
only the keys the mode read, and the mode's metrics; a mode's table is
written once, to its metrics.csv. The sweep.seeds list does double duty as
the seed list for the ablate mode; with neither world nor condition it runs
the built-in benchmark, which reads no key, and its record echoes the
benchmark's own config.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from fusionsampler.artifacts import (
    load_json,
    render_csv,
    render_json,
    render_scatter_svg,
)
from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import train_denoiser
from fusionsampler.encoder import heldout_metrics, train_promptnet
from fusionsampler.evaluate import (
    ABLATION_COLUMNS,
    SWEEP_COLUMNS,
    ablation_suite,
    degeneration_benchmark,
    regularization_sweep,
    spearman,
)
from fusionsampler.mixture import MixtureOracle
from fusionsampler.runconfig import ConfigError, RunConfig, validate_config
from fusionsampler.sampler import sample_trajectory
from fusionsampler.verify import run_checks
from fusionsampler.worlds import product_world

__all__ = ["main", "RUN_MODES"]

# ---------------------------------------------------------------- run modes


def _sample_rows(samples: np.ndarray) -> list[dict]:
    return [{f"x{j}": float(v) for j, v in enumerate(row)} for row in samples]


def _moment_metrics(samples: np.ndarray) -> dict:
    metrics: dict = {"n_samples": int(samples.shape[0])}
    for j in range(samples.shape[1]):
        metrics[f"mean_x{j}"] = float(np.mean(samples[:, j]))
        metrics[f"std_x{j}"] = float(np.std(samples[:, j]))
    return metrics


def _mode_sample(cfg: RunConfig) -> tuple[dict, dict]:
    world = cfg.world if cfg.world is not None else product_world()
    cond = cfg.condition if cfg.condition is not None else ConditionSet()
    predictor = MixtureOracle(world, cfg.schedule)
    samples = sample_trajectory(cond, cfg.fusion, predictor, cfg.schedule,
                                cfg.n_samples, seed=cfg.seed)
    metrics = _moment_metrics(samples)
    files = {
        "samples.csv": render_csv(_sample_rows(samples)),
        "metrics.csv": render_csv([metrics]),
    }
    return metrics, files


def _mode_train_encoder(cfg: RunConfig) -> tuple[dict, dict]:
    world = cfg.world if cfg.world is not None else product_world()
    den = train_denoiser(world, cfg.schedule, cfg.denoiser_steps, seed=cfg.seed)
    net = train_promptnet(world, den, cfg.training)
    # held-out error on 1000 fresh prior draws
    rng = np.random.default_rng((cfg.seed, 13))
    x0, cells = world.sample(1000, rng)
    recon, norm = heldout_metrics(net, den, x0, cells % world.n_styles, rng)
    metrics = {"recon_error": recon, "embed_norm": norm,
               "lam": float(cfg.training.lam), "steps": int(cfg.training.steps)}
    files = {
        "encoder.json": render_json(net.to_jsonable()),
        "denoiser.json": render_json(den.to_jsonable()),
        "metrics.csv": render_csv([metrics]),
    }
    return metrics, files


def _mode_sweep(cfg: RunConfig) -> tuple[dict, dict]:
    rows = regularization_sweep(cfg)
    ok = [r for r in rows if r["status"] == "ok"]
    metrics: dict = {"n_rows": len(rows), "n_failed": len(rows) - len(ok)}
    if len(cfg.lambdas) >= 2:
        rec_trends, norm_trends = [], []
        for seed in cfg.sweep_seeds:
            cells = [r for r in ok if r["seed"] == seed]
            if len(cells) == len(cfg.lambdas):
                lams = np.array([r["lam"] for r in cells])
                rec_trends.append(spearman(lams, np.array([r["recon_error"]
                                                           for r in cells])))
                norm_trends.append(spearman(lams, np.array([r["embed_norm"]
                                                            for r in cells])))
        if rec_trends:
            metrics["spearman_recon"] = float(np.mean(rec_trends))
            metrics["spearman_norm"] = float(np.mean(norm_trends))
    points = []
    for lam in cfg.lambdas:
        cells = [r for r in ok if r["lam"] == lam]
        if cells:
            points.append((float(np.mean([r["identity_score"] for r in cells])),
                           float(np.mean([r["style_score"] for r in cells])),
                           f"lam={lam:g}"))
    files = {
        "metrics.csv": render_csv(rows, columns=SWEEP_COLUMNS),
        "sweep.svg": render_scatter_svg(points, "adherence by regularization"),
    }
    return metrics, files


def _variant_summary(rows: list[dict]) -> list[dict]:
    out = []
    for name in dict.fromkeys(row["variant"] for row in rows):
        ids = [r["identity_score"] for r in rows if r["variant"] == name]
        sty = [r["style_score"] for r in rows if r["variant"] == name]
        i_mean, s_mean = float(np.mean(ids)), float(np.mean(sty))
        out.append({"variant": name, "identity_score": i_mean,
                    "style_score": s_mean, "min_score": min(i_mean, s_mean)})
    return out


def _mode_ablate(cfg: RunConfig) -> tuple[dict, dict]:
    """One metrics row per (variant, seed); the best variant and the plot
    use each variant's mean scores. cfg has both world and condition."""
    rows = ablation_suite(cfg)
    summary = _variant_summary(rows)
    best = max(summary, key=lambda row: row["min_score"])
    metrics = {"best_variant": best["variant"], "best_min_score": best["min_score"],
               "n_rows": len(rows)}
    points = [(row["identity_score"], row["style_score"], row["variant"])
              for row in summary]
    files = {
        "metrics.csv": render_csv(rows, columns=ABLATION_COLUMNS),
        "variants.svg": render_scatter_svg(points, "sampler variants"),
    }
    return metrics, files


RUN_MODES = {
    "sample": _mode_sample,
    "train-encoder": _mode_train_encoder,
    "sweep-lambda": _mode_sweep,
    "ablate": _mode_ablate,
}


# ----------------------------------------------------------------- commands


def cmd_verify(args) -> int:
    results = run_checks(args.filter)
    if not results:
        print(f"warning: no check matches filter {args.filter!r}", file=sys.stderr)
        return 0
    print("check,passed,detail")
    for r in results:
        print(f"{r.name},{'true' if r.passed else 'false'},{r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print("failed checks: " + " ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    try:
        payload = load_json(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # JSONDecodeError, UnicodeDecodeError, and an integer literal past
        # Python's int-string limit
        print(f"error: config is not valid JSON: {err}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(payload, args.mode)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if os.path.exists(os.path.join(args.out, "run_record.json")):
        print(f"error: {args.out} already holds a run (run_record.json);"
              " choose another --out", file=sys.stderr)
        return 1

    # ablate with neither world nor condition runs the built-in benchmark;
    # the record echoes the config that ran
    ran = cfg
    if args.mode == "ablate" and cfg.world is None:
        ran = degeneration_benchmark()
    try:
        metrics, files = RUN_MODES[args.mode](ran)
    except ConfigError as err:
        # a setting the mode's fixed protocol cannot use, refused before any work
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - a failed mode must not leave files
        print(f"error: run failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1

    files["run_record.json"] = render_json(
        {"mode": args.mode, "seed": ran.seed, "config": ran.payload,
         "metrics": metrics})

    try:
        paths = _write_run_dir(args.out, files)
    except OSError as err:
        print(f"error: cannot write run directory: {err}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def _write_run_dir(directory: str, files: dict) -> list[str]:
    """Write every artifact to a .tmp file beside its target, then rename them
    all into place, run_record.json last. A failed write removes the temp
    files, so it never leaves a truncated artifact behind, nor a run record
    beside missing artifacts."""
    os.makedirs(directory, exist_ok=True)
    names = sorted(files, key=lambda name: (name == "run_record.json", name))
    paths = [os.path.join(directory, name) for name in names]
    try:
        for name, path in zip(names, paths):
            with open(path + ".tmp", "w") as fh:
                fh.write(files[name])
        for path in paths:
            os.replace(path + ".tmp", path)
    except OSError:
        for path in paths:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")
        raise
    return paths


def _record_paths(root: str) -> list[str]:
    paths = []
    direct = os.path.join(root, "run_record.json")
    if os.path.isfile(direct):
        paths.append(direct)
    if os.path.isdir(root):
        for entry in sorted(os.listdir(root)):
            nested = os.path.join(root, entry, "run_record.json")
            if os.path.isfile(nested):
                paths.append(nested)
    return paths


def _summary_row(path: str, root: str) -> dict:
    """The summary.csv row of one run record: its path, mode, seed and flat
    scalar metrics. Raises ValueError when the file is not a record object."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    metrics = obj.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ValueError("record metrics is not a JSON object")
    row = {"path": os.path.relpath(path, root), "mode": obj["mode"],
           "seed": obj["seed"]}
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, (int, float, str, bool)) or value is None:
            row[key] = value
    return row


def cmd_report(args) -> int:
    root = args.out
    paths = _record_paths(root)
    rows = []
    unreadable = 0
    for path in paths:
        try:
            rows.append(_summary_row(path, root))
        except (ValueError, KeyError, OSError) as err:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            print(f"warning: skipping {path}: {type(err).__name__}: {err}",
                  file=sys.stderr)
            unreadable += 1

    columns = ["path", "mode", "seed"]
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    try:
        [summary_path] = _write_run_dir(
            root, {"summary.csv": render_csv(rows, columns=columns)})
    except OSError as err:
        print(f"error: cannot write summary: {err}", file=sys.stderr)
        return 1

    if not paths:
        print(f"warning: no run records found under {root}", file=sys.stderr)
    print(f"{len(rows)} run record(s) under {root}"
          + (f" ({unreadable} unreadable)" if unreadable else ""))
    for row in rows:
        print(f"  {row['path']}: mode={row['mode']} seed={row['seed']}")
    print(summary_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fusionsampler",
        description="two-stage guided sampling on tractable mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the numerical self-checks")
    p_verify.add_argument("--filter", default=None, metavar="NAME",
                          help="only run checks whose name contains NAME")

    p_run = sub.add_parser("run", help="execute one mode from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--mode", required=True, choices=sorted(RUN_MODES))
    p_run.add_argument("--out", default="runs", help="output directory")

    p_report = sub.add_parser("report", help="aggregate run records")
    p_report.add_argument("--out", default="runs", help="directory to scan")

    args = parser.parse_args(argv)
    return {"verify": cmd_verify, "run": cmd_run, "report": cmd_report}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
