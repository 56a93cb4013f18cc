"""Command behavior end to end, driven through main(argv) in process."""

import csv
import importlib.util
import json
import os
import re

import numpy as np
import pytest

import fusionsampler.cli as cli
import fusionsampler.evaluate as evaluate
import fusionsampler.verify as verify
from fusionsampler.artifacts import load_json
from fusionsampler.cli import RUN_MODES, main
from fusionsampler.encoder import ToyPromptNet
from fusionsampler.evaluate import (
    ABLATION_COLUMNS,
    SWEEP_COLUMNS,
    ablation_suite,
    degeneration_benchmark,
    regularization_sweep,
)
from fusionsampler.nets import TrainingDiverged
from fusionsampler.posterior import fused_update_coefficients
from fusionsampler.runconfig import validate_config

_SAMPLER = {
    "seed": 0,
    "world": {"preset": "product"},
    "schedule": {"T": 20},
    "fusion": {"m": 2, "gamma": 0.3},
    "sampling": {"n_samples": 12},
}
_CONDITION = {"identity": [3.0, 0.0], "text": [0.0, 3.0]}
_TRAINING = {"training": {"steps": 8, "batch": 16}, "denoiser": {"steps": 40}}
# the smoke config of each mode (T=20, 12 samples, 40 denoiser and 8 encoder
# steps), holding only keys that mode reads
FAST = {
    "sample": {**_SAMPLER, "condition": _CONDITION},
    "train-encoder": {"seed": 0, "world": {"preset": "product"},
                      "schedule": {"T": 20}, **_TRAINING},
    "sweep-lambda": {**_SAMPLER, **_TRAINING,
                     "sweep": {"lambdas": [0.0, 1.0], "seeds": [0]}},
    "ablate": {**_SAMPLER, "condition": _CONDITION, "sweep": {"seeds": [0]}},
}


def _config(tmp_path, overrides=None, name="cfg.json", mode="sample"):
    payload = {**FAST[mode], **(overrides or {})}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_prints_csv_and_exits_zero(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "check,passed,detail"
    assert len(lines) == 1 + len(verify.CHECK_NAMES)
    for line in lines[1:]:
        assert line.split(",")[1] == "true"


def test_verify_filter_runs_subset(capsys):
    assert main(["verify", "--filter", "posterior"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("posterior_two_path,true,")


def test_verify_unmatched_filter_warns(capsys):
    assert main(["verify", "--filter", "no-such"]) == 0
    captured = capsys.readouterr()
    assert "no check matches" in captured.err


def test_verify_injected_bug_fails_and_names_the_check(monkeypatch, capsys):
    def drifted(ab_t, ab_prev, sigma_t):
        eps_coeff, noise_coeff = fused_update_coefficients(ab_t, ab_prev, sigma_t)
        return eps_coeff * 1.001, noise_coeff

    monkeypatch.setattr(verify, "fused_update_coefficients", drifted)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "posterior_two_path,false" in captured.out
    assert "posterior_two_path" in captured.err
    assert "boundary_sigma_collapse" in captured.err


def test_golden_cases_are_valid_runs_of_every_mode():
    # scripts/golden_bytes.py runs its cases one after another; a stale mode
    # or config would stop it partway, after every case before it had run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "golden_bytes.py")
    spec = importlib.util.spec_from_file_location("golden_bytes", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    for name, mode, config in golden.CASES:
        assert mode in RUN_MODES, name
        validate_config(config, mode)
    assert {mode for _, mode, _ in golden.CASES} == set(RUN_MODES)


def test_run_sample_writes_record_samples_metrics(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", _config(tmp_path), "--mode", "sample",
               "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["metrics.csv", "run_record.json",
                                       "samples.csv"]
    record = load_json(out / "run_record.json")
    assert record["mode"] == "sample" and record["seed"] == 0
    assert record["config"]["schedule"]["T"] == 20
    # samples.csv is the one copy of the samples; the config echo is the one
    # copy of the settings
    assert sorted(record) == ["config", "metrics", "mode", "seed"]
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 13
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("n_samples,mean_x0,")


def test_run_rerun_is_byte_identical(tmp_path):
    # every mode at its FAST smoke config
    for mode in ("sample", "train-encoder", "sweep-lambda", "ablate"):
        cfg = _config(tmp_path, name=f"{mode}.json", mode=mode)
        outs = [tmp_path / mode / sub for sub in ("a", "b")]
        for out in outs:
            assert main(["run", "--config", cfg, "--mode", mode,
                         "--out", str(out)]) == 0, mode
        names = sorted(os.listdir(outs[0]))
        assert "run_record.json" in names and sorted(os.listdir(outs[1])) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                (mode, name)


def test_run_train_encoder_artifacts_reload(tmp_path):
    out = tmp_path / "enc"
    rc = main(["run", "--config", _config(tmp_path, mode="train-encoder"),
               "--mode", "train-encoder", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["denoiser.json", "encoder.json",
                                       "metrics.csv", "run_record.json"]
    net = ToyPromptNet.from_jsonable(load_json(out / "encoder.json"))
    assert net.T == 20
    metrics = load_json(out / "run_record.json")["metrics"]
    assert metrics["recon_error"] > 0.0
    assert metrics["embed_norm"] >= 0.0


def test_run_sweep_outputs_table_and_svg(tmp_path):
    out = tmp_path / "sw"
    rc = main(["run", "--config", _config(tmp_path, mode="sweep-lambda"),
               "--mode", "sweep-lambda", "--out", str(out)])
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3  # 2 lambdas x 1 seed
    record = load_json(out / "run_record.json")
    assert "rows" not in record
    assert "spearman_recon" in record["metrics"]
    assert (out / "sweep.svg").read_text().startswith("<svg")


def test_run_ablate_rows_per_variant_and_seed(tmp_path):
    out = tmp_path / "ab"
    rc = main(["run", "--config", _config(tmp_path, mode="ablate"),
               "--mode", "ablate", "--out", str(out)])
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(ABLATION_COLUMNS)
    assert len(lines) == 6  # 5 variants x 1 seed
    record = load_json(out / "run_record.json")
    assert record["metrics"]["best_variant"] in {
        "vanilla_cfg", "independent", "fusion_no_refinement",
        "fusion_no_fusion_stage", "fusion"}
    assert (out / "variants.svg").read_text().startswith("<svg")


def test_run_ablate_best_variant_is_the_best_mean_min_score(tmp_path):
    # the record's best variant is the variant whose min(mean identity, mean
    # style) over its metrics.csv rows is largest, and variants.svg labels
    # the variants in file order. On the conflict world the variants' means
    # differ, and the best by min is not the best by identity.
    conflict = {"world": {"preset": "conflict"},
                "condition": {"identity": [[16.0, 10.0], [0.0, 0.0]],
                              "text": [0.0, 4.0]},
                "fusion": {"m": 2, "gamma": 0.06},
                "weights": {"omega": 4.0, "omega1": 0.6, "omega2": 5.0},
                "sampling": {"n_samples": 24}, "sweep": {"seeds": [0, 1]}}
    out = tmp_path / "ab"
    assert main(["run", "--config", _config(tmp_path, conflict, mode="ablate"),
                 "--mode", "ablate", "--out", str(out)]) == 0
    rows = _read_table(out / "metrics.csv")
    names = list(dict.fromkeys(row["variant"] for row in rows))
    scores = []
    for name in names:
        mine = [row for row in rows if row["variant"] == name]
        scores.append(min(float(np.mean([row["identity_score"] for row in mine])),
                          float(np.mean([row["style_score"] for row in mine]))))
    best = max(range(len(names)), key=scores.__getitem__)
    metrics = load_json(out / "run_record.json")["metrics"]
    assert (metrics["best_variant"], metrics["best_min_score"]) == (names[best],
                                                                    scores[best])
    # each point is a circle followed by its label
    svg = (out / "variants.svg").read_text()
    assert re.findall(r'r="5" fill="[^"]*"/>\n<text [^>]*>([^<]*)</text>', svg) == names


@pytest.mark.parametrize("mode", sorted(FAST))
def test_run_record_holds_only_mode_seed_config_and_metrics(tmp_path, mode):
    # a mode's table is written once, to metrics.csv
    out = tmp_path / mode
    assert main(["run", "--config", _config(tmp_path, mode=mode), "--mode", mode,
                 "--out", str(out)]) == 0
    assert sorted(load_json(out / "run_record.json")) == [
        "config", "metrics", "mode", "seed"]


def _read_table(path) -> list[dict]:
    """metrics.csv rows with each cell parsed back: empty is None, then an
    int, a float (written with repr, so its bits come back) or the text."""
    def cell(text):
        if text == "":
            return None
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                pass
        return text

    with open(path, newline="") as fh:
        return [{key: cell(text) for key, text in row.items()}
                for row in csv.DictReader(fh)]


def test_ablate_table_reads_back_as_the_suite_rows(tmp_path):
    out = tmp_path / "ab"
    assert main(["run", "--config", _config(tmp_path, mode="ablate"),
                 "--mode", "ablate", "--out", str(out)]) == 0
    rows = ablation_suite(validate_config(FAST["ablate"], "ablate"))
    # repr tells 1 from 1.0 and compares every float's shortest round trip
    assert repr(_read_table(out / "metrics.csv")) == repr(rows)


def test_sweep_table_reads_back_as_the_sweep_rows(tmp_path, monkeypatch):
    # lam=1 fails in encoder training and lam=10 in sampling, with a comma
    # in its status; both failed rows keep their status and their blanks
    real_train, real_sample = evaluate.train_promptnet, evaluate.sample_trajectory
    cell = {}

    def train(world, den, tc):
        cell["lam"] = tc.lam
        if tc.lam == 1.0:
            raise TrainingDiverged(3, float("nan"))
        return real_train(world, den, tc)

    def sample(*args, **kwargs):
        if cell["lam"] == 10.0:
            raise RuntimeError("non-finite state, at t=3")
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(evaluate, "train_promptnet", train)
    monkeypatch.setattr(evaluate, "sample_trajectory", sample)
    payload = {**FAST["sweep-lambda"],
               "sweep": {"lambdas": [0.0, 1.0, 10.0], "seeds": [0]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "sw"
    assert main(["run", "--config", str(path), "--mode", "sweep-lambda",
                 "--out", str(out)]) == 0
    rows = regularization_sweep(validate_config(payload, "sweep-lambda"))
    assert [row["status"] for row in rows] == [
        "ok", "failed at step 3", "sampling failed: non-finite state, at t=3"]
    assert repr(_read_table(out / "metrics.csv")) == repr(rows)


# a real sweep whose guidance is strong enough to wreck the learned path:
# T=10, 8 samples, 50 denoiser and 5 encoder steps, seed 0
_BLOWUP = {"schedule": {"T": 10}, "sampling": {"n_samples": 8},
           "denoiser": {"steps": 50}, "training": {"steps": 5}}


def _run_blowup_sweep(tmp_path, overrides) -> tuple[list[dict], dict]:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**_BLOWUP, **overrides}))
    out = tmp_path / "sw"
    assert main(["run", "--config", str(path), "--mode", "sweep-lambda",
                 "--out", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    return _read_table(out / "metrics.csv"), record["metrics"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_fails_a_cell_whose_samples_cannot_be_scored(tmp_path):
    # at omega = 1e300 the state stays finite, but so far out that every
    # cell's squared distance overflows: the oracle has no responsibilities
    # there, and the cell is a failed row, not an ok row with nan scores
    rows, metrics = _run_blowup_sweep(tmp_path, {
        "sweep": {"lambdas": [0.0, 1.0], "seeds": [0]},
        "weights": {"omega": 1e300, "omega1": 1e300, "omega2": 1e300}})
    assert [row["status"] for row in rows] == [
        "scoring failed: a sample lies too far from every cell to weigh"] * 2
    for row in rows:
        assert row["identity_score"] is None and row["style_score"] is None
        assert row["recon_error"] is not None and row["embed_norm"] is not None
    assert metrics["n_failed"] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_fails_a_cell_whose_embedding_is_not_finite(tmp_path):
    # omega = 1e307 overflows the fusion stage's state, and the encoder embeds
    # it as non-finite channels mid-step; the step ends, its state check
    # reports t, and the sweep records the cell rather than aborting
    rows, metrics = _run_blowup_sweep(tmp_path, {
        "sweep": {"lambdas": [0.0], "seeds": [0]},
        "fusion": {"m": 3, "gamma": 0.5},
        "weights": {"omega": 1e307, "omega1": 1.0, "omega2": 1.0}})
    assert len(rows) == 1
    assert re.fullmatch(
        r"sampling failed: sampling produced non-finite state at t=\d+",
        rows[0]["status"])
    assert rows[0]["identity_score"] is None and rows[0]["style_score"] is None
    assert metrics["n_failed"] == 1


def test_run_ablate_needs_world_and_condition_together(tmp_path, capsys):
    out = tmp_path / "halfway"
    cfg = _config(tmp_path, {"condition": None}, mode="ablate")
    assert main(["run", "--config", cfg, "--mode", "ablate",
                 "--out", str(out)]) == 2
    assert "both world and condition" in capsys.readouterr().err
    assert not out.exists()


def test_run_builtin_ablate_refuses_settings_it_does_not_use(tmp_path, capsys):
    # neither world nor condition runs the built-in benchmark, which fixes
    # its own sampler, schedule, sample count and seeds, and reads no key
    out = tmp_path / "builtin"
    path = tmp_path / "builtin.json"
    path.write_text(json.dumps({"seed": 3, "sweep": {"seeds": [7]},
                                "sampling": {"n_samples": 8},
                                "fusion": {"m": 0}}))
    assert main(["run", "--config", str(path), "--mode", "ablate",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "built-in benchmark" in err
    assert "fusion, sampling, seed, sweep" in err
    assert not out.exists()


@pytest.mark.parametrize("mode, world, condition", [
    ("sweep-lambda", {"preset": "single"}, None),
    ("ablate", {"preset": "single"}, {"identity": [1.0], "text": [1.0]}),
    ("ablate", {"preset": "product", "n_styles": 1},
     {"identity": [1.0, 0.0], "text": [1.0]}),
])
def test_run_refuses_a_world_the_protocol_cannot_score(tmp_path, monkeypatch, capsys,
                                                       mode, world, condition):
    # the protocols score style 1, which a one-style world lacks; the refusal
    # comes before any training or sampling
    def never(*args, **kwargs):
        raise AssertionError("work started before the world was checked")

    monkeypatch.setattr(evaluate, "train_denoiser", never)
    monkeypatch.setattr(evaluate, "sample_trajectory", never)
    overrides = {"world": world}
    if condition is not None:
        overrides["condition"] = condition
    out = tmp_path / "refused"
    assert main(["run", "--config", _config(tmp_path, overrides, mode=mode),
                 "--mode", mode, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: world:" in err and "style 1" in err
    assert not out.exists()


def _replay(tmp_path, config: str, mode: str) -> dict:
    """Run mode from config, then rerun it from the config echo in its
    run_record.json; every artifact of the replay must match the original
    byte for byte. Returns the echo."""
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["run", "--config", config, "--mode", mode,
                 "--out", str(first)]) == 0
    config_echo = load_json(first / "run_record.json")["config"]
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(config_echo))
    assert main(["run", "--config", str(echo), "--mode", mode,
                 "--out", str(replay)]) == 0
    names = sorted(os.listdir(first))
    assert sorted(os.listdir(replay)) == names
    for name in names:
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name
    return config_echo


# the sections each mode's record echoes, and the keys of the sections it
# reads only in part
_ECHOED = {
    "sample": ["seed", "world", "schedule", "sigma", "fusion", "weights",
               "condition", "sampling"],
    "train-encoder": ["seed", "world", "schedule", "training", "denoiser"],
    "sweep-lambda": ["seed", "world", "schedule", "sigma", "fusion", "weights",
                     "training", "sampling", "sweep", "denoiser"],
    "ablate": ["seed", "world", "schedule", "sigma", "fusion", "weights",
               "condition", "sampling", "sweep"],
}


@pytest.mark.parametrize("mode", sorted(FAST))
def test_run_replays_from_its_record(tmp_path, mode):
    # the config echo in run_record.json is enough to rerun the run, and it
    # holds only the keys the mode reads
    echo = _replay(tmp_path, _config(tmp_path, mode=mode), mode)
    assert sorted(echo) == sorted(_ECHOED[mode])
    if mode == "sweep-lambda":
        assert sorted(echo["training"]) == ["augment", "batch", "lr", "steps"]
    if mode == "ablate":
        assert list(echo["sweep"]) == ["seeds"]


@pytest.mark.parametrize("mode, overrides, key", [
    ("sample", {"training": {"steps": 8}}, "training"),
    ("train-encoder", {"sampling": {"n_samples": 12}}, "sampling"),
    ("sweep-lambda", {"training": {"lam": 5.0}}, "training.lam"),
    ("sweep-lambda", {"condition": _CONDITION}, "condition"),
    ("ablate", {"denoiser": {"steps": 40}}, "denoiser"),
    ("ablate", {"sweep": {"lambdas": [0.0], "seeds": [0]}}, "sweep.lambdas"),
    ("ablate", {"training": {"steps": 8}}, "training"),
    ("train-encoder", {"sigma": {"kind": "boundary"}}, "sigma"),
    # the sampler keys that fusion.mode does not read
    ("sample", {"fusion": {"mode": "vanilla_cfg", "m": 3, "gamma": 0.9,
                           "use_refinement": True},
                "weights": {"omega": 7.0, "omega1": 7.0, "omega2": 0.1}},
     "fusion.gamma, fusion.m, fusion.use_refinement, weights.omega1,"
     " weights.omega2"),
    ("sample", {"fusion": {"m": 0, "gamma": 0.9},
                "weights": {"omega": 7.0, "omega1": 7.0}},
     "fusion.gamma, weights.omega"),
    ("sample", {"fusion": {"m": 0, "gamma": 0.3}}, "fusion.gamma"),
    ("sample", {"fusion": {"use_refinement": False},
                "weights": {"omega2": 0.1}}, "weights.omega2"),
    ("sweep-lambda", {"fusion": {"mode": "vanilla_cfg", "m": 2}}, "fusion.m"),
    ("sweep-lambda", {"fusion": {"m": 0}, "weights": {"omega": 3.0}},
     "weights.omega"),
])
def test_each_mode_refuses_a_key_it_does_not_read(tmp_path, capsys, mode,
                                                  overrides, key):
    out = tmp_path / "refused"
    assert main(["run", "--config", _config(tmp_path, overrides, mode=mode),
                 "--mode", mode, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"not read by {mode}: {key}" in err
    assert not out.exists()


def test_run_has_no_seed_flag(tmp_path, capsys):
    # the seed is a config key only
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", _config(tmp_path), "--mode", "sample",
              "--out", str(tmp_path / "s9"), "--seed", "9"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    assert not (tmp_path / "s9").exists()


def test_builtin_benchmark_records_and_replays_the_config_it_ran(tmp_path):
    # {} runs the built-in benchmark, so its record echoes the benchmark's
    # config (seeds 0-4, m=3), not the defaults of {}
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    echo = _replay(tmp_path, str(empty), "ablate")
    assert echo == degeneration_benchmark().payload


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--mode", "sample"]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--mode", "sample"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name, error", [
    ("not-utf8", "error: config is not valid JSON: "),
    ("directory", "error: cannot read config: "),
    ("huge-integer", "error: config is not valid JSON: "),
], ids=["not-utf8", "directory", "huge-integer"])
def test_run_config_that_cannot_be_read_as_json_exits_2(tmp_path, capsys, name,
                                                        error):
    path = tmp_path / "cfg.json"
    if name == "not-utf8":
        path.write_bytes(b'\xff\xfe{"seed": 0}')
    elif name == "directory":
        path.mkdir()
    else:  # past Python's int-string limit
        path.write_text('{"seed": ' + "9" * 5000 + "}")
    out = tmp_path / "untouched"
    assert main(["run", "--config", str(path), "--mode", "sample",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(error)
    assert not out.exists()


def test_run_schema_violation_exits_2_with_path(tmp_path, capsys):
    cfg = _config(tmp_path, {"fusion": {"gamma": 2.0}})
    assert main(["run", "--config", cfg, "--mode", "sample"]) == 2
    assert "fusion.gamma" in capsys.readouterr().err


def test_run_refuses_infeasible_custom_sigma_before_any_output(tmp_path, capsys):
    out = tmp_path / "untouched"
    cfg = _config(tmp_path, {"schedule": {"T": 3},
                             "sigma": {"kind": "custom", "values": [0.5, 0.1, 0.2]}})
    assert main(["run", "--config", cfg, "--mode", "sample",
                 "--out", str(out)]) == 2
    assert "sigma.values[0]: infeasible sigma_t=0.5" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_huge_integer_for_a_float_key_before_any_output(tmp_path,
                                                                      capsys):
    out = tmp_path / "untouched"
    cfg = _config(tmp_path, {"fusion": {"gamma": 10**400}})
    assert main(["run", "--config", cfg, "--mode", "sample",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fusion.gamma: must be finite" in err and "0" * 40 not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["sample", "sweep-lambda", "ablate"])
def test_run_refuses_a_sigma_the_fusion_stage_cannot_run(tmp_path, monkeypatch,
                                                         capsys, mode):
    # sigma is 0 at every step under eta 0: the fusion stage's re-noising
    # draw needs sigma_t > 0, so the run is refused before any mode work
    monkeypatch.setitem(RUN_MODES, mode, lambda cfg: pytest.fail("mode ran"))
    out = tmp_path / "untouched"
    cfg = _config(tmp_path, {"sigma": {"kind": "ddim_eta", "eta": 0.0}}, mode=mode)
    assert main(["run", "--config", cfg, "--mode", mode, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sigma: 0 at t=2")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["sample", "sweep-lambda", "ablate"])
def test_run_refuses_independent_as_a_mode_name(tmp_path, monkeypatch, capsys,
                                                mode):
    # independent guidance is fusion with m=0; "independent" names no sampler
    monkeypatch.setitem(RUN_MODES, mode, lambda cfg: pytest.fail("mode ran"))
    out = tmp_path / "untouched"
    cfg = _config(tmp_path, {"fusion": {"mode": "independent"}}, mode=mode)
    assert main(["run", "--config", cfg, "--mode", mode, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: fusion: mode must be one of")
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"seed": 1, "seed": 2}', "'seed'"),
    ('{"fusion": {"m": 1, "gamma": 0.3, "m": 2}}', "'m'"),
], ids=["top-level", "nested"])
def test_run_refuses_a_config_that_repeats_a_key(tmp_path, monkeypatch, capsys,
                                                 text, key):
    # the last value would win silently, so a repeated key is refused
    monkeypatch.setitem(RUN_MODES, "sample", lambda cfg: pytest.fail("mode ran"))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "untouched"
    assert main(["run", "--config", str(path), "--mode", "sample",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: config is not valid JSON: duplicate key {key}"]
    assert not out.exists()


def test_run_refuses_an_out_under_a_regular_file_before_the_mode(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(RUN_MODES, "sample", lambda cfg: pytest.fail("mode ran"))
    target = tmp_path / "taken"
    target.write_text("keep me")
    for out in (target, target / "sub", target / "sub" / "deeper"):
        assert main(["run", "--config", _config(tmp_path), "--mode", "sample",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot write run directory {out}: {target} is not a directory"]
        assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "taken"]
    assert target.read_text() == "keep me"


def test_run_failure_leaves_no_partial_outputs(tmp_path, monkeypatch, capsys):
    def diverged(*args, **kwargs):
        raise RuntimeError("sampling produced non-finite state at t=8")

    monkeypatch.setattr(cli, "sample_trajectory", diverged)
    out = tmp_path / "untouched"
    assert main(["run", "--config", _config(tmp_path), "--mode", "sample",
                 "--out", str(out)]) == 1
    assert "run failed: RuntimeError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["sample", "ablate"])
@pytest.mark.parametrize("condition, message", [
    ({"identity": [3.0, 0.0, 1.0]},
     "error: condition: identity log-weights must have shape (2,) or (2, 2),"
     " got (3,)"),
    ({"text": ["-inf", "-inf"]},
     "error: condition: prior and condition select an empty subset of mixture"
     " cells"),
], ids=["misfit", "empty"])
def test_run_refuses_a_condition_the_world_cannot_take(tmp_path, monkeypatch,
                                                       capsys, mode, condition,
                                                       message):
    # a condition that does not fit the 2x2 product world, or that excludes
    # every cell, is refused before any trajectory starts
    def never(*args, **kwargs):
        raise AssertionError("sampling started before the condition was checked")

    monkeypatch.setattr(cli, "sample_trajectory", never)
    monkeypatch.setattr(evaluate, "sample_trajectory", never)
    out = tmp_path / "untouched"
    cfg = _config(tmp_path, {"condition": condition}, mode=mode)
    assert main(["run", "--config", cfg, "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_run_into_a_regular_file_exits_1(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep me")
    assert main(["run", "--config", _config(tmp_path), "--mode", "sample",
                 "--out", str(target)]) == 1
    assert "error: cannot write run directory" in capsys.readouterr().err
    assert target.read_text() == "keep me"
    assert list(tmp_path.glob("**/*.tmp")) == []


def test_run_write_failing_partway_leaves_no_truncated_artifact(
        tmp_path, monkeypatch, capsys):
    cfg = _config(tmp_path)
    ref = tmp_path / "ref"
    assert main(["run", "--config", cfg, "--mode", "sample", "--out", str(ref)]) == 0
    real_open = open

    class HalfWritten:
        # writes the first half of the text, then fails like a full disk
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and str(path).endswith("samples.csv.tmp"):
            return HalfWritten(fh)
        return fh

    real_replace = os.replace

    def replace_failing_at(position):
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == position:
                raise OSError(5, "Input/output error")
            real_replace(src, dst)
        return failing_replace

    # open fails on the second file; a rename fails at each of the 3
    # positions, the last being run_record.json's
    cases = [("builtins.open", failing_open)] + [
        ("os.replace", replace_failing_at(position)) for position in (1, 2, 3)]
    for i, (target, patch) in enumerate(cases):
        out = tmp_path / f"out{i}"
        with monkeypatch.context() as m:
            m.setattr(target, patch)
            assert main(["run", "--config", cfg, "--mode", "sample",
                         "--out", str(out)]) == 1, target
        assert "error: cannot write run directory" in capsys.readouterr().err
        assert list(out.glob("*.tmp")) == [], target
        # no record marks the directory as holding a run
        assert not (out / "run_record.json").exists(), (target, i)
        for path in out.iterdir():
            assert path.read_bytes() == (ref / path.name).read_bytes(), target
        # so the same --out takes a retry
        assert main(["run", "--config", cfg, "--mode", "sample",
                     "--out", str(out)]) == 0, (target, i)
        assert sorted(os.listdir(out)) == sorted(os.listdir(ref))


def test_run_refuses_an_out_that_holds_a_run(tmp_path, capsys):
    # a second run into one directory would leave the first run's files that
    # it does not write (sweep.svg under an ablate) beside its own
    out = tmp_path / "r"
    assert main(["run", "--config", _config(tmp_path), "--mode", "sample",
                 "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["run", "--config", _config(tmp_path, mode="ablate", name="ab.json"),
                 "--mode", "ablate", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out} already holds a run")
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_environment_does_not_move_the_run_directory(tmp_path, monkeypatch,
                                                     capsys):
    # without --out, run writes to ./runs and report scans it, whatever
    # PROFUSION_OUT (once a third way to name the directory) says
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PROFUSION_OUT", str(tmp_path / "from_env"))
    assert main(["run", "--config", _config(tmp_path), "--mode", "sample"]) == 0
    assert (tmp_path / "runs" / "run_record.json").exists()
    assert main(["report"]) == 0
    assert "1 run record(s) under runs" in capsys.readouterr().out
    assert (tmp_path / "runs" / "summary.csv").exists()
    assert not (tmp_path / "from_env").exists()


def test_report_aggregates_runs_into_summary(tmp_path, capsys):
    cfg = _config(tmp_path)
    main(["run", "--config", cfg, "--mode", "sample",
          "--out", str(tmp_path / "runs" / "r1")])
    main(["run", "--config", _config(tmp_path, {"seed": 5}, name="cfg5.json"),
          "--mode", "sample", "--out", str(tmp_path / "runs" / "r2")])
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "2 run record(s)" in out
    lines = (tmp_path / "runs" / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("path,mode,seed")
    assert len(lines) == 3
    assert "summary.csv" not in lines[1] + lines[2]


def test_report_empty_dir_warns_and_exits_zero(tmp_path, capsys):
    root = tmp_path / "nothing"
    assert main(["report", "--out", str(root)]) == 0
    captured = capsys.readouterr()
    assert "no run records" in captured.err
    assert (root / "summary.csv").read_text() == "path,mode,seed\n"


def test_report_names_corrupt_record_and_keeps_going(tmp_path, capsys):
    cfg = _config(tmp_path)
    main(["run", "--config", cfg, "--mode", "sample",
          "--out", str(tmp_path / "runs" / "good")])
    bad = tmp_path / "runs" / "bad"
    bad.mkdir(parents=True)
    (bad / "run_record.json").write_text("{definitely broken")
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "runs")]) == 0
    captured = capsys.readouterr()
    assert "bad" in captured.err and "skipping" in captured.err
    assert "1 run record(s)" in captured.out
    lines = (tmp_path / "runs" / "summary.csv").read_text().splitlines()
    assert len(lines) == 2 and "good" in lines[1]


def test_report_skips_malformed_records(tmp_path, capsys):
    cfg = _config(tmp_path)
    main(["run", "--config", cfg, "--mode", "sample",
          "--out", str(tmp_path / "runs" / "good")])
    bad = {
        "list": b"[1, 2]",
        "bytes": b"\xff\xfe{\x80\x81}",
        "metrics": b'{"mode": "sample", "seed": 1, "metrics": [1, 2]}',
    }
    for name, content in bad.items():
        (tmp_path / "runs" / name).mkdir()
        (tmp_path / "runs" / name / "run_record.json").write_bytes(content)
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "runs")]) == 0
    captured = capsys.readouterr()
    warnings = [line for line in captured.err.splitlines()
                if line.startswith("warning: skipping")]
    assert len(warnings) == 3
    for name in bad:
        assert any(os.path.join("runs", name, "run_record.json") in line
                   for line in warnings), name
    assert "1 run record(s)" in captured.out and "(3 unreadable)" in captured.out
    lines = (tmp_path / "runs" / "summary.csv").read_text().splitlines()
    assert len(lines) == 2 and "good" in lines[1]


def test_report_into_a_regular_file_exits_1(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep me")
    assert main(["report", "--out", str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write summary: ")
    assert target.read_text() == "keep me"
    assert list(tmp_path.glob("**/*.tmp")) == []


def test_report_write_failing_leaves_the_old_summary(tmp_path, monkeypatch,
                                                     capsys):
    runs = tmp_path / "runs"
    cfg = _config(tmp_path)
    main(["run", "--config", cfg, "--mode", "sample", "--out", str(runs / "r1")])
    assert main(["report", "--out", str(runs)]) == 0
    before = (runs / "summary.csv").read_bytes()
    main(["run", "--config", cfg, "--mode", "sample", "--out", str(runs / "r2")])
    capsys.readouterr()

    def failing_replace(src, dst):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr("os.replace", failing_replace)
    assert main(["report", "--out", str(runs)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot write summary: [Errno 5] Input/output error"]
    assert (runs / "summary.csv").read_bytes() == before
    assert list(tmp_path.glob("**/*.tmp")) == []
