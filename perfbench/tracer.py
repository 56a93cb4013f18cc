"""Outside-in span tracer for fusionsampler.

The tracer never edits the package. It replaces public functions and methods
at the name their caller looks them up by (a module global, or an attribute
on a class) with a wrapper that records one span per call:

    [parent span index, layer index, wrapper entry, call start, call end,
     wrapper exit, rows]

Spans stay in memory and are written out once, when the traced run ends.
Self time of a span is its call duration minus the wrapper intervals of its
direct children, so the tracer's own bookkeeping is charged to no layer.
That bookkeeping, the wrapper time outside each call plus the time to
serialize the spans, is trace.overhead_s. It is a lower bound: the Python
call into each wrapper happens before its first clock read.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np


def _rows_of(value) -> int:
    shape = getattr(value, "shape", None)
    if shape:
        return int(shape[0])
    if isinstance(value, (list, tuple)):
        return len(value)
    return 1


def _arg(i: int):
    """Rows = leading dimension of positional argument i."""
    return lambda args, kwargs: _rows_of(args[i])


def _one(args, kwargs) -> int:
    return 1


def _noise_rows(args, kwargs) -> int:
    shape = args[1]
    return int(shape) if isinstance(shape, int) else int(shape[0])


def _train_denoiser_rows(args, kwargs) -> int:
    # train_denoiser(world, schedule, steps, seed, *, batch=256, ...)
    return int(args[2]) * int(kwargs.get("batch", 256))


def _train_promptnet_rows(args, kwargs) -> int:
    tc = args[2]
    return int(tc.steps) * int(tc.batch)


def _trajectory_rows(args, kwargs) -> int:
    # sample_trajectory(cond, cfg, predictor, schedule, n_samples, seed)
    return int(args[4]) if len(args) > 4 else int(kwargs["n_samples"])


# (layer name, module attribute path of the owner, attribute, rows function).
# A layer listed under several owners is one layer looked up by several
# callers: cli and evaluate each hold their own sample_trajectory, and the
# sampler imports the predictor dispatch, posterior draws and guidance
# combiners into its own namespace.
TARGETS = [
    ("cli.run", "cli", "main", _one),
    ("runconfig.validate_config", "cli", "validate_config", _one),
    ("sampler.sample_trajectory", "cli", "sample_trajectory", _trajectory_rows),
    ("sampler.sample_trajectory", "evaluate", "sample_trajectory", _trajectory_rows),
    ("sampler.ddim_step", "sampler", "ddim_step", _arg(0)),
    ("sampler.streams_init", "sampler.SampleStreams", "__init__",
     lambda args, kwargs: int(args[2])),
    ("sampler.noise", "sampler.SampleStreams", "standard_normal", _noise_rows),
    ("predictors.predict_eps", "sampler", "predict_eps", _arg(1)),
    ("mixture.predict_eps", "mixture.MixtureOracle", "predict_eps", _arg(1)),
    ("encoder.predict_eps", "encoder.EncoderConditionedDenoiser", "predict_eps",
     _arg(1)),
    ("guidance.cfg_single", "sampler", "cfg_single", _arg(0)),
    ("guidance.cfg_independent", "sampler", "cfg_independent", _arg(0)),
    ("posterior.sample_prev", "sampler", "sample_prev", _arg(0)),
    ("posterior.renoise", "sampler", "renoise", _arg(0)),
    ("nets.forward", "nets.MLP", "forward", _arg(1)),
    ("nets.backward", "nets.MLP", "backward", _arg(2)),
    ("nets.adam_step", "nets.Adam", "step", _arg(1)),
    ("denoiser.sample_training_batch", "denoiser", "sample_training_batch",
     lambda args, kwargs: int(args[3])),
    ("denoiser.train_denoiser", "evaluate", "train_denoiser", _train_denoiser_rows),
    ("denoiser.train_denoiser", "cli", "train_denoiser", _train_denoiser_rows),
    ("encoder.train_promptnet", "evaluate", "train_promptnet", _train_promptnet_rows),
    ("encoder.train_promptnet", "cli", "train_promptnet", _train_promptnet_rows),
    ("evaluate.adherence_scores", "evaluate", "adherence_scores", _arg(0)),
    ("artifacts.render_json", "cli", "render_json", _one),
    ("artifacts.render_csv", "cli", "render_csv", _arg(0)),
    ("artifacts.render_scatter_svg", "cli", "render_scatter_svg", _arg(0)),
]

LAYERS = list(dict.fromkeys(name for name, *_ in TARGETS))
_ARTIFACT_LAYERS = {"artifacts.render_json", "artifacts.render_csv",
                    "artifacts.render_scatter_svg"}


class Tracer:
    """Holds the spans of one traced run and the counters taken beside them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.artifact_bytes = 0
        # consecutive oracle calls on the same (x, t) are the likelihood
        # work a multi-condition call can share
        self.oracle_distinct = 0
        self._last_input: tuple | None = None

    def _note_oracle_input(self, x, t) -> None:
        x = np.asarray(x)
        last = self._last_input
        if last is None or last[1] != t or not np.array_equal(last[0], x):
            self.oracle_distinct += 1
            self._last_input = (x.copy(), t)

    def wrap(self, layer: str, fn, rows):
        index = LAYERS.index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_artifact = layer in _ARTIFACT_LAYERS
        is_oracle = layer == "mixture.predict_eps"

        def traced(*args, **kwargs):
            entry = clock()
            sid = len(spans)
            span = [stack[-1], index, entry, 0.0, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[3], span[4], span[5] = start, end, end
            span[6] = rows(args, kwargs)
            if is_artifact:
                self.artifact_bytes += len(out.encode())
            if is_oracle:
                self._note_oracle_input(args[1], args[3])
            span[5] = clock()
            return out

        return traced

    def install(self) -> None:
        """Patch every target of TARGETS in the fusionsampler package."""
        for layer, owner_path, attr, rows in TARGETS:
            module_name, _, cls_name = owner_path.partition(".")
            owner = importlib.import_module(f"fusionsampler.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            setattr(owner, attr, self.wrap(layer, getattr(owner, attr), rows))

    def dump(self, path: str) -> None:
        """Write the trace as one JSON line, then its serialization time as
        a second line {"dump_s": seconds}."""
        begin = time.perf_counter()
        # json.dumps takes the C encoder; json.dump to a file would not
        text = json.dumps({"layers": LAYERS, "spans": self.spans,
                           "artifact_bytes": self.artifact_bytes,
                           "oracle_distinct": self.oracle_distinct})
        dump_s = time.perf_counter() - begin
        with open(path, "w") as fh:
            fh.write(text + "\n" + json.dumps({"dump_s": dump_s}) + "\n")


def load_trace(path) -> dict:
    """Read a trace written by Tracer.dump."""
    with open(path) as fh:
        trace = json.loads(fh.readline())
        trace.update(json.loads(fh.readline()))
    return trace


def overhead_s(trace: dict) -> float:
    """Seconds the tracer added: wrapper time outside each traced call,
    plus the time to serialize the spans."""
    outside = sum((start - entry) + (exit_ - end)
                  for _, _, entry, start, end, exit_, _ in trace["spans"])
    return outside + trace["dump_s"]


def layer_table(trace: dict) -> dict:
    """Per-layer calls, rows and self seconds from a dumped trace."""
    layers = trace["layers"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for parent, _, entry, _, _, exit_, _ in spans:
        if parent >= 0:
            child_time[parent] += exit_ - entry
    table = {name: {"calls": 0, "rows": 0, "self_s": 0.0} for name in layers}
    for i, (_, index, _, start, end, _, rows) in enumerate(spans):
        row = table[layers[index]]
        row["calls"] += 1
        row["rows"] += rows
        row["self_s"] += (end - start) - child_time[i]
    return table
