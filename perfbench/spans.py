"""In-memory span tracing of calls into the safegrasp modules, from outside.

``instrument`` replaces each boundary function listed in ``BOUNDARIES`` with a
wrapper that records one span (name, start, end, parent) per call.  Each
function is replaced under the name its caller looks it up by: ``env.py``
imports ``inverse_kinematics`` and friends by name, ``tqc.py`` imports the
``nn`` functions by name and ``training.py`` imports ``rollout_episodes`` and
``summarize`` by name, so those bindings are the ones wrapped.  Spans stay in
memory until ``write_spans`` dumps them at the end of the run; ``layer_metrics``
turns them into per-layer calls, self times and counts.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

from safegrasp import runlog


class Tracer:
    """Collects spans and boundary counters for one traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1])
            if observe is not None:
                observe(counters, result, args)
            return result

        return traced


def _observe_step(counters, result, args):
    events = result.events
    counters["env.shield_rejects"] += bool(events.ik_failure or events.speed_violation)


def _observe_ik(counters, result, args):
    counters["kinematics.ik_iterations"] += result.iterations
    counters["kinematics.ik_converged"] += bool(result.converged)


def _observe_pairs(counters, result, args):
    preds, targets = args[0], args[1]
    counters["kernels.quantile_huber_loss_grad.pairs"] += preds.size * targets.shape[1]


def _observe_contacts(counters, result, args):
    counters["world.detect_collisions.contacts"] += len(result)


def _observe_write(counters, result, args):
    # one canonical line plus its newline, as EpisodeLogWriter writes it
    counters["runlog.write_step.bytes"] += len(runlog.dumps_canonical(args[1])) + 1


def _observe_read(counters, result, args):
    counters["runlog.read_log.records"] += len(result[1])


# (module, attribute path in that module, span name, observer)
BOUNDARIES = (
    ("safegrasp.env", "GraspEnv.step", "env.step", _observe_step),
    ("safegrasp.env", "GraspEnv.reset", "env.reset", None),
    ("safegrasp.env", "compute_reward", "env.compute_reward", None),
    ("safegrasp.env", "inverse_kinematics", "kinematics.inverse_kinematics", _observe_ik),
    ("safegrasp.env", "eef_position", "kinematics.eef_position", None),
    ("safegrasp.env", "check_speed", "kinematics.check_speed", None),
    ("safegrasp.kernels", "fk_frames", "kernels.fk_frames", None),
    ("safegrasp.kernels", "ik_dls", "kernels.ik_dls", None),
    ("safegrasp.kernels", "sphere_box_signed_distance", "kernels.sphere_box_signed_distance", None),
    ("safegrasp.kernels", "quantile_huber_loss_grad", "kernels.quantile_huber_loss_grad", _observe_pairs),
    ("safegrasp.env", "detect_collisions", "world.detect_collisions", _observe_contacts),
    ("safegrasp.env", "signed_clearances", "world.signed_clearances", None),
    ("safegrasp.runlog", "EpisodeLogWriter.write_step", "runlog.write_step", _observe_write),
    ("safegrasp.runlog", "read_log", "runlog.read_log", _observe_read),
    ("safegrasp.runlog", "records_to_episodes", "runlog.records_to_episodes", None),
    ("safegrasp.rollout", "records_to_episodes", "runlog.records_to_episodes", None),
    ("safegrasp.rollout", "rollout_episodes", "rollout.rollout_episodes", None),
    ("safegrasp.training", "rollout_episodes", "training.eval", None),
    ("safegrasp.metrics", "summarize", "metrics.summarize", None),
    ("safegrasp.training", "summarize", "metrics.summarize", None),
    ("safegrasp.fsa", "build_report", "fsa.build_report", None),
    ("safegrasp.tqc", "TqcAgent.train_step", "tqc.train_step", None),
    ("safegrasp.tqc", "ReplayBuffer.sample", "tqc.replay_sample", None),
    ("safegrasp.tqc", "ReplayBuffer.add", "tqc.replay_add", None),
    ("safegrasp.tqc", "TqcAgent.select_action", "tqc.select_action", None),
    ("safegrasp.tqc", "ActorSnapshot.select_action", "tqc.select_action", None),
    ("safegrasp.tqc", "TqcAgent.sample_with_logprob", "tqc.sample_with_logprob", None),
    ("safegrasp.tqc", "TqcAgent.critic_quantiles", "tqc.critic_quantiles", None),
    ("safegrasp.tqc", "TqcAgent.save", "tqc.save", None),
    ("safegrasp.tqc", "forward", "nn.forward", None),
    ("safegrasp.tqc", "forward_tape", "nn.forward_tape", None),
    ("safegrasp.tqc", "adam_update", "nn.adam_update", None),
    ("safegrasp.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("safegrasp.training", "Trainer.run", "training.run", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every boundary for the duration of the block, then restore it."""
    patched = []
    try:
        for module_name, path, name, observe in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]  # raises KeyError when the binding moved
            setattr(owner, attr, tracer.wrap(name, original, observe))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# span name -> whether its call count is a reported metric; self time is
# reported for every one
REPORTED_SPANS = {
    "env.step": True,
    "env.reset": True,
    "env.compute_reward": True,
    "kinematics.inverse_kinematics": True,
    "kinematics.eef_position": True,
    "kinematics.check_speed": True,
    "kernels.fk_frames": True,
    "kernels.ik_dls": True,
    "kernels.sphere_box_signed_distance": True,
    "kernels.quantile_huber_loss_grad": True,
    "world.detect_collisions": True,
    "world.signed_clearances": True,
    "runlog.write_step": True,
    "runlog.read_log": True,
    "runlog.records_to_episodes": False,
    "rollout.rollout_episodes": True,
    "metrics.summarize": False,
    "fsa.build_report": False,
    "tqc.train_step": True,
    "tqc.replay_sample": False,
    "tqc.replay_add": True,
    "tqc.select_action": True,
    "tqc.sample_with_logprob": False,
    "tqc.critic_quantiles": False,
    "tqc.save": False,
    "nn.forward": True,
    "nn.forward_tape": True,
    "nn.adam_update": True,
    "autodiff.backward": True,
    "training.run": False,
    "training.eval": False,
}

COUNTER_UNITS = {
    "kinematics.ik_iterations": "count",
    "kernels.quantile_huber_loss_grad.pairs": "count",
    "world.detect_collisions.contacts": "count",
    "runlog.write_step.bytes": "bytes",
    "runlog.read_log.records": "count",
}


def span_tables(spans):
    """Per span name: call count, self time (ns) and span durations (ns).

    A span's self time is its duration minus the time its child spans cover;
    calls are synchronous, so children never overlap and their durations add.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    durations = defaultdict(list)
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += (end - start) - child_ns[index]
        durations[name].append(end - start)
    return calls, self_ns, durations


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``."""
    calls, self_ns, durations = span_tables(tracer.spans)
    counters = tracer.counters
    out = {}
    for name, report_calls in REPORTED_SPANS.items():
        if report_calls:
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
    for name, unit in COUNTER_UNITS.items():
        out[name] = (counters[name], unit)
    out["env.shield_reject_frac"] = (
        _ratio(counters["env.shield_rejects"], calls["env.step"]),
        "ratio",
    )
    out["kinematics.ik_converged_frac"] = (
        _ratio(counters["kinematics.ik_converged"], calls["kinematics.inverse_kinematics"]),
        "ratio",
    )
    train_ms = np.asarray(durations["tqc.train_step"], dtype=np.float64) / 1e6
    for stat, q in (("p50_ms", 50), ("p99_ms", 99)):
        value = float(np.percentile(train_ms, q)) if train_ms.size else 0.0
        out[f"tqc.train_step.{stat}"] = (value, "ms")
    return out


def call_counts(tracer: Tracer) -> dict:
    """Everything in a pass that must repeat exactly for the same inputs."""
    calls, _, _ = span_tables(tracer.spans)
    return {**calls, **tracer.counters}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def write_spans(tracer: Tracer, path, provenance: dict) -> None:
    """One header line, then one ``[name, start_ns, end_ns, parent]`` per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", **provenance}, sort_keys=True) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
