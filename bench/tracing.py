"""Per-layer spans recorded from outside the package.

A traced run replaces module-level functions of each ``capsintent`` layer
with wrappers that record a span (metric, start, end, parent, frames) and
restores the originals afterwards. Nothing inside ``src/`` is edited: the
wrappers work because the package calls its own layers through module
attributes (``capsnet.forward`` calls ``predict_capsules`` as a module global,
``model`` calls ``capsnet.margin_loss``, ``fit`` calls ``Adam.step``).

A layer's metric is the summed self time of its spans: each span's duration
minus the durations of its direct children. A hook whose module or function
no longer exists makes its metric absent instead of failing the run, so the
benchmark survives refactors that rename or merge layers.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable, NamedTuple, Optional


def _frames_in(args, kwargs) -> int:
    """Frames of ``encoder_forward(params, feats, ...)``."""
    return args[1].shape[0]


def _frames_back(args, kwargs) -> int:
    """Frames of ``encoder_backward(params, cache, d_readout)``."""
    return args[1]["T"]


class Hook(NamedTuple):
    module: str
    attr: str                  # "name" or "Class.method"
    metric: str                # receives the self time of every span
    calls: Optional[str] = None                    # receives the call count
    frames: Optional[Callable] = None              # frames of one call


HOOKS = (
    Hook("capsintent.datasets", "synth_generate", "datasets.synth_generate_s"),
    Hook("capsintent.datasets", "split_blocks", "datasets.split_blocks_s"),
    Hook("capsintent.checkpoint", "save_checkpoint", "checkpoint.save_s"),
    Hook("capsintent.checkpoint", "load_checkpoint", "checkpoint.load_s"),
    Hook("capsintent.encoder", "encoder_forward", "encoder.fwd_s", frames=_frames_in),
    Hook("capsintent.encoder", "encoder_backward", "encoder.bwd_s", frames=_frames_back),
    # encode's own time is the readout projection and the primary squash
    Hook("capsintent.capsnet", "encode", "capsnet.proj_s"),
    Hook("capsintent.capsnet", "predict_capsules", "capsnet.votes_fwd_s"),
    Hook("capsintent.capsnet", "dynamic_routing", "capsnet.routing_fwd_s"),
    Hook("capsintent.capsnet", "decode_labels", "capsnet.decode_s"),
    Hook("capsintent.capsnet", "predict_capsules_backward", "capsnet.votes_bwd_s"),
    Hook("capsintent.capsnet", "routing_backward", "capsnet.routing_bwd_s"),
    Hook("capsintent.capsnet", "backward", "capsnet.core_bwd_self_s"),
    Hook("capsintent.capsnet", "margin_loss", "capsnet.margin_s"),
    Hook("capsintent.capsnet", "margin_loss_grad", "capsnet.margin_s"),
    # the speaker path: head_forward in training, the two parts it is made
    # of when model.evaluate decodes a speaker
    Hook("capsintent.multitask", "head_forward", "multitask.head_fwd_s"),
    Hook("capsintent.multitask", "average_capsule", "multitask.head_fwd_s"),
    Hook("capsintent.multitask", "speaker_distribution", "multitask.head_fwd_s"),
    Hook("capsintent.multitask", "head_backward", "multitask.head_bwd_s"),
    Hook("capsintent.model", "loss_and_grads", "model.loss_and_grads_self_s",
         calls="model.loss_and_grads_calls"),
    Hook("capsintent.model", "predict", "model.predict_self_s", calls="model.predict_calls"),
    Hook("capsintent.model", "evaluate", "model.predict_self_s"),
    Hook("capsintent.experiments", "fit", "experiments.fit_self_s", calls="experiments.fits"),
    Hook("capsintent.experiments", "Adam.step", "experiments.adam_step_s",
         calls="experiments.adam_steps"),
    Hook("capsintent.experiments", "evaluate_model", "experiments.evaluate_self_s"),
    Hook("capsintent.experiments", "predict_corpus", "experiments.evaluate_self_s"),
    Hook("capsintent.experiments", "learning_curve", "experiments.curve_self_s"),
    Hook("capsintent.experiments", "run_sweep", "experiments.curve_self_s"),
)

# derived metric -> the time metric whose spans count their frames
PER_FRAME = {
    "encoder.fwd_us_per_frame": "encoder.fwd_s",
    "encoder.bwd_us_per_frame": "encoder.bwd_s",
}
FRAMES_METRIC = ("encoder.frames", "encoder.fwd_s")


class Span(NamedTuple):
    metric: str
    start: float
    end: float
    parent: Optional[int]      # index of the enclosing span, None at the root
    frames: Optional[int] = None
    calls: Optional[str] = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def root_time(spans) -> float:
    """Wall time covered by spans that have no enclosing span."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def _resolve(hook: Hook):
    """(owner, name, function) for a hook, or None when it no longer exists."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None) if owner is not None else None
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """Installs the span wrappers while it is entered as a context manager.

    Spans stay in memory; ``layer_metrics`` turns them into per-layer
    numbers at the end of the run.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.absent = {h.metric for h in self.hooks if _resolve(h) is None}
        self.absent |= {h.calls for h in self.hooks if h.calls and h.metric in self.absent}

    def __enter__(self):
        for hook in self.hooks:
            found = _resolve(hook)
            if found is None:
                continue
            owner, name, fn = found
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)
        return False

    def _wrap(self, fn, hook: Hook):
        spans, stack = self.spans, self._stack
        metric, calls, count_frames = hook.metric, hook.calls, hook.frames

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                frames = None
                if count_frames is not None:
                    try:
                        frames = int(count_frames(args, kwargs))
                    except (IndexError, KeyError, TypeError, AttributeError):
                        frames = None
                spans[index] = Span(metric, start, end, parent, frames, calls)

        return traced

    def layer_metrics(self, per: int) -> dict[str, float]:
        """Self times (s) and call counts per ``per`` traced units of work.

        Every metric named in the hook table is reported, 0 when its layer
        never ran; metrics of missing hooks, and frame figures whose frame
        counter failed, are left out.
        """
        totals = {name: 0.0 for h in self.hooks for name in (h.metric, h.calls) if name}
        frames: dict[str, Optional[int]] = {h.metric: 0 for h in self.hooks if h.frames}
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.metric] += own
            if span.calls:
                totals[span.calls] += 1
            if frames.get(span.metric) is not None:
                frames[span.metric] = None if span.frames is None \
                    else frames[span.metric] + span.frames
        out = {name: value / per for name, value in totals.items() if name not in self.absent}
        for name, source in PER_FRAME.items():
            if source in out and frames[source] is not None:
                n = frames[source]
                out[name] = totals[source] / n * 1e6 if n else 0.0
        name, source = FRAMES_METRIC
        if source in out and frames[source] is not None:
            out[name] = frames[source] / per
        return out
