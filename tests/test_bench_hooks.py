"""The benchmark's per-layer hooks name functions of the package; a hook
that stops resolving silently drops its metric, so every one must resolve.
A hook that resolves can still be bypassed by a caller holding a direct
reference to the function, which leaves its metric at 0, so the model's
hooks must also record spans on a traced run."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import tracing  # noqa: E402

import capsintent.model as model  # noqa: E402
from capsintent import experiments  # noqa: E402

from opexamples import _small_config, _small_corpus  # noqa: E402

MODEL_MODULES = ("capsintent.encoder", "capsintent.capsnet", "capsintent.multitask",
                 "capsintent.model")
MODEL_HOOKS = {f"{h.module}:{h.attr}" for h in tracing.HOOKS if h.module in MODEL_MODULES}
TRAINING_ONLY = {"capsintent.encoder:encoder_backward", "capsintent.capsnet:backward",
                 "capsintent.capsnet:predict_capsules_backward",
                 "capsintent.capsnet:routing_backward", "capsintent.capsnet:margin_loss",
                 "capsintent.capsnet:margin_loss_grad", "capsintent.multitask:head_forward",
                 "capsintent.multitask:head_backward", "capsintent.model:loss_and_grads"}
DECODING_ONLY = {"capsintent.capsnet:decode_labels", "capsintent.model:evaluate",
                 "capsintent.model:predict"}


def test_every_bench_hook_resolves():
    assert tracing.Tracer().absent == set()


def _fired(run) -> set:
    """The hooks of the model's modules that record a span while ``run`` runs."""
    hooks = [h._replace(metric=f"{h.module}:{h.attr}", calls=None) for h in tracing.HOOKS]
    with tracing.Tracer(hooks) as tracer:
        run()
    return {span.metric for span in tracer.spans} & MODEL_HOOKS


def test_every_model_hook_records_spans():
    corpus = _small_corpus(per_speaker=8, noise=0.1)
    cfg = _small_config(speaker_weight=1.0)
    utts, vocab = corpus.utterances, corpus.vocab
    params = experiments.fit(utts, cfg, epochs=1).params
    assert _fired(lambda: experiments.fit(utts, cfg, epochs=1)) == MODEL_HOOKS - DECODING_ONLY
    assert _fired(lambda: model.predict(utts[0].features, params, cfg, vocab)) \
        == MODEL_HOOKS - TRAINING_ONLY
    # decoding a corpus runs batches through evaluate, not predict per utterance
    assert _fired(lambda: experiments.predict_corpus(utts, params, cfg, vocab)) \
        == MODEL_HOOKS - TRAINING_ONLY - {"capsintent.model:predict"}
