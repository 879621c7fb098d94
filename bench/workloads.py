"""The three benchmark workloads, all at the grid configuration.

Grid configuration: the ``mimic_grabo`` synthetic corpus with noise 0.2,
split speaker-independently into 150 blocks with split seed 5, and a model
with H=32, 2 encoder layers, P=64, d_p=8, n=8, K=33 and 3 routing
iterations, model seed 42. The benchmark seed is the corpus seed.

Each workload builds its inputs in ``setup``, does one short timed unit of
work per ``unit`` call, after which the runner has it ``serve``
``probe_calls`` timed ``predict`` calls, and checks what the program
returned in ``finish``. Units are short (0.5 to 2 s) so that the reference
kernel timed after each one sees the same host speed (see NOTES.md). Only the package's public API is called, always through
the module that defines it, so that a traced run sees the wrappers the
tracer puts there.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

import capsintent
from capsintent import checkpoint, datasets, experiments, model

NOISE = 0.2
NUM_BLOCKS = 150
SPLIT_SEED = 5
MODEL = dict(encoder_hidden=32, encoder_layers=2, num_primary=64, primary_dim=8,
             output_dim=8, routing_iters=3, speaker_weight=1.0, seed=42)

TRAIN_BLOCKS = 20            # 540 utterances; the rest of the corpus is held out
BATCH = 32                   # the default fit batch: one train unit is one Adam step
CURVE_BLOCKS = 4             # the curve runs on the first 4 blocks of the grid split
CURVE_SCHEDULE = (1,)        # train blocks per point; each point decodes the rest
CURVE_EPOCHS = 1
CURVE_WEIGHTS = (0.0, 1.0)
CHECK_CALLS = 200            # fewest predict calls timed, and the agreement check set
ROUND_CALLS = 20             # predict calls in an infer unit or a top-up round
WARMUP_CALLS = 20


def _ids(blocks) -> list[str]:
    return [utt_id for block in blocks for utt_id in block]


class Workload:
    """Shared set-up, warm-up, serving and the checks of served answers."""

    min_units = 2
    probe_calls = 0          # timed predict calls after each unit

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.answers: dict[str, tuple] = {}
        self.served: list = []   # distinct utterances in the order first served

    def setup(self) -> None:
        spec = capsintent.mimic_grabo_spec(noise_level=NOISE)
        self.corpus = datasets.synth_generate(spec, seed=self.seed)
        self.split = datasets.split_blocks(self.corpus, NUM_BLOCKS, "speaker_independent",
                                           seed=SPLIT_SEED)
        self.config = capsintent.ModelConfig(
            feat_dim=self.corpus.feat_dim(), num_labels=len(self.corpus.vocab),
            speaker_count=len(self.corpus.speakers), **MODEL)
        self.train = self.corpus.subset(_ids(self.split.blocks[:TRAIN_BLOCKS]))
        held_out = self.corpus.subset(_ids(self.split.blocks[TRAIN_BLOCKS:]))
        order = np.random.default_rng(self.seed).permutation(len(held_out))
        self.stream = [held_out[i] for i in order]
        # the served model: init_params weights, saved to a checkpoint and
        # loaded back, as a device would load it
        path = os.path.join(self.workdir, "model.npz")
        checkpoint.save_checkpoint(path, self.config, model.init_params(self.config))
        self.serve_config, self.serve_params, _ = checkpoint.load_checkpoint(path)

    def warmup(self) -> None:
        """One small fit and a few predict calls before anything is timed;
        their results are not kept."""
        experiments.fit(self.train[:BATCH], self.config, epochs=1)
        for utt in self.stream[:WARMUP_CALLS]:
            model.predict(utt.features, self.serve_params, self.serve_config, self.corpus.vocab)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def serve(self, k: int, calls: int) -> None:
        """One closed-loop client: ``model.predict`` on the held-out stream,
        one utterance at a time, slice ``k`` of ``calls`` utterances."""
        vocab = self.corpus.vocab
        for i in range(calls):
            utt = self.stream[(k * calls + i) % len(self.stream)]
            self.attempted += 1
            start = perf_counter()
            try:
                pred = model.predict(utt.features, self.serve_params, self.serve_config, vocab)
            except capsintent.CapsIntentError as exc:
                pred = None
                self.failed += 1
                self.fail(f"predict failed on {utt.id}: {exc}")
            self.latencies.append((perf_counter() - start) * 1e3)
            if utt.id not in self.answers:
                self.check_answer(utt.id, pred)
                self.answers[utt.id] = pred
                self.served.append(utt)
            elif self.answers[utt.id] != pred:
                self.fail(f"{utt.id}: two predict calls on it gave different answers")

    def check_answer(self, utt_id: str, pred) -> None:
        """A prediction names exactly one action and a known speaker."""
        if pred is None:
            return
        labels, speaker = pred
        actions = [name for name in labels if name.startswith("action:")]
        if len(actions) != 1:
            self.fail(f"{utt_id}: {len(actions)} action labels in {labels}")
        if not 0 <= speaker < len(self.corpus.speakers):
            self.fail(f"{utt_id}: speaker {speaker} out of range")

    def finish(self) -> dict:
        """Check that ``predict_corpus`` answers the first CHECK_CALLS served
        utterances as the ``predict`` calls did. Returns F1 and speaker
        accuracy of those answers."""
        utts = self.served[:CHECK_CALLS]
        label_sets, speakers = experiments.predict_corpus(
            utts, self.serve_params, self.serve_config, self.corpus.vocab)
        if [self.answers[u.id] for u in utts] != list(zip(label_sets, speakers)):
            self.fail("model.predict and predict_corpus disagree on the check set")
        refs = [self.corpus.vocab.names_of(u.target) for u in utts]
        return {"f1": capsintent.f1_score(label_sets, refs),
                "speaker_accuracy": capsintent.speaker_accuracy(
                    speakers, [u.speaker_index for u in utts])}


class Train(Workload):
    """One ``fit`` of one epoch on one 32-utterance batch of the first 20
    blocks per unit, speaker weight 1: one forward, backward and Adam step
    per utterance batch. Units cycle over the 16 full batches."""

    probe_calls = 15

    def setup(self):
        super().setup()
        self.batches = len(self.train) // BATCH
        self.histories: dict[int, list] = {}

    def unit(self, k: int) -> int:
        b = k % self.batches
        self.attempted += 1
        try:
            result = experiments.fit(self.train[b * BATCH:(b + 1) * BATCH], self.config, epochs=1)
        except capsintent.CapsIntentError as exc:
            self.failed += 1
            self.fail(f"fit of batch {b} failed: {exc}")
            return 0
        history = [(e.label_loss, e.speaker_loss) for e in result.history]
        if not all(math.isfinite(v) for epoch in history for v in epoch):
            self.fail(f"non-finite training loss on batch {b}: {history}")
        if self.histories.setdefault(b, history) != history:
            self.fail(f"training losses of batch {b} differ between repeats")
        return BATCH

    def finish(self):
        quality = super().finish()
        if self.histories:
            quality["label_loss"] = float(np.mean([h[-1][0] for h in self.histories.values()]))
            quality["speaker_loss"] = float(np.mean([h[-1][1] for h in self.histories.values()]))
        return quality


class Curve(Workload):
    """One ``run_sweep`` over speaker weight 0 and 1 per unit: a one-epoch
    fit on block 0 and decoding of blocks 1-3, for each weight."""

    probe_calls = 60

    def setup(self):
        super().setup()
        blocks = self.split.blocks[:CURVE_BLOCKS]
        self.curve_split = capsintent.BlockSplit(
            mode="speaker_independent", seed=SPLIT_SEED, num_blocks=CURVE_BLOCKS, blocks=blocks)
        sizes = [len(b) for b in blocks]
        # utterances through the model per sweep: training passes plus decoding
        self.sweep_utts = len(CURVE_WEIGHTS) * sum(
            CURVE_EPOCHS * sum(sizes[:k]) + sum(sizes[k:]) for k in CURVE_SCHEDULE)
        self.points = None

    def unit(self, k: int) -> int:
        jobs = len(CURVE_WEIGHTS) * len(CURVE_SCHEDULE)
        self.attempted += jobs
        try:
            curves = experiments.run_sweep(
                self.corpus, self.curve_split, CURVE_SCHEDULE, self.config,
                capsintent.SweepSpec("speaker_weight", list(CURVE_WEIGHTS)),
                repeats=1, fit_options={"epochs": CURVE_EPOCHS})
        except capsintent.CapsIntentError as exc:
            self.failed += jobs
            self.fail(f"run_sweep failed: {exc}")
            return 0
        points = [(w, p.train_utterances, p.f1, p.speaker_acc, p.failed)
                  for w in CURVE_WEIGHTS for p in curves[w]]
        failed = sum(p[-1] for p in points)
        if failed:
            self.failed += failed
            self.fail(f"{failed} curve points failed")
        if self.points is None:
            self.points = points
        elif points != self.points:
            self.fail("curve points differ between repeats of the same sweep")
        return self.sweep_utts

    def finish(self):
        quality = super().finish()
        for w in CURVE_WEIGHTS:
            points = [p for p in self.points or [] if p[0] == w]
            if points:
                quality[f"curve_f1_sw{w:g}"] = float(np.mean([p[2] for p in points]))
                quality[f"curve_spk_acc_sw{w:g}"] = float(np.mean([p[3] for p in points]))
        return quality


class Infer(Workload):
    """Rounds of 20 ``model.predict`` calls from one closed-loop client on
    the model loaded from the checkpoint: the batch-size-1 path alone."""

    def unit(self, k: int) -> int:
        self.serve(k, ROUND_CALLS)
        return ROUND_CALLS


WORKLOADS = {"train": Train, "curve": Curve, "infer": Infer}
