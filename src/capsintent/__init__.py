"""Speech-to-intent capsule networks with a speaker-identification auxiliary
task: acoustic features, a from-scratch capsule model with analytic
gradients, corpora and synthetic data, and a learning-curve harness."""

from .capsnet import (ModelConfig, decode_labels, dynamic_routing, margin_loss,
                      predict_capsules, squash)
from .datasets import (BlockSplit, Corpus, LabelVocabulary, SlotGroup, SynthGroup,
                       SynthSpec, Utterance, load_fluent, load_grabo, load_manifest,
                       mimic_grabo_spec, split_blocks, synth_generate, write_manifest)
from .errors import (CapsIntentError, ContractError, DataError, DivergenceError,
                     FormatError, ShapeError, UsageError)
from .experiments import (LearningCurvePoint, SweepSpec, f1_score, fit,
                          intent_accuracy, learning_curve, run_sweep,
                          speaker_accuracy, train_test_replication)
from .features import (FeatureCache, add_deltas, compute_fbank, compute_features, load_wav,
                       normalize)
from .model import init_params, loss_and_grads, predict
from .multitask import (LossBreakdown, average_capsule, decode_speaker, speaker_distribution,
                        speaker_loss, total_loss)
from .numeric import GradCheckReport, grad_check, softmax

__version__ = "0.1.0"
