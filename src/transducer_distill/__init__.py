"""Sequence-transducer knowledge distillation toolkit.

A tiny trainable transducer (encoder / prediction network / joint network)
with exact log-space full-sum loss, greedy and beam-search decoding, a
family of distillation losses (hard pseudo-labels, frame-local soft KL,
sequence-level full-sum matching, and N-best-normalized full-sum matching),
plus a synthetic data pipeline and CLI to run teacher/student experiments
end to end.
"""

from .lattice import Lattice, forward_backward, rnnt_loss
from .model import EncoderConfig, SGD, TransducerModel, load_checkpoint, save_checkpoint, train_step
from .decode import beam_search, greedy_decode, rescore_nbest
from .distill import (
    CombinedLossConfig,
    DistillLossKind,
    LossKind,
    combined_loss,
    fs_distill,
    fs_norm_distill,
    shift_teacher,
    soft_kl_efficient,
    soft_kl_full,
)
from .data import Corpus, SyntheticSpec, Utterance, corrupt_labels, generate, mix_batches
from .metrics import WerReport, edit_distance, evaluate, macro_average

__version__ = "0.1.0"

__all__ = [
    "Lattice",
    "forward_backward",
    "rnnt_loss",
    "TransducerModel",
    "EncoderConfig",
    "SGD",
    "train_step",
    "save_checkpoint",
    "load_checkpoint",
    "greedy_decode",
    "beam_search",
    "rescore_nbest",
    "LossKind",
    "DistillLossKind",
    "CombinedLossConfig",
    "soft_kl_full",
    "soft_kl_efficient",
    "shift_teacher",
    "fs_distill",
    "fs_norm_distill",
    "combined_loss",
    "SyntheticSpec",
    "Corpus",
    "Utterance",
    "generate",
    "corrupt_labels",
    "mix_batches",
    "WerReport",
    "edit_distance",
    "evaluate",
    "macro_average",
    "__version__",
]
