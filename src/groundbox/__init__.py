"""groundbox: frame-wise loss-weighted video object grounding.

Numpy-backed tensor core with reverse-mode autodiff, query/proposal
encoders, multi-head self-attention over object queries, four grounding
loss modes, synthetic data with planted ground truth, Nesterov-SGD
training, and IoU-based box-accuracy evaluation.
"""

from .config import GroundingConfig, LossMode
from .data import (SegmentSample, Vocabulary, generate_synthetic, iou, load_segments,
                   sample_frames, sample_negative_sentence, save_segments)
from .evaluate import EvalReport, box_accuracy, evaluate_model, per_class_delta, \
    upper_bound
from .gradcheck import finite_diff_check
from .model import GroundingModel, load_into_model
from .tensor import Tape, Tensor, backward, no_grad
from .train import NesterovSGD, checkpoint_load, checkpoint_save, train

__version__ = "0.1.0"
