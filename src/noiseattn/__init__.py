"""Noise-robust classifier training.

Builds classifiers on datasets with incorrect labels by routing every
training sample through one of several learnable class-confusion units
(unit 0 is the fixed identity), then refining the network over
recursive self-distillation rounds that blend given labels with the
previous round's predictions. Inference uses the base network alone.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, DivergenceError, FormatError,
                     NoiseAttnError, StageError, UsageError)
from .nn import (EPS, Conv2D, Dense, Flatten, LayerSpec, MaxPool2x2, Network,
                 Parameter, ReLU, SGD, softmax, softmax_backward)
from .attention import (NAModel, NoiseUnit, UnitSchedule, attention_outputs,
                        project_column_stochastic)
from .recursion import (RecursionSchedule, alpha_schedule, run_recursion, snapshot_probs,
                        soft_nll_loss)
from .training import OneHead, Trainer, TrainSettings, split_train_val
from .multihead import MultiHeadNetwork, evaluate_all_metric
from .data import (Dataset, NoiseSpec, SyntheticSpec, empirical_transition,
                   generate_synthetic, generate_synthetic_multi, inject_noise,
                   load_dataset, save_dataset)
from .config import (AttributeSpec, ExperimentConfig, build_config, load_config, parse_arch,
                     parse_config_text, parse_input_shape, serialize_arch)
from .harness import (MetricsLog, RunReport, evaluate, export_q, load_q_csv,
                      load_snapshot, resolve_data, resume_recursion,
                      run_experiment, save_snapshot)

__all__ = [name for name in dir() if not name.startswith("_")]
