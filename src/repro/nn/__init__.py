"""A compact NumPy deep-learning framework.

This sub-package provides everything the RankNet reproduction needs to train
DeepAR-style probabilistic encoder–decoder forecasters without an external
deep-learning dependency: parameters/modules, dense/embedding/recurrent/
attention layers, Gaussian likelihood heads, losses, optimisers, learning
rate schedules and a generic training loop.
"""

from .activations import (
    Activation,
    get_activation,
    identity,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    softplus,
    tanh,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    load_checkpoint,
    read_npz,
    restore_rng,
    rng_from_state,
    rng_state,
    save_checkpoint,
    write_npz,
)
from .attention import (
    MultiHeadAttention,
    PositionwiseFeedForward,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    causal_mask,
    sinusoidal_positional_encoding,
)
from .distributions import GaussianOutput, GaussianParams, gaussian_quantile, gaussian_sample
from .gradcheck import check_parameter_gradients, numerical_gradient, relative_error
from .gru import GRUCell, StackedGRU
from .inference import (
    MultiGaussianHeadInference,
    StackInference,
    slice_states,
    stable_matmul,
    tile_states,
)
from .student_t import StudentTOutput, StudentTParams, student_t_nll
from .layers import (
    MLP,
    Dense,
    Dropout,
    Embedding,
    LayerNorm,
    MultiGaussianOutput,
    Sequential,
)
from .losses import gaussian_nll, gaussian_nll_seq, mae_loss, mse_loss, quantile_loss
from .module import Module, Parameter
from .optimizers import SGD, Adam, Optimizer, clip_grad_norm
from .recurrent import LSTMCell, StackedLSTM
from .schedulers import EarlyStopping, ReduceLROnPlateau, StepDecay
from .trainer import NonFiniteLossError, Trainer, TrainingHistory

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "load_checkpoint",
    "read_npz",
    "restore_rng",
    "rng_from_state",
    "rng_state",
    "save_checkpoint",
    "write_npz",
    "Activation",
    "get_activation",
    "identity",
    "log_softmax",
    "relu",
    "sigmoid",
    "softmax",
    "softplus",
    "tanh",
    "MultiHeadAttention",
    "PositionwiseFeedForward",
    "TransformerDecoderLayer",
    "TransformerEncoderLayer",
    "causal_mask",
    "sinusoidal_positional_encoding",
    "GaussianOutput",
    "GaussianParams",
    "gaussian_quantile",
    "gaussian_sample",
    "check_parameter_gradients",
    "numerical_gradient",
    "relative_error",
    "GRUCell",
    "StackedGRU",
    "MultiGaussianHeadInference",
    "StackInference",
    "slice_states",
    "stable_matmul",
    "tile_states",
    "StudentTOutput",
    "StudentTParams",
    "student_t_nll",
    "MLP",
    "Dense",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "MultiGaussianOutput",
    "Sequential",
    "gaussian_nll",
    "gaussian_nll_seq",
    "mae_loss",
    "mse_loss",
    "quantile_loss",
    "Module",
    "Parameter",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "LSTMCell",
    "StackedLSTM",
    "EarlyStopping",
    "ReduceLROnPlateau",
    "StepDecay",
    "NonFiniteLossError",
    "Trainer",
    "TrainingHistory",
]
