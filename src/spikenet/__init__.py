"""Spiking-network simulation and training with learnable weights and
per-neuron axonal delays.

Spike trains are filtered by a causal response kernel, weighted, and
thresholded with refractory feedback.  Training backpropagates a timed
error signal through kernel correlations and a surrogate derivative of
the spike function, yielding gradients for both weights and delays.
"""

from .backprop import (
    Gradients,
    backward,
    finite_diff_gradients,
    soft_forward,
    soft_loss,
)
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ParameterError,
    ParseError,
    RangeError,
    ShapeError,
    SpikeNetError,
)
from .forward import SignalCache, SurrogateConfig, forward, soft_spike
from .kernels import (
    Kernel,
    NeuronConfig,
    convolve,
    correlate,
    make_epsilon,
    make_epsilon_dot,
    make_nu,
)
from .losses import LossSpec, error_count, error_precise, loss_value, output_error, spike_counts
from .optim import OptimizerState, clamp_delays, step
from .runconfig import RunConfig, load_config
from .signals import (
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    poisson_spike_train,
    read_events,
    spikes_to_signal,
    write_events,
)
from .topology import (
    LayerParams,
    LayerSpec,
    Network,
    NetworkSpec,
    apply_linear,
    adjoint_linear,
    init_network,
    parse_architecture,
    render_architecture,
)
from .trainer import (
    Dataset,
    MetricRow,
    TrainConfig,
    classify,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epoch,
    write_metrics,
)

__version__ = "0.1.0"
