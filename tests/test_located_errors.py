"""Located errors that only malformed input reaches: every raise that a
public entry point can reach and no other test reaches, one parametrized
test per module.  Each case builds its input in ``tmp_path`` and names
the exception and the message it must raise."""

import struct

import numpy as np
import pytest

from spikenet import (
    ConfigError,
    Dataset,
    FormatError,
    Gradients,
    LayerSpec,
    LossSpec,
    NetworkSpec,
    NeuronConfig,
    NumericError,
    OptimizerState,
    ParameterError,
    ParseError,
    SampledSignal,
    ShapeError,
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    SurrogateConfig,
    TrainConfig,
    backward,
    convolve,
    error_count,
    error_precise,
    evaluate,
    forward,
    init_network,
    load_checkpoint,
    load_config,
    make_epsilon,
    make_epsilon_dot,
    make_nu,
    output_error,
    parse_architecture,
    poisson_spike_train,
    read_events,
    save_checkpoint,
    step,
    train_epoch,
)
from spikenet.backprop import delta_layer

_NEURON = NeuronConfig(10.0, 2.0, 1.0)
_SIM = SimConfig(25.0, 1.0)
_SURROGATE = SurrogateConfig(10.0, 0.5)
_COUNT = LossSpec("count", 6.0, 2.0, (0.0, 25.0))


def _net():
    return init_network(parse_architecture("3-4-2"), _NEURON, _SIM)


def _cache(net):
    return forward(net, poisson_spike_train(3, 150.0, _SIM, 0))


def _zeros(channels, bins=25):
    return SampledSignal(np.zeros((channels, bins)), 1.0)


def _cases(*cases):
    """pytest params (id, build, exception, message) for one module."""
    return pytest.mark.parametrize(
        "build, error, message", [pytest.param(*case[1:], id=case[0]) for case in cases]
    )


def _raises(tmp_path, build, error, message):
    with pytest.raises(error, match=message):
        build(tmp_path)


@_cases(
    ("precise-without-target", lambda _: output_error(_net(), _cache(_net()), LossSpec("precise")),
     ParameterError, "precise loss needs a target spike train"),
    ("count-without-label", lambda _: output_error(_net(), _cache(_net()), _COUNT),
     ParameterError, "count loss needs a label"),
    ("delta-layer-shape",
     lambda _: delta_layer(_zeros(2), _cache(_net()).potentials[1], _net().epsilon,
                           np.zeros(4), 10.0, _SURROGATE),
     ShapeError, r"error shape \(2, 25\) != potential \(4, 25\)"),
    ("backward-output-shape", lambda _: backward(_net(), _cache(_net()), _zeros(3), _SURROGATE),
     ShapeError, r"output error shape \(3, 25\) != potential \(2, 25\)"),
)
def test_backprop_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


@_cases(
    ("delay-vector-length",
     lambda _: convolve(_zeros(2), make_epsilon(_NEURON, 1.0), np.zeros(3)),
     ParameterError, r"delay vector shape \(3,\) != \(2,\)"),
)
def test_kernels_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


@_cases(
    ("precise-target-width",
     lambda _: error_precise(_cache(_net()).spikes[-1], SpikeTrain(3), _net().epsilon, _SIM),
     ShapeError, "target has 3 channels, output has 2"),
    ("count-desired-shape",
     lambda _: error_count(_cache(_net()).spikes[-1], np.zeros(3), (0.0, 25.0), _SIM),
     ShapeError, r"desired counts shape \(3,\) != \(2,\)"),
)
def test_losses_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


def _step_with(state, edit):
    """One optimizer step on a fresh net, with ``edit(state, grads)`` applied first."""
    net = _net()
    grads = Gradients.zeros_like(net)
    edit(state, grads)
    step(state, net, grads)


@_cases(
    ("moment-buffer-shape",
     lambda _: _step_with(OptimizerState.adam(),
                          lambda s, g: s.moment1.__setitem__("w0", np.zeros((1, 1)))),
     ShapeError, r"optimizer buffer 'w0' shape \(1, 1\) != \(4, 3\)"),
    ("infinite-weight-gradient",
     lambda _: _step_with(OptimizerState.sgd(), lambda s, g: g.weights[0].fill(np.inf)),
     NumericError, "non-finite weights after update in transition 0"),
    ("infinite-delay-gradient",
     lambda _: _step_with(OptimizerState.sgd(), lambda s, g: g.delays[1].fill(-np.inf)),
     NumericError, "non-finite delays after update in transition 1"),
)
def test_optim_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


_CFG = """
[network]
architecture = 3-2

[simulation]
t_ms = 25
ts_ms = 1
"""


def _config(tmp_path, text, labels="0\n1\n"):
    """load_config of ``text`` beside an empty input file and a labels file."""
    (tmp_path / "inputs.csv").write_text("neuron,time_ms,label\n")
    (tmp_path / "labels.txt").write_text(labels)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(path)


_COUNT_SECTIONS = "\n[loss]\nmode = count\ntrue_count = 4\nfalse_count = 1\n"


@_cases(
    ("interval-not-a-pair",
     lambda p: _config(p, _CFG + _COUNT_SECTIONS + "interval = 1\n"),
     ConfigError, r"\[loss\] interval = '1': interval must be 't0,t1'"),
    ("no-section-header", lambda p: _config(p, "architecture = 3-2\n"),
     ConfigError, "run.cfg: File contains no section headers"),
    ("precise-without-targets",
     lambda p: _config(p, _CFG + "\n[data]\ninputs = inputs.csv\n").load_dataset(),
     ConfigError, r"precise loss needs 'targets' in \[data\]"),
    ("count-without-labels",
     lambda p: _config(p, _CFG + _COUNT_SECTIONS + "\n[data]\ninputs = inputs.csv\n")
     .load_dataset(),
     ConfigError, r"count loss needs 'labels' in \[data\]"),
    ("label-not-an-integer",
     lambda p: _config(p, _CFG + _COUNT_SECTIONS
                       + "\n[data]\ninputs = inputs.csv\nlabels = labels.txt\n",
                       labels="0\nx\n").load_dataset(),
     ConfigError, "labels.txt:2: label 'x' is not an integer"),
)
def test_runconfig_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


def _events_file(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, str):
        path.write_text(data)
    else:
        path.write_bytes(data)
    return read_events(path)


@_cases(
    ("train-without-neurons", lambda _: SpikeTrain(0), ParameterError, "neuron_count must be >= 1"),
    ("events-not-numbers", lambda _: SpikeTrain(2, [("a", 1.0)]),
     ParameterError, r"events must be \(neuron, time\) pairs: "),
    ("set-without-neurons", lambda _: SpikeTrainSet(0), ParameterError, "neuron_count must be >= 1"),
    ("set-of-other-width", lambda _: SpikeTrainSet(2, (SpikeTrain(3),)),
     ShapeError, "train has 3 neurons, set expects 2"),
    ("signal-not-2d", lambda _: SampledSignal(np.zeros(5), 1.0),
     ShapeError, r"signal values must be 2-D, got shape \(5,\)"),
    ("signal-not-finite", lambda _: SampledSignal(np.array([[0.0, np.nan]]), 1.0),
     ParameterError, "signal contains non-finite values"),
    ("poisson-without-channels", lambda _: poisson_spike_train(0, 10.0, _SIM, 0),
     ParameterError, "channels must be >= 1"),
    ("poisson-negative-rate", lambda _: poisson_spike_train(2, -1.0, _SIM, 0),
     ParameterError, "rate_hz must be >= 0"),
    ("csv-without-header", lambda p: _events_file(p, "e.csv", "0,1.5,0\n"),
     ParseError, "e.csv: line 1: expected header 'neuron,time_ms,label'"),
    ("slyr-truncated-header", lambda p: _events_file(p, "e.slyr", b"SLYR\x01"),
     ParseError, "e.slyr: offset 5: truncated header"),
    ("slyr-unsupported-version",
     lambda p: _events_file(p, "e.slyr", b"SLYR" + struct.pack("<HIQ", 2, 3, 0)),
     ParseError, "e.slyr: offset 4: unsupported version 2"),
)
def test_signals_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


@_cases(
    ("input-not-first",
     lambda _: NetworkSpec((LayerSpec("input", size=2), LayerSpec("input", size=2))),
     ShapeError, "input layer must come first"),
    ("no-input-layer",
     lambda _: NetworkSpec((LayerSpec("dense", size=2), LayerSpec("dense", size=2))),
     ShapeError, "first layer must be an input layer"),
    ("unknown-kind", lambda _: NetworkSpec((LayerSpec("input", size=2), LayerSpec("pool"))),
     ShapeError, "unknown layer kind 'pool'"),
    ("one-token", lambda _: parse_architecture("4"),
     ParseError, "invalid architecture '4': a network needs an input layer and at least one"),
    ("zero-input-dimension", lambda _: parse_architecture("0x5-3"),
     ParseError, "malformed input token '0x5': zero dimension"),
    ("zero-conv-filters", lambda _: parse_architecture("4x4-0c3-2"),
     ParseError, "malformed conv token '0c3'"),
    ("zero-aggregation-block", lambda _: parse_architecture("4x4-0a-2"),
     ParseError, "malformed aggregation token '0a'"),
)
def test_topology_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


def _train_config(**kw):
    return TrainConfig(**{"epochs": 1, "loss": _COUNT, "surrogate": _SURROGATE, **kw})


def _patched_checkpoint(tmp_path, offset, fmt, value):
    """load_checkpoint of a saved 3-4-2 checkpoint with one field rewritten."""
    path = tmp_path / "c.slck"
    save_checkpoint(_net(), None, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    return load_checkpoint(path)


# magic, version, the architecture string "3-4-2" and six doubles precede
# the transition count
_COUNT_OFFSET = 4 + 2 + 4 + len("3-4-2") + 6 * 8


@_cases(
    ("negative-epochs", lambda _: _train_config(epochs=-1),
     ParameterError, "epochs must be >= 0, batch_size and threads must be >= 1"),
    ("negative-cadence", lambda _: _train_config(eval_every=-1),
     ParameterError, "cadences must be nonnegative"),
    ("train-on-nothing", lambda _: train_epoch(_net(), Dataset([]), _train_config(),
                                               OptimizerState(), 1),
     ParameterError, "cannot train on an empty dataset"),
    ("evaluate-nothing", lambda _: evaluate(_net(), Dataset([]), _train_config()),
     ParameterError, "cannot evaluate an empty dataset"),
    ("checkpoint-version", lambda p: _patched_checkpoint(p, 4, "<H", 2),
     FormatError, "c.slck: unsupported checkpoint version 2"),
    ("checkpoint-transition-count", lambda p: _patched_checkpoint(p, _COUNT_OFFSET, "<I", 3),
     FormatError, "c.slck: transition count mismatch"),
)
def test_trainer_errors(tmp_path, build, error, message):
    _raises(tmp_path, build, error, message)


_CONSTANTS = {  # id: (field, constructor of one value)
    "theta": ("theta", lambda v: NeuronConfig(v, 2.0, 1.0)),
    "tau_s": ("tau_s", lambda v: NeuronConfig(10.0, v, 1.0)),
    "tau_r": ("tau_r", lambda v: NeuronConfig(10.0, 2.0, v)),
    "alpha": ("alpha", lambda v: SurrogateConfig(alpha=v)),
    "beta": ("beta", lambda v: SurrogateConfig(beta=v)),
    "eps_stab": ("eps_stab", lambda v: OptimizerState(eps_stab=v)),
    "learning_rate": ("learning_rate", lambda v: OptimizerState(learning_rate=v)),
    "delay_lr_scale": ("delay_lr_scale", lambda v: OptimizerState(delay_lr_scale=v)),
    "SampledSignal": ("ts_ms", lambda v: SampledSignal(np.zeros((1, 2)), v)),
    "make_epsilon": ("ts_ms", lambda v: make_epsilon(_NEURON, v)),
    "make_nu": ("ts_ms", lambda v: make_nu(_NEURON, v)),
    "make_epsilon_dot": ("ts_ms", lambda v: make_epsilon_dot(_NEURON, v)),
    "gain": ("gain", lambda v: init_network(parse_architecture("3-2"), _NEURON, _SIM, gain=v)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field, build", _CONSTANTS.values(), ids=list(_CONSTANTS))
def test_run_constants_must_be_finite(field, build, value):
    """NaN passes every ``<= 0`` test, and inf every sign test."""
    with pytest.raises(ParameterError, match=rf"^{field}\b"):
        build(value)


@pytest.mark.parametrize("value", [1.0, np.nan, -0.1])
@pytest.mark.parametrize("field", ["beta1", "beta2", "gamma"])
def test_decay_rates_lie_in_the_unit_interval(field, value):
    """At 1, Adam's bias correction divides by zero and RMSProp's average never moves."""
    with pytest.raises(ParameterError, match=rf"^{field} = "):
        OptimizerState(**{field: value})
