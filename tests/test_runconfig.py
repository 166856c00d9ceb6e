"""Configuration file loading and defaults."""

import numpy as np
import pytest

from conftest import manual_network
from spikenet import (
    Gradients,
    NeuronConfig,
    OptimizerState,
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    load_config,
    poisson_spike_train,
    step,
    write_events,
)
from spikenet.errors import ConfigError, ParseError


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    rc = load_config(_write(tmp_path, """
[network]
architecture = 10-4

[simulation]
t_ms = 40
ts_ms = 1
"""))
    assert rc.architecture == "10-4"
    assert rc.sim.t_ms == 40.0
    assert rc.neuron.theta == 10.0
    assert rc.neuron.tau_s == 1.0
    assert rc.neuron.tau_r == 1.0
    assert rc.train.surrogate.alpha == 10.0
    assert rc.train.surrogate.beta == pytest.approx(5.0 / rc.neuron.theta)
    assert rc.train.loss.mode == "precise"
    assert rc.optimizer.method == "adam"
    assert rc.train.epochs == 100
    assert rc.out_dir == tmp_path.resolve() / "runs"


def test_count_loss_interval_defaults_to_whole_window(tmp_path):
    rc = load_config(_write(tmp_path, """
[network]
architecture = 10-4

[simulation]
t_ms = 40
ts_ms = 1

[loss]
mode = count
true_count = 9
false_count = 2
"""))
    assert rc.train.loss.interval == (0.0, 40.0)
    assert rc.train.loss.true_count == 9.0


def test_interval_key_parses_pair(tmp_path):
    rc = load_config(_write(tmp_path, """
[network]
architecture = 10-4

[simulation]
t_ms = 40
ts_ms = 1

[loss]
mode = count
true_count = 9
false_count = 2
interval = 5, 35
"""))
    assert rc.train.loss.interval == (5.0, 35.0)


@pytest.mark.parametrize("interval", ["0, 50", "-1, 20"])
def test_count_interval_outside_the_window_is_rejected_on_load(tmp_path, interval):
    """The window check of losses.interval_bins runs as the file loads,
    not at the first sample."""
    with pytest.raises(ConfigError, match=r"run\.cfg: \[loss\] interval \(.*\) outside \[0, 30.0\] ms"):
        load_config(_write(tmp_path, f"""
[network]
architecture = 10-4

[simulation]
t_ms = 30
ts_ms = 1

[loss]
mode = count
true_count = 9
false_count = 2
interval = {interval}
"""))


def test_inline_comments_are_stripped(tmp_path):
    rc = load_config(_write(tmp_path, """
[network]
architecture = 10-4  # two layers

[simulation]
t_ms = 40 ; window
ts_ms = 1
"""))
    assert rc.architecture == "10-4"


def test_unknown_key_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="wobble"):
        load_config(_write(tmp_path, """
[network]
architecture = 10-4
wobble = 3
"""))


def test_unknown_section_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        load_config(_write(tmp_path, """
[network]
architecture = 10-4

[mystery]
x = 1
"""))


def test_missing_architecture_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="architecture"):
        load_config(_write(tmp_path, "[simulation]\nt_ms = 40\nts_ms = 1\n"))


def test_missing_config_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.cfg")


def test_optimizer_default_learning_rate_tracks_method(tmp_path):
    base = """
[network]
architecture = 10-4

[simulation]
t_ms = 40
ts_ms = 1

[optimizer]
method = {method}
"""
    sgd = load_config(_write(tmp_path, base.format(method="sgd"), "sgd.cfg"))
    adam = load_config(_write(tmp_path, base.format(method="adam"), "adam.cfg"))
    assert sgd.optimizer.method == "sgd"
    assert sgd.optimizer.learning_rate > adam.optimizer.learning_rate


@pytest.mark.parametrize("method", ["sgd", "rmsprop", "adam", "nadam"])
def test_config_optimizer_matches_its_constructor(tmp_path, method):
    text = "[network]\narchitecture = 10-4\n[simulation]\nt_ms = 40\nts_ms = 1\n"
    rc = load_config(_write(tmp_path, text + f"[optimizer]\nmethod = {method}\n", "m.cfg"))
    assert rc.optimizer == OptimizerState(method=method)


_EVERY_KEY = """
[network]
architecture = 10-4

[simulation]
t_ms = 40
ts_ms = 1

[optimizer]
method = rmsprop
learning_rate = 0.02
delay_lr_scale = 0.3
beta1 = 0.8
beta2 = 0.99
gamma = 0.7
eps_stab = 1e-6

[train]
epochs = 7
batch_size = 3
seed = 11
checkpoint_every = 2
eval_every = 4
threads = 2
"""


def test_every_optimizer_and_train_key_reaches_the_builds(tmp_path):
    rc = load_config(_write(tmp_path, _EVERY_KEY))
    opt = rc.build_optimizer()
    assert (opt.method, opt.learning_rate, opt.delay_lr_scale) == ("rmsprop", 0.02, 0.3)
    assert (opt.beta1, opt.beta2, opt.gamma, opt.eps_stab) == (0.8, 0.99, 0.7, 1e-6)
    cfg = rc.train_config()
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (7, 3, 11)
    assert (cfg.checkpoint_every, cfg.eval_every, cfg.threads) == (2, 4, 2)
    assert cfg.loss == rc.train.loss and cfg.surrogate == rc.train.surrogate
    over = rc.train_config(epochs=0, seed=5, threads=1)
    assert (over.epochs, over.seed, over.threads, over.batch_size) == (0, 5, 1, 3)
    assert rc.train_config().epochs == 7


def test_built_optimizers_share_no_state(tmp_path):
    rc = load_config(_write(tmp_path, _EVERY_KEY))
    first, second = rc.build_optimizer(), rc.build_optimizer()
    net = manual_network(
        "1-1",
        [np.array([[0.5]])],
        [np.array([1.0])],
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(10.0, 1.0),
    )
    step(first, net, Gradients([np.array([[1.0]])], [np.array([1.0])]))
    assert first.step_count == 1 and first.moment2
    assert second.step_count == 0 and not second.moment1 and not second.moment2
    assert rc.optimizer.step_count == 0 and not rc.optimizer.moment2
    assert rc.build_optimizer().step_count == 0


def _count_config(tmp_path, inputs_name):
    return _write(tmp_path, f"""
[network]
architecture = 4-3

[simulation]
t_ms = 20
ts_ms = 1

[loss]
mode = count
true_count = 4
false_count = 1

[data]
inputs = {inputs_name}
labels = labels.txt
""")


@pytest.mark.parametrize("name", ["inputs.csv", "inputs.slyr"])
def test_count_dataset_keeps_trailing_silent_samples(tmp_path, name):
    sim = SimConfig(20.0, 1.0)
    trains = (
        poisson_spike_train(4, 200.0, sim, 1),
        poisson_spike_train(4, 200.0, sim, 2),
        SpikeTrain(4, ()),
    )
    write_events(tmp_path / name, SpikeTrainSet(4, trains))
    (tmp_path / "labels.txt").write_text("0\n2\n1\n")
    data = load_config(_count_config(tmp_path, name)).load_dataset()
    assert len(data) == 3
    assert [train for train, _ in data.samples] == list(trains)
    assert [label for _, label in data.samples] == [0, 2, 1]


@pytest.mark.parametrize("name", ["inputs.csv", "inputs.slyr"])
def test_count_dataset_rejects_more_trains_than_labels(tmp_path, name):
    sim = SimConfig(20.0, 1.0)
    trains = tuple(poisson_spike_train(4, 200.0, sim, seed) for seed in range(3))
    write_events(tmp_path / name, SpikeTrainSet(4, trains))
    (tmp_path / "labels.txt").write_text("0\n2\n")
    with pytest.raises(ParseError, match="label 2 exceeds requested train count 2"):
        load_config(_count_config(tmp_path, name)).load_dataset()


def test_count_dataset_rejects_empty_labels_file(tmp_path):
    write_events(tmp_path / "inputs.csv", SpikeTrainSet(4, ()))
    (tmp_path / "labels.txt").write_text("")
    with pytest.raises(ConfigError, match="labels.txt: no labels"):
        load_config(_count_config(tmp_path, "inputs.csv")).load_dataset()


@pytest.mark.parametrize("label", ["3", "-1"])
def test_count_dataset_rejects_a_label_outside_the_output_layer(tmp_path, label):
    sim = SimConfig(20.0, 1.0)
    trains = tuple(poisson_spike_train(4, 200.0, sim, seed) for seed in range(3))
    write_events(tmp_path / "inputs.csv", SpikeTrainSet(4, trains))
    (tmp_path / "labels.txt").write_text(f"0\n# a comment\n{label}\n1\n")
    with pytest.raises(ConfigError, match=f"labels.txt:3: label {label} outside .*0..2"):
        load_config(_count_config(tmp_path, "inputs.csv")).load_dataset()


def _precise_config(tmp_path, inputs_name, targets_name):
    return _write(tmp_path, f"""
[network]
architecture = 4-3

[simulation]
t_ms = 20
ts_ms = 1

[data]
inputs = {inputs_name}
targets = {targets_name}
""")


@pytest.mark.parametrize("ext", ["csv", "slyr"])
def test_precise_dataset_keeps_silent_last_input(tmp_path, ext):
    inputs = (SpikeTrain(4, ((1, 2.5),)), SpikeTrain(4, ()))
    targets = (SpikeTrain(3, ((0, 5.5),)), SpikeTrain(3, ((2, 7.5),)))
    write_events(tmp_path / f"in.{ext}", SpikeTrainSet(4, inputs))
    write_events(tmp_path / f"tg.{ext}", SpikeTrainSet(3, targets))
    data = load_config(_precise_config(tmp_path, f"in.{ext}", f"tg.{ext}")).load_dataset()
    assert data.samples == list(zip(inputs, targets))


@pytest.mark.parametrize("ext", ["csv", "slyr"])
def test_precise_dataset_keeps_silent_last_target(tmp_path, ext):
    inputs = (SpikeTrain(4, ((1, 2.5),)), SpikeTrain(4, ((3, 4.5),)))
    targets = (SpikeTrain(3, ((0, 5.5),)), SpikeTrain(3, ()))
    write_events(tmp_path / f"in.{ext}", SpikeTrainSet(4, inputs))
    write_events(tmp_path / f"tg.{ext}", SpikeTrainSet(3, targets))
    data = load_config(_precise_config(tmp_path, f"in.{ext}", f"tg.{ext}")).load_dataset()
    assert data.samples == list(zip(inputs, targets))


@pytest.mark.parametrize("classes", [0, 4, 7])
def test_count_dataset_rejects_classes_outside_the_output_width(tmp_path, classes):
    sim = SimConfig(20.0, 1.0)
    trains = tuple(poisson_spike_train(4, 200.0, sim, seed) for seed in range(2))
    write_events(tmp_path / "inputs.csv", SpikeTrainSet(4, trains))
    (tmp_path / "labels.txt").write_text("0\n2\n")
    path = _count_config(tmp_path, "inputs.csv")
    path.write_text(path.read_text() + f"classes = {classes}\n")
    with pytest.raises(ConfigError, match=rf"run\.cfg: \[data\] classes = {classes} outside 1\.\.3"):
        load_config(path)
