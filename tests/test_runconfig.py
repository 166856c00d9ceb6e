"""Configuration file loading and defaults."""

import pytest

from spikenet import (
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    load_config,
    poisson_spike_train,
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
    assert rc.surrogate.alpha == 10.0
    assert rc.surrogate.beta == pytest.approx(5.0 / rc.neuron.theta)
    assert rc.loss.mode == "precise"
    assert rc.optimizer_method == "adam"
    assert rc.epochs == 100
    assert rc.out_dir == "runs"


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
    assert rc.loss.interval == (0.0, 40.0)
    assert rc.loss.true_count == 9.0


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
    assert rc.loss.interval == (5.0, 35.0)


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
    assert sgd.optimizer_method == "sgd"
    assert sgd.learning_rate > adam.learning_rate


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
