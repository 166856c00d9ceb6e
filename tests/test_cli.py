"""Command-line entry points, exit codes, and artifact layout."""

import numpy as np
import pytest

import spikenet.backprop
import spikenet.cli
from spikenet import SimConfig, poisson_spike_train, read_events, write_events
from spikenet.cli import main

_BASE_CFG = """
[network]
architecture = 6-5-2

[simulation]
t_ms = 30
ts_ms = 1

[neuron]
theta = 10
tau_s = 2
tau_r = 1

[surrogate]
alpha = 10
beta = 0.05

[optimizer]
method = adam
learning_rate = 0.01

[loss]
mode = {mode}
{loss_extra}

[data]
inputs = inputs.csv
targets = targets.csv

[train]
epochs = {epochs}
seed = 0

[output]
dir = {out}
"""

_GRADCHECK_CFG = """
[network]
architecture = 4-6-3
gain = 1.5

[simulation]
t_ms = 30
ts_ms = 1

[neuron]
theta = 1
tau_s = 3
tau_r = 3

[surrogate]
alpha = 10
beta = 0.5

[train]
seed = 0
"""


def _write_dataset(root, channels=6, out_channels=2, count=3, t_ms=30.0):
    cfg = SimConfig(t_ms, 1.0)
    from spikenet import SpikeTrain, SpikeTrainSet

    ins, outs = [], []
    for i in range(count):
        ins.append(poisson_spike_train(channels, 120.0, cfg, [21, i]))
        outs.append(poisson_spike_train(out_channels, 40.0, cfg, [22, i]))
    write_events(root / "inputs.csv", SpikeTrainSet(channels, tuple(ins)))
    write_events(root / "targets.csv", SpikeTrainSet(out_channels, tuple(outs)))


def _train_cfg(root, epochs=2, mode="precise", loss_extra="", out="run"):
    path = root / "train.cfg"
    path.write_text(_BASE_CFG.format(mode=mode, epochs=epochs, out=out, loss_extra=loss_extra))
    return path


def test_gen_poisson_writes_deterministic_file(tmp_path):
    out = tmp_path / "in.csv"
    argv = ["gen-poisson", "--channels", "6", "--rate", "100", "--t-ms", "30",
            "--ts-ms", "1", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    assert main(argv) == 0
    assert out.read_text() == first
    sset = read_events(out)
    assert sset.neuron_count == 6
    assert len(sset.trains) == 1
    assert len(sset.trains[0].events) > 0


def test_gen_poisson_count_makes_directory(tmp_path):
    out = tmp_path / "samples"
    argv = ["gen-poisson", "--channels", "4", "--rate", "80", "--t-ms", "20",
            "--ts-ms", "1", "--seed", "1", "--count", "3", "--out", str(out)]
    assert main(argv) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["poisson0000.csv", "poisson0001.csv", "poisson0002.csv"]
    a = read_events(out / "poisson0000.csv").trains[0].events
    b = read_events(out / "poisson0001.csv").trains[0].events
    assert a != b


def test_train_writes_metrics_checkpoint_report(tmp_path, capsys):
    _write_dataset(tmp_path)
    cfg = _train_cfg(tmp_path, epochs=2)
    assert main(["train", "--config", str(cfg)]) == 0
    run = tmp_path / "run"
    metrics = (run / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "epoch,split,loss,accuracy"
    assert len(metrics) == 3
    assert (run / "checkpoint.slck").exists()
    assert (run / "report.txt").exists()
    out = capsys.readouterr().out
    assert "trained 2 epochs" in out


def test_train_epochs_zero_only_evaluates(tmp_path):
    _write_dataset(tmp_path)
    cfg = _train_cfg(tmp_path, epochs=0)
    assert main(["train", "--config", str(cfg)]) == 0
    lines = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,train,")
    assert (tmp_path / "run" / "checkpoint.slck").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert "nope.cfg" in err


def test_missing_dataset_exits_2(tmp_path, capsys):
    cfg = _train_cfg(tmp_path)  # inputs.csv never written
    code = main(["train", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert "inputs.csv" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[network]\narchitecture = 4-2\nwobble = 3\n")
    code = main(["train", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR 1:")
    assert "wobble" in err


def test_non_integer_class_count_exits_1(tmp_path, capsys):
    _write_dataset(tmp_path)
    cfg = _train_cfg(tmp_path)
    text = cfg.read_text().replace("targets = targets.csv", "targets = targets.csv\nclasses = ten")
    cfg.write_text(text)
    code = main(["train", "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err.startswith("ERROR 1: [data] classes = 'ten':")


def test_eval_runs_on_checkpoint(tmp_path, capsys):
    _write_dataset(tmp_path)
    cfg = _train_cfg(tmp_path, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "run" / "checkpoint.slck"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "loss" in out


def test_simulate_writes_rasters_and_traces(tmp_path):
    _write_dataset(tmp_path, count=1)
    cfg = _train_cfg(tmp_path, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 0
    sim_out = tmp_path / "sim"
    assert main([
        "simulate", "--config", str(cfg), "--input", str(tmp_path / "inputs.csv"),
        "--checkpoint", str(tmp_path / "run" / "checkpoint.slck"),
        "--traces", "--out", str(sim_out),
    ]) == 0
    for layer in range(3):
        assert (sim_out / f"raster_layer{layer}.csv").exists()
    raster0 = read_events(sim_out / "raster_layer0.csv")
    want = read_events(tmp_path / "inputs.csv")
    # input raster reproduces the input events up to bin centering
    assert len(raster0.trains[0].events) == len(want.trains[0].events)
    for layer in (1, 2):
        trace = np.loadtxt(sim_out / f"potential_layer{layer}.csv", delimiter=",")
        assert trace.shape[-1] == 30


def test_gradcheck_passes_on_smooth_configuration(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    code = main(["gradcheck", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if "max rel err" in l]
    assert len(lines) == 4  # weights and delays for two transitions
    assert all(l.endswith("PASS") for l in lines)


def test_gradcheck_fails_when_a_gradient_lies(tmp_path, capsys, monkeypatch):
    """Flipping the sign of one gradient component must trip the check;
    this guards the checker itself against vacuous passes."""
    real = spikenet.backprop.delay_gradient

    def flipped(*args, **kwargs):
        return -real(*args, **kwargs)

    monkeypatch.setattr(spikenet.cli, "delay_gradient", flipped, raising=False)
    monkeypatch.setattr(spikenet.backprop, "delay_gradient", flipped)
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    code = main(["gradcheck", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_gradcheck_error_grows_quadratically_with_h(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)

    def worst(h):
        main(["gradcheck", "--config", str(cfg), "--h", str(h), "--tol", "1"])
        out = capsys.readouterr().out
        errs = [float(l.split("max rel err")[1].split()[0])
                for l in out.strip().splitlines() if "max rel err" in l]
        return max(errs)

    coarse, fine = worst(1e-2), worst(1e-3)
    assert 20.0 < coarse / fine < 500.0


def test_simulate_reads_input_with_the_network_input_width(tmp_path):
    """An input file whose highest-index neuron is silent still has the
    network's input width."""
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    (tmp_path / "in.csv").write_text("neuron,time_ms,label\n0,2.5,0\n1,7.5,0\n")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--input", str(tmp_path / "in.csv"),
                 "--out", str(sim_out)]) == 0
    assert read_events(sim_out / "raster_layer0.csv").trains[0].events == ((0, 2.5), (1, 7.5))


def test_simulate_lists_same_bin_input_events_at_the_bin_centre(tmp_path):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    (tmp_path / "in.csv").write_text(
        "neuron,time_ms,label\n3,4.2,0\n3,4.9,0\n0,10.0,0\n"
    )
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--input", str(tmp_path / "in.csv"),
                 "--out", str(sim_out)]) == 0
    raster0 = read_events(sim_out / "raster_layer0.csv")
    assert raster0.trains[0].events == ((3, 4.5), (3, 4.5), (0, 10.5))
