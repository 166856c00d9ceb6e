"""Command-line entry points, exit codes, and artifact layout."""

import re

import numpy as np
import pytest

import spikenet.backprop
import spikenet.cli
import spikenet.losses
from spikenet import (
    SimConfig,
    load_config,
    poisson_spike_train,
    read_events,
    save_checkpoint,
    write_events,
)
from spikenet.cli import build_parser, main
from spikenet.runconfig import _KEYS

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


def test_gen_poisson_rejects_a_nan_rate(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["gen-poisson", "--channels", "3", "--rate", "nan", "--t-ms", "20",
            "--ts-ms", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "ERROR 1: rate_hz must be >= 0 and finite, got nan\n"
    assert captured.out == ""
    assert not out.exists()


def test_gen_poisson_makes_no_directory_for_a_nan_rate(tmp_path, capsys):
    out = tmp_path / "d"
    argv = ["gen-poisson", "--channels", "3", "--rate", "nan", "--t-ms", "20",
            "--ts-ms", "1", "--count", "2", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "ERROR 1: rate_hz must be >= 0 and finite, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_poisson_rejects_a_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "d"
    argv = ["gen-poisson", "--channels", "3", "--rate", "50", "--t-ms", "20",
            "--ts-ms", "1", "--count", count, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ERROR 1: --count must be >= 1, got {count}\n"
    assert captured.out == ""
    assert not out.exists()


def test_gen_poisson_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["gen-poisson", "--channels", "3", "--rate", "50", "--t-ms", "20",
            "--ts-ms", "1", "--seed", "-3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "ERROR 1: --seed must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["in.CSV", "in.SLYR"])
def test_gen_poisson_reads_the_file_suffix_in_any_case(tmp_path, name):
    out = tmp_path / name
    argv = ["gen-poisson", "--channels", "3", "--rate", "200", "--t-ms", "20",
            "--ts-ms", "1", "--out", str(out)]
    assert main(argv) == 0
    assert out.is_file()
    assert len(read_events(out).trains) == 1


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
    assert capsys.readouterr().err.startswith(f"ERROR 1: {cfg}: [data] classes = 'ten':")


def _count_run(tmp_path, labels="0\n2\n", loss_extra="", data_extra=""):
    """argv of a one-epoch count-mode train of the 4-6-3 net on two samples."""
    cfg = tmp_path / "count.cfg"
    cfg.write_text(_GRADCHECK_CFG + f"""
[loss]
mode = count
true_count = 4
false_count = 1
{loss_extra}

[data]
inputs = inputs.csv
labels = labels.txt
{data_extra}
""")
    _write_dataset(tmp_path, channels=4, count=2)
    (tmp_path / "labels.txt").write_text(labels)
    return ["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "run")]


def test_train_rejects_a_label_outside_the_output_layer(tmp_path, capsys):
    """classes defaults to the largest label + 1, so only the output width
    catches a label of 3 on a 4-6-3 net."""
    code = main(_count_run(tmp_path, labels="0\n3\n"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR 1: ") and err.count("\n") == 1
    assert "labels.txt:2: label 3 outside" in err


def test_train_rejects_classes_above_the_output_width(tmp_path, capsys):
    assert main(_count_run(tmp_path, data_extra="classes = 7")) == 1
    err = capsys.readouterr().err
    cfg = tmp_path / "count.cfg"
    assert err.startswith(f"ERROR 1: {cfg}: [data] classes = 7 outside 1..3") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_train_rejects_an_interval_outside_the_window_before_reading_data(tmp_path, capsys):
    assert main(_count_run(tmp_path, loss_extra="interval = 0, 50")) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR 1: {tmp_path / 'count.cfg'}: [loss] interval (0.0, 50.0) outside [0, 30.0] ms\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_rejects_a_non_finite_count_before_reading_data(tmp_path, capsys, value):
    argv = _count_run(tmp_path)
    cfg = tmp_path / "count.cfg"
    cfg.write_text(cfg.read_text().replace("true_count = 4", f"true_count = {value}"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR 1: {cfg}: [loss] count loss true_count must be finite, got {value}\n"
    assert not (tmp_path / "run").exists()


def test_eval_rejects_a_checkpoint_with_trailing_bytes(tmp_path, capsys):
    _write_dataset(tmp_path)
    cfg = _train_cfg(tmp_path, epochs=0)
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "run" / "checkpoint.slck"
    ckpt.write_bytes(ckpt.read_bytes() + b"GARBAGE")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR 1: {ckpt}: 7 extra bytes after the epoch counter\n"


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


def test_gradcheck_checks_a_count_config_under_the_count_loss(tmp_path, capsys, monkeypatch):
    """A [loss] count config builds a count error for the analytic pass
    and for both probes of each of the 4-6-3 net's 52 parameters."""
    desired = []
    real = spikenet.losses.error_count

    def recorded(s_out, counts, interval, config):
        desired.append(sorted(counts))
        return real(s_out, counts, interval, config)

    monkeypatch.setattr(spikenet.losses, "error_count", recorded)
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG + "\n[loss]\nmode = count\ntrue_count = 5\nfalse_count = 1\n")
    code = main(["gradcheck", "--config", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("gradient check passed")
    assert desired == [[1.0, 1.0, 5.0]] * (1 + 2 * 52)


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--h", "0", "h must be positive and finite, got 0.0"),
        ("--h", "nan", "h must be positive and finite, got nan"),
        ("--tol", "nan", "tol must be positive and finite, got nan"),
        ("--tol", "-1", "tol must be positive and finite, got -1.0"),
    ],
)
def test_gradcheck_rejects_a_bad_step_or_tolerance(tmp_path, capsys, flag, value, message):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    assert main(["gradcheck", "--config", str(cfg), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ERROR 1: {message}\n"
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--checkpoint", "c.slck", "--seed", "3"],
        ["eval", "--checkpoint", "c.slck", "--out", "o"],
        ["simulate", "--input", "in.csv", "--threads", "2"],
        ["gradcheck", "--threads", "2"],
        ["gradcheck", "--out", "o"],
    ],
)
def test_subcommands_reject_overrides_they_would_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(tmp_path / "run.cfg"), *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_reports_a_non_finite_delay(tmp_path, capsys, bad):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    net = load_config(cfg).build_network()
    net.params[1].delays[2] = bad
    save_checkpoint(net, None, tmp_path / "bad.slck")
    (tmp_path / "in.csv").write_text("neuron,time_ms,label\n0,2.5,0\n")
    code = main(["simulate", "--config", str(cfg), "--input", str(tmp_path / "in.csv"),
                 "--checkpoint", str(tmp_path / "bad.slck"), "--out", str(tmp_path / "sim")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"ERROR 1: {tmp_path / 'bad.slck'}: non-finite values in delays of transition 1\n"


def test_simulate_rejects_an_infinite_window(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG.replace("t_ms = 30", "t_ms = inf"))
    (tmp_path / "in.csv").write_text("neuron,time_ms,label\n0,2.5,0\n")
    code = main(["simulate", "--config", str(cfg), "--input", str(tmp_path / "in.csv"),
                 "--out", str(tmp_path / "sim")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"ERROR 1: {cfg}: [simulation] t_ms=inf, ts_ms=1.0 is not a finite grid\n"


def test_simulate_rejects_a_non_finite_time_constant(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG.replace("tau_s = 3", "tau_s = nan"))
    (tmp_path / "in.csv").write_text("neuron,time_ms,label\n0,2.5,0\n")
    code = main(["simulate", "--config", str(cfg), "--input", str(tmp_path / "in.csv"),
                 "--out", str(tmp_path / "sim")])
    assert code == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: [neuron] tau_s must be positive and finite, got nan\n"


def test_gradcheck_fails_when_it_compared_nothing(tmp_path, capsys):
    """At beta 60 the surrogate is so narrow that every finite difference
    is 0.0, and so every relative error sits under its floor."""
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG.replace("beta = 0.5", "beta = 60"))
    assert main(["gradcheck", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "gradient check passed" not in captured.out
    assert captured.err == (
        "ERROR 1: gradient check compared nothing: the largest finite difference, "
        "0.000e+00, is below 1e-08\n"
    )


@pytest.mark.parametrize(
    "command, message",
    [
        ("train", "no 'inputs' key in [data]; nothing to train on"),
        ("eval", "no eval_inputs or inputs in [data]; nothing to evaluate"),
    ],
)
def test_commands_without_data_exit_1(tmp_path, capsys, command, message):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    save_checkpoint(load_config(cfg).build_network(), None, tmp_path / "c.slck")
    extra = ["--checkpoint", str(tmp_path / "c.slck")] if command == "eval" else []
    assert main([command, "--config", str(cfg), *extra]) == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: {message}\n"


def test_count_mode_report_holds_the_final_accuracy(tmp_path, capsys):
    assert main(_count_run(tmp_path)) == 0
    row = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert row[:2] == ["1", "train"]
    report = (tmp_path / "run" / "report.txt").read_text().splitlines()
    assert report[-2:] == [f"final train loss: {row[2]}", f"final train accuracy: {row[3]}"]
    assert f"accuracy {float(row[3]):.4f}" in capsys.readouterr().out


def _one_error_line(capsys, code, path):
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1
    assert str(path) in err
    return err


def test_simulate_reports_an_input_that_is_a_directory(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    (tmp_path / "events").mkdir()
    argv = ["simulate", "--config", str(cfg), "--input", str(tmp_path / "events"),
            "--out", str(tmp_path / "sim")]
    assert main(argv) == 2
    _one_error_line(capsys, 2, tmp_path / "events")


def test_eval_reports_a_checkpoint_that_is_a_directory(tmp_path, capsys):
    _write_dataset(tmp_path)
    cfg = _train_cfg(tmp_path)
    (tmp_path / "ckpt").mkdir()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "ckpt")]) == 2
    _one_error_line(capsys, 2, tmp_path / "ckpt")


def test_simulate_reports_an_event_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    events = tmp_path / "in.csv"
    events.write_bytes(b"neuron,time_ms,label\n0,2.5,0\n1,\xff,0\n")
    argv = ["simulate", "--config", str(cfg), "--input", str(events),
            "--out", str(tmp_path / "sim")]
    assert main(argv) == 1
    err = _one_error_line(capsys, 1, events)
    assert f"{events}: line 3: not UTF-8 text" in err


def test_train_reports_a_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_bytes(_GRADCHECK_CFG.encode() + b"# caf\xe9\n")
    assert main(["train", "--config", str(cfg)]) == 1
    _one_error_line(capsys, 1, cfg)


def test_train_reports_a_labels_file_that_is_not_utf8(tmp_path, capsys):
    argv = _count_run(tmp_path)
    (tmp_path / "labels.txt").write_bytes(b"0\n\xff\n")
    assert main(argv) == 1
    err = _one_error_line(capsys, 1, tmp_path / "labels.txt")
    assert "line 2: not UTF-8 text" in err


def test_train_rejects_the_cutoff_before_reading_data(tmp_path, capsys):
    """No dataset is written: reading one would exit 2 instead."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text(_BASE_CFG.format(mode="precise", epochs=1, out="run", loss_extra="")
                   .replace("architecture = 6-5-2", "architecture = 6-5-2\ncutoff = 2"))
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: [network] cutoff must lie in (0, 1), got 2.0\n"
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_a_nan_cutoff_before_making_its_output(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG.replace("gain = 1.5", "gain = 1.5\ncutoff = nan"))
    (tmp_path / "in.csv").write_text("neuron,time_ms,label\n0,2.5,0\n")
    argv = ["simulate", "--config", str(cfg), "--input", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "sim")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: [network] cutoff must lie in (0, 1), got nan\n"
    assert not (tmp_path / "sim").exists()


def test_eval_names_the_config_of_a_malformed_architecture(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    save_checkpoint(load_config(cfg).build_network(), None, tmp_path / "c.slck")
    cfg.write_text(_GRADCHECK_CFG.replace("4-6-3", "4-6-x"))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "c.slck")]) == 1
    err = _one_error_line(capsys, 1, cfg)
    assert err == f"ERROR 1: {cfg}: [network] architecture: malformed layer token 'x'\n"


@pytest.mark.parametrize(
    "old, new, located",
    [
        ("gain = 1.5", "gain = 1.5\ncutoff = 2", "[network] cutoff must lie in (0, 1), got 2.0"),
        ("seed = 0", "seed = 0\n[data]\nclasses = ten",
         "[data] classes = 'ten': invalid literal for int() with base 10: 'ten'"),
        ("seed = 0", "seed = 0\n[loss]\nmode = count\ntrue_count = 4\nfalse_count = 1\n"
         "interval = 0, 50",
         "[loss] interval (0.0, 50.0) outside [0, 30.0] ms"),
        ("ts_ms = 1", "ts_ms = 0", "[simulation] t_ms and ts_ms must be positive"),
        ("alpha = 10", "alpha = -1", "[surrogate] alpha must be positive and finite, got -1.0"),
        ("seed = 0", "seed = 0\n[optimizer]\nbeta1 = 1",
         "[optimizer] beta1 = 1.0 outside [0, 1)"),
        ("seed = 0", "seed = 0\nbatch_size = 0",
         "[train] epochs must be >= 0, batch_size and threads must be >= 1"),
    ],
    ids=["cutoff", "classes", "interval", "simulation", "surrogate", "optimizer", "train"],
)
def test_a_bad_config_value_names_the_file_and_its_section(tmp_path, capsys, old, new, located):
    """eval builds no network, so a cutoff is checked as the file loads."""
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    save_checkpoint(load_config(cfg).build_network(), None, tmp_path / "c.slck")
    cfg.write_text(_GRADCHECK_CFG.replace(old, new))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "c.slck")]) == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: {located}\n"


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize(
    "old, new, field",
    [
        ("t_ms = 30", "t_ms = 20", "[simulation] t_ms = 20.0, but checkpoint {} holds 30.0"),
        ("architecture = 4-6-3", "architecture = 6-5-2",
         "[network] architecture = 6-5-2, but checkpoint {} holds 4-6-3"),
        ("tau_r = 3", "tau_r = 2", "[neuron] tau_r = 2.0, but checkpoint {} holds 3.0"),
        ("gain = 1.5", "gain = 1.5\ncutoff = 0.001",
         "[network] cutoff = 0.001, but checkpoint {} holds 1e-06"),
    ],
    ids=["t_ms", "architecture", "tau_r", "cutoff"],
)
def test_a_config_that_disagrees_with_the_checkpoint_is_named(
    tmp_path, capsys, command, old, new, field
):
    """Checked before any data is read: the data files here do not exist."""
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    ckpt = tmp_path / "c.slck"
    save_checkpoint(load_config(cfg).build_network(), None, ckpt)
    cfg.write_text(_GRADCHECK_CFG.replace(old, new) + "[data]\ninputs = gone.csv\ntargets = gone.csv\n")
    argv = [command, "--config", str(cfg), "--checkpoint", str(ckpt)]
    if command == "simulate":
        argv += ["--input", str(tmp_path / "gone.csv"), "--out", str(tmp_path / "sim")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: {field.format(ckpt)}\n"
    assert not (tmp_path / "sim").exists()


def _seed_argv(tmp_path, command, cfg):
    """argv of ``command`` on ``cfg``; simulate's input need not exist, as
    the seed is checked before it is read."""
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--input", str(tmp_path / "gone.csv"), "--out", str(tmp_path / "sim")]
    return argv


@pytest.mark.parametrize("command", ["train", "simulate", "gradcheck"])
def test_a_negative_seed_flag_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG)
    assert main(_seed_argv(tmp_path, command, cfg) + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "ERROR 1: seed must be >= 0, got -1\n"
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("command", ["train", "simulate", "gradcheck"])
def test_a_negative_seed_key_names_the_config(tmp_path, capsys, command):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(_GRADCHECK_CFG.replace("seed = 0", "seed = -1"))
    assert main(_seed_argv(tmp_path, command, cfg)) == 1
    assert capsys.readouterr().err == f"ERROR 1: {cfg}: [train] seed must be >= 0, got -1\n"


def test_config_paths_resolve_next_to_the_config_and_out_against_the_cwd(
    tmp_path, capsys, monkeypatch
):
    """Relative [data] files and [output] dir name files beside the config,
    wherever the command runs; an absolute dir and --out are taken as given."""
    conf, work = tmp_path / "conf", tmp_path / "work"
    conf.mkdir()
    work.mkdir()
    _write_dataset(conf)
    monkeypatch.chdir(work)
    cfg = "../conf/train.cfg"
    _train_cfg(conf, epochs=1, out="run")
    assert main(["train", "--config", cfg]) == 0
    run = conf.resolve() / "run"
    assert f"metrics: {run / 'metrics.csv'}; checkpoint: {run / 'checkpoint.slck'}" in (
        capsys.readouterr().out
    )
    assert (run / "metrics.csv").is_file()
    _train_cfg(conf, epochs=1, out=tmp_path / "absolute")
    assert main(["train", "--config", cfg]) == 0
    assert (tmp_path / "absolute" / "metrics.csv").is_file()
    assert main(["train", "--config", cfg, "--out", "flag"]) == 0
    assert (work / "flag" / "metrics.csv").is_file()
    assert sorted(p.name for p in work.iterdir()) == ["flag"]


def test_help_lists_every_config_section_and_key():
    """The help's key reference is written by hand; it must not drift from
    the keys load_config reads."""
    reference = build_parser().format_help().split("configuration file sections and keys")[1]
    parts = re.split(r"^  \[(\w+)\]", reference, flags=re.M)
    listed = {name: set(re.findall(r"\w+", text)) for name, text in zip(parts[1::2], parts[2::2])}
    assert list(listed) == list(_KEYS)
    for section, keys in _KEYS.items():
        assert set(keys) <= listed[section], section
