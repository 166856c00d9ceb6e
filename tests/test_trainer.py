"""Training loop, evaluation, metrics file, and checkpointing."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

import spikenet.trainer
from spikenet import (
    Dataset,
    Gradients,
    LayerParams,
    LossSpec,
    Network,
    NeuronConfig,
    OptimizerState,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SurrogateConfig,
    TrainConfig,
    backward,
    classify,
    evaluate,
    forward,
    init_network,
    load_checkpoint,
    loss_value,
    output_error,
    parse_architecture,
    poisson_spike_train,
    render_architecture,
    save_checkpoint,
    step,
    train,
    train_epoch,
    write_metrics,
)
from spikenet.errors import FormatError, ParameterError, ShapeError
from spikenet.trainer import METRICS_HEADER


def _counts_signal(counts, n=20):
    values = np.zeros((len(counts), n))
    for c, k in enumerate(counts):
        values[c, : int(k)] = 1.0
    return SampledSignal(values, 1.0)


def test_classify_picks_highest_count():
    cfg = SimConfig(20.0, 1.0)
    assert classify(_counts_signal([3, 7, 2]), (0.0, 20.0), cfg) == 1


def test_classify_breaks_ties_low():
    cfg = SimConfig(20.0, 1.0)
    assert classify(_counts_signal([5, 5, 1]), (0.0, 20.0), cfg) == 0
    assert classify(_counts_signal([0, 0, 0]), (0.0, 20.0), cfg) == 0


def _net(seed=0, arch="6-5-2", t_ms=30.0):
    return init_network(
        parse_architecture(arch), NeuronConfig(10.0, 2.0, 1.0), SimConfig(t_ms, 1.0),
        seed=seed,
    )


def _precise_dataset(net, n=4, seed=0):
    samples = []
    for i in range(n):
        x = poisson_spike_train(net.layer_sizes[0], 120.0, net.sim, [seed, i])
        y = poisson_spike_train(net.layer_sizes[-1], 40.0, net.sim, [seed, 50 + i])
        samples.append((x, y))
    return Dataset(samples)


def _count_dataset(net, n=6, seed=0):
    classes = net.layer_sizes[-1]
    samples = []
    for i in range(n):
        x = poisson_spike_train(net.layer_sizes[0], 120.0, net.sim, [seed, i])
        samples.append((x, i % classes))
    return Dataset(samples, class_count=classes)


def _cfg(epochs, mode="precise", **kw):
    if mode == "precise":
        loss = LossSpec("precise")
    else:
        loss = LossSpec("count", 5.0, 1.0, (0.0, 30.0))
    return TrainConfig(epochs, loss, SurrogateConfig(10.0, 0.05), **kw)


def test_dataset_validates_channels_and_labels():
    a = poisson_spike_train(6, 100.0, SimConfig(30.0, 1.0), 0)
    b = poisson_spike_train(5, 100.0, SimConfig(30.0, 1.0), 1)
    with pytest.raises(ShapeError):
        Dataset([(a, 0), (b, 1)], class_count=2)
    with pytest.raises(ParameterError):
        Dataset([(a, 7)], class_count=2)


def test_zero_learning_rate_epoch_keeps_parameters():
    net = _net()
    data = _precise_dataset(net)
    state = OptimizerState.sgd(learning_rate=0.0)
    before = [np.array(p.weights) for p in net.params]
    row = train_epoch(net, data, _cfg(1), state, epoch=1)
    assert np.isfinite(row.loss) and row.loss > 0.0
    for p, w in zip(net.params, before):
        np.testing.assert_array_equal(p.weights, w)


def test_training_reduces_loss_on_tiny_task():
    net = _net(seed=3)
    data = _precise_dataset(net, n=2, seed=5)
    state = OptimizerState.adam(learning_rate=0.01)
    rows = train(net, state, data, _cfg(30))
    assert rows[-1].loss < rows[0].loss


def test_train_rows_are_deterministic():
    def run():
        net = _net(seed=2)
        data = _precise_dataset(net, seed=5)
        state = OptimizerState.adam(learning_rate=0.005)
        rows = train(net, state, data, _cfg(5, seed=11))
        return [r.as_csv() for r in rows], [np.array(p.weights) for p in net.params]

    rows_a, params_a = run()
    rows_b, params_b = run()
    assert rows_a == rows_b
    for wa, wb in zip(params_a, params_b):
        np.testing.assert_array_equal(wa, wb)


def test_threads_do_not_change_results():
    results = []
    for threads in (1, 2):
        net = _net(seed=3)
        data = _count_dataset(net, seed=6)
        state = OptimizerState.adam(learning_rate=0.005)
        rows = train(net, state, data, _cfg(3, mode="count", threads=threads, batch_size=3))
        results.append(([r.as_csv() for r in rows], [np.array(p.weights) for p in net.params]))
    assert results[0][0] == results[1][0]
    for wa, wb in zip(results[0][1], results[1][1]):
        np.testing.assert_array_equal(wa, wb)


def test_batch_mean_of_identical_samples_equals_single_step():
    x = poisson_spike_train(6, 120.0, SimConfig(30.0, 1.0), 0)
    y = poisson_spike_train(2, 40.0, SimConfig(30.0, 1.0), 1)

    def run(samples, batch_size):
        net = _net(seed=4)
        state = OptimizerState.sgd(learning_rate=0.01)
        train(net, state, Dataset(samples), _cfg(1, batch_size=batch_size))
        return [np.array(p.weights) for p in net.params]

    doubled = run([(x, y), (x, y)], batch_size=2)
    single = run([(x, y)], batch_size=1)
    for wa, wb in zip(doubled, single):
        np.testing.assert_allclose(wa, wb, atol=1e-14)


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_mean_is_the_in_order_mean_of_per_sample_gradients(threads):
    """Streaming each sample's gradients into the batch mean gives the bits
    of averaging stacked per-sample backward results in sample order."""
    cfg = _cfg(1, batch_size=3, threads=threads, seed=9)
    net, ref = _net(seed=6), _net(seed=6)
    data = _precise_dataset(net, n=6, seed=8)
    for a, b in zip(net.params, ref.params):
        a.delays[:] = b.delays[:] = np.linspace(0.2, 0.9, len(a.delays))
    train_epoch(net, data, cfg, OptimizerState.adam(learning_rate=0.01), epoch=1)

    state = OptimizerState.adam(learning_rate=0.01)
    order = np.random.default_rng([cfg.seed, 1]).permutation(len(data))
    for start in range(0, len(order), cfg.batch_size):
        per_sample = []
        for i in order[start : start + cfg.batch_size]:
            x, target = data.samples[i]
            cache = forward(ref, x)
            e = output_error(ref, cache, cfg.loss, target=target)
            per_sample.append(backward(ref, cache, e, cfg.surrogate))
        mean = []
        for arrays in zip(*(g.weights + g.delays for g in per_sample)):
            stacked = np.stack(arrays)
            acc = np.zeros(stacked.shape[1:])
            for g in stacked:
                acc += (1.0 / len(stacked)) * g
            mean.append(acc)
        step(state, ref, Gradients(mean[: ref.n_transitions], mean[ref.n_transitions :]))
    for a, b in zip(net.params, ref.params):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.delays, b.delays)


def test_train_epoch_memory_does_not_grow_with_batch_size():
    """One batch mean and one reused gradient buffer: a batch of 8 peaks
    at most a few gradient sizes above a batch of 1."""

    def peak(batch_size):
        net = _net(seed=1, arch="300-400-2", t_ms=20.0)
        data = _precise_dataset(net, n=8, seed=2)
        state = OptimizerState.sgd(learning_rate=0.01)
        cfg = _cfg(1, batch_size=batch_size)
        train_epoch(net, data, cfg, state, epoch=1)  # warm lazily built kernels
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_epoch(net, data, cfg, state, epoch=2)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    gradient_bytes = sum(
        p.weights.nbytes + p.delays.nbytes
        for p in _net(arch="300-400-2", t_ms=20.0).params
    )
    assert gradient_bytes > 900_000
    assert peak(8) - peak(1) < 3 * gradient_bytes


def test_evaluate_is_pure_and_repeatable():
    net = _net(seed=5)
    data = _count_dataset(net, seed=7)
    before = [np.array(p.weights) for p in net.params]
    row1 = evaluate(net, data, _cfg(1, mode="count"))
    row2 = evaluate(net, data, _cfg(1, mode="count"))
    assert row1 == row2
    assert row1.accuracy is not None
    for p, w in zip(net.params, before):
        np.testing.assert_array_equal(p.weights, w)


@pytest.mark.parametrize("mode", ["precise", "count"])
def test_evaluate_loss_is_the_sample_order_mean_of_the_losses(mode):
    net = _net(seed=5)
    data = _precise_dataset(net, seed=7) if mode == "precise" else _count_dataset(net, seed=7)
    cfg = _cfg(1, mode=mode)
    total = 0.0
    for x, target in data.samples:
        total += loss_value(output_error(net, forward(net, x), cfg.loss, target))
    assert evaluate(net, data, cfg).loss == total / len(data)


def test_count_accuracy_is_the_float_share_of_samples_classified_right():
    net = _net(seed=5, arch="6-5-3")
    data = _count_dataset(net, n=9, seed=7)
    cfg = _cfg(1, mode="count")
    right = [classify(forward(net, x).spikes[-1], cfg.loss.interval, net.sim) == label
             for x, label in data.samples]
    accuracy = evaluate(net, data, cfg).accuracy
    assert type(accuracy) is float
    assert accuracy == sum(right) / len(data)
    assert 0 < sum(right) < len(data)


def test_int64_labels_write_the_metrics_of_int_labels(tmp_path):
    """numpy 2 writes an np.float64 accuracy as "np.float64(...)", so a
    numpy scalar reaching a row would change the file."""
    files = []
    for cast in (int, np.int64):
        net = _net(seed=6)
        data = _count_dataset(net, seed=8)
        data = Dataset([(x, cast(label)) for x, label in data.samples], data.class_count)
        out = tmp_path / cast.__name__
        cfg = _cfg(2, mode="count", eval_every=1)
        train(net, OptimizerState.adam(learning_rate=0.002), data, cfg, out_dir=out, eval_set=data)
        files.append((out / "metrics.csv").read_bytes())
    assert files[0] == files[1]
    assert b"np." not in files[0]


def test_metrics_file_layout(tmp_path):
    net = _net(seed=6)
    data = _count_dataset(net, seed=8)
    state = OptimizerState.adam(learning_rate=0.002)
    out = tmp_path / "run"
    train(net, state, data, _cfg(2, mode="count"), out_dir=out)
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == METRICS_HEADER == "epoch,split,loss,accuracy"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "train"
    assert float(first[2]) > 0.0
    assert first[3] != ""  # count mode reports accuracy
    # float fields round-trip exactly through repr
    assert repr(float(first[2])) == first[2]


def test_metrics_accuracy_blank_in_precise_mode(tmp_path):
    net = _net(seed=7)
    data = _precise_dataset(net, seed=9)
    state = OptimizerState.adam(learning_rate=0.002)
    out = tmp_path / "run"
    train(net, state, data, _cfg(2), out_dir=out)
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert all(line.endswith(",") for line in lines[1:])


def test_train_with_zero_epochs_writes_the_epoch_zero_rows(tmp_path):
    net = _net(seed=4)
    data, held_out = _count_dataset(net, n=3, seed=5), _count_dataset(net, n=2, seed=6)
    cfg = _cfg(0, mode="count")
    want = [evaluate(net, data, cfg, 0, "train"), evaluate(net, held_out, cfg, 0)]
    before = [np.array(p.weights) for p in net.params]
    state = OptimizerState.adam()
    out = tmp_path / "run"
    rows = train(net, state, data, cfg, out_dir=out, eval_set=held_out)
    assert rows == want and [(r.epoch, r.split) for r in rows] == [(0, "train"), (0, "eval")]
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines == [METRICS_HEADER] + [r.as_csv() for r in want]
    loaded, loaded_state, epoch = load_checkpoint(out / "checkpoint.slck")
    assert epoch == 0 and loaded_state.step_count == state.step_count == 0
    for p, q, w in zip(net.params, loaded.params, before):
        np.testing.assert_array_equal(p.weights, w)
        np.testing.assert_array_equal(q.weights, w)
    assert train(net, state, data, cfg) == want[:1]


def test_write_metrics_append(tmp_path):
    from spikenet.trainer import MetricRow

    path = tmp_path / "m.csv"
    write_metrics(path, [MetricRow(1, "train", 1.5, None)])
    write_metrics(path, [MetricRow(2, "train", 1.25, None)], append=True)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[2] == "2,train,1.25,"


def test_a_metric_row_prints_its_split_loss_and_accuracy():
    from spikenet.trainer import MetricRow

    assert str(MetricRow(3, "eval", 1234567.0, 0.25)) == "eval loss 1.23457e+06, accuracy 0.2500"
    assert str(MetricRow(3, "train", 0.5, None)) == "train loss 0.5"


def test_checkpoint_round_trip(tmp_path):
    net = _net(seed=8)
    data = _precise_dataset(net, seed=10)
    state = OptimizerState.adam(learning_rate=0.004)
    train(net, state, data, _cfg(2))
    path = tmp_path / "model.slck"
    save_checkpoint(net, state, path, epoch=2)
    loaded, loaded_state, epoch = load_checkpoint(path)
    assert epoch == 2
    assert render_architecture(loaded.spec) == render_architecture(net.spec)
    assert loaded.neuron == net.neuron
    assert loaded.sim == net.sim
    for pa, pb in zip(loaded.params, net.params):
        np.testing.assert_array_equal(pa.weights, pb.weights)
        np.testing.assert_array_equal(pa.delays, pb.delays)
    assert loaded_state.method == "adam"
    assert loaded_state.learning_rate == 0.004
    assert loaded_state.step_count == state.step_count
    for key, buf in state.moment1.items():
        np.testing.assert_array_equal(loaded_state.moment1[key], buf)
    for key, buf in state.moment2.items():
        np.testing.assert_array_equal(loaded_state.moment2[key], buf)


def test_checkpoint_preserves_frozen_transitions(tmp_path):
    net = init_network(
        parse_architecture("4x4-2a-3"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(20.0, 1.0)
    )
    net.params[0].delays[:] = np.linspace(0.0, 1.5, 16)
    path = tmp_path / "agg.slck"
    save_checkpoint(net, None, path)
    loaded, state, _ = load_checkpoint(path)
    assert state is None
    assert loaded.params[0].weights is None
    np.testing.assert_array_equal(loaded.params[0].delays, net.params[0].delays)


def test_checkpoint_rejects_corruption(tmp_path):
    net = _net(seed=9)
    path = tmp_path / "c.slck"
    save_checkpoint(net, None, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.slck"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)
    cut = tmp_path / "cut.slck"
    cut.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError):
        load_checkpoint(cut)
    long = tmp_path / "long.slck"
    long.write_bytes(path.read_bytes() + b"GARBAGE")
    with pytest.raises(FormatError, match="long.slck: 7 extra bytes after the epoch counter$"):
        load_checkpoint(long)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["weights", "delays", "moment"])
def test_checkpoint_rejects_non_finite_arrays(tmp_path, where, bad):
    net = _net(seed=9)
    state = OptimizerState.adam(learning_rate=0.004)
    step(state, net, Gradients.zeros_like(net))
    if where == "weights":
        net.params[1].weights[1, 2], name = bad, "weights of transition 1"
    elif where == "delays":
        net.params[0].delays[3], name = bad, "delays of transition 0"
    else:
        state.moment2["w1"][0, 1], name = bad, "optimizer moment m2.w1"
    path = tmp_path / "bad.slck"
    save_checkpoint(net, state, path)
    with pytest.raises(FormatError, match=f"bad.slck: non-finite values in {name}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("old, new, message", [
    # only "m1." and "m2." name a moment store
    (b"m2.w1", b"zz.w9", "'zz.w9' names no parameter"),
    # the golden net has two transitions, and its first is a frozen aggregation
    (b"m1.w1", b"m1.w9", "'m1.w9' names no parameter"),
    (b"m2.w1", b"m2.w0", "'m2.w0' names no parameter"),
    (b"m1.d1", b"m1.d0", "'m1.d0' appears twice"),
])
def test_checkpoint_rejects_a_moment_of_no_parameter_or_a_repeated_one(tmp_path, old, new, message):
    blob = _golden_checkpoint()[2]
    assert blob.count(old) == 1
    path = tmp_path / "bad.slck"
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(FormatError, match=re.escape(f"bad.slck: optimizer moment {message}") + "$"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_moment_shaped_unlike_its_parameter(tmp_path):
    net = _net(seed=9)
    state = OptimizerState.adam(learning_rate=0.004)
    step(state, net, Gradients.zeros_like(net))
    assert state.moment2["w0"].shape == (5, 6)
    state.moment2["w0"] = np.zeros((5, 5))
    path = tmp_path / "bad.slck"
    save_checkpoint(net, state, path)
    message = "bad.slck: optimizer moment 'm2.w0' has shape (5, 5), not (5, 6)"
    with pytest.raises(FormatError, match=re.escape(message) + "$"):
        load_checkpoint(path)


def test_resume_matches_uninterrupted_run(tmp_path):
    def fresh():
        net = _net(seed=10)
        data = _precise_dataset(net, seed=12)
        state = OptimizerState.adam(learning_rate=0.003)
        return net, data, state

    net_a, data, state_a = fresh()
    rows_a = train(net_a, state_a, data, _cfg(6, seed=2))

    net_b, data, state_b = fresh()
    rows_b = train(net_b, state_b, data, _cfg(3, seed=2))
    path = tmp_path / "mid.slck"
    save_checkpoint(net_b, state_b, path, epoch=3)
    net_c, state_c, epoch = load_checkpoint(path)
    rows_c = train(net_c, state_c, data, _cfg(6, seed=2), start_epoch=epoch)

    assert [r.as_csv() for r in rows_a[3:]] == [r.as_csv() for r in rows_c]
    for pa, pc in zip(net_a.params, net_c.params):
        np.testing.assert_array_equal(pa.weights, pc.weights)
        np.testing.assert_array_equal(pa.delays, pc.delays)


def test_eval_rows_and_checkpoints_follow_their_cadences(tmp_path, monkeypatch):
    saved = []
    save = spikenet.trainer.save_checkpoint

    def record(net, state, path, epoch):
        saved.append(epoch)
        save(net, state, path, epoch)

    monkeypatch.setattr(spikenet.trainer, "save_checkpoint", record)
    net = _net(seed=1)
    cfg = _cfg(5, eval_every=2, checkpoint_every=3)
    rows = train(
        net, OptimizerState.adam(learning_rate=0.01), _precise_dataset(net, n=2), cfg,
        out_dir=tmp_path, eval_set=_precise_dataset(net, n=2, seed=1),
    )
    splits = ["train", "train", "eval", "train", "train", "eval", "train"]
    assert [(r.epoch, r.split) for r in rows] == list(zip([1, 2, 2, 3, 4, 4, 5], splits))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines == [METRICS_HEADER] + [r.as_csv() for r in rows]
    assert saved == [3, 5]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch, failing):
    """A save that fails after writing part of the file, or before moving it
    into place, leaves the previous checkpoint loadable and no stray file."""
    net = _net(seed=8)
    path = tmp_path / "checkpoint.slck"
    save_checkpoint(net, None, path, epoch=1)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(f"spikenet.trainer.os.{failing}", fail)
    net.params[0].weights += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(net, None, path, epoch=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path)[2] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.slck"]


def _golden_checkpoint():
    """A net with a frozen aggregate and a dense transition, an Adam state,
    and the format-v1 bytes they must save to, packed field by field here
    rather than by the trainer."""

    def text(s):
        return struct.pack("<I", len(s)) + s.encode("utf-8")

    def array(a):
        dims = struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
        return dims + a.astype("<f8").tobytes()

    d0 = np.linspace(0.0, 1.5, 16)
    w1 = np.arange(12.0).reshape(3, 4) / 8.0 - 0.7
    d1 = np.array([0.25, 0.0, 1.75, 3.0])
    net = Network(
        parse_architecture("4x4-2a-3"),
        [LayerParams(None, d0), LayerParams(w1, d1)],
        NeuronConfig(theta=7.5, tau_s=2.25, tau_r=1.5),
        SimConfig(t_ms=20.0, ts_ms=0.5),
        cutoff=3e-5,
    )
    state = OptimizerState(
        method="adam",
        learning_rate=0.004,
        delay_lr_scale=0.2,
        beta1=0.85,
        beta2=0.995,
        gamma=0.8,
        eps_stab=1e-7,
    )
    state.step_count = 5
    state.moment1 = {"w1": w1 + 0.5, "d0": d0 + 1.5, "d1": d1 + 2.5}
    state.moment2 = {name: m * m for name, m in state.moment1.items()}

    blob = b"SLCK" + struct.pack("<H", 1) + text("4x4-2a-3")
    # theta, tau_s, tau_r, ts_ms, t_ms, cutoff
    blob += struct.pack("<6d", 7.5, 2.25, 1.5, 0.5, 20.0, 3e-5)
    # transition count, then per transition: weights flag, weights, delays
    blob += struct.pack("<I", 2)
    blob += struct.pack("<B", 0) + array(d0)
    blob += struct.pack("<B", 1) + array(w1) + array(d1)
    # optimizer flag and method, then learning_rate, delay_lr_scale,
    # beta1, beta2, gamma, eps_stab, the step count and the buffer count
    blob += struct.pack("<B", 1) + text("adam")
    blob += struct.pack("<6d", 0.004, 0.2, 0.85, 0.995, 0.8, 1e-7)
    blob += struct.pack("<Q", 5) + struct.pack("<I", 6)
    # named buffers, first moments then second, each in key order
    for prefix, store in (("m1.", state.moment1), ("m2.", state.moment2)):
        for name in ("d0", "d1", "w1"):
            blob += text(prefix + name) + array(store[name])
    blob += struct.pack("<I", 11)  # epoch
    return net, state, blob


def test_checkpoint_v1_bytes_load_and_save_back_unchanged(tmp_path):
    net, state, blob = _golden_checkpoint()
    golden = tmp_path / "golden.slck"
    golden.write_bytes(blob)
    loaded, loaded_state, epoch = load_checkpoint(golden)
    assert epoch == 11
    assert render_architecture(loaded.spec) == "4x4-2a-3"
    assert (loaded.neuron, loaded.sim, loaded.cutoff) == (net.neuron, net.sim, net.cutoff)
    assert loaded.params[0].weights is None
    for pa, pb in zip(loaded.params, net.params):
        np.testing.assert_array_equal(pa.delays, pb.delays)
    np.testing.assert_array_equal(loaded.params[1].weights, net.params[1].weights)
    for name in ("method", "learning_rate", "delay_lr_scale", "beta1", "beta2",
                 "gamma", "eps_stab", "step_count"):
        assert getattr(loaded_state, name) == getattr(state, name), name
    for store, want in ((loaded_state.moment1, state.moment1),
                        (loaded_state.moment2, state.moment2)):
        assert sorted(store) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(store[name], want[name])
    resaved = tmp_path / "resaved.slck"
    save_checkpoint(loaded, loaded_state, resaved, epoch)
    assert resaved.read_bytes() == blob
    save_checkpoint(net, state, resaved, 11)
    assert resaved.read_bytes() == blob


def _replace_once(old, new):
    def edit(blob):
        assert blob.count(old) == 1
        return blob.replace(old, new)
    return edit


def _net_constant(index, value):
    """Rewrite field ``index`` of the net record (theta, tau_s, tau_r,
    ts_ms, t_ms, cutoff), which follows magic, version and "4-6-3"."""
    offset = 4 + 2 + 4 + len("4-6-3") + 8 * index
    return lambda blob: blob[:offset] + struct.pack("<d", value) + blob[offset + 8 :]


@pytest.mark.parametrize("edit, message", [
    (_replace_once(b"adam", b"adxm"), "unknown optimizer 'adxm'"),
    (_replace_once(b"4-6-3", b"4-6-x"), "malformed layer token 'x'"),
    (_net_constant(0, np.nan), "theta must be positive and finite, got nan"),
    (_net_constant(3, 0.7), "t_ms=30.0 is not an integer multiple of ts_ms=0.7"),
    (_net_constant(5, 5.0), "cutoff must lie in (0, 1), got 5.0"),
    (_replace_once(struct.pack("<d", 0.004), struct.pack("<d", np.nan)),
     "learning_rate = nan outside [0, inf)"),
    (_replace_once(b"4-6-3", b"4-6-\xff"), "'utf-8' codec can't decode byte 0xff in position 4"),
    (lambda blob: blob[:100], "checkpoint truncated"),
], ids=["method", "architecture", "theta", "ts_ms", "cutoff", "learning_rate", "utf-8", "cut"])
def test_every_checkpoint_fault_names_the_file(tmp_path, edit, message):
    """Settings that the constructors reject, text that does not decode and
    a short file all raise one FormatError that names the checkpoint."""
    net = _net(seed=9, arch="4-6-3")
    state = OptimizerState.adam(learning_rate=0.004)
    step(state, net, Gradients.zeros_like(net))
    path = tmp_path / "c.slck"
    save_checkpoint(net, state, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {message}")):
        load_checkpoint(path)
