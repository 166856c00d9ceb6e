"""Spike containers, grid conversions, Poisson generation and event files."""

import struct

import numpy as np
import pytest

from spikenet import (
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    poisson_spike_train,
    read_events,
    spikes_to_signal,
    write_events,
)
from spikenet.errors import (
    ParameterError,
    ParseError,
    RangeError,
)


def test_sim_config_grid():
    cfg = SimConfig(50.0, 1.0)
    assert cfg.n_samples == 50
    assert cfg.bin_of(0.0) == 0
    assert cfg.bin_of(0.999) == 0
    assert cfg.bin_of(1.0) == 1
    assert cfg.bin_center(0) == 0.5
    assert cfg.bin_center(49) == 49.5


def test_sim_config_clamps_out_of_window_times():
    cfg = SimConfig(50.0, 1.0)
    assert cfg.bin_of(-3.0) == 0
    assert cfg.bin_of(50.0) == 49
    assert cfg.bin_of(1e9) == 49


def test_sim_config_fractional_step():
    cfg = SimConfig(10.0, 0.5)
    assert cfg.n_samples == 20
    assert cfg.bin_of(0.49) == 0
    assert cfg.bin_of(0.5) == 1
    assert cfg.bin_center(1) == 0.75


@pytest.mark.parametrize(
    "t_ms,ts_ms",
    [
        (50.0, 0.3), (0.0, 1.0), (50.0, -1.0), (10.0, 20.0),
        # grids that are not finite, or hold no sample
        (np.inf, 1.0), (1.0, np.inf), (np.inf, np.inf), (1.0, 1e-320), (1e-320, 1.0),
    ],
)
def test_sim_config_rejects_bad_grid(t_ms, ts_ms):
    with pytest.raises(ParameterError):
        SimConfig(t_ms, ts_ms)


def test_spike_train_sorts_events():
    tr = SpikeTrain(3, ((0, 5.5), (2, 1.25), (0, 0.0)))
    assert tr.events == ((0, 0.0), (2, 1.25), (0, 5.5))


def test_spike_train_rejects_bad_events():
    with pytest.raises(ParameterError):
        SpikeTrain(2, ((2, 1.0),))
    with pytest.raises(ParameterError):
        SpikeTrain(2, ((0, -1.0),))
    with pytest.raises(ParameterError, match="not an integer"):
        SpikeTrain(2, ((0.5, 1.0),))
    with pytest.raises(ParameterError, match="pairs"):
        SpikeTrain(2, ((0, 1.0, 2.0),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_spike_train_rejects_non_finite_times(bad):
    with pytest.raises(ParameterError, match=f"neuron 1: non-finite spike time {bad}"):
        SpikeTrain(2, ((0, 2.5), (1, bad)))


def test_spike_train_stores_read_only_sorted_arrays():
    tr = SpikeTrain(3, np.array([[0, 5.5], [2, 1.25], [1, 1.25], [0, 0.0]]))
    assert tr.neurons.tolist() == [0, 1, 2, 0]
    assert tr.times.tolist() == [0.0, 1.25, 1.25, 5.5]
    assert len(tr) == 4
    assert all(type(n) is int and type(t) is float for n, t in tr.events)
    with pytest.raises(ValueError):
        tr.times[0] = 1.0
    with pytest.raises(AttributeError):
        tr.neuron_count = 4


def test_spike_train_equality_ignores_input_form():
    pairs = ((1, 3.0), (0, 3.0), (2, 0.5))
    a = SpikeTrain(3, pairs)
    b = SpikeTrain(3, np.array(pairs))
    c = SpikeTrain(3, (pair for pair in reversed(pairs)))
    assert a == b == c and hash(a) == hash(b)
    assert a != SpikeTrain(4, pairs)
    assert a != SpikeTrain(3, pairs[:2])
    assert SpikeTrain(2, ()) == SpikeTrain(2, np.empty((0, 2)))


def test_spikes_to_signal_amplitude_is_one_over_ts():
    tr = SpikeTrain(1, ((0, 0.0),))
    assert spikes_to_signal(tr, SimConfig(10.0, 1.0)).values[0, 0] == 1.0
    assert spikes_to_signal(tr, SimConfig(10.0, 0.5)).values[0, 0] == 2.0


def test_spikes_to_signal_places_events_in_their_bins():
    cfg = SimConfig(10.0, 1.0)
    tr = SpikeTrain(2, ((0, 3.2), (1, 7.9)))
    sig = spikes_to_signal(tr, cfg)
    assert sig.values[0, 3] == 1.0
    assert sig.values[1, 7] == 1.0
    assert np.count_nonzero(sig.values) == 2


@pytest.mark.parametrize("ts_ms", [1.0, 0.5])
def test_grid_preserves_spike_count(ts_ms):
    cfg = SimConfig(40.0, ts_ms)
    rng = np.random.default_rng(11)
    events = tuple(
        (int(rng.integers(0, 5)), float(rng.uniform(0, 39.9))) for _ in range(60)
    )
    tr = SpikeTrain(5, events)
    sig = spikes_to_signal(tr, cfg)
    # integrating the signal recovers the event count exactly
    assert sig.values.sum() * ts_ms == pytest.approx(60.0, abs=1e-12)


@pytest.mark.parametrize("ts_ms", [1.0, 0.3])
def test_spikes_to_signal_matches_scalar_binning(ts_ms):
    """Repeated and coincident events add 1/Ts each, in event order."""
    cfg = SimConfig(30.0 * ts_ms, ts_ms)
    rng = np.random.default_rng(4)
    events = [(int(rng.integers(0, 3)), float(rng.integers(0, 31)) * ts_ms) for _ in range(200)]
    tr = SpikeTrain(3, events)
    want = np.zeros((3, cfg.n_samples))
    for neuron, time in tr.events:
        want[neuron, cfg.bin_of(time)] += 1.0 / ts_ms
    assert np.array_equal(spikes_to_signal(tr, cfg).values, want)


def test_spikes_to_signal_rejects_event_past_window():
    with pytest.raises(RangeError):
        spikes_to_signal(SpikeTrain(1, ((0, 60.0),)), SimConfig(50.0, 1.0))


def test_poisson_zero_rate_is_silent():
    assert poisson_spike_train(8, 0.0, SimConfig(50.0, 1.0), 0).events == ()


def test_poisson_deterministic_per_seed():
    cfg = SimConfig(50.0, 1.0)
    a = poisson_spike_train(4, 100.0, cfg, 3)
    b = poisson_spike_train(4, 100.0, cfg, 3)
    c = poisson_spike_train(4, 100.0, cfg, 4)
    assert a.events == b.events
    assert a.events != c.events


def test_poisson_rate_statistics():
    """Total event count over many bins sits within 3 sigma of the
    binomial expectation n*p with p = rate * Ts."""
    cfg = SimConfig(100.0, 1.0)
    n, p = 100 * 100, 0.1  # 100 channels x 100 bins at 100 Hz
    count = len(poisson_spike_train(100, 100.0, cfg, 12345).events)
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(count - n * p) < 3 * sigma


def test_poisson_events_on_bin_centers():
    cfg = SimConfig(50.0, 1.0)
    tr = poisson_spike_train(6, 80.0, cfg, 7)
    for _, t in tr.events:
        assert (t - 0.5) == int(t - 0.5)


def test_poisson_rejects_rate_above_grid():
    with pytest.raises(ParameterError):
        poisson_spike_train(2, 2000.0, SimConfig(50.0, 1.0), 0)


@pytest.mark.parametrize("seed", [-1, [3, -1]], ids=["int", "sequence"])
def test_poisson_rejects_a_negative_seed(seed):
    """numpy's own error for a negative seed is a bare ValueError."""
    with pytest.raises(ParameterError, match=r"^seed must be >= 0, got "):
        poisson_spike_train(3, 10.0, SimConfig(20.0, 1.0), seed)


def _random_set(seed, trains=5, channels=9):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trains):
        events = tuple(
            (int(rng.integers(0, channels)), round(float(rng.uniform(0, 49.9)), 3))
            for _ in range(int(rng.integers(1, 40)))
        )
        out.append(SpikeTrain(channels, events))
    return SpikeTrainSet(channels, tuple(out))


@pytest.mark.parametrize("name", ["events.csv", "events.slyr"])
def test_event_files_round_trip(tmp_path, name):
    for seed in range(3):
        sset = _random_set(seed)
        path = tmp_path / f"{seed}_{name}"
        write_events(path, sset)
        back = read_events(path)
        assert back.neuron_count == sset.neuron_count
        assert len(back.trains) == len(sset.trains)
        for got, want in zip(back.trains, sset.trains):
            assert got.events == want.events


def test_csv_layout(tmp_path):
    path = tmp_path / "one.csv"
    sset = SpikeTrainSet(4, (SpikeTrain(4, ((3, 12.5),)),))
    write_events(path, sset)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "neuron,time_ms,label"
    assert lines[1].startswith("3,12.5")


def test_csv_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("neuron,time_ms,label\n1,oops,0\n")
    with pytest.raises(ParseError):
        read_events(path)


@pytest.mark.parametrize(
    "row", ["1,oops,0", "1,2.5", "1,2.5,0,0", "1.5,2.5,0", "1,2.5,-1", "#,1,2"]
)
def test_csv_error_names_the_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"neuron,time_ms,label\n0,1.5,0\n\n  \n2,3.5,1\n{row}\n4,4.5,1\n")
    with pytest.raises(ParseError, match=f"bad.csv: line 6: .*{row!r}"):
        read_events(path)


def test_event_file_layouts_are_pinned(tmp_path):
    """v1 files: CSV rows and little-endian (u32, f64, i32) records, in
    train order then (time, neuron) order; silent trains leave nothing."""
    sset = SpikeTrainSet(3, (
        SpikeTrain(3, ((0, 1.5), (2, 0.1))),
        SpikeTrain(3, ()),
        SpikeTrain(3, ((1, 12.25),)),
    ))
    write_events(tmp_path / "s.csv", sset)
    assert (tmp_path / "s.csv").read_text() == (
        "neuron,time_ms,label\n2,0.1,0\n0,1.5,0\n1,12.25,2\n"
    )
    write_events(tmp_path / "s.slyr", sset)
    records = [(2, 0.1, 0), (0, 1.5, 0), (1, 12.25, 2)]
    assert (tmp_path / "s.slyr").read_bytes() == b"SLYR" + struct.pack(
        "<HIQ", 1, 3, 3
    ) + b"".join(struct.pack("<Idi", *r) for r in records)


def test_csv_header_only_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("neuron,time_ms,label\n")
    sset = read_events(path, neuron_count=5, train_count=2)
    assert sset.neuron_count == 5
    assert len(sset.trains) == 2
    assert all(tr.events == () for tr in sset.trains)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.slyr"
    write_events(path, _random_set(0))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="magic"):
        read_events(path)


def test_binary_negative_label_names_the_record(tmp_path):
    path = tmp_path / "neg.slyr"
    write_events(path, SpikeTrainSet(2, (SpikeTrain(2, ((0, 1.5), (1, 2.5), (0, 3.5))),)))
    blob = bytearray(path.read_bytes())
    head, size = 18, 16  # header, then (u32 neuron, f64 time, i32 label) records
    blob[head + size + 12 : head + 2 * size] = struct.pack("<i", -1)
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=f"neg.slyr: offset {head + size}: negative label -1"):
        read_events(path)


def test_csv_event_outside_the_neuron_count_names_the_line(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("neuron,time_ms,label\n0,1.5,0\n\n3,2.5,0\n5,3.5,1\n")
    with pytest.raises(ParseError, match=r"wide.csv: line 5: neuron index 5 outside \[0, 4\)"):
        read_events(path, neuron_count=4)


def test_binary_event_outside_the_neuron_count_names_the_record(tmp_path):
    path = tmp_path / "wide.slyr"
    write_events(path, SpikeTrainSet(4, (SpikeTrain(4, ((0, 1.5), (3, 2.5), (1, 4.0))),)))
    blob = bytearray(path.read_bytes())
    head, size = 18, 16  # header, then (u32 neuron, f64 time, i32 label) records
    blob[head + size : head + size + 4] = struct.pack("<I", 7)
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=rf"wide.slyr: offset {head + size}: neuron index 7"):
        read_events(path)


def test_binary_truncated(tmp_path):
    path = tmp_path / "cut.slyr"
    write_events(path, _random_set(1))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(ParseError, match="offset"):
        read_events(path)


def test_read_events_pads_trailing_silent_trains(tmp_path):
    """A trailing all-silent train leaves no rows in the file, so the
    reader needs the expected count to restore the pairing."""
    sset = SpikeTrainSet(3, (SpikeTrain(3, ((0, 1.5),)), SpikeTrain(3, ())))
    for path in (tmp_path / "pad.csv", tmp_path / "pad.slyr"):
        write_events(path, sset)
        assert len(read_events(path).trains) == 1
        assert read_events(path, neuron_count=3, train_count=2) == sset


def test_read_events_rejects_label_beyond_train_count(tmp_path):
    path = tmp_path / "over.csv"
    path.write_text("neuron,time_ms,label\n0,1.5,3\n")
    with pytest.raises(ParseError):
        read_events(path, train_count=2)
