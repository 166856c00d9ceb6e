"""Property tests: event files round-trip any set of spike trains, in any
record order, and name the first bad record."""

import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spikenet import SpikeTrain, SpikeTrainSet, read_events, write_events
from spikenet.errors import ParseError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def spike_sets(draw):
    """Sets of up to six trains over 1-9 neurons; any train may be silent,
    the last one included."""
    count = draw(st.integers(1, 9))
    pairs = st.lists(st.tuples(st.integers(0, count - 1), times), max_size=12)
    trains = draw(st.lists(pairs, max_size=6))
    return SpikeTrainSet(count, tuple(SpikeTrain(count, p) for p in trains))


def _round_trip(sset, name, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write_events(path, sset)
        return read_events(path, **kwargs)


@pytest.mark.parametrize("name", ["events.csv", "events.slyr"])
def test_event_files_round_trip_any_set(name):
    @SETTINGS
    @given(spike_sets())
    def check(sset):
        back = _round_trip(
            sset, name, neuron_count=sset.neuron_count, train_count=len(sset)
        )
        assert back.neuron_count == sset.neuron_count
        assert len(back) == len(sset)
        for got, want in zip(back, sset):
            assert got.events == want.events
            assert got == want
        # without train_count only trailing silent trains are lost
        kept = _round_trip(sset, name, neuron_count=sset.neuron_count)
        nonempty = [i for i, train in enumerate(sset) if len(train)]
        assert len(kept) == (nonempty[-1] + 1 if nonempty else 0)
        assert kept.trains == back.trains[: len(kept)]

    check()


@SETTINGS
@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), times), max_size=20)
    )
))
def test_train_from_pairs_equals_train_from_array(case):
    count, pairs = case
    from_pairs = SpikeTrain(count, tuple(pairs))
    from_array = SpikeTrain(count, np.array(pairs, dtype=float).reshape(-1, 2))
    assert from_pairs == from_array
    assert from_pairs.events == from_array.events
    assert from_pairs.events == tuple(sorted(pairs, key=lambda e: (e[1], e[0])))


@st.composite
def shuffled_files(draw):
    """A set and a permutation of the records its file holds."""
    sset = draw(spike_sets())
    records = sum(len(train) for train in sset)
    return sset, draw(st.permutations(range(records)))


def _shuffle_records(path, order):
    """Rewrite an event file with its records in ``order``."""
    if path.suffix == ".csv":
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rows[i] for i in order))
        return
    blob = path.read_bytes()
    head = len(blob) - 16 * len(order)
    rec = np.frombuffer(blob, dtype="V16", offset=head)
    path.write_bytes(blob[:head] + rec[list(order)].tobytes())


@pytest.mark.parametrize("name", ["events.csv", "events.slyr"])
def test_event_files_read_records_in_any_order(name):
    """Labels interleaved and trains out of time order read back as written."""

    @SETTINGS
    @given(shuffled_files())
    def check(case):
        sset, order = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            write_events(path, sset)
            _shuffle_records(path, order)
            back = read_events(path, neuron_count=sset.neuron_count, train_count=len(sset))
        assert back == sset

    check()


def _large_records():
    """20 000 valid records over 34 neurons, the labels of 7 trains interleaved."""
    rng = np.random.default_rng(5)
    rec = np.zeros(20_000, dtype=[("neuron", "<u4"), ("time", "<f8"), ("label", "<i4")])
    rec["neuron"] = rng.integers(0, 34, rec.size)
    rec["time"] = rng.random(rec.size) * 300.0
    rec["label"] = np.arange(rec.size) % 7
    return rec


@pytest.mark.parametrize("field,value,problem", [
    ("time", np.nan, "neuron 3: non-finite spike time nan"),
    ("time", -0.5, "neuron 3: negative spike time -0.5"),
    ("neuron", 34, "neuron index 34 outside [0, 34)"),
])
@pytest.mark.parametrize("suffix", [".slyr", ".csv"])
def test_a_bad_record_is_named_by_its_place(tmp_path, suffix, field, value, problem):
    rec = _large_records()
    rec["neuron"][10_000] = 3
    rec[field][10_000] = value
    path = tmp_path / f"events{suffix}"
    if suffix == ".csv":
        rows = zip(rec["neuron"].tolist(), rec["time"].tolist(), rec["label"].tolist())
        path.write_text("neuron,time_ms,label\n" + "".join(f"{n},{t!r},{k}\n" for n, t, k in rows))
        place = f"line {10_000 + 2}"
    else:
        path.write_bytes(b"SLYR" + struct.pack("<HIQ", 1, 34, rec.size) + rec.tobytes())
        place = f"offset {18 + 10_000 * 16}"
    with pytest.raises(ParseError, match=re.escape(f"{path}: {place}: {problem}")):
        read_events(path, neuron_count=34)


@pytest.mark.parametrize("name", ["events.csv", "events.slyr"])
def test_read_trains_are_read_only(tmp_path, name):
    path = tmp_path / name
    write_events(path, SpikeTrainSet(3, (SpikeTrain(3, ((0, 1.0), (2, 0.5))),)))
    train = read_events(path).trains[0]
    with pytest.raises(ValueError):
        train.neurons[0] = 1
    with pytest.raises(ValueError):
        train.times[0] = 2.0
