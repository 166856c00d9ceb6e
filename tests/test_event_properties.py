"""Property tests: event files round-trip any set of spike trains."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from spikenet import SpikeTrain, SpikeTrainSet, read_events, write_events

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
