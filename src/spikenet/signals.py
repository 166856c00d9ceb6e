"""Spike trains, sampled signals, Poisson generation and event file I/O.

All times are milliseconds.  Spike events are discrete (neuron, time)
pairs; sampled signals live on a uniform grid with period ``ts_ms``.
When a spike train is laid onto the grid, each event occupies one bin
with amplitude ``1/Ts`` so that a Ts-weighted sum over bins recovers
the spike count (unit Dirac area).  Events are stamped at bin centers
on generation and binned with floor(time/Ts) clamped to the window, so
generate -> discretize -> export round-trips exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    ParameterError,
    ParseError,
    RangeError,
    ShapeError,
    require_positive,
)

_EVENT_DTYPE = np.dtype([("neuron", "<u4"), ("time", "<f8"), ("label", "<i4")])
# Unsigned labels make the C parser reject a negative label with its line.
_CSV_DTYPE = np.dtype([("neuron", "<i8"), ("time", "<f8"), ("label", "<u4")])
_BINARY_MAGIC = b"SLYR"
_BINARY_VERSION = 1
_CSV_HEADER = "neuron,time_ms,label"


@dataclass(frozen=True)
class SimConfig:
    """Simulation window of ``t_ms`` milliseconds sampled every ``ts_ms``."""

    t_ms: float
    ts_ms: float

    def __post_init__(self):
        if not (self.t_ms > 0.0 and self.ts_ms > 0.0):
            raise ParameterError("t_ms and ts_ms must be positive")
        ratio = self.t_ms / self.ts_ms
        if not (np.isfinite(ratio) and np.isfinite(1.0 / self.ts_ms)):
            raise ParameterError(f"t_ms={self.t_ms}, ts_ms={self.ts_ms} is not a finite grid")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParameterError(
                f"t_ms={self.t_ms} is not an integer multiple of ts_ms={self.ts_ms}"
            )
        if round(ratio) < 1:
            raise ParameterError(f"t_ms={self.t_ms} is shorter than one ts_ms={self.ts_ms} bin")

    @property
    def n_samples(self) -> int:
        return int(round(self.t_ms / self.ts_ms))

    def bin_of(self, time_ms: float) -> int:
        """floor(time/Ts), clamped to [0, n_samples - 1]."""
        n = int(np.floor(time_ms / self.ts_ms))
        return min(max(n, 0), self.n_samples - 1)

    def bin_center(self, n):
        """Center time of bin ``n``, an int or an integer array."""
        return (n + 0.5) * self.ts_ms


@dataclass(frozen=True, init=False, eq=False)
class SpikeTrain:
    """Discrete spike events over a set of neurons.

    The events are stored once, as two read-only arrays sorted by
    (time, neuron): ``neurons`` (indices) and ``times`` (ms).  The
    constructor takes (neuron_index, time_ms) pairs or an (n, 2) array
    of them, and rejects out-of-range or fractional neuron indices and
    negative or non-finite times; ``_adopt``, for arrays the package has
    just built and checked, does neither the checks nor the copy.
    ``read_events`` slices every train of a file from one such pair.
    """

    neuron_count: int
    neurons: np.ndarray
    times: np.ndarray

    def __init__(self, neuron_count: int, events=()):
        count = int(neuron_count)
        if count < 1:
            raise ParameterError("neuron_count must be >= 1")
        if not isinstance(events, np.ndarray):
            events = list(events)  # any iterable of pairs, generators included
        try:
            pairs = np.asarray(events, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"events must be (neuron, time) pairs: {exc}") from exc
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ParameterError(f"events must be (neuron, time) pairs, not shape {pairs.shape}")
        index, times = pairs[:, 0], pairs[:, 1]
        bad = _first_bad_event(index, times, count)
        if bad is not None:
            raise ParameterError(bad[1])
        neurons, times = index.astype(np.intp), times.copy()
        _sort_trains(neurons, times, np.array([0, times.size]))
        self.__dict__.update(SpikeTrain._adopt(count, neurons, times).__dict__)

    @classmethod
    def _adopt(cls, neuron_count: int, neurons: np.ndarray, times: np.ndarray) -> "SpikeTrain":
        """Freeze valid, (time, neuron)-sorted intp neurons and float64 times
        in place and wrap them."""
        neurons.flags.writeable = False
        times.flags.writeable = False
        train = object.__new__(cls)
        train.__dict__.update(neuron_count=neuron_count, neurons=neurons, times=times)
        return train

    @property
    def events(self) -> tuple:
        """The (neuron_index, time_ms) pairs, in (time, neuron) order."""
        return tuple(zip(self.neurons.tolist(), self.times.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SpikeTrain):
            return NotImplemented
        return (
            self.neuron_count == other.neuron_count
            and np.array_equal(self.neurons, other.neurons)
            and np.array_equal(self.times, other.times)
        )

    def __hash__(self) -> int:
        return hash((self.neuron_count, len(self)))

    def __len__(self) -> int:
        return self.times.size


def _first_bad_event(neurons: np.ndarray, times: np.ndarray, count: int) -> tuple | None:
    """(position, problem) of the first event that is not an integer neuron
    index in [0, count) with a finite time >= 0, or None if every event is."""
    integral = neurons.dtype.kind != "f" or np.array_equal(neurons, np.floor(neurons))
    if not neurons.size or (
        integral and neurons.min() >= 0 and neurons.max() < count
        and times.min() >= 0.0 and times.max() < np.inf
    ):
        return None
    valid = (neurons >= 0) & (neurons < count) & (neurons == np.floor(neurons))
    valid &= (times >= 0.0) & (times < np.inf)
    i = int(np.argmin(valid))
    neuron, time = neurons[i], times[i]
    if not 0 <= neuron < count:
        return i, f"neuron index {neuron:.17g} outside [0, {count})"
    if neuron != np.floor(neuron):
        return i, f"neuron index {neuron:.17g} is not an integer"
    kind = "negative" if np.isfinite(time) else "non-finite"
    return i, f"neuron {neuron:.0f}: {kind} spike time {time}"


@dataclass(frozen=True)
class SpikeTrainSet:
    """An ordered collection of spike trains over a common neuron count."""

    neuron_count: int
    trains: tuple = ()

    def __post_init__(self):
        if int(self.neuron_count) < 1:
            raise ParameterError("neuron_count must be >= 1")
        object.__setattr__(self, "neuron_count", int(self.neuron_count))
        for train in self.trains:
            if train.neuron_count != self.neuron_count:
                raise ShapeError(
                    f"train has {train.neuron_count} neurons, set expects {self.neuron_count}"
                )
        object.__setattr__(self, "trains", tuple(self.trains))

    def __len__(self) -> int:
        return len(self.trains)

    def __iter__(self):
        return iter(self.trains)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled multichannel signal, values shaped (channels, bins).

    The value array is float64, C-contiguous and frozen read-only; all
    operations return new instances.  The constructor, which ``convolve``,
    ``correlate`` and ``spikes_to_signal`` use, copies the values and scans
    them for non-finite ones; ``_adopt``, for arrays the package has just
    built, freezes them in place and does neither.
    """

    values: np.ndarray
    ts_ms: float

    def __post_init__(self):
        require_positive(ts_ms=self.ts_ms)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeError(f"signal values must be 2-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("signal contains non-finite values")
        if vals is self.values:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, values: np.ndarray, ts_ms: float) -> "SampledSignal":
        """Freeze a new float64 (channels, bins) array in place and wrap it."""
        values.flags.writeable = False
        signal = object.__new__(cls)
        signal.__dict__.update(values=values, ts_ms=ts_ms)
        return signal

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


def poisson_spike_train(
    channels: int, rate_hz: float, config: SimConfig, seed: int
) -> SpikeTrain:
    """Generate one event per bin per channel with probability rate*Ts.

    Rates are in Hz, the grid in ms, so the per-bin probability is
    ``rate_hz * ts_ms * 1e-3``.  Events land on bin centers; identical
    seeds give identical trains.
    """
    if channels < 1:
        raise ParameterError("channels must be >= 1")
    if rate_hz < 0.0:
        raise ParameterError("rate_hz must be >= 0")
    p = rate_hz * config.ts_ms * 1e-3
    if p > 1.0:
        raise ParameterError(
            f"rate {rate_hz} Hz exceeds one spike per {config.ts_ms} ms bin"
        )
    rng = np.random.default_rng(seed)
    hits = rng.random((channels, config.n_samples)) < p
    bins, chans = np.nonzero(hits.T)  # (time, neuron) order
    return SpikeTrain(channels, np.column_stack((chans, config.bin_center(bins))))


def event_bins(train: SpikeTrain, config: SimConfig) -> np.ndarray:
    """Flat sample index (neuron * n_samples + bin) of every event, in event
    order; events sharing a bin repeat its index."""
    if not len(train):
        return np.zeros(0, dtype=np.intp)
    # times are sorted and nonnegative: the last is the latest, and
    # truncation is floor
    if train.times[-1] > config.t_ms:
        raise RangeError(f"event time {train.times[-1]} outside window [0, {config.t_ms}]")
    bins = np.minimum((train.times / config.ts_ms).astype(np.intp), config.n_samples - 1)
    return train.neurons * config.n_samples + bins


def spikes_to_signal(train: SpikeTrain, config: SimConfig) -> SampledSignal:
    """Lay a spike train onto the sampling grid with amplitude 1/Ts per event."""
    values = np.zeros((train.neuron_count, config.n_samples))
    # a flat index is several times faster in np.add.at than an index pair
    np.add.at(values.reshape(-1), event_bins(train, config), 1.0 / config.ts_ms)
    return SampledSignal(values, config.ts_ms)


def _records(sset: SpikeTrainSet) -> np.ndarray:
    """Flatten a set into (neuron, time, label) records, label = train index."""
    lengths = [len(train) for train in sset.trains]
    rec = np.empty(sum(lengths), dtype=_EVENT_DTYPE)
    if rec.size:
        rec["neuron"] = np.concatenate([train.neurons for train in sset.trains])
        rec["time"] = np.concatenate([train.times for train in sset.trains])
        rec["label"] = np.repeat(np.arange(len(lengths)), lengths)
    return rec


def _sort_trains(neurons: np.ndarray, times: np.ndarray, bounds: np.ndarray) -> None:
    """Sort each train ``bounds[k]:bounds[k + 1]`` of the two arrays by
    (time, neuron) in place; only trains out of that order are sorted."""
    late = times[1:] < times[:-1]
    late |= (times[1:] == times[:-1]) & (neurons[1:] < neurons[:-1])
    late[bounds[(bounds > 0) & (bounds < times.size)] - 1] = False  # pairs across two trains
    # a set, not np.unique, which imports numpy.ma (about 1 MB of RSS)
    for k in set((np.searchsorted(bounds, np.flatnonzero(late), side="right") - 1).tolist()):
        span = slice(bounds[k], bounds[k + 1])
        order = np.lexsort((neurons[span], times[span]))
        neurons[span], times[span] = neurons[span][order], times[span][order]


def _set_from_records(path, rec, neuron_count, train_count, where):
    """Group (neuron, time, label) records by label into a SpikeTrainSet
    whose trains are read-only slices of one neuron and one time array;
    ``where(i)`` names the place of record i in the file."""
    labels = rec["label"]
    neurons, times = rec["neuron"].astype(np.intp), rec["time"].astype(np.float64)
    if neuron_count is None:
        neuron_count = int(neurons.max()) + 1 if rec.size else 1
    used = int(labels.max()) + 1 if rec.size else 0
    if train_count is None:
        train_count = used
    elif used > train_count:
        raise ParseError(
            f"{path}: event label {used - 1} exceeds requested train count {train_count}"
        )
    bad = _first_bad_event(neurons, times, neuron_count)
    if bad is not None:
        raise ParseError(f"{path}: {where(bad[0])}: {bad[1]}")
    if np.any(labels[1:] < labels[:-1]):
        order = np.argsort(labels, kind="stable")
        labels, neurons, times = labels[order], neurons[order], times[order]
    bounds = np.searchsorted(labels, np.arange(train_count + 1))
    _sort_trains(neurons, times, bounds)
    return SpikeTrainSet(neuron_count, tuple(
        SpikeTrain._adopt(neuron_count, neurons[lo:hi], times[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ))


def write_events(path, sset: SpikeTrainSet) -> None:
    """Write a spike-train set; '.csv' extension selects text, else binary.

    CSV: header ``neuron,time_ms,label`` and one decimal-formatted event
    per line.  Binary: magic ``SLYR``, version u16, neuron_count u32,
    event_count u64 and little-endian (u32, f64, i32) event records.
    The event label is the index of its train within the set; a silent
    train leaves no record.
    """
    path = Path(path)
    rec = _records(sset)
    if path.suffix.lower() == ".csv":
        rows = zip(rec["neuron"].tolist(), rec["time"].tolist(), rec["label"].tolist())
        body = "".join(f"{n},{t!r},{label}\n" for n, t, label in rows)
        path.write_text(_CSV_HEADER + "\n" + body)
        return
    header = _BINARY_MAGIC + struct.pack(
        "<HIQ", _BINARY_VERSION, sset.neuron_count, rec.size
    )
    path.write_bytes(header + rec.tobytes())


def read_events(path, neuron_count=None, train_count=None) -> SpikeTrainSet:
    """Read a spike-train set written by :func:`write_events`.

    The binary format stores its own neuron count, and a different
    ``neuron_count`` raises FormatError; for CSV it is inferred as max
    index + 1 unless given.  ``train_count`` pads trailing silent
    trains, which leave no events in the file.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_events_csv(path, neuron_count, train_count)
    return _read_events_binary(path, neuron_count, train_count)


def _parse_csv_rows(lines) -> np.ndarray:
    """CSV event lines as records; blank lines are skipped."""
    rows = [line for line in lines if line.strip()]
    if not rows:
        return np.empty(0, dtype=_CSV_DTYPE)
    return np.loadtxt(rows, delimiter=",", dtype=_CSV_DTYPE, comments=None, ndmin=1)


def _first_bad_line(lines) -> int:
    """Line number of the first body line of ``lines`` that fails to parse."""
    good, bad = 1, len(lines)  # lines[1:good] parse, lines[1:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_csv_rows(lines[1:mid])
            good = mid
        except ValueError:
            bad = mid
    return bad


def _read_events_csv(path, neuron_count, train_count):
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ParseError(f"{path}: line 1: expected header '{_CSV_HEADER}'")
    try:
        rec = _parse_csv_rows(lines[1:])
    except ValueError:
        i = _first_bad_line(lines)
        raise ParseError(
            f"{path}: line {i}: expected an integer neuron, a time and a "
            f"label >= 0, got {lines[i - 1]!r}"
        ) from None

    def where(i):  # record i is the i-th body line that is not blank
        return f"line {[n for n, line in enumerate(lines[1:], 2) if line.strip()][i]}"

    return _set_from_records(path, rec, neuron_count, train_count, where)


def _read_events_binary(path, neuron_count, train_count):
    blob = path.read_bytes()
    head = 4 + struct.calcsize("<HIQ")
    if len(blob) < head:
        raise ParseError(f"{path}: offset {len(blob)}: truncated header")
    if blob[:4] != _BINARY_MAGIC:
        raise ParseError(f"{path}: offset 0: bad magic {blob[:4]!r}")
    version, stored_count, n_events = struct.unpack("<HIQ", blob[4:head])
    if version != _BINARY_VERSION:
        raise ParseError(f"{path}: offset 4: unsupported version {version}")
    expected = head + n_events * _EVENT_DTYPE.itemsize
    if len(blob) != expected:
        raise ParseError(
            f"{path}: offset {len(blob)}: expected {expected} bytes for {n_events} events"
        )
    rec = np.frombuffer(blob, dtype=_EVENT_DTYPE, count=n_events, offset=head)

    def where(i):
        return f"offset {head + i * _EVENT_DTYPE.itemsize}"

    negative = np.flatnonzero(rec["label"] < 0)
    if negative.size:
        i = negative[0]
        raise ParseError(f"{path}: {where(i)}: negative label {rec['label'][i]}")
    if neuron_count not in (None, stored_count):
        raise FormatError(
            f"{path}: file holds {stored_count} neurons, {neuron_count} were expected"
        )
    return _set_from_records(path, rec, stored_count, train_count, where)
