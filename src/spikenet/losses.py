"""Output-layer error signals and the scalar training loss.

Two error modes: a precise-timing error, the kernel-filtered difference
between actual and desired output trains (an instantaneous van Rossum
style distance), and a count error, constant over a scoring interval and
proportional to the difference between actual and desired spike counts.
The scalar loss is the time integral of half the squared error, and
:func:`output_credit` its derivative with respect to the output spikes.
A count error is a :class:`CountErrorSignal` and carries its credit factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, ShapeError
from .forward import SignalCache
from .kernels import Kernel, convolve_values, correlate_values, workspace, zero_delays
from .signals import SampledSignal, SimConfig, SpikeTrain, spikes_to_signal
from .topology import Network


@dataclass(frozen=True)
class LossSpec:
    """Which error signal to train on.

    mode "precise" compares against ``target`` spike trains bin by bin;
    mode "count" pushes per-class spike counts inside ``interval`` (ms)
    toward a desired vector.  In count mode the desired vector for one
    sample is built from (true_count, false_count) and its label.
    """

    mode: str
    true_count: float = 0.0
    false_count: float = 0.0
    interval: tuple = ()

    def __post_init__(self):
        if self.mode not in ("precise", "count"):
            raise ParameterError(f"unknown loss mode '{self.mode}'")
        if self.mode == "count":
            if len(self.interval) != 2 or not self.interval[0] < self.interval[1]:
                raise ParameterError("count loss needs an interval (t0, t1) with t0 < t1")
            for name in ("true_count", "false_count"):
                if not np.isfinite(value := getattr(self, name)):
                    raise ParameterError(f"count loss {name} must be finite, got {value!r}")

    def desired_counts(self, label: int, classes: int) -> np.ndarray:
        if not isinstance(label, (int, np.integer)):
            raise ParameterError(f"label {label!r} is not an integer")
        if not 0 <= label < classes:
            raise ParameterError(f"label {label} outside 0..{classes - 1}")
        desired = np.full(classes, float(self.false_count))
        desired[label] = float(self.true_count)
        return desired


@dataclass(frozen=True, eq=False)
class CountErrorSignal(SampledSignal):
    """A count error and its credit factor Ts * |I|, I the interval bins."""

    credit_scale: float


def interval_bins(interval, config: SimConfig) -> np.ndarray:
    """Sample indices whose bin centers fall inside the closed interval."""
    t0, t1 = interval
    if t0 < 0 or t1 > config.t_ms + 1e-9:
        raise RangeError(f"interval {interval} outside [0, {config.t_ms}] ms")
    centers = (np.arange(config.n_samples) + 0.5) * config.ts_ms
    return np.flatnonzero((centers >= t0) & (centers <= t1))


def spike_counts(s_out: SampledSignal, interval, config: SimConfig) -> np.ndarray:
    """Per-channel spike count over the interval (Ts-weighted amplitude sum)."""
    bins = interval_bins(interval, config)
    return s_out.values[:, bins].sum(axis=1) * config.ts_ms


def error_precise(
    s_out: SampledSignal, target: SpikeTrain, epsilon: Kernel, config: SimConfig, work=None
) -> SampledSignal:
    """Kernel-filtered difference between actual and target output trains;
    ``work`` as in :func:`convolve_values`."""
    if target.neuron_count != s_out.channels:
        raise ShapeError(
            f"target has {target.neuron_count} channels, output has {s_out.channels}"
        )
    diff = s_out.values - spikes_to_signal(target, config).values
    response = convolve_values(diff, epsilon, zero_delays(s_out.channels), work=work)
    return SampledSignal._adopt(response, s_out.ts_ms)


def error_count(
    s_out: SampledSignal, desired: np.ndarray, interval, config: SimConfig
) -> CountErrorSignal:
    """Constant (actual - desired) count difference on the interval bins."""
    desired = np.asarray(desired, dtype=np.float64)
    if desired.shape != (s_out.channels,):
        raise ShapeError(
            f"desired counts shape {desired.shape} != ({s_out.channels},)"
        )
    if not np.all(np.isfinite(desired)):
        raise ParameterError(f"desired counts must be finite, got {desired}")
    actual = spike_counts(s_out, interval, config)
    bins = interval_bins(interval, config)
    e = np.zeros((s_out.channels, s_out.n_samples))
    e[:, bins] = (actual - desired)[:, None]
    return CountErrorSignal._adopt(e, s_out.ts_ms, credit_scale=config.ts_ms * len(bins))


def output_error(net: Network, cache: SignalCache, spec: LossSpec, target=None) -> SampledSignal:
    """Output error of a forward ``cache`` against the sample's target: a
    spike train under the precise loss, a class label under the count loss."""
    s_out = cache.spikes[-1]
    if spec.mode == "precise":
        if not isinstance(target, SpikeTrain):
            raise ParameterError("precise loss needs a target spike train")
        with workspace() as work:
            return error_precise(s_out, target, net.epsilon, net.sim, work)
    if target is None or isinstance(target, SpikeTrain):
        raise ParameterError("count loss needs a label")
    return error_count(s_out, spec.desired_counts(target, s_out.channels), spec.interval, net.sim)


def loss_value(e: SampledSignal) -> float:
    """E = 1/2 * integral of the squared error over the window."""
    return 0.5 * e.ts_ms * float((e.values * e.values).sum())


def output_credit(e: SampledSignal, epsilon: Kernel, work=None) -> np.ndarray:
    """dE/ds_out / Ts for an output error ``e``.

    A count error depends on s only through the counts over the interval
    bins I, so each of those bins gets its credit_scale Ts * |I| times e.
    Any other error is precise, epsilon * (s - target), so its credit
    correlates the error with epsilon, in ``work`` if given.
    """
    if isinstance(e, CountErrorSignal):
        return e.credit_scale * e.values
    return correlate_values(e.values, epsilon, zero_delays(e.channels), work)
