"""Output-layer error signals and the scalar training loss.

Two error modes: a precise-timing error, the kernel-filtered difference
between actual and desired output trains (an instantaneous van Rossum
style distance), and a count error, constant over a scoring interval and
proportional to the difference between actual and desired spike counts.
The scalar loss is the time integral of half the squared error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, ShapeError
from .kernels import Kernel, convolve_values
from .signals import SampledSignal, SimConfig, SpikeTrain, spikes_to_signal


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

    def desired_counts(self, label: int, classes: int) -> np.ndarray:
        desired = np.full(classes, float(self.false_count))
        desired[label] = float(self.true_count)
        return desired


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
    s_out: SampledSignal, target: SpikeTrain, epsilon: Kernel, config: SimConfig
) -> SampledSignal:
    """Kernel-filtered difference between actual and target output trains."""
    if target.neuron_count != s_out.channels:
        raise ShapeError(
            f"target has {target.neuron_count} channels, output has {s_out.channels}"
        )
    diff = s_out.values - spikes_to_signal(target, config).values
    zero = np.zeros(s_out.channels)
    return SampledSignal._adopt(convolve_values(diff, epsilon, zero), s_out.ts_ms)


def error_count(
    s_out: SampledSignal, desired: np.ndarray, interval, config: SimConfig
) -> SampledSignal:
    """Constant (actual - desired) count difference on the interval bins."""
    desired = np.asarray(desired, dtype=np.float64)
    if desired.shape != (s_out.channels,):
        raise ShapeError(
            f"desired counts shape {desired.shape} != ({s_out.channels},)"
        )
    if not np.all(np.isfinite(desired)):
        raise ParameterError(f"desired counts must be finite, got {desired}")
    bins = interval_bins(interval, config)
    actual = s_out.values[:, bins].sum(axis=1) * config.ts_ms
    e = np.zeros((s_out.channels, s_out.n_samples))
    e[:, bins] = (actual - desired)[:, None]
    return SampledSignal._adopt(e, s_out.ts_ms)


def loss_value(e: SampledSignal) -> float:
    """E = 1/2 * integral of the squared error over the window."""
    return 0.5 * e.ts_ms * float(np.sum(e.values * e.values))
