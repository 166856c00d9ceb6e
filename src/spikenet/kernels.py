"""Analytic response kernels and sampled convolution / correlation.

Three causal kernels drive the neuron model, all in closed form:

    epsilon(t)     = (t/tau_s) * exp(1 - t/tau_s)        spike response, peak 1 at tau_s
    nu(t)          = -2*theta * exp(1 - t/tau_r)         refractory response
    epsilon_dot(t) = (1/tau_s) * (1 - t/tau_s) * exp(1 - t/tau_s)

all zero for t < 0.  Kernels are sampled on the signal grid and truncated
where the tail stays below ``cutoff`` of the peak magnitude, with a hard
support ceiling of 10 * max(tau_s, tau_r) ms.

Axonal delays shift a kernel by re-evaluating the closed form at
``m*Ts - d`` instead of interpolating samples, so the shift is exact for
fractional ``d`` and stays differentiable in ``d``.  ``convolve`` is the
forward (past-looking) operator and ``correlate`` its future-looking
adjoint; both approximate time integrals as Ts-weighted sums and are
exact transposes of each other on the truncated window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ParameterError
from .signals import SampledSignal

DEFAULT_CUTOFF = 1e-6  # kernel truncation relative to the peak, unless set


@dataclass(frozen=True)
class NeuronConfig:
    """Threshold and kernel time constants of the spiking neuron model."""

    theta: float
    tau_s: float
    tau_r: float

    def __post_init__(self):
        if min(self.theta, self.tau_s, self.tau_r) <= 0.0:
            raise ParameterError("theta, tau_s, tau_r must all be positive")


@dataclass(frozen=True, eq=False)
class Kernel:
    """A causal kernel sampled at t = n*Ts, with its closed-form generator.

    ``samples[n]`` equals the analytic value at n*Ts; ``evaluate`` applies
    the closed form at arbitrary (possibly shifted) times, returning zero
    outside the truncated support [0, support_end].
    """

    samples: np.ndarray
    ts_ms: float
    _fn: Callable = field(repr=False)

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def support_end(self) -> float:
        return (len(self.samples) - 1) * self.ts_ms

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        mask = (t >= 0.0) & (t <= self.support_end)
        out[mask] = self._fn(t[mask])
        return out


def _sample_and_truncate(neuron: NeuronConfig, ts_ms: float, cutoff: float, fn) -> Kernel:
    if ts_ms <= 0.0:
        raise ParameterError("ts_ms must be positive")
    if not 0.0 < cutoff < 1.0:
        raise ParameterError("cutoff must lie in (0, 1)")
    ceiling = 10.0 * max(neuron.tau_s, neuron.tau_r)
    grid = np.arange(int(np.floor(ceiling / ts_ms)) + 1) * ts_ms
    vals = fn(grid)
    keep = np.nonzero(np.abs(vals) >= cutoff * np.max(np.abs(vals)))[0]
    return Kernel(vals[: keep[-1] + 1], ts_ms, fn)


def make_epsilon(neuron: NeuronConfig, ts_ms: float, cutoff: float = DEFAULT_CUTOFF) -> Kernel:
    """Spike response kernel (t/tau_s)*exp(1 - t/tau_s), peak value 1 at tau_s."""
    tau = neuron.tau_s

    def fn(t):
        x = np.asarray(t, dtype=float) / tau
        return x * np.exp(1.0 - x)

    return _sample_and_truncate(neuron, ts_ms, cutoff, fn)


def make_nu(neuron: NeuronConfig, ts_ms: float, cutoff: float = DEFAULT_CUTOFF) -> Kernel:
    """Refractory kernel -2*theta*exp(1 - t/tau_r); strictly negative, decaying."""
    tau, theta = neuron.tau_r, neuron.theta

    def fn(t):
        return -2.0 * theta * np.exp(1.0 - np.asarray(t, dtype=float) / tau)

    return _sample_and_truncate(neuron, ts_ms, cutoff, fn)


def make_epsilon_dot(neuron: NeuronConfig, ts_ms: float, cutoff: float = DEFAULT_CUTOFF) -> Kernel:
    """Time derivative of the spike response kernel, (1/tau)(1 - t/tau)e^(1-t/tau)."""
    tau = neuron.tau_s

    def fn(t):
        x = np.asarray(t, dtype=float) / tau
        return (1.0 - x) * np.exp(1.0 - x) / tau

    return _sample_and_truncate(neuron, ts_ms, cutoff, fn)


def _delay_vector(delay, channels) -> np.ndarray:
    d = np.asarray(delay, dtype=float)
    if d.ndim == 0:
        d = np.full(channels, float(d))
    if d.shape != (channels,):
        raise ParameterError(f"delay vector shape {d.shape} != ({channels},)")
    return d


def _taps(kernel: Kernel, delays: np.ndarray, n_samples: int) -> int:
    # Output is truncated to the input length, so taps beyond it never matter.
    extra = int(np.ceil(max(0.0, float(delays.max())) / kernel.ts_ms)) + 1
    return max(1, min(n_samples, len(kernel.samples) + extra))


def _delayed_taps(kernel: Kernel, delays: np.ndarray, j: np.ndarray) -> np.ndarray:
    return kernel.evaluate(j[None, :] * kernel.ts_ms - delays[:, None])


# Below this share of nonzero samples the event scatter beats the dense
# window sum.  Against the contiguous einsum (24 taps, random spikes, one
# thread) it breaks even at about 6.5 % on 8192 x 300 samples, 7-8 % on
# 2312-3136 x 300, 9-11 % on 500-1000 x 300 and 12 % on 250 x 50.  A cutoff
# grown on small signals put small test nets on both sides of it, where
# inputs that agree up to a bin differ by rounding before that bin.  The
# benchmark nets' spike signals lie at 2-9 %, the cnn's 8c3/16c3 at 10 %.
_SCATTER_DENSITY = 1.0 / 16.0


def convolve_values(values, kernel: Kernel, delays, events=None) -> np.ndarray:
    """out[c, n] = Ts * sum_m k(m*Ts - d_c) * values[c, n - m]; no sign check.

    ``events``, if given, holds the flat index (c * n_samples + n) of every
    nonzero sample of ``values`` exactly once.  Below 1/16 density the output
    is then built by scattering each event's delayed kernel taps; the
    scatter and the dense window sum group their additions differently, so
    they agree to rounding, not bit for bit.
    """
    channels, n_samples = values.shape
    delays = _delay_vector(delays, channels)
    taps = _taps(kernel, delays, n_samples)
    if events is not None and len(events) < _SCATTER_DENSITY * values.size:
        kd = _delayed_taps(kernel, delays, np.arange(taps))
        # tap j of event (c, b) lands on flat sample c * n_samples + b + j;
        # taps past the last bin get zero weight, so their spill into the
        # next channel adds nothing
        bins = events % n_samples
        weights = kd[events // n_samples]
        weights *= values.reshape(-1)[events][:, None]
        late = np.flatnonzero(bins > n_samples - taps)
        weights[late] *= np.arange(taps) < n_samples - bins[late, None]
        out = np.bincount(
            (events[:, None] + np.arange(taps)).reshape(-1),
            weights=weights.reshape(-1),
            minlength=values.size + taps - 1,
        )
        # bincount counts in integers when there are no events
        out = out[: values.size].astype(np.float64, copy=False)
        out *= kernel.ts_ms
        return out.reshape(channels, n_samples)
    padded = np.pad(values, ((0, 0), (taps - 1, 0)))
    windows = sliding_window_view(padded, taps, axis=1)
    # taps built last to first: a reversed view makes einsum 1.5x slower
    kr = _delayed_taps(kernel, delays, np.arange(taps)[::-1])
    out = np.einsum("cnj,cj->cn", windows, kr)
    out *= kernel.ts_ms
    return out


def correlate_values(values, kernel: Kernel, delays) -> np.ndarray:
    """out[c, n] = Ts * sum_m k(m*Ts - d_c) * values[c, n + m]; no sign check."""
    channels, n_samples = values.shape
    delays = _delay_vector(delays, channels)
    taps = _taps(kernel, delays, n_samples)
    kd = _delayed_taps(kernel, delays, np.arange(taps))
    padded = np.pad(values, ((0, 0), (0, taps - 1)))
    windows = sliding_window_view(padded, taps, axis=1)
    out = np.einsum("cnj,cj->cn", windows, kd)
    out *= kernel.ts_ms
    return out


def _check_compatible(x: SampledSignal, kernel: Kernel, delay) -> np.ndarray:
    if abs(x.ts_ms - kernel.ts_ms) > 1e-12:
        raise ConfigError(
            f"signal Ts {x.ts_ms} does not match kernel Ts {kernel.ts_ms}"
        )
    delays = _delay_vector(delay, x.channels)
    if np.any(delays < 0.0):
        raise ParameterError("delays must be >= 0")
    return delays


def convolve(x: SampledSignal, kernel: Kernel, delay=0.0) -> SampledSignal:
    """Causal convolution with the delayed kernel, truncated to the input length.

    The delay may be a scalar or one value per channel; fractional values
    re-evaluate the closed form at shifted sample points.
    """
    delays = _check_compatible(x, kernel, delay)
    return SampledSignal(convolve_values(x.values, kernel, delays), x.ts_ms)


def correlate(x: SampledSignal, kernel: Kernel, delay=0.0) -> SampledSignal:
    """Future-looking adjoint of :func:`convolve`; zero-padded past the window."""
    delays = _check_compatible(x, kernel, delay)
    return SampledSignal(correlate_values(x.values, kernel, delays), x.ts_ms)
