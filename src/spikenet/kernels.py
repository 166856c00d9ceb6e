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

import functools
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ParameterError, require_positive
from .signals import SampledSignal

DEFAULT_CUTOFF = 1e-6  # kernel truncation relative to the peak, unless set


@dataclass(frozen=True)
class NeuronConfig:
    """Threshold and kernel time constants of the spiking neuron model."""

    theta: float
    tau_s: float
    tau_r: float

    def __post_init__(self):
        require_positive(theta=self.theta, tau_s=self.tau_s, tau_r=self.tau_r)


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

    def evaluate(self, t, out=None, scratch=None, inside=None) -> np.ndarray:
        """The closed form at times ``t``; ``out``, ``scratch`` (float) and
        ``inside`` (bool), shaped like ``t``, take the result and temporaries."""
        t = np.asarray(t, dtype=float)
        if out is None:
            out, scratch, inside = np.empty(t.shape), np.empty(t.shape), np.empty(t.shape, bool)
        x = np.clip(t, 0.0, self.support_end, out=scratch)
        np.not_equal(x, t, out=inside)  # outside the support, or NaN
        self._fn(x, out)
        np.copyto(out, 0.0, where=inside)
        return out


def _sample_and_truncate(neuron: NeuronConfig, ts_ms: float, cutoff: float, fn) -> Kernel:
    require_positive(ts_ms=ts_ms)
    if not 0.0 < cutoff < 1.0:
        raise ParameterError("cutoff must lie in (0, 1)")
    ceiling = 10.0 * max(neuron.tau_s, neuron.tau_r)
    grid = np.arange(int(np.floor(ceiling / ts_ms)) + 1) * ts_ms
    vals = fn(grid, None)
    keep = np.nonzero(np.abs(vals) >= cutoff * np.max(np.abs(vals)))[0]
    return Kernel(vals[: keep[-1] + 1], ts_ms, fn)


def make_epsilon(neuron: NeuronConfig, ts_ms: float, cutoff: float = DEFAULT_CUTOFF) -> Kernel:
    """Spike response kernel (t/tau_s)*exp(1 - t/tau_s), peak value 1 at tau_s."""
    tau = neuron.tau_s

    def fn(x, out):  # x is overwritten; out may be None
        x /= tau
        return np.multiply(x, np.exp(np.subtract(1.0, x, out=out), out=out), out=out)

    return _sample_and_truncate(neuron, ts_ms, cutoff, fn)


def make_nu(neuron: NeuronConfig, ts_ms: float, cutoff: float = DEFAULT_CUTOFF) -> Kernel:
    """Refractory kernel -2*theta*exp(1 - t/tau_r); strictly negative, decaying."""
    tau, theta = neuron.tau_r, neuron.theta

    def fn(x, out):
        x /= tau
        return np.multiply(np.exp(np.subtract(1.0, x, out=x), out=out), -2.0 * theta, out=out)

    return _sample_and_truncate(neuron, ts_ms, cutoff, fn)


def make_epsilon_dot(neuron: NeuronConfig, ts_ms: float, cutoff: float = DEFAULT_CUTOFF) -> Kernel:
    """Time derivative of the spike response kernel, (1/tau)(1 - t/tau)e^(1-t/tau)."""
    tau = neuron.tau_s

    def fn(x, out):
        x /= tau
        np.subtract(1.0, x, out=x)
        return np.divide(np.multiply(x, np.exp(x, out=out), out=out), tau, out=out)

    return _sample_and_truncate(neuron, ts_ms, cutoff, fn)


def _delay_vector(delay, channels) -> np.ndarray:
    d = np.asarray(delay, dtype=float)
    if d.ndim == 0:
        d = np.full(channels, float(d))
    if d.shape != (channels,):
        raise ParameterError(f"delay vector shape {d.shape} != ({channels},)")
    return d


@functools.cache
def zero_delays(channels: int) -> np.ndarray:
    """All-zero delays, the same read-only array on every call, so that a
    :class:`Workspace` reuses their tap tables."""
    delays = np.zeros(channels)
    delays.flags.writeable = False
    return delays


def _taps(kernel: Kernel, delays: np.ndarray, n_samples: int) -> int:
    # Output is truncated to the input length, so taps beyond it never matter.
    extra = int(np.ceil(max(0.0, float(delays.max())) / kernel.ts_ms)) + 1
    return max(1, min(n_samples, len(kernel.samples) + extra))


class Workspace:
    """Scratch memory of one worker, reused from call to call.

    :meth:`take` carves the arrays of one request out of a single byte
    buffer that grows to the largest request, so they stay valid only until
    the next ``take``.  Delayed tap tables are kept per (kernel, delay
    array) and rebuilt when the delay values they were built from change,
    so in-place edits of the delays are always seen.
    """

    def __init__(self):
        self.buffer = np.empty(0, dtype=np.uint8)
        self._tables = {}

    def take(self, *specs) -> list:
        """Arrays of the given (shape, dtype) specs, valid until the next take."""
        # each array starts on a 64-byte boundary
        sizes = [-(-math.prod(s) * np.dtype(d).itemsize // 64) * 64 for s, d in specs]
        total = sum(sizes)
        if self.buffer.size < total:
            self.buffer = np.empty(total, dtype=np.uint8)
        arrays, start = [], 0
        for (shape, dtype), size in zip(specs, sizes):
            flat = self.buffer[start : start + size].view(dtype)
            arrays.append(flat[: math.prod(shape)].reshape(shape))
            start += size
        return arrays

    def delayed_taps(self, kernel: Kernel, delays: np.ndarray, taps: int) -> np.ndarray:
        """table[c, j] = k(j*Ts - d_c) for j < taps, valid until the next call."""
        key = (id(kernel), id(delays))
        entry = self._tables.get(key)
        stale = entry is None or entry[0]() is not kernel or entry[1]() is not delays
        if stale or entry[3].shape[1] != taps:
            # tables of dropped kernels or delay arrays go with them
            self._tables = {
                k: v for k, v in self._tables.items() if all(r() is not None for r in v[:2])
            }
            refs = weakref.ref(kernel), weakref.ref(delays)
            entry = (*refs, np.empty(len(delays)), np.empty((len(delays), taps)))
            self._tables[key] = entry
        elif np.array_equal(entry[2], delays):
            return entry[3]
        shape = entry[3].shape
        t, scratch, inside = self.take((shape, float), (shape, float), (shape, bool))
        np.subtract(np.arange(taps) * kernel.ts_ms, delays[:, None], out=t)
        kernel.evaluate(t, entry[3], scratch, inside)
        entry[2][:] = delays
        return entry[3]


_IDLE = []  # workspaces that no pass holds, shared by every network


@contextmanager
def workspace():
    """A :class:`Workspace` that no other thread holds until this one is
    done: a pass in each of k threads keeps k of them, for any number of
    networks."""
    try:
        work = _IDLE.pop()
    except IndexError:  # every workspace is in use
        work = Workspace()
    yield work
    _IDLE.append(work)  # after an error the workspace is dropped


def _window_sum(values, table: np.ndarray, work: Workspace, keep: bool, lead: bool):
    """out[c, n] = sum_j table[c, j] * padded[c, n + j], where ``padded`` is
    ``values`` with taps - 1 zeros before it (``lead``) or after it.

    Only the taps - 1 outputs whose windows reach into the zeros read a
    padded copy of 2 * (taps - 1) samples per row; the rest read ``values``
    in place.  The result lives in ``work`` unless ``keep``.
    """
    values = np.ascontiguousarray(values)
    (channels, n_samples), taps = values.shape, table.shape[1]
    inner = n_samples - taps + 1  # outputs whose windows lie inside values
    shapes = [(channels, taps), (channels, 2 * taps - 2)]
    shapes += [] if keep else [(channels, n_samples)]
    taps_copy, edge, *out = work.take(*((shape, np.float64) for shape in shapes))
    taps_copy[...] = table  # contiguous: a reversed view makes einsum 1.5x slower
    out = out[0] if out else np.empty((channels, n_samples))
    edge.fill(0.0)
    if lead:
        edge[:, taps - 1 :] = values[:, : taps - 1]
        body, rim = out[:, taps - 1 :], out[:, : taps - 1]
    else:
        edge[:, : taps - 1] = values[:, inner:]
        body, rim = out[:, :inner], out[:, inner:]
    for x, y in ((values, body), (edge, rim)):
        windows = as_strided(x, (channels, y.shape[1], taps), x.strides + x.strides[1:])
        np.einsum("cnj,cj->cn", windows, taps_copy, out=y)
    return out


# Below this share of nonzero samples the event scatter beats the dense
# window sum.  Against the contiguous einsum (24 taps, random spikes, one
# thread) it breaks even at about 6.5 % on 8192 x 300 samples, 7-8 % on
# 2312-3136 x 300, 9-11 % on 500-1000 x 300 and 12 % on 250 x 50.  A cutoff
# grown on small signals put small test nets on both sides of it, where
# inputs that agree up to a bin differ by rounding before that bin.  The
# benchmark nets' spike signals lie at 2-9 %, the cnn's 8c3/16c3 at 10 %.
_SCATTER_DENSITY = 1.0 / 16.0


def convolve_values(
    values, kernel: Kernel, delays, events=None, work=None, keep=True
) -> np.ndarray:
    """out[c, n] = Ts * sum_m k(m*Ts - d_c) * values[c, n - m]; no sign check.

    ``events``, if given, holds the flat index (c * n_samples + n) of every
    nonzero sample of ``values`` exactly once.  Below 1/16 density the output
    is then built by scattering each event's delayed kernel taps; the
    scatter and the dense window sum group their additions differently, so
    they agree to rounding, not bit for bit.

    ``work``, a :class:`Workspace`, supplies tap tables and temporaries;
    without ``keep`` the dense sum's result lives there too, valid until
    its next use.
    """
    channels, n_samples = values.shape
    delays = _delay_vector(delays, channels)
    taps = _taps(kernel, delays, n_samples)
    work = Workspace() if work is None else work
    if events is not None and len(events) < _SCATTER_DENSITY * values.size:
        kd = work.delayed_taps(kernel, delays, taps)
        shape = (len(events), taps)
        weights, index = work.take((shape, np.float64), (shape, np.intp))
        # tap j of event (c, b) lands on flat sample c * n_samples + b + j;
        # taps past the row's last bin go to one dump bin past the signal
        rows = events // n_samples
        np.take(kd, rows, axis=0, out=weights, mode="clip")
        weights *= values.reshape(-1)[events][:, None]
        np.add(events[:, None], np.arange(taps), out=index)
        np.putmask(index, index >= (rows[:, None] + 1) * n_samples, values.size)
        out = np.bincount(
            index.reshape(-1), weights=weights.reshape(-1), minlength=values.size + 1
        )
        # bincount counts in integers when there are no events
        out = out[: values.size].astype(np.float64, copy=False)
        out *= kernel.ts_ms
        return out.reshape(channels, n_samples)
    out = _window_sum(values, work.delayed_taps(kernel, delays, taps)[:, ::-1], work, keep, True)
    out *= kernel.ts_ms
    return out


def correlate_values(values, kernel: Kernel, delays, work=None) -> np.ndarray:
    """out[c, n] = Ts * sum_m k(m*Ts - d_c) * values[c, n + m]; no sign check.

    The result lives in ``work``, a :class:`Workspace` as in
    :func:`convolve_values`, valid until its next use."""
    channels, n_samples = values.shape
    delays = _delay_vector(delays, channels)
    work = Workspace() if work is None else work
    kd = work.delayed_taps(kernel, delays, _taps(kernel, delays, n_samples))
    out = _window_sum(values, kd, work, False, False)
    out *= kernel.ts_ms
    return out


def _check_compatible(x: SampledSignal, kernel: Kernel, delay) -> np.ndarray:
    if abs(x.ts_ms - kernel.ts_ms) > 1e-12:
        raise ConfigError(
            f"signal Ts {x.ts_ms} does not match kernel Ts {kernel.ts_ms}"
        )
    delays = _delay_vector(delay, x.channels)
    if not np.all((delays >= 0.0) & (delays < np.inf)):
        raise ParameterError("delays must be finite and >= 0")
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
