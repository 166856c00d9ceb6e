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
exact transposes of each other on the truncated window.  A frozen
sum-pooling of their results filters after pooling instead
(:func:`delay_mix`, :func:`pool_convolve`, :func:`pool_correlate`).
"""

from __future__ import annotations

import functools
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ParameterError, require_positive
from .signals import SampledSignal, SpikeEvents

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
        x = np.maximum(t, 0.0, out=scratch)
        np.minimum(x, self.support_end, out=x)
        np.not_equal(x, t, out=inside)  # outside the support, or NaN
        self._fn(x, out)
        np.copyto(out, 0.0, where=inside)
        return out


def require_cutoff(cutoff: float) -> None:
    """Raise ParameterError unless the relative truncation cutoff lies in (0, 1)."""
    if not 0.0 < cutoff < 1.0:
        raise ParameterError(f"cutoff must lie in (0, 1), got {cutoff!r}")


def _sample_and_truncate(neuron: NeuronConfig, ts_ms: float, cutoff: float, fn) -> Kernel:
    require_positive(ts_ms=ts_ms)
    require_cutoff(cutoff)
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
        if self.buffer.size < sum(sizes):
            self.buffer = np.empty(sum(sizes), dtype=np.uint8)
        arrays, start = [], 0
        for (shape, dtype), size in zip(specs, sizes):
            arrays.append(np.ndarray(shape, dtype, self.buffer, start))
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
        elif (entry[2] == delays).all():
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


def _windows(x: np.ndarray, width: int, taps: int) -> np.ndarray:
    """The (channels, width, taps) windows x[:, n : n + taps], n < width, of a
    C-contiguous ``x``, read in place (a buffer view costs a fifth of as_strided)."""
    shape, strides = (len(x), width, taps), x.strides + x.strides[-1:]
    return np.ndarray(shape, x.dtype, x, 0, strides)


def _window_sum(values, table: np.ndarray, work: Workspace, keep: bool, lead: bool):
    """out[c, n] = sum_j table[c, j] * padded[c, n + j], where ``padded`` is
    ``values`` with taps - 1 zeros before it (``lead``) or after it.

    Only the taps - 1 outputs whose windows reach into the zeros read a
    padded copy of 2 * (taps - 1) samples per row; the rest read ``values``
    in place.  ``values`` is (channels, n_samples), or :class:`SpikeEvents`,
    whose raster is built in ``work``.  The (channels, n_samples) result
    lives in ``work`` unless ``keep``.
    """
    (channels, taps), n_samples = table.shape, values.shape[-1]
    inner = n_samples - taps + 1  # outputs whose windows lie inside values
    shapes = [(channels, taps), (channels, 2 * taps - 2)]
    shapes += [] if keep else [(channels, n_samples)]
    raster = isinstance(values, SpikeEvents)
    shapes += [(channels, n_samples)] if raster else []
    taps_copy, edge, *rest = work.take(*((shape, np.float64) for shape in shapes))
    taps_copy[...] = table  # contiguous: a reversed view makes einsum 1.5x slower
    values = values.fill(rest.pop()) if raster else np.ascontiguousarray(values)
    out = np.empty((channels, n_samples)) if keep else rest[0]
    edge.fill(0.0)
    if lead:
        edge[:, taps - 1 :] = values[:, : taps - 1]
        body, rim = out[:, taps - 1 :], out[:, : taps - 1]
    else:
        edge[:, : taps - 1] = values[:, inner:]
        body, rim = out[:, :inner], out[:, inner:]
    np.einsum("cnj,cj->cn", _windows(values, inner, taps), taps_copy, out=body)
    np.einsum("cnj,cj->cn", _windows(edge, taps - 1, taps), taps_copy, out=rim)
    return out


# Below this share of nonzero samples the event scatter beats the dense
# window sum.  Against the contiguous einsum (24 taps, random spikes, one
# thread) it breaks even at about 6.5 % on 8192 x 300 samples, 7-8 % on
# 2312-3136 x 300, 9-11 % on 500-1000 x 300 and 12 % on 250 x 50.  A cutoff
# grown on small signals put small test nets on both sides of it, where
# inputs that agree up to a bin differ by rounding before that bin.  The
# benchmark nets' spike signals lie at 2-9 %, the cnn's 8c3/16c3 at 10 %.
_SCATTER_DENSITY = 1.0 / 16.0


def convolve_values(values, kernel: Kernel, delays, work=None, keep=True) -> np.ndarray:
    """out[c, n] = Ts * sum_m k(m*Ts - d_c) * values[c, n - m]; no sign check.

    ``values`` is a (channels, n_samples) array or :class:`SpikeEvents`.
    Below 1/16 density SpikeEvents are convolved by scattering each event's
    delayed kernel taps times its amplitude; the scatter and the dense
    window sum group their additions differently, so they agree to
    rounding, not bit for bit.

    ``work``, a :class:`Workspace`, supplies tap tables and temporaries,
    the raster of SpikeEvents included; without ``keep`` the dense sum's
    result lives there too, valid until its next use.
    """
    channels, n_samples = values.shape
    delays = _delay_vector(delays, channels)
    taps = _taps(kernel, delays, n_samples)
    work = Workspace() if work is None else work
    events = values.events if isinstance(values, SpikeEvents) else None
    if events is not None and len(events) < _SCATTER_DENSITY * values.size:
        kd = work.delayed_taps(kernel, delays, taps)
        shape = (len(events), taps)
        weights, index = work.take((shape, np.float64), (shape, np.intp))
        # tap j of event (c, b) lands on flat sample c * n_samples + b + j;
        # taps past the row's last bin go to one dump bin past the signal
        rows = events // n_samples
        kd.take(rows, axis=0, out=weights, mode="clip")
        weights *= 1.0 / values.ts_ms if values.amplitudes is None else values.amplitudes[:, None]
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
    delays = _delay_vector(delays, len(values))
    work = Workspace() if work is None else work
    kd = work.delayed_taps(kernel, delays, _taps(kernel, delays, values.shape[-1]))
    out = _window_sum(values, kd, work, False, False)
    out *= kernel.ts_ms
    return out


def delay_mix(delays, tau: float, ts: float, n_samples: int) -> tuple:
    """Every neuron's delayed epsilon and epsilon_dot as a mix of two shared kernels.

    With d = k*Ts + f, 0 <= f < Ts, and x = (Ts - f)/tau, tap j of either
    delayed kernel is, on lags 1 <= i = j - k < L, L the kernel's own
    sample count (it is zero past them),

        eps(j*Ts - d)     = A*h1(i) + B*h2(i),          A = e^-x, B = x*A
        eps_dot(j*Ts - d) = (-A*h1(i) + (1 - x)*A*h2(i)) / tau

    where h1(i) = eps((i - 1)*Ts) and h2(i) = e^(1 - (i - 1)*Ts/tau) are the
    rows of :func:`mix_taps`; eps_dot adds e/tau at lag 0 where f = 0.  The
    kernels are shifted by one lag so that no factor exceeds e: Ts >> tau
    cannot overflow.  The integer shift k is not a kernel property but a
    move of each event by k bins, so all neurons share the two kernels
    whatever their delays, and a frozen sum over neurons commutes with
    them: :func:`pool_convolve` and :func:`pool_correlate` put each
    neuron's mix into its events' weights and its shift into their bins,
    then filter once per pooled row.

    Returns the shifts k (capped at n_samples, as nothing lands in the
    window from there on), (A, B), and eps_dot's two coefficients and its
    lag-0 term.
    Delays below -Ts, whose kernels would lose taps before lag 0, raise.
    """
    d = np.asarray(delays, dtype=float)
    k = np.floor(d / ts)
    if (k < -1).any():
        c = int(np.argmax(k < -1))
        raise ParameterError(f"delay {float(d[c])!r} of neuron {c} is below -Ts = {-ts!r}")
    # Ts - f as the time of lag 1, (k + 1)*Ts - d: no cancellation in f
    x = np.where(k >= n_samples, 0.0, ((k + 1.0) * ts - d) / tau)
    a = np.exp(-x)
    shift = np.where(k < n_samples, k, n_samples).astype(np.intp)
    lag0 = np.where(d == k * ts, np.e / tau, 0.0)
    return shift, (a, x * a), (-a / tau, (1.0 - x) * a / tau, lag0)


def mix_taps(tau: float, ts: float, length: int) -> np.ndarray:
    """(2, length) kernels h1(i) = eps((i - 1)*Ts) and h2(i) = e^(1 - (i - 1)*Ts/tau)
    of :func:`delay_mix` on lags i < length, zero at lag 0."""
    y = np.arange(length - 1) * ts / tau
    taps = np.zeros((2, length))
    np.exp(1.0 - y, out=taps[1, 1:])
    np.multiply(y, taps[1, 1:], out=taps[0, 1:])
    return taps


def _kernel_taps(kernel: Kernel, tau: float, dot: bool) -> np.ndarray:
    """:func:`mix_taps` on ``kernel``'s lags, after checking that its samples
    are epsilon (or, with ``dot``, epsilon_dot) of time constant ``tau``:
    sample i is h1(i + 1), or (h2(i + 1) - h1(i + 1))/tau."""
    taps = mix_taps(tau, kernel.ts_ms, len(kernel.samples))
    want = (taps[1, 1:] - taps[0, 1:]) / tau if dot else taps[0, 1:]
    # eps_dot's two terms cancel near its zero: compare to the largest sample
    if np.abs(kernel.samples[:-1] - want).max(initial=0.0) > 1e-12 * np.abs(want).max(initial=0.0):
        name = "epsilon_dot" if dot else "epsilon"
        raise ConfigError(f"kernel is not {name} of tau_s = {tau!r} at Ts = {kernel.ts_ms!r}")
    return taps


_FILTER_BLOCK = 50  # output bins per GEMM of the banded Toeplitz filters


def _banded(x: np.ndarray, taps: np.ndarray, out: np.ndarray, causal: bool) -> None:
    """Filter the slots of ``x`` with the (K, L) ``taps`` into ``out`` by
    banded Toeplitz GEMMs over blocks of bins: out[:, q] reads x from slot
    q + 1 on.  Causal, x is (rows, slots, K), the sums of K kernels, and
    out[:, q] = sum_k,i taps[k, i] * x[:, q + L - i, k]; anticausal, x is
    (rows, slots) and out[:, q, k] = sum_i taps[k, i] * x[:, q + i]."""
    kinds, lags = taps.shape
    lag = np.subtract.outer(np.arange(_FILTER_BLOCK + lags - 1), np.arange(_FILTER_BLOCK))
    lag = lags - 1 - lag if causal else lag + 1
    inside = (lag >= 0) & (lag < lags)
    table = np.where(inside, taps[:, np.where(inside, lag, 0)], 0.0)  # (K, rows, columns)
    # (window slot, kernel in, output bin, kernel out)
    table = table.transpose(1, 0, 2)[..., None] if causal else table.transpose(1, 2, 0)[:, None]
    table = np.ascontiguousarray(table)
    k_in, k_out = table.shape[1], table.shape[3]
    x, out = x.reshape(len(x), -1), out.reshape(len(out), -1, k_out)
    for s in range(0, out.shape[1], _FILTER_BLOCK):
        m = min(_FILTER_BLOCK, out.shape[1] - s)
        span = m + lags - 1
        np.matmul(
            x[:, k_in * (s + 1) : k_in * (s + 1 + span)],
            table[:span, :, :m].reshape(span * k_in, m * k_out),
            out=out[:, s : s + m].reshape(len(out), m * k_out),
        )


def _events(values) -> tuple:
    """Flat indices (channel * n_samples + bin) and amplitudes of a signal's
    events: those of :class:`SpikeEvents`, or every sample of an array."""
    if isinstance(values, SpikeEvents):
        return values.events, 1.0 / values.ts_ms if values.amplitudes is None else values.amplitudes
    return np.arange(values.size), values.reshape(-1)


def pool_convolve(values, rows, n_rows: int, kernel: Kernel, tau: float, delays) -> np.ndarray:
    """out[p] = sum of convolve_values(values, kernel, delays)[c] over the
    channels c with rows[c] = p, a new (n_rows, n_samples) array, where
    ``kernel`` must be the spike response kernel of time constant ``tau``
    (:class:`ConfigError` otherwise).

    Each event of channel c at bin b adds its amplitude times A_c and B_c
    (:func:`delay_mix`) to two sums at row rows[c], bin b + k_c, which are
    then filtered causally with h1 and h2.
    """
    channels, n = values.shape
    ts, lags = kernel.ts_ms, len(kernel.samples)
    shift, (a, b), _ = delay_mix(delays, tau, ts, n)
    # slot s of a sum holds bin s - lags: room for the taps' history and every shift
    width = n + lags + max(int(shift.max()), 0)
    events, amplitudes = _events(values)
    c = events // n
    index = 2 * (events + (rows * width - np.arange(channels) * n + shift + lags)[c])
    sums = np.bincount(
        np.concatenate((index, index + 1)),
        np.concatenate((a[c] * amplitudes, b[c] * amplitudes)),
        minlength=2 * n_rows * width,
    )
    out = np.empty((n_rows, n))
    # bincount counts in integers when there are no events
    sums = sums.astype(np.float64, copy=False).reshape(n_rows, width, 2)
    _banded(sums, _kernel_taps(kernel, tau, dot=False) * ts, out, causal=True)
    return out


_ROW_BLOCK = 1 << 16  # samples of a pooled credit spread at a time


def pool_correlate(
    e: np.ndarray,
    values,
    rows: np.ndarray,
    epsilon: Kernel,
    epsilon_dot: Kernel,
    tau: float,
    delays,
    out=None,
    work=None,
    credit=True,
) -> tuple:
    """Delay gradient and credit of the channels pooled by ``rows``, from
    their pooled error ``e`` (n_rows, n_samples).

    The gradient (into ``out``) is -Ts * sum_n a[c, n] * e[rows[c], n], with
    a = convolve_values(values, epsilon_dot, delays); the credit is
    correlate_values(e[rows], epsilon, delays), in ``work`` as there, or
    None without ``credit``.  ``e`` is filtered once, anticausally, with
    the kernels of :func:`delay_mix`, truncated as epsilon and, where that
    differs, as epsilon_dot; both must be of time constant ``tau``
    (:class:`ConfigError` otherwise).  The gradient gathers the results at each
    event's row and shifted bin; the credit spreads them over the
    channels, each read from its shifted bins.
    """
    n_rows, n = e.shape
    channels, ts = len(rows), epsilon.ts_ms
    shift, (a, b), (a_dot, b_dot, lag0) = delay_mix(delays, tau, ts, n)
    lengths = len(epsilon.samples), len(epsilon_dot.samples)
    taps = np.zeros((2 * len(set(lengths)), max(lengths)))
    taps[:2, : lengths[0]] = _kernel_taps(epsilon, tau, dot=False)
    taps[-2:, : lengths[1]] = _kernel_taps(epsilon_dot, tau, dot=True)
    kinds, lags = taps.shape
    # slot s of the filtered sums and of the padded error holds bin s - 1
    width = n + max(lags, max(int(shift.max()), 0) + 1)
    padded = np.zeros((n_rows, width))
    padded[:, 1 : n + 1] = e  # e may live in work
    work = Workspace() if work is None else work
    block = max(1, _ROW_BLOCK // n)
    shapes = [((n_rows, width, kinds), np.float64)]
    if credit:
        shapes += [((channels, n), np.float64), ((block, n), np.intp)]
        shapes += [((block, n, kinds), np.float64)]
    filtered, *scratch = work.take(*shapes)
    filtered[:, n:] = 0.0
    _banded(padded, taps * ts, filtered[:, :n], causal=False)
    flat = filtered.reshape(-1, kinds)
    start = rows * width + shift + 1  # the slot of each channel's bin 0
    events, amplitudes = _events(values)
    c = events // n
    at = (start - np.arange(channels) * n)[c]
    at += events
    # per-channel sums of the gathered terms, weighted once per channel; the
    # lag-0 term reads the raw error, so it takes the Ts the filters carry
    out = np.empty(channels) if out is None else out
    out.fill(0.0)
    lag0 *= ts
    for coef, part in ((a_dot, flat[:, -2]), (b_dot, flat[:, -1]), (lag0, padded.reshape(-1))):
        gathered = part[at]
        gathered *= amplitudes
        out += coef * np.bincount(c, gathered, minlength=channels)
        del gathered  # before the next gather: the event arrays set the peak
    out *= -ts
    if not credit:
        return out, None
    del c, at
    spread, index, gathered = scratch
    mix = np.zeros((channels, kinds, 1))
    mix[:, 0, 0], mix[:, 1, 0] = a, b
    for c0 in range(0, channels, block):
        m = min(block, channels - c0)
        np.add(start[c0 : c0 + m, None], np.arange(n), out=index[:m])
        parts = np.take(flat, index[:m], axis=0, out=gathered[:m], mode="clip")
        np.matmul(parts, mix[c0 : c0 + m], out=spread[c0 : c0 + m, :, None])
    return out, spread


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
