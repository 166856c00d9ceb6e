"""Forward simulation: spike responses, membrane potentials, threshold or soft spikes.

A neuron's potential is the weighted sum of kernel-filtered presynaptic
spikes plus a refractory feedback term built from its own past output.
The feedback makes the time loop sequential: the spike decision at bin n
uses potential accumulated from spikes at bins < n, then the refractory
response of a new spike is folded in from bin n onward so the recorded
potential trace is the full model value (backprop evaluates the spike
derivative on this trace).

The threshold has no useful derivative; backprop uses the surrogate rho(u).
In soft mode the threshold is replaced by a differentiable map g whose
derivative is exactly rho and the refractory term is dropped; on that
network the backward pass computes the exact gradient of the precise
loss, which finite differences verify to high accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, require_positive
from .kernels import Kernel, convolve_values, pool_convolve, workspace
from .signals import SampledSignal, SpikeEvents, SpikeTrain, event_bins, spikes_to_signal
from .topology import Network, apply_linear, pool_rows, require_finite_potential

@dataclass(frozen=True)
class SurrogateConfig:
    """Spike-derivative surrogate rho(u) = (1/alpha) exp(-beta |u - theta|)."""

    alpha: float = 10.0
    beta: float = 0.5

    def __post_init__(self):
        require_positive(alpha=self.alpha, beta=self.beta)

    @classmethod
    def for_theta(cls, theta: float, alpha: float = 10.0) -> "SurrogateConfig":
        """Default sharpness: rho decays by e^-5 one threshold away from theta."""
        require_positive(theta=theta)
        return cls(alpha=alpha, beta=5.0 / theta)


def soft_spike(u: SampledSignal, theta: float, cfg: SurrogateConfig) -> SampledSignal:
    """Differentiable spike stand-in g(u) with g'(u) = rho(u) exactly.

    Both branches meet at g(theta) = 1/(alpha beta); g is monotone and
    continuous, saturating at 2/(alpha beta).
    """
    z = cfg.beta * (u.values - theta)
    out = np.empty_like(z)
    below = z < 0
    out[below] = np.exp(z[below])
    out[~below] = 2.0 - np.exp(-z[~below])
    out /= cfg.alpha * cfg.beta
    return SampledSignal._adopt(out, u.ts_ms)


@dataclass(eq=False)
class SignalCache:
    """Per-layer signals of one forward pass, indexed 0 (input) .. n_layers.

    ``spikes[l]`` holds layer l's spikes, ``potentials[l]`` its recorded
    membrane potential (None for the input layer), and ``responses[l]``
    (l < n_layers) the delayed kernel-filtered spike response feeding the
    next layer, or None where that layer is a frozen aggregation, whose
    weight gradient needs no response.  The input's spikes, and in hard
    mode every layer's (soft mode's are continuous), are held only as their
    events (:class:`SpikeEvents`): each ``values`` read builds a new
    raster, and the kernels build theirs in the pass's workspace.  Backward
    keeps each hidden layer's credit in that workspace, not in the cache.
    """

    spikes: list
    potentials: list
    responses: list


def _threshold_bins(u: np.ndarray, nu: np.ndarray, theta: float) -> np.ndarray:
    """Threshold ``u`` in place one bin at a time, every neuron at once;
    return the spike events in bin order."""
    n = u.shape[1]
    events = []
    for m in range(n):
        fired = (u[:, m] >= theta).nonzero()[0]
        if fired.size:
            reach = min(len(nu), n - m)
            u[fired, m : m + reach] += nu[:reach]
            events.append(fired * n + m)
    return np.concatenate(events) if events else np.zeros(0, dtype=np.intp)


def _threshold_walk(u: np.ndarray, nu: np.ndarray, theta: float, candidates) -> np.ndarray:
    """Threshold ``u`` in place by visiting only ``candidates``, the flat
    indices where it reaches theta before any refraction, in row-major
    order; return the spike events in bin order.

    As nu < 0, no other sample can fire.  A candidate past the reach of its
    row's last spike fires outright; any other fires if its refracted
    potential still reaches theta.  Each spike adds nu with the same
    elementwise additions, in the same order per sample, as
    :func:`_threshold_bins`, so the two agree bit for bit.
    """
    n, taps = u.shape[1], len(nu)
    flat = u.reshape(-1)
    read = memoryview(flat)  # items are Python floats, cheaper than numpy scalars
    # a spike's refraction ends taps samples on or at its row's end
    ends = np.minimum(candidates - candidates % n + n, candidates + taps)
    fired, until = [], 0  # refraction of the last spike ends at flat index until
    for i, end in zip(candidates.tolist(), ends.tolist()):
        if i >= until or read[i] >= theta:
            until = end
            row = flat[i:end]  # adds in place; flat[i:end] += would copy back onto itself
            row += nu[: end - i]
            fired.append(i)
    events = np.array(fired, dtype=np.intp)
    return events[np.argsort(events % n, kind="stable")]


# The per-bin loop pays 8-20 us of numpy calls per bin whatever the layer
# holds; the walk pays about 1.2 us per candidate sample.  On potentials
# captured from the benchmark nets (one thread, min of 5 calls) the walk
# wins at 2-4 candidates per bin (25 x 50: 0.10 vs 0.33 ms, 10 x 300: 0.6-1.1
# vs 2.2-3.3 ms), breaks even near 12 (100-200 x 300) and loses above
# (500 x 300: 13-14 vs 5.4-6.2 ms at 38, 8192 x 300: 660 vs 60 ms).
# Counting the candidates costs 5-6 ms at 8192 x 300, a tenth of the loop,
# so only layers of at most _WALK_SAMPLES samples are counted.
_WALK_SAMPLES = 1 << 15
_WALK_PER_BIN = 12


def simulate_layer(u: np.ndarray, nu: Kernel, theta: float) -> tuple:
    """Run threshold-and-refract dynamics on a feedforward potential ``u``,
    a new (channels, n_samples) float64 array, which becomes the recorded
    potential in place.

    Returns (spikes, recorded potential): the spikes are
    :class:`SpikeEvents` holding the flat indices (neuron * n_samples + bin)
    of the spikes in bin order.  A neuron spikes at the first bin where its
    accumulated potential reaches theta; each spike adds the refractory
    kernel from its bin onward.

    Two loops agree bit for bit: a small layer with few samples at or above
    theta walks those candidate samples, any other steps through its bins.
    """
    candidates = (u >= theta).reshape(-1).nonzero()[0] if u.size <= _WALK_SAMPLES else None
    if candidates is not None and len(candidates) < _WALK_PER_BIN * u.shape[1]:
        events = _threshold_walk(u, nu.samples, theta, candidates)
    else:
        events = _threshold_bins(u, nu.samples, theta)
    ts = nu.ts_ms
    return SpikeEvents(events, u.shape, ts), SampledSignal._adopt(u, ts)


def forward(
    net: Network, spikes: SpikeTrain, surrogate: SurrogateConfig | None = None
) -> SignalCache:
    """Simulate the whole network on one input spike train.

    The cache holds every layer's spikes, potential and delayed response
    (none for an aggregation's input), which is exactly what the backward
    pass consumes.
    With a ``surrogate`` the pass runs in soft mode: each layer's spikes are
    :func:`soft_spike` of its feedforward potential, with no refractory term.
    """
    if spikes.neuron_count != net.layer_sizes[0]:
        raise ShapeError(
            f"input has {spikes.neuron_count} channels, network expects "
            f"{net.layer_sizes[0]}"
        )
    s = spikes_to_signal(spikes, net.sim)
    # one event per nonzero bin, as spikes_to_signal adds events binned
    # together; sort and compare is ten times faster here than np.unique
    events = np.sort(event_bins(spikes, net.sim))
    events = events[np.diff(events, prepend=-1) != 0]
    # the raster's sums, not counts / Ts: the two can differ by rounding
    s = SpikeEvents(events, s.values.shape, s.ts_ms, s.values.reshape(-1)[events])
    cache = SignalCache(spikes=[s], potentials=[None], responses=[])
    epsilon, nu, theta = net.epsilon, net.nu, net.neuron.theta
    with workspace() as work:
        for t in range(net.n_transitions):
            delays = net.params[t].delays
            if not np.isfinite(delays).all():
                c = np.flatnonzero(~np.isfinite(delays))[0]
                raise NumericError(f"non-finite delay in transition {t} at neuron {c}")
            source = cache.spikes[t]
            source = source if isinstance(source, SpikeEvents) else source.values
            if net.spec.layers[t + 1].kind == "aggregate":
                # a frozen sum-pooling: filtered after pooling, keeping no response
                rows, n_rows = pool_rows(net, t), net.layer_sizes[t + 1]
                u = pool_convolve(source, rows, n_rows, epsilon, net.neuron.tau_s, delays)
                u = require_finite_potential(t, u)
                cache.responses.append(None)
            else:
                a = SampledSignal._adopt(convolve_values(source, epsilon, delays, work), s.ts_ms)
                cache.responses.append(a)
                u = apply_linear(net, t, a)
            if surrogate is None:
                s_next, u_next = simulate_layer(u, nu, theta)
            else:
                u_next = SampledSignal._adopt(u, s.ts_ms)
                s_next = soft_spike(u_next, theta, surrogate)
            cache.spikes.append(s_next)
            cache.potentials.append(u_next)
    return cache
