"""Forward simulation: spike responses, membrane potentials, threshold spikes.

A neuron's potential is the weighted sum of kernel-filtered presynaptic
spikes plus a refractory feedback term built from its own past output.
The feedback makes the time loop sequential: the spike decision at bin n
uses potential accumulated from spikes at bins < n, then the refractory
response of a new spike is folded in from bin n onward so the recorded
potential trace is the full model value (backprop evaluates the spike
derivative on this trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError
from .kernels import Kernel, NeuronConfig, convolve_values
from .signals import SampledSignal, SpikeTrain, event_bins, spikes_to_signal
from .topology import Network, apply_linear

__all__ = [
    "NeuronConfig",
    "SignalCache",
    "spike_response",
    "simulate_layer",
    "forward",
]


@dataclass(eq=False)
class SignalCache:
    """Per-layer signals of one forward pass, indexed 0 (input) .. n_layers.

    ``spikes[l]`` holds amplitudes in {0, 1/Ts} (continuous values in soft
    mode), ``events[l]`` the flat indices of its nonzero samples (None in
    soft mode), ``potentials[l]`` the recorded membrane potential (None for
    the input layer), and ``responses[l]`` (l < n_layers) the delayed
    kernel-filtered spike response feeding the next layer.
    """

    spikes: list
    events: list
    potentials: list
    responses: list
    soft: bool = False

    @property
    def output_spikes(self) -> SampledSignal:
        return self.spikes[-1]


def spike_response(
    s: SampledSignal, delays: np.ndarray, epsilon: Kernel, events=None
) -> SampledSignal:
    """Convolve each channel of s with the response kernel at its own delay;
    ``events`` as in :func:`convolve_values`."""
    values = convolve_values(s.values, epsilon, np.asarray(delays, dtype=np.float64), events)
    return SampledSignal(values, s.ts_ms)


def simulate_layer(
    u_ff: SampledSignal,
    nu: Kernel,
    theta: float,
    layer: int | None = None,
) -> tuple:
    """Run threshold-and-refract dynamics on a feedforward potential.

    Returns (spike signal, recorded potential, events): the events are the
    flat indices (neuron * n_samples + bin) of the spikes in bin order.  A
    neuron spikes at the first bin where its accumulated potential reaches
    theta; each spike adds the refractory kernel from its bin onward.
    """
    channels, n = u_ff.channels, u_ff.n_samples
    ts = u_ff.ts_ms
    nu_samples = nu.samples
    u = u_ff.values.copy()
    s = np.zeros((channels, n))
    amplitude = 1.0 / ts
    events = []
    for m in range(n):
        fired = np.flatnonzero(u[:, m] >= theta)
        if fired.size:
            s[fired, m] = amplitude
            reach = min(len(nu_samples), n - m)
            u[fired, m : m + reach] += nu_samples[:reach]
            events.append(fired * n + m)
    if not np.all(np.isfinite(u)):
        c, m = np.argwhere(~np.isfinite(u))[0]
        where = f"layer {layer}, " if layer is not None else ""
        raise NumericError(f"non-finite potential at {where}neuron {int(c)}, bin {int(m)}")
    events = np.concatenate(events) if events else np.zeros(0, dtype=np.intp)
    return SampledSignal(s, ts), SampledSignal(u, ts), events


def forward(net: Network, spikes: SpikeTrain) -> SignalCache:
    """Simulate the whole network on one input spike train.

    The cache holds every layer's spike signal, spike events, potential and
    delayed response, which is exactly what the backward pass consumes.
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
    cache = SignalCache(spikes=[s], events=[events], potentials=[None], responses=[])
    epsilon, nu = net.epsilon, net.nu
    for t in range(net.n_transitions):
        a = spike_response(cache.spikes[t], net.params[t].delays, epsilon, cache.events[t])
        cache.responses.append(a)
        u_ff = apply_linear(net, t, a)
        s_next, u_next, events = simulate_layer(u_ff, nu, net.neuron.theta, layer=t + 1)
        cache.spikes.append(s_next)
        cache.events.append(events)
        cache.potentials.append(u_next)
    return cache
