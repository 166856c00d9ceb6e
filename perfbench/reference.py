"""Reference forward pass written from the model's closed forms.

It shares no code with spikenet's forward path: kernels are evaluated from
their formulas at m*Ts - d, the time convolution loops over lags, the conv
map loops over kernel offsets, pooling loops over block offsets, and the
threshold loop pulls refractory feedback from earlier spikes instead of
pushing it forward.  Only the documented truncation rule is shared, since
potentials are compared to 1e-9: a kernel is cut where its magnitude falls
below `cutoff` of its peak, and never extends past 10 * max(tau_s, tau_r).
"""

from __future__ import annotations

import numpy as np


def epsilon(t, tau_s):
    x = np.asarray(t, dtype=float) / tau_s
    return x * np.exp(1.0 - x)


def nu(t, theta, tau_r):
    return -2.0 * theta * np.exp(1.0 - np.asarray(t, dtype=float) / tau_r)


def support_end(fn, tau_s, tau_r, ts, cutoff) -> float:
    grid = np.arange(int(np.floor(10.0 * max(tau_s, tau_r) / ts)) + 1) * ts
    magnitude = np.abs(fn(grid))
    return np.flatnonzero(magnitude >= cutoff * magnitude.max())[-1] * ts


def bin_events(train, channels, n_bins, ts) -> np.ndarray:
    """Events as amplitude 1/Ts in bin floor(t/Ts), clamped to the window."""
    values = np.zeros((channels, n_bins))
    for neuron, time in train.events:
        values[neuron, min(max(int(np.floor(time / ts)), 0), n_bins - 1)] += 1.0 / ts
    return values


def response(spikes, delays, ts, tau_s, end) -> np.ndarray:
    """a[c, n] = Ts * sum over lags m of eps(m*Ts - d_c) * s[c, n - m]."""
    channels, n_bins = spikes.shape
    out = np.zeros((channels, n_bins))
    for m in range(n_bins):
        t = m * ts - delays
        if t.max() < 0.0:
            continue
        if t.min() > end:
            break
        taps = np.where((t >= 0.0) & (t <= end), epsilon(np.maximum(t, 0.0), tau_s), 0.0)
        out[:, m:] += ts * taps[:, None] * spikes[:, : n_bins - m]
    return out


def linear(layer, src, dst, weights, a) -> np.ndarray:
    """Per-bin map of one transition: dense, valid conv, or block sum."""
    n_bins = a.shape[1]
    if layer.kind == "dense":
        return weights @ a
    x = a.reshape(src.channels, src.height, src.width, n_bins)
    out = np.zeros((dst.channels, dst.height, dst.width, n_bins))
    if layer.kind == "conv":
        for p in range(layer.kernel_size):
            for q in range(layer.kernel_size):
                window = x[:, p : p + dst.height, q : q + dst.width, :]
                out += np.tensordot(weights[:, :, p, q], window, axes=(1, 0))
    else:
        b = layer.block_size
        for p in range(b):
            for q in range(b):
                out += x[:, p::b, q::b, :]
    return out.reshape(dst.neurons, n_bins)


def threshold(u_ff, theta, nu_taps, ts):
    """Spike at the first bins where feedforward plus refractory potential
    reaches theta; the recorded potential includes the new spike's nu(0)."""
    channels, n_bins = u_ff.shape
    fired = np.zeros((channels, n_bins))
    u = np.empty((channels, n_bins))
    for n in range(n_bins):
        lo = max(0, n - len(nu_taps) + 1)
        pre = u_ff[:, n] + fired[:, lo:n] @ nu_taps[n - lo : 0 : -1]
        fired[:, n] = pre >= theta
        u[:, n] = pre + fired[:, n] * nu_taps[0]
    return fired / ts, u


def reference_forward(net, train):
    """(spikes, potentials) per layer; index 0 is the input, potentials[0] None."""
    neuron, ts, n_bins = net.neuron, net.sim.ts_ms, net.sim.n_samples
    truncation = (neuron.tau_s, neuron.tau_r, ts, net.cutoff)
    eps_end = support_end(lambda t: epsilon(t, neuron.tau_s), *truncation)
    nu_end = support_end(lambda t: nu(t, neuron.theta, neuron.tau_r), *truncation)
    nu_taps = nu(np.arange(int(round(nu_end / ts)) + 1) * ts, neuron.theta, neuron.tau_r)
    spikes = [bin_events(train, net.layer_sizes[0], n_bins, ts)]
    potentials = [None]
    shapes = net.spec.shapes
    for t, params in enumerate(net.params):
        a = response(spikes[t], params.delays, ts, neuron.tau_s, eps_end)
        u_ff = linear(net.spec.layers[t + 1], shapes[t], shapes[t + 1], params.weights, a)
        s, u = threshold(u_ff, neuron.theta, nu_taps, ts)
        spikes.append(s)
        potentials.append(u)
    return spikes, potentials


def compare_forward(net, train, cache, tol=1e-9) -> list:
    """Differences between spikenet's forward cache and the reference, as
    messages; empty when every raster is equal and every potential agrees
    to `tol` away from bins within `tol` of theta."""
    spikes, potentials = reference_forward(net, train)
    theta = net.neuron.theta
    problems = []
    for layer in range(1, len(spikes)):
        if not np.array_equal(spikes[layer], cache.spikes[layer].values):
            diff = np.argwhere(spikes[layer] != cache.spikes[layer].values)[0]
            problems.append(f"layer {layer}: rasters differ first at neuron, bin {tuple(diff)}")
            continue
        got = cache.potentials[layer].values
        away = np.abs(got - theta) > tol
        worst = float(np.max(np.abs(got - potentials[layer])[away], initial=0.0))
        if worst > tol:
            problems.append(f"layer {layer}: potentials differ by {worst:.3g}")
    return problems
