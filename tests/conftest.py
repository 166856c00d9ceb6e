"""Shared test helpers: slow, independent reference implementations.

Everything here is written as plain scalar loops on purpose.  The
library code is vectorized; these oracles recompute the same quantities
the dumb way so that agreement between the two is meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from spikenet import (
    LayerParams,
    Network,
    NeuronConfig,
    SimConfig,
    SpikeTrain,
    parse_architecture,
)


def ref_epsilon(t: float, tau_s: float) -> float:
    """Postsynaptic response kernel, direct from the closed form."""
    if t < 0:
        return 0.0
    return (t / tau_s) * math.exp(1.0 - t / tau_s)


def ref_nu(t: float, theta: float, tau_r: float) -> float:
    """Refractory kernel, direct from the closed form."""
    if t < 0:
        return 0.0
    return -2.0 * theta * math.exp(1.0 - t / tau_r)


def ref_epsilon_dot(t: float, tau_s: float) -> float:
    """Time derivative of ref_epsilon."""
    if t < 0:
        return 0.0
    return (1.0 / tau_s) * (1.0 - t / tau_s) * math.exp(1.0 - t / tau_s)


def truncate_ref(fn, support_end):
    """Clip a closed-form kernel to the library's truncated support."""
    return lambda t: fn(t) if t <= support_end else 0.0


def ref_convolve(signal, kernel_fn, ts, delay=0.0):
    """O(n^2) discrete convolution with a delayed analog kernel.

    ``signal`` is a 1-D array of bin values, ``kernel_fn`` maps a time in
    ms to a kernel value.  Returns an array of the same length.
    """
    n = len(signal)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(i + 1):
            acc += signal[j] * kernel_fn((i - j) * ts - delay)
        out[i] = acc * ts
    return out


def ref_correlate(signal, kernel_fn, ts, delay=0.0):
    """O(n^2) discrete correlation, the time-reversed partner of ref_convolve."""
    n = len(signal)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(i, n):
            acc += signal[j] * kernel_fn((j - i) * ts - delay)
        out[i] = acc * ts
    return out


def ref_simulate(u_ff, theta, tau_r, ts, support_end=math.inf):
    """Scalar-loop reference of the threshold/refractory dynamics.

    Takes one neuron's feedforward potential trace, returns (spikes, u)
    where spikes holds 1/ts at firing bins and u includes the refractory
    feedback from each spike starting at its own bin.  ``support_end``
    clips the refractory kernel like the library's truncated sampling.
    """
    n = len(u_ff)
    u = np.array(u_ff, dtype=float)
    s = np.zeros(n)
    for m in range(n):
        if u[m] >= theta:
            s[m] = 1.0 / ts
            for k in range(m, n):
                if (k - m) * ts <= support_end:
                    u[k] += ref_nu((k - m) * ts, theta, tau_r)
    return s, u


def build_dense_net(arch, theta, tau_s, tau_r, t_ms, ts_ms, seed=0, gain=None):
    """Small fully-specified network for oracle tests."""
    from spikenet import init_network

    spec = parse_architecture(arch)
    neuron = NeuronConfig(theta, tau_s, tau_r)
    sim = SimConfig(t_ms, ts_ms)
    return init_network(spec, neuron, sim, seed=seed, gain=gain)


def well_conditioned_net(seed=0, arch="4-6-3"):
    """A network (4-6-3 by default) tuned so every surrogate gradient is
    comfortably above the finite-difference noise floor: low threshold,
    slow kernels, moderate weights and fractional delays off the sampling
    grid."""
    net = build_dense_net(arch, theta=1.0, tau_s=3.0, tau_r=3.0,
                          t_ms=30.0, ts_ms=1.0, seed=seed, gain=1.5)
    rng = np.random.default_rng([seed, 5])
    for params in net.params:
        params.delays[:] = rng.uniform(0.1, 1.9, size=params.delays.shape)
    return net


def manual_network(arch, weights, delays, neuron, sim, cutoff=1e-6):
    """Build a Network from explicit parameter arrays."""
    spec = parse_architecture(arch)
    params = [
        LayerParams(None if w is None else np.array(w, dtype=float),
                    np.array(d, dtype=float))
        for w, d in zip(weights, delays)
    ]
    return Network(spec, params, neuron, sim, cutoff)


def staircase_train(net):
    """Input channel k fires once, at the centre of bin k.  With zero
    delays its response is exactly 0 up to and including bin k, so column
    k of transition 0's weight gradient integrates credit at later bins
    only."""
    bins = np.arange(net.layer_sizes[0])
    return SpikeTrain(len(bins), np.column_stack((bins, net.sim.bin_center(bins))))
