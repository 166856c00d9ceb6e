"""Temporal error backpropagation with a surrogate spike derivative.

The backward pass runs the chain: the output error signal is correlated
with the (delayed) response kernel to move credit to earlier bins, scaled
pointwise by the spike-derivative surrogate rho(u), mapped back through
the transposed linear transition, and integrated against cached signals
to produce weight and delay gradients.  Delay gradients pair the layer
error with the kernel-derivative response of the layer's own spikes.

A soft forward mode replaces the threshold with a differentiable map g
whose derivative is exactly rho and disables the refractory term; on that
network the backward pass computes the exact gradient of the precise loss,
which finite differences verify to high accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .forward import SignalCache, spike_response
from .kernels import Kernel, convolve_values, correlate_values
from .losses import LossSpec, error_count, error_precise, loss_value
from .signals import SampledSignal, SpikeTrain, spikes_to_signal
from .topology import Network, _conv_rows, adjoint_linear, apply_linear


@dataclass(frozen=True)
class SurrogateConfig:
    """Spike-derivative surrogate rho(u) = (1/alpha) exp(-beta |u - theta|)."""

    alpha: float = 10.0
    beta: float = 0.5

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ParameterError("surrogate scale and sharpness must be positive")

    @classmethod
    def for_theta(cls, theta: float, alpha: float = 10.0) -> "SurrogateConfig":
        """Default sharpness: rho decays by e^-5 one threshold away from theta."""
        return cls(alpha=alpha, beta=5.0 / theta)


@dataclass(eq=False)
class Gradients:
    """Per-transition weight gradients (None where weights are frozen) and
    per-source-neuron delay gradients."""

    weights: list
    delays: list

    @classmethod
    def zeros_like(cls, net: Network) -> "Gradients":
        w = [
            None if p.weights is None else np.zeros_like(p.weights)
            for p in net.params
        ]
        d = [np.zeros_like(p.delays) for p in net.params]
        return cls(w, d)

    def add_scaled(self, other: "Gradients", scale: float) -> None:
        for t in range(len(self.delays)):
            if self.weights[t] is not None:
                self.weights[t] += scale * other.weights[t]
            self.delays[t] += scale * other.delays[t]

    def scale(self, factor: float) -> None:
        for t in range(len(self.delays)):
            if self.weights[t] is not None:
                self.weights[t] *= factor
            self.delays[t] *= factor


@dataclass(eq=False)
class BackpropTrace:
    """Per-layer error and credit signals kept for inspection."""

    errors: list
    deltas: list


def rho(u: SampledSignal, theta: float, cfg: SurrogateConfig) -> SampledSignal:
    """Pointwise surrogate derivative of the spike function at potential u."""
    values = np.exp(-cfg.beta * np.abs(u.values - theta)) / cfg.alpha
    return SampledSignal._adopt(values, u.ts_ms)


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


def output_error(
    net: Network,
    cache: SignalCache,
    spec: LossSpec,
    target: SpikeTrain | None = None,
    desired: np.ndarray | None = None,
    label: int | None = None,
) -> SampledSignal:
    """Error signal at the output layer for the configured loss mode."""
    s_out = cache.output_spikes
    if spec.mode == "precise":
        if target is None:
            raise ParameterError("precise loss needs a target spike train")
        return error_precise(s_out, target, net.epsilon, net.sim)
    if desired is None:
        if label is None:
            raise ParameterError("count loss needs desired counts or a label")
        desired = spec.desired_counts(label, s_out.channels)
    return error_count(s_out, desired, spec.interval, net.sim)


def delta_layer(
    e: SampledSignal,
    u: SampledSignal,
    epsilon: Kernel,
    delays: np.ndarray,
    theta: float,
    cfg: SurrogateConfig,
) -> SampledSignal:
    """Credit signal: rho(u) times the error correlated with the delayed kernel.

    The correlation pulls error from later bins back to the bins whose
    spikes caused it, shifted by the layer's own outgoing delays.
    """
    if e.values.shape != u.values.shape:
        raise ShapeError(f"error shape {e.values.shape} != potential {u.values.shape}")
    corr = correlate_values(e.values, epsilon, np.asarray(delays, dtype=np.float64))
    return SampledSignal._adopt(rho(u, theta, cfg).values * corr, e.ts_ms)


def weight_gradient(
    net: Network, t: int, delta: SampledSignal, a: SampledSignal
) -> np.ndarray | None:
    """Time integral of delta against the presynaptic response, in the
    weight layout of transition t; None for frozen aggregations."""
    kind = net.spec.layers[t + 1].kind
    ts = delta.ts_ms
    if kind == "dense":
        return ts * (delta.values @ a.values.T)
    if kind == "aggregate":
        return None
    src, dst = net.spec.shapes[t], net.spec.shapes[t + 1]
    k = net.spec.layers[t + 1].kernel_size
    x = a.values.reshape(src.channels, src.height, -1)
    d = delta.values.reshape(dst.channels, dst.height, -1)
    grad = np.zeros((dst.channels, src.channels * k * k))
    for i, block in _conv_rows(x, k, dst.width):
        grad += d[:, i] @ block.T
    return ts * grad.reshape(dst.channels, src.channels, k, k)


def delay_gradient(
    e: SampledSignal,
    s: SampledSignal,
    epsilon_dot: Kernel,
    delays: np.ndarray,
    ts: float,
    events=None,
) -> np.ndarray:
    """Per-neuron -integral of the response time-derivative against the error.

    Moving a delay later shifts the response right; the sign makes the
    gradient point toward increasing loss as delays grow.  ``events`` are
    the spike events of s, as in :func:`convolve_values`.
    """
    adot = convolve_values(s.values, epsilon_dot, np.asarray(delays, dtype=np.float64), events)
    return -ts * np.sum(adot * e.values, axis=1)


def backward(
    net: Network,
    cache: SignalCache,
    e_out: SampledSignal,
    surrogate: SurrogateConfig,
    want_trace: bool = False,
):
    """Run the full backward pipeline from an output error signal.

    Returns Gradients, or (Gradients, BackpropTrace) with want_trace.
    """
    n_t = net.n_transitions
    if e_out.channels != net.layer_sizes[-1]:
        raise ShapeError(
            f"output error has {e_out.channels} channels, expected {net.layer_sizes[-1]}"
        )
    epsilon, eps_dot = net.epsilon, net.epsilon_dot
    theta = net.neuron.theta
    ts = net.sim.ts_ms
    weight_grads: list = [None] * n_t
    delay_grads: list = [None] * n_t
    errors = [None] * (n_t + 1)
    deltas = [None] * (n_t + 1)
    e = e_out
    errors[n_t] = e
    for t in reversed(range(n_t)):
        layer = t + 1
        out_delays = (
            net.params[layer].delays
            if layer < n_t
            else np.zeros(net.layer_sizes[-1])
        )
        delta = delta_layer(
            e, cache.potentials[layer], epsilon, out_delays, theta, surrogate
        )
        deltas[layer] = delta
        weight_grads[t] = weight_gradient(net, t, delta, cache.responses[t])
        e = adjoint_linear(net, t, delta)
        errors[t] = e
        delay_grads[t] = delay_gradient(
            e, cache.spikes[t], eps_dot, net.params[t].delays, ts, cache.events[t]
        )
    grads = Gradients(weight_grads, delay_grads)
    for t in range(n_t):
        bad = (
            grads.weights[t] is not None and not np.all(np.isfinite(grads.weights[t]))
        ) or not np.all(np.isfinite(grads.delays[t]))
        if bad:
            raise NumericError(f"non-finite gradient in transition {t}")
    if want_trace:
        return grads, BackpropTrace(errors, deltas)
    return grads


def soft_forward(net: Network, spikes: SpikeTrain, surrogate: SurrogateConfig) -> SignalCache:
    """Forward pass with the threshold replaced by the differentiable map g
    and the refractory term disabled; used to verify gradients."""
    if spikes.neuron_count != net.layer_sizes[0]:
        raise ShapeError(
            f"input has {spikes.neuron_count} channels, network expects "
            f"{net.layer_sizes[0]}"
        )
    s = spikes_to_signal(spikes, net.sim)
    events = [None] * (net.n_transitions + 1)
    cache = SignalCache(spikes=[s], events=events, potentials=[None], responses=[], soft=True)
    epsilon = net.epsilon
    for t in range(net.n_transitions):
        a = spike_response(cache.spikes[t], net.params[t].delays, epsilon)
        cache.responses.append(a)
        u = apply_linear(net, t, a)
        cache.spikes.append(soft_spike(u, net.neuron.theta, surrogate))
        cache.potentials.append(u)
    return cache


def soft_loss(
    net: Network,
    spikes: SpikeTrain,
    spec: LossSpec,
    surrogate: SurrogateConfig,
    target: SpikeTrain | None = None,
    desired: np.ndarray | None = None,
    label: int | None = None,
) -> float:
    """Scalar loss of one soft-mode forward pass."""
    cache = soft_forward(net, spikes, surrogate)
    e = output_error(net, cache, spec, target=target, desired=desired, label=label)
    return loss_value(e)


def finite_diff_gradients(
    net: Network,
    spikes: SpikeTrain,
    spec: LossSpec,
    surrogate: SurrogateConfig,
    h: float = 1e-5,
    target: SpikeTrain | None = None,
    desired: np.ndarray | None = None,
    label: int | None = None,
) -> Gradients:
    """Central finite differences of the soft-mode loss over every parameter.

    Probes mutate parameters in place and restore them, so delays may be
    evaluated slightly below zero during a probe; the kernels accept that.
    """
    kwargs = dict(spec=spec, surrogate=surrogate, target=target, desired=desired, label=label)

    def probe(array: np.ndarray, idx) -> float:
        original = array[idx]
        array[idx] = original + h
        up = soft_loss(net, spikes, **kwargs)
        array[idx] = original - h
        down = soft_loss(net, spikes, **kwargs)
        array[idx] = original
        return (up - down) / (2.0 * h)

    grads = Gradients.zeros_like(net)
    for t, params in enumerate(net.params):
        if params.weights is not None:
            for idx in np.ndindex(params.weights.shape):
                grads.weights[t][idx] = probe(params.weights, idx)
        for c in range(len(params.delays)):
            grads.delays[t][c] = probe(params.delays, (c,))
    return grads

