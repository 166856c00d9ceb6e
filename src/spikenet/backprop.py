"""Temporal error backpropagation with a surrogate spike derivative.

The backward pass runs the chain: the loss turns the output error into
credit on the output spikes (:func:`spikenet.losses.output_credit`), and
a hidden layer's error signal is correlated with the (delayed) response
kernel to move credit to earlier bins.  Credit is scaled pointwise by the
spike-derivative surrogate rho(u), mapped back through the transposed
linear transition, and integrated against cached signals to produce
weight and delay gradients.  Delay gradients pair the layer error with
the kernel-derivative response of the layer's own spikes.

On a soft-mode forward pass (see :mod:`spikenet.forward`) the backward
pass computes the exact gradient of the precise or count loss, which
:func:`finite_diff_gradients` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, require_positive
from .forward import SignalCache, SurrogateConfig, forward
from .kernels import Kernel, Workspace, convolve_values, correlate_values, pool_correlate, workspace
from .losses import LossSpec, loss_value, output_credit, output_error
from .signals import SampledSignal, SpikeEvents, SpikeTrain
from .topology import Network, adjoint_linear, pool_rows, weight_gradient

_RHO_BLOCK = 1 << 14  # samples of rho built at a time, so none is the size of a signal


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

    def _arrays(self) -> list:
        return [a for a in self.weights + self.delays if a is not None]

    def clear(self) -> None:
        for a in self._arrays():
            a.fill(0.0)

    def absorb(self, other: "Gradients", scale: float) -> None:
        """self += scale * other, scaling ``other`` in place on the way, so
        no gradient-sized temporary is made and ``other`` is spent."""
        for mine, theirs in zip(self._arrays(), other._arrays()):
            theirs *= scale
            mine += theirs


def _times_rho(x: np.ndarray, u: np.ndarray, theta: float, cfg: SurrogateConfig) -> np.ndarray:
    """x *= rho(u) in place, rho built in row blocks of _RHO_BLOCK samples; returns x."""
    channels, n_samples = x.shape
    rows = max(1, _RHO_BLOCK // n_samples)
    block = np.empty((min(rows, channels), n_samples))
    for start in range(0, channels, rows):
        part = x[start : start + rows]
        rho = np.subtract(u[start : start + rows], theta, out=block[: len(part)])
        np.abs(rho, out=rho)
        rho *= -cfg.beta
        np.exp(rho, out=rho)
        rho /= cfg.alpha
        part *= rho
    return x


def delta_layer(
    e: SampledSignal,
    u: SampledSignal,
    epsilon: Kernel,
    delays: np.ndarray,
    theta: float,
    cfg: SurrogateConfig,
    work: Workspace | None = None,
) -> SampledSignal:
    """Credit signal: rho(u) times the error correlated with the delayed kernel.

    The correlation pulls error from later bins back to the bins whose
    spikes caused it, shifted by the layer's own outgoing delays.  The
    credit is built in place in the correlation, so it lives in ``work``
    when that is given, valid until its next use.
    """
    if e.values.shape != u.values.shape:
        raise ShapeError(f"error shape {e.values.shape} != potential {u.values.shape}")
    credit = correlate_values(e.values, epsilon, delays, work)
    return SampledSignal._adopt(_times_rho(credit, u.values, theta, cfg), e.ts_ms)


def delay_gradient(
    e: SampledSignal,
    s: SampledSignal,
    epsilon_dot: Kernel,
    delays: np.ndarray,
    out=None,
    work: Workspace | None = None,
) -> np.ndarray:
    """Per-neuron -integral of the response time-derivative against the error.

    Moving a delay later shifts the response right; the sign makes the
    gradient point toward increasing loss as delays grow.  ``work`` is the
    workspace, as in :func:`convolve_values`; ``out`` receives the result.
    """
    source = s if isinstance(s, SpikeEvents) else s.values
    adot = convolve_values(source, epsilon_dot, delays, work, keep=False)
    adot *= e.values
    out = adot.sum(axis=1, out=out)
    out *= -epsilon_dot.ts_ms
    return out


def backward(
    net: Network,
    cache: SignalCache,
    e_out: SampledSignal,
    surrogate: SurrogateConfig,
    out: Gradients | None = None,
) -> Gradients:
    """Run the full backward pipeline from an output error signal; its
    type chooses the loss's credit rule (:func:`output_credit`).

    The gradients are written into ``out`` (laid out as
    :meth:`Gradients.zeros_like`) when it is given, else into new arrays.
    A frozen aggregation's error stays pooled: :func:`pool_correlate`
    filters it once per pooled neuron for the delay gradient and the
    source layer's credit.
    """
    n_t = net.n_transitions
    u_out = cache.potentials[n_t]
    if e_out.values.shape != u_out.values.shape:
        raise ShapeError(
            f"output error shape {e_out.values.shape} != potential {u_out.values.shape}"
        )
    epsilon, eps_dot = net.epsilon, net.epsilon_dot
    theta = net.neuron.theta
    ts = net.sim.ts_ms
    grads = Gradients([None] * n_t, [None] * n_t) if out is None else out
    with workspace() as work:
        credit = output_credit(e_out, epsilon, work)
        delta = SampledSignal._adopt(_times_rho(credit, u_out.values, theta, surrogate), ts)
        for t in reversed(range(n_t)):
            grads.weights[t] = weight_gradient(
                net, t, delta, cache.responses[t], grads.weights[t]
            )
            delays, source = net.params[t].delays, cache.spikes[t]
            if net.spec.layers[t + 1].kind == "aggregate":
                source = source if isinstance(source, SpikeEvents) else source.values
                grads.delays[t], credit = pool_correlate(
                    delta.values, source, pool_rows(net, t), epsilon, eps_dot,
                    net.neuron.tau_s, delays, grads.delays[t], work, credit=t > 0,
                )
                if t > 0:
                    u = cache.potentials[t].values
                    delta = SampledSignal._adopt(_times_rho(credit, u, theta, surrogate), ts)
                continue
            # a credit may live in the workspace: weight_gradient and the
            # adjoint read it before delay_gradient takes the workspace again
            e = adjoint_linear(net, t, delta)
            grads.delays[t] = delay_gradient(e, source, eps_dot, delays, grads.delays[t], work)
            if t > 0:
                u = cache.potentials[t]
                delta = delta_layer(e, u, epsilon, delays, theta, surrogate, work)
            del e  # spent: freed before the next adjoint builds its own
    for t, (w, d) in enumerate(zip(grads.weights, grads.delays)):
        if (w is not None and not np.isfinite(w).all()) or not np.isfinite(d).all():
            raise NumericError(f"non-finite gradient in transition {t}")
    return grads


def soft_forward(net: Network, spikes: SpikeTrain, surrogate: SurrogateConfig) -> SignalCache:
    """Soft-mode :func:`forward`, the pass whose gradient backward computes."""
    return forward(net, spikes, surrogate)


def soft_loss(
    net: Network,
    spikes: SpikeTrain,
    spec: LossSpec,
    surrogate: SurrogateConfig,
    target: SpikeTrain | int | None = None,
) -> float:
    """Scalar loss of one soft-mode forward pass against the sample's target."""
    return loss_value(output_error(net, forward(net, spikes, surrogate), spec, target))


def finite_diff_gradients(
    net: Network,
    spikes: SpikeTrain,
    spec: LossSpec,
    surrogate: SurrogateConfig,
    h: float = 1e-5,
    target: SpikeTrain | int | None = None,
) -> Gradients:
    """Central finite differences of the soft-mode loss over every parameter.

    Probes mutate parameters in place and restore them, so delays may be
    evaluated slightly below zero during a probe; the kernels accept that.
    """
    require_positive(h=h)

    def probe(array: np.ndarray, idx) -> float:
        original = array[idx]
        array[idx] = original + h
        up = soft_loss(net, spikes, spec, surrogate, target)
        array[idx] = original - h
        down = soft_loss(net, spikes, spec, surrogate, target)
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

