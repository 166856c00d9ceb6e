"""Aggregations filter after pooling: each source neuron's delayed kernel
is a mix of two shared kernels, so pooling commutes with the time filter.
The pooled forward and backward must agree with the generic route
(convolve every source neuron, then pool; spread the pooled error, then
correlate) to rounding, in hard and soft mode."""

import numpy as np
import pytest

from spikenet import (
    LossSpec,
    NeuronConfig,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SurrogateConfig,
    adjoint_linear,
    apply_linear,
    backward,
    forward,
    init_network,
    make_epsilon,
    make_epsilon_dot,
    output_error,
    parse_architecture,
    poisson_spike_train,
    soft_spike,
)
from spikenet.backprop import _times_rho, delay_gradient, delta_layer, weight_gradient
from spikenet.errors import ConfigError, ParameterError
from spikenet.forward import simulate_layer
from spikenet.kernels import (
    Workspace,
    convolve_values,
    correlate_values,
    delay_mix,
    mix_taps,
    pool_convolve,
    pool_correlate,
)
from spikenet.losses import output_credit
from spikenet.signals import SpikeEvents
from spikenet.topology import pool_rows

# zero, fractional, exact integers, integer + fraction, a probe's -h, one
# past the kernel's support and one past the 30-bin window
DELAYS = np.array([0.0, 0.4, 1.0, 2.0, 1.7, 2.3, -1e-5, 24.5, 40.0])
# 1x1, 2x2 and 3x3 blocks, and pooling of the input
ARCHS = ["5x5x2-3c2-1a-3", "6x6x2-2c3-2a-3", "7x7x2-2c2-3a-3", "6x6x2-3a-2c2-3"]


def _assert_close(got, want):
    """Agreement to 1e-12 of each value, or of the largest one where a
    signed sum cancels to a small remainder."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))


def _mixed_taps(kernel, tau, delays, taps, dot):
    """table[c, j] rebuilt from delay_mix and mix_taps, as delayed_taps lays it out."""
    shift, eps, eps_dot = delay_mix(delays, tau, kernel.ts_ms, taps)
    h = mix_taps(tau, kernel.ts_ms, len(kernel.samples))
    lag = np.arange(taps) - shift[:, None]
    inside = (lag >= 0) & (lag < h.shape[1])
    at = np.where(inside, lag, 0)
    a, b, *lag0 = eps_dot if dot else eps
    table = a[:, None] * h[0, at] + b[:, None] * h[1, at]
    if dot:
        table += lag0[0][:, None] * (lag == 0)
    return np.where(inside, table, 0.0)


@pytest.mark.parametrize(
    "neuron, ts",
    [
        (NeuronConfig(5.0, 2.0, 1.0), 1.0),
        (NeuronConfig(5.0, 2.0, 1.0), 0.5),
        (NeuronConfig(5.0, 1.0, 4.0), 1.0),  # eps keeps 18 samples, eps_dot 17
        (NeuronConfig(5.0, 1e-3, 1.0), 1.0),  # e^(Ts/tau) would overflow
    ],
)
@pytest.mark.parametrize("dot", [False, True])
def test_two_kernel_tables_are_the_delayed_taps(neuron, ts, dot):
    kernel = (make_epsilon_dot if dot else make_epsilon)(neuron, ts)
    delays = np.concatenate((DELAYS, DELAYS * 3.0 + 0.25, [-ts]))
    taps = len(kernel.samples) + 12
    want = Workspace().delayed_taps(kernel, delays, taps)
    got = _mixed_taps(kernel, neuron.tau_s, delays, taps, dot)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_a_delay_below_minus_ts_is_refused():
    with pytest.raises(ParameterError, match=r"^delay -1.5 of neuron 1 is below -Ts = -1.0$"):
        delay_mix(np.array([0.0, -1.5]), 2.0, 1.0, 30)


def _net(arch, ts=1.0, seed=2):
    neuron, sim = NeuronConfig(5.0, 2.0, 1.0), SimConfig(30.0, ts)
    net = init_network(parse_architecture(arch), neuron, sim, seed=seed, gain=60.0)
    for params in net.params:
        params.delays[:] = np.resize(DELAYS, params.delays.shape)
    return net


def _source(cache, t):
    source = cache.spikes[t]
    return source if isinstance(source, SpikeEvents) else source.values


def _generic_forward(net, x, surrogate):
    """Potentials and spikes of forward, every transition convolved per
    source neuron and then mapped, aggregations included."""
    cache = forward(net, x, surrogate)  # for its input events only
    spikes, potentials = [cache.spikes[0]], [None]
    for t, params in enumerate(net.params):
        source = spikes[t] if isinstance(spikes[t], SpikeEvents) else spikes[t].values
        a = SampledSignal(convolve_values(source, net.epsilon, params.delays), net.sim.ts_ms)
        u = apply_linear(net, t, a)
        if surrogate is None:
            s, u = simulate_layer(u, net.nu, net.neuron.theta)
        else:
            u = SampledSignal(u, net.sim.ts_ms)
            s = soft_spike(u, net.neuron.theta, surrogate)
        spikes.append(s)
        potentials.append(u)
    return spikes, potentials


def _materialized_backward(net, cache, e_out, surrogate):
    """Weight gradients, delay gradients and hidden credits of backward's
    chain, with every aggregation's error spread by adjoint_linear."""
    theta, ts = net.neuron.theta, net.sim.ts_ms
    credit = np.array(output_credit(e_out, net.epsilon))
    delta = SampledSignal(_times_rho(credit, cache.potentials[-1].values, theta, surrogate), ts)
    weights, delays, credits = {}, {}, {}
    for t in reversed(range(net.n_transitions)):
        weights[t] = weight_gradient(net, t, delta, cache.responses[t])
        error = adjoint_linear(net, t, delta)
        d = net.params[t].delays
        delays[t] = delay_gradient(error, cache.spikes[t], net.epsilon_dot, d)
        if t > 0:
            delta = delta_layer(error, cache.potentials[t], net.epsilon, d, theta, surrogate)
            delta = SampledSignal(np.array(delta.values), ts)
            credits[t] = delta.values
    return weights, delays, credits


def _inputs(net):
    silent = SpikeTrain(net.layer_sizes[0], [])
    return {"spiking": poisson_spike_train(net.layer_sizes[0], 150.0, net.sim, 4), "silent": silent}


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("ts", [1.0, 0.5])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("drive", ["spiking", "silent"])
def test_pooled_forward_is_convolve_then_pool(arch, ts, soft, drive):
    net = _net(arch, ts)
    surrogate = SurrogateConfig.for_theta(net.neuron.theta) if soft else None
    x = _inputs(net)[drive]
    cache = forward(net, x, surrogate)
    spikes, potentials = _generic_forward(net, x, surrogate)
    for t in range(net.n_transitions):
        _assert_close(cache.potentials[t + 1].values, potentials[t + 1].values)
        # soft spikes are continuous, so they too agree to rounding
        _assert_close(cache.spikes[t + 1].values, spikes[t + 1].values)
    for t, layer in enumerate(net.spec.layers[1:]):
        if layer.kind == "aggregate":
            source, d = _source(cache, t), net.params[t].delays
            a = SampledSignal(convolve_values(source, net.epsilon, d), ts)
            want = apply_linear(net, t, a)
            rows, eps, tau = pool_rows(net, t), net.epsilon, net.neuron.tau_s
            got = pool_convolve(source, rows, net.layer_sizes[t + 1], eps, tau, d)
            _assert_close(got, want)
            assert drive == "silent" or got.any()


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("ts", [1.0, 0.5])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("mode", ["precise", "count"])
def test_pooled_backward_is_the_materialized_backward(arch, ts, soft, mode):
    net = _net(arch, ts)
    surrogate = SurrogateConfig.for_theta(net.neuron.theta)
    x = _inputs(net)["spiking"]
    cache = forward(net, x, surrogate if soft else None)
    spec = LossSpec("precise") if mode == "precise" else LossSpec("count", 6.0, 2.0, (0.0, 30.0))
    target = poisson_spike_train(net.layer_sizes[-1], 60.0, net.sim, 5) if mode == "precise" else 1
    e_out = output_error(net, cache, spec, target)
    weights, delays, credits = _materialized_backward(net, cache, e_out, surrogate)
    grads = backward(net, cache, e_out, surrogate)
    for t in range(net.n_transitions):
        if weights[t] is None:
            assert grads.weights[t] is None
        else:
            _assert_close(grads.weights[t], weights[t])
        _assert_close(grads.delays[t], delays[t])
    rng = np.random.default_rng(6)
    for t, layer in enumerate(net.spec.layers[1:]):
        if layer.kind != "aggregate":
            continue
        d = net.params[t].delays
        e = rng.normal(size=(net.layer_sizes[t + 1], net.sim.n_samples))
        spread = adjoint_linear(net, t, SampledSignal(e, ts))
        got, credit = pool_correlate(
            e, _source(cache, t), pool_rows(net, t), net.epsilon, net.epsilon_dot,
            net.neuron.tau_s, d, work=Workspace(),
        )
        _assert_close(got, delay_gradient(spread, cache.spikes[t], net.epsilon_dot, d))
        _assert_close(credit, correlate_values(spread.values, net.epsilon, d))
        assert t == 0 or np.any(credits[t] != 0.0)


def test_a_silent_source_gives_zero_delay_gradients_and_credit():
    net = _net("6x6x2-3a-2c2-3")
    cache = forward(net, SpikeTrain(net.layer_sizes[0], []))
    e = np.ones((net.layer_sizes[1], net.sim.n_samples))
    grad, credit = pool_correlate(
        e, cache.spikes[0], pool_rows(net, 0), net.epsilon, net.epsilon_dot,
        net.neuron.tau_s, net.params[0].delays, credit=False,
    )
    assert credit is None
    assert grad.dtype == np.float64
    np.testing.assert_array_equal(grad, 0.0)


def test_a_kernel_of_another_tau_is_refused():
    net = _net("6x6x2-3a-2c2-3")
    cache, rows, d = forward(net, _inputs(net)["spiking"]), pool_rows(net, 0), net.params[0].delays
    e = np.ones((net.layer_sizes[1], net.sim.n_samples))
    with pytest.raises(ConfigError, match=r"^kernel is not epsilon of tau_s = 2.5 at Ts = 1.0$"):
        pool_convolve(cache.spikes[0], rows, net.layer_sizes[1], net.epsilon, 2.5, d)
    other = make_epsilon_dot(NeuronConfig(5.0, 2.5, 1.0), 1.0)
    with pytest.raises(ConfigError, match=r"^kernel is not epsilon_dot of tau_s = 2.0 at Ts = 1.0$"):
        pool_correlate(e, cache.spikes[0], rows, net.epsilon, other, 2.0, d, credit=False)
