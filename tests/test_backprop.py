"""Surrogate derivative, credit assignment, and parameter gradients."""

import numpy as np
import pytest

from conftest import (
    ref_convolve,
    ref_correlate,
    ref_epsilon,
    ref_epsilon_dot,
    staircase_train,
    truncate_ref,
    well_conditioned_net,
)
from spikenet import (
    Gradients,
    LossSpec,
    NeuronConfig,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SurrogateConfig,
    adjoint_linear,
    backward,
    finite_diff_gradients,
    forward,
    init_network,
    parse_architecture,
    poisson_spike_train,
    soft_forward,
    soft_loss,
)
from spikenet.backprop import _times_rho, delay_gradient, delta_layer, output_error, weight_gradient
from spikenet.errors import NumericError, ParameterError
from spikenet.forward import soft_spike
from spikenet.losses import error_count, error_precise, interval_bins, output_credit
from spikenet.signals import SpikeEvents


def _sig(values, ts=1.0):
    return SampledSignal(np.asarray(values, dtype=float), ts)


def test_surrogate_config_for_theta():
    cfg = SurrogateConfig.for_theta(10.0)
    assert cfg.alpha == 10.0
    assert cfg.beta == pytest.approx(0.5)


@pytest.mark.parametrize("theta", [0.0, -1.0])
def test_surrogate_for_theta_rejects_a_non_positive_theta(theta):
    """Zero must not reach the division, nor -1 the check that names beta."""
    with pytest.raises(ParameterError, match=rf"^theta must be positive and finite, got {theta}$"):
        SurrogateConfig.for_theta(theta)


def _rho(u, theta, cfg):
    return _times_rho(np.ones((1, 1)), np.array([[u]]), theta, cfg)[0, 0]


def test_rho_landmarks():
    cfg = SurrogateConfig(alpha=10.0, beta=0.5)
    at = lambda u: _rho(u, 10.0, cfg)
    assert at(10.0) == pytest.approx(1.0 / 10.0, rel=1e-15)
    assert at(12.0) == pytest.approx(np.exp(-1.0) / 10.0, rel=1e-14)
    assert at(8.0) == pytest.approx(at(12.0), rel=1e-14)
    assert at(-50.0) > 0.0  # never exactly dead


def test_soft_spike_value_at_threshold():
    cfg = SurrogateConfig(alpha=10.0, beta=0.5)
    g = soft_spike(_sig([[10.0]]), 10.0, cfg)
    assert g.values[0, 0] == pytest.approx(1.0 / (10.0 * 0.5), rel=1e-14)


def test_soft_spike_is_continuous_and_monotone():
    cfg = SurrogateConfig(alpha=4.0, beta=0.8)
    uu = np.linspace(-5.0, 25.0, 4001)
    g = soft_spike(_sig(uu[None, :]), 10.0, cfg).values[0]
    assert np.all(np.diff(g) > 0.0)
    below = soft_spike(_sig([[10.0 - 1e-12]]), 10.0, cfg).values[0, 0]
    above = soft_spike(_sig([[10.0 + 1e-12]]), 10.0, cfg).values[0, 0]
    assert above - below == pytest.approx(0.0, abs=1e-10)


def test_soft_spike_derivative_is_rho():
    cfg = SurrogateConfig(alpha=3.0, beta=0.6)
    h = 1e-6
    for u in (-2.0, 7.0, 10.0, 13.0, 20.0):
        left = soft_spike(_sig([[u - h]]), 10.0, cfg).values[0, 0]
        right = soft_spike(_sig([[u + h]]), 10.0, cfg).values[0, 0]
        want = _rho(u, 10.0, cfg)
        assert (right - left) / (2 * h) == pytest.approx(want, rel=1e-4, abs=1e-9)


def test_soft_spike_saturates_without_overflow():
    cfg = SurrogateConfig(alpha=10.0, beta=0.5)
    with np.errstate(over="raise"):
        g = soft_spike(_sig([[-1e6, 1e6]]), 10.0, cfg).values[0]
    assert g[0] == 0.0
    assert g[1] == pytest.approx(2.0 / (10.0 * 0.5), rel=1e-12)


def _toy_net(seed=0, arch="3-4-2"):
    return init_network(
        parse_architecture(arch),
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(25.0, 1.0),
        seed=seed,
    )


def _poisson_in(net, rate, seed):
    return poisson_spike_train(net.layer_sizes[0], rate, net.sim, seed)


def test_output_error_dispatches_precise():
    net = _toy_net()
    cache = forward(net, _poisson_in(net, 120.0, 0))
    target = poisson_spike_train(net.layer_sizes[-1], 60.0, net.sim, 1)
    got = output_error(net, cache, LossSpec("precise"), target=target)
    want = error_precise(cache.spikes[-1], target, net.epsilon, net.sim)
    np.testing.assert_array_equal(got.values, want.values)


def test_output_error_dispatches_count():
    net = _toy_net()
    cache = forward(net, _poisson_in(net, 120.0, 0))
    spec = LossSpec("count", 6.0, 2.0, (0.0, 25.0))
    got = output_error(net, cache, spec, 1)
    want = error_count(cache.spikes[-1], spec.desired_counts(1, 2), (0.0, 25.0), net.sim)
    np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("label", [-1, 2])
def test_output_error_rejects_a_label_outside_the_output_layer(label):
    """-1 would index the last class and train it as the true one."""
    net = _toy_net()
    cache = forward(net, _poisson_in(net, 120.0, 0))
    with pytest.raises(ParameterError, match=f"label {label} outside 0..1"):
        output_error(net, cache, LossSpec("count", 6.0, 2.0, (0.0, 25.0)), label)


def test_delta_layer_zero_error_gives_zero():
    net = _toy_net()
    cache = forward(net, _poisson_in(net, 120.0, 0))
    cfg = SurrogateConfig(10.0, 0.5)
    zero = _sig(np.zeros((2, 25)))
    d = delta_layer(zero, cache.potentials[2], net.epsilon, np.zeros(2), 10.0, cfg)
    assert np.all(d.values == 0.0)


def test_weight_gradient_dense_matches_triple_loop():
    net = _toy_net()
    rng = np.random.default_rng(5)
    delta = _sig(rng.normal(size=(4, 25)))
    a = _sig(rng.normal(size=(3, 25)))
    got = weight_gradient(net, 0, delta, a)
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for n in range(25):
                want[i, j] += 1.0 * delta.values[i, n] * a.values[j, n]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_weight_gradient_conv_matches_loops():
    net = init_network(
        parse_architecture("3x3x2-2c2-1"),
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(10.0, 1.0),
        seed=1,
    )
    rng = np.random.default_rng(6)
    delta = _sig(rng.normal(size=(2 * 2 * 2, 10)))
    a = _sig(rng.normal(size=(2 * 3 * 3, 10)))
    got = weight_gradient(net, 0, delta, a)
    d = delta.values.reshape(2, 2, 2, 10)
    x = a.values.reshape(2, 3, 3, 10)
    want = np.zeros((2, 2, 2, 2))
    for f in range(2):
        for c in range(2):
            for p in range(2):
                for q in range(2):
                    for i in range(2):
                        for j in range(2):
                            want[f, c, p, q] += np.sum(d[f, i, j] * x[c, i + p, j + q])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_weight_gradient_aggregate_is_none():
    net = init_network(
        parse_architecture("4x4-2a-2"),
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(10.0, 1.0),
    )
    delta = _sig(np.ones((4, 10)))
    a = _sig(np.ones((16, 10)))
    assert weight_gradient(net, 0, delta, a) is None


def test_delay_gradient_silent_source_is_zero():
    net = _toy_net()
    e = _sig(np.ones((3, 25)))
    s = _sig(np.zeros((3, 25)))
    g = delay_gradient(e, s, net.epsilon_dot, np.zeros(3))
    np.testing.assert_array_equal(g, np.zeros(3))


def test_delay_gradient_matches_reference():
    net = _toy_net()
    dot_ref = truncate_ref(lambda t: ref_epsilon_dot(t, 2.0), net.epsilon_dot.support_end)
    rng = np.random.default_rng(7)
    e = rng.normal(size=(3, 25))
    s = (rng.uniform(size=(3, 25)) < 0.3).astype(float)
    delays = rng.uniform(0.0, 3.0, size=3)
    got = delay_gradient(_sig(e), _sig(s), net.epsilon_dot, delays)
    for j in range(3):
        a_dot = ref_convolve(s[j], dot_ref, 1.0, delays[j])
        want = -1.0 * np.sum(a_dot * e[j])
        assert got[j] == pytest.approx(want, abs=1e-10)


def _reference_backward(net, cache, e_out, surrogate):
    """Naive-loop re-derivation of the whole backward pipeline."""
    ts = net.sim.ts_ms
    theta = net.neuron.theta
    eps_ref = truncate_ref(
        lambda t: ref_epsilon(t, net.neuron.tau_s), net.epsilon.support_end
    )
    dot_ref = truncate_ref(
        lambda t: ref_epsilon_dot(t, net.neuron.tau_s), net.epsilon_dot.support_end
    )
    n_tr = net.n_transitions
    weight_grads, delay_grads = [None] * n_tr, [None] * n_tr
    e = np.array(e_out.values)
    for t in reversed(range(n_tr)):
        u = cache.potentials[t + 1].values
        out_delays = (
            net.params[t + 1].delays if t + 1 < n_tr else np.zeros(u.shape[0])
        )
        delta = np.zeros_like(u)
        for i in range(u.shape[0]):
            corr = ref_correlate(e[i], eps_ref, ts, out_delays[i])
            dens = np.exp(-surrogate.beta * np.abs(u[i] - theta)) / surrogate.alpha
            delta[i] = dens * corr
        a = cache.responses[t].values
        w = net.params[t].weights
        if w is not None:
            grad = np.zeros_like(w)
            if w.ndim == 2:
                for i in range(w.shape[0]):
                    for j in range(w.shape[1]):
                        grad[i, j] = ts * np.sum(delta[i] * a[j])
            weight_grads[t] = grad
        # error at the source layer through the exact adjoint
        e = adjoint_linear(net, t, _sig(delta, ts)).values
        s = cache.spikes[t].values
        d_grad = np.zeros(s.shape[0])
        for j in range(s.shape[0]):
            a_dot = ref_convolve(s[j], dot_ref, ts, net.params[t].delays[j])
            d_grad[j] = -ts * np.sum(a_dot * e[j])
        delay_grads[t] = d_grad
    return weight_grads, delay_grads


def test_backward_matches_naive_reference():
    surrogate = SurrogateConfig(10.0, 0.5)
    for seed in range(3):
        net = _toy_net(seed=seed)
        rng = np.random.default_rng([seed, 3])
        for params in net.params:
            params.delays[:] = rng.uniform(0.0, 2.5, size=params.delays.shape)
        cache = forward(net, _poisson_in(net, 150.0, seed))
        target = poisson_spike_train(net.layer_sizes[-1], 60.0, net.sim, [seed, 9])
        e_out = output_error(net, cache, LossSpec("precise"), target=target)
        got = backward(net, cache, e_out, surrogate)
        want_w, want_d = _reference_backward(net, cache, e_out, surrogate)
        for t in range(net.n_transitions):
            np.testing.assert_allclose(got.weights[t], want_w[t], atol=1e-10)
            np.testing.assert_allclose(got.delays[t], want_d[t], atol=1e-10)


def test_backward_zero_error_zero_gradients():
    net = _toy_net()
    cache = forward(net, _poisson_in(net, 120.0, 0))
    e_out = _sig(np.zeros((2, 25)))
    grads = backward(net, cache, e_out, SurrogateConfig(10.0, 0.5))
    for t in range(net.n_transitions):
        assert np.all(grads.weights[t] == 0.0)
        assert np.all(grads.delays[t] == 0.0)


def test_backward_is_linear_in_the_error():
    net = _toy_net(seed=2)
    cache = forward(net, _poisson_in(net, 150.0, 4))
    rng = np.random.default_rng(8)
    e_out = _sig(rng.normal(size=(2, 25)))
    scaled = _sig(3.0 * e_out.values)
    g1 = backward(net, cache, e_out, SurrogateConfig(10.0, 0.5))
    g3 = backward(net, cache, scaled, SurrogateConfig(10.0, 0.5))
    for t in range(net.n_transitions):
        np.testing.assert_allclose(g3.weights[t], 3.0 * g1.weights[t], rtol=1e-12)
        np.testing.assert_allclose(g3.delays[t], 3.0 * g1.delays[t], rtol=1e-12, atol=1e-15)


def test_credit_flows_strictly_backward_in_time():
    """On a staircase input, transition 0's weight gradient column k
    integrates hidden credit at bins after k only.  With output error on
    the last 5 bins, the inputs whose response ends before them still get
    credit, and editing the error before bin m leaves every column
    k >= m - 1 bit-identical."""
    net = init_network(
        parse_architecture("30-6-2"), NeuronConfig(10.0, 1.0, 1.0), SimConfig(30.0, 1.0), seed=3
    )
    cache = forward(net, staircase_train(net))
    surrogate = SurrogateConfig(10.0, 0.5)
    n = net.sim.n_samples
    e_late = np.zeros((2, n))
    e_late[:, -5:] = 1.0
    grad = backward(net, cache, _sig(e_late), surrogate).weights[0]
    early = n - 4 - len(net.epsilon.samples)  # responses that end before bin n - 5
    assert early == 15
    assert np.all(np.any(grad[:, :early] != 0.0, axis=0))
    m = n - 10
    e_edit = np.array(e_late)
    e_edit[:, :m] = 7.0
    edited = backward(net, cache, _sig(e_edit), surrogate).weights[0]
    assert np.any(edited != grad)
    np.testing.assert_array_equal(edited[:, m - 1 :], grad[:, m - 1 :])


def test_soft_forward_has_no_refractory_feedback():
    net = _toy_net(seed=4)
    spikes = _poisson_in(net, 150.0, 5)
    surrogate = SurrogateConfig(10.0, 0.5)
    cache = soft_forward(net, spikes, surrogate)
    g = soft_spike(cache.potentials[1], net.neuron.theta, surrogate)
    np.testing.assert_array_equal(cache.spikes[1].values, g.values)


def test_soft_loss_is_finite_and_positive():
    net = _toy_net(seed=5)
    spikes = _poisson_in(net, 150.0, 6)
    target = poisson_spike_train(net.layer_sizes[-1], 60.0, net.sim, 7)
    val = soft_loss(net, spikes, LossSpec("precise"), SurrogateConfig(10.0, 0.5), target=target)
    assert np.isfinite(val)
    assert val > 0.0


def test_gradients_container_helpers():
    net = _toy_net()
    z = Gradients.zeros_like(net)
    assert z.weights[0].shape == (4, 3)
    assert z.delays[1].shape == (4,)
    g = Gradients.zeros_like(net)
    g.weights[0] += 2.0
    z.absorb(g, 0.5)
    assert np.all(z.weights[0] == 1.0)
    assert np.all(g.weights[0] == 1.0)  # absorb spends its argument
    z.clear()
    assert not any(a.any() for a in z.weights + z.delays)


_FD_SPECS = pytest.mark.parametrize(
    "spec",
    [LossSpec("precise"), LossSpec("count", 6.0, 2.0, (5.0, 25.0))],
    ids=["precise", "count"],
)


def _fd_sample(net, spec, seed):
    """Input train and the target (precise) or label (count) of one sample."""
    spikes = poisson_spike_train(net.layer_sizes[0], 150.0, net.sim, [seed, 1])
    if spec.mode == "precise":
        target = poisson_spike_train(net.layer_sizes[-1], 80.0, net.sim, [seed, 2])
        return spikes, {"target": target}
    return spikes, {"target": seed % net.layer_sizes[-1]}


@_FD_SPECS
def test_finite_differences_confirm_soft_gradients(spec):
    """On a gently scaled network every analytic weight and delay
    gradient agrees with central differences of the soft loss."""
    surrogate = SurrogateConfig(alpha=10.0, beta=0.5)
    worst = 0.0
    for seed in range(3):
        net = well_conditioned_net(seed)
        spikes, kw = _fd_sample(net, spec, seed)
        cache = soft_forward(net, spikes, surrogate)
        e_out = output_error(net, cache, spec, **kw)
        got = backward(net, cache, e_out, surrogate)
        fd = finite_diff_gradients(net, spikes, spec, surrogate, h=1e-5, **kw)
        for t in range(net.n_transitions):
            for g, f in ((got.weights[t], fd.weights[t]), (got.delays[t], fd.delays[t])):
                rel = np.abs(g - f) / np.maximum(np.abs(f), 1e-8)
                worst = max(worst, float(rel.max()))
    assert worst <= 1e-4


@_FD_SPECS
@pytest.mark.parametrize("arch", ["4x4x2-2c2-3", "5x5x2-2c2-2a-3"])
def test_finite_differences_confirm_conv_and_aggregate_gradients(arch, spec):
    """Conv weight gradients, and delay gradients behind conv and
    aggregation maps, agree with central differences of the soft loss."""
    surrogate = SurrogateConfig(alpha=10.0, beta=0.5)
    worst = 0.0
    for seed in range(3):
        net = well_conditioned_net(seed, arch)
        spikes, kw = _fd_sample(net, spec, seed)
        cache = soft_forward(net, spikes, surrogate)
        e_out = output_error(net, cache, spec, **kw)
        got = backward(net, cache, e_out, surrogate)
        fd = finite_diff_gradients(net, spikes, spec, surrogate, h=1e-5, **kw)
        for t in range(net.n_transitions):
            pairs = [(got.delays[t], fd.delays[t])]
            if got.weights[t] is not None:
                pairs.append((got.weights[t], fd.weights[t]))
            for g, f in pairs:
                rel = np.abs(g - f) / np.maximum(np.abs(f), 1e-8)
                worst = max(worst, float(rel.max()))
    assert worst <= 1e-4


def test_first_layer_gradients_vanish_behind_zero_weights():
    """With every weight zero no signal variation crosses the second
    transition, so first-transition gradients are exactly zero both
    analytically and by finite differences."""
    net = well_conditioned_net(0)
    for params in net.params:
        params.weights[:] = 0.0
    surrogate = SurrogateConfig(10.0, 0.5)
    spikes = poisson_spike_train(4, 150.0, net.sim, 3)
    target = poisson_spike_train(3, 80.0, net.sim, 4)
    cache = soft_forward(net, spikes, surrogate)
    e_out = output_error(net, cache, LossSpec("precise"), target=target)
    got = backward(net, cache, e_out, surrogate)
    fd = finite_diff_gradients(net, spikes, LossSpec("precise"), surrogate, target=target)
    assert np.all(got.weights[0] == 0.0)
    np.testing.assert_allclose(fd.weights[0], 0.0, atol=1e-9)
    # the last transition still learns: its output feeds the loss directly
    assert np.any(got.weights[1] != 0.0)


def test_a_count_error_gets_the_count_gradient_without_naming_its_loss():
    """backward takes its credit rule from the error, so a count error
    needs no loss argument; given the precise credit it missed central
    differences by about 80 % of the largest gradient."""
    net = well_conditioned_net(0)
    surrogate = SurrogateConfig(alpha=10.0, beta=0.5)
    spec = LossSpec("count", 6.0, 2.0, (5.0, 25.0))
    spikes, kw = _fd_sample(net, spec, 0)
    cache = forward(net, spikes, surrogate)
    got = backward(net, cache, output_error(net, cache, spec, **kw), surrogate)
    fd = finite_diff_gradients(net, spikes, spec, surrogate, h=1e-5, **kw)
    for g, f in zip(got.weights + got.delays, fd.weights + fd.delays):
        assert np.abs(g - f).max() <= 1e-6 * np.abs(f).max()


def test_a_count_error_carries_its_credit_factor():
    """The output credit of a count error is Ts * |I| * e, bit for bit,
    and the error is still a SampledSignal."""
    net = well_conditioned_net(0)
    cache = forward(net, poisson_spike_train(4, 150.0, net.sim, 3))
    interval = (5.0, 25.0)
    e = error_count(cache.spikes[-1], np.array([6.0, 2.0, 2.0]), interval, net.sim)
    assert isinstance(e, SampledSignal)
    want = net.sim.ts_ms * len(interval_bins(interval, net.sim)) * e.values
    np.testing.assert_array_equal(output_credit(e, net.epsilon), want)


def test_count_mode_backward_runs_on_hard_cache():
    net = _toy_net(seed=6)
    cache = forward(net, _poisson_in(net, 200.0, 8))
    spec = LossSpec("count", 6.0, 2.0, (0.0, 25.0))
    e_out = output_error(net, cache, spec, 0)
    grads = backward(net, cache, e_out, SurrogateConfig(10.0, 0.05))
    for t in range(net.n_transitions):
        assert np.all(np.isfinite(grads.weights[t]))
        assert np.all(np.isfinite(grads.delays[t]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and inf * 0
def test_backward_flags_an_overflowing_adjoint():
    net = _toy_net(seed=6)
    cache = forward(net, _poisson_in(net, 200.0, 8))
    e_out = _sig(np.full((2, 25), 1e3))
    net.params[-1].weights[:] = 1e308  # after the forward pass, which would flag it
    with pytest.raises(NumericError, match="non-finite gradient in transition"):
        backward(net, cache, e_out, SurrogateConfig(10.0, 0.05))


@pytest.mark.parametrize("arch", ["3-4-2", "6x6x2-2c3-2a-3"])
def test_forward_caches_stay_read_only_through_backward(arch):
    net = _toy_net(seed=6, arch=arch)
    x = _poisson_in(net, 200.0, 8)
    surrogate = SurrogateConfig(10.0, 0.05)
    spec = LossSpec("count", 6.0, 2.0, (0.0, 25.0))
    for cache in (forward(net, x), soft_forward(net, x, surrogate)):
        e_out = output_error(net, cache, spec, 0)
        backward(net, cache, e_out, surrogate)
        signals = cache.spikes + cache.potentials + cache.responses
        arrays = [s.values for s in signals if s is not None]
        assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)
        held = [s for s in cache.spikes if isinstance(s, SpikeEvents)]
        arrays += [a for s in held for a in (s.events, s.amplitudes) if a is not None]
        assert len(arrays) > 3 * net.n_transitions
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def _materialized_backward(net, cache, e_out, surrogate):
    """Weight and delay gradients of backward's chain, with every error
    materialized by adjoint_linear before delta_layer and delay_gradient
    read it."""
    theta, n_t = net.neuron.theta, net.n_transitions
    credit = np.array(output_credit(e_out, net.epsilon))
    rho_credit = _times_rho(credit, cache.potentials[n_t].values, theta, surrogate)
    delta = SampledSignal._adopt(rho_credit, net.sim.ts_ms)
    weights, delays = [None] * n_t, [None] * n_t
    for t in reversed(range(n_t)):
        weights[t] = weight_gradient(net, t, delta, cache.responses[t])
        error = adjoint_linear(net, t, delta)
        d = net.params[t].delays
        delays[t] = delay_gradient(error, cache.spikes[t], net.epsilon_dot, d)
        if t > 0:
            delta = delta_layer(error, cache.potentials[t], net.epsilon, d, theta, surrogate)
    return weights, delays



# 1x1, 2x2 and 3x3 blocks, one of them on the input
@pytest.mark.parametrize("arch", ["5x5x2-3c2-1a-3", "6x6x2-2c3-2a-3", "7x7x2-2c2-3a-3", "6x6x2-3a-2c2-3"])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("mode", ["precise", "count"])
def test_pooled_aggregation_errors_give_the_materialized_gradients(arch, soft, mode):
    net = init_network(
        parse_architecture(arch), NeuronConfig(5.0, 2.0, 1.0), SimConfig(30.0, 1.0), seed=2, gain=60.0
    )
    rng = np.random.default_rng(3)
    for params in net.params:
        params.delays[:] = rng.uniform(0.2, 2.8, params.delays.shape)
    x = _poisson_in(net, 150.0, 4)
    surrogate = SurrogateConfig.for_theta(net.neuron.theta)
    cache = soft_forward(net, x, surrogate) if soft else forward(net, x)
    spec = LossSpec("precise") if mode == "precise" else LossSpec("count", 6.0, 2.0, (0.0, 30.0))
    target = poisson_spike_train(net.layer_sizes[-1], 60.0, net.sim, 5) if mode == "precise" else 1
    e_out = output_error(net, cache, spec, target)
    weights, delays = _materialized_backward(net, cache, e_out, surrogate)
    grads = backward(net, cache, e_out, surrogate)
    pooled = [t for t, layer in enumerate(net.spec.layers[1:]) if layer.kind == "aggregate"]
    assert all(np.any(delays[t] != 0.0) for t in pooled)
    # the pooled path filters after pooling: the two agree to rounding
    for t in range(net.n_transitions):
        if weights[t] is None:
            assert grads.weights[t] is None
        else:
            np.testing.assert_allclose(grads.weights[t], weights[t], rtol=1e-12, atol=0)
        np.testing.assert_allclose(grads.delays[t], delays[t], rtol=1e-12, atol=0)
