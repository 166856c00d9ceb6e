"""Parameter update rules and their moment bookkeeping."""

import numpy as np
import pytest

from conftest import manual_network
from spikenet import Gradients, NeuronConfig, OptimizerState, SimConfig, clamp_delays, step
from spikenet.errors import ParameterError, ShapeError


def _scalar_net(weight=0.0, delay=0.0):
    return manual_network(
        "1-1",
        [np.array([[weight]])],
        [np.array([delay])],
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(10.0, 1.0),
    )


def _grads(gw, gd=0.0):
    return Gradients([np.array([[float(gw)]])], [np.array([float(gd)])])


def test_sgd_step_is_lr_times_gradient():
    net = _scalar_net(weight=0.0)
    state = OptimizerState.sgd(learning_rate=0.1)
    step(state, net, _grads(1.0))
    assert net.params[0].weights[0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert state.step_count == 1


def test_adam_first_step_magnitude():
    """Bias correction makes the first ADAM step almost exactly the
    learning rate regardless of gradient scale."""
    eta = 0.01
    for g in (1e-4, 1.0, 100.0):
        net = _scalar_net(weight=0.5)
        state = OptimizerState.adam(learning_rate=eta)
        step(state, net, _grads(g))
        moved = abs(net.params[0].weights[0, 0] - 0.5)
        assert 0.9 * eta < moved <= eta


@pytest.mark.parametrize("method", ["sgd", "rmsprop", "adam", "nadam"])
def test_zero_gradient_moves_nothing(method):
    net = _scalar_net(weight=0.7, delay=1.3)
    state = OptimizerState(method=method, learning_rate=0.05)
    for _ in range(4):
        step(state, net, _grads(0.0, 0.0))
    assert net.params[0].weights[0, 0] == 0.7
    assert net.params[0].delays[0] == 1.3


def test_zero_learning_rate_freezes_parameters():
    net = _scalar_net(weight=0.7, delay=1.3)
    state = OptimizerState.adam(learning_rate=0.0)
    step(state, net, _grads(2.5, -1.0))
    assert net.params[0].weights[0, 0] == 0.7
    assert net.params[0].delays[0] == 1.3


def test_delays_use_scaled_learning_rate():
    net = _scalar_net(weight=0.0, delay=5.0)
    state = OptimizerState.sgd(learning_rate=0.1, delay_lr_scale=0.1)
    step(state, net, _grads(1.0, 1.0))
    assert net.params[0].weights[0, 0] == pytest.approx(-0.1)
    assert net.params[0].delays[0] == pytest.approx(5.0 - 0.01)


def test_delays_clamp_at_zero():
    net = _scalar_net(delay=0.001)
    state = OptimizerState.sgd(learning_rate=1.0, delay_lr_scale=1.0)
    step(state, net, _grads(0.0, 50.0))
    assert net.params[0].delays[0] == 0.0


def test_clamp_delays_only_lifts_negatives():
    net = _scalar_net(delay=2.0)
    net.params[0].delays[0] = -3.0
    clamp_delays(net)
    assert net.params[0].delays[0] == 0.0


def test_rmsprop_matches_manual_recursion():
    eta, gamma, eps = 0.01, 0.9, 1e-8
    net = _scalar_net(weight=0.3)
    state = OptimizerState.rmsprop(learning_rate=eta, gamma=gamma)
    v, p = 0.0, 0.3
    for g in (1.0, -0.5, 2.0):
        step(state, net, _grads(g))
        v = gamma * v + (1 - gamma) * g * g
        p -= eta * g / (np.sqrt(v) + eps)
    assert net.params[0].weights[0, 0] == pytest.approx(p, rel=1e-12)


def test_adam_matches_manual_recursion():
    eta, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    net = _scalar_net(weight=-0.2)
    state = OptimizerState.adam(learning_rate=eta)
    m = v = 0.0
    p = -0.2
    for t, g in enumerate((0.4, 1.2, -0.7, 0.1), start=1):
        step(state, net, _grads(g))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= eta * m_hat / (np.sqrt(v_hat) + eps)
    assert net.params[0].weights[0, 0] == pytest.approx(p, rel=1e-12)


def test_nadam_matches_manual_recursion():
    eta, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    net = _scalar_net(weight=0.0)
    state = OptimizerState.nadam(learning_rate=eta)
    m = v = 0.0
    p = 0.0
    for t, g in enumerate((1.0, -0.3, 0.8), start=1):
        step(state, net, _grads(g))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        look_ahead = b1 * m_hat + (1 - b1) * g / (1 - b1**t)
        p -= eta * look_ahead / (np.sqrt(v_hat) + eps)
    assert net.params[0].weights[0, 0] == pytest.approx(p, rel=1e-12)


def test_nadam_differs_from_adam():
    net_a, net_n = _scalar_net(), _scalar_net()
    sa, sn = OptimizerState.adam(0.01), OptimizerState.nadam(0.01)
    for g in (1.0, 1.0, -2.0):
        step(sa, net_a, _grads(g))
        step(sn, net_n, _grads(g))
    assert net_a.params[0].weights[0, 0] != net_n.params[0].weights[0, 0]


def test_updates_are_deterministic():
    runs = []
    for _ in range(2):
        net = _scalar_net(weight=0.1)
        state = OptimizerState.adam(0.02)
        rng = np.random.default_rng(0)
        for _ in range(10):
            step(state, net, _grads(rng.normal(), rng.normal()))
        runs.append((net.params[0].weights[0, 0], net.params[0].delays[0]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "method, rate", [("sgd", 0.01), ("rmsprop", 0.001), ("adam", 0.001), ("nadam", 0.001)]
)
def test_every_constructor_gives_a_method_the_same_default_rate(method, rate):
    assert OptimizerState(method=method).learning_rate == rate
    assert OptimizerState(method=method.upper()).learning_rate == rate
    assert getattr(OptimizerState, method)().learning_rate == rate
    assert getattr(OptimizerState, method)(0.5).learning_rate == 0.5


def test_rejects_unknown_method_and_bad_rates():
    with pytest.raises(ParameterError):
        OptimizerState(method="quantum")
    with pytest.raises(ParameterError):
        OptimizerState(learning_rate=-0.1)
    with pytest.raises(ParameterError):
        OptimizerState(delay_lr_scale=-1.0)


def test_rejects_mismatched_gradient_shapes():
    net = _scalar_net()
    state = OptimizerState.sgd(0.1)
    with pytest.raises(ShapeError):
        step(state, net, Gradients([np.zeros((2, 2))], [np.zeros(1)]))
    with pytest.raises(ShapeError):
        step(state, net, Gradients([np.zeros((1, 1))], [np.zeros(3)]))
    with pytest.raises(ShapeError):
        step(state, net, Gradients([np.zeros((1, 1))], []))
    # a bad delay gradient in transition 1 is found before transition 0
    # moves: no parameter, moment or counter changes
    net = manual_network(
        "2-3-1",
        [np.full((3, 2), 0.5), np.full((1, 3), 0.25)],
        [np.full(2, 1.0), np.full(3, 2.0)],
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(10.0, 1.0),
    )
    before = [(p.weights.copy(), p.delays.copy()) for p in net.params]
    state = OptimizerState.adam(0.1)
    grads = Gradients([np.ones((3, 2)), np.ones((1, 3))], [np.ones(2), np.ones(2)])
    with pytest.raises(ShapeError, match="delay gradient shape mismatch in transition 1"):
        step(state, net, grads)
    for (w, d), params in zip(before, net.params):
        np.testing.assert_array_equal(params.weights, w)
        np.testing.assert_array_equal(params.delays, d)
    assert state.moment1 == {} and state.moment2 == {} and state.step_count == 0
