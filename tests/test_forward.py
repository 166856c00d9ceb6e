"""Threshold dynamics and the layer-by-layer forward pass."""

import numpy as np
import pytest

from conftest import manual_network, ref_nu, ref_simulate
from spikenet import (
    NeuronConfig,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SurrogateConfig,
    forward,
    init_network,
    make_nu,
    parse_architecture,
    poisson_spike_train,
    spikes_to_signal,
)
from spikenet.errors import NumericError, ShapeError
from spikenet.forward import simulate_layer
from spikenet.kernels import _SCATTER_DENSITY, convolve, make_epsilon


def _nu(theta=10.0, tau_r=1.0, ts=1.0):
    return make_nu(NeuronConfig(theta, 2.0, tau_r), ts)


def test_silent_below_threshold():
    u_ff = SampledSignal(np.full((3, 20), 9.999), 1.0)
    s, u, _ = simulate_layer(u_ff, _nu(theta=10.0), 10.0)
    assert np.all(s.values == 0.0)
    np.testing.assert_array_equal(u.values, u_ff.values)


def test_single_pulse_spikes_once():
    """A lone pulse of 2*theta fires the neuron exactly once; the recorded
    potential at the firing bin includes the immediate refractory dip."""
    theta = 10.0
    u_ff = np.zeros((1, 20))
    u_ff[0, 5] = 2.0 * theta
    s, u, _ = simulate_layer(SampledSignal(u_ff, 1.0), _nu(theta=theta), theta)
    assert s.values[0, 5] == 1.0
    assert np.count_nonzero(s.values) == 1
    assert u.values[0, 5] == pytest.approx(2.0 * theta + ref_nu(0.0, theta, 1.0))
    assert np.all(u.values[0, 6:] < theta)


def test_spike_amplitude_is_one_over_ts():
    theta = 10.0
    u_ff = np.zeros((1, 40))
    u_ff[0, 8] = 2.0 * theta
    s, _, _ = simulate_layer(SampledSignal(u_ff, 0.5), _nu(theta=theta, ts=0.5), theta)
    assert s.values[0, 8] == 2.0


def test_sustained_drive_spikes_at_refractory_rate():
    """Constant drive above threshold fires at the interval where the
    refractory penalty has decayed enough, matching the scalar oracle."""
    theta, tau_r, ts = 10.0, 2.0, 1.0
    nu = _nu(theta=theta, tau_r=tau_r, ts=ts)
    u_const = np.full((1, 60), 14.0)
    s, u, _ = simulate_layer(SampledSignal(u_const, ts), nu, theta)
    want_s, want_u = ref_simulate(u_const[0], theta, tau_r, ts, nu.support_end)
    np.testing.assert_allclose(s.values[0], want_s, atol=1e-12)
    np.testing.assert_allclose(u.values[0], want_u, atol=1e-10)
    isis = np.diff(np.nonzero(s.values[0])[0])
    assert len(set(isis)) == 1  # steady rhythm under constant drive


def test_matches_scalar_oracle_on_random_drive():
    theta, tau_r, ts = 5.0, 1.5, 0.5
    nu = _nu(theta=theta, tau_r=tau_r, ts=ts)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        u_ff = rng.uniform(-2.0, 8.0, size=(4, 50))
        s, u, _ = simulate_layer(SampledSignal(u_ff, ts), nu, theta)
        for c in range(4):
            want_s, want_u = ref_simulate(u_ff[c], theta, tau_r, ts, nu.support_end)
            np.testing.assert_allclose(s.values[c], want_s, atol=1e-12)
            np.testing.assert_allclose(u.values[c], want_u, atol=1e-9)


def test_refractory_feedback_only_reduces_firing():
    rng = np.random.default_rng(42)
    u_ff = rng.uniform(0.0, 15.0, size=(5, 40))
    theta = 10.0
    s, _, _ = simulate_layer(SampledSignal(u_ff, 1.0), _nu(theta=theta), theta)
    free_count = np.count_nonzero(u_ff >= theta)
    assert np.count_nonzero(s.values) <= free_count


def test_spike_decision_ignores_same_bin_feedback():
    """Two consecutive super-threshold bins both fire when the refractory
    kernel is too weak to pull the second below threshold, and the second
    decision never sees the first spike's same-bin dip twice."""
    theta, tau_r = 1.0, 1.0
    u_ff = np.zeros((1, 10))
    u_ff[0, 3] = 2.0 * theta
    u_ff[0, 4] = 2.0 * theta + 2.0 * theta * np.exp(1.0 - 1.0)  # cancel nu(ts) exactly, *2 margin
    s, _, _ = simulate_layer(SampledSignal(u_ff, 1.0), _nu(theta=theta, tau_r=tau_r), theta)
    assert s.values[0, 3] == 1.0
    assert s.values[0, 4] == 1.0


def _pass_through_net(t_ms=30.0, ts=1.0, theta=10.0, tau_s=2.0, tau_r=1.0, weight=25.0):
    return manual_network(
        "1-1",
        [np.array([[weight]])],
        [np.zeros(1)],
        NeuronConfig(theta, tau_s, tau_r),
        SimConfig(t_ms, ts),
    )


def test_forward_one_input_spike_drives_one_neuron():
    """End to end on a 1-1 net: the output potential is the weighted
    response kernel and the neuron fires at the first crossing."""
    net = _pass_through_net(weight=25.0)
    cache = forward(net, SpikeTrain(1, ((0, 2.5),)))
    eps = make_epsilon(net.neuron, 1.0)
    # feedforward part of the potential: 25 * eps(t - t_spike)
    crossing = next(
        n for n in range(30) if 25.0 * eps.evaluate((n - 2) * 1.0) >= 10.0
    )
    out = cache.spikes[-1].values[0]
    assert out[crossing] == 1.0
    assert np.all(out[:crossing] == 0.0)


def test_forward_zero_weights_stay_silent():
    net = manual_network(
        "4-3-2",
        [np.zeros((3, 4)), np.zeros((2, 3))],
        [np.zeros(4), np.zeros(3)],
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(20.0, 1.0),
    )
    cache = forward(net, SpikeTrain(4, ((0, 1.5), (3, 4.5))))
    assert np.all(cache.spikes[1].values == 0.0)
    assert np.all(cache.spikes[-1].values == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and inf * 0
@pytest.mark.parametrize("arch", ["4-3-2", "5x5x2-2c3-2"])
@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_forward_flags_a_non_finite_weight_with_its_transition(arch, t, bad):
    net = init_network(
        parse_architecture(arch), NeuronConfig(10.0, 2.0, 1.0), SimConfig(20.0, 1.0), seed=1
    )
    net.params[t].weights.reshape(-1)[-1] = bad
    train = poisson_spike_train(net.layer_sizes[0], 100.0, net.sim, 2)
    with pytest.raises(NumericError, match=f"non-finite potential in transition {t}"):
        forward(net, train)


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("arch", ["4-3-2", "6x6x2-2c3-2a-2"])
@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_forward_flags_a_non_finite_delay_with_its_neuron(arch, t, bad, soft):
    net = init_network(
        parse_architecture(arch), NeuronConfig(10.0, 2.0, 1.0), SimConfig(20.0, 1.0), seed=1
    )
    net.params[t].delays[-1] = bad
    train = poisson_spike_train(net.layer_sizes[0], 100.0, net.sim, 2)
    neuron = net.layer_sizes[t] - 1
    with pytest.raises(NumericError, match=f"delay in transition {t} at neuron {neuron}$"):
        forward(net, train, SurrogateConfig() if soft else None)


def test_forward_cache_shapes():
    net = init_network(
        parse_architecture("250-25-1"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(50.0, 1.0)
    )
    cache = forward(net, SpikeTrain(250, ((0, 10.5), (100, 20.5))))
    assert len(cache.spikes) == 3
    assert len(cache.potentials) == 3
    assert len(cache.responses) == 2
    assert cache.potentials[0] is None
    assert cache.spikes[0].values.shape == (250, 50)
    assert cache.spikes[1].values.shape == (25, 50)
    assert cache.spikes[-1].values.shape == (1, 50)


def test_forward_spike_values_are_binary():
    net = init_network(
        parse_architecture("30-12-4"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(40.0, 1.0), seed=2
    )
    rng = np.random.default_rng(0)
    events = tuple((int(rng.integers(0, 30)), float(rng.uniform(0, 39))) for _ in range(80))
    cache = forward(net, SpikeTrain(30, events))
    for s in cache.spikes[1:]:
        assert set(np.unique(s.values)) <= {0.0, 1.0}


def test_forward_is_causal():
    """Changing the input after bin n leaves every cached signal up to n
    untouched."""
    net = init_network(
        parse_architecture("10-8-3"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(40.0, 1.0), seed=7
    )
    rng = np.random.default_rng(1)
    early = tuple((int(rng.integers(0, 10)), float(rng.uniform(0, 20))) for _ in range(30))
    late = tuple((int(rng.integers(0, 10)), float(rng.uniform(25, 39))) for _ in range(20))
    cut = 25
    a = forward(net, SpikeTrain(10, early))
    b = forward(net, SpikeTrain(10, early + late))
    for layer in range(3):
        np.testing.assert_array_equal(
            a.spikes[layer].values[:, :cut], b.spikes[layer].values[:, :cut]
        )
    for layer in range(1, 3):
        np.testing.assert_array_equal(
            a.potentials[layer].values[:, :cut], b.potentials[layer].values[:, :cut]
        )


def test_forward_is_causal_across_the_scatter_crossover():
    """Inputs that agree before bin cut but whose input signals lie on
    either side of the scatter crossover, so their responses are summed on
    different paths: before cut the rasters are equal and the potentials
    agree to rounding (here they differ by about 1e-14)."""
    net = init_network(
        parse_architecture("10-8-3"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(40.0, 1.0), seed=7
    )
    rng = np.random.default_rng(0)
    early = tuple((int(rng.integers(0, 10)), float(rng.uniform(0, 20))) for _ in range(16))
    late = tuple((int(rng.integers(0, 10)), float(rng.uniform(25, 39))) for _ in range(40))
    cut = 25
    a = forward(net, SpikeTrain(10, early))
    b = forward(net, SpikeTrain(10, early + late))
    size = a.spikes[0].values.size
    assert len(a.events[0]) < _SCATTER_DENSITY * size < len(b.events[0])
    assert np.any(a.spikes[1].values[:, :cut])
    for layer in range(3):
        np.testing.assert_array_equal(
            a.spikes[layer].values[:, :cut], b.spikes[layer].values[:, :cut]
        )
    for layer in range(1, 3):
        u = b.potentials[layer].values[:, :cut]
        np.testing.assert_allclose(
            a.potentials[layer].values[:, :cut], u, rtol=1e-12, atol=1e-12 * np.abs(u).max()
        )


def test_forward_refractory_monotonicity():
    """Removing the refractory feedback (tau_r -> larger theta via direct
    comparison) never decreases spike counts: simulate with and without
    the feedback on identical potentials."""
    rng = np.random.default_rng(3)
    u_ff = rng.uniform(0.0, 14.0, size=(6, 50))
    s_with, _, _ = simulate_layer(SampledSignal(u_ff, 1.0), _nu(theta=10.0), 10.0)
    free = np.count_nonzero(u_ff >= 10.0)
    assert np.count_nonzero(s_with.values) <= free


def test_input_response_refines_with_grid():
    """Halving Ts moves the input spike response at common time points
    by less: event quantization error shrinks at O(Ts)."""
    events = ((0, 3.25), (0, 9.75), (1, 6.25))
    vals = {}
    for ts in (1.0, 0.5, 0.25):
        net = manual_network(
            "2-1",
            [np.ones((1, 2))],
            [np.array([0.5, 1.5])],
            NeuronConfig(10.0, 2.0, 1.0),
            SimConfig(20.0, ts),
        )
        cache = forward(net, SpikeTrain(2, events))
        stride = int(round(1.0 / ts))
        vals[ts] = cache.responses[0].values[:, ::stride]
    err_coarse = np.max(np.abs(vals[1.0] - vals[0.25]))
    err_mid = np.max(np.abs(vals[0.5] - vals[0.25]))
    assert err_mid < err_coarse


def test_forward_rejects_channel_mismatch():
    net = _pass_through_net()
    with pytest.raises(ShapeError):
        forward(net, SpikeTrain(2, ((1, 3.5),)))


def test_spike_response_applies_per_neuron_delay():
    eps = make_epsilon(NeuronConfig(10.0, 2.0, 1.0), 1.0)
    s = np.zeros((2, 20))
    s[0, 0] = 1.0
    s[1, 0] = 1.0
    out = convolve(SampledSignal(s, 1.0), eps, delay=np.array([0.0, 4.0]))
    np.testing.assert_allclose(out.values[1, 4:], out.values[0, :-4], atol=1e-12)
    assert np.all(out.values[1, :4] == 0.0)
