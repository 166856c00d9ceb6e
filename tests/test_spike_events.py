"""Spike events carried through the forward pass and the event scatter
that builds sparse spike responses from them."""

import numpy as np
import pytest

import spikenet.kernels
from conftest import ref_convolve, ref_epsilon, ref_epsilon_dot, truncate_ref
from spikenet import (
    LossSpec,
    NeuronConfig,
    SimConfig,
    SpikeTrain,
    SurrogateConfig,
    backward,
    forward,
    init_network,
    make_epsilon,
    make_epsilon_dot,
    make_nu,
    output_error,
    parse_architecture,
    poisson_spike_train,
    spikes_to_signal,
)
from spikenet.forward import simulate_layer
from spikenet.kernels import convolve_values
from spikenet.signals import SpikeEvents

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)
TAU_S = 1.7


@st.composite
def sparse_signals(draw):
    """(values, events, ts): spike amplitudes k/Ts at under 1/16 of the
    samples, where k events shared a bin; some events sit in the last bins.
    The events come either channel-major or bin-major."""
    ts = draw(st.sampled_from([1.0, 0.5]))
    channels = draw(st.integers(1, 5))
    n = draw(st.integers(16, 48))
    limit = (channels * n - 1) // 16
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, channels - 1), st.integers(max(0, n - 3), n - 1)),
            max_size=min(2, limit),
        )
    )
    pairs += draw(
        st.lists(
            st.tuples(st.integers(0, channels - 1), st.integers(0, n - 1)),
            max_size=limit - len(pairs),
        )
    )
    # a repeated pair is a second event in the same bin
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    values = np.zeros((channels, n))
    for c, b in pairs:
        values[c, b] += 1.0 / ts
    events = np.flatnonzero(values)
    if draw(st.booleans()):
        events = events[np.argsort(events % n, kind="stable")]
    return values, events, ts


@SETTINGS
@given(sparse_signals(), st.data())
def test_event_scatter_matches_dense_and_reference(signal, data):
    values, events, ts = signal
    assert len(events) < values.size / 16  # the scatter, not the fallback
    use_dot = data.draw(st.booleans())
    cfg = (NeuronConfig(10.0, TAU_S, 1.0), ts)
    kernel = make_epsilon_dot(*cfg) if use_dot else make_epsilon(*cfg)
    fn = ref_epsilon_dot if use_dot else ref_epsilon
    ref = truncate_ref(lambda t: fn(t, TAU_S), kernel.support_end)
    delays = np.array(
        data.draw(
            st.lists(
                st.floats(0.0, 4.0, allow_nan=False),
                min_size=len(values),
                max_size=len(values),
            )
        )
    )
    spikes = SpikeEvents(events, values.shape, ts, values.reshape(-1)[events])
    got = convolve_values(spikes, kernel, delays)
    np.testing.assert_allclose(got, convolve_values(values, kernel, delays), rtol=0, atol=1e-12)
    for c in range(len(values)):
        want = ref_convolve(values[c], ref, ts, delays[c])
        np.testing.assert_allclose(got[c], want, rtol=0, atol=1e-12)


def test_event_scatter_of_no_events_is_zero():
    eps = make_epsilon(NeuronConfig(10.0, 2.0, 1.0), 1.0)
    events = np.zeros(0, dtype=np.intp)
    out = convolve_values(SpikeEvents(events, (3, 20), 1.0), eps, np.ones(3))
    np.testing.assert_array_equal(out, np.zeros((3, 20)))


@pytest.mark.parametrize("seed", range(4))
def test_simulate_layer_events_are_its_spikes(seed):
    rng = np.random.default_rng(seed)
    theta, ts = 10.0, 0.5
    nu = make_nu(NeuronConfig(theta, 2.0, 1.0), ts)
    s, _ = simulate_layer(rng.uniform(0.0, 12.0, size=(7, 40)), nu, theta)
    events, n = s.events, s.n_samples
    assert s.amplitudes is None  # 1/Ts each
    np.testing.assert_array_equal(np.sort(events), np.flatnonzero(s.values))
    assert np.all(np.diff(events % n) >= 0)  # bin order
    chans, bins = np.nonzero(s.values)
    order = np.lexsort((chans, bins))
    np.testing.assert_array_equal(events, chans[order] * n + bins[order])


def test_forward_input_events_merge_shared_bins():
    net = init_network(
        parse_architecture("3-2"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(20.0, 1.0)
    )
    train = SpikeTrain(3, ((0, 4.2), (2, 4.5), (0, 4.7), (1, 19.9)))
    cache = forward(net, train)
    n = net.sim.n_samples
    np.testing.assert_array_equal(cache.spikes[0].events, [4, n + 19, 2 * n + 4])
    np.testing.assert_array_equal(cache.spikes[0].amplitudes, [2.0, 1.0, 1.0])
    assert cache.spikes[0].values[0, 4] == 2.0


NETS = {
    "dense": ("30-12-4", 30.0, 40.0),
    "conv": ("6x6x2-3c3-4", 40.0, 40.0),
    "aggregate": ("6x6x2-3c3-2a-4", 40.0, 60.0),
}


def _forward_backward(net, train):
    cache = forward(net, train)
    interval = (0.0, net.sim.t_ms)
    spec = LossSpec(mode="count", true_count=5.0, false_count=1.0, interval=interval)
    e = output_error(net, cache, spec, 1)
    return cache, backward(net, cache, e, SurrogateConfig.for_theta(net.neuron.theta))


@pytest.mark.parametrize("kind", sorted(NETS))
def test_forward_backward_agree_with_and_without_events(kind, monkeypatch):
    arch, rate, gain = NETS[kind]
    sim = SimConfig(40.0, 1.0)
    net = init_network(
        parse_architecture(arch), NeuronConfig(5.0, 2.0, 1.0), sim, seed=3, gain=gain
    )
    rng = np.random.default_rng(4)
    for params in net.params:
        params.delays[:] = rng.uniform(0.0, 2.5, size=params.delays.shape)
    train = poisson_spike_train(net.layer_sizes[0], rate, sim, 5)
    # the scatter wherever spikes are held as events, then the dense sum everywhere
    monkeypatch.setattr(spikenet.kernels, "_SCATTER_DENSITY", 1.0)
    sparse, g_sparse = _forward_backward(net, train)
    monkeypatch.setattr(spikenet.kernels, "_SCATTER_DENSITY", 0.0)
    dense, g_dense = _forward_backward(net, train)
    assert all(len(s.events) for s in sparse.spikes[:-1])  # every layer feeding one fires
    np.testing.assert_array_equal(sparse.spikes[0].values, spikes_to_signal(train, sim).values)
    for layer in range(1, len(net.layer_sizes)):
        np.testing.assert_array_equal(sparse.spikes[layer].values, dense.spikes[layer].values)
        np.testing.assert_allclose(
            sparse.potentials[layer].values, dense.potentials[layer].values, rtol=1e-12
        )
    pairs = zip(g_sparse.weights + g_sparse.delays, g_dense.weights + g_dense.delays)
    for a, b in pairs:
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_input_amplitudes_are_the_raster_sums(monkeypatch):
    """Seven input spikes in one bin of a 0.3 ms grid sum to one ulp below
    7 / 0.3 in the raster (five would sum to exactly 5 / 0.3): the input's
    amplitudes are the raster's values, and the scatter and the dense sum
    agree on them."""
    sim = SimConfig(3.0, 0.3)
    net = init_network(
        parse_architecture("3-4-2"), NeuronConfig(5.0, 0.6, 0.3), sim, seed=3, gain=40.0
    )
    # neuron 0 fires seven times in bin 4 (1.2-1.5 ms)
    train = SpikeTrain(3, [(0, 1.21 + 0.04 * k) for k in range(7)] + [(2, 0.1), (1, 2.5)])
    raster = spikes_to_signal(train, sim).values
    assert raster[0, 4] != 7 / sim.ts_ms
    monkeypatch.setattr(spikenet.kernels, "_SCATTER_DENSITY", 1.0)
    sparse, g_sparse = _forward_backward(net, train)
    monkeypatch.setattr(spikenet.kernels, "_SCATTER_DENSITY", 0.0)
    dense, g_dense = _forward_backward(net, train)
    n = sim.n_samples
    events = [4, n + 8, 2 * n]
    np.testing.assert_array_equal(sparse.spikes[0].events, events)
    np.testing.assert_array_equal(sparse.spikes[0].amplitudes, raster.reshape(-1)[events])
    assert sparse.spikes[0].values.tobytes() == raster.tobytes()
    assert all(len(s.events) for s in sparse.spikes)
    for layer in range(1, len(net.layer_sizes)):
        np.testing.assert_array_equal(sparse.spikes[layer].values, dense.spikes[layer].values)
        np.testing.assert_allclose(
            sparse.potentials[layer].values, dense.potentials[layer].values, rtol=1e-12
        )
    pairs = zip(g_sparse.weights + g_sparse.delays, g_dense.weights + g_dense.delays)
    for a, b in pairs:
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("kind", sorted(NETS))
def test_hard_spikes_are_held_as_their_events(kind):
    """Every hard-mode layer, the input included, builds a new read-only
    raster from its events at each read; past the input, soft-mode layers
    keep their continuous rasters."""
    arch, rate, gain = NETS[kind]
    sim = SimConfig(40.0, 1.0)
    net = init_network(
        parse_architecture(arch), NeuronConfig(5.0, 2.0, 1.0), sim, seed=3, gain=gain
    )
    train = poisson_spike_train(net.layer_sizes[0], rate, sim, 5)
    hard = forward(net, train)
    soft = forward(net, train, SurrogateConfig.for_theta(net.neuron.theta))
    assert all(isinstance(s, SpikeEvents) for s in hard.spikes)
    assert all(len(s.events) for s in hard.spikes[:-1])
    assert isinstance(soft.spikes[0], SpikeEvents)
    np.testing.assert_array_equal(hard.spikes[0].values, spikes_to_signal(train, sim).values)
    for layer in range(1, len(net.layer_sizes)):
        spikes = hard.spikes[layer]
        assert spikes.amplitudes is None
        want = np.zeros((net.layer_sizes[layer], sim.n_samples))
        want.reshape(-1)[spikes.events] = 1.0 / sim.ts_ms
        raster = spikes.values
        np.testing.assert_array_equal(raster, want)
        assert raster.dtype == np.float64 and raster.flags.c_contiguous
        assert not raster.flags.writeable
        assert spikes.values is not raster  # built at each read
        assert (spikes.channels, spikes.n_samples) == want.shape
        continuous = soft.spikes[layer].values
        assert not isinstance(soft.spikes[layer], SpikeEvents)
        assert soft.spikes[layer].values is continuous
        assert np.any((continuous != 0.0) & (continuous != 1.0 / sim.ts_ms))
