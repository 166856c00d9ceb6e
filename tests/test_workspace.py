"""The kernel workspace: cached delayed-tap tables never go stale, and
nothing a pass returns lives in reused memory.  A pass keeps no response
that no gradient reads, and backward's hidden credits live in the
workspace.  Also the binary event reader's neuron-count check."""

import copy
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spikenet.kernels
from spikenet import (
    LayerParams,
    LossSpec,
    Network,
    NeuronConfig,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    SurrogateConfig,
    adjoint_linear,
    backward,
    convolve,
    correlate,
    finite_diff_gradients,
    forward,
    init_network,
    make_epsilon,
    output_error,
    parse_architecture,
    poisson_spike_train,
    read_events,
    write_events,
)
from spikenet.errors import FormatError
from spikenet.kernels import Workspace, convolve_values, workspace
from spikenet.signals import SpikeEvents

NETS = {
    "dense": ("30-12-4", 30.0, 40.0),
    "conv": ("6x6x2-3c3-4", 40.0, 40.0),
    "aggregate": ("6x6x2-3c3-2a-4", 40.0, 60.0),
}
SPEC = LossSpec(mode="count", true_count=5.0, false_count=1.0, interval=(0.0, 40.0))
SCATTER = {"scatter": 1.0, "dense sum": 0.0}


def _net(kind, t_ms=40.0):
    arch, rate, gain = NETS[kind]
    sim = SimConfig(t_ms, 1.0)
    net = init_network(
        parse_architecture(arch), NeuronConfig(5.0, 2.0, 1.0), sim, seed=3, gain=gain
    )
    rng = np.random.default_rng(4)
    for params in net.params:
        params.delays[:] = rng.uniform(0.0, 2.5, size=params.delays.shape)
    return net, poisson_spike_train(net.layer_sizes[0], rate, sim, 5)


def _fresh(net):
    """A network with equal parameters that shares no kernel or array."""
    params = [
        LayerParams(None if p.weights is None else p.weights.copy(), p.delays.copy())
        for p in net.params
    ]
    return Network(net.spec, params, net.neuron, net.sim, net.cutoff)


def _pass(net, train, spec=SPEC):
    cache = forward(net, train)
    e = output_error(net, cache, spec, 1)
    return cache, backward(net, cache, e, SurrogateConfig.for_theta(net.neuron.theta))


def _arrays(cache, grads):
    signals = cache.spikes + cache.potentials[1:] + cache.responses
    arrays = [s.values for s in signals if s is not None]
    held = [s for s in cache.spikes if isinstance(s, SpikeEvents)]
    arrays += [a for s in held for a in (s.events, s.amplitudes) if a is not None]
    return arrays + [a for a in grads.weights + grads.delays if a is not None]


def _assert_same_pass(net, train):
    got, want = _arrays(*_pass(net, train)), _arrays(*_pass(_fresh(net), train))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(params=sorted(SCATTER))
def scatter(request, monkeypatch):
    monkeypatch.setattr(spikenet.kernels, "_SCATTER_DENSITY", SCATTER[request.param])


@pytest.mark.parametrize("kind", sorted(NETS))
def test_delay_assignment_is_seen(kind, scatter):
    net, train = _net(kind)
    _pass(net, train)  # builds and caches every tap table
    rng = np.random.default_rng(7)
    for params in net.params:
        params.delays[:] = rng.uniform(0.0, 3.0, size=params.delays.shape)
    _assert_same_pass(net, train)


@pytest.mark.parametrize("kind", sorted(NETS))
def test_in_place_step_on_a_deep_copy_is_seen(kind, scatter):
    net, train = _net(kind)
    _pass(net, train)
    twin = copy.deepcopy(net)
    _pass(twin, train)
    for params in twin.params:
        params.delays += 0.37
    _assert_same_pass(twin, train)
    _assert_same_pass(net, train)  # the original kept its own delays


@pytest.mark.parametrize("kind", sorted(NETS))
def test_finite_difference_probes_are_seen(kind, scatter):
    net, train = _net(kind, t_ms=12.0)  # a short window keeps the probes cheap
    surrogate = SurrogateConfig.for_theta(net.neuron.theta)
    spec = LossSpec(mode="count", true_count=2.0, false_count=1.0, interval=(0.0, 12.0))
    _pass(net, train, spec)
    got = finite_diff_gradients(net, train, spec, surrogate, target=1)
    want = finite_diff_gradients(_fresh(net), train, spec, surrogate, target=1)
    for a, b in zip(got.weights + got.delays, want.weights + want.delays):
        if a is not None:
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", sorted(NETS))
def test_nothing_returned_lives_in_the_workspace(kind, scatter):
    net, train = _net(kind)
    first = _pass(net, train)
    kept = [a.copy() for a in _arrays(*first)]
    with workspace() as work:  # the one the pass used: the pool hands it back
        scratch = [work.buffer] + [entry[3] for entry in work._tables.values()]
        for array in _arrays(*first):
            assert not any(np.shares_memory(array, s) for s in scratch)
        x = SampledSignal(first[0].spikes[0].values, net.sim.ts_ms)
        eps = net.epsilon
        delays = net.params[0].delays
        results = [convolve(x, eps, delays).values, correlate(x, eps, delays).values]
        results.append(convolve_values(first[0].spikes[0], eps, delays, work))
        results.append(convolve_values(x.values, eps, delays, work))
        for array in results:
            assert not any(np.shares_memory(array, s) for s in scratch)
    other = poisson_spike_train(net.layer_sizes[0], 50.0, net.sim, 11)
    _pass(net, other)
    for a, b in zip(_arrays(*first), kept):
        np.testing.assert_array_equal(a, b)


def test_concurrent_passes_never_share_a_workspace():
    net, train = _net("conv")
    want = _arrays(*_pass(net, train))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda _: _arrays(*_pass(net, train)), range(12), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in runs:
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_tables_of_dropped_kernels_and_delays_are_released():
    neuron, values, kept = NeuronConfig(5.0, 2.0, 1.0), np.ones((3, 20)), np.full(3, 1.5)
    with workspace() as work:
        old, new = make_epsilon(neuron, 1.0), make_epsilon(neuron, 1.0)
        convolve_values(values, old, kept, work)
        convolve_values(values, old, np.full(3, 0.5), work)  # a temporary
        del old
        convolve_values(values, new, kept, work)
        refs = [(entry[0](), entry[1]()) for entry in work._tables.values()]
    assert all(kernel is not None and delays is not None for kernel, delays in refs)
    assert [kernel is new for kernel, delays in refs if delays is kept] == [True]


def test_adjoint_shares_no_memory_with_its_credit():
    """Backward keeps a credit in the workspace only while weight_gradient
    and adjoint_linear read it, so the adjoint's error must be its own."""
    net = init_network(
        parse_architecture("6x6x2-3c3-2a-1a-4"), NeuronConfig(5.0, 2.0, 1.0), SimConfig(10.0, 1.0)
    )
    rng = np.random.default_rng(5)
    for t in range(net.n_transitions):
        delta = SampledSignal(rng.normal(size=(net.layer_sizes[t + 1], 10)), 1.0)
        e = adjoint_linear(net, t, delta)
        assert not np.shares_memory(e.values, delta.values), net.spec.layers[t + 1].kind


@pytest.mark.parametrize("soft", [False, True])
def test_no_response_is_kept_for_an_aggregation(soft):
    sim = SimConfig(40.0, 1.0)
    net = init_network(
        parse_architecture("6x6x2-3c3-2a-1a-4"), NeuronConfig(5.0, 2.0, 1.0), sim, seed=3, gain=60.0
    )
    train = poisson_spike_train(net.layer_sizes[0], 60.0, sim, 5)
    surrogate = SurrogateConfig.for_theta(net.neuron.theta) if soft else None
    cache = forward(net, train, surrogate)
    kinds = [layer.kind for layer in net.spec.layers[1:]]
    assert kinds == ["conv", "aggregate", "aggregate", "dense"]
    assert [r is None for r in cache.responses] == [k == "aggregate" for k in kinds]
    e = output_error(net, cache, SPEC, 1)
    grads = backward(net, cache, e, SurrogateConfig.for_theta(net.neuron.theta))
    assert [w is None for w in grads.weights] == [k == "aggregate" for k in kinds]


def _backward_peak(arch, t_ms):
    """The net, and the traced peak over its entry of a second count-loss
    backward, run after a first one has grown the workspace."""
    sim = SimConfig(t_ms, 1.0)
    net = init_network(
        parse_architecture(arch), NeuronConfig(5.0, 2.0, 1.0), sim, seed=3, gain=40.0
    )
    train = poisson_spike_train(net.layer_sizes[0], 60.0, sim, 5)
    spec = LossSpec(mode="count", true_count=5.0, false_count=1.0, interval=(0.0, t_ms))
    surrogate = SurrogateConfig.for_theta(net.neuron.theta)
    cache = forward(net, train)
    e = output_error(net, cache, spec, 1)
    grads = backward(net, cache, e, surrogate)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(net, cache, e, surrogate, out=grads)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return net, peak


def test_backward_holds_about_one_signal_above_its_entry():
    """At its peak backward holds the error it is building and a block of
    rho: 1.37 of the largest signal (the 4c3 layer's) on this net over 200
    bins.  A credit held as a new array beside the spent error and the new
    one reads 3.37."""
    net, peak = _backward_peak("10x10x2-4c3-2a-3", 200.0)
    signal = max(net.layer_sizes) * net.sim.n_samples * 8
    assert peak < 2.0 * signal


def test_an_aggregation_error_stays_pooled_in_backward():
    """The 6c3 layer, pooled 2x2, is this net's largest: backward's peak
    over its entry stays below one of its signals, at 0.64 over 300 bins.
    An error materialized at the pooled layer's source reads 1.28."""
    net, peak = _backward_peak("8x8x1-6c3-2a-5", 300.0)
    assert max(net.layer_sizes) == net.layer_sizes[1]
    assert peak < net.layer_sizes[1] * net.sim.n_samples * 8


def test_a_hard_forward_keeps_no_spike_raster_past_the_input():
    """With a warm workspace, a hard-mode cache holds its potentials, kept
    responses, spike events and input amplitudes, and nothing signal-sized
    besides: 1.07 MB on this net over 300 bins.  The 64-neuron input raster
    would add 0.15 MB, rasters of the 275 neurons past the input 0.66 MB."""
    sim = SimConfig(300.0, 1.0)
    net = init_network(
        parse_architecture("8x8x1-6c3-2a-5"), NeuronConfig(5.0, 2.0, 1.0), sim, seed=3, gain=40.0
    )
    train = poisson_spike_train(net.layer_sizes[0], 60.0, sim, 5)
    forward(net, train)  # grows the workspace
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        cache = forward(net, train)
        kept = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert all(isinstance(s, SpikeEvents) for s in cache.spikes)
    signals = cache.potentials[1:] + cache.responses
    held = sum(s.values.nbytes for s in signals if s is not None)
    held += sum(a.nbytes for s in cache.spikes for a in (s.events, s.amplitudes) if a is not None)
    assert kept < held + (1 << 16)


def test_a_convolution_left_in_a_large_workspace_matches_a_kept_one():
    """A result left in a workspace of over 1 MiB must equal the same
    convolution kept in a fresh array."""
    rng = np.random.default_rng(6)
    values = (rng.uniform(size=(600, 300)) < 0.2) * 1.0
    kernel = make_epsilon(NeuronConfig(5.0, 2.0, 1.0), 1.0)
    delays = rng.uniform(0.0, 2.5, size=600)
    left, kept = Workspace(), Workspace()
    got = convolve_values(values, kernel, delays, work=left, keep=False)
    want = convolve_values(values, kernel, delays, work=kept, keep=True)
    assert left.buffer.nbytes >= 1 << 20
    assert kept.buffer.base is None  # its temporaries stay in the heap
    np.testing.assert_array_equal(got, want)


def _six_neuron_set():
    return SpikeTrainSet(6, (SpikeTrain(6, ((0, 1.5), (3, 2.5))),))


def test_binary_neuron_count_must_match_the_header(tmp_path):
    path = tmp_path / "six.slyr"
    write_events(path, _six_neuron_set())
    with pytest.raises(FormatError, match="six.slyr: file holds 6 neurons, 4 were expected"):
        read_events(path, neuron_count=4)
    assert read_events(path, neuron_count=6) == _six_neuron_set()
    assert read_events(path) == _six_neuron_set()


def test_csv_neuron_count_still_overrides(tmp_path):
    path = tmp_path / "six.csv"
    write_events(path, _six_neuron_set())
    assert read_events(path, neuron_count=4).neuron_count == 4
