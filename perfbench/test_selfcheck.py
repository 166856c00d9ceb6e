"""Fast self-check of the benchmark's tracer and reference forward pass.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spikenet as sn  # noqa: E402
import tracer as tracing  # noqa: E402

SIM = sn.SimConfig(t_ms=30.0, ts_ms=1.0)
NEURON = sn.NeuronConfig(theta=1.0, tau_s=2.0, tau_r=1.0)


def _fractional_delays(net, seed=5):
    rng = np.random.default_rng(seed)
    for params in net.params:
        params.delays[:] = rng.uniform(0.1, 1.9, params.delays.shape)
    return net


def dense_case():
    net = sn.init_network(sn.parse_architecture("12-6-3"), NEURON, SIM, seed=1, gain=4.0)
    samples = [
        (sn.poisson_spike_train(12, 150.0, SIM, s), sn.poisson_spike_train(3, 60.0, SIM, s + 10))
        for s in range(2)
    ]
    return _fractional_delays(net), sn.Dataset(samples), sn.LossSpec("precise")


def conv_case():
    net = sn.init_network(sn.parse_architecture("6x6x2-3c3-2a-3"), NEURON, SIM, seed=1, gain=4.0)
    samples = [(sn.poisson_spike_train(72, 150.0, SIM, s), s % 3) for s in range(4)]
    loss = sn.LossSpec("count", true_count=6.0, false_count=1.0, interval=(0.0, 30.0))
    return _fractional_delays(net), sn.Dataset(samples, class_count=3), loss


@pytest.mark.parametrize("case", [dense_case, conv_case])
def test_self_times_add_up_to_traced_wall_time(case):
    net, data, loss = case()
    surrogate = sn.SurrogateConfig.for_theta(1.0)
    cfg = sn.TrainConfig(epochs=1, loss=loss, surrogate=surrogate, batch_size=2)
    opt = sn.OptimizerState.adam(learning_rate=0.01)
    trainer = importlib.import_module("spikenet.trainer")
    original = sys.modules["spikenet.forward"].convolve_values
    tracer = tracing.Tracer().install()
    try:
        # forward.py binds convolve_values itself; its binding must be wrapped
        assert sys.modules["spikenet.forward"].convolve_values is not original
        tracer.enabled = True
        start = time.perf_counter_ns()
        for epoch in range(1, 21):
            trainer.train_epoch(net, data, cfg, opt, epoch)
            trainer.evaluate(net, data, cfg, epoch)
        wall = time.perf_counter_ns() - start
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert sys.modules["spikenet.forward"].convolve_values is original
    covered = sum(tracer.self_ns.values()) + tracer.bookkeeping_ns
    assert abs(covered - wall) / wall < 0.03
    set_up = ("runconfig", "signals.read_events")
    traced_layers = {layer for layer, _, _ in tracing.TARGETS if not layer.startswith(set_up)}
    assert {layer for layer, n in tracer.calls.items() if n} == traced_layers
    passes = 20 * 2 * len(data)
    assert tracer.calls["forward.threshold"] == passes * net.n_transitions


@pytest.mark.parametrize("case", [dense_case, conv_case])
def test_reference_forward_agrees_with_spikenet(case):
    net, data, _ = case()
    for train, _ in data.samples:
        cache = sn.forward(net, train)
        # a silent layer would make the comparison vacuous
        assert all(s.values.any() for s in cache.spikes[1:])
        assert reference.compare_forward(net, train, cache) == []


def test_reference_comparison_reports_a_changed_raster():
    net, data, _ = conv_case()
    train = data.samples[0][0]
    cache = sn.forward(net, train)
    values = cache.spikes[1].values.copy()
    values[0, 0] = 1.0 / SIM.ts_ms - values[0, 0]
    cache.spikes[1] = sn.SampledSignal(values, SIM.ts_ms)
    assert reference.compare_forward(net, train, cache)[0].startswith("layer 1: rasters differ")


def test_missing_traced_function_is_reported():
    original = sys.modules["spikenet.kernels"].convolve_values
    targets = tracing.TARGETS + (("kernels.gone", "spikenet.kernels", "no_such_function"),)
    with pytest.raises(tracing.MissingTarget, match="spikenet.kernels.no_such_function"):
        tracing.Tracer(targets).install()
    assert sys.modules["spikenet.kernels"].convolve_values is original
