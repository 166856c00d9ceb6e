"""The paper's temporal credit assignment is what makes frozen-noise
learning work: hidden credit correlated with the delayed spike response
kernel moves error back to the bins whose spikes caused it.  Keeping the
credit in the bin of its error (same-bin credit, e(t) * Ts * sum(eps),
still times rho(u)) leaves the output credit and every gradient formula
as they are, and the tasks no longer learn.

The substitution relies on ``backward`` calling ``delta_layer`` through
the ``spikenet.backprop`` module."""

import sys
from pathlib import Path

import pytest

import spikenet.backprop
from spikenet import SampledSignal, load_config, train_epoch
from spikenet.backprop import _times_rho

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _same_bin_credit(e, u, epsilon, delays, theta, cfg, work=None):
    credit = e.values * (epsilon.ts_ms * epsilon.samples.sum())
    return SampledSignal._adopt(_times_rho(credit, u.values, theta, cfg), e.ts_ms)


def _tasks_reaching_zero_loss(directory) -> int:
    """How many of the frozen-noise tasks reach zero training loss within
    their configured epochs."""
    reached = 0
    for name in workloads.LAYOUT["frozen_noise"][0]:
        rc = load_config(directory / name)
        net, opt, cfg = rc.build_network(), rc.build_optimizer(), rc.train_config()
        data = rc.load_dataset()
        epochs = range(1, cfg.epochs + 1)
        reached += any(train_epoch(net, data, cfg, opt, e).loss == 0.0 for e in epochs)
    return reached


@pytest.fixture(scope="module")
def frozen_noise(tmp_path_factory):
    directory = tmp_path_factory.mktemp("frozen_noise")
    workloads.write_frozen_noise(directory, seed=1)
    return directory


def test_temporal_credit_learns_frozen_noise(frozen_noise):
    assert _tasks_reaching_zero_loss(frozen_noise) >= 4


def test_same_bin_credit_does_not(frozen_noise, monkeypatch):
    monkeypatch.setattr(spikenet.backprop, "delta_layer", _same_bin_credit)
    assert _tasks_reaching_zero_loss(frozen_noise) <= 1
