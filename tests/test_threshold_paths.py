"""Property tests: the per-bin and candidate-walk threshold loops agree bit for bit."""

import numpy as np
import pytest

from spikenet import NeuronConfig, SampledSignal, make_nu
from spikenet.forward import _threshold_bins, _threshold_walk, simulate_layer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def layers(draw):
    """Feedforward potentials of 1-16 neurons over 1-40 bins, on grids of
    1, 0.5 or 0.3 ms; nu reaches 7-67 bins, so short signals end inside
    it.  Values lie on a grid of theta / 4, so some sit exactly at theta."""
    channels, n = draw(st.integers(1, 16)), draw(st.integers(1, 40))
    ts = draw(st.sampled_from([1.0, 0.5, 0.3]))
    theta = draw(st.sampled_from([1.0, 5.0, 10.0]))
    tau_r = draw(st.sampled_from([0.5, 1.0, 2.0]))
    mode = draw(st.sampled_from(["mixed", "none", "all", "last"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    u = rng.integers(-4, 13, size=(channels, n)) * (theta / 4)
    if mode == "none":
        u = np.minimum(u, np.nextafter(theta, -np.inf))
    elif mode == "all":
        u = np.maximum(u, theta)
    elif mode == "last":  # every neuron reaches theta in its last bins
        u[:, -3:] = np.maximum(u[:, -3:], theta)
    return u, make_nu(NeuronConfig(theta, 2.0, tau_r), ts), theta, ts


def _run(helper, u_ff, nu, theta, ts, *extra):
    u = u_ff.copy()
    events = helper(u, nu.samples, theta, *extra)
    s = np.zeros(u.shape)
    s.reshape(-1)[events] = 1.0 / ts
    return u, events, s


@SETTINGS
@given(layers())
@example((np.array([[10.0]]), make_nu(NeuronConfig(10.0, 2.0, 1.0), 1.0), 10.0, 1.0))
@example((np.array([[9.0]]), make_nu(NeuronConfig(10.0, 2.0, 1.0), 0.3), 10.0, 0.3))
def test_walk_and_per_bin_loop_agree_bit_for_bit(layer):
    u_ff, nu, theta, ts = layer
    candidates = np.flatnonzero(u_ff >= theta)
    u_bins, events_bins, s_bins = _run(_threshold_bins, u_ff, nu, theta, ts)
    u_walk, events_walk, s_walk = _run(_threshold_walk, u_ff, nu, theta, ts, candidates)
    assert u_walk.tobytes() == u_bins.tobytes()
    assert events_walk.dtype == events_bins.dtype
    assert events_walk.tolist() == events_bins.tolist()
    assert s_walk.tobytes() == s_bins.tobytes()
    assert np.all(np.diff(events_walk % u_ff.shape[1]) >= 0)  # bin order
    # simulate_layer returns the same, whichever loop it picks
    s, u, events = simulate_layer(SampledSignal(u_ff, ts), nu, theta)
    assert u.values.tobytes() == u_bins.tobytes()
    assert events.tolist() == events_bins.tolist()
    assert s.values.tobytes() == s_bins.tobytes()
