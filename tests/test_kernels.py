"""Response/refractory kernels and the delayed convolution operators."""

import numpy as np
import pytest

from conftest import (
    ref_convolve,
    ref_correlate,
    ref_epsilon,
    ref_epsilon_dot,
    ref_nu,
    truncate_ref,
)
from spikenet import (
    Kernel,
    NeuronConfig,
    SampledSignal,
    convolve,
    correlate,
    make_epsilon,
    make_epsilon_dot,
    make_nu,
)
from spikenet.errors import ConfigError, ParameterError
from spikenet.kernels import convolve_values, correlate_values
from spikenet.signals import SpikeEvents


def _config(tau_s=2.0, tau_r=1.0, theta=10.0, ts=1.0, cutoff=1e-6):
    return NeuronConfig(theta, tau_s, tau_r), ts, cutoff


def test_epsilon_landmarks():
    eps = make_epsilon(*_config(tau_s=2.0))
    assert eps.evaluate(0.0) == 0.0
    assert eps.evaluate(2.0) == pytest.approx(1.0, abs=1e-15)
    assert eps.evaluate(4.0) == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)
    assert eps.evaluate(4.0) == pytest.approx(0.735759, abs=1e-6)
    # unit peak at tau_s, nowhere higher
    assert eps.samples.max() <= 1.0 + 1e-15


def test_nu_landmarks():
    theta = 7.0
    nu = make_nu(*_config(tau_r=1.5, theta=theta))
    assert nu.evaluate(0.0) == pytest.approx(-2.0 * theta * np.e, rel=1e-15)
    assert nu.evaluate(0.0) == pytest.approx(-5.43656 * theta, abs=1e-4)
    assert nu.evaluate(1.5) == pytest.approx(-2.0 * theta, rel=1e-15)
    assert np.all(nu.samples <= 0.0)
    assert np.all(np.diff(nu.samples[: len(nu.samples) // 2]) > 0)  # decays toward zero


def test_epsilon_dot_landmarks():
    tau_s = 2.5
    dot = make_epsilon_dot(*_config(tau_s=tau_s))
    assert dot.evaluate(0.0) == pytest.approx(np.e / tau_s, rel=1e-15)
    assert dot.evaluate(tau_s) == 0.0
    assert dot.evaluate(0.5 * tau_s) > 0 > dot.evaluate(2.0 * tau_s)


@pytest.mark.parametrize("ts", [1.0, 0.5])
@pytest.mark.parametrize("tau_s,tau_r", [(2.0, 1.0), (3.0, 7.0)])
def test_samples_match_closed_forms(ts, tau_s, tau_r):
    theta = 4.0
    cfg = _config(tau_s=tau_s, tau_r=tau_r, theta=theta, ts=ts)
    for kernel, ref in [
        (make_epsilon(*cfg), lambda t: ref_epsilon(t, tau_s)),
        (make_nu(*cfg), lambda t: ref_nu(t, theta, tau_r)),
        (make_epsilon_dot(*cfg), lambda t: ref_epsilon_dot(t, tau_s)),
    ]:
        grid = np.arange(len(kernel.samples)) * ts
        want = np.array([ref(t) for t in grid])
        np.testing.assert_allclose(kernel.samples, want, atol=1e-12)


def test_evaluate_is_zero_outside_support():
    eps = make_epsilon(*_config())
    assert eps.evaluate(-0.001) == 0.0
    assert eps.evaluate(eps.support_end + 1e-9) == 0.0
    assert np.all(eps.evaluate(np.array([-5.0, 1e9])) == 0.0)


@pytest.mark.parametrize("make", [make_epsilon, make_nu, make_epsilon_dot])
def test_evaluate_is_zero_at_non_finite_times(make):
    kernel = make(*_config())
    times = [np.nan, np.inf, -np.inf]
    assert kernel.evaluate(np.array(times)).tolist() == [0.0, 0.0, 0.0]
    assert [float(kernel.evaluate(t)) for t in times] == [0.0, 0.0, 0.0]


def test_evaluate_at_fractional_times():
    tau_s = 2.0
    eps = make_epsilon(*_config(tau_s=tau_s))
    tt = np.linspace(0.05, 9.95, 37)
    want = np.array([ref_epsilon(t, tau_s) for t in tt])
    np.testing.assert_allclose(eps.evaluate(tt), want, atol=1e-14)


def test_support_scales_with_time_constants():
    short = make_epsilon(*_config(tau_s=2.0, tau_r=1.0))
    long = make_epsilon(*_config(tau_s=6.0, tau_r=1.0))
    assert long.support_end > short.support_end


def test_convolve_impulse_reproduces_kernel():
    cfg = _config(tau_s=2.0, ts=1.0)
    eps = make_epsilon(*cfg)
    ref = truncate_ref(lambda t: ref_epsilon(t, 2.0), eps.support_end)
    x = np.zeros((1, 40))
    x[0, 0] = 1.0  # amplitude 1/Ts with Ts = 1
    out = convolve(SampledSignal(x, 1.0), eps)
    want = np.array([ref(t) for t in np.arange(40.0)])
    np.testing.assert_allclose(out.values[0], want, atol=1e-12)


def test_convolve_integer_delay_shifts():
    cfg = _config(tau_s=2.0)
    eps = make_epsilon(*cfg)
    x = np.zeros((1, 30))
    x[0, 0] = 1.0
    base = convolve(SampledSignal(x, 1.0), eps).values[0]
    shifted = convolve(SampledSignal(x, 1.0), eps, delay=3.0).values[0]
    np.testing.assert_allclose(shifted[3:], base[:-3], atol=1e-12)
    assert np.all(shifted[:3] == 0.0)


def test_convolve_fractional_delay_resamples_closed_form():
    eps = make_epsilon(*_config(tau_s=2.0))
    ref = truncate_ref(lambda t: ref_epsilon(t, 2.0), eps.support_end)
    x = np.zeros((1, 30))
    x[0, 0] = 1.0
    out = convolve(SampledSignal(x, 1.0), eps, delay=0.25).values[0]
    want = np.array([ref(t - 0.25) for t in np.arange(30.0)])
    np.testing.assert_allclose(out, want, atol=1e-12)


@pytest.mark.parametrize("ts", [1.0, 0.5])
def test_convolve_matches_reference(ts):
    tau_s = 1.7
    eps = make_epsilon(*_config(tau_s=tau_s, ts=ts))
    ref = truncate_ref(lambda t: ref_epsilon(t, tau_s), eps.support_end)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 25))
        delays = rng.uniform(0.0, 3.0, size=3)
        got = convolve_values(x, eps, delays)
        for c in range(3):
            want = ref_convolve(x[c], ref, ts, delays[c])
            np.testing.assert_allclose(got[c], want, atol=1e-10)


def test_correlate_matches_reference():
    tau_s = 2.3
    eps = make_epsilon(*_config(tau_s=tau_s, ts=1.0))
    ref = truncate_ref(lambda t: ref_epsilon(t, tau_s), eps.support_end)
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(2, 30))
        delays = rng.uniform(0.0, 2.5, size=2)
        got = correlate_values(x, eps, delays)
        for c in range(2):
            want = ref_correlate(x[c], ref, 1.0, delays[c])
            np.testing.assert_allclose(got[c], want, atol=1e-10)


def test_correlate_impulse_reads_kernel_backwards():
    eps = make_epsilon(*_config(tau_s=2.0))
    ref = truncate_ref(lambda t: ref_epsilon(t, 2.0), eps.support_end)
    x = np.zeros((1, 25))
    x[0, -1] = 1.0
    out = correlate(SampledSignal(x, 1.0), eps).values[0]
    want = np.array([ref((24 - n) * 1.0) for n in range(25)])
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_convolve_correlate_adjoint():
    """<K x, y> == <x, K* y> for the same kernel and fractional per-channel
    delays.  x is dense, through the window sum, or sparse spikes held as
    their events below the 1/16 cutoff, through the scatter."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 60),
        st.sampled_from([1.0, 0.5]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def check(channels, bins, ts, sparse, seed):
        rng = np.random.default_rng(seed)
        eps = make_epsilon(*_config(tau_s=2.0, tau_r=3.0, ts=ts))
        delays = rng.uniform(0.0, 4.0, size=channels)
        y = rng.normal(size=(channels, bins))
        if sparse:
            size = channels * bins
            count = rng.integers(0, (size - 1) // 16 + 1)
            events = np.sort(rng.choice(size, count, replace=False))
            x = np.zeros(size)
            x[events] = 1.0 / ts
            x = x.reshape(channels, bins)
            source = SpikeEvents(events, x.shape, ts)
        else:
            x = source = rng.normal(size=(channels, bins))
        lhs = float(np.sum(convolve_values(source, eps, delays) * y))
        rhs = float(np.sum(x * correlate_values(y, eps, delays)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    check()


def test_convolve_linearity():
    eps = make_epsilon(*_config())
    rng = np.random.default_rng(9)
    x = SampledSignal(rng.normal(size=(2, 30)), 1.0)
    y = SampledSignal(rng.normal(size=(2, 30)), 1.0)
    mix = SampledSignal(1.5 * x.values - 0.25 * y.values, 1.0)
    got = convolve(mix, eps, delay=1.0).values
    want = 1.5 * convolve(x, eps, delay=1.0).values - 0.25 * convolve(y, eps, delay=1.0).values
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_truncation_error_is_bounded():
    """Shortening the support via a coarser cutoff moves any output by at
    most cutoff * max|kernel| * sum|x| * Ts."""
    coarse = 2e-2
    eps_full = make_epsilon(*_config(tau_s=1.0, cutoff=1e-9))
    eps_cut = make_epsilon(*_config(tau_s=1.0, cutoff=coarse))
    assert eps_cut.support_end < eps_full.support_end
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 2.0, size=(1, 80))
    full = convolve_values(x, eps_full, np.zeros(1))
    cut = convolve_values(x, eps_cut, np.zeros(1))
    bound = coarse * np.max(np.abs(eps_full.samples)) * np.sum(np.abs(x)) * 1.0
    assert np.max(np.abs(full - cut)) <= bound


def test_convolve_rejects_grid_mismatch():
    eps = make_epsilon(*_config(ts=1.0))
    with pytest.raises(ConfigError):
        convolve(SampledSignal(np.zeros((1, 10)), 0.5), eps)


def test_convolve_rejects_negative_delay():
    eps = make_epsilon(*_config())
    with pytest.raises(ParameterError):
        convolve(SampledSignal(np.zeros((1, 10)), 1.0), eps, delay=-0.5)


@pytest.mark.parametrize("op", [convolve, correlate])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convolve_and_correlate_reject_non_finite_delays(op, bad):
    eps = make_epsilon(*_config())
    with pytest.raises(ParameterError, match="finite"):
        op(SampledSignal(np.ones((2, 10)), 1.0), eps, delay=np.array([0.5, bad]))


def test_epsilon_dot_matches_central_difference_quadratically():
    """Central differences of the sampled response converge at O(Ts^2);
    halving Ts divides the worst interior error by about four."""
    tau_s = 2.0
    errs = []
    for ts in (0.1, 0.05):
        cfg = _config(tau_s=tau_s, ts=ts)
        eps, dot = make_epsilon(*cfg), make_epsilon_dot(*cfg)
        n = np.arange(int(1.0 / ts), int(10.0 / ts))
        fd = (eps.samples[n + 1] - eps.samples[n - 1]) / (2.0 * ts)
        errs.append(np.max(np.abs(fd - dot.samples[n])))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5


@pytest.mark.parametrize("make", [make_epsilon, make_nu, make_epsilon_dot])
@pytest.mark.parametrize(
    "ts,cutoff,message",
    [
        (0.0, 1e-6, "ts_ms must be positive"),
        (-1.0, 1e-6, "ts_ms must be positive"),
        (1.0, 0.0, "cutoff must lie in"),
        (1.0, 1.0, "cutoff must lie in"),
        (1.0, -0.5, "cutoff must lie in"),
    ],
)
def test_kernel_makers_reject_bad_grid_and_cutoff(make, ts, cutoff, message):
    with pytest.raises(ParameterError, match=message):
        make(NeuronConfig(10.0, 2.0, 1.0), ts, cutoff)
