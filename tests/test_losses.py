"""Error signals and the quadratic loss functional."""

import numpy as np
import pytest

from conftest import ref_epsilon, truncate_ref
from spikenet import (
    LossSpec,
    NeuronConfig,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    error_count,
    error_precise,
    loss_value,
    make_epsilon,
    spike_counts,
    spikes_to_signal,
)
from spikenet.errors import ParameterError, RangeError
from spikenet.losses import interval_bins


def _eps(tau_s=2.0, ts=1.0):
    return make_epsilon(NeuronConfig(10.0, tau_s, 1.0), ts)


def test_loss_spec_validation():
    with pytest.raises(ParameterError):
        LossSpec("fuzzy")
    with pytest.raises(ParameterError):
        LossSpec("count", 20.0, 5.0)  # missing interval
    with pytest.raises(ParameterError):
        LossSpec("count", 20.0, 5.0, (30.0, 10.0))
    LossSpec("precise")
    LossSpec("count", 20.0, 5.0, (0.0, 50.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["true_count", "false_count"])
def test_count_loss_spec_rejects_a_non_finite_count(field, bad):
    counts = {"true_count": 20.0, "false_count": 5.0, field: bad}
    with pytest.raises(ParameterError, match=rf"^count loss {field} must be finite, got "):
        LossSpec("count", interval=(0.0, 50.0), **counts)


def test_desired_counts_one_hot_mix():
    spec = LossSpec("count", 20.0, 5.0, (0.0, 50.0))
    np.testing.assert_array_equal(spec.desired_counts(2, 5), [5.0, 5.0, 20.0, 5.0, 5.0])


@pytest.mark.parametrize("label", [-1, 5])
def test_desired_counts_rejects_a_label_outside_the_classes(label):
    spec = LossSpec("count", 20.0, 5.0, (0.0, 50.0))
    with pytest.raises(ParameterError, match=f"label {label} outside 0..4"):
        spec.desired_counts(label, 5)


# 1.5 would reach numpy's indexing, which raises a bare IndexError; 1.0
# lies inside the classes, so "outside" would name the wrong fault
@pytest.mark.parametrize("label", [1.5, 1.0, "3"])
def test_desired_counts_names_a_non_integer_label(label):
    spec = LossSpec("count", 20.0, 5.0, (0.0, 50.0))
    with pytest.raises(ParameterError, match=rf"^label {label!r} is not an integer$"):
        spec.desired_counts(label, 5)


def test_interval_bins_selects_by_center():
    cfg = SimConfig(10.0, 1.0)
    np.testing.assert_array_equal(interval_bins((2.0, 5.0), cfg), [2, 3, 4])
    np.testing.assert_array_equal(interval_bins((2.5, 4.5), cfg), [2, 3, 4])
    np.testing.assert_array_equal(interval_bins((0.0, 10.0), cfg), np.arange(10))


def test_interval_bins_rejects_out_of_window():
    cfg = SimConfig(10.0, 1.0)
    with pytest.raises(RangeError):
        interval_bins((-1.0, 5.0), cfg)
    with pytest.raises(RangeError):
        interval_bins((2.0, 11.0), cfg)


def test_spike_counts_integrates_interval():
    cfg = SimConfig(10.0, 0.5)
    s = np.zeros((2, 20))
    s[0, [2, 7, 13]] = 2.0  # 1/Ts amplitude
    s[1, 4] = 2.0
    counts = spike_counts(SampledSignal(s, 0.5), (0.0, 10.0), cfg)
    np.testing.assert_allclose(counts, [3.0, 1.0], atol=1e-12)
    counts = spike_counts(SampledSignal(s, 0.5), (0.0, 3.0), cfg)
    np.testing.assert_allclose(counts, [1.0, 1.0], atol=1e-12)


def test_error_precise_zero_on_exact_match():
    cfg = SimConfig(20.0, 1.0)
    target = SpikeTrain(2, ((0, 3.5), (1, 11.5)))
    s_out = spikes_to_signal(target, cfg)
    e = error_precise(s_out, target, _eps(), cfg)
    assert np.all(e.values == 0.0)
    assert loss_value(e) == 0.0


def test_error_precise_single_extra_spike_traces_kernel():
    cfg = SimConfig(20.0, 1.0)
    eps = _eps(tau_s=2.0)
    ref = truncate_ref(lambda t: ref_epsilon(t, 2.0), eps.support_end)
    s = np.zeros((1, 20))
    s[0, 4] = 1.0
    e = error_precise(SampledSignal(s, 1.0), SpikeTrain(1, ()), eps, cfg)
    want = np.array([ref((n - 4) * 1.0) for n in range(20)])
    np.testing.assert_allclose(e.values[0], want, atol=1e-12)


def test_error_precise_is_linear_in_the_difference():
    cfg = SimConfig(20.0, 1.0)
    eps = _eps()
    target = SpikeTrain(1, ((0, 5.5), (0, 9.5)))
    rng = np.random.default_rng(0)
    s = SampledSignal(rng.integers(0, 2, size=(1, 20)).astype(float), 1.0)
    e = error_precise(s, target, eps, cfg).values
    # same error computed from the two pieces separately
    e_actual = error_precise(s, SpikeTrain(1, ()), eps, cfg).values
    e_target = error_precise(spikes_to_signal(target, cfg), SpikeTrain(1, ()), eps, cfg).values
    np.testing.assert_allclose(e, e_actual - e_target, atol=1e-12)


def test_error_count_constant_difference_on_interval():
    cfg = SimConfig(50.0, 1.0)
    s = np.zeros((1, 50))
    s[0, [3, 10, 20]] = 1.0  # 3 actual spikes
    e = error_count(SampledSignal(s, 1.0), np.array([5.0]), (0.0, 50.0), cfg)
    np.testing.assert_allclose(e.values[0], np.full(50, -2.0), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_error_count_rejects_non_finite_desired_counts(bad):
    cfg = SimConfig(10.0, 1.0)
    with pytest.raises(ParameterError, match="desired counts must be finite"):
        error_count(SampledSignal(np.zeros((2, 10)), 1.0), [1.0, bad], (0.0, 10.0), cfg)


def test_error_count_ignores_spikes_outside_interval():
    cfg = SimConfig(50.0, 1.0)
    s = np.zeros((1, 50))
    s[0, [3, 10, 45]] = 1.0
    e = error_count(SampledSignal(s, 1.0), np.array([2.0]), (0.0, 40.0), cfg)
    bins = interval_bins((0.0, 40.0), cfg)
    np.testing.assert_allclose(e.values[0, bins], 0.0, atol=1e-12)
    outside = np.setdiff1d(np.arange(50), bins)
    assert np.all(e.values[0, outside] == 0.0)


def test_error_count_invariant_to_timing_within_interval():
    cfg = SimConfig(50.0, 1.0)
    a, b = np.zeros((1, 50)), np.zeros((1, 50))
    a[0, [2, 3, 4]] = 1.0
    b[0, [10, 25, 39]] = 1.0
    ea = error_count(SampledSignal(a, 1.0), np.array([1.0]), (0.0, 50.0), cfg)
    eb = error_count(SampledSignal(b, 1.0), np.array([1.0]), (0.0, 50.0), cfg)
    np.testing.assert_array_equal(ea.values, eb.values)


def test_loss_value_integrates_squared_error():
    """A constant error of 2 over a 50 ms interval scores 0.5*4*50 = 100."""
    e = SampledSignal(np.full((1, 50), 2.0), 1.0)
    assert loss_value(e) == pytest.approx(100.0, abs=1e-12)


def test_loss_value_quadratic_scaling():
    rng = np.random.default_rng(4)
    e = rng.normal(size=(3, 30))
    base = loss_value(SampledSignal(e, 1.0))
    assert loss_value(SampledSignal(2.0 * e, 1.0)) == pytest.approx(4.0 * base, rel=1e-12)
    assert base > 0.0


def test_loss_value_respects_bin_width():
    e = np.ones((1, 10))
    assert loss_value(SampledSignal(e, 0.5)) == pytest.approx(
        0.5 * loss_value(SampledSignal(e, 1.0)), rel=1e-12
    )
