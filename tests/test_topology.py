"""Architecture parsing, initialization, and the per-bin linear maps."""

import numpy as np
import pytest

from conftest import manual_network
from spikenet import (
    NeuronConfig,
    SampledSignal,
    SimConfig,
    adjoint_linear,
    apply_linear,
    init_network,
    parse_architecture,
    render_architecture,
)
from spikenet.errors import NumericError, ParameterError, ParseError, ShapeError
from spikenet.topology import LayerParams, Network


def test_parse_flat_dense_chain():
    spec = parse_architecture("28x28-800-10")
    assert spec.neuron_counts == (784, 800, 10)
    assert [l.kind for l in spec.layers] == ["input", "dense", "dense"]


def test_parse_bare_integer_input():
    spec = parse_architecture("250-25-1")
    assert spec.neuron_counts == (250, 25, 1)


def test_parse_conv_aggregate_chain():
    spec = parse_architecture("34x34x2-12c5-2a-4")
    assert spec.neuron_counts == (34 * 34 * 2, 12 * 30 * 30, 12 * 15 * 15, 4)
    assert spec.shapes[1].height == 30
    assert spec.shapes[2].height == 15


def test_parse_rejects_non_dividing_aggregation():
    with pytest.raises(ParseError) as err:
        parse_architecture("34x34x2-12c5-2a-64c5-2a-10o")
    # the diagnostic names the offending token
    assert "'2a'" in str(err.value)
    assert "11x11" in str(err.value)


def test_parse_output_marker():
    assert parse_architecture("20-5o") == parse_architecture("20-5")
    with pytest.raises(ParseError):
        parse_architecture("20-5o-4")


@pytest.mark.parametrize("text", ["4-0o", "6-3-00o"])
def test_zero_width_output_layer_names_its_token(text):
    token = text.rsplit("-", 1)[1]
    with pytest.raises(ParseError, match=f"'{token}'"):
        parse_architecture(text)


@pytest.mark.parametrize(
    "text",
    ["", "abc", "2x-3", "0-5", "10-", "10-0", "5c0-3", "28x28x-10", "3-2a", "4-3c2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_architecture(text)


def test_parse_rejects_oversized_convolution():
    with pytest.raises(ParseError) as err:
        parse_architecture("4x4-2c7-1")
    assert "'2c7'" in str(err.value)


@pytest.mark.parametrize("text", ["250-25-1", "28x28-800-10", "34x34x2-12c5-2a-4", "8x8x3-2a-5"])
def test_render_parse_round_trip(text):
    spec = parse_architecture(text)
    assert parse_architecture(render_architecture(spec)) == spec
    assert render_architecture(spec) == text


def _init(arch, seed=0, gain=None):
    return init_network(
        parse_architecture(arch), NeuronConfig(10.0, 2.0, 1.0), SimConfig(20.0, 1.0),
        seed=seed, gain=gain,
    )


def test_init_deterministic_per_seed():
    a, b, c = _init("30-10-4", seed=5), _init("30-10-4", seed=5), _init("30-10-4", seed=6)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.weights, pb.weights)
    assert not np.array_equal(a.params[0].weights, c.params[0].weights)


@pytest.mark.parametrize("seed", [-1, [3, -1]], ids=["int", "sequence"])
def test_init_rejects_a_negative_seed(seed):
    """numpy's own error for a negative seed is a bare ValueError."""
    with pytest.raises(ParameterError, match=r"^seed must be >= 0, got "):
        _init("3-2", seed=seed)


def test_init_dense_bound_scales_with_fan_in():
    net = _init("100-10", gain=3.0)
    w = net.params[0].weights
    assert w.shape == (10, 100)
    assert np.max(np.abs(w)) <= 3.0 / 10.0  # gain / sqrt(100)
    assert np.max(np.abs(w)) > 0.8 * 3.0 / 10.0  # uniform fill reaches near the bound


def test_init_conv_bound_uses_patch_fan_in():
    net = _init("6x6x2-3c3-2", gain=2.0)
    w = net.params[0].weights
    assert w.shape == (3, 2, 3, 3)
    assert np.max(np.abs(w)) <= 2.0 / np.sqrt(2 * 9)


def test_init_aggregate_has_no_weights():
    net = _init("4x4-2a-3")
    assert net.params[0].weights is None
    assert net.params[0].delays.shape == (16,)


def test_init_delays_start_at_zero():
    net = _init("30-10-4")
    for params in net.params:
        assert np.all(params.delays == 0.0)


def _signal(values):
    return SampledSignal(np.asarray(values, dtype=float), 1.0)


def _tiny(arch, weights, delays=None):
    spec = parse_architecture(arch)
    if delays is None:
        delays = [np.zeros(n) for n in spec.neuron_counts[:-1]]
    return manual_network(arch, weights, delays, NeuronConfig(10.0, 2.0, 1.0), SimConfig(8.0, 1.0))


def test_apply_dense_identity_passes_through():
    net = _tiny("3-3", [np.eye(3)])
    rng = np.random.default_rng(0)
    a = _signal(rng.normal(size=(3, 8)))
    np.testing.assert_array_equal(apply_linear(net, 0, a), a.values)
    np.testing.assert_array_equal(adjoint_linear(net, 0, a).values, a.values)


def test_apply_dense_is_matrix_product():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 6))
    net = _tiny("6-4", [w])
    a = _signal(rng.normal(size=(6, 8)))
    np.testing.assert_allclose(apply_linear(net, 0, a), w @ a.values, atol=1e-14)


def test_apply_conv_single_patch():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(1, 1, 2, 2))
    net = _tiny("2x2-1c2", [w])
    a = _signal(rng.normal(size=(4, 8)))
    got = apply_linear(net, 0, a)
    x = a.values.reshape(2, 2, 8)
    want = sum(w[0, 0, i, j] * x[i, j] for i in range(2) for j in range(2))
    np.testing.assert_allclose(got[0], want, atol=1e-14)


def test_apply_conv_valid_padding_geometry():
    net = _init("5x5-2c3-1")
    a = _signal(np.zeros((25, 20)))
    assert apply_linear(net, 0, a).shape == (2 * 3 * 3, 20)


def test_apply_aggregate_sums_blocks():
    net = _tiny("4x4-2a", [None])
    out = apply_linear(net, 0, _signal(np.ones((16, 8))))
    assert out.shape == (4, 8)
    np.testing.assert_array_equal(out, np.full((4, 8), 4.0))


def test_adjoint_aggregate_broadcasts():
    net = _tiny("4x4-2a", [None])
    delta = np.zeros((4, 8))
    delta[2, 5] = 1.0  # block at (row 1, col 0) of the 2x2 block grid
    back = adjoint_linear(net, 0, _signal(delta)).values.reshape(4, 4, 8)
    assert back[:, :, 5].sum() == 4.0
    np.testing.assert_array_equal(back[2:4, 0:2, 5], np.ones((2, 2)))


@pytest.mark.parametrize(
    "arch", ["6x6x2-3c3-2a-4", "9-5-2", "4x4-2a-3", "5x7x2-3c3-4", "4x6-2c1-2a-3"]
)
def test_apply_adjoint_are_adjoint(arch):
    """<A a, d> == <a, A* d> for every transition of mixed architectures."""
    neuron, sim = NeuronConfig(10.0, 2.0, 1.0), SimConfig(8.0, 1.0)
    net = init_network(parse_architecture(arch), neuron, sim, seed=3)
    for t in range(net.n_transitions):
        for seed in range(5):
            rng = np.random.default_rng([t, seed])
            a = _signal(rng.normal(size=(net.layer_sizes[t], 8)))
            d = _signal(rng.normal(size=(net.layer_sizes[t + 1], 8)))
            lhs = float(np.sum(apply_linear(net, t, a) * d.values))
            rhs = float(np.sum(a.values * adjoint_linear(net, t, d).values))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_apply_rejects_channel_mismatch():
    net = _tiny("3-3", [np.eye(3)])
    with pytest.raises(ShapeError):
        apply_linear(net, 0, _signal(np.zeros((4, 8))))
    with pytest.raises(ShapeError):
        adjoint_linear(net, 0, _signal(np.zeros((4, 8))))


def test_network_validates_parameter_shapes():
    spec = parse_architecture("3-2")
    neuron, sim = NeuronConfig(10.0, 2.0, 1.0), SimConfig(8.0, 1.0)
    with pytest.raises(ShapeError):
        Network(spec, [], neuron, sim)
    with pytest.raises(ShapeError):
        Network(spec, [LayerParams(np.zeros((2, 4)), np.zeros(3))], neuron, sim)
    with pytest.raises(ShapeError):
        Network(spec, [LayerParams(np.zeros((2, 3)), np.zeros(5))], neuron, sim)


def test_layer_params_clamp_negative_delays():
    params = LayerParams(np.zeros((2, 3)), np.array([-1.0, 0.5, 2.0]))
    np.testing.assert_array_equal(params.delays, [0.0, 0.5, 2.0])


def test_apply_flags_non_finite_results():
    w = np.eye(3)
    w[1, 1] = np.inf
    net = _tiny("3-3", [w])
    with pytest.raises(NumericError, match="transition 0"):
        apply_linear(net, 0, _signal(np.ones((3, 8))))
