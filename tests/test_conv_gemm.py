"""Conv map, adjoint and weight gradient against the einsum references.

The library runs all three as row-blocked patch GEMMs; these tests keep
the direct contractions over 6-D sliding windows that the GEMMs replaced
and check the two agree on random conv geometries.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from spikenet import (
    NeuronConfig,
    SampledSignal,
    SimConfig,
    adjoint_linear,
    apply_linear,
    init_network,
    parse_architecture,
)
from spikenet.backprop import weight_gradient

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)


def ref_conv_apply(w, x):
    """Valid k x k convolution of x (c, H, W, n) with w (f, c, k, k)."""
    k = w.shape[-1]
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    return np.einsum("cijnpq,fcpq->fijn", windows, w)


def ref_conv_adjoint(w, d):
    """Adjoint of ref_conv_apply: full correlation of d (f, H', W', n) with
    the flipped kernels."""
    k = w.shape[-1]
    padded = np.pad(d, ((0, 0), (k - 1, k - 1), (k - 1, k - 1), (0, 0)))
    windows = sliding_window_view(padded, (k, k), axis=(1, 2))
    return np.einsum("fyxnpq,fcpq->cyxn", windows, w[:, :, ::-1, ::-1])


def ref_conv_weight_gradient(d, x, k):
    """Sum over output pixels and bins of d times the input patch."""
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    return np.einsum("fijn,cijnpq->fcpq", d, windows)


def _close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) <= 1e-12 * scale


@st.composite
def conv_geometries(draw):
    """H != W allowed; k up to min(H, W), so k = H leaves one output row."""
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(1, min(height, width)))
    channels, filters = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bins = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    return height, width, channels, filters, k, bins, seed


@SETTINGS
@given(conv_geometries())
def test_conv_paths_equal_einsum_references(geometry):
    height, width, channels, filters, k, bins, seed = geometry
    net = init_network(
        parse_architecture(f"{height}x{width}x{channels}-{filters}c{k}"),
        NeuronConfig(10.0, 2.0, 1.0),
        SimConfig(float(bins), 1.0),
        seed=seed,
    )
    w = net.params[0].weights
    out_h, out_w = height - k + 1, width - k + 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(channels, height, width, bins))
    d = rng.normal(size=(filters, out_h, out_w, bins))
    a = SampledSignal(x.reshape(-1, bins), 0.5)
    delta = SampledSignal(d.reshape(-1, bins), 0.5)

    mapped = apply_linear(net, 0, a)
    assert _close(mapped, ref_conv_apply(w, x).reshape(-1, bins))
    back = adjoint_linear(net, 0, delta).values
    assert _close(back, ref_conv_adjoint(w, d).reshape(-1, bins))
    grad = weight_gradient(net, 0, delta, a)
    assert grad.shape == w.shape and grad.flags.c_contiguous
    assert _close(grad, 0.5 * ref_conv_weight_gradient(d, x, k))

