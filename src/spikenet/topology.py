"""Network architecture, initialization, linear maps, adjoints and weight gradients.

Architectures are written as strings: layers separated by ``-``, spatial
dimensions by ``x``.  ``NcK`` is a convolution layer with N filters of
K x K, ``Na`` an N x N aggregation (sum-pooling) layer, a plain integer a
dense layer, and a trailing ``o`` on the last integer marks the output
("10o").  The leading token is the input: ``34x34x2`` for height x width
x channels, or a bare integer for a flat input.

Convolutions use valid padding and stride 1; aggregation requires the
spatial size to divide evenly by the block and is a frozen-weight
sum-pooling layer that otherwise spikes like any other.  Every layer's
neurons carry one axonal delay applied to their outgoing spike response.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, ParameterError, ParseError, ShapeError
from .kernels import DEFAULT_CUTOFF, Kernel, NeuronConfig, make_epsilon, make_epsilon_dot, make_nu
from .signals import SampledSignal, SimConfig


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the architecture."""

    kind: str  # "input" | "dense" | "conv" | "aggregate"
    size: int = 0  # dense width, or flat input width
    filters: int = 0
    kernel_size: int = 0
    block_size: int = 0
    in_shape: tuple = ()  # (channels, height, width) for a spatial input


@dataclass(frozen=True)
class _Shape:
    """Resolved shape of a layer: (channels, height, width) plus a spatial flag."""

    channels: int
    height: int
    width: int
    spatial: bool

    @property
    def neurons(self) -> int:
        return self.channels * self.height * self.width


def _resolve_shapes(layers) -> tuple:
    shapes = []
    for i, layer in enumerate(layers):
        if layer.kind == "input":
            if i != 0:
                raise ShapeError("input layer must come first")
            if layer.in_shape:
                c, h, w = layer.in_shape
                shapes.append(_Shape(c, h, w, True))
            else:
                shapes.append(_Shape(layer.size, 1, 1, False))
            continue
        if i == 0:
            raise ShapeError("first layer must be an input layer")
        prev = shapes[-1]
        if layer.kind == "dense":
            shapes.append(_Shape(layer.size, 1, 1, False))
        elif layer.kind == "conv":
            if not prev.spatial:
                raise ShapeError("convolution requires a spatial predecessor")
            k = layer.kernel_size
            if prev.height < k or prev.width < k:
                raise ShapeError(
                    f"{k}x{k} convolution does not fit {prev.height}x{prev.width} input"
                )
            shapes.append(
                _Shape(layer.filters, prev.height - k + 1, prev.width - k + 1, True)
            )
        elif layer.kind == "aggregate":
            if not prev.spatial:
                raise ShapeError("aggregation requires a spatial predecessor")
            b = layer.block_size
            if prev.height % b or prev.width % b:
                raise ShapeError(
                    f"{b}x{b} aggregation does not divide {prev.height}x{prev.width} evenly"
                )
            shapes.append(_Shape(prev.channels, prev.height // b, prev.width // b, True))
        else:
            raise ShapeError(f"unknown layer kind '{layer.kind}'")
    return tuple(shapes)


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer specs with resolved shapes; first layer is the input."""

    layers: tuple
    shapes: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 2:
            raise ShapeError("a network needs an input layer and at least one layer")
        object.__setattr__(self, "shapes", _resolve_shapes(self.layers))

    @property
    def n_transitions(self) -> int:
        return len(self.layers) - 1

    @property
    def neuron_counts(self) -> tuple:
        return tuple(s.neurons for s in self.shapes)


_TOKEN_CONV = re.compile(r"^(\d+)c(\d+)$")
_TOKEN_AGG = re.compile(r"^(\d+)a$")
_TOKEN_DENSE = re.compile(r"^(\d+)(o?)$")  # "o" marks the output layer
_TOKEN_INPUT = re.compile(r"^(\d+)(x(\d+))?(x(\d+))?$")


def parse_architecture(text: str) -> NetworkSpec:
    """Parse an architecture string into a NetworkSpec.

    Raises ParseError naming the offending token for malformed tokens and
    for shape chains that do not fit (e.g. non-dividing aggregation).
    """
    if not text or not text.strip():
        raise ParseError("empty architecture string")
    tokens = text.strip().split("-")
    layers = [_parse_input_token(tokens[0])]
    for pos, token in enumerate(tokens[1:], start=1):
        last = pos == len(tokens) - 1
        layers.append(_parse_layer_token(token, last))
        # resolve shapes incrementally so failures name the bad token
        try:
            _resolve_shapes(layers)
        except ShapeError as exc:
            raise ParseError(f"token '{token}' in '{text}': {exc}") from exc
    try:
        return NetworkSpec(tuple(layers))
    except ShapeError as exc:
        raise ParseError(f"invalid architecture '{text}': {exc}") from exc


def _parse_input_token(token: str) -> LayerSpec:
    m = _TOKEN_INPUT.match(token)
    if not m or ("x" in token and not m.group(3)):
        raise ParseError(f"malformed input token '{token}'")
    if "x" not in token:
        n = int(m.group(1))
        if n < 1:
            raise ParseError(f"malformed input token '{token}': zero width")
        return LayerSpec("input", size=n)
    h, w = int(m.group(1)), int(m.group(3))
    c = int(m.group(5)) if m.group(5) else 1
    if min(h, w, c) < 1:
        raise ParseError(f"malformed input token '{token}': zero dimension")
    return LayerSpec("input", in_shape=(c, h, w))


def _parse_layer_token(token: str, last: bool) -> LayerSpec:
    if m := _TOKEN_CONV.match(token):
        f, k = int(m.group(1)), int(m.group(2))
        if f < 1 or k < 1:
            raise ParseError(f"malformed conv token '{token}'")
        return LayerSpec("conv", filters=f, kernel_size=k)
    if m := _TOKEN_AGG.match(token):
        b = int(m.group(1))
        if b < 1:
            raise ParseError(f"malformed aggregation token '{token}'")
        return LayerSpec("aggregate", block_size=b)
    if m := _TOKEN_DENSE.match(token):
        if m.group(2) and not last:
            raise ParseError(f"output marker '{token}' only allowed on the last layer")
        n = int(m.group(1))
        if n < 1:
            raise ParseError(f"malformed dense token '{token}': zero width")
        return LayerSpec("dense", size=n)
    raise ParseError(f"malformed layer token '{token}'")


def render_architecture(spec: NetworkSpec) -> str:
    """Inverse of :func:`parse_architecture` up to the optional output marker."""
    tokens = []
    for layer in spec.layers:
        if layer.kind == "input":
            if layer.in_shape:
                c, h, w = layer.in_shape
                tokens.append(f"{h}x{w}" if c == 1 else f"{h}x{w}x{c}")
            else:
                tokens.append(str(layer.size))
        elif layer.kind == "dense":
            tokens.append(str(layer.size))
        elif layer.kind == "conv":
            tokens.append(f"{layer.filters}c{layer.kernel_size}")
        else:
            tokens.append(f"{layer.block_size}a")
    return "-".join(tokens)


@dataclass(eq=False)
class LayerParams:
    """Weights and per-source-neuron axonal delays of one layer transition.

    ``weights`` is None for aggregation targets (fixed unit weights).
    Delays are clamped to >= 0 on construction; optimizer steps re-clamp.
    """

    weights: np.ndarray | None
    delays: np.ndarray

    def __post_init__(self):
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.delays = np.maximum(np.asarray(self.delays, dtype=np.float64), 0.0)


@dataclass(eq=False)
class Network:
    """Architecture plus parameters, neuron model and simulation grid."""

    spec: NetworkSpec
    params: list
    neuron: NeuronConfig
    sim: SimConfig
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        if len(self.params) != self.spec.n_transitions:
            raise ShapeError(
                f"{len(self.params)} parameter blocks for "
                f"{self.spec.n_transitions} transitions"
            )
        for t in range(self.spec.n_transitions):
            expected = _weight_shape(self.spec, t)
            got = None if self.params[t].weights is None else self.params[t].weights.shape
            if got != expected:
                raise ShapeError(f"transition {t}: weight shape {got} != {expected}")
            if self.params[t].delays.shape != (self.spec.neuron_counts[t],):
                raise ShapeError(
                    f"transition {t}: delay length {self.params[t].delays.shape} "
                    f"!= ({self.spec.neuron_counts[t]},)"
                )

    @property
    def n_transitions(self) -> int:
        return self.spec.n_transitions

    @property
    def layer_sizes(self) -> tuple:
        return self.spec.neuron_counts

    @cached_property
    def epsilon(self) -> Kernel:
        return make_epsilon(self.neuron, self.sim.ts_ms, self.cutoff)

    @cached_property
    def nu(self) -> Kernel:
        return make_nu(self.neuron, self.sim.ts_ms, self.cutoff)

    @cached_property
    def epsilon_dot(self) -> Kernel:
        return make_epsilon_dot(self.neuron, self.sim.ts_ms, self.cutoff)


def _weight_shape(spec: NetworkSpec, t: int):
    target = spec.layers[t + 1]
    if target.kind == "dense":
        return (spec.neuron_counts[t + 1], spec.neuron_counts[t])
    if target.kind == "conv":
        return (
            target.filters,
            spec.shapes[t].channels,
            target.kernel_size,
            target.kernel_size,
        )
    return None  # aggregate


def init_network(
    spec: NetworkSpec,
    neuron: NeuronConfig,
    sim: SimConfig,
    seed: int = 0,
    gain: float | None = None,
    cutoff: float = DEFAULT_CUTOFF,
) -> Network:
    """Draw weights i.i.d. uniform in [-c, c] with c = gain / sqrt(fan_in).

    ``gain`` defaults to 10 * theta, sized so a handful of coincident unit
    spike responses can reach the threshold.  Delays start at zero; the
    same seed always yields the same network.
    """
    if gain is None:
        gain = 10.0 * neuron.theta
    elif not np.isfinite(gain):
        raise ParameterError(f"gain must be finite, got {gain!r}")
    rng = np.random.default_rng(seed)
    params = []
    for t in range(spec.n_transitions):
        shape = _weight_shape(spec, t)
        if shape is None:
            weights = None
        else:
            bound = gain / np.sqrt(np.prod(shape[1:]))  # fan-in
            weights = rng.uniform(-bound, bound, size=shape)
        params.append(LayerParams(weights, np.zeros(spec.neuron_counts[t])))
    return Network(spec, params, neuron, sim, cutoff)


def _as_spatial(values: np.ndarray, shape: _Shape) -> np.ndarray:
    return values.reshape(shape.channels, shape.height, shape.width, -1)


def _conv_rows(x: np.ndarray, k: int, out_w: int):
    """Walk the output rows of a valid k x k convolution over x.

    ``x`` is a (c, H, W*n) view: each image row holds its W pixels' n bins
    side by side, so the inputs of one output row at kernel offset (p, q)
    are the contiguous slice ``x[:, i+p, q*n:(q+out_w)*n]``.  For each
    output row i this yields (i, block), where block is one reused
    (c*k*k, out_w*n) array whose rows, ordered (c, p, q) like the
    flattened weights, hold those k*k slices: one GEMM with the (f, c*k*k)
    weight matrix computes the whole row.
    """
    c, h, row = x.shape
    n = row // (out_w + k - 1)
    block = np.empty((c, k, k, out_w * n))
    cols = [slice(q * n, (q + out_w) * n) for q in range(k)]
    for i in range(h - k + 1):
        for p in range(k):
            for q in range(k):
                block[:, p, q] = x[:, i + p, cols[q]]
        yield i, block.reshape(c * k * k, -1)


def apply_linear(net: Network, t: int, a: SampledSignal) -> SampledSignal:
    """Per-bin linear map of transition t: dense product, valid convolution,
    or non-overlapping block sum for aggregation."""
    src, dst = net.spec.shapes[t], net.spec.shapes[t + 1]
    if a.channels != src.neurons:
        raise ShapeError(f"transition {t}: {a.channels} channels, expected {src.neurons}")
    kind = net.spec.layers[t + 1].kind
    w = net.params[t].weights
    if kind == "dense":
        out = w @ a.values
    elif kind == "conv":
        x = a.values.reshape(src.channels, src.height, -1)
        k = net.spec.layers[t + 1].kernel_size
        w2 = w.reshape(dst.channels, -1)
        rows = np.empty((dst.channels, dst.height, dst.width * a.n_samples))
        for i, block in _conv_rows(x, k, dst.width):
            np.matmul(w2, block, out=rows[:, i])
        out = rows.reshape(dst.neurons, -1)
    else:  # aggregate
        b = net.spec.layers[t + 1].block_size
        x = _as_spatial(a.values, src)
        x = x.reshape(src.channels, dst.height, b, dst.width, b, -1)
        out = x.sum(axis=(2, 4)).reshape(dst.neurons, -1)
    if not np.all(np.isfinite(out)):
        c, n = np.argwhere(~np.isfinite(out.reshape(dst.neurons, -1)))[0]
        raise NumericError(
            f"non-finite potential in transition {t} at neuron {int(c)}, bin {int(n)}"
        )
    return SampledSignal._adopt(out, a.ts_ms)


def adjoint_linear(net: Network, t: int, delta: SampledSignal) -> SampledSignal:
    """Exact per-bin adjoint of :func:`apply_linear` for the same transition,
    always a new array: backward relies on it sharing no memory with ``delta``."""
    src, dst = net.spec.shapes[t], net.spec.shapes[t + 1]
    if delta.channels != dst.neurons:
        raise ShapeError(
            f"transition {t}: {delta.channels} channels, expected {dst.neurons}"
        )
    kind = net.spec.layers[t + 1].kind
    w = net.params[t].weights
    if kind == "dense":
        out = w.T @ delta.values
    elif kind == "conv":
        k = net.spec.layers[t + 1].kernel_size
        d = delta.values.reshape(dst.channels, dst.height, -1)
        w2t = w.reshape(dst.channels, -1).T
        n = delta.n_samples
        back = np.zeros((src.channels, src.height, src.width * n))
        # col2im: each output row's GEMM fills a block whose k*k slices add into back
        block = np.empty((src.channels, k, k, dst.width * n))
        cols = [slice(q * n, (q + dst.width) * n) for q in range(k)]
        for i in range(dst.height):
            np.matmul(w2t, d[:, i], out=block.reshape(w2t.shape[0], -1))
            for p in range(k):
                for q in range(k):
                    back[:, i + p, cols[q]] += block[:, p, q]
        out = back.reshape(src.neurons, -1)
    else:  # aggregate: broadcast each block value back to its inputs
        b = net.spec.layers[t + 1].block_size
        d = _as_spatial(delta.values, dst)[:, :, None, :, None]
        # a new array even for 1x1 blocks, where a reshape would be a view
        out = np.empty((src.neurons, delta.n_samples))
        out.reshape(dst.channels, dst.height, b, dst.width, b, -1)[...] = d
    return SampledSignal._adopt(out, delta.ts_ms)


def weight_gradient(
    net: Network, t: int, delta: SampledSignal, a: SampledSignal, out=None
) -> np.ndarray | None:
    """Time integral of delta against the presynaptic response, in the
    weight layout of transition t; None for frozen aggregations.

    ``out``, a C-contiguous array of that layout, receives the result."""
    kind = net.spec.layers[t + 1].kind
    ts = delta.ts_ms
    if kind == "aggregate":
        return None
    if kind == "dense":
        out = np.matmul(delta.values, a.values.T, out=out)
        out *= ts
        return out
    src, dst = net.spec.shapes[t], net.spec.shapes[t + 1]
    k = net.spec.layers[t + 1].kernel_size
    x = a.values.reshape(src.channels, src.height, -1)
    d = delta.values.reshape(dst.channels, dst.height, -1)
    if out is None:
        out = np.empty((dst.channels, src.channels, k, k))
    grad = out.reshape(dst.channels, -1)
    grad.fill(0.0)
    for i, block in _conv_rows(x, k, dst.width):
        grad += d[:, i] @ block.T
    grad *= ts
    return out
