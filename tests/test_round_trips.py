"""Round trips over random inputs: architecture strings and checkpoints.

The fixed cases in test_topology.py and test_trainer.py pin a few
architectures and one golden checkpoint; these draw the architecture, the
parameters and the optimizer state at random and check that text and
bytes come back unchanged.
"""

import numpy as np
import pytest

from spikenet import (
    Gradients,
    NeuronConfig,
    OptimizerState,
    SimConfig,
    init_network,
    load_checkpoint,
    parse_architecture,
    render_architecture,
    save_checkpoint,
    step,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)


@st.composite
def architectures(draw, max_layers=4):
    """A valid architecture string and its canonical rendering, which drops
    the output marker and an explicit single channel ("x1")."""
    if draw(st.booleans()):
        height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        channels = draw(st.integers(1, 3))
        canonical = [f"{height}x{width}" if channels == 1 else f"{height}x{width}x{channels}"]
        text = [f"{height}x{width}x1" if channels == 1 and draw(st.booleans()) else canonical[0]]
    else:
        height = width = 0
        canonical = [str(draw(st.integers(1, 30)))]
        text = list(canonical)
    for _ in range(draw(st.integers(1, max_layers))):
        kinds = ["dense"] + (["conv", "aggregate"] if height else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "conv":
            k = draw(st.integers(1, min(height, width)))
            token = f"{draw(st.integers(1, 3))}c{k}"
            height, width = height - k + 1, width - k + 1
        elif kind == "aggregate":
            blocks = [b for b in range(1, height + 1) if height % b == width % b == 0]
            b = draw(st.sampled_from(blocks))
            token = f"{b}a"
            height, width = height // b, width // b
        else:
            token = str(draw(st.integers(1, 6)))
            height = width = 0
        canonical.append(token)
        text.append(token)
    if not height and draw(st.booleans()):
        text[-1] += "o"
    return "-".join(text), "-".join(canonical)


@SETTINGS
@given(architectures())
def test_render_inverts_parse_on_random_architectures(case):
    text, canonical = case
    spec = parse_architecture(text)
    assert render_architecture(spec) == canonical
    assert parse_architecture(render_architecture(spec)) == spec


@st.composite
def checkpoints(draw):
    """A network with random constants and nonnegative delays, and an
    optimizer of any method after 0-2 steps on random gradients."""
    text, _ = draw(architectures(max_layers=3))
    seed = draw(st.integers(0, 2**16))
    unit = st.floats(0.05, 0.95)
    ts_ms = draw(st.sampled_from([0.25, 0.5, 1.0]))
    net = init_network(
        parse_architecture(text),
        NeuronConfig(draw(st.floats(0.5, 20.0)), *draw(st.tuples(*[st.floats(0.5, 4.0)] * 2))),
        SimConfig(ts_ms * draw(st.integers(1, 40)), ts_ms),
        seed=seed,
        gain=draw(st.floats(0.1, 20.0)),
        cutoff=draw(st.floats(1e-8, 1e-3)),
    )
    rng = np.random.default_rng(seed)
    for params in net.params:
        params.delays[:] = rng.uniform(0.0, 3.0, size=params.delays.shape)
    state = OptimizerState(
        method=draw(st.sampled_from(["sgd", "rmsprop", "adam", "nadam"])),
        learning_rate=draw(st.floats(0.0, 0.1)),
        delay_lr_scale=draw(st.floats(0.0, 1.0)),
        beta1=draw(unit),
        beta2=draw(unit),
        gamma=draw(unit),
        eps_stab=draw(st.floats(1e-10, 1e-6)),
    )
    for _ in range(draw(st.integers(0, 2))):
        grads = Gradients.zeros_like(net)
        for a in grads.weights + grads.delays:
            if a is not None:
                a[...] = rng.normal(size=a.shape)
        step(state, net, grads)
    return net, state, draw(st.integers(0, 2**32 - 1))


@settings(SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(checkpoints())
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, case):
    net, state, epoch = case
    first, second = tmp_path / "first.slck", tmp_path / "second.slck"
    save_checkpoint(net, state, first, epoch)
    loaded, loaded_state, loaded_epoch = load_checkpoint(first)
    assert loaded_epoch == epoch
    assert loaded_state.method == state.method and loaded_state.step_count == state.step_count
    save_checkpoint(loaded, loaded_state, second, loaded_epoch)
    assert second.read_bytes() == first.read_bytes()
