"""First-order optimizers: SGD, RMSProp, ADAM, NADAM.

All methods share one state container holding per-parameter moment
buffers keyed by transition index.  Delays use a separate learning-rate
multiplier (their units are milliseconds, not weight units) and are
clamped to stay nonnegative after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backprop import Gradients
from .errors import NumericError, ParameterError, ShapeError, require_positive
from .topology import Network

# the learning rate of each method when none is given
_DEFAULT_RATE = {"sgd": 0.01, "rmsprop": 0.001, "adam": 0.001, "nadam": 0.001}


@dataclass
class OptimizerState:
    """Method tag, hyperparameters, step counter and moment buffers.

    Buffers are allocated lazily on the first step so a fresh state can
    be built before the network exists; the counter and buffers are not
    init parameters, so a ``dataclasses.replace`` copy starts fresh.
    ``learning_rate`` defaults per method (0.01 for sgd, else 0.001), and
    ``delay_lr_scale`` multiplies it for delay updates.
    """

    method: str = "adam"
    learning_rate: float | None = None
    delay_lr_scale: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    gamma: float = 0.9
    eps_stab: float = 1e-8
    step_count: int = field(default=0, init=False)
    moment1: dict = field(default_factory=dict, init=False)
    moment2: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.method = self.method.lower()
        if self.method not in _DEFAULT_RATE:
            raise ParameterError(
                f"unknown optimizer '{self.method}', expected one of {tuple(_DEFAULT_RATE)}"
            )
        if self.learning_rate is None:
            self.learning_rate = _DEFAULT_RATE[self.method]
        for name, high in (
            ("learning_rate", np.inf), ("delay_lr_scale", np.inf),
            ("beta1", 1.0), ("beta2", 1.0), ("gamma", 1.0),
        ):
            if not 0.0 <= getattr(self, name) < high:
                raise ParameterError(f"{name} = {getattr(self, name)!r} outside [0, {high:g})")
        require_positive(eps_stab=self.eps_stab)

    @classmethod
    def sgd(cls, learning_rate: float | None = None, **kw) -> "OptimizerState":
        return cls("sgd", learning_rate, **kw)

    @classmethod
    def rmsprop(cls, learning_rate: float | None = None, **kw) -> "OptimizerState":
        return cls("rmsprop", learning_rate, **kw)

    @classmethod
    def adam(cls, learning_rate: float | None = None, **kw) -> "OptimizerState":
        return cls("adam", learning_rate, **kw)

    @classmethod
    def nadam(cls, learning_rate: float | None = None, **kw) -> "OptimizerState":
        return cls("nadam", learning_rate, **kw)


def _buffer(store: dict, key: str, like: np.ndarray) -> np.ndarray:
    if key not in store:
        store[key] = np.zeros_like(like)
    return store[key]


def _check_shapes(state: OptimizerState, net: Network, grads: Gradients) -> None:
    """Raise ShapeError unless every gradient and moment buffer fits its
    parameter, so a rejected step changes nothing."""
    n_t = net.n_transitions
    if len(grads.weights) != n_t or len(grads.delays) != n_t:
        raise ShapeError(
            f"gradients cover {len(grads.weights)} weight and {len(grads.delays)} "
            f"delay transitions, network has {n_t}"
        )
    for t, params in enumerate(net.params):
        for kind, key, param, grad in (
            ("weight", f"w{t}", params.weights, grads.weights[t]),
            ("delay", f"d{t}", params.delays, grads.delays[t]),
        ):
            if param is None:  # frozen weights take no gradient
                continue
            if grad is None or grad.shape != param.shape:
                raise ShapeError(f"{kind} gradient shape mismatch in transition {t}")
            for store in (state.moment1, state.moment2):
                if key in store and store[key].shape != param.shape:
                    raise ShapeError(
                        f"optimizer buffer '{key}' shape {store[key].shape} != {param.shape}"
                    )


def _update(state: OptimizerState, key: str, param: np.ndarray, grad: np.ndarray, lr: float):
    """Apply one in-place update of the configured method to ``param``."""
    if state.method == "sgd":
        param -= lr * grad
        return
    if state.method == "rmsprop":
        v = _buffer(state.moment2, key, param)
        v *= state.gamma
        v += (1.0 - state.gamma) * grad * grad
        param -= lr * grad / (np.sqrt(v) + state.eps_stab)
        return
    # adam and nadam share the moment recursions
    m = _buffer(state.moment1, key, param)
    v = _buffer(state.moment2, key, param)
    t = state.step_count
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    if state.method == "nadam":
        # Nesterov look-ahead on the first moment
        m_hat = state.beta1 * m_hat + (1.0 - state.beta1) * grad / (1.0 - state.beta1**t)
    # lr * m_hat / (sqrt(v_hat) + eps), built in the two buffers above
    denom = np.sqrt(v_hat, out=v_hat)
    denom += state.eps_stab
    m_hat *= lr
    m_hat /= denom
    param -= m_hat


def step(state: OptimizerState, net: Network, grads: Gradients) -> None:
    """Advance parameters one optimizer step in place; clamps delays >= 0.

    Every shape is checked first: a step that raises ShapeError changes
    no parameter, moment or counter."""
    _check_shapes(state, net, grads)
    state.step_count += 1
    delay_lr = state.learning_rate * state.delay_lr_scale
    for t, params in enumerate(net.params):
        if params.weights is not None:
            _update(state, f"w{t}", params.weights, grads.weights[t], state.learning_rate)
        _update(state, f"d{t}", params.delays, grads.delays[t], delay_lr)
    clamp_delays(net)
    for t, params in enumerate(net.params):
        if params.weights is not None and not np.isfinite(params.weights).all():
            raise NumericError(f"non-finite weights after update in transition {t}")
        if not np.isfinite(params.delays).all():
            raise NumericError(f"non-finite delays after update in transition {t}")


def clamp_delays(net: Network) -> Network:
    """Force every axonal delay to be nonnegative, in place."""
    for params in net.params:
        np.maximum(params.delays, 0.0, out=params.delays)
    return net
