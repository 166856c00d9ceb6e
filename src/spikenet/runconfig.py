"""Run configuration files: flat ``key = value`` lines in INI sections.

Unknown sections or keys are rejected so typos fail loudly.  Numeric
validation is delegated to the module constructors, which raise with the
offending field named.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .backprop import SurrogateConfig
from .errors import ConfigError
from .kernels import NeuronConfig
from .losses import LossSpec
from .optim import OptimizerState
from .signals import SimConfig, read_events
from .topology import Network, init_network, parse_architecture
from .trainer import Dataset, TrainConfig

_KNOWN_KEYS = {
    "network": {"architecture", "gain", "cutoff"},
    "simulation": {"t_ms", "ts_ms"},
    "neuron": {"theta", "tau_s", "tau_r"},
    "surrogate": {"alpha", "beta"},
    "optimizer": {
        "method",
        "learning_rate",
        "delay_lr_scale",
        "beta1",
        "beta2",
        "gamma",
        "eps_stab",
    },
    "loss": {"mode", "true_count", "false_count", "interval"},
    "data": {
        "inputs",
        "targets",
        "labels",
        "classes",
        "eval_inputs",
        "eval_targets",
        "eval_labels",
    },
    "train": {
        "epochs",
        "batch_size",
        "seed",
        "checkpoint_every",
        "eval_every",
        "threads",
    },
    "output": {"dir"},
}

_OPTIMIZER_DEFAULT_LR = {"sgd": 0.01, "rmsprop": 0.001, "adam": 0.001, "nadam": 0.001}


@dataclass
class RunConfig:
    """Validated contents of one configuration file."""

    architecture: str
    sim: SimConfig
    neuron: NeuronConfig
    surrogate: SurrogateConfig
    loss: LossSpec
    gain: float | None
    cutoff: float
    optimizer_method: str
    learning_rate: float
    delay_lr_scale: float
    beta1: float
    beta2: float
    gamma: float
    eps_stab: float
    data: dict
    epochs: int
    batch_size: int
    seed: int
    checkpoint_every: int
    eval_every: int
    threads: int
    out_dir: str
    base_dir: Path

    def build_network(self, seed: int | None = None) -> Network:
        spec = parse_architecture(self.architecture)
        return init_network(
            spec,
            self.neuron,
            self.sim,
            seed=self.seed if seed is None else seed,
            gain=self.gain,
            cutoff=self.cutoff,
        )

    def build_optimizer(self) -> OptimizerState:
        return OptimizerState(
            method=self.optimizer_method,
            learning_rate=self.learning_rate,
            delay_lr_scale=self.delay_lr_scale,
            beta1=self.beta1,
            beta2=self.beta2,
            gamma=self.gamma,
            eps_stab=self.eps_stab,
        )

    def train_config(
        self,
        epochs: int | None = None,
        seed: int | None = None,
        threads: int | None = None,
    ) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs if epochs is None else epochs,
            loss=self.loss,
            surrogate=self.surrogate,
            batch_size=self.batch_size,
            seed=self.seed if seed is None else seed,
            checkpoint_every=self.checkpoint_every,
            eval_every=self.eval_every,
            threads=self.threads if threads is None else threads,
        )

    def _resolve(self, key: str) -> Path:
        path = Path(self.data[key])
        if not path.is_absolute():
            path = self.base_dir / path
        if not path.exists():
            raise FileNotFoundError(f"data file for '{key}' does not exist: {path}")
        return path

    def load_dataset(self, split: str = "train") -> Dataset | None:
        """Build the train or eval dataset named in [data]; None if absent."""
        prefix = "" if split == "train" else "eval_"
        if prefix + "inputs" not in self.data:
            return None
        counts = parse_architecture(self.architecture).neuron_counts
        inputs_path = self._resolve(prefix + "inputs")
        # train_count pins the pairing even if trailing samples are silent
        if self.loss.mode == "precise":
            if prefix + "targets" not in self.data:
                raise ConfigError(f"precise loss needs '{prefix}targets' in [data]")
            inputs = read_events(inputs_path, neuron_count=counts[0])
            targets = read_events(
                self._resolve(prefix + "targets"),
                neuron_count=counts[-1],
                train_count=len(inputs.trains),
            )
            samples = list(zip(inputs.trains, targets.trains))
            return Dataset(samples, class_count=0)
        if prefix + "labels" not in self.data:
            raise ConfigError(f"count loss needs '{prefix}labels' in [data]")
        labels = _read_labels(self._resolve(prefix + "labels"))
        inputs = read_events(inputs_path, neuron_count=counts[0], train_count=len(labels))
        classes = int(self.data.get("classes", max(labels) + 1))
        return Dataset(list(zip(inputs.trains, labels)), class_count=classes)


def _read_labels(path: Path) -> list:
    labels = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            labels.append(int(text))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: label '{text}' is not an integer") from exc
    return labels


def _get(cp, section, key, cast, default=None, required=False):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if required:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return default


def _parse_interval(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("interval must be 't0,t1'")
    return (float(parts[0]), float(parts[1]))


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one configuration file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file does not exist: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")

    sim = SimConfig(
        t_ms=_get(cp, "simulation", "t_ms", float, required=True),
        ts_ms=_get(cp, "simulation", "ts_ms", float, required=True),
    )
    neuron = NeuronConfig(
        theta=_get(cp, "neuron", "theta", float, 10.0),
        tau_s=_get(cp, "neuron", "tau_s", float, 1.0),
        tau_r=_get(cp, "neuron", "tau_r", float, 1.0),
    )
    alpha = _get(cp, "surrogate", "alpha", float, 10.0)
    beta = _get(cp, "surrogate", "beta", float, None)
    surrogate = (
        SurrogateConfig(alpha=alpha, beta=beta)
        if beta is not None
        else SurrogateConfig.for_theta(neuron.theta, alpha=alpha)
    )
    mode = _get(cp, "loss", "mode", str, "precise").strip().lower()
    if mode == "count":
        loss = LossSpec(
            mode="count",
            true_count=_get(cp, "loss", "true_count", float, required=True),
            false_count=_get(cp, "loss", "false_count", float, required=True),
            interval=_get(cp, "loss", "interval", _parse_interval, (0.0, sim.t_ms)),
        )
    else:
        loss = LossSpec(mode=mode)
    method = _get(cp, "optimizer", "method", str, "adam").strip().lower()
    data = {k: cp.get("data", k) for k in cp.options("data")} if cp.has_section("data") else {}
    return RunConfig(
        architecture=_get(cp, "network", "architecture", str, required=True).strip(),
        sim=sim,
        neuron=neuron,
        surrogate=surrogate,
        loss=loss,
        gain=_get(cp, "network", "gain", float, None),
        cutoff=_get(cp, "network", "cutoff", float, 1e-6),
        optimizer_method=method,
        learning_rate=_get(
            cp,
            "optimizer",
            "learning_rate",
            float,
            _OPTIMIZER_DEFAULT_LR.get(method, 0.001),
        ),
        delay_lr_scale=_get(cp, "optimizer", "delay_lr_scale", float, 0.1),
        beta1=_get(cp, "optimizer", "beta1", float, 0.9),
        beta2=_get(cp, "optimizer", "beta2", float, 0.999),
        gamma=_get(cp, "optimizer", "gamma", float, 0.9),
        eps_stab=_get(cp, "optimizer", "eps_stab", float, 1e-8),
        data=data,
        epochs=_get(cp, "train", "epochs", int, 100),
        batch_size=_get(cp, "train", "batch_size", int, 1),
        seed=_get(cp, "train", "seed", int, 0),
        checkpoint_every=_get(cp, "train", "checkpoint_every", int, 0),
        eval_every=_get(cp, "train", "eval_every", int, 0),
        threads=_get(cp, "train", "threads", int, 1),
        out_dir=_get(cp, "output", "dir", str, "runs"),
        base_dir=path.parent.resolve(),
    )
