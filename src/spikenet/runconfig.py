"""Run configuration files: flat ``key = value`` lines in INI sections.

Unknown sections or keys are rejected so typos fail loudly, and every
value is cast as the file loads.  Numeric validation is delegated to the
module constructors, which raise with the offending field named.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .forward import SurrogateConfig
from .kernels import DEFAULT_CUTOFF, NeuronConfig
from .losses import LossSpec
from .optim import _METHODS, OptimizerState
from .signals import SimConfig, SpikeTrain, read_events
from .topology import Network, init_network, parse_architecture
from .trainer import Dataset, TrainConfig


def _parse_interval(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("interval must be 't0,t1'")
    return (float(parts[0]), float(parts[1]))


# Every key of every section, with the cast applied to its text, which
# configparser has already stripped.  The [optimizer] and [train] keys are
# init parameters of OptimizerState and TrainConfig, whose defaults fill the
# keys a file leaves out.
_KEYS = {
    "network": {"architecture": str, "gain": float, "cutoff": float},
    "simulation": {"t_ms": float, "ts_ms": float},
    "neuron": {"theta": float, "tau_s": float, "tau_r": float},
    "surrogate": {"alpha": float, "beta": float},
    "optimizer": {
        "method": str.lower,
        "learning_rate": float,
        "delay_lr_scale": float,
        "beta1": float,
        "beta2": float,
        "gamma": float,
        "eps_stab": float,
    },
    "loss": {
        "mode": str.lower,
        "true_count": float,
        "false_count": float,
        "interval": _parse_interval,
    },
    "data": {
        "inputs": str,
        "targets": str,
        "labels": str,
        "classes": int,
        "eval_inputs": str,
        "eval_targets": str,
        "eval_labels": str,
    },
    "train": {
        "epochs": int,
        "batch_size": int,
        "seed": int,
        "checkpoint_every": int,
        "eval_every": int,
        "threads": int,
    },
    "output": {"dir": str},
}


@dataclass
class RunConfig:
    """Validated contents of one configuration file.

    ``optimizer`` is never stepped; :meth:`build_optimizer` hands out
    fresh copies of it.
    """

    architecture: str
    sim: SimConfig
    neuron: NeuronConfig
    gain: float | None
    cutoff: float
    optimizer: OptimizerState
    train: TrainConfig
    data: dict
    out_dir: str
    base_dir: Path

    def build_network(self, seed: int | None = None) -> Network:
        return init_network(
            parse_architecture(self.architecture),
            self.neuron,
            self.sim,
            seed=self.train.seed if seed is None else seed,
            gain=self.gain,
            cutoff=self.cutoff,
        )

    def build_optimizer(self) -> OptimizerState:
        return replace(self.optimizer)

    def train_config(
        self,
        epochs: int | None = None,
        seed: int | None = None,
        threads: int | None = None,
    ) -> TrainConfig:
        overrides = {"epochs": epochs, "seed": seed, "threads": threads}
        return replace(self.train, **{k: v for k, v in overrides.items() if v is not None})

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
        if self.train.loss.mode == "precise":
            if prefix + "targets" not in self.data:
                raise ConfigError(f"precise loss needs '{prefix}targets' in [data]")
            inputs = read_events(inputs_path, neuron_count=counts[0]).trains
            targets = read_events(
                self._resolve(prefix + "targets"), neuron_count=counts[-1]
            ).trains
            # a silent last train leaves no event in its file: pair on the
            # longer file and pad the shorter one with silent trains
            count = max(len(inputs), len(targets))
            inputs += tuple(SpikeTrain(counts[0]) for _ in range(count - len(inputs)))
            targets += tuple(SpikeTrain(counts[-1]) for _ in range(count - len(targets)))
            return Dataset(list(zip(inputs, targets)), class_count=0)
        if prefix + "labels" not in self.data:
            raise ConfigError(f"count loss needs '{prefix}labels' in [data]")
        labels_path = self._resolve(prefix + "labels")
        labels = _read_labels(labels_path)
        if not labels:
            raise ConfigError(f"{labels_path}: no labels")
        # train_count pins the pairing even if trailing samples are silent
        inputs = read_events(inputs_path, neuron_count=counts[0], train_count=len(labels))
        classes = self.data.get("classes", max(labels) + 1)
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


def _required(values: dict, section: str, key: str):
    if key not in values[section]:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return values[section][key]


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
    values = {section: {} for section in _KEYS}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
            raw = cp.get(section, key)
            try:
                values[section][key] = _KEYS[section][key](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    sim = SimConfig(
        t_ms=_required(values, "simulation", "t_ms"),
        ts_ms=_required(values, "simulation", "ts_ms"),
    )
    neuron = NeuronConfig(
        theta=values["neuron"].get("theta", 10.0),
        tau_s=values["neuron"].get("tau_s", 1.0),
        tau_r=values["neuron"].get("tau_r", 1.0),
    )
    keys = values["surrogate"]
    if "beta" in keys:
        surrogate = SurrogateConfig(**keys)
    else:
        surrogate = SurrogateConfig.for_theta(neuron.theta, **keys)
    loss = values["loss"]
    mode = loss.get("mode", "precise")
    if mode == "count":
        loss = LossSpec(
            mode="count",
            true_count=_required(values, "loss", "true_count"),
            false_count=_required(values, "loss", "false_count"),
            interval=loss.get("interval", (0.0, sim.t_ms)),
        )
    else:
        loss = LossSpec(mode=mode)
    architecture = _required(values, "network", "architecture")
    optimizer = values["optimizer"]
    if optimizer.get("method") in _METHODS:  # its constructor holds its default rate
        optimizer = getattr(OptimizerState, optimizer.pop("method"))(**optimizer)
    else:  # the defaults, or an unknown method that the constructor names
        optimizer = OptimizerState(**optimizer)
    values["train"].setdefault("epochs", 100)
    return RunConfig(
        architecture=architecture,
        sim=sim,
        neuron=neuron,
        gain=values["network"].get("gain"),
        cutoff=values["network"].get("cutoff", DEFAULT_CUTOFF),
        optimizer=optimizer,
        train=TrainConfig(loss=loss, surrogate=surrogate, **values["train"]),
        data=values["data"],
        out_dir=values["output"].get("dir", "runs"),
        base_dir=path.parent.resolve(),
    )
