"""Training harness: dataset container, epoch loop, metrics, checkpoints.

Every run is fully determined by (seed, config, dataset): shuffling uses
a per-epoch generator seeded from (seed, epoch) so a resumed run replays
the same order, and batch gradients are reduced in sample-index order
regardless of worker scheduling.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .backprop import Gradients, backward
from .errors import FormatError, ParameterError, ShapeError, SpikeNetError
from .forward import SurrogateConfig, forward
from .kernels import NeuronConfig
from .losses import LossSpec, loss_value, output_error, spike_counts
from .optim import OptimizerState, step
from .signals import SampledSignal, SimConfig, SpikeTrain, require_seed
from .topology import LayerParams, Network, parse_architecture, render_architecture


@dataclass
class Dataset:
    """Input spike trains paired with integer labels (count mode) or
    target spike trains (precise mode)."""

    samples: list
    class_count: int = 0

    def __post_init__(self):
        if self.samples:
            channels = self.samples[0][0].neuron_count
            for i, (train, target) in enumerate(self.samples):
                if train.neuron_count != channels:
                    raise ShapeError(
                        f"sample {i} has {train.neuron_count} channels, "
                        f"expected {channels}"
                    )
                if isinstance(target, (int, np.integer)) and not 0 <= target < self.class_count:
                    raise ParameterError(
                        f"sample {i} label {target} outside 0..{self.class_count - 1}"
                    )

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class TrainConfig:
    """Epoch-loop parameters; the optimizer travels separately as state."""

    epochs: int
    loss: LossSpec
    surrogate: SurrogateConfig
    batch_size: int = 1
    seed: int = 0
    checkpoint_every: int = 0
    eval_every: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.threads < 1:
            raise ParameterError(
                "epochs must be >= 0, batch_size and threads must be >= 1"
            )
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ParameterError("cadences must be nonnegative")
        require_seed((self.seed,))  # one integer: each epoch's shuffle is seeded [seed, epoch]


@dataclass(frozen=True)
class MetricRow:
    epoch: int
    split: str
    loss: float
    accuracy: float | None

    def as_csv(self) -> str:
        acc = "" if self.accuracy is None else repr(self.accuracy)
        return f"{self.epoch},{self.split},{repr(self.loss)},{acc}"

    def __str__(self) -> str:
        """The split and loss, and the accuracy in count mode, as the CLI prints them."""
        acc = "" if self.accuracy is None else f", accuracy {self.accuracy:.4f}"
        return f"{self.split} loss {self.loss:.6g}{acc}"


METRICS_HEADER = "epoch,split,loss,accuracy"


def classify(s_out: SampledSignal, interval, config: SimConfig) -> int:
    """Class with the highest output spike count in the interval; ties go
    to the lowest index."""
    return int(np.argmax(spike_counts(s_out, interval, config)))


def _sample_pass(net: Network, sample, cfg: TrainConfig, with_grads: bool, out=None):
    """Forward (and optionally backward, into ``out`` if given) one sample.

    Returns (loss, correct_or_None, grads_or_None).
    """
    train, target = sample
    cache = forward(net, train)
    e = output_error(net, cache, cfg.loss, target)
    correct = None
    if cfg.loss.mode == "count":
        correct = classify(cache.spikes[-1], cfg.loss.interval, net.sim) == target
    grads = backward(net, cache, e, cfg.surrogate, out=out) if with_grads else None
    return loss_value(e), correct, grads


def _run_samples(net: Network, samples, cfg: TrainConfig, with_grads: bool, out=None):
    """Yield (loss, correct, grads) per sample in input order.

    With one worker every sample's gradients are written into ``out`` when
    it is given, so each must be consumed before the next is drawn.  A
    thread pool gives each sample its own gradients: workers never share
    a buffer.
    """
    if cfg.threads == 1 or len(samples) <= 1:
        for s in samples:
            yield _sample_pass(net, s, cfg, with_grads, out)
        return
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        yield from pool.map(lambda s: _sample_pass(net, s, cfg, with_grads), samples)


def _metric_row(scores, dataset: Dataset, cfg: TrainConfig, epoch: int, split: str) -> MetricRow:
    """The row of a pass over ``dataset`` from its samples' (loss, correct)
    ``scores``: the mean loss, summed in sample order, and the accuracy in count mode."""
    total_loss, total_correct = 0.0, 0
    for loss, correct in scores:
        total_loss += loss
        total_correct += bool(correct)
    accuracy = total_correct / len(dataset) if cfg.loss.mode == "count" else None
    return MetricRow(epoch, split, total_loss / len(dataset), accuracy)


def train_epoch(
    net: Network,
    dataset: Dataset,
    cfg: TrainConfig,
    optim_state: OptimizerState,
    epoch: int,
) -> MetricRow:
    """One shuffled pass over the dataset with batched averaged updates.

    Each sample's gradients are folded into the batch mean in sample order
    as soon as they exist, so memory holds one mean and one gradient
    buffer (one gradient per in-flight sample with a thread pool).
    """
    if not dataset.samples:
        raise ParameterError("cannot train on an empty dataset")
    order = np.random.default_rng([cfg.seed, epoch]).permutation(len(dataset))
    scores = []
    # The first batch gives each sample new gradient arrays, and later
    # batches write into the last of them.  A buffer allocated up front
    # instead took nmnist_mlp from about 25 k to 250 k minor page faults
    # per epoch and lost about 10 % of its train rate: the freed first-batch
    # arrays leave the heap room for each sample's temporaries, where a
    # tight heap grows and is trimmed again on every sample.
    mean, buffer = Gradients.zeros_like(net), None
    for start in range(0, len(order), cfg.batch_size):
        batch = [dataset.samples[i] for i in order[start : start + cfg.batch_size]]
        for loss, correct, grads in _run_samples(net, batch, cfg, True, buffer):
            scores.append((loss, correct))
            mean.absorb(grads, 1.0 / len(batch))
        buffer = grads
        step(optim_state, net, mean)
        mean.clear()
    return _metric_row(scores, dataset, cfg, epoch, "train")


def evaluate(
    net: Network,
    dataset: Dataset,
    cfg: TrainConfig,
    epoch: int = 0,
    split: str = "eval",
) -> MetricRow:
    """Loss (and accuracy in count mode) without touching parameters."""
    if not dataset.samples:
        raise ParameterError("cannot evaluate an empty dataset")
    passes = _run_samples(net, dataset.samples, cfg, False)
    return _metric_row(((loss, correct) for loss, correct, _ in passes), dataset, cfg, epoch, split)


def write_metrics(path: str | Path, rows, append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, newline="\n") as fh:
        if not append:
            fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(row.as_csv() + "\n")


def train(
    net: Network,
    optim_state: OptimizerState,
    dataset: Dataset,
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    eval_set: Dataset | None = None,
    start_epoch: int = 0,
) -> list:
    """Run epochs start_epoch+1 .. cfg.epochs; returns all metric rows.

    Zero epochs train nothing: the rows are then the untrained network's
    epoch-0 evaluation on ``dataset`` (split "train") and on ``eval_set``
    if given.  With out_dir set, appends rows to metrics.csv as they are
    produced and maintains a rolling checkpoint (always written at the end).
    """
    out = Path(out_dir) if out_dir is not None else None
    rows = []
    if cfg.epochs == 0:
        rows.append(evaluate(net, dataset, cfg, 0, "train"))
        if eval_set is not None:
            rows.append(evaluate(net, eval_set, cfg, 0))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if start_epoch == 0:
            write_metrics(out / "metrics.csv", rows)
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        new_rows = [train_epoch(net, dataset, cfg, optim_state, epoch)]
        if eval_set is not None and cfg.eval_every and epoch % cfg.eval_every == 0:
            new_rows.append(evaluate(net, eval_set, cfg, epoch))
        rows.extend(new_rows)
        if out is not None:
            write_metrics(out / "metrics.csv", new_rows, append=True)
            if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
                save_checkpoint(net, optim_state, out / "checkpoint.slck", epoch)
    if out is not None:
        save_checkpoint(net, optim_state, out / "checkpoint.slck", cfg.epochs)
    return rows


_MAGIC = b"SLCK"
_VERSION = 1
# format v1's two records of six doubles, field by field in file order
_NET_RECORD = ("neuron.theta", "neuron.tau_s", "neuron.tau_r", "sim.ts_ms", "sim.t_ms", "cutoff")
_OPTIM_RECORD = ("learning_rate", "delay_lr_scale", "beta1", "beta2", "gamma", "eps_stab")


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def _pack_array(a: np.ndarray) -> bytes:
    dims = struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
    return dims + np.ascontiguousarray(a, dtype="<f8").tobytes()


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("checkpoint truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        values = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return values[0] if len(values) == 1 else values

    def read_str(self) -> str:
        return self.take(self.unpack("<I")).decode("utf-8")

    def read_record(self, fields, **owners) -> dict:
        """The next record of ``fields`` as keyword arguments; the fields
        "owner.name" go into one ``owners[owner]`` built from them."""
        kwargs, nested = {}, {}
        for path, value in zip(fields, self.unpack("<6d")):
            owner, _, name = path.rpartition(".")
            (nested.setdefault(owner, {}) if owner else kwargs)[name] = value
        kwargs.update({owner: owners[owner](**values) for owner, values in nested.items()})
        return kwargs

    def read_array(self) -> np.ndarray:
        ndim = self.unpack("<I")
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        flat = np.frombuffer(self.take(8 * count), dtype="<f8")
        return flat.reshape(shape).astype(np.float64)


def save_checkpoint(
    net: Network, optim_state: OptimizerState | None, path: str | Path, epoch: int = 0
) -> None:
    """Write network parameters, neuron/grid settings, optimizer moments
    and the epoch counter in one little-endian container.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a failed write leaves any previous checkpoint intact."""
    chunks = [_MAGIC, struct.pack("<H", _VERSION)]
    chunks.append(_pack_str(render_architecture(net.spec)))
    chunks.append(struct.pack("<6d", *attrgetter(*_NET_RECORD)(net)))
    chunks.append(struct.pack("<I", net.n_transitions))
    for params in net.params:
        if params.weights is None:
            chunks.append(struct.pack("<B", 0))
        else:
            chunks.append(struct.pack("<B", 1) + _pack_array(params.weights))
        chunks.append(_pack_array(params.delays))
    if optim_state is None:
        chunks.append(struct.pack("<B", 0))
    else:
        chunks.append(struct.pack("<B", 1))
        chunks.append(_pack_str(optim_state.method))
        chunks.append(struct.pack("<6d", *attrgetter(*_OPTIM_RECORD)(optim_state)))
        chunks.append(struct.pack("<Q", optim_state.step_count))
        buffers = [("m1." + k, v) for k, v in sorted(optim_state.moment1.items())]
        buffers += [("m2." + k, v) for k, v in sorted(optim_state.moment2.items())]
        chunks.append(struct.pack("<I", len(buffers)))
        for name, buf in buffers:
            chunks.append(_pack_str(name) + _pack_array(buf))
    chunks.append(struct.pack("<I", epoch))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path):
    """Rebuild (net, optim_state, epoch) exactly as saved; weights, delays
    and moments must be finite.  Every fault in the bytes, the settings
    they hold included, is a FormatError that names the file."""
    cur = _Cursor(Path(path).read_bytes())
    try:
        return _decode_checkpoint(cur)
    except (SpikeNetError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _decode_checkpoint(cur: _Cursor):
    def finite_array(name: str) -> np.ndarray:
        array = cur.read_array()
        if not np.all(np.isfinite(array)):
            raise FormatError(f"non-finite values in {name}")
        return array

    if cur.take(4) != _MAGIC:
        raise FormatError("not a checkpoint file (bad magic)")
    version = cur.unpack("<H")
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    spec = parse_architecture(cur.read_str())
    constants = cur.read_record(_NET_RECORD, neuron=NeuronConfig, sim=SimConfig)
    n_transitions = cur.unpack("<I")
    if n_transitions != spec.n_transitions:
        raise FormatError("transition count mismatch")
    params = []
    for t in range(n_transitions):
        weights = finite_array(f"weights of transition {t}") if cur.unpack("<B") else None
        params.append(LayerParams(weights, finite_array(f"delays of transition {t}")))
    net = Network(spec, params, **constants)
    optim_state = None
    if cur.unpack("<B"):
        method = cur.read_str()
        optim_state = OptimizerState(method=method, **cur.read_record(_OPTIM_RECORD))
        optim_state.step_count = cur.unpack("<Q")
        # a moment is "m1." or "m2." and the optimizer key of one parameter
        stores = {"m1.": optim_state.moment1, "m2.": optim_state.moment2}
        shapes = {f"{kind}{t}": a.shape for t, p in enumerate(params)
                  for kind, a in (("w", p.weights), ("d", p.delays)) if a is not None}
        for _ in range(cur.unpack("<I")):
            name = cur.read_str()
            store, key = stores.get(name[:3]), name[3:]
            if store is None or key not in shapes:
                raise FormatError(f"optimizer moment {name!r} names no parameter")
            if key in store:
                raise FormatError(f"optimizer moment {name!r} appears twice")
            array = finite_array(f"optimizer moment {name}")
            if array.shape != shapes[key]:
                raise FormatError(
                    f"optimizer moment {name!r} has shape {array.shape}, not {shapes[key]}"
                )
            store[key] = array
    epoch = cur.unpack("<I")
    if extra := len(cur.data) - cur.pos:
        raise FormatError(f"{extra} extra bytes after the epoch counter")
    return net, optim_state, epoch
