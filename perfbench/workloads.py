"""Seeded synthetic inputs and run configurations of the benchmark workloads.

Each workload is written to a directory as `spikenet train` would find it:
INI configs plus event files (and a labels file in count mode).  The same
seed always writes the same files.  Run as a script to write one workload:

    python3 perfbench/workloads.py --workload nmnist_mlp --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

FROZEN_TASKS = 5
FROZEN_CHANNELS = 250
FROZEN_RATE_HZ = 40.0
FROZEN_TARGET_SPIKES = 4

NMNIST_CHANNELS = 34 * 34 * 2
NMNIST_CLASSES = 10
NMNIST_T_MS = 300
NMNIST_RATE_HZ = 20.0
NMNIST_DROP = 0.1  # share of template events each sample drops
NMNIST_JITTER = 1  # bins each kept event may move either way
NMNIST_NOISE_HZ = 2.0  # background events on top of the template

# The [train] seed, which draws the initial network and the shuffling, is
# fixed per workload and task; --seed varies the data only.  Initial
# networks differ far more in firing rate, and so in work, than data do.

# Workload name -> (config files, whether every round retrains from scratch).
# frozen_noise repeats the paper's whole five-task experiment each round;
# the nmnist workloads continue one training run, one epoch per round.
LAYOUT = {
    "frozen_noise": (tuple(f"task{i}.cfg" for i in range(FROZEN_TASKS)), True),
    "nmnist_mlp": (("run.cfg",), False),
    "nmnist_cnn": (("run.cfg",), False),
}

_FROZEN_CFG = """\
[network]
architecture = 250-25-1
gain = 40

[simulation]
t_ms = 50
ts_ms = 1

[neuron]
theta = 10
tau_s = 2
tau_r = 1

[surrogate]
alpha = 10
beta = 0.1

[optimizer]
method = adam
learning_rate = 0.03
delay_lr_scale = 1.0

[loss]
mode = precise

[data]
inputs = task{task}_inputs.csv
targets = task{task}_targets.csv

[train]
epochs = 300
batch_size = 1
seed = {seed}
eval_every = 1
threads = 1
"""

_NMNIST_CFG = """\
[network]
architecture = {architecture}
gain = {gain}

[simulation]
t_ms = 300
ts_ms = 1

[neuron]
theta = {theta}
tau_s = 2
tau_r = 1

[surrogate]
alpha = 10

[optimizer]
method = adam
learning_rate = 0.003

[loss]
mode = count
true_count = 60
false_count = 20
interval = 0, 300

[data]
inputs = train.slyr
labels = train_labels.txt
eval_inputs = eval.slyr
eval_labels = eval_labels.txt
classes = 10

[train]
epochs = 100
batch_size = {batch}
seed = 0
eval_every = 1
threads = 1
"""

# Architecture, init gain, threshold, batch, train and held-out sample counts.
# The gains and thresholds keep every layer firing; the cnn trains on fewer
# samples because one of its epochs costs five times an mlp epoch per sample.
NMNIST = {
    "nmnist_mlp": ("34x34x2-500-500-10", 40, 10, 8, 32, 16),
    "nmnist_cnn": ("34x34x2-8c3-2a-16c3-2a-10", 32, 5, 4, 8, 4),
}


def _spikenet():
    sys.path.insert(0, str(SRC))
    import spikenet

    return spikenet


def frozen_target_bins(rng) -> np.ndarray:
    """Four distinct target bins in [8, 45], at least six bins apart."""
    while True:
        bins = np.sort(rng.choice(np.arange(8, 46), FROZEN_TARGET_SPIKES, replace=False))
        if np.all(np.diff(bins) >= 6):
            return bins


def write_frozen_noise(out: Path, seed: int) -> None:
    sn = _spikenet()
    sim = sn.SimConfig(t_ms=50.0, ts_ms=1.0)
    for task in range(FROZEN_TASKS):
        rng = np.random.default_rng([seed, task])
        x = sn.poisson_spike_train(FROZEN_CHANNELS, FROZEN_RATE_HZ, sim, int(rng.integers(2**31)))
        bins = frozen_target_bins(rng)
        y = sn.SpikeTrain(1, tuple((0, sim.bin_center(int(b))) for b in bins))
        sn.write_events(out / f"task{task}_inputs.csv", sn.SpikeTrainSet(FROZEN_CHANNELS, (x,)))
        sn.write_events(out / f"task{task}_targets.csv", sn.SpikeTrainSet(1, (y,)))
        text = _FROZEN_CFG.format(task=task, seed=task)
        (out / f"task{task}.cfg").write_text(text)


def nmnist_events(seed: int, n_train: int, n_eval: int):
    """(bins, label) pairs of a learnable NMNIST-shaped set: ten class
    templates of ~20 Hz Poisson events, each sample a jittered copy of its
    class template with dropped events and background noise."""
    rng = np.random.default_rng([seed, 0])
    p_template = NMNIST_RATE_HZ * 1e-3 / (1.0 - NMNIST_DROP)
    shape = (NMNIST_CHANNELS, NMNIST_T_MS)
    templates = [np.argwhere(rng.random(shape) < p_template) for _ in range(NMNIST_CLASSES)]
    splits = []
    for count in (n_train, n_eval):
        labels = rng.permutation(np.arange(count) % NMNIST_CLASSES)
        samples = []
        for label in labels:
            events = templates[label][rng.random(len(templates[label])) >= NMNIST_DROP]
            shift = rng.integers(-NMNIST_JITTER, NMNIST_JITTER + 1, len(events))
            events[:, 1] = np.clip(events[:, 1] + shift, 0, NMNIST_T_MS - 1)
            noise = np.argwhere(rng.random(shape) < NMNIST_NOISE_HZ * 1e-3)
            samples.append((np.unique(np.concatenate([events, noise]), axis=0), int(label)))
        splits.append(samples)
    return splits


def write_nmnist(out: Path, seed: int, workload: str) -> None:
    sn = _spikenet()
    architecture, gain, theta, batch, n_train, n_eval = NMNIST[workload]
    for split, samples in zip(("train", "eval"), nmnist_events(seed, n_train, n_eval)):
        trains = tuple(
            sn.SpikeTrain(NMNIST_CHANNELS, tuple((int(c), b + 0.5) for c, b in events))
            for events, _ in samples
        )
        sn.write_events(out / f"{split}.slyr", sn.SpikeTrainSet(NMNIST_CHANNELS, trains))
        (out / f"{split}_labels.txt").write_text("".join(f"{label}\n" for _, label in samples))
    text = _NMNIST_CFG.format(architecture=architecture, gain=gain, theta=theta, batch=batch)
    (out / "run.cfg").write_text(text)


def write_workload(name: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if name == "frozen_noise":
        write_frozen_noise(out, seed)
    else:
        write_nmnist(out, seed, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAYOUT))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
