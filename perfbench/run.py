"""End-to-end and per-layer benchmark of spikenet training.

    python3 perfbench/run.py --workload nmnist_mlp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  A
run writes the workload's configs and event files (seeded by --seed), then
does what `spikenet train` does: set-up (load_config, load_dataset,
build_network, build_optimizer, kernels), repeated and timed, then rounds
of timed train epochs and eval passes until --seconds have passed, then
correctness checks.  The last line of stdout is a JSON result; the rates
are the run's totals, samples over timed seconds of all its rounds.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced rounds and reports per-layer metrics per
sample pass (set-up metrics per set-up), the tracer's overhead and how
much of the traced wall time the self times cover.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread keeps the load on one core; a second made nmnist_mlp
# about 4 % faster, less than run-to-run drift.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import copy
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 2
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
FROZEN_MIN_TASKS_HIT = 4
# soft_spike's second derivative jumps at theta; at a step of 1e-5 that
# cost a trained nmnist_mlp 1e-4 of relative error, at 1e-6 it cost 5e-9.
GRADCHECK_H = 1e-6
GRADCHECK_TOL = 1e-4
REFERENCE_SAMPLES = 2

END_TO_END_UNITS = {
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """One `spikenet train` invocation: config, data, network, optimizer."""

    rc: object
    cfg: object
    train_set: object
    eval_set: object
    net: object
    opt: object

    def splits(self):
        """What an eval pass covers: the train split and any held-out split."""
        yield "train", self.train_set
        if self.eval_set is not None:
            yield "eval", self.eval_set


@dataclass
class Round:
    train_s: float = 0.0
    train_n: int = 0
    eval_s: float = 0.0
    eval_n: int = 0
    traced: bool = False
    losses: list = field(default_factory=list)  # train loss per (run, epoch)


def set_up(runconfig, config_paths) -> list:
    runs = []
    for path in config_paths:
        rc = runconfig.load_config(path)
        train_set = rc.load_dataset("train")
        eval_set = rc.load_dataset("eval")
        net = rc.build_network()
        opt = rc.build_optimizer()
        for kernel in ("epsilon", "nu", "epsilon_dot"):
            getattr(net, kernel)
        runs.append(Run(rc, rc.train_config(), train_set, eval_set, net, opt))
    return runs


def timed_set_ups(runconfig, config_paths, tracer):
    """Set up at least SETUP_MIN_REPEATS times and SETUP_MIN_S seconds;
    return the last runs and every set-up time."""
    times, runs = [], None
    if tracer is not None:
        tracer.enabled = True
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        runs = None  # drop the previous set-up before measuring the next
        start = time.perf_counter()
        runs = set_up(runconfig, config_paths)
        times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.enabled = False
    return runs, times


def target_bins(train, ts_ms):
    return sorted(int(time // ts_ms) for _, time in train.events)


def measure(sn, runs, retrain, seconds, tracer, hits):
    """Rounds of timed train epochs and eval passes until `seconds` passed.

    A retrain round trains every run from its initial network for the
    configured epochs; otherwise a round is the next epoch of each run.
    In round 0 of a retrain workload, every epoch's output raster is
    compared with the target and the first matching epoch goes in `hits`.
    """
    trainer = importlib.import_module("spikenet.trainer")
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rnd = Round(traced=tracer is not None and len(rounds) % 2 == 1)
        for i, run in enumerate(runs):
            if retrain:
                run.net, run.opt = run.rc.build_network(), run.rc.build_optimizer()
                epochs = range(1, run.cfg.epochs + 1)
            else:
                epochs = [len(rounds) + 1]
            for epoch in epochs:
                if tracer is not None:
                    tracer.enabled = rnd.traced
                t0 = time.perf_counter()
                row = trainer.train_epoch(run.net, run.train_set, run.cfg, run.opt, epoch)
                t1 = time.perf_counter()
                for split, data in run.splits():
                    trainer.evaluate(run.net, data, run.cfg, epoch, split)
                t2 = time.perf_counter()
                if tracer is not None:
                    tracer.enabled = False
                rnd.train_s += t1 - t0
                rnd.eval_s += t2 - t1
                rnd.train_n += len(run.train_set)
                rnd.eval_n += sum(len(data) for _, data in run.splits())
                rnd.losses.append(row.loss)
                if retrain and not rounds and i not in hits:
                    x, target = run.train_set.samples[0]
                    out = sn.forward(run.net, x).spikes[-1].values[0]
                    got = [int(b) for b in out.nonzero()[0]]
                    want = target_bins(target, run.net.sim.ts_ms)
                    if len(got) == len(want) and all(abs(g - w) <= 1 for g, w in zip(got, want)):
                        hits[i] = epoch
        rounds.append(rnd)
    return rounds


def gradient_check(sn, net, x, target, surrogate, seed) -> str | None:
    """Central difference of the soft-mode precise loss along a random
    direction against backward's gradient, at fractional delays."""
    rng = np.random.default_rng(seed)
    net = copy.deepcopy(net)
    ts = net.sim.ts_ms
    for params in net.params:
        params.delays[:] = rng.uniform(0.2, 0.8, params.delays.shape) * ts
    direction = [
        (
            None if p.weights is None else rng.standard_normal(p.weights.shape),
            rng.standard_normal(p.delays.shape),
        )
        for p in net.params
    ]
    spec = sn.LossSpec("precise")
    cache = sn.soft_forward(net, x, surrogate)
    grads = sn.backward(net, cache, sn.output_error(net, cache, spec, target=target), surrogate)
    analytic = 0.0
    for t, (dw, dd) in enumerate(direction):
        if dw is not None:
            analytic += float((grads.weights[t] * dw).sum())
        analytic += float((grads.delays[t] * dd).sum())

    def shifted(step):
        for p, (dw, dd) in zip(net.params, direction):
            if dw is not None:
                p.weights += step * dw
            p.delays += step * dd
        return sn.soft_loss(net, x, spec, surrogate, target=target)

    up = shifted(GRADCHECK_H)
    down = shifted(-2.0 * GRADCHECK_H)
    numeric = (up - down) / (2.0 * GRADCHECK_H)
    error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)
    if not error < GRADCHECK_TOL:
        return f"gradient check: backward {analytic!r} vs central difference {numeric!r}"
    return None


def firing_rates_hz(cache, sim) -> list:
    """Mean firing rate of each layer of one forward pass, input first."""
    seconds = sim.t_ms / 1e3
    return [float(s.values.sum()) * sim.ts_ms / s.channels / seconds for s in cache.spikes]


def check(sn, workload, runs, rounds, hits, seed):
    """Correctness of the outputs, as a list of failure messages, and the
    trained networks' mean firing rate per layer."""
    problems, caches = [], []
    reference = importlib.import_module("reference")
    if workload == "frozen_noise":
        if len(hits) < FROZEN_MIN_TASKS_HIT:
            problems.append(f"frozen_noise: only tasks {sorted(hits)} reproduced their target")
        first = rounds[0].losses
        if any(r.losses != first for r in rounds[1:]):
            problems.append("frozen_noise: a repeated round gave other losses")
        epochs = runs[0].cfg.epochs
        start = statistics.fmean(first[::epochs])
        end = statistics.fmean(first[epochs - 1 :: epochs])
        caches = [sn.forward(r.net, r.train_set.samples[0][0]) for r in runs]
        run = runs[-1]
        x, target = run.train_set.samples[0]
    else:
        start, end = rounds[0].losses[0], rounds[-1].losses[0]
        run = runs[0]
        for x, _ in run.eval_set.samples[:REFERENCE_SAMPLES]:
            cache = sn.forward(run.net, x)
            caches.append(cache)
            problems += [f"{workload}: {p}" for p in reference.compare_forward(run.net, x, cache)]
            silent = [l for l, s in enumerate(cache.spikes[1:], 1) if not s.values.any()]
            if silent:
                problems.append(f"{workload}: layers {silent} silent on a held-out sample")
        x = run.eval_set.samples[0][0]
        target = sn.poisson_spike_train(run.net.layer_sizes[-1], 30.0, run.net.sim, seed)
    if not end < start:
        problems.append(f"{workload}: mean training loss {start!r} -> {end!r} did not fall")
    message = gradient_check(sn, run.net, x, target, run.cfg.surrogate, seed)
    if message:
        problems.append(f"{workload}: {message}")
    rates = [statistics.fmean(r) for r in zip(*(firing_rates_hz(c, run.net.sim) for c in caches))]
    return problems, rates


def layer_metrics(tracer, setup_totals, setups, rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    passes = sum(r.train_n + r.eval_n for r in traced)
    wall_ns = sum(r.train_s + r.eval_s for r in traced) * 1e9
    self_ns, calls, counts = tracer.self_ns, tracer.calls, tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("runconfig.load.ms", setup_totals["runconfig.load"] / 1e6 / setups, "ms")
    put("signals.read_events.ms", setup_totals["signals.read_events"] / 1e6 / setups, "ms")
    put("signals.read_events.events", setup_totals["events"] / setups, "count")
    counted = ("signals.bin", "signals.wrap", "kernels.convolve", "kernels.correlate", "optim.step")
    for layer in counted:
        put(layer + ".ms", self_ns[layer] / 1e6 / passes, "ms")
        put(layer + ".calls", calls[layer] / passes, "count")
    put("signals.wrap.mb", counts["signals.wrap.mb"] / passes, "MB")
    for layer in ("kernels.convolve", "kernels.correlate"):
        put(layer + ".mmac", counts[layer + ".mmac"] / passes, "Mmac")
        put(layer + ".density", counts[layer + ".nonzero"] / counts[layer + ".elements"], "share")
    for layer in ("topology.apply_linear", "topology.adjoint_linear"):
        put(layer + ".ms", self_ns[layer] / 1e6 / passes, "ms")
        put(layer + ".mmac", counts[layer + ".mmac"] / passes, "Mmac")
    put("forward.threshold.ms", self_ns["forward.threshold"] / 1e6 / passes, "ms")
    put("forward.threshold.bins", counts["forward.threshold.bins"] / passes, "count")
    put(
        "forward.threshold.active_share",
        counts["forward.threshold.active"] / counts["forward.threshold.bins"],
        "share",
    )
    for layer in (
        "losses.error",
        "backprop.delta",
        "backprop.weight_gradient",
        "backprop.delay_gradient",
        "backprop.backward",
        "trainer",
    ):
        put(layer + ".ms", self_ns[layer] / 1e6 / passes, "ms")
    # the tracer's own measured bookkeeping is not program time
    put("trace.coverage", sum(self_ns.values()) / (wall_ns - tracer.bookkeeping_ns), "share")
    untraced = [(r.train_s + r.eval_s) / (r.train_n + r.eval_n) for r in rounds if not r.traced]
    per_pass = [(r.train_s + r.eval_s) / (r.train_n + r.eval_n) for r in traced]
    put("trace.overhead", statistics.median(per_pass) / statistics.median(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spikenet training benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "spikenet" / "__init__.py").is_file():
        print(f"perfbench: no spikenet sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.LAYOUT:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.LAYOUT)}")
    config_names, retrain = workloads.LAYOUT[args.workload]

    import spikenet as sn

    runconfig = importlib.import_module("spikenet.runconfig")
    tracer = None
    if args.trace:
        tracer = importlib.import_module("tracer").Tracer().install()

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    marks = [time.perf_counter()]  # phase boundaries
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True,
            timeout=150,
        )
        marks.append(time.perf_counter())
        paths = [work / name for name in config_names]
        runs, setup_times = timed_set_ups(runconfig, paths, tracer)
        marks.append(time.perf_counter())
        setup_totals = None
        if tracer is not None:
            setup_totals = dict(tracer.self_ns, events=tracer.counts["signals.read_events.events"])
            tracer.reset()
        hits = {}
        rounds = measure(sn, runs, retrain, args.seconds, tracer, hits)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        marks.append(time.perf_counter())
        problems, rates = check(sn, args.workload, runs, rounds, hits, args.seed)
        marks.append(time.perf_counter())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = {
            "train_samples_per_s": sum(r.train_n for r in rounds) / sum(r.train_s for r in rounds),
            "eval_samples_per_s": sum(r.eval_n for r in rounds) / sum(r.eval_s for r in rounds),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics = layer_metrics(tracer, setup_totals, len(setup_times), rounds)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.train_n + r.eval_n for r in rounds),
        "failed": 0,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        frozen_tasks_hit=hits,
        firing_rates_hz=rates,
        rounds=[vars(r) | {"losses": r.losses[:3]} for r in rounds],
        setup_times=setup_times,
        phase_seconds=dict(zip(("generate", "set_up", "measure", "check"), np.diff(marks))),
        machine=platform.machine(),
        python=platform.python_version(),
        numpy=np.__version__,
        blas_threads={var: os.environ[var] for var in BLAS_THREAD_VARS},
        cpus=os.cpu_count(),
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.csv")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
