"""Command-line entry point.

Commands: train, eval, simulate, gradcheck, gen-poisson.  Every command
is deterministic given its configuration and seed.  Failures print one
line "ERROR <code>: ..." to stderr and exit nonzero (2 for files that
are missing or cannot be read, 1 for everything else).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .backprop import backward, finite_diff_gradients
from .errors import ConfigError, ParameterError, SpikeNetError, require_positive
from .forward import forward
from .losses import output_error
from .runconfig import RunConfig, load_config
from .signals import (
    SimConfig,
    SpikeTrain,
    SpikeTrainSet,
    event_bins,
    poisson_spike_train,
    read_events,
    write_events,
)
from .topology import render_architecture
from .trainer import evaluate, load_checkpoint, train

_CONFIG_REFERENCE = """\
configuration file sections and keys (defaults in parentheses):
  [network]    architecture (required), gain (10*theta), cutoff (1e-6)
  [simulation] t_ms (required), ts_ms (required)
  [neuron]     theta (10), tau_s (1), tau_r (1)
  [surrogate]  alpha (10), beta (5/theta)
  [optimizer]  method (adam; sgd|rmsprop|adam|nadam),
               learning_rate (0.001; sgd 0.01), delay_lr_scale (0.1),
               beta1 (0.9), beta2 (0.999), gamma (0.9), eps_stab (1e-8)
  [loss]       mode (precise; precise|count), true_count, false_count,
               interval (0,t_ms)
  [data]       inputs, targets (precise) or labels (count), classes,
               eval_inputs, eval_targets, eval_labels
  [train]      epochs (100), batch_size (1), seed (0),
               checkpoint_every (0 = final only), eval_every (0 = never),
               threads (1)
  [output]     dir (runs)
"""


_OVERRIDES = {
    "seed": dict(type=int, help="override [train] seed"),
    "threads": dict(type=int, help="override [train] threads"),
    "out": dict(help="override [output] dir"),
}


def _add_config(sub, *overrides) -> None:
    """--config and the named overrides of its values, which default to None."""
    sub.add_argument("--config", required=True, help="configuration file path")
    for name in overrides:
        sub.add_argument("--" + name, **_OVERRIDES[name])


def cmd_train(args) -> int:
    rc = load_config(args.config)
    cfg = rc.train_config(epochs=args.epochs, seed=args.seed, threads=args.threads)
    net = rc.build_network(cfg.seed)
    optim_state = rc.build_optimizer()
    train_set = rc.load_dataset("train")
    if train_set is None:
        raise ConfigError(f"{rc.path}: no 'inputs' key in [data]; nothing to train on")
    eval_set = rc.load_dataset("eval")
    out = Path(args.out) if args.out else rc.out_dir
    rows = train(net, optim_state, train_set, cfg, out_dir=out, eval_set=eval_set)
    _write_report(out / "report.txt", rc, cfg.epochs, rows)
    print(f"trained {cfg.epochs} epochs; final {rows[-1]}")
    print(f"metrics: {out / 'metrics.csv'}; checkpoint: {out / 'checkpoint.slck'}")
    return 0


def _write_report(path: Path, rc: RunConfig, epochs: int, rows) -> None:
    lines = [
        f"architecture: {rc.architecture}",
        f"epochs: {epochs}",
        f"loss mode: {rc.train.loss.mode}",
        f"optimizer: {rc.optimizer.method}",
    ]
    for split in ("train", "eval"):
        last = next((r for r in reversed(rows) if r.split == split), None)
        if last is not None:
            lines.append(f"final {split} loss: {last.loss!r}")
            if last.accuracy is not None:
                lines.append(f"final {split} accuracy: {last.accuracy!r}")
    path.write_text("\n".join(lines) + "\n")


def _load_matching_checkpoint(args, rc: RunConfig):
    """(net, epoch) of --checkpoint, whose architecture, [simulation],
    [neuron] and cutoff must equal the config's."""
    net, _, epoch = load_checkpoint(args.checkpoint)
    architectures = render_architecture(net.spec), render_architecture(rc.spec)
    fields = [("network", "architecture", *architectures)]
    sections = ("simulation", net.sim, rc.sim), ("neuron", net.neuron, rc.neuron)
    for section, held, given in sections:
        fields += [(section, key, value, getattr(given, key)) for key, value in vars(held).items()]
    fields.append(("network", "cutoff", net.cutoff, rc.cutoff))
    for section, key, held, given in fields:
        if held != given:
            raise ConfigError(
                f"{args.config}: [{section}] {key} = {given}, but checkpoint "
                f"{args.checkpoint} holds {held}"
            )
    return net, epoch


def cmd_eval(args) -> int:
    rc = load_config(args.config)
    net, epoch = _load_matching_checkpoint(args, rc)
    cfg = rc.train_config(threads=args.threads)
    dataset = rc.load_dataset("eval")
    if dataset is None:
        dataset = rc.load_dataset("train")
    if dataset is None:
        raise ConfigError(f"{rc.path}: no eval_inputs or inputs in [data]; nothing to evaluate")
    row = evaluate(net, dataset, cfg, epoch=epoch)
    print(f"{row} ({len(dataset)} samples, epoch {epoch})")
    return 0


def cmd_simulate(args) -> int:
    rc = load_config(args.config)
    if args.checkpoint:
        net, _ = _load_matching_checkpoint(args, rc)
    else:
        net = rc.build_network(rc.train_config(seed=args.seed).seed)
    sset = read_events(args.input, neuron_count=net.layer_sizes[0])
    out = Path(args.out) if args.out else rc.out_dir

    for i, train_in in enumerate(sset.trains):
        sample_dir = out if len(sset.trains) == 1 else out / f"sample{i:04d}"
        sample_dir.mkdir(parents=True, exist_ok=True)
        cache = forward(net, train_in)
        # every input event, same-bin ones included, then the spikes found
        layer_events = [event_bins(train_in, net.sim)] + [s.events for s in cache.spikes[1:]]
        for layer, (count, events) in enumerate(zip(net.layer_sizes, layer_events)):
            neurons, bins = np.divmod(events, net.sim.n_samples)
            raster = SpikeTrain(count, np.column_stack((neurons, net.sim.bin_center(bins))))
            write_events(sample_dir / f"raster_layer{layer}.csv", SpikeTrainSet(count, (raster,)))
        if args.traces:
            for layer, u in enumerate(cache.potentials):
                if u is None:
                    continue
                np.savetxt(sample_dir / f"potential_layer{layer}.csv", u.values, delimiter=",")
    print(f"simulated {len(sset.trains)} sample(s) into {out}")
    return 0


def cmd_gradcheck(args) -> int:
    require_positive(h=args.h, tol=args.tol)
    rc = load_config(args.config)
    seed = rc.train_config(seed=args.seed).seed
    net = rc.build_network(seed)
    rng = np.random.default_rng([seed, 1])
    # fractional delays keep finite differences away from the kernel's
    # non-smooth point at the bin boundaries
    for params in net.params:
        params.delays[:] = rng.uniform(0.1, 1.9, size=params.delays.shape)
    spikes_in = poisson_spike_train(net.layer_sizes[0], args.rate, net.sim, seed=[seed, 2])
    loss, classes = rc.train.loss, net.layer_sizes[-1]
    if loss.mode == "count":
        target = int(rng.integers(classes))
    else:
        target = poisson_spike_train(classes, args.target_rate, net.sim, seed=[seed, 3])
    cache = forward(net, spikes_in, rc.train.surrogate)
    e = output_error(net, cache, loss, target)
    analytic = backward(net, cache, e, rc.train.surrogate)
    fd = finite_diff_gradients(net, spikes_in, loss, rc.train.surrogate, h=args.h, target=target)
    floor = 1e-8  # relative errors are taken against at least this magnitude
    worst = largest = 0.0
    failed = False
    for t in range(net.n_transitions):
        groups = []
        if analytic.weights[t] is not None:
            groups.append(("weights", analytic.weights[t], fd.weights[t]))
        groups.append(("delays ", analytic.delays[t], fd.delays[t]))
        for name, got, ref in groups:
            rel = np.abs(got - ref) / np.maximum(np.abs(ref), floor)
            err = float(rel.max())
            worst = max(worst, err)
            largest = max(largest, float(np.abs(ref).max()))
            verdict = "PASS" if err <= args.tol else "FAIL"
            failed = failed or err > args.tol
            print(f"transition {t} {name}: max rel err {err:.3e} {verdict}")
    if largest < floor:
        why = f"the largest finite difference, {largest:.3e}, is below {floor:g}"
        print(f"ERROR 1: gradient check compared nothing: {why}", file=sys.stderr)
        return 1
    if failed:
        print(f"ERROR 1: gradient check failed (worst {worst:.3e} > {args.tol:g})", file=sys.stderr)
        return 1
    print(f"gradient check passed (worst {worst:.3e} <= {args.tol:g})")
    return 0


def cmd_gen_poisson(args) -> int:
    if args.count < 1:
        raise ParameterError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    config = SimConfig(t_ms=args.t_ms, ts_ms=args.ts_ms)
    out = Path(args.out)
    single_file = args.count == 1 and out.suffix.lower() in (".csv", ".slyr")
    # every train is drawn, and so validated, before anything is written
    trains = [
        poisson_spike_train(args.channels, args.rate, config, seed=[args.seed, i])
        for i in range(args.count)
    ]
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, train in enumerate(trains):
        path = out if single_file else out / f"poisson{i:04d}.csv"
        write_events(path, SpikeTrainSet(train.neuron_count, (train,)))
        written.append(path)
    print(f"wrote {len(written)} spike train file(s) under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikenet",
        description="Spiking-network simulation and training with learnable "
        "weights and axonal delays.",
        epilog=_CONFIG_REFERENCE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a network per the config file")
    _add_config(p, "seed", "threads", "out")
    p.add_argument("--epochs", type=int, default=None, help="override [train] epochs")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_config(p, "threads")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("simulate", help="forward-simulate inputs, dump rasters")
    _add_config(p, "seed", "out")
    p.add_argument("--input", required=True, help="event file with input trains")
    p.add_argument("--checkpoint", default=None, help="optional checkpoint to load")
    p.add_argument("--traces", action="store_true", help="also dump potential traces")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("gradcheck", help="verify gradients against finite differences")
    _add_config(p, "seed")
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tol", type=float, default=1e-4, help="max relative error allowed")
    p.add_argument("--rate", type=float, default=100.0, help="input Poisson rate (Hz)")
    p.add_argument("--target-rate", type=float, default=50.0, help="precise-loss target rate (Hz)")
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("gen-poisson", help="generate Poisson spike train files")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--rate", type=float, required=True, help="rate per channel (Hz)")
    p.add_argument("--t-ms", type=float, required=True)
    p.add_argument("--ts-ms", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1, help="number of files")
    p.add_argument(
        "--out",
        required=True,
        help="output file (.csv/.slyr, count=1) or directory",
    )
    p.set_defaults(func=cmd_gen_poisson)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2
    except SpikeNetError as exc:
        print(f"ERROR 1: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
