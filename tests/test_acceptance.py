"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so a full run reads as a checklist.
The configurations here are deliberately concrete: fixed seeds, fixed
grids, and explicit hyperparameters known to be numerically honest.
"""

import time

import numpy as np
import pytest

from conftest import ref_epsilon, ref_epsilon_dot, ref_nu, staircase_train, well_conditioned_net
from spikenet import (
    Dataset,
    LossSpec,
    NeuronConfig,
    OptimizerState,
    SampledSignal,
    SimConfig,
    SpikeTrain,
    SurrogateConfig,
    TrainConfig,
    adjoint_linear,
    apply_linear,
    backward,
    evaluate,
    finite_diff_gradients,
    forward,
    init_network,
    load_checkpoint,
    make_epsilon,
    make_epsilon_dot,
    make_nu,
    parse_architecture,
    poisson_spike_train,
    save_checkpoint,
    soft_forward,
    train,
    train_epoch,
)
from spikenet.backprop import output_error
from spikenet.errors import ParseError
from spikenet.kernels import convolve_values, correlate_values


def _report(index, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {index} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _clean_target(sim, seed, n_spikes=4, min_isi=6):
    """Target train whose inter-spike gaps respect the refractory period."""
    rng = np.random.default_rng([seed, 99])
    candidates = np.arange(3, sim.n_samples - 1)
    bins = []
    while len(bins) < n_spikes:
        b = int(rng.choice(candidates))
        if all(abs(b - other) >= min_isi for other in bins):
            bins.append(b)
    bins.sort()
    return SpikeTrain(1, tuple((0, sim.bin_center(b)) for b in bins))


def test_criterion_1_single_neuron_spike_timing():
    """A 250-25-1 net learns to reproduce a clean target train from one
    frozen Poisson input: loss below 1% of its initial value and every
    output spike within one bin of its target."""
    sim = SimConfig(50.0, 1.0)
    neuron = NeuronConfig(10.0, 2.0, 1.0)
    spec = parse_architecture("250-25-1")
    surrogate = SurrogateConfig(alpha=10.0, beta=0.05)
    loss_spec = LossSpec("precise")
    hits, details = 0, []
    for seed in range(5):
        t0 = time.monotonic()
        net = init_network(spec, neuron, sim, seed=seed)
        x = poisson_spike_train(250, 40.0, sim, [seed, 1])
        target = _clean_target(sim, seed)
        target_bins = np.array(sorted(sim.bin_of(t) for _, t in target.events))
        data = Dataset([(x, target)])
        state = OptimizerState.adam(learning_rate=0.03)
        cfg = TrainConfig(1, loss_spec, surrogate, seed=seed)
        initial = evaluate(net, data, cfg, split="train").loss
        hit = None
        for epoch in range(1, 2001):
            train_epoch(net, data, cfg, state, epoch)
            row = evaluate(net, data, cfg, epoch=epoch, split="train")
            if row.loss < 0.01 * initial:
                out = forward(net, x).spikes[-1].values[0]
                out_bins = np.nonzero(out)[0]
                if len(out_bins) == len(target_bins) and np.all(
                    np.abs(out_bins - target_bins) <= 1
                ):
                    hit = epoch
                    break
        elapsed = time.monotonic() - t0
        assert elapsed <= 300.0
        if hit is not None:
            hits += 1
            details.append(f"seed {seed}: epoch {hit} [{elapsed:.1f}s]")
        else:
            details.append(f"seed {seed}: no convergence [{elapsed:.1f}s]")
    _report(1, "spike timing learned from frozen noise", hits >= 4,
            f"{hits}/5 seeds; " + "; ".join(details))


def test_criterion_2_gradients_match_finite_differences():
    """All weight and delay gradients of the softened 4-6-3 network agree
    with central differences to 1e-4 relative."""
    t0 = time.monotonic()
    surrogate = SurrogateConfig(alpha=10.0, beta=0.5)
    spec = LossSpec("precise")
    worst = 0.0
    for seed in range(3):
        net = well_conditioned_net(seed)
        spikes = poisson_spike_train(4, 150.0, net.sim, [seed, 1])
        target = poisson_spike_train(3, 80.0, net.sim, [seed, 2])
        cache = soft_forward(net, spikes, surrogate)
        e_out = output_error(net, cache, spec, target=target)
        got = backward(net, cache, e_out, surrogate)
        fd = finite_diff_gradients(net, spikes, spec, surrogate, h=1e-5, target=target)
        for t in range(net.n_transitions):
            for g, f in ((got.weights[t], fd.weights[t]), (got.delays[t], fd.delays[t])):
                rel = np.abs(g - f) / np.maximum(np.abs(f), 1e-8)
                worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(2, "analytic gradients vs finite differences", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_adjointness():
    """<K x, y> == <x, K* y> for the kernel operators and for every layer
    map, across 100 random instances each."""
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(2024)
    # kernel convolve / correlate pairs
    for _ in range(100):
        tau_s = float(rng.uniform(0.5, 4.0))
        ts = float(rng.choice([1.0, 0.5]))
        ch = int(rng.integers(1, 6))
        n = int(rng.integers(10, 60))
        eps = make_epsilon(NeuronConfig(5.0, tau_s, 1.0), ts)
        x = rng.normal(size=(ch, n))
        y = rng.normal(size=(ch, n))
        delays = rng.uniform(0.0, 3.0, size=ch)
        lhs = float(np.sum(convolve_values(x, eps, delays) * y))
        rhs = float(np.sum(x * correlate_values(y, eps, delays)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    # layer maps: dense, conv, aggregate
    arches = {"dense": "9-5-3", "conv": "6x6x2-3c3-2", "aggregate": "6x6x2-3a-2"}
    neuron, sim = NeuronConfig(10.0, 2.0, 1.0), SimConfig(8.0, 1.0)
    for kind, arch in arches.items():
        net = init_network(parse_architecture(arch), neuron, sim, seed=1)
        for i in range(100):
            t = int(rng.integers(0, net.n_transitions)) if kind == "dense" else 0
            a = SampledSignal(rng.normal(size=(net.layer_sizes[t], 8)), 1.0)
            d = SampledSignal(rng.normal(size=(net.layer_sizes[t + 1], 8)), 1.0)
            lhs = float(np.sum(apply_linear(net, t, a) * d.values))
            rhs = float(np.sum(a.values * adjoint_linear(net, t, d).values))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(3, "linear maps and kernel operators are exact adjoints", ok,
            f"worst rel mismatch {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_kernel_values_and_derivative():
    """Sampled kernels equal their closed forms to 1e-12, and the sampled
    derivative kernel converges against central differences at O(Ts^2)."""
    t0 = time.monotonic()
    worst = 0.0
    for tau_s, tau_r, theta, ts in [(2.0, 1.0, 10.0, 1.0), (3.0, 7.0, 4.0, 0.5)]:
        cfg = (NeuronConfig(theta, tau_s, tau_r), ts)
        for kernel, ref in [
            (make_epsilon(*cfg), lambda t: ref_epsilon(t, tau_s)),
            (make_nu(*cfg), lambda t: ref_nu(t, theta, tau_r)),
            (make_epsilon_dot(*cfg), lambda t: ref_epsilon_dot(t, tau_s)),
        ]:
            grid = np.arange(len(kernel.samples)) * ts
            want = np.array([ref(t) for t in grid])
            worst = max(worst, float(np.max(np.abs(kernel.samples - want))))
    errs = []
    for ts in (0.1, 0.05):
        cfg = (NeuronConfig(10.0, 2.0, 1.0), ts)
        eps, dot = make_epsilon(*cfg), make_epsilon_dot(*cfg)
        n = np.arange(int(1.0 / ts), int(10.0 / ts))
        fd = (eps.samples[n + 1] - eps.samples[n - 1]) / (2.0 * ts)
        errs.append(float(np.max(np.abs(fd - dot.samples[n]))))
    ratio = errs[0] / errs[1]
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and 3.0 < ratio < 5.5 and elapsed < 1.0
    _report(4, "kernel closed forms and derivative convergence", ok,
            f"worst abs err {worst:.1e}, halving ratio {ratio:.2f}, {elapsed:.1f}s")


def _jittered_task(seed, channels=50, classes=5, n_train=100, n_test=50):
    """Five Poisson templates; samples are per-event Gaussian jitters."""
    sim = SimConfig(50.0, 1.0)
    templates = [
        poisson_spike_train(channels, 30.0, sim, [seed, 7, c]) for c in range(classes)
    ]

    def jitter(c, i):
        rng = np.random.default_rng([seed, 11, c, i])
        events = []
        for neuron_idx, t in templates[c].events:
            t2 = float(np.clip(t + rng.normal() * 1.0, 0.0, sim.t_ms - 1e-6))
            events.append((neuron_idx, t2))
        return SpikeTrain(channels, tuple(events))

    train_samples = [(jitter(i % classes, i), i % classes) for i in range(n_train)]
    test_samples = [
        (jitter(i % classes, n_train + i), i % classes) for i in range(n_test)
    ]
    return (
        Dataset(train_samples, class_count=classes),
        Dataset(test_samples, class_count=classes),
        sim,
    )


def test_criterion_5_count_classification():
    """A 50-40-5 net separates five jittered spike-pattern classes by
    output spike counts: 95% train / 80% test within 500 epochs."""
    t0 = time.monotonic()
    neuron = NeuronConfig(10.0, 2.0, 1.0)
    spec = parse_architecture("50-40-5")
    surrogate = SurrogateConfig(alpha=10.0, beta=0.05)
    loss_spec = LossSpec("count", 20.0, 5.0, (0.0, 50.0))
    hits, details = 0, []
    for seed in range(5):
        train_set, test_set, sim = _jittered_task(seed)
        net = init_network(spec, neuron, sim, seed=seed)
        state = OptimizerState.adam(learning_rate=0.01)
        cfg = TrainConfig(1, loss_spec, surrogate, seed=seed)
        hit = None
        for epoch in range(1, 501):
            row = train_epoch(net, train_set, cfg, state, epoch)
            if row.accuracy is not None and row.accuracy >= 0.95:
                test_row = evaluate(net, test_set, cfg, epoch=epoch)
                if test_row.accuracy >= 0.80:
                    hit = epoch
                    break
        if hit is not None:
            hits += 1
            details.append(f"seed {seed}: epoch {hit}")
        else:
            details.append(f"seed {seed}: not reached")
    elapsed = time.monotonic() - t0
    ok = hits >= 4 and elapsed < 600.0
    _report(5, "count-coded classification of jittered patterns", ok,
            f"{hits}/5 seeds, {elapsed:.1f}s; " + "; ".join(details))


def test_criterion_6_credit_respects_time():
    """Error applied to the last five bins produces credit at strictly
    earlier bins, and credit at bin n ignores error before n.

    Both are read off transition 0's weight gradient on a staircase input
    (conftest), whose column k integrates the hidden credit after bin k:
    the columns of inputs whose response ends before the error bins are
    nonzero, and editing the error before bin m leaves the columns
    k >= m - 1 bit-identical."""
    t0 = time.monotonic()
    net = init_network(
        parse_architecture("40-8-4"), NeuronConfig(10.0, 2.0, 1.0), SimConfig(40.0, 1.0),
        seed=11,
    )
    cache = forward(net, staircase_train(net))
    surrogate = SurrogateConfig(10.0, 0.5)
    n = net.sim.n_samples
    e_late = np.zeros((4, n))
    e_late[:, -5:] = 1.0
    grad = backward(net, cache, SampledSignal(e_late, 1.0), surrogate).weights[0]
    early = n - 4 - len(net.epsilon.samples)  # responses that end before bin n - 5
    earlier = early == 15 and bool(np.all(np.any(grad[:, :early] != 0.0, axis=0)))
    m = n - 12
    e_edit = np.array(e_late)
    e_edit[:, :m] = -3.5
    edited = backward(net, cache, SampledSignal(e_edit, 1.0), surrogate).weights[0]
    invariant = bool(np.any(edited != grad)) and np.array_equal(edited[:, m - 1 :], grad[:, m - 1 :])
    elapsed = time.monotonic() - t0
    ok = earlier and invariant and elapsed < 1.0
    _report(6, "credit assignment flows backward in time", ok,
            f"earlier-bin credit={earlier}, future-only dependence={invariant}, {elapsed:.1f}s")


def test_criterion_7_determinism_and_resume(tmp_path):
    """Identical runs write byte-identical metrics, and training through
    a checkpoint equals training straight through."""
    t0 = time.monotonic()

    def build():
        train_set, _, sim = _jittered_task(3, channels=20, classes=3, n_train=12, n_test=1)
        net = init_network(
            parse_architecture("20-10-3"), NeuronConfig(10.0, 2.0, 1.0), sim, seed=4
        )
        state = OptimizerState.adam(learning_rate=0.01)
        cfg = TrainConfig(
            5, LossSpec("count", 12.0, 3.0, (0.0, 50.0)), SurrogateConfig(10.0, 0.05),
            seed=6,
        )
        return net, state, train_set, cfg

    csvs = []
    for run in range(2):
        net, state, data, cfg = build()
        out = tmp_path / f"run{run}"
        train(net, state, data, cfg, out_dir=out)
        csvs.append((out / "metrics.csv").read_bytes())
    identical = csvs[0] == csvs[1]

    net_a, state_a, data, cfg = build()
    rows_a = train(net_a, state_a, data, cfg)
    net_b, state_b, _, cfg_short = build()
    train(net_b, state_b, data, TrainConfig(
        2, cfg.loss, cfg.surrogate, seed=cfg.seed,
    ))
    ckpt = tmp_path / "mid.slck"
    save_checkpoint(net_b, state_b, ckpt, epoch=2)
    net_c, state_c, epoch = load_checkpoint(ckpt)
    rows_c = train(net_c, state_c, data, cfg, start_epoch=epoch)
    resumed = [r.as_csv() for r in rows_a[2:]] == [r.as_csv() for r in rows_c]
    params_equal = all(
        np.array_equal(pa.weights, pc.weights) and np.array_equal(pa.delays, pc.delays)
        for pa, pc in zip(net_a.params, net_c.params)
    )
    elapsed = time.monotonic() - t0
    ok = identical and resumed and params_equal and elapsed < 60.0
    _report(7, "bitwise deterministic training and seamless resume", ok,
            f"identical metrics={identical}, resume match={resumed and params_equal}, {elapsed:.1f}s")


def test_criterion_8_architecture_strings():
    """The parser accepts the two reference descriptions and rejects the
    non-dividing aggregation chain with a diagnostic naming the token."""
    t0 = time.monotonic()
    ok1 = parse_architecture("28x28-800-10").neuron_counts == (784, 800, 10)
    ok2 = parse_architecture("250-25-1").neuron_counts == (250, 25, 1)
    try:
        parse_architecture("34x34x2-12c5-2a-64c5-2a-10o")
        ok3, diag = False, "accepted"
    except ParseError as exc:
        diag = str(exc)
        ok3 = "2a" in diag
    elapsed = time.monotonic() - t0
    ok = ok1 and ok2 and ok3 and elapsed < 1.0
    _report(8, "architecture grammar round trip and rejection", ok,
            f"diagnostic: {diag[:80]}, {elapsed:.1f}s")
