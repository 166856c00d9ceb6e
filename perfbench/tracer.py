"""Per-layer spans and counts for spikenet, installed from outside the package.

Every function in TARGETS is replaced by a timing wrapper in each module
that binds it: spikenet modules import names (`from .kernels import
convolve_values`), so a call through `spikenet.forward.convolve_values`
would go uncounted if only `spikenet.kernels` were patched.  A target that
no longer exists raises MissingTarget instead of being skipped.

A span's self time is its duration minus the durations of the spans it
called.  Counting work (MACs, densities) happens after a span closes and
is booked as the tracer's own time, not as any layer's.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute); an attribute "Class.method" patches the class.
TARGETS = (
    ("runconfig.load", "spikenet.runconfig", "load_config"),
    ("runconfig.load", "spikenet.runconfig", "RunConfig.load_dataset"),
    ("runconfig.load", "spikenet.runconfig", "RunConfig.build_network"),
    ("runconfig.load", "spikenet.runconfig", "RunConfig.build_optimizer"),
    ("signals.read_events", "spikenet.signals", "read_events"),
    ("signals.bin", "spikenet.signals", "spikes_to_signal"),
    ("signals.wrap", "spikenet.signals", "SampledSignal.__post_init__"),
    ("kernels.convolve", "spikenet.kernels", "convolve_values"),
    ("kernels.correlate", "spikenet.kernels", "correlate_values"),
    ("topology.apply_linear", "spikenet.topology", "apply_linear"),
    ("topology.adjoint_linear", "spikenet.topology", "adjoint_linear"),
    ("forward.threshold", "spikenet.forward", "simulate_layer"),
    ("losses.error", "spikenet.backprop", "output_error"),
    ("backprop.delta", "spikenet.backprop", "delta_layer"),
    ("backprop.weight_gradient", "spikenet.backprop", "weight_gradient"),
    ("backprop.delay_gradient", "spikenet.backprop", "delay_gradient"),
    ("backprop.backward", "spikenet.backprop", "backward"),
    ("optim.step", "spikenet.optim", "step"),
    ("trainer", "spikenet.trainer", "train_epoch"),
    ("trainer", "spikenet.trainer", "evaluate"),
)


class MissingTarget(LookupError):
    """A traced function is not where TARGETS says it is."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_events(counts, args, kwargs, result):
    counts["signals.read_events.events"] += sum(len(train) for train in result.trains)


def _count_wrap(counts, args, kwargs, result):
    counts["signals.wrap.mb"] += args[0].values.nbytes / 1e6


def _count_kernel(layer):
    def count(counts, args, kwargs, result):
        values = _arg(args, kwargs, 0, "values")
        kernel = _arg(args, kwargs, 1, "kernel")
        delays = np.asarray(_arg(args, kwargs, 2, "delays"), dtype=float)
        channels, bins = values.shape
        # taps the sliding window spans: kernel support plus the largest delay
        extra = math.ceil(max(0.0, float(delays.max())) / kernel.ts_ms) + 1
        taps = max(1, min(bins, len(kernel.samples) + extra))
        counts[layer + ".mmac"] += channels * bins * taps / 1e6
        counts[layer + ".nonzero"] += np.count_nonzero(values)
        counts[layer + ".elements"] += values.size

    return count


def linear_macs(net, t: int, bins: int) -> int:
    """Multiply-accumulates of one linear map of transition t over `bins`."""
    src, dst = net.spec.shapes[t], net.spec.shapes[t + 1]
    layer = net.spec.layers[t + 1]
    if layer.kind == "dense":
        return dst.neurons * src.neurons * bins
    if layer.kind == "conv":
        return dst.neurons * src.channels * layer.kernel_size**2 * bins
    return src.neurons * bins  # aggregation: one add per input value


def _count_linear(layer, signal_name):
    def count(counts, args, kwargs, result):
        net, t = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "t")
        bins = _arg(args, kwargs, 2, signal_name).n_samples
        counts[layer + ".mmac"] += linear_macs(net, t, bins) / 1e6

    return count


def _count_threshold(counts, args, kwargs, result):
    spikes = result[0].values
    counts["forward.threshold.bins"] += spikes.shape[1]
    counts["forward.threshold.active"] += np.count_nonzero(spikes.any(axis=0))


COUNTERS = {
    "signals.read_events": _count_events,
    "signals.wrap": _count_wrap,
    "kernels.convolve": _count_kernel("kernels.convolve"),
    "kernels.correlate": _count_kernel("kernels.correlate"),
    "topology.apply_linear": _count_linear("topology.apply_linear", "a"),
    "topology.adjoint_linear": _count_linear("topology.adjoint_linear", "delta"),
    "forward.threshold": _count_threshold,
}


class Tracer:
    """Self time, calls and counts per layer, plus every span, while enabled."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.enabled = False
        self._stack = []
        self._patched = []
        self.reset()

    def reset(self) -> None:
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.bookkeeping_ns = 0
        self.spans = []  # (layer, start_ns, end_ns, parent span index or -1)

    def install(self) -> "Tracer":
        """Wrap every target in every spikenet module that binds it."""
        resolved, missing = [], []
        for layer, module_name, attr in self.targets:
            owner_name, _, name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
            else:
                resolved.append((layer, owner, name, original, bool(owner_name)))
        if missing:
            raise MissingTarget("traced functions not found: " + ", ".join(missing))
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "spikenet" or name.startswith("spikenet.")
        ]
        for layer, owner, name, original, is_method in resolved:
            wrapper = self._wrap(layer, original, COUNTERS.get(layer))
            if is_method:
                bindings = [(owner, name)]
            else:
                bindings = [
                    (module, key)
                    for module in modules
                    for key, value in list(vars(module).items())
                    if value is original
                ]
            for holder, key in bindings:
                self._patched.append((holder, key, original))
                setattr(holder, key, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [0, len(self.spans)]  # child time, span index
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
            self.self_ns[layer] += end - start - frame[0]
            self.calls[layer] += 1
            self.spans[frame[1]] = (layer, start, end, -1 if parent is None else parent[1])
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            done = time.perf_counter_ns()
            self.bookkeeping_ns += done - end
            if parent is not None:
                parent[0] += done - start
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,layer,start_ns,end_ns,parent\n")
            for i, span in enumerate(self.spans):
                if span is not None:  # None: the call raised
                    fh.write("{},{},{},{},{}\n".format(i, *span))
