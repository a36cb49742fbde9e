"""Per-layer span tracer for the damisac benchmark.

Every public function of the six library layers is replaced by a wrapper that
records a span around the call. A span's self time is its duration minus the
time covered by the spans it contains, so a module's self time is the sum of
the self times of its functions' spans. Calls into code that is not wrapped
(methods, numpy, private helpers) count towards the enclosing span.

Wrappers are bound everywhere the original function object is reachable by
name: in its own module, in every damisac module that imported it by name,
in the package namespace and in module-level dicts (the CLI's runner table).
The self-check in ``child.py`` compares the call counts against cProfile to
catch any alias this misses.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("experiments", "channel", "waveform", "sensing", "beamforming", "ofdm")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _radar_bytes(c, args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 1, "tx_block"))
    c["channel.apply_radar_channel.bytes_in"] += 16 * m * n


def _normal_samples(c, args, kwargs, result):
    c["channel.complex_normal.samples"] += int(np.size(result))


def _block_bytes(c, args, kwargs, result):
    c["waveform.build_dam_block.bytes_out"] += int(result.nbytes)


def _map_work(c, args, kwargs, result):
    grid = _arg(args, kwargs, 4, "grid")
    p, q = grid.shape
    n = grid.block_length
    c["sensing.delay_doppler_map.cells"] += p * q
    c["sensing.delay_doppler_map.macs"] += p * q * n
    key = "sensing.delay_doppler_map.phase_bytes_max"
    c[key] = max(c[key], 16 * q * n)


def _sca_outcome(c, args, kwargs, result):
    c[f"beamforming.sca_optimize.status.{getattr(result, 'status', 'unknown')}"] += 1
    c.setdefault("beamforming.sca_optimize.iterations", []).append(
        getattr(result, "iterations", 0))


# Counters computed from a call's arguments or result, keyed by function.
HOOKS = {
    "channel.apply_radar_channel": _radar_bytes,
    "channel.complex_normal": _normal_samples,
    "waveform.build_dam_block": _block_bytes,
    "sensing.delay_doppler_map": _map_work,
    "beamforming.sca_optimize": _sca_outcome,
}


class Tracer:
    """Wraps the library's public functions and aggregates their spans."""

    def __init__(self):
        self.active = False
        self.stack = []                                  # child time per open span
        self.calls = defaultdict(int)                    # "module.func" -> calls
        self.self_s = defaultdict(float)                 # "module.func" -> self time
        self.counters = defaultdict(int)
        self.originals = {}                              # "module.func" -> function

    def _wrap(self, key, fn):
        hook = HOOKS.get(key)
        stack, calls, self_s, counters = self.stack, self.calls, self.self_s, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                self_s[key] += dt - frame[0]
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package="damisac"):
        """Wrap every public function of each layer and rebind its aliases."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrapped = {}                                     # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    key = f"{layer}.{name}"
                    self.originals[key] = fn
                    wrapped[id(fn)] = self._wrap(key, fn)
        experiments = sys.modules[f"{package}.experiments"]
        rng = experiments.ExperimentConfig.rng
        self.originals["experiments.ExperimentConfig.rng"] = rng
        experiments.ExperimentConfig.rng = self._wrap("experiments.ExperimentConfig.rng", rng)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, name, wrapped[id(value)])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in wrapped:
                            value[k] = wrapped[id(v)]

    def counts(self) -> dict:
        """Every count the trace took; times excluded. Repeats exactly per input."""
        out = {f"{key}.calls": self.calls.get(key, 0) for key in self.originals}
        for key, value in self.counters.items():
            out[key] = list(value) if isinstance(value, list) else value
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, 0 where nothing ran."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                       if k.split(".", 1)[0] == layer)
        for key in ("channel.apply_radar_channel", "channel.generate_multipath_channel",
                    "waveform.build_dam_block", "sensing.delay_doppler_map",
                    "beamforming.sca_optimize", "beamforming.nullspace_projector",
                    "ofdm.ofdm_radar_rx", "ofdm.ofdm_delay_doppler_estimate"):
            m[f"{key}.calls"] = self.calls.get(key, 0)
            m[f"{key}.self_s"] = self.self_s.get(key, 0.0)
        m["sensing.matched_filter_template.calls"] = \
            self.calls.get("sensing.matched_filter_template", 0)
        m["experiments.rng_streams"] = self.calls.get("experiments.ExperimentConfig.rng", 0)
        for key in ("channel.apply_radar_channel.bytes_in", "channel.complex_normal.samples",
                    "waveform.build_dam_block.bytes_out", "sensing.delay_doppler_map.cells",
                    "sensing.delay_doppler_map.macs",
                    "sensing.delay_doppler_map.phase_bytes_max"):
            m[key] = self.counters.get(key, 0)
        status = {s: self.counters.get(f"beamforming.sca_optimize.status.{s}", 0)
                  for s in ("converged", "max-iters", "infeasible")}
        for s, n in status.items():
            m[f"beamforming.sca_optimize.status.{s}"] = n
        iters = self.counters.get("beamforming.sca_optimize.iterations", [])
        m["beamforming.sca_optimize.iterations_sum"] = int(sum(iters))
        m["beamforming.sca_optimize.iterations_p50"] = float(np.median(iters)) if iters else 0
        m["beamforming.sca_optimize.iterations_max"] = int(max(iters, default=0))
        solved = status["converged"] + status["max-iters"]
        m["beamforming.converged_ratio"] = status["converged"] / solved if solved else 0
        return m
