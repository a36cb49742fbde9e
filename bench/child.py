"""One measured execution of a benchmark workload, in its own process.

Started by ``run.py``; not meant to be run by hand. It imports damisac from
``src/`` of the current directory, runs one workload once and writes a JSON
result file: its import time, the monotonic clock reading and the CPU time at
the end of set-up (the parent subtracts its launch time to get wall set-up
time), the CPU time of a reference kernel run just before and just after the
workload, the workload's wall and CPU run time, its peak RSS, the
in-process correctness checks, the library versions and BLAS settings and,
when asked, the trace and cProfile call counts of the timed region.
"""

from __future__ import annotations

import argparse
import cProfile
import csv
import ctypes
import json
import os
import pstats
import resource
import sys
import time
from pathlib import Path

CLI_WORKLOADS = {"se-sweep", "ofdm-compare"}
# Trials per measured execution, where it departs from the default config. se-sweep
# keeps M, L and the gamma grid, so each solve is the same mix, at 20 of 100 trials.
BENCH_TRIALS = {"se-sweep": 20}
# Smaller inputs for the tracer self-check: same code paths, a fraction of the work.
REDUCED_TRIALS = {"se-sweep": 2, "ofdm-compare": 3}
REDUCED_GAMMA_GRID = "0:20:10"
REDUCED_BLOCK_LENGTH = 4096
DD_SURVEY_HEADER = ["stage", "delay_bin", "doppler_hz", "peak_power", "map_sha256"]


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_info(np) -> dict:
    """BLAS library from numpy's build config and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
            "env": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def reference_kernel(reps: int = 6) -> dict:
    """CPU time of a fixed kernel that uses no damisac code, by part: matrix
    products and SVDs, FFTs and elementwise work on arrays of a few MB, and
    interpreter work.

    The parent scales each execution's times by it: on a host whose cores run
    faster or slower from one core and one minute to the next, the workload
    and this kernel move together on one core, and the program's own changes
    move only the workload.
    """
    import numpy as np

    parts = dict.fromkeys(("blas", "stream", "interp"), 0.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 8192)) + 1j * rng.standard_normal((64, 8192))
    phase = np.linspace(0.0, 1.0, 1 << 18)
    for _ in range(reps):
        t0 = time.process_time()
        np.linalg.svd((a @ a.conj().T)[:32, :32])
        t1 = time.process_time()
        np.fft.fft(np.exp(2j * np.pi * phase))
        t2 = time.process_time()
        acc, table = 0, {}
        for i in range(100_000):
            acc += i * i
            table[i & 1023] = acc
        t3 = time.process_time()
        parts["blas"] += t1 - t0
        parts["stream"] += t2 - t1
        parts["interp"] += t3 - t2
    return parts


def reference_forked() -> dict:
    """reference_kernel, after a warm-up, in a forked copy of this process.

    The copy's memory does not count towards this process's peak RSS, so the
    reference can run right next to the workload. The copy runs no other
    thread: the parent starts this process with BLAS on one thread.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            reference_kernel(reps=1)   # first-call allocations and FFT plans
            os.write(write_fd, json.dumps(reference_kernel()).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference kernel exited with status {status}")
    return json.loads(data)


def dd_survey(cfg, out: Path, block_length: int) -> dict:
    """Library pipeline: survey map over all guard delays and the whole
    unambiguous Doppler interval, then a resolution-spaced refinement.

    All transmit power is steered at the target over the configured number of
    aligned streams. Library calls go through module attributes so that the
    tracer's wrappers see them.
    """
    import hashlib

    import numpy as np

    from damisac import channel, sensing, waveform

    sc = cfg.scenario
    t_s = sc.symbol_duration_s
    tg = cfg.target
    target = channel.RadarTarget.from_geometry(sc, tg.range_m, tg.rcs_m2, tg.direction_rad,
                                               tg.radial_velocity_m_s, rng=cfg.rng(3, 0))
    streams = cfg.channel_gen.num_paths
    m = sc.num_antennas
    a = channel.steering_vector(target.direction, m)
    f = np.sqrt(sc.transmit_power_w / (m * streams)) * np.tile(a[:, None], (1, streams))
    bf = waveform.DamBeamformer.aligned(f, np.arange(streams))
    block = waveform.generate_symbols(cfg.rng(3, 1), block_length, cfg.modulation)
    tx = waveform.build_dam_block(block, bf)
    echo = channel.apply_radar_channel(target, tx, t_s, sc.noise_power_w, cfg.rng(3, 2),
                                       guard_length=sc.guard_length,
                                       strict=cfg.strict_ambiguity)
    survey = sensing.delay_doppler_map(
        echo, bf, block, target.direction,
        sensing.SensingGrid.survey(sc.guard_length, block_length, t_s))
    d1, f1, p1 = sensing.estimate_delay_doppler(survey)
    refined = sensing.delay_doppler_map(
        echo, bf, block, target.direction,
        sensing.SensingGrid.refine(d1, f1, block_length, t_s))
    d2, f2, p2 = sensing.estimate_delay_doppler(refined)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "dd_survey.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={cfg.config_hash()} seed={cfg.seed}\n")
        fh.write(f"# n={block_length} streams={streams} truth_delay_bin={target.delay_symbols} "
                 f"truth_doppler_hz={target.doppler_hz!r}\n")
        writer = csv.writer(fh)
        writer.writerow(DD_SURVEY_HEADER)
        for stage, ddmap, d, fd, p in (("survey", survey, d1, f1, p1),
                                       ("refine", refined, d2, f2, p2)):
            digest = hashlib.sha256(np.ascontiguousarray(ddmap.values).tobytes()).hexdigest()
            writer.writerow([stage, d, repr(fd), repr(p), digest])
    return {"target": target, "bf": bf, "block": block, "echo": echo,
            "maps": {"survey": survey, "refine": refined},
            "estimate": (d2, f2), "block_length": block_length}


def dd_survey_checks(state, t_s) -> tuple:
    """Map cells at the truth and at each picked peak against np.vdot with the
    single-cell matched-filter template; returns (checks, accuracy)."""
    import numpy as np

    from damisac import sensing

    target, bf, block, echo = state["target"], state["bf"], state["block"], state["echo"]
    truth_grid = sensing.SensingGrid([target.delay_symbols], [target.doppler_hz], t_s,
                                     state["block_length"])
    cells = {"truth": (sensing.delay_doppler_map(echo, bf, block, target.direction,
                                                 truth_grid), 0, 0)}
    for stage, ddmap in state["maps"].items():
        i, j = np.unravel_index(np.argmax(ddmap.power()), ddmap.grid.shape)
        cells[f"{stage}_peak"] = (ddmap, i, j)
    checks = []
    for name, (ddmap, i, j) in cells.items():
        template = sensing.matched_filter_template(
            bf, block, target.direction, int(ddmap.grid.delay_bins[i]),
            float(ddmap.grid.doppler_bins_hz[j]), t_s)
        ref = np.vdot(template, echo)
        rel = float(abs(ddmap.values[i, j] - ref) / abs(ref))
        checks.append({"name": f"dd-survey {name} cell equals vdot(template, echo)",
                       "ok": bool(rel <= 1e-9), "detail": f"relative error {rel:.3g}"})
    d2, f2 = state["estimate"]
    accuracy = {"delay_err_bins": abs(d2 - target.delay_symbols),
                "doppler_err_hz": abs(f2 - target.doppler_hz),
                "truth": [target.delay_symbols, target.doppler_hz], "estimate": [d2, f2]}
    return checks, accuracy


def trials(workload, reduced):
    """The trial count an execution overrides, or None for the config's own."""
    return REDUCED_TRIALS.get(workload) if reduced else BENCH_TRIALS.get(workload)


def cli_args(workload, reduced) -> list:
    n = trials(workload, reduced)
    args = ["--trials", str(n)] if n is not None else []
    if reduced and workload == "se-sweep":
        args += ["--gamma-th-grid", REDUCED_GAMMA_GRID]
    return args


def resolved_config(experiments, workload, seed, reduced):
    """The config an execution runs, as the CLI resolves it from its arguments."""
    cfg = experiments.load_config(None)
    cfg.seed = seed
    n = trials(workload, reduced)
    if n is not None:
        cfg.trials = n
    if reduced and workload == "se-sweep":
        cfg.gamma_th_grid_db = experiments.parse_gamma_grid(REDUCED_GAMMA_GRID)
    return cfg


def work_size(workload, cfg, reduced) -> dict:
    """Work done by one execution, from the config the workload runs."""
    if workload == "se-sweep":
        grid, paths = len(cfg.gamma_th_grid_db), len(cfg.sweep_num_paths)
        return {"trials": cfg.trials, "gamma_points": grid,
                "path_counts": list(cfg.sweep_num_paths),
                "solves": grid * paths * cfg.trials, "csv_rows": grid * paths}
    if workload == "ofdm-compare":
        return {"trials": cfg.trials, "n": min(cfg.scenario.data_length, cfg.mc_block_length),
                "subcarriers": cfg.ofdm_subcarriers, "map_cells": 7 * 17, "csv_rows": 4}
    n = REDUCED_BLOCK_LENGTH if reduced else cfg.scenario.data_length
    return {"n": n, "antennas": cfg.scenario.num_antennas,
            "streams": cfg.channel_gen.num_paths,
            "survey_cells": (cfg.scenario.guard_length + 1) * 129, "csv_rows": 2}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--reduced", action="store_true")
    args = p.parse_args()
    # One core for the workload and its forked reference, so that both see the
    # same core's speed; the host's cores differ from one another.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import damisac
    import_s = time.perf_counter() - t0
    if not Path(damisac.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"damisac imported from {damisac.__file__}, not from {src}")
    from damisac import experiments

    result = {"import_s": import_s, "checks": []}
    state = None
    cfg = None
    if args.workload == "dd-survey":
        cfg = resolved_config(experiments, args.workload, args.seed, args.reduced)

    tracer = profiler = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if args.profile:
        profiler = cProfile.Profile()

    result["t_setup_end"] = _now()
    result["setup_cpu_s"] = time.process_time()
    result["ref_parts"] = [reference_forked()]
    if tracer:
        tracer.active = True
    if profiler:
        profiler.enable()
    start, start_cpu = time.perf_counter(), time.process_time()
    if args.workload in CLI_WORKLOADS:
        from damisac import cli
        argv = [args.workload, "--seed", str(args.seed), "--out", str(args.out)]
        rc = cli.main(argv + cli_args(args.workload, args.reduced))
    else:
        state = dd_survey(cfg, args.out,
                          REDUCED_BLOCK_LENGTH if args.reduced else cfg.scenario.data_length)
        rc = 0
    result["run_s"] = time.perf_counter() - start
    result["run_cpu_s"] = time.process_time() - start_cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if profiler:
        profiler.disable()
    if tracer:
        tracer.active = False
    result["ref_parts"].append(reference_forked())
    result["ref_cpu_s"] = [sum(parts.values()) for parts in result["ref_parts"]]

    if cfg is None:
        cfg = resolved_config(experiments, args.workload, args.seed, args.reduced)
    import numpy as np
    import scipy
    result.update(rc=rc, config_hash=cfg.config_hash(),
                  work=work_size(args.workload, cfg, args.reduced),
                  versions={"python": sys.version.split()[0], "numpy": np.__version__,
                            "scipy": scipy.__version__,
                            "damisac": getattr(damisac, "__version__", None)},
                  blas=_blas_info(np))
    if state is not None:
        result["checks"], result["accuracy"] = dd_survey_checks(state,
                                                                cfg.scenario.symbol_duration_s)
    if tracer:
        result["trace"] = {"layers": tracer.layer_metrics(), "counts": tracer.counts()}
    if profiler:
        stats = pstats.Stats(profiler).stats
        result["profile_calls"] = {}
        for key, fn in tracer.originals.items():
            code = fn.__code__
            entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            result["profile_calls"][key] = entry[1] if entry else 0
    args.result.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
