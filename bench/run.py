"""damisac benchmark: end-to-end and per-layer measurements of three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {se-sweep,ofdm-compare,dd-survey,all} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: one child process at a time,
back to back, each importing damisac from ``src/`` and running the workload
once on inputs made from the seed, on one core with BLAS on one thread. With
``--trace 0`` the run measures, with tracing off, set-up and run CPU time
scaled by the speed of a reference kernel (see REF_NOMINAL_S) and peak RSS;
raw CPU and wall times go to the manifest. With ``--trace 1`` it pairs
untraced and traced executions and reports per-layer metrics, after a
self-check of the tracer against cProfile on a reduced input. Every
execution's outputs are checked; one that fails a check counts as failed.
The last line of standard output is one JSON object with the results, and a
run manifest is written under ``.bench_out/``. The exit code is 1 when any
check failed, 2 when the checkout has no damisac sources.

See bench/README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("se-sweep", "ofdm-compare", "dd-survey")
MIN_EXECUTIONS = 2          # per untraced run, even past --seconds
CHILD_TIMEOUT_S = 150
# One BLAS thread: on a shared 2-core host a second thread that spins at every
# barrier makes run time follow whatever else runs on the other core.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# CPU seconds of child.reference_kernel on the machine the baseline was measured
# on. setup_s and run_s are each execution's CPU times scaled by REF_NOMINAL_S /
# (the mean of the reference times its child measured just before and just after
# the workload): seconds on a machine of the baseline's speed.
REF_NOMINAL_S = 0.32

# Exact at a fixed seed, but random across seeds: listed with the per-layer metrics.
ACCURACY = ("se_mean_bps_hz", "snr_gap_db", "delay_err_bins", "doppler_err_hz")
CSV_SCHEMAS = {
    "se-sweep": {"se_sweep.csv": ["gamma_th_db", "num_paths", "mean_se_bps_hz", "feasible",
                                  "infeasible"]},
    "ofdm-compare": {"ofdm_compare.csv": [
        "scheme", "regime", "k_or_l", "i_or_n", "analytic_snr_db", "empirical_snr_db",
        "max_range_m", "max_velocity_m_s", "range_resolution_m", "velocity_resolution_m_s",
        "papr_empirical", "doppler_recovery_rate"]},
    "dd-survey": {"dd_survey.csv": ["stage", "delay_bin", "doppler_hz", "peak_power",
                                    "map_sha256"]},
}
TEXT_COLUMNS = {"scheme", "regime", "stage", "map_sha256"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "damisac").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Execution:
    """One child process: its measurements, outputs and failed checks."""

    def __init__(self, root: Path, workload: str, seed: int, out: Path, *, trace=False,
                 profile=False, reduced=False):
        self.workload = workload
        self.out = out
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        result_path = out / "result.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out), "--result", str(result_path)]
        cmd += [flag for flag, on in (("--trace", trace), ("--profile", profile),
                                      ("--reduced", reduced)) if on]
        self.failures = []
        self.accuracy = {}
        with open(out / "child.log", "wb") as log:
            t_launch = monotonic()
            proc = subprocess.Popen(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT,
                                    env={**os.environ, **CHILD_ENV}, start_new_session=True)
            self.exit_code = self._wait(proc)
        self.wall_s = monotonic() - t_launch
        self.result = json.loads(result_path.read_text()) if result_path.exists() else {}
        if self.exit_code != 0:
            self.failures.append(f"exit code {self.exit_code} (see {out / 'child.log'})")
        if "t_setup_end" in self.result:
            self.setup_wall_s = self.result["t_setup_end"] - t_launch
        elif not self.failures:
            self.failures.append("child wrote no result")
        self.digests = {}
        if not self.failures:
            self.accuracy = self._check_outputs(out, seed)
            self.failures += [f"{c['name']}: {c['detail']}" for c in self.result["checks"]
                              if not c["ok"]]

    @staticmethod
    def _wait(proc) -> int:
        """The child's exit code. Past the timeout or when the parent is
        interrupted, the child's process group, which holds its forked
        reference kernel, is killed; the child is reaped on every path."""
        try:
            return proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise

    def _check_outputs(self, out: Path, seed: int) -> dict:
        """Header, columns, row count and finiteness of every CSV; the
        workload's own invariants; its accuracy figures."""
        res = self.result
        tables = {}
        for name, header in CSV_SCHEMAS[self.workload].items():
            path = out / name
            if not path.exists():
                self.failures.append(f"{name} missing")
                continue
            self.digests[name] = sha256_file(path)
            lines = path.read_text().splitlines()
            expected = f"# config_hash={res['config_hash']} seed={seed}"
            if not lines or lines[0] != expected:
                self.failures.append(f"{name}: first line is not {expected!r}")
            reader = csv.reader(ln for ln in lines if not ln.startswith("#"))
            columns = next(reader, None)
            records = list(reader)
            if columns != header or any(len(r) != len(header) for r in records):
                self.failures.append(f"{name}: columns {columns} != {header} or ragged rows")
                continue
            rows = [dict(zip(header, r)) for r in records]
            if len(rows) != res["work"]["csv_rows"]:
                self.failures.append(f"{name}: {len(rows)} rows, expected "
                                     f"{res['work']['csv_rows']}")
            for row in rows:
                for col, text in row.items():
                    if col not in TEXT_COLUMNS and not _finite(text):
                        self.failures.append(f"{name}: {col}={text!r} is not a finite number")
            tables[name] = rows
        if self.failures:
            return {}
        if self.workload == "se-sweep":
            rows = tables["se_sweep.csv"]
            for row in rows:
                if int(row["feasible"]) + int(row["infeasible"]) != res["work"]["trials"]:
                    self.failures.append(f"se_sweep.csv: feasible + infeasible != trials in "
                                         f"{row}")
            return {"se_mean_bps_hz": statistics.fmean(float(r["mean_se_bps_hz"])
                                                       for r in rows)}
        if self.workload == "ofdm-compare":
            rows = tables["ofdm_compare.csv"]
            rate = {r["scheme"]: float(r["doppler_recovery_rate"]) for r in rows}
            if rate["dam"] < rate["ofdm"]:
                self.failures.append(f"ofdm_compare.csv: DAM Doppler recovery {rate['dam']} "
                                     f"< OFDM {rate['ofdm']}")
            return {"snr_gap_db": max(abs(float(r["empirical_snr_db"]) -
                                          float(r["analytic_snr_db"])) for r in rows)}
        return {k: res["accuracy"][k] for k in ("delay_err_bins", "doppler_err_hz")}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def median_and_tail(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    tail = None
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        tail = {"percentile": pct, "value": values[math.ceil(pct / 100 * n) - 1]}
    return {"median": statistics.median(values), "n": n, "tail": tail}


class Run:
    """All executions of one workload at one seed, and what they add up to."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed, self.seconds, self.trace = \
            root, workload, seed, seconds, trace
        self.dir = root / ".bench_out" / workload / f"seed-{seed}{'-trace' if trace else ''}"
        self.executions = []       # every child; each is one attempted operation
        self.failures = []         # run-level check failures
        self.platform, self.sample, self.accuracy, self.digests, self.work = {}, {}, {}, {}, {}
        self.config_hash = self.layers = self.shares = None

    def child(self, name: str, **kw) -> Execution:
        return Execution(self.root, self.workload, self.seed, self.dir / name, **kw)

    def measure(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        if self.trace:
            self._self_check()
        untraced, traced = [], []
        start = monotonic()
        while True:
            ex = self.child(f"exec-{len(untraced)}")
            untraced.append(ex)
            step = ex.wall_s
            if self.trace:
                traced.append(self.child(f"exec-traced-{len(traced)}", trace=True))
                step += traced[-1].wall_s
            elapsed = monotonic() - start
            needed = 1 if self.trace else MIN_EXECUTIONS
            if len(untraced) >= needed and elapsed + step > self.seconds:
                break
        self.executions += untraced + traced
        self._check_digests(untraced, traced)
        ok = [ex for ex in untraced if not ex.failures]
        if ok:
            # Each execution is scaled by the reference time measured around it.
            scale = [REF_NOMINAL_S / statistics.fmean(e.result["ref_cpu_s"]) for e in ok]
            self.sample = {
                "setup_s": median_and_tail([e.result["setup_cpu_s"] * k
                                            for e, k in zip(ok, scale)]),
                "run_s": median_and_tail([e.result["run_cpu_s"] * k for e, k in zip(ok, scale)]),
                "peak_rss_mb": median_and_tail([e.result["peak_rss_mb"] for e in ok]),
                "setup.cpu_s": median_and_tail([e.result["setup_cpu_s"] for e in ok]),
                "run.cpu_s": median_and_tail([e.result["run_cpu_s"] for e in ok]),
                "setup.wall_s": median_and_tail([e.setup_wall_s for e in ok]),
                "run.wall_s": median_and_tail([e.result["run_s"] for e in ok]),
                "speed.ref_cpu_s": median_and_tail([r for e in ok
                                                    for r in e.result["ref_cpu_s"]]),
            }
        else:
            self.failures.append("no successful execution to measure")
        self.accuracy = ok[0].accuracy if ok else {}
        self.platform = untraced[0].result
        self.digests = untraced[0].digests
        self.work = untraced[0].result.get("work", {})
        self.config_hash = untraced[0].result.get("config_hash")
        if self.trace and ok and any(not e.failures for e in traced):
            self.layers = self._layer_metrics(untraced + traced, untraced, traced)

    def _self_check(self):
        """Trace counts on a reduced input must equal cProfile's ncalls for the
        same functions, and a second traced execution must repeat every count."""
        first = self.child("selfcheck-1", trace=True, profile=True, reduced=True)
        second = self.child("selfcheck-2", trace=True, reduced=True)
        self.executions += [first, second]
        if first.failures or second.failures:
            return
        prof = first.result["profile_calls"]
        counts = first.result["trace"]["counts"]
        missed = {k: (counts[f"{k}.calls"], n) for k, n in prof.items()
                  if counts[f"{k}.calls"] != n}
        if missed:
            first.failures.append(f"tracer calls differ from cProfile ncalls "
                                  f"(traced, profiled): {missed}")
        if second.result["trace"]["counts"] != counts:
            second.failures.append("a second traced execution gave different counts")
        if first.digests != second.digests:
            second.failures.append("reduced outputs differ between the two executions")

    def _check_digests(self, untraced, traced):
        """Every execution at this seed writes the same bytes, traced or not."""
        reference = next((e.digests for e in untraced if not e.failures), None)
        if reference is None:
            return
        for ex in untraced + traced:
            if not ex.failures and ex.digests != reference:
                ex.failures.append(f"output digests {ex.digests} differ from {reference}")
        counts = [e.result["trace"]["counts"] for e in traced if not e.failures]
        for ex in traced[1:]:
            if not ex.failures and ex.result["trace"]["counts"] != counts[0]:
                ex.failures.append("traced counts differ between executions at one seed")

    def _layer_metrics(self, everyone, untraced, traced) -> dict:
        ok = [e for e in traced if not e.failures]
        layers = {}
        for name in ok[0].result["trace"]["layers"]:
            values = [e.result["trace"]["layers"][name] for e in ok]
            layers[name] = statistics.median(values)
        run_traced = statistics.median(e.result["run_s"] for e in ok)
        run_untraced = self.sample["run.wall_s"]["median"]
        layer_self = sum(v for k, v in layers.items()
                         if k.count(".") == 1 and k.endswith(".self_s"))
        layers["other.self_s"] = run_traced - layer_self
        layers["setup.import_s"] = statistics.median(e.result["import_s"] for e in everyone
                                                     if "import_s" in e.result)
        layers["trace.overhead_s"] = run_traced - run_untraced
        for name in ("setup.wall_s", "run.wall_s", "setup.cpu_s", "run.cpu_s",
                     "speed.ref_cpu_s"):
            layers[name] = self.sample[name]["median"]
        layers["experiments.csv_bytes"] = (
            sum((untraced[0].out / n).stat().st_size for n in untraced[0].digests)
            if self.workload != "dd-survey" else 0)
        for name in ACCURACY:
            layers[name] = self.accuracy.get(name, 0)
        self.shares = {k.split(".")[0]: v / run_traced for k, v in layers.items()
                       if k.count(".") == 1 and k.endswith(".self_s")}
        return layers

    def metrics(self, spec: dict) -> dict:
        """The metrics BENCHMARK.json names for this kind of run; {} when
        one is missing."""
        if self.trace:
            values = self.layers or {}
            wanted = spec["per_layer"]
        else:
            values = {k: v["median"] for k, v in self.sample.items()}
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            self.failures.append(f"metrics not measured: {missing}")
            return {}
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    def all_failures(self):
        return self.failures + [f for e in self.executions for f in e.failures]

    def manifest(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "git": git_state(self.root),
            "source_sha256": source_digest(self.root),
            "versions": self.platform.get("versions"), "blas": self.platform.get("blas"),
            "machine": machine(), "config_hash": self.config_hash, "work": self.work,
            "end_to_end": self.sample, "accuracy": self.accuracy, "per_layer": self.layers,
            "self_time_share": self.shares,
            "digests": self.digests, "attempted": len(self.executions),
            "failures": self.all_failures(),
        }


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True).stdout.strip() or None
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=root, capture_output=True, text=True).stdout.strip()
    return {"sha": sha, "dirty": bool(dirty)}


def machine() -> dict:
    """CPU count, model and cache sizes, read from /proc and /sys."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def report(run: Run, units: dict) -> None:
    """Human-readable lines for one workload; the JSON line comes last."""
    w = run.workload
    for name, sample in run.sample.items():
        tail = sample["tail"]
        tail_text = (f", p{tail['percentile']} {tail['value']:.4f}" if tail
                     else " (fewer than 11 samples: no percentile with 10 beyond it)")
        print(f"{w}: {name} median {sample['median']:.4f} {units[name]} over "
              f"n={sample['n']}{tail_text}")
    for name, value in run.accuracy.items():
        print(f"{w}: {name} {value:.6g} {units[name]}")
    if run.shares:
        print(f"{w}: self-time share " + ", ".join(f"{k} {v:.1%}"
                                                   for k, v in run.shares.items()))
    print(f"{w}: work {json.dumps(run.work)}")
    for failure in run.all_failures():
        print(f"{w}: FAILED {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "damisac" / "__init__.py").is_file():
        print(f"error: no damisac sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        run = Run(root, workload, args.seed, args.seconds, bool(args.trace))
        run.measure()
        metrics = run.metrics(spec)
        (run.dir / "manifest.json").write_text(json.dumps(run.manifest(), indent=1))
        report(run, units)
        runs.append((run, metrics))
    attempted = sum(len(r.executions) for r, _ in runs)
    failed = sum(1 for r, _ in runs for e in r.executions if e.failures)
    correct = all(not r.all_failures() for r, _ in runs)
    failed = max(failed, 0 if correct else 1)      # a run-level check failed alone
    metrics = (runs[0][1] if len(runs) == 1 else
               {f"{r.workload}.{k}": v for r, m in runs for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
