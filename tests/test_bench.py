"""The benchmark's reduced self-check in the test suite: for each workload,
`bench/child.py --reduced` once under the tracer and cProfile and once under
the tracer alone, checked as `bench/run.py` checks them."""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def bench_run():
    """bench/run.py as a module, for its CSV schemas and child environment."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(run, workload, out, flags, core):
    """One reduced child on one core, the one this thread is pinned to (a
    child inherits the affinity of the thread that starts it); its result."""
    os.sched_setaffinity(0, {core})
    out.mkdir(parents=True)
    result = out / "result.json"
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "--workload", workload,
           "--seed", str(SEED), "--out", str(out), "--result", str(result), "--reduced",
           *flags]
    with open(out / "child.log", "wb") as log:
        code = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              env={**os.environ, **run.CHILD_ENV}, timeout=120).returncode
    assert code == 0, (out / "child.log").read_text()
    return json.loads(result.read_text())


def csv_digests(run, workload, out, result):
    """Each of the workload's CSVs has bench/run.py's header and columns;
    their digests."""
    digests = {}
    for name, header in run.CSV_SCHEMAS[workload].items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == f"# config_hash={result['config_hash']} seed={SEED}"
        records = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert records[0] == header
        assert len(records) - 1 == result["work"]["csv_rows"]
        assert all(len(record) == len(header) for record in records)
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


def test_reduced_benchmark_children_pass_the_self_check(tmp_path):
    # two children at a time, on their own cores where there are two: the
    # profiled and the unprofiled run of one workload
    run = bench_run()
    cores = sorted(os.sched_getaffinity(0))
    for workload in run.WORKLOADS:
        flags = {"profiled": ["--trace", "--profile"], "traced": ["--trace"]}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {name: pool.submit(run_child, run, workload, tmp_path / workload / name,
                                         flag, cores[i % len(cores)])
                       for i, (name, flag) in enumerate(flags.items())}
            results = {name: future.result() for name, future in futures.items()}
        for name, result in results.items():
            assert [c for c in result["checks"] if not c["ok"]] == [], (workload, name)
        profiled, traced = results["profiled"], results["traced"]
        counts = profiled["trace"]["counts"]
        assert profiled["profile_calls"]
        for key, ncalls in profiled["profile_calls"].items():
            assert counts[f"{key}.calls"] == ncalls, (workload, key)
        assert traced["trace"]["counts"] == counts
        assert (csv_digests(run, workload, tmp_path / workload / "profiled", profiled)
                == csv_digests(run, workload, tmp_path / workload / "traced", traced))
