"""perfbench: the valign solve-path benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark uses the checkout's src/
as is (nothing is installed) and reads and writes only under the
checkout, in .perfbench_work/. It times set-up in fresh processes, runs the
workload in one more fresh process with a private TMPDIR (worker.py), and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-roads", "blocked-roads", "long-road", "suite-matrix")
SETUP_PROBES = 3       # before the workload, and as many after it
DEADLINE_S = 170.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, as declared
    in BENCHMARK.json, the one list of what a run must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def source_digest() -> str:
    """Hash of the program and benchmark sources: the size ledger's key."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_sizes(workload: str, seed: int, sizes: dict) -> str | None:
    """Model-size counts must repeat exactly for the same seed and sources.

    The first traced run of a (workload, seed, sources) writes the ledger
    entry; each later one compares against it. Returns a reason on mismatch.
    """
    ledger = ROOT / ".perfbench_work" / "ledger"
    ledger.mkdir(parents=True, exist_ok=True)
    entry = ledger / f"{workload}-{seed}-{source_digest()}.json"
    if entry.exists():
        before = json.loads(entry.read_text())
        if before != sizes:
            diff = sorted(c for c in set(before) | set(sizes)
                          if before.get(c) != sizes.get(c))
            return f"model sizes differ from an earlier run of this seed: {diff}"
        return None
    entry.write_text(json.dumps(sizes, sort_keys=True))
    return None


def worker_cmd(args, workdir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir), *extra]


def worker_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(workdir / "tmp")
    # One string-hash layout for every run, so that the order of sets and
    # dicts of names is no source of run-to-run variance.
    env["PYTHONHASHSEED"] = "0"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def time_setup(args, work: Path) -> list[float]:
    """Fresh process to ready: import valign, write the instance files."""
    samples = []
    for k in range(SETUP_PROBES):
        probe = work / f"setup-{k}"
        env = worker_env(probe)
        start = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(args, probe, "--setup-only"),
                                env=env, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().strip() == "ready"
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if not ready or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        shutil.rmtree(probe)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="valign solve-path benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "valign" / "__init__.py").is_file():
        print(f"perfbench: no valign sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds through the finally blocks, which end the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else time_setup(args, work)
        out = work / "result.json"
        extra = ["--seconds", str(args.seconds), "--out", str(out)]
        if args.trace:
            traces = ROOT / ".perfbench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            spans = traces / f"{args.workload}-{args.seed}.json"
            extra += ["--trace", "--spans-out", str(spans)]
        env = worker_env(work)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        # Its own session, so a timeout also ends the solver it started.
        proc = subprocess.Popen(worker_cmd(args, work, *extra), env=env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=remaining)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            print(f"perfbench: worker exited with code {code}",
                  file=sys.stderr)
            return 1
        result = json.loads(out.read_text())
        if not args.trace:
            setup += time_setup(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result.pop("metrics")
    correct = result["failed"] == 0
    if args.trace:
        mismatch = check_sizes(args.workload, args.seed, result["sizes"])
        if mismatch:
            print(f"perfbench: FAIL {mismatch}", file=sys.stderr)
            result["failures"]["sizes"] = mismatch
            correct = False
        units = metric_units("per_layer")
    else:
        metrics["setup_s"] = statistics.median(setup)
        result["setup_samples"] = setup
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do "
              "not match BENCHMARK.json", file=sys.stderr)
        return 1
    for cell, reason in result["failures"].items():
        print(f"perfbench: FAIL {cell}: {reason}", file=sys.stderr)
    print("perfbench-info " + json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
