#!/usr/bin/env python3
"""Benchmark of the ctxclass command line on two seeded workloads.

Run from the root of a source checkout (ctxclass is imported from ``src/``):

    python3 benchmarks/run.py --workload hepatitis-grid --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one process each

A run generates the workload's inputs from ``--seed`` into
``.benchwork/<workload>/``, times ``setup_s`` in fresh interpreters, runs one
warm-up pass, and then runs back-to-back passes for ``--seconds``.  A pass is
the workload's ``ctxclass`` commands run in this process through
``ctxclass.cli.main``; every pass's stdout and report files are checked byte
for byte against the warm-up pass, and for the default seed against
``digests.json``.  The time metrics are calibrated against the host's speed,
sampled by a fixed probe while the commands run (see calibrate.py).  With
``--trace 1`` traced and untraced passes alternate and the per-layer metrics
of the traced passes are reported instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_SAMPLES = 5  # fresh interpreters timed per untraced run; setup_s is their median


# ---------------------------------------------------------------------------
# One pass


def _clear_outputs(workload: workloads.Workload) -> None:
    for cmd in workload.commands:
        for name in cmd.outputs:
            Path(name).unlink(missing_ok=True)


def run_pass(cli, workload: workloads.Workload, sampler: calibrate.Sampler | None = None):
    """Run the workload's commands once (cwd is the work dir), with
    ``sampler``, if given, probing the host's speed meanwhile.

    Returns (wall seconds, CPU seconds, outputs or None if a command failed).
    """
    _clear_outputs(workload)
    gc.collect()
    stdouts, codes = [], []
    if sampler is not None:
        sampler.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for cmd in workload.commands:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                codes.append(cli.main(list(cmd.argv)))  # looked up per call, so tracing sees it
            stdouts.append(out.getvalue())
    except Exception:  # a crash in the program is a failed pass, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - wall0, time.process_time() - cpu0, None
    finally:
        if sampler is not None:
            sampler.stop()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if any(code != 0 for code in codes):
        print(f"pass failed: exit codes {codes}", file=sys.stderr)
        return wall, cpu, None
    outputs = {}
    for cmd, stdout in zip(workload.commands, stdouts):
        outputs[f"{cmd.label}:stdout"] = stdout.encode()
        for name in cmd.outputs:
            path = Path(name)
            outputs[f"{cmd.label}:{name}"] = path.read_bytes() if path.exists() else b""
    return wall, cpu, outputs


def digests_of(outputs: dict[str, bytes]) -> dict[str, str]:
    return {key: hashlib.sha256(data).hexdigest() for key, data in sorted(outputs.items())}


# ---------------------------------------------------------------------------
# Set-up time and environment


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# a fresh interpreter that imports ctxclass.cli with the host-speed sampler on
_SETUP_CODE = """import sys
sys.path.insert(0, sys.argv[1])
import calibrate
sampler = calibrate.Sampler()
sampler.start()
import ctxclass.cli
sampler.stop()
print(sampler.report())
"""


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall seconds from starting a fresh interpreter to ``ctxclass.cli``
    imported (and the interpreter gone again): raw, and calibrated by the
    interpreter's own host-speed sampler."""
    raw, calibrated = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(BENCH_DIR)],
                              env=child_env(), cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        raw.append(wall)
        calibrated.append(calibrate.Sampler.parse(proc.stdout).calibrate(wall, wall)[0])
    return raw, calibrated


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = f"{size} per core (sysfs)"
    return sizes


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "git_commit": commit or "unknown (not a git checkout)",
    }


# ---------------------------------------------------------------------------
# A run


class Run:
    """Passes of one workload: timings, failures and the byte check."""

    def __init__(self, cli, workload, recorded: dict | None):
        self.cli = cli
        self.workload = workload
        # digests every pass must match: the recorded ones for the default
        # seed, otherwise those of the first pass
        self.reference = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._checked = False

    def one(self, sampler=None) -> tuple[float, float]:
        """One pass; returns its wall and CPU seconds."""
        self.attempted += 1
        wall, cpu, outputs = run_pass(self.cli, self.workload, sampler)
        ok = outputs is not None
        if ok:
            digests = digests_of(outputs)
            if self.reference is None:
                self.reference = digests
            if not self._checked:
                try:
                    self.problems += self.workload.check(outputs)
                except (ValueError, KeyError, IndexError) as exc:  # unparsable report
                    self.problems.append(f"output check failed: {exc!r}")
                self._checked = True
            if digests != self.reference:
                ok = False
                bad = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
                self.problems.append(f"outputs differ from the reference digests: {bad}")
        if not ok:
            self.failed += 1
        return wall, cpu


def timed_passes(run: Run, seconds: float):
    """Back-to-back passes with the host-speed sampler on; none starts unless
    it should end within ``seconds``.  Returns the raw wall and CPU seconds
    of each pass, their calibrated values, and each pass's host slowdown."""
    sampler = calibrate.Sampler()
    walls, cpus, cal_walls, cal_cpus, slow = [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        sampler.reset()
        wall, cpu = run.one(sampler)
        walls.append(wall)
        cpus.append(cpu)
        cal_wall, cal_cpu = sampler.calibrate(wall, cpu)
        cal_walls.append(cal_wall)
        cal_cpus.append(cal_cpu)
        slow.append(sampler.slowdown())
    return walls, cpus, cal_walls, cal_cpus, slow


def traced_passes(run: Run, tracer: tracing.Tracer, seconds: float):
    """Alternate untraced and traced passes; returns (untraced walls,
    traced walls, per-layer metrics of each traced pass, spans of each)."""
    plain, traced, layers, all_spans = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < 2 or time.perf_counter() - start
           + statistics.median(plain) + statistics.median(traced) <= seconds):
        plain.append(run.one()[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(run.one()[0])
        finally:
            tracer.uninstall()
        layers.append(tracing.layer_metrics(tracer.spans, tracer.calls, tracer.counts))
        all_spans.append(tracer.spans)
    return plain, traced, layers, all_spans


def write_trace(path: Path, all_spans) -> None:
    with path.open("w") as fh:
        for k, spans in enumerate(all_spans):
            for name, start, end, parent in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                     "parent": parent if parent >= 0 else None}) + "\n")


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not (SRC / "ctxclass" / "cli.py").is_file():
        print(f"no ctxclass sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctxclass
    import ctxclass.cli as cli

    if Path(ctxclass.__file__).resolve().parent != SRC / "ctxclass":
        print(f"imported ctxclass from {ctxclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    package = {"": ctxclass} | {m: sys.modules[f"ctxclass.{m}"] for m in tracing.MODULES}

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.PREPARE[args.workload](workdir, args.seed)
    recorded = None
    if args.seed == workloads.DEFAULT_SEED and not args.record_digests:
        recorded = json.loads(DIGESTS.read_text())["workloads"][args.workload]

    os.chdir(workdir)
    run = Run(cli, workload, recorded)
    # warm-up, of the probe too; also fixes the reference bytes of a seed
    # without recorded digests
    run.one(calibrate.Sampler())

    if args.record_digests:
        if run.failed or run.problems:
            print("\n".join(run.problems) or "warm-up pass failed", file=sys.stderr)
            return 1
        doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"workloads": {}}
        doc["seed"] = workloads.DEFAULT_SEED
        doc["workloads"][args.workload] = run.reference
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(run.reference)} digests for {args.workload}")
        return 0

    lines = [f"workload {args.workload}  seed {args.seed}  trace {'on' if args.trace else 'off'}",
             "environment " + json.dumps(environment(), sort_keys=True),
             "inputs " + json.dumps(workload.inputs, sort_keys=True)]
    if not args.trace:
        setup, cal_setup = measure_setup(SETUP_SAMPLES)
        walls, cpus, cal_walls, cal_cpus, slow = timed_passes(run, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "pass_s": metric(statistics.median(cal_walls), "s"),
            "cpu_s": metric(statistics.median(cal_cpus), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "setup_s": metric(statistics.median(cal_setup), "s"),
        }
        lines.append("pass walls " + " ".join(f"{w:.3f}" for w in walls))
        lines.append("host slowdown " + " ".join(f"{s:.3f}" for s in slow))
        lines.append(f"uncalibrated medians: pass {statistics.median(walls):.3f} s, "
                     f"cpu {statistics.median(cpus):.3f} s, setup {statistics.median(setup):.3f} s")
        samples = {"pass_s": f"median of {len(walls)} calibrated passes",
                   "cpu_s": f"median of {len(cpus)} calibrated passes",
                   "peak_rss_mb": "peak of the process",
                   "setup_s": f"median of {len(setup)} calibrated interpreter starts"}
    else:
        imports = tracing.import_times(child_env())
        tracer = tracing.Tracer(package)
        plain, traced, layers, all_spans = traced_passes(run, tracer, args.seconds)
        for key in tracing.EXACT_COUNTS:
            values = {layer[key] for layer in layers}
            if len(values) > 1:
                run.problems.append(f"count {key} differs between traced passes: {sorted(values)}")
        if tracer.hook_errors:  # the program changed shape; its outputs may still be right
            lines.append(f"warning: counter hooks failed, counts are short: "
                         f"{dict(tracer.hook_errors)}")
        write_trace(workdir / "trace.jsonl", all_spans)
        metrics = {
            name: metric(imports[name] if name in imports
                         else statistics.median(layer[name] for layer in layers), unit)
            for name, unit in tracing.LAYER_METRICS.items()
        }
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        metrics["trace.overhead_pct"] = metric(overhead, "%")
        metrics["trace.spans"] = metric(len(all_spans[0]), "count")
        samples = {name: f"median of {len(traced)} traced passes" for name in metrics}
        samples |= {name: "one -X importtime interpreter" for name in imports}
        samples["trace.overhead_pct"] = (f"median of {len(traced)} traced vs "
                                         f"{len(plain)} untraced passes")
        lines.append(f"trace written to {workdir / 'trace.jsonl'}")

    error_rate = run.failed / run.attempted
    lines += [f"{name:<32} {m['value']:>14.6f} {m['unit']:<6} {samples.get(name, '')}"
              for name, m in metrics.items()]
    lines.append(f"{'error_rate':<32} {error_rate:>14.6f} ratio  "
                 f"{run.failed} failed of {run.attempted} passes")
    lines += [f"problem: {p}" for p in dict.fromkeys(run.problems)]
    print("\n".join(lines))
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in workloads.PREPARE:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        if not result.get("correct"):
            status = 1
        print(f"result {json.dumps(result)}\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.PREPARE, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for this workload from one pass "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.record_digests and (args.seed != workloads.DEFAULT_SEED or args.workload == "all"):
        parser.error("--record-digests takes one workload and the default seed")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
