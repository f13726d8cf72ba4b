"""fraclogistic benchmark: closed-loop workloads with output checks and a traced mode.

Run from the repository root::

    python3 perfbench/run.py --workload decay-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, one after another

One client runs the workload's cases in order, each operation starting after
the previous one returns, and repeats the pass until ``--seconds`` of
operation time have been measured; after the first pass, the run stops at
the first operation that reaches that time.  Output checks run between
operations and are not timed.

The machine this was written on changes speed by up to a third over minutes
(other tenants share the host), which no statistic over one run removes.  So
after every operation a fixed reference kernel (:class:`Probe`, no package
code) is timed, and ``wall_s`` scales each operation by the probe's nominal
time over its measured time around that operation.  ``wall_s`` is the sum,
over the workload's cases, of the median of its scaled repetitions.  The
report also prints the raw pass times.

With ``--trace 1`` the run alternates untraced and traced passes and reports
per-layer metrics (medians over the traced passes); ``trace.overhead_s`` is
the scaled traced pass minus the scaled untraced pass.

The package is imported from ``src/`` of the checkout that holds this file;
the benchmark refuses to run without it.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts operations that raised or failed an output
check; an operation whose only failures are designed ones (see ``workloads``)
is printed and counted in ``fail_ratio`` instead.  A record with the machine
description, the cases, every operation time, every failure and the spans is
written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("decay-long", "blowup-grid", "crosscheck")
SETUP_REPEATS = 5
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_IMPORT = "import sys; sys.path.insert(0, %r); import fraclogistic, fraclogistic.cli" % str(SRC)


def _cap_threads() -> None:
    """One native thread unless the environment asks for more, and never more than nproc.

    Threaded BLAS dot products on this 2-core VM slow down erratically
    whenever the second core is busy elsewhere, so one thread is the default.
    """
    nproc = os.cpu_count() or 1
    for var in _THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _measure_setup() -> List[float]:
    """Seconds from starting a fresh interpreter to the package and its CLI imported."""
    subprocess.run([sys.executable, "-c", _IMPORT], check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORT], check=True)
        times.append(time.perf_counter() - t0)
    return times


class Probe:
    """A fixed kernel mixing the package's kinds of work, timed to track machine speed.

    It runs growing dot products from a Python loop and a few long ones (the
    march and the oracle), one FFT (the weight table) and one elementwise
    power (the homogeneous term) on fixed data, about 15 ms in all.
    """

    # Median probe time on an idle 2-core Intel Xeon (Sapphire Rapids) VM;
    # scaled times are seconds at that speed.
    NOMINAL_S = 0.015

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._w = rng.random(3000)
        self._f = rng.random(3000)
        self._z = rng.random(1 << 18) + 0j
        self._t = rng.random(1 << 18)
        self._long = rng.random(50_000)

    def __call__(self) -> float:
        np = self._np
        n = self._w.size
        t0 = time.perf_counter()
        for m in range(1, n):
            float(np.dot(self._w[n - m:], self._f[:m]))
        for _ in range(200):
            float(np.dot(self._long, self._long))
        np.fft.fft(self._z)
        np.power(self._t, 0.3)
        return time.perf_counter() - t0


@dataclasses.dataclass
class OpTime:
    """One timed operation and the probe time around it."""

    case: int
    traced: bool
    seconds: float
    probe_s: float

    @property
    def scaled(self) -> float:
        return self.seconds * Probe.NOMINAL_S / self.probe_s


def scaled_pass(ops: List[OpTime], traced: bool) -> float:
    """Sum over cases of the median of each case's scaled repetitions."""
    reps: Dict[int, List[float]] = {}
    for op in ops:
        if op.traced is traced:
            reps.setdefault(op.case, []).append(op.scaled)
    return sum(statistics.median(r) for r in reps.values())


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _machine() -> Dict[str, Any]:
    from importlib import metadata

    import numpy as np

    cpu_model = platform.processor()
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % index
        level = _read(base + "level").strip()
        if level in ("2", "3"):
            caches["L%s" % level] = _read(base + "size").strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, env=env)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        **{p: metadata.version(p) for p in ("numpy", "scipy", "mpmath", "click")},
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("openblas configuration", "?")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
    }


def run_workload(args: argparse.Namespace, config: Dict[str, Any]) -> int:
    setup = _measure_setup()
    sys.path.insert(0, str(SRC))
    import fraclogistic

    if Path(fraclogistic.__file__).resolve().parent != SRC / "fraclogistic":
        print("imported fraclogistic from %s, not from %s" % (fraclogistic.__file__, SRC),
              file=sys.stderr)
        return 2
    import resource

    import spans
    import workloads

    cases = workloads.make_cases(args.workload, args.seed)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmpdir = OUT_DIR / ("tmp-%d" % os.getpid())
    tmpdir.mkdir()
    workload = workloads.WORKLOADS[args.workload](tracer, str(tmpdir))
    probe = Probe()

    ops: List[OpTime] = []
    traced_spans: List[List[spans.Span]] = []
    failures: List[Dict[str, Any]] = []
    accuracy: Dict[str, List[float]] = {}
    flagged = failed = 0
    measured = 0.0
    try:
        for _ in range(3):  # the first calls also pay for FFT plans and allocations
            probe_before = probe()
        while measured < args.seconds or (args.trace and not traced_spans):
            traced = bool(args.trace) and len(ops) // len(cases) % 2 == 1
            first_span = len(tracer.spans)
            for index, spec in enumerate(cases):
                tracer.op = len(ops)
                tracer.active = traced
                t0 = time.perf_counter()
                try:
                    result = workload.run(spec)
                except Exception as exc:  # a failed operation must not stop the run
                    result = exc
                seconds = time.perf_counter() - t0
                tracer.active = False
                probe_after = probe()
                ops.append(OpTime(index, traced, seconds, (probe_before + probe_after) / 2))
                probe_before = probe_after
                measured += seconds
                if isinstance(result, Exception):
                    outcome = workloads.Outcome(["raised: " + "".join(
                        traceback.format_exception_only(type(result), result)).strip()])
                else:
                    outcome = workload.check(spec, result)
                for key, value in outcome.accuracy.items():
                    accuracy.setdefault(key, []).append(value)
                if outcome.failed:
                    flagged += 1
                    designed = outcome.only_designed(workloads.designed_failures(workload, spec))
                    failed += not designed
                    failures.append({"op": tracer.op, "case": repr(spec), "designed": designed,
                                     "failures": outcome.failures})
                if not args.trace and measured >= args.seconds and len(ops) >= len(cases):
                    break  # every case has run once; the last pass may stop part-way
            if traced:
                traced_spans.append(tracer.spans[first_span:])
    finally:
        workload.close()
        tracer.uninstall()
        shutil.rmtree(tmpdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = {
        "fail_ratio": flagged / len(ops),
        "err_max": max(accuracy.get("err", [0.0])),
        "t_blowup_relerr_max": max(accuracy.get("t_blowup_relerr", [0.0])),
    }
    if args.trace:
        per_pass = [spans.layer_metrics(s) for s in traced_spans]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = scaled_pass(ops, True) - scaled_pass(ops, False)
        metrics.update(summary)
        for name in tracer.absent_metrics():
            del metrics[name]
    else:
        metrics = {
            # at the reference speed, estimated from every probe of the run
            "setup_s": statistics.median(setup) * Probe.NOMINAL_S
            / statistics.median(op.probe_s for op in ops),
            "wall_s": scaled_pass(ops, False),
            "peak_rss_mb": peak_rss_mb,
        }

    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    shown = {name: {"value": metrics[name], "unit": unit}
             for name, unit in units.items() if name in metrics}
    absent = [name for name in units if name not in metrics]
    machine = _machine()
    ranking = []
    if args.trace:
        layer_self = {layer: sum(metrics.get(m, 0.0) for m in names)
                      for layer, names in spans.LAYER_SELF_TIMES.items()}
        ranking = sorted(layer_self.items(), key=lambda kv: -kv[1])
    report(args, machine, cases, ops, shown, summary, ranking, failures,
           tracer.missing_hooks, absent)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "cases": [repr(c) for c in cases],
        "setup_s": setup, "ops": [dataclasses.asdict(op) for op in ops],
        "summary": summary, "metrics": shown, "failures": failures,
        "missing_hooks": tracer.missing_hooks, "absent_metrics": absent,
        "spans": [[dataclasses.asdict(s) for s in p] for p in traced_spans],
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": shown}))
    return 0


def report(
    args: argparse.Namespace,
    machine: Dict[str, Any],
    cases: List[Any],
    ops: List[OpTime],
    shown: Dict[str, Dict[str, Any]],
    summary: Dict[str, float],
    ranking: List[Any],
    failures: List[Dict[str, Any]],
    missing_hooks: List[str],
    absent: List[str],
) -> None:
    """Human-readable lines printed before the result line."""
    print("perfbench: workload=%s seed=%d trace=%d operations=%d"
          % (args.workload, args.seed, args.trace, len(ops)))
    print("machine: %s" % json.dumps(machine))
    for spec in cases:
        print("case: alpha=%g u0=%.17g h=%g t_max=%g"
              % (spec.alpha, spec.u0, spec.step, spec.t_max))
    walls = [sum(op.seconds for op in ops[i:i + len(cases)]) for i in range(0, len(ops), len(cases))]
    print("raw pass times: %s s" % " ".join("%.3f" % w for w in walls))
    for name, item in shown.items():
        print("  %-44s %.6g %s" % (name, item["value"], item["unit"]))
    if not args.trace:
        for name, value in summary.items():
            print("  %-44s %.6g 1" % (name, value))
    else:
        print("layer self time per pass: %s" % ", ".join("%s %.3f s" % kv for kv in ranking))
    if missing_hooks:
        print("missing hooks: %s" % ", ".join(missing_hooks))
    if absent:
        print("absent metrics: %s" % ", ".join(absent))
    for item in failures:
        print("%s op %d (%s): %s" % ("designed failure in" if item["designed"] else "failed",
                                     item["op"], item["case"], "; ".join(item["failures"])))


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so set-up and peak memory stay per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({"%s/%s" % (name, k): v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the canonical grid; others draw u0 and the case order")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "fraclogistic" / "__init__.py").is_file():
        print("no fraclogistic sources under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, config)


if __name__ == "__main__":
    sys.exit(main())
