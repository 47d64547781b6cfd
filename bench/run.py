"""twistwalk benchmark: run one workload at one seed, time it, check it.

    python3 bench/run.py --workload fejer-engine --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of the workload for ``--seconds``
seconds.  Every round is a fresh interpreter (``--child``) with one BLAS and
OpenMP thread, so each pays the package import and the lazy imports a
command-line call pays, and its peak memory is its own.  The last line on
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds; with ``--trace 1`` rounds alternate between untraced and traced,
and the metrics are the per-layer ones of the traced rounds (see
``tracing.py``) plus ``trace.overhead_s``, the traced minus the untraced
median ``run_s``.  Progress and failed checks go to standard error.

``setup_s`` and ``run_s`` are CPU seconds (user plus system) of the round's
process, read with ``time.process_time``.  A round runs on one thread, so
on an idle core they equal its wall time; unlike wall time, they do not
grow when other processes compete for the cores.  Each round's wall time
is printed on standard error beside them.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("fejer-engine", "sofic-report", "gaussian-stream")

END_TO_END = {"setup_s": "s", "run_s": "s", "replica_steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "processes.emit_s": "s",
    "processes.increments_per_s": "1/s",
    "processes.generator_init_s": "s",
    "processes.state_init_s": "s",
    "processes.embedding_build_s": "s",
    "processes.embedding_size": "count",
    "walk.step_loop_s": "s",
    "walk.replica_steps_per_s": "1/s",
    "walk.merge_s": "s",
    "walk.batches": "count",
    "diagnostics.report_s": "s",
    "diagnostics.noise_floor_s": "s",
    "diagnostics.structure_stat_s": "s",
    "diagnostics.quantile_s": "s",
    "spectral.variance_curve_s": "s",
    "spectral.covariance_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "processes.self_s": "s",
    "walk.self_s": "s",
    "diagnostics.self_s": "s",
    "spectral.self_s": "s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: at least this many fresh-interpreter imports make up setup_s
MIN_SETUP_SAMPLES = 5
#: a round that takes longer than this is a failure of the benchmark
ROUND_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# child: one round in a fresh interpreter
# ---------------------------------------------------------------------------


def child(args) -> int:
    t0 = time.process_time()
    import twistwalk.cli  # noqa: F401  (the import a command-line call pays)

    setup_s = time.process_time() - t0
    if args.workload is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    import tracing
    import workloads

    out_dir = Path(args.out)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0, w0 = time.process_time(), time.perf_counter()
    wl.run()
    run_s, wall_s = time.process_time() - t0, time.perf_counter() - w0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.restore()
        layers = tracing.per_layer_metrics(tracer, run_s)

    checks = wl.check()
    bad = [c for c in checks if not c.ok]
    for c in bad:
        print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "replica_steps": wl.replica_steps,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "checks": len(checks),
        "correct": not bad,
        "layers": layers,
    }))
    return 0


# ---------------------------------------------------------------------------
# parent: rounds for --seconds, then medians
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_child(extra: list, env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", *extra],
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark round {extra} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parent(args) -> int:
    if not (SRC / "twistwalk" / "__init__.py").is_file():
        print(f"error: no twistwalk package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = _child_env()
    _run_child([], env)  # warm-up import (byte-compiles a fresh checkout); not measured

    untraced, traced = [], []
    start = time.monotonic()
    longest = 0.0
    k = 0
    # whole rounds only: the next one starts if it should end within --seconds
    while k == 0 or (args.trace and not traced) or \
            time.monotonic() - start + longest <= args.seconds:
        trace_round = bool(args.trace) and k % 2 == 1
        out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}-{k}"
        t0 = time.monotonic()
        try:
            res = _run_child(["--workload", args.workload, "--seed", str(args.seed),
                              "--trace", str(int(trace_round)), "--out", str(out_dir)], env)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        longest = max(longest, time.monotonic() - t0)
        (traced if trace_round else untraced).append(res)
        print(f"round {k}{' traced' if trace_round else ''}: run_s={res['run_s']:.4f} "
              f"wall_s={res['wall_s']:.4f} "
              f"setup_s={res['setup_s']:.4f} rss={res['peak_rss_mb']:.1f}MB "
              f"ops={res['attempted']} failed={res['failed']} checks={res['checks']} "
              f"correct={res['correct']}", file=sys.stderr)
        k += 1
    try:
        OUT_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it

    rounds = untraced + traced
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_run_child([], env)["setup_s"])

    run_s = statistics.median(r["run_s"] for r in untraced)
    if args.trace:
        names = [n for n in PER_LAYER if n != "trace.overhead_s"]
        values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - run_s
        metrics = {n: _metric(values[n], PER_LAYER[n]) for n in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "replica_steps_per_s": untraced[0]["replica_steps"] / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {n: _metric(values[n], END_TO_END[n]) for n in END_TO_END}
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    if args.workload is None:
        ap.error("--workload is required")
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
