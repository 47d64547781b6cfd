"""Batch front-end: named experiments, manifests, CSV/JSON reports.

Every run is driven by a manifest (process spec + walk configuration +
diagnostics options).  The manifest is canonicalized, hashed, and echoed
into every output file, so a manifest plus the package version pins all
outputs byte-for-byte; the worker count is a scheduling knob and never
appears in outputs.

Exit codes: 0 success, 1 a named example's check failed, 2 configuration
or usage error (``ConfigError`` and its ``SpecError``, or
``ResourceCapError``), 3 wall-clock budget exceeded (partial outputs are
written and flagged).  Any other exception is an internal fault: it is not
caught, so it ends the process with a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import build_report
from .group import Angle
from .processes import (
    IID,
    ConfigError,
    GaussianSpectral,
    Rotation,
    golden_mean_spec,
    make_stream,
    spec_from_json,
)
from .spectral import (
    SpectralMeasure,
    VarianceCurve,
    predicted_variance,
    spectral_convolve,
)
from .processes import spectral_measure as measure_of
from .walk import ETA_GRID, ResourceCapError, WalkConfig, blocked_increments, simulate, step

#: named processes; golden-mean stays a factory so that its chain comes
#: from parry_chain, not from floats copied into the source
PROCESSES = {
    "iid-rademacher": functools.partial(IID, "rademacher"),
    "iid-complex-gaussian": functools.partial(IID, "complex-gaussian"),
    "iid-uniform-circle": functools.partial(IID, "uniform-circle"),
    "golden-mean-parry": golden_mean_spec,
    "rotation-default": functools.partial(Rotation, alpha=math.sqrt(2.0),
                                          fourier=((1, 0.8), (2, 0.6))),
}
PROCESS_NAMES = tuple(PROCESSES)

#: the version of the increment-stream bits that simulate and example
#: manifests record; a manifest without the key came from version 1
STREAM_VERSION = 3

_BETA_TOKEN = re.compile(r"^2pi\*(-?\d+)/(\d+)$")


def parse_beta(token: str) -> Angle:
    """Float radians, or the exact token ``2pi*p/q``."""
    token = token.strip()
    m = _BETA_TOKEN.match(token)
    try:
        if m:
            return Angle.rational(int(m.group(1)), int(m.group(2)))
        return Angle(float(token))
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {token!r}: use a float or 2pi*p/q") from exc


def beta_token(beta: Angle) -> str:
    if beta.is_rational:
        return f"2pi*{beta.p}/{beta.q}"
    return repr(beta.value)


def build_process(name_or_path: str, field: str = "real", n_max: int | None = None):
    """Resolve a named process or a JSON spec file."""
    if name_or_path in PROCESSES:
        return PROCESSES[name_or_path]()
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if isinstance(doc, dict) and doc.get("kind") == "gaussian-spectral":
            doc.setdefault("field", field)
            if "window" not in doc and n_max is not None:
                doc["window"] = n_max
        return spec_from_json(doc)
    raise ConfigError(
        f"unknown process {name_or_path!r}; named processes: {', '.join(PROCESS_NAMES)} "
        f"(or a .json spec file)"
    )


def _jsonable(o):
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def manifest_hash(manifest: dict) -> str:
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _ensemble_csv(path: Path, ens, sha: str, run_header: dict) -> None:
    etas = ens.eta_grid
    with open(path, "w") as fh:
        fh.write(f"# manifest_sha256={sha}\n# schema=ensemble-v1\n")
        fh.write("# run=" + json.dumps(run_header, sort_keys=True, default=_jsonable) + "\n")
        cols = ["n", "rotation", "mean_re", "mean_im", "mean_abs2"]
        for e in etas:
            cols += [f"p_scaled_eta{e}", f"p_unscaled_eta{e}", f"mean_returns_eta{e}"]
        fh.write(",".join(cols) + "\n")
        R = ens.replicas_done
        for n in ens.checkpoints:
            m = ens.moment_sums[n]
            vals = [ens.rotation[n], m[0] / R, m[1] / R, m[2] / R]
            for j, _ in enumerate(etas):
                vals += [ens.scaled_counts[n][j] / R, ens.unscaled_counts[n][j] / R,
                         ens.return_count_sums[n][j] / R]
            fh.write(",".join([str(n)] + [repr(float(v)) for v in vals]) + "\n")


def _smallball_csv(path: Path, report: dict, sha: str) -> None:
    sb, tau_rows, c_hat = report["small_ball"], report["tau"], report["c_hat"]
    with open(path, "w") as fh:
        fh.write(f"# manifest_sha256={sha}\n# schema=smallball-v1\n")
        fh.write("n,eta,p_hat,se,tau,c_hat\n")
        for n, p_row, se_row in zip(sb["ns"], sb["p_hat"], sb["se"]):
            for e, p, se in zip(sb["etas"], p_row, se_row):
                t = tau_rows[str(n)][repr(e)]["tau"]
                fh.write(f"{n},{e!r},{p!r},{se!r},{t!r},{c_hat[e]['c_hat']!r}\n")


def manifest_walk_config(manifest: dict, workers: int = 1):
    """(process spec, WalkConfig) for a simulate/example manifest."""
    spec = spec_from_json(manifest["process"])
    w = manifest["walk"]
    cfg = WalkConfig(
        beta=parse_beta(w["beta"]),
        n_max=w["n_max"],
        checkpoints=w.get("checkpoints", "geometric"),
        replicas=w["replicas"],
        seed=w["seed"],
        eta_grid=tuple(w.get("eta_grid", ETA_GRID)),
        dense_counts=w.get("dense_counts"),
        record_raw=w.get("record_raw"),
        workers=workers,
        budget_s=manifest.get("budget_s"),
    )
    return spec, cfg


def run_simulate_manifest(manifest: dict, out_dir: Path, workers: int = 1) -> dict:
    """Execute a simulate manifest and write all outputs; returns the report.

    The output directory is made only after the run, so a configuration
    error leaves no directory behind.
    """
    sha = manifest_hash(manifest)
    spec, cfg = manifest_walk_config(manifest, workers=workers)
    ens = simulate(spec, cfg)
    report = build_report(ens, n_boot=manifest.get("diagnostics", {}).get("n_boot", 0)).as_dict()
    report["manifest_sha256"] = sha

    if cfg.beta.is_rational:
        report["checks"] = {
            "blocked_walk_identity": blocked_identity_check(
                spec, cfg.beta, seed=cfg.seed, n_max=min(cfg.n_max, 2000)
            )
        }

    w = manifest["walk"]
    run_header = {
        "process_kind": manifest["process"]["kind"],
        "beta": w["beta"],
        "n_max": w["n_max"],
        "replicas": w["replicas"],
        "seed": w["seed"],
        "version": __version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json", {**manifest, "manifest_sha256": sha})
    write_json(out_dir / "report.json", report)
    _ensemble_csv(out_dir / "ensemble.csv", ens, sha, run_header)
    _smallball_csv(out_dir / "smallball.csv", report, sha)
    return report


def blocked_identity_check(spec, beta: Angle, seed: int, n_max: int) -> dict:
    """Pathwise check that the q-step blocked walk reproduces S_{nq}."""
    p, q = beta.p, beta.q
    n_blocks = max(1, n_max // max(q, 1))
    x = make_stream(spec, seed, replica=0).take(n_blocks * q)
    sums = np.cumsum(blocked_increments(x, p, q))
    s = 0j
    worst = 0.0
    for k, xk in enumerate(x):
        s = step(s, beta, xk)
        if (k + 1) % q == 0:
            ref = sums[(k + 1) // q - 1]
            worst = max(worst, abs(s - ref) / max(abs(ref), 1.0))
    return {"p": p, "q": q, "n_blocks": n_blocks,
            "max_rel_err": float(worst), "pass": bool(worst < 1e-10)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _float_list(arg: str, flag: str) -> tuple:
    """A comma-separated list of floats from the command line."""
    try:
        return tuple(float(v) for v in arg.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _eta_grid(arg: str | None):
    if not arg:
        return ETA_GRID
    return _float_list(arg, "--eta-grid")


def cmd_simulate(args) -> int:
    spec = build_process(args.process, field=args.field, n_max=args.n_max)
    beta = parse_beta(args.beta)
    manifest = {
        "schema": 1,
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "command": "simulate",
        "process": spec.to_json(),
        "walk": {
            "beta": beta_token(beta),
            "n_max": args.n_max,
            # dense per-step tables ride on the geometric sample checkpoints
            "checkpoints": "geometric",
            "replicas": args.replicas,
            "seed": args.seed,
            "eta_grid": list(_eta_grid(args.eta_grid)),
            "dense_counts": args.checkpoints == "dense" or None,
        },
        "diagnostics": {"n_boot": args.boot},
        "budget_s": args.budget_s,
    }
    report = run_simulate_manifest(manifest, Path(args.out), workers=args.workers)
    print(f"label: {report['label']} ({report['reason']})")
    print(f"report: {Path(args.out) / 'report.json'}")
    if report["run"]["partial"]:
        print("warning: wall-clock budget exceeded; outputs are partial", file=sys.stderr)
        return 3
    return 0


def cmd_spectral(args) -> int:
    if args.n_max < 2:
        raise ConfigError(f"--n-max must be >= 2, got {args.n_max}")
    spec = build_process(args.process, field=args.field, n_max=args.n_max)
    if args.betas:
        betas = np.array(_float_list(args.betas, "--betas"))
    else:
        betas = np.linspace(0.0, 2 * math.pi, 9)[:-1] + 0.37
    ns = 2 ** np.arange(1, int(math.log2(args.n_max)) + 1)
    manifest = {
        "schema": 1,
        "version": __version__,
        "command": "spectral",
        "process": spec.to_json(),
        "betas": [float(b) for b in betas],
        "ns": [int(n) for n in ns],
    }
    sha = manifest_hash(manifest)
    measure = measure_of(spec)
    pred = np.empty((ns.size, betas.size))
    conv = np.empty_like(pred)
    for i, n in enumerate(ns):
        # one sequence per n: the grid refinement of covariance_from_measure
        # depends on the largest lag, so a longer one moves singular curves
        r = spec.covariance_sequence(int(n) - 1)
        for j, b in enumerate(betas):
            pred[i, j] = predicted_variance(r, b, int(n))
            conv[i, j] = spectral_convolve(measure, int(n), b)
    rel = np.abs(pred - conv) / np.maximum(np.abs(conv), 1e-30)
    curve = VarianceCurve(ns, betas, pred, header={
        "manifest_sha256": sha,
        "max_rel_identity_gap": repr(float(rel.max())),
    })
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json", {**manifest, "manifest_sha256": sha})
    curve.write_csv(out_dir / "variance_curve.csv")
    print(f"variance curve over {ns.size} n x {betas.size} beta; "
          f"max |predicted-convolved| relative gap {rel.max():.3e}")
    print(f"csv: {out_dir / 'variance_curve.csv'}")
    return 0


# -- named example reproductions --------------------------------------------


#: named experiments: the process of a run (from its walk block), the walk
#: block before overrides, and the bootstrap resamples.  The transient
#: example puts its spectral singularity at the twist angle.
EXAMPLES = {
    "gaussian-transient": (
        lambda walk: GaussianSpectral(SpectralMeasure.singular_half_power(float(walk["beta"])),
                                      window=walk["n_max"]),
        dict(beta="2.0", n_max=8192, replicas=100_000, seed=20260808,
             eta_grid=[0.1, 0.2, 0.3, 0.5], dense_counts=True),
        100,
    ),
    "sofic-recurrent": (
        lambda walk: PROCESSES["golden-mean-parry"](),
        dict(beta="1.0", n_max=4096, replicas=20_000, seed=7,
             eta_grid=[0.1, 0.2, 0.3, 0.5], dense_counts=True),
        100,
    ),
    "rotation-singular": (
        lambda walk: PROCESSES["rotation-default"](),
        dict(beta="2.2", n_max=16384, replicas=1000, seed=11,
             eta_grid=[0.05, 0.1, 0.2, 0.3, 0.5], dense_counts=False),
        100,
    ),
    "rational-block": (
        lambda walk: PROCESSES["iid-complex-gaussian"](),
        dict(beta="2pi*2/5", n_max=4000, replicas=2000, seed=5,
             eta_grid=[0.1, 0.2, 0.3, 0.5], dense_counts=True),
        0,
    ),
}
EXAMPLE_NAMES = tuple(EXAMPLES)


def example_manifest(name: str, replicas: int | None = None, n_max: int | None = None,
                     seed: int | None = None, budget_s: float | None = None) -> dict:
    """Canonical manifest for a named experiment, with optional overrides."""
    if name not in EXAMPLES:
        raise ConfigError(f"unknown example {name!r}; choose from: {', '.join(EXAMPLE_NAMES)}")
    process, defaults, n_boot = EXAMPLES[name]
    walk = {
        **defaults,
        "checkpoints": "geometric",
        "n_max": defaults["n_max"] if n_max is None else n_max,
        "replicas": defaults["replicas"] if replicas is None else replicas,
        "seed": defaults["seed"] if seed is None else seed,
    }
    return {
        "schema": 1,
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "command": f"example:{name}",
        "process": process(walk).to_json(),
        "walk": walk,
        "diagnostics": {"n_boot": n_boot},
        "budget_s": budget_s,
    }


def _example_assertions(name: str, report: dict) -> list:
    checks = []
    if name == "gaussian-transient":
        g = report["summability"]["gamma"]
        checks.append(("label is transience-evidence", report["label"] == "transience-evidence",
                       report["label"]))
        checks.append(("return-probability tail exponent in [1.35, 1.65]",
                       1.35 <= g <= 1.65, f"gamma={g:.4f}"))
        lo = report["summability"]["last_octave_fraction"]
        checks.append(("partial sums saturate (last octave < 10%)", lo < 0.10, f"{lo:.4f}"))
    elif name == "sofic-recurrent":
        checks.append(("label is recurrence-evidence", report["label"] == "recurrence-evidence",
                       report["label"]))
        small = {float(k): v for k, v in report["c_hat"].items()}
        ok = all(v["c_hat"] > 0.05 for e, v in small.items() if e < 0.5)
        checks.append(("criterion constant above 0.05 for eta < 0.5", ok,
                       {e: round(v["c_hat"], 4) for e, v in small.items()}))
    elif name == "rotation-singular":
        c = report["collapse"]["mean_scaled_abs2"]
        checks.append(("scaled norm collapses (mean |n^-1/2 S_n|^2 < 0.05)", c < 0.05, f"{c:.5f}"))
    elif name == "rational-block":
        blk = report.get("checks", {}).get("blocked_walk_identity", {})
        checks.append(("blocked-walk identity holds to 1e-10", bool(blk.get("pass")),
                       f"max_rel_err={blk.get('max_rel_err')}"))
    return checks


def cmd_example(args) -> int:
    manifest = example_manifest(args.name, replicas=args.replicas, n_max=args.n_max,
                                seed=args.seed, budget_s=args.budget_s)
    out_dir = Path(args.out)
    report = run_simulate_manifest(manifest, out_dir, workers=args.workers)
    checks = _example_assertions(args.name, report)
    all_ok = True
    for label, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
        all_ok = all_ok and ok
    if report["run"]["partial"]:
        print("warning: wall-clock budget exceeded; outputs are partial", file=sys.stderr)
        return 3
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads (scheduling only; outputs are identical)")
    p.add_argument("--budget-s", type=float, default=None, help="wall-clock budget in seconds")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twistwalk",
                                 description="twisted random walk simulation and diagnostics")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate a twisted walk and write diagnostics")
    ps.add_argument("--process", required=True, help="named process or JSON spec file")
    ps.add_argument("--beta", required=True, help="twist angle: float radians or 2pi*p/q")
    ps.add_argument("--n-max", type=int, dest="n_max", default=4096)
    ps.add_argument("--checkpoints", choices=("geometric", "dense"), default="geometric")
    ps.add_argument("--replicas", type=int, default=10_000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--eta-grid", dest="eta_grid", default=None,
                    help=f"comma-separated ball radii (default {','.join(map(str, ETA_GRID))})")
    ps.add_argument("--field", choices=("real", "complex"), default="real")
    ps.add_argument("--boot", type=int, default=0, help="bootstrap resamples for noise floors")
    _add_common(ps)
    ps.set_defaults(fn=cmd_simulate)

    pp = sub.add_parser("spectral", help="deterministic variance curves, no simulation")
    pp.add_argument("--process", required=True)
    pp.add_argument("--n-max", type=int, dest="n_max", default=16384)
    pp.add_argument("--betas", default=None, help="comma-separated angles (default: 8 spread)")
    pp.add_argument("--field", choices=("real", "complex"), default="real")
    _add_common(pp)
    pp.set_defaults(fn=cmd_spectral)

    pe = sub.add_parser("example", help="run a named preconfigured experiment")
    pe.add_argument("name", help=f"one of: {', '.join(EXAMPLE_NAMES)}")
    pe.add_argument("--replicas", type=int, default=None)
    pe.add_argument("--n-max", type=int, dest="n_max", default=None)
    pe.add_argument("--seed", type=int, default=None)
    _add_common(pe)
    pe.set_defaults(fn=cmd_example)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
