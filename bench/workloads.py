"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the correctness checks that run after the timed region.

Each workload object is built untimed (``__init__`` makes its inputs), then
``run()`` performs the operations that are timed, then ``check()`` returns
the correctness checks.  An operation that raises is counted in ``failed``
and its outputs are not checked.  The one operation that fails on every
run today is ``gaussian-stream``'s raw/streaming agreement, whose inputs are
fixed and do not depend on the seed.

The program is called through module attributes (``walk.simulate``,
``cli.main``, ...) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twistwalk import cli, diagnostics, processes, spectral, walk

#: Monte Carlo tolerance, in standard errors of the mean of |n^-1/2 S_n|^2.
#: A correct program exceeds it with probability ~1e-9 per comparison.
Z_MC = 6.0
#: relative agreement required between the two deterministic variance
#: formulas (triangular covariance sum versus Fejer convolution)
IDENTITY_RTOL = 1e-6
#: relative tolerance for engine positions against the scalar recursion
POSITION_RTOL = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Counts operations; subclasses define ``run`` and ``check``."""

    def __init__(self):
        self.attempted = 0
        self.raised = 0  # operations that raised
        self.disagreed = 0  # operations whose outputs disagreed (known fault)
        self.replica_steps = 0

    @property
    def failed(self) -> int:
        return self.raised + self.disagreed

    def _op(self, fn, *args, **kwargs):
        """One operation: its result, or None when it raised (counted failed)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.raised += 1
            traceback.print_exc(file=sys.stderr)
            return None


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------


def variance_check(name: str, mc: float, m4: float, replicas: int, expected: float) -> Check:
    """Monte Carlo mean of |z|^2 against its expectation, within Z_MC standard
    errors taken from the run's own fourth moment (plus float slack)."""
    se = math.sqrt(max(m4 - mc * mc, 0.0) / replicas)
    tol = Z_MC * se + 1e-9 * (1.0 + abs(expected))
    return Check(name, abs(mc - expected) <= tol,
                 f"mc={mc!r} expected={expected!r} tol={tol:.3e}")


def identity_check(name: str, predicted: float, convolved: float, r0: float) -> Check:
    tol = IDENTITY_RTOL * abs(convolved) + 1e-10 * abs(r0)
    return Check(name, abs(predicted - convolved) <= tol,
                 f"predicted={predicted!r} convolved={convolved!r}")


def manifest_sha(manifest_path: Path) -> str:
    """SHA-256 of the canonical manifest, recomputed from manifest.json."""
    doc = json.loads(manifest_path.read_text())
    doc.pop("manifest_sha256", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def file_sha(path: Path) -> str | None:
    """The manifest hash a written file carries (JSON key or CSV header)."""
    if path.suffix == ".json":
        return json.loads(path.read_text()).get("manifest_sha256")
    for line in path.read_text().splitlines():
        if line.startswith("# manifest_sha256="):
            return line.split("=", 1)[1].strip()
    return None


def sha_checks(out_dir: Path) -> list:
    want = manifest_sha(out_dir / "manifest.json")
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    return [Check(f"sha256[{out_dir.name}/{p.name}]", file_sha(p) == want, f"want {want}")
            for p in files]


def csv_header(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            k, v = line[2:].split("=", 1)
            out[k] = v
    return out


def ensemble_variance_checks(tag: str, ens, expected) -> list:
    """The mean of |n^-1/2 S_n|^2 at each checkpoint against ``expected(n)``,
    with the tolerance from the fourth-moment sums of the same run."""
    R = ens.replicas_done
    return [variance_check(f"{tag}.variance[n={n}]", float(ens.moment_sums[n][2]) / R,
                           float(ens.moment_sums[n][3]) / R, R, expected(n))
            for n in ens.checkpoints]


class _Tap:
    """Keeps the ensemble ``cli.simulate`` returns, whose moment sums the
    written files do not carry in full.  Times nothing."""

    def __init__(self):
        self.ensemble = None
        self._orig = cli.simulate

    def __enter__(self):
        orig = self._orig

        def tapped(*args, **kwargs):
            self.ensemble = orig(*args, **kwargs)
            return self.ensemble

        cli.simulate = tapped
        return self

    def __exit__(self, *exc):
        cli.simulate = self._orig
        return False


# ---------------------------------------------------------------------------
# fejer-engine
# ---------------------------------------------------------------------------


def fejer_families() -> dict:
    return {
        "iid": processes.IID("complex-gaussian"),
        "ma1": processes.MovingAverage((1, 1)),
        "golden-mean": processes.golden_mean_spec(),
        "rotation": processes.Rotation(alpha=math.sqrt(2.0), fourier=((1, 1.0),)),
    }


#: fejer-engine: replicas and steps of each walk, and angles per family
FEJER_REPLICAS = 4096
FEJER_N_MAX = 1024
FEJER_ANGLES = 2


class FejerEngine(Workload):
    """Criterion 1's shape at reduced size, through ``walk.simulate``: four
    families at seed-drawn angles, checkpoints (16, 256, n_max), one radius,
    raw mode, no dense tables."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__()
        rng = random.Random(seed)
        self.cases = []
        for name, spec in fejer_families().items():
            for _ in range(FEJER_ANGLES):
                beta = rng.uniform(0.25, 5.85)
                cfg = walk.WalkConfig(beta=beta, n_max=FEJER_N_MAX,
                                      checkpoints=(16, 256, FEJER_N_MAX),
                                      replicas=FEJER_REPLICAS, seed=rng.randrange(2 ** 32),
                                      eta_grid=(0.5,), dense_counts=False, record_raw=True)
                self.cases.append((name, spec, cfg))
        self.ensembles = []

    def run(self):
        for name, spec, cfg in self.cases:
            ens = self._op(walk.simulate, spec, cfg)
            self.ensembles.append(ens)
            self.replica_steps += cfg.replicas * cfg.n_max

    def check(self) -> list:
        checks = []
        measures = {}
        for (name, spec, cfg), ens in zip(self.cases, self.ensembles):
            if ens is None:
                continue
            beta = cfg.beta.value
            tag = f"fejer.{name}[beta={beta:.4f}]"
            if name not in measures:
                measures[name] = processes.spectral_measure(spec)
            r0 = processes.covariance(spec, 0).real
            R = ens.replicas_done
            for n in cfg.checkpoints:
                pred = spectral.predicted_variance(spec, beta, n)
                conv = spectral.spectral_convolve(measures[name], n, beta)
                checks.append(identity_check(f"{tag}.identity[n={n}]", pred, conv, r0))
                z = ens.samples[n]
                m4 = float(np.mean(np.abs(z) ** 4))
                checks.append(variance_check(f"{tag}.variance[n={n}]",
                                             ens.mean_scaled_abs2(n), m4, R, pred))
            checks += self._position_checks(tag, spec, cfg, ens)
        return checks

    @staticmethod
    def _position_checks(tag, spec, cfg, ens) -> list:
        """Engine positions against the scalar recursion over the replica's
        own stream, for the first two replicas and the last."""
        checks = []
        for r in sorted({0, 1, cfg.replicas - 1}):
            x = processes.make_stream(spec, cfg.seed, r).take(cfg.n_max)
            s = 0j
            worst = 0.0
            for k in range(cfg.n_max):
                s = walk.step(s, cfg.beta, x[k])
                n = k + 1
                if n in ens.samples:
                    got = complex(ens.samples[n][r]) * math.sqrt(n)
                    worst = max(worst, abs(got - s) / max(1.0, abs(s)))
            checks.append(Check(f"{tag}.position[r={r}]", worst <= POSITION_RTOL,
                                f"max relative gap {worst:.3e}"))
        return checks


# ---------------------------------------------------------------------------
# sofic-report
# ---------------------------------------------------------------------------


#: sofic-report: replicas of the sofic-recurrent example (its n_max is 4096)
SOFIC_REPLICAS = 2000


class SoficReport(Workload):
    """A command-line session on the golden-mean shift: the deterministic
    variance curves, then the sofic-recurrent example at reduced replicas."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__()
        self.curves = out_dir / "curves"
        self.sofic = out_dir / "sofic"
        self.argvs = [
            ["spectral", "--process", "golden-mean-parry", "--out", str(self.curves)],
            ["example", "sofic-recurrent", "--replicas", str(SOFIC_REPLICAS), "--seed", str(seed),
             "--out", str(self.sofic)],
        ]
        self.ok = [False, False]  # whether each call exited with 0
        self.ensemble = None
        walk_cfg = cli.example_manifest("sofic-recurrent", replicas=SOFIC_REPLICAS,
                                        seed=seed)["walk"]
        self.steps_per_round = walk_cfg["replicas"] * walk_cfg["n_max"]

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"twistwalk {' '.join(argv)} exited with {rc}")
        return rc

    def run(self):
        with _Tap() as tap:
            self.ok = [self._op(self._cli, argv) == 0 for argv in self.argvs]
        self.ensemble = tap.ensemble
        self.replica_steps += self.steps_per_round

    def check(self) -> list:
        checks = []
        curves_ok, example_ok = self.ok
        if curves_ok:
            gap = float(csv_header(self.curves / "variance_curve.csv")["max_rel_identity_gap"])
            checks.append(Check("sofic.curve_identity_gap", gap <= 1e-6, f"gap={gap!r}"))
            checks += sha_checks(self.curves)
        if example_ok:
            manifest = json.loads((self.sofic / "manifest.json").read_text())
            beta = float(manifest["walk"]["beta"])
            chain = processes.spec_from_json(manifest["process"])
            checks += ensemble_variance_checks(
                "sofic", self.ensemble,
                lambda n: spectral.predicted_variance(chain, beta, n))
            label = json.loads((self.sofic / "report.json").read_text())["label"]
            checks.append(Check("sofic.label", label == "recurrence-evidence", label))
            checks += sha_checks(self.sofic)
        return checks


# ---------------------------------------------------------------------------
# gaussian-stream
# ---------------------------------------------------------------------------

#: gaussian-stream: replicas and steps of the streaming-mode example
GAUSSIAN_REPLICAS = 4096
GAUSSIAN_N_MAX = 1024
#: inputs of the raw/streaming agreement operation, fixed so that its
#: outcome cannot depend on the seed: the first replicas of the example at
#: its canonical seed
AGREEMENT_REPLICAS = 64
AGREEMENT_SEED = 20260808


def _ecf_of_samples(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum over samples of exp(i <t, z>), computed directly."""
    return np.exp(1j * (np.outer(z.real, t.real) + np.outer(z.imag, t.imag))).sum(axis=0)


def _same(a, b) -> bool:
    """Equality for report values; floats to 1e-12 relative, NaN never equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12)
    return a == b


def agreement_checks(raw, streaming, raw_report: dict, streaming_report: dict) -> list:
    """Raw-mode and streaming-mode runs of the same replicas must agree on
    counts, moments and characteristic-function sums, and their reports on
    the label and the ``returns`` block."""
    checks = []
    R = raw.replicas_done
    for n in raw.checkpoints:
        same_counts = all(
            np.array_equal(getattr(raw, f)[n], getattr(streaming, f)[n])
            for f in ("scaled_counts", "unscaled_counts", "return_count_sums"))
        checks.append(Check(f"agree.counts[n={n}]", same_counts))
        checks.append(Check(f"agree.moments[n={n}]",
                            np.allclose(raw.moment_sums[n], streaming.moment_sums[n],
                                        rtol=1e-12, atol=1e-12)))
        cf_raw = _ecf_of_samples(raw.samples[n], raw.ecf_tgrid)
        checks.append(Check(f"agree.cf_sums[n={n}]",
                            np.allclose(cf_raw, streaming.ecf_sums[n], rtol=1e-9,
                                        atol=1e-9 * R)))
    for f in ("dense_scaled", "dense_unscaled"):
        checks.append(Check(f"agree.{f}", np.array_equal(getattr(raw, f), getattr(streaming, f))))
    checks.append(Check("agree.label", raw_report["label"] == streaming_report["label"],
                        f"raw={raw_report['label']} streaming={streaming_report['label']}"))
    checks.append(Check("agree.returns", _same(raw_report["returns"], streaming_report["returns"]),
                        f"raw={raw_report['returns']} streaming={streaming_report['returns']}"))
    return checks


class GaussianStream(Workload):
    """The gaussian-transient example at reduced size in streaming mode
    (``record_raw: false``), then a small fixed slice of it rerun in raw and
    in streaming mode to compare the two memory modes."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__()
        self.out = out_dir / "transient"
        self.manifest = cli.example_manifest("gaussian-transient", replicas=GAUSSIAN_REPLICAS,
                                             n_max=GAUSSIAN_N_MAX, seed=seed)
        self.manifest["walk"]["record_raw"] = False
        self.agreement_manifests = []  # raw mode, then streaming mode
        for raw in (True, False):
            m = cli.example_manifest("gaussian-transient", replicas=AGREEMENT_REPLICAS,
                                     n_max=GAUSSIAN_N_MAX, seed=AGREEMENT_SEED)
            m["walk"]["record_raw"] = raw
            self.agreement_manifests.append(m)
        self.report = None
        self.ensemble = None
        self.agreement = None  # (raw, streaming, raw report, streaming report)

    def _simulate_and_report(self, manifest):
        spec, cfg = cli.manifest_walk_config(manifest)
        ens = walk.simulate(spec, cfg)
        rep = diagnostics.build_report(ens, n_boot=manifest["diagnostics"]["n_boot"])
        return ens, rep.as_dict()

    def _agreement_runs(self):
        (raw, raw_report), (streaming, streaming_report) = map(self._simulate_and_report,
                                                              self.agreement_manifests)
        return raw, streaming, raw_report, streaming_report

    def run(self):
        with _Tap() as tap:
            self.report = self._op(cli.run_simulate_manifest, self.manifest, self.out)
        self.ensemble = tap.ensemble
        self.agreement = self._op(self._agreement_runs)
        for m in (self.manifest, *self.agreement_manifests):
            self.replica_steps += m["walk"]["replicas"] * m["walk"]["n_max"]

    def check(self) -> list:
        checks = []
        if self.report is not None:
            spec = processes.spec_from_json(self.manifest["process"])
            beta = float(self.manifest["walk"]["beta"])
            checks += ensemble_variance_checks(
                "gaussian", self.ensemble,
                lambda n: spectral.spectral_convolve(spec.measure, n, beta))
            verdict = json.loads((self.out / "report.json").read_text())["summability"]["verdict"]
            checks.append(Check("gaussian.summability", verdict == "summable-evidence", verdict))
        if self.agreement is not None:
            # the agreement is the operation's own outcome: a disagreement
            # fails the operation rather than the run's correctness
            bad = [c for c in agreement_checks(*self.agreement) if not c.ok]
            for c in bad:
                print(f"agreement operation failed: {c.name} {c.detail}", file=sys.stderr)
            self.disagreed = int(bool(bad))
        return checks


WORKLOADS = {
    "fejer-engine": FejerEngine,
    "sofic-report": SoficReport,
    "gaussian-stream": GaussianStream,
}
