"""Tests of the benchmark itself: every correctness check rejects a
deliberately perturbed answer, and the command prints exactly the workload
and metric names that BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest bench/test_benchmark.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def failing(checks, prefix):
    return [c.name for c in checks if not c.ok and c.name.startswith(prefix)]


def assert_all_pass(checks):
    assert checks and all(c.ok for c in checks), [(c.name, c.detail) for c in checks if not c.ok]


# ---------------------------------------------------------------------------
# fejer-engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fejer(tmp_path_factory):
    wl = workloads.FejerEngine(3, tmp_path_factory.mktemp("fejer"))
    wl.run()
    return wl


def test_fejer_unperturbed_passes(fejer):
    assert (fejer.attempted, fejer.failed) == (8, 0)
    assert_all_pass(fejer.check())


def test_fejer_rejects_wrong_variance(fejer):
    ens = fejer.ensembles[0]
    saved = ens.moment_sums[256].copy()
    ens.moment_sums[256][2] *= 1.5
    try:
        bad = failing(fejer.check(), "fejer.")
        assert len(bad) == 1 and bad[0].startswith("fejer.iid") and "variance[n=256]" in bad[0]
    finally:
        ens.moment_sums[256] = saved


def test_fejer_rejects_wrong_position(fejer):
    ens = fejer.ensembles[4]
    ens.samples[256][1] += 1e-6
    try:
        bad = failing(fejer.check(), "fejer.")
        assert len(bad) == 1 and bad[0].startswith("fejer.golden-mean") and "position[r=1]" in bad[0]
    finally:
        ens.samples[256][1] -= 1e-6


def test_fejer_rejects_wrong_predictor(fejer, monkeypatch):
    orig = workloads.spectral.predicted_variance
    monkeypatch.setattr(workloads.spectral, "predicted_variance",
                        lambda *a: orig(*a) * (1 + 1e-4))
    checks = fejer.check()
    identity = [c.name for c in checks if ".identity[" in c.name]
    assert identity and set(identity) <= set(failing(checks, "fejer."))


# ---------------------------------------------------------------------------
# sofic-report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sofic(tmp_path_factory):
    wl = workloads.SoficReport(5, tmp_path_factory.mktemp("sofic"))
    wl.run()
    return wl


def test_sofic_unperturbed_passes(sofic):
    assert (sofic.attempted, sofic.failed) == (2, 0)
    assert_all_pass(sofic.check())


def edit(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return text


def test_sofic_rejects_identity_gap(sofic):
    path = sofic.curves / "variance_curve.csv"
    gap = workloads.csv_header(path)["max_rel_identity_gap"]
    saved = edit(path, f"max_rel_identity_gap={gap}", "max_rel_identity_gap=1e-05")
    try:
        assert failing(sofic.check(), "sofic.") == ["sofic.curve_identity_gap"]
    finally:
        path.write_text(saved)


def test_sofic_rejects_wrong_label(sofic):
    path = sofic.sofic / "report.json"
    saved = edit(path, '"label": "recurrence-evidence"', '"label": "inconclusive"')
    try:
        assert failing(sofic.check(), "sofic.") == ["sofic.label"]
    finally:
        path.write_text(saved)


def test_sofic_rejects_wrong_sha(sofic):
    path = sofic.sofic / "smallball.csv"
    want = workloads.manifest_sha(sofic.sofic / "manifest.json")
    saved = edit(path, want, "0" * 64)
    try:
        assert failing(sofic.check(), "sha256") == ["sha256[sofic/smallball.csv]"]
    finally:
        path.write_text(saved)


def test_sofic_rejects_wrong_variance(sofic):
    m = sofic.ensemble.moment_sums[64]
    m[2] *= 0.5
    try:
        assert failing(sofic.check(), "sofic.") == ["sofic.variance[n=64]"]
    finally:
        m[2] /= 0.5


# ---------------------------------------------------------------------------
# gaussian-stream
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gaussian(tmp_path_factory):
    wl = workloads.GaussianStream(7, tmp_path_factory.mktemp("gaussian"))
    wl.run()
    return wl


def test_gaussian_checks_pass_and_agreement_fails_today(gaussian):
    assert_all_pass(gaussian.check())
    assert (gaussian.attempted, gaussian.failed) == (2, 1)
    # the streaming report has no standard error for the return increment
    bad = failing(workloads.agreement_checks(*gaussian.agreement), "agree.")
    assert bad == ["agree.returns"]


def test_gaussian_rejects_wrong_variance(gaussian):
    m = gaussian.ensemble.moment_sums[256]
    m[2] *= 1.5
    try:
        assert failing(gaussian.check(), "gaussian.") == ["gaussian.variance[n=256]"]
    finally:
        m[2] /= 1.5


def test_gaussian_rejects_wrong_verdict(gaussian):
    path = gaussian.out / "report.json"
    report = json.loads(path.read_text())
    saved = path.read_text()
    report["summability"]["verdict"] = "inconclusive"
    path.write_text(json.dumps(report))
    try:
        assert failing(gaussian.check(), "gaussian.") == ["gaussian.summability"]
    finally:
        path.write_text(saved)


def test_agreement_passes_once_modes_agree_and_rejects_each_difference(gaussian):
    raw, streaming, raw_report, streaming_report = gaussian.agreement
    fixed = json.loads(json.dumps(streaming_report["returns"]))
    fixed["increment_se"] = raw_report["returns"]["increment_se"]
    agreed = dict(streaming_report, returns=fixed)
    assert_all_pass(workloads.agreement_checks(raw, streaming, raw_report, agreed))

    n = raw.checkpoints[-1]
    perturbations = {
        "agree.counts": (streaming.scaled_counts[n], 0, 1),
        "agree.moments": (streaming.moment_sums[n], 2, 1e-6),
        "agree.cf_sums": (streaming.ecf_sums[n], 5, 1e-6),
        "agree.dense_unscaled": (streaming.dense_unscaled[n], 0, 1),
    }
    for name, (arr, i, delta) in perturbations.items():
        arr[i] += delta
        try:
            bad = failing(workloads.agreement_checks(raw, streaming, raw_report, agreed), "agree.")
            assert bad and all(b.startswith(name) for b in bad), (name, bad)
        finally:
            arr[i] -= delta
    relabelled = dict(agreed, label="recurrence-evidence" if agreed["label"] != "recurrence-evidence"
                      else "inconclusive")
    bad = failing(workloads.agreement_checks(raw, streaming, raw_report, relabelled), "agree.")
    assert bad == ["agree.label"]


def test_variance_check_tolerance_is_six_standard_errors():
    R = 10_000
    for excess, ok in ((5.9, True), (6.1, False)):
        mc = 1.0 + excess / math.sqrt(R)
        # E|z|^4 - mc^2 = 1: one standard error is 1/sqrt(R)
        assert workloads.variance_check("v", mc, 1.0 + mc * mc, R, 1.0).ok is ok


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match_the_code():
    spec = bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_names_match_benchmark_json(workload):
    spec = bench_spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
        assert proc.returncode == 0
        out = last_json(proc.stdout)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["attempted"] >= 1
        assert {n: m["unit"] for n, m in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_package(tmp_path):
    spec = bench_spec()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "fejer-engine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
