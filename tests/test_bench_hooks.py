"""The traced benchmark wraps module attributes of the package by name
(``bench/tracing.py``); every name it wraps must exist, and the engine and
the command line must still call through them."""

from pathlib import Path

import pytest

from twistwalk import cli, processes, walk

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_install_and_restore(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.restore()
    assert walk._batch_state is processes._batch_state
    assert cli.measure_of is processes.spectral_measure


def test_spans_recorded_through_the_hooks(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        spec = cli.example_manifest("gaussian-transient", replicas=4, n_max=64)["process"]
        cfg = walk.WalkConfig(beta=2.0, n_max=64, replicas=4, seed=1)
        walk.simulate(processes.spec_from_json(spec), cfg)
        assert cli.main(["spectral", "--process", "golden-mean-parry", "--n-max", "64",
                         "--betas", "1.0", "--out", str(tmp_path / "curve")]) == 0
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("processes.generator_init", "processes.state_init", "processes.emit",
                 "processes.embedding_build", "spectral.covariance", "walk.run_batch",
                 "walk.merge", "walk.simulate", "spectral.variance_curve",
                 "processes.measure", "cli.write", "cli.main"):
        assert name in names, name
    assert tracer.counts["embedding_size"] > 0
