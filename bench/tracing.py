"""Spans at the package's layer boundaries, recorded from outside the package.

``install`` replaces the module attributes through which one layer calls
the next with wrappers that time each call.  A span's self time is its
duration minus that of the spans it directly contains; a layer's self time
is the sum over its spans.  Durations are CPU seconds of the process, like
``run_s``.  Spans are kept in memory and reduced at the
end of the run.  Nothing under ``src/`` is changed.

Layers are the package modules.  ``group`` is not one: at run time it only
does ``Angle`` arithmetic.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

LAYERS = ("processes", "walk", "diagnostics", "spectral", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, duration, time in direct children]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``, whose
        layer is the name's first component.  ``after(result, args)`` runs
        outside the span, to record counts."""
        fn = getattr(owner, attr)
        layer = name.split(".", 1)[0]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0]
            stack.append(span)
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time() - t0
                stack.pop()
                if stack:
                    stack[-1][3] += span[2]
                spans.append(span)
            if after is not None:
                after(result, args)
            return result

        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def total(self, name: str) -> float:
        return sum(s[2] for s in self.spans if s[0] == name)

    def self_time(self, name: str | None = None, layer: str | None = None) -> float:
        return sum(s[2] - s[3] for s in self.spans
                   if (name is None or s[0] == name) and (layer is None or s[1] == layer))


_MISSING = object()


def install(tracer: Tracer) -> None:
    """Wrap every boundary the workloads cross."""
    from twistwalk import cli, diagnostics, processes, walk

    counts = tracer.counts

    def count_emitted(out, args):
        counts["increments"] += out.size

    def count_batch(acc, args):
        cfg, lo, hi = args[1:4]
        counts["batches"] += 1
        counts["replica_steps"] += (hi - lo) * cfg.n_max

    def embedding_size(emb, args):
        counts["embedding_size"] = max(counts["embedding_size"], emb.size)

    def bytes_at(index):
        def record(result, args):
            counts["bytes_written"] += os.path.getsize(args[index])
        return record

    # walk -> processes
    tracer.wrap(walk, "make_generator", "processes.generator_init")
    tracer.wrap(walk, "_batch_state", "processes.state_init")
    for cls in (processes._IIDState, processes._MAState, processes._MarkovState,
                processes._GaussianSpectralState, processes._RotationState):
        tracer.wrap(cls, "emit", "processes.emit", after=count_emitted)
    tracer.wrap(walk, "_SpectralEmbedding", "processes.embedding_build", after=embedding_size)
    # processes -> spectral
    tracer.wrap(processes, "covariance_from_measure", "spectral.covariance")
    # into walk: from cli, and from the workloads themselves
    tracer.wrap(walk, "_run_batch", "walk.run_batch", after=count_batch)
    tracer.wrap(walk, "_merge", "walk.merge")
    tracer.wrap(walk, "simulate", "walk.simulate")
    tracer.wrap(cli, "simulate", "walk.simulate")
    # into diagnostics
    tracer.wrap(cli, "build_report", "diagnostics.report")
    tracer.wrap(diagnostics, "build_report", "diagnostics.report")
    for fn in ("rotation_invariance_noise_floor", "divisibility_noise_floor"):
        tracer.wrap(diagnostics, fn, "diagnostics.noise_floor")
    for fn in ("rotation_invariance_stat", "divisibility_stat",
               "rotation_invariance_from_sums", "divisibility_from_sums"):
        tracer.wrap(diagnostics, fn, "diagnostics.structure_stat")
    tracer.wrap(diagnostics, "_z_for", "diagnostics.quantile")
    # cli -> spectral, processes
    tracer.wrap(cli, "predicted_variance", "spectral.variance_curve")
    tracer.wrap(cli, "spectral_convolve", "spectral.variance_curve")
    tracer.wrap(cli, "measure_of", "processes.measure")
    # cli writers; the variance curve writes through a method of its class
    tracer.wrap(cli, "write_json", "cli.write", after=bytes_at(0))
    tracer.wrap(cli, "_ensemble_csv", "cli.write", after=bytes_at(0))
    tracer.wrap(cli, "_smallball_csv", "cli.write", after=bytes_at(0))
    tracer.wrap(cli.VarianceCurve, "write_csv", "cli.write", after=bytes_at(1))
    # cli entry points
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_simulate_manifest", "cli.run_simulate_manifest")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """The per-layer numbers of one traced run, in seconds and counts."""
    c = tracer.counts
    emit_s = tracer.total("processes.emit")
    step_loop_s = tracer.self_time(name="walk.run_batch")
    layer_self = {layer: tracer.self_time(layer=layer) for layer in LAYERS}
    out = {
        "processes.emit_s": emit_s,
        "processes.increments_per_s": _rate(c["increments"], emit_s),
        "processes.generator_init_s": tracer.total("processes.generator_init"),
        "processes.state_init_s": tracer.total("processes.state_init"),
        "processes.embedding_build_s": tracer.total("processes.embedding_build"),
        "processes.embedding_size": c["embedding_size"],
        "walk.step_loop_s": step_loop_s,
        "walk.replica_steps_per_s": _rate(c["replica_steps"], step_loop_s),
        "walk.merge_s": tracer.total("walk.merge"),
        "walk.batches": c["batches"],
        "diagnostics.report_s": tracer.total("diagnostics.report"),
        "diagnostics.noise_floor_s": tracer.total("diagnostics.noise_floor"),
        "diagnostics.structure_stat_s": tracer.total("diagnostics.structure_stat"),
        "diagnostics.quantile_s": tracer.total("diagnostics.quantile"),
        "spectral.variance_curve_s": tracer.total("spectral.variance_curve"),
        "spectral.covariance_s": tracer.total("spectral.covariance"),
        "cli.write_s": tracer.total("cli.write"),
        "cli.bytes_written": c["bytes_written"],
    }
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    out["trace.unattributed_s"] = run_s - sum(layer_self.values())
    return out
