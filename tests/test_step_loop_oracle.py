"""The blocked walk loop and the time-major emits, bit for bit against oracles.

``_oracle_run_batch`` is the walk loop written one step at a time: a
(B, E) ball broadcast per step and the checkpoint reductions in the step
that reaches them.  ``simulate`` must reproduce every array of the
``CheckpointEnsemble`` it yields exactly, for every process family, in raw
and streaming mode, with and without dense tables, for one radius and
several, with checkpoints on block and chunk boundaries and batches of one
and of odd size.  The ``_oracle_*_emit`` functions are the increment
generators written replica-major, one replica or one step at a time.
"""

import math

import numpy as np
import pytest

from twistwalk import walk
from twistwalk.processes import (
    IID,
    GaussianSpectral,
    MarkovChain,
    MovingAverage,
    Rotation,
    _batch_state,
    golden_mean_spec,
    make_generator,
    make_stream,
)
from twistwalk.spectral import SpectralMeasure
from twistwalk.walk import WalkConfig, simulate


def _three_state_chain() -> MarkovChain:
    P = np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.6, 0.3, 0.1]])
    evals, vecs = np.linalg.eig(P.T)
    pi = np.abs(vecs[:, int(np.argmax(evals.real))].real)
    return MarkovChain(P, pi / pi.sum(), np.array([1.0, 1j, -1.0 - 0.5j]))


def _gaussian_with_atom(window: int) -> GaussianSpectral:
    m = SpectralMeasure.singular_half_power(2.0, 512)
    return GaussianSpectral(
        SpectralMeasure(m.density, atoms=((1.0, 0.5),), singularities=m.singularities), window)


# each builds its spec for a run of n steps (only the Gaussian window needs n)
FAMILIES = {
    "iid-complex-gaussian": lambda n: IID("complex-gaussian", 2.5),
    "iid-rademacher": lambda n: IID("rademacher"),
    "iid-uniform-circle": lambda n: IID("uniform-circle"),
    "ma-real": lambda n: MovingAverage((1, 1)),
    "ma-complex": lambda n: MovingAverage((1, 0.5j, -0.3 + 0.2j)),
    "golden-mean": lambda n: golden_mean_spec(),
    "markov-3-state": lambda n: _three_state_chain(),
    "rotation-harmonics": lambda n: Rotation(math.sqrt(2.0), ((1, 1.0), (2, 0.5 - 0.25j), (-3, 0.3j))),
    "gaussian-spectral": lambda n: _gaussian_with_atom(n),
}

# blocks hold min(256, 2**16 // B) steps and chunks max(256, min(4096, 2**23 // B))
CASES = {
    # batches of 13, 13 and 11 replicas; geometric checkpoints, five radii
    "raw-dense-odd-batches": dict(beta=0.7, n_max=600, replicas=37, seed=3, batch_size=13),
    # batches of one replica, one radius, no dense tables
    "streaming-single-replica-batches": dict(
        beta=1.9, n_max=300, replicas=5, seed=4, batch_size=1, checkpoints=(1, 17, 256, 300),
        eta_grid=(0.5,), dense_counts=False, record_raw=False),
    # checkpoints on both sides of block (256) and chunk (4096) boundaries
    "raw-dense-chunk-boundary": dict(
        beta=2.2, n_max=4500, replicas=3, seed=5,
        checkpoints=(1, 255, 256, 257, 4095, 4096, 4097, 4500),
        eta_grid=(0.5, 2.0, 8.0), dense_counts=True, record_raw=True),
    # 218-step blocks for 300 replicas, cut by checkpoints
    "streaming-dense-block-boundary": dict(
        beta=0.3, n_max=700, replicas=300, seed=6, checkpoints=(218, 219, 436, 650, 700),
        dense_counts=True, record_raw=False),
}


def _oracle_run_batch(spec, cfg, lo, hi, embedding):
    gens = [make_generator(cfg.seed, r) for r in range(lo, hi)]
    state = _batch_state(spec, gens, embedding)
    B = hi - lo
    acc = walk._BatchAccumulator(cfg, B)
    eta2 = np.asarray(cfg.eta_grid, dtype=float) ** 2
    c = complex(math.cos(cfg.beta.value), math.sin(cfg.beta.value))
    S = np.zeros(B, dtype=complex)
    returns = np.zeros((B, eta2.size), dtype=np.int32)
    cps = {n: ci for ci, n in enumerate(cfg.checkpoints)}
    n_mid = walk.mid_checkpoint(cfg.checkpoints)
    n = 0
    chunk = max(256, min(4096, (1 << 23) // B))
    while n < cfg.n_max:
        count = min(chunk, cfg.n_max - n)
        X = state.emit(count)
        for t in range(count):
            S *= c
            S += X[:, t]
            n += 1
            a2 = S.real * S.real + S.imag * S.imag
            hits = a2[:, None] <= eta2[None, :]
            returns += hits
            if acc.dense_unscaled is not None:
                acc.dense_unscaled[n] += hits.sum(axis=0)
                acc.dense_scaled[n] += (a2[:, None] <= n * eta2[None, :]).sum(axis=0)
            if n in cps:
                ci = cps[n]
                scaled = S / math.sqrt(n)
                sa2 = a2 / n
                acc.scaled_counts[ci] += (sa2[:, None] <= eta2[None, :]).sum(axis=0)
                acc.unscaled_counts[ci] += hits.sum(axis=0)
                acc.return_count_sums[ci] += returns.sum(axis=0, dtype=np.int64)
                acc.moment_sums[ci] += (scaled.real.sum(), scaled.imag.sum(),
                                        sa2.sum(), (sa2 * sa2).sum())
                acc.max_abs[ci] = max(acc.max_abs[ci], float(np.sqrt(a2.max())))
                if n == n_mid:
                    mid_returns = returns.copy()
                if n == cfg.checkpoints[-1]:
                    d = returns.astype(np.int64) - mid_returns
                    acc.return_increment_sq += (d * d).sum(axis=0)
                if acc.samples is not None:
                    acc.samples[n] = scaled.copy()
                if acc.ecf_sums is not None:
                    t_grid = cfg.ecf_tgrid
                    acc.ecf_sums[ci] += np.exp(1j * (np.outer(scaled.real, t_grid.real)
                                                     + np.outer(scaled.imag, t_grid.imag))).sum(axis=0)
    return acc


ARRAY_FIELDS = ("dense_scaled", "dense_unscaled", "ecf_tgrid", "return_increment_sq")
DICT_FIELDS = ("samples", "scaled_counts", "unscaled_counts",
               "return_count_sums", "moment_sums", "max_abs", "rotation", "ecf_sums")


def _assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engine_matches_per_step_oracle(family, case, monkeypatch):
    kw = CASES[case]
    spec = FAMILIES[family](kw["n_max"])
    ens = simulate(spec, WalkConfig(**kw))
    monkeypatch.setattr(walk, "_run_batch", _oracle_run_batch)
    ref = simulate(spec, WalkConfig(**kw))
    assert ens.mode == ref.mode
    for name in ARRAY_FIELDS:
        got, want = getattr(ens, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        if want is not None:
            _assert_same(got, want)
    for name in DICT_FIELDS:
        got, want = getattr(ens, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert list(got) == list(want), name
            for n in want:
                _assert_same(got[n], want[n])


# ---------------------------------------------------------------------------
# emits
# ---------------------------------------------------------------------------


def _oracle_complex_gaussian_emit(gens, count, var):
    out = np.empty((len(gens), count), dtype=complex)
    for i, g in enumerate(gens):
        z = g.standard_normal((count, 2))
        out[i] = (z[:, 0] + 1j * z[:, 1]) * math.sqrt(var / 2.0)
    return out


def _oracle_markov_emit(spec, gens, count):
    """All S CDF columns compared per step, clipped to the last state."""
    cum = np.cumsum(spec.transition, axis=1)
    u0 = np.array([g.random() for g in gens])
    s = np.minimum(np.searchsorted(np.cumsum(spec.stationary), u0, side="right"),
                   spec.n_states - 1)
    u = np.stack([g.random(count) for g in gens])
    emitted = spec.values - spec.mean
    emitted = emitted.real if np.all(emitted.imag == 0.0) else emitted
    out = np.empty((len(gens), count), dtype=emitted.dtype)
    for t in range(count):
        s = np.minimum((u[:, t, None] > cum[s]).sum(axis=1), spec.n_states - 1)
        out[:, t] = emitted[s]
    return out


def _oracle_rotation_emit(spec, gens, count):
    theta0 = np.array([2.0 * math.pi * g.random() for g in gens])
    ks = np.arange(count)
    out = np.zeros((len(gens), count), dtype=complex)
    for j, c in spec.fourier:
        out += c * np.exp(1j * j * theta0)[:, None] * np.exp(1j * j * spec.alpha * ks)[None, :]
    return out


@pytest.mark.parametrize("family", ["iid-complex-gaussian", "golden-mean", "markov-3-state",
                                    "rotation-harmonics"])
def test_time_major_emit_matches_replica_major_oracle(family):
    spec = FAMILIES[family](0)
    gens = [make_generator(11, r) for r in range(9)]
    got = _batch_state(spec, gens).emit(301)
    gens = [make_generator(11, r) for r in range(9)]
    if family == "iid-complex-gaussian":
        want = _oracle_complex_gaussian_emit(gens, 301, spec.variance)
    elif family == "rotation-harmonics":
        want = _oracle_rotation_emit(spec, gens, 301)
    else:
        want = _oracle_markov_emit(spec, gens, 301)
    _assert_same(got, want)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_emit_rows_are_replica_streams(family):
    # a batch of replicas 4..10, in two emits, is the stack of their streams
    spec = FAMILIES[family](700)
    state = _batch_state(spec, [make_generator(21, r) for r in range(4, 11)])
    first = state.emit(300)
    batch = np.concatenate([first, state.emit(400)], axis=1)
    assert batch.shape == (7, 700) and first.shape == (7, 300)
    rows = np.stack([make_stream(spec, 21, replica=r).take(700) for r in range(4, 11)])
    assert np.array_equal(batch.astype(complex), rows)
