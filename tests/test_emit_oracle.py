"""The blocked increment emits, bit for bit against their whole-batch forms.

``_SpectralEmbedding.sample`` synthesizes a sub-block of replicas at a
time, and the moving-average and rotation emits accumulate over blocks of
rows, so that no temporary grows with the batch.  The ``_oracle_*``
functions below are the whole-batch forms they replace: every replica's
embedding noise in one array, and each coefficient or harmonic added to the
whole chunk at once.  The blocked forms must give the same bits for every
batch size, over consecutive emits, and for any block size.  A second group
bounds the memory each emit holds while it runs, as ``tracemalloc`` sees
numpy's buffers.
"""

import math
import tracemalloc

import numpy as np
import pytest

from twistwalk import processes
from twistwalk.processes import (
    IID,
    GaussianSpectral,
    MovingAverage,
    Rotation,
    _SpectralEmbedding,
    golden_mean_spec,
    make_generator,
)
from twistwalk.spectral import SpectralMeasure


def _oracle_sample(emb, gens):
    real = emb.field == "real"
    B, N = len(gens), emb.window
    out = np.zeros((B, N), dtype=float if real else complex)
    if emb.has_density and real:
        noise = np.stack([g.standard_normal(emb.size) for g in gens])
        spectrum = emb.sqrt_lam * np.fft.rfft(noise, axis=1)
        out[:] = np.fft.irfft(spectrum, n=emb.size, axis=1)[:, :N]
    elif emb.has_density:
        noise = np.empty((B, emb.size), dtype=complex)
        for i, g in enumerate(gens):
            z = g.standard_normal((emb.size, 2))
            noise[i] = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        out += np.fft.ifft(emb.sqrt_lam * noise, axis=1)[:, :N] * math.sqrt(emb.size)
    ks = np.arange(N)
    for omega, mass in emb.atoms:
        amp = math.sqrt(mass)
        for i, g in enumerate(gens):
            a, b = g.standard_normal(2)
            if real:
                out[i] += amp * (a * np.cos(ks * omega) + b * np.sin(ks * omega))
            else:
                out[i] += amp * ((a + 1j * b) / math.sqrt(2.0)) * np.exp(1j * ks * omega)
    return out


def _oracle_ma_emit(state, count):
    q = state.spec.order
    full = np.empty((len(state.gens), q + count))
    full[:, :q] = state.tail
    for i, g in enumerate(state.gens):
        g.standard_normal(out=full[i, q:])
    out = np.zeros((len(state.gens), count), dtype=float if state.real else complex)
    for j, c in enumerate(state.spec.coeffs):
        view = full[:, q - j : q - j + count]
        out += (c.real * view) if state.real else (c * view)
    if q:
        state.tail = full[:, -q:].copy()
    return out


def _oracle_rotation_emit(state, count):
    ks = np.arange(state.pos, state.pos + count)
    out = np.zeros((count, len(state.theta0)), dtype=complex)
    for j, c in state.spec.fourier:
        phase0 = c * np.exp(1j * j * state.theta0)
        phasek = np.exp(1j * j * state.spec.alpha * ks)
        out += phase0[None, :] * phasek[:, None]
    state.pos += count
    return out.T


def _with_atom(field):
    dens = np.full(64, 0.5) if field == "real" else np.linspace(0.2, 1.0, 64)
    return GaussianSpectral(SpectralMeasure(dens, atoms=((0.7, 1.0),)), 400, field)


SPECS = {
    "gauss-real-atom": lambda: _with_atom("real"),
    "gauss-complex-atom": lambda: _with_atom("complex"),
    "gauss-singular-5000": lambda: GaussianSpectral(SpectralMeasure.singular_half_power(2.0),
                                                    5000),
    "ma-complex": lambda: MovingAverage((1, 0.5j, -0.3)),
    "ma-real-order-0": lambda: MovingAverage((2.0,)),
    "rotation-3-harmonics": lambda: Rotation(math.sqrt(2.0),
                                             ((1, 1.0), (-2, 0.5 - 0.25j), (3, 0.3j))),
}
BATCHES = (1, 3, 70, 515)
EMITS = (5, 130, 200)

_EMBEDDINGS = {}


def _embedding(name, spec):
    if name not in _EMBEDDINGS:
        _EMBEDDINGS[name] = _SpectralEmbedding(spec.measure, spec.window, spec.field)
    return _EMBEDDINGS[name]


def _gens(B, seed=13):
    return [make_generator(seed, r) for r in range(B)]


def _emits_and_oracle(name, B):
    """Consecutive emits of the engine's batch state and of the oracle."""
    spec = SPECS[name]()
    if isinstance(spec, GaussianSpectral):
        emb = _embedding(name, spec)
        state = spec.batch_state(_gens(B), emb)
        whole = _oracle_sample(emb, _gens(B))
        ends = np.cumsum((0,) + EMITS)
        return ([state.emit(n) for n in EMITS],
                [whole[:, a:b] for a, b in zip(ends[:-1], ends[1:])])
    oracle = {MovingAverage: _oracle_ma_emit, Rotation: _oracle_rotation_emit}[type(spec)]
    state, twin = spec.batch_state(_gens(B)), spec.batch_state(_gens(B))
    return [state.emit(n) for n in EMITS], [oracle(twin, n) for n in EMITS]


@pytest.mark.parametrize("B", BATCHES)
@pytest.mark.parametrize("name", SPECS)
def test_emits_match_whole_batch_oracle(name, B):
    got, want = _emits_and_oracle(name, B)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _block_width(name):
    """Values per row of the family's blocks at B = 7 and a 130-value emit."""
    spec = SPECS[name]()
    if isinstance(spec, GaussianSpectral):
        return _embedding(name, spec).size
    return 130 if isinstance(spec, MovingAverage) else 7


@pytest.mark.parametrize("rows", (1, 3, 7))
@pytest.mark.parametrize("name", ("gauss-real-atom", "gauss-complex-atom", "ma-complex",
                                  "rotation-3-harmonics"))
def test_block_size_never_changes_a_bit(name, rows, monkeypatch):
    """Blocks of 1, 3 and all 7 rows of one batch give the oracle's bits."""
    monkeypatch.setattr(processes, "SCRATCH_VALUES", rows * _block_width(name))
    spec = SPECS[name]()
    if isinstance(spec, GaussianSpectral):
        emb = _embedding(name, spec)
        got = emb.sample(_gens(7))
        assert np.array_equal(got, _oracle_sample(emb, _gens(7)))
    else:
        oracle = {MovingAverage: _oracle_ma_emit, Rotation: _oracle_rotation_emit}[type(spec)]
        got = spec.batch_state(_gens(7)).emit(130)
        assert np.array_equal(got, oracle(spec.batch_state(_gens(7)), 130))


# -- working set --------------------------------------------------------------

#: the per-replica and per-step vectors an emit also makes (a few times
#: B + count values) and numpy's ufunc buffers (8192 values per operand)
SLACK = 1 << 19


def _traced_peak(fn):
    """(result, bytes allocated at the peak of ``fn()`` above its start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# each family's state at B = 1024, and the bytes besides its output that one
# 512-value emit must hold: the padded normals of a moving average, the
# uniforms of a Markov chain
WORKING_SETS = {
    "iid-complex-gaussian": (IID(), 0),
    "iid-uniform-circle": (IID("uniform-circle"), 0),
    "ma-complex": (MovingAverage((1, 0.5j, -0.3)), 1024 * (2 + 512) * 8),
    "ma-real": (MovingAverage((1.0, -0.4)), 1024 * (1 + 512) * 8),
    "golden-mean": (golden_mean_spec(), 1024 * 512 * 8),
    "rotation-3-harmonics": (SPECS["rotation-3-harmonics"](), 0),
}


@pytest.mark.parametrize("name", WORKING_SETS)
def test_emit_holds_output_inputs_and_one_block(name):
    spec, held = WORKING_SETS[name]
    state = spec.batch_state(_gens(1024))
    out, peak = _traced_peak(lambda: state.emit(512))
    scratch = processes.SCRATCH_VALUES * out.itemsize
    assert peak <= out.nbytes + held + scratch + SLACK, (
        f"peak {peak / 2**20:.2f} MiB for an output of {out.nbytes / 2**20:.2f} MiB")


def test_sample_holds_output_and_one_sub_block():
    spec = GaussianSpectral(SpectralMeasure.singular_half_power(2.0), 1024)
    emb = _SpectralEmbedding(spec.measure, spec.window, spec.field)
    gens = _gens(512)
    out, peak = _traced_peak(lambda: emb.sample(gens))
    rows = processes._rows(emb.size)
    # the sub-block's real noise, its half spectrum (size/2 + 1 complex
    # values a row) and the inverse transform numpy returns
    sub_block = 3 * rows * emb.size * 8
    assert peak <= out.nbytes + sub_block + SLACK, (
        f"peak {peak / 2**20:.2f} MiB for an output of {out.nbytes / 2**20:.2f} MiB")
