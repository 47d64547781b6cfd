"""Stationary increment processes with known covariance and mixing structure.

Each family is one spec class derived from :class:`ProcessFamily`, the only
place that knows its JSON kind, covariances, spectral measure, batch state
and batch size; the engine and the predictor reach it only through these.
Five families cover the example classes the diagnostics are aimed at:

* ``IID`` -- independent increments (complex Gaussian / Rademacher /
  uniform on the circle); trivially mixing.
* ``MovingAverage`` -- finite moving average of i.i.d. standard normal
  drivers; m-dependent, so the strong-mixing coefficient vanishes beyond
  the dependence range.
* ``MarkovChain`` -- function of a finite stationary Markov chain
  (exponentially mixing); covers shift-of-finite-type symbol processes via
  :func:`parry_chain`.
* ``GaussianSpectral`` -- stationary Gaussian process synthesized from a
  prescribed spectral measure by circulant embedding (density part) plus
  independent random harmonics (atoms).
* ``Rotation`` -- deterministic trigonometric polynomial sampled along an
  irrational rotation with a uniformly random initial phase; purely
  discrete spectrum.

Streams are bit-reproducible: (spec, seed, replica) fully determines the
emitted sequence, independent of how it is chunked into ``take`` calls.
Replica streams use a counter-based generator keyed by (seed, replica), so
ensembles can be generated in any batch decomposition.

A batch state's ``emit(count)`` returns a ``(replicas, count)`` array whose
row r is the next ``count`` values of replica r.  The result may be a
transposed view of a time-major buffer (Markov chains and rotations step
all replicas at once, so the walk's per-step column read is contiguous);
callers must not assume C order or write into it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .spectral import (
    GRID_SIZE_DEFAULT,
    CovarianceSequence,
    HalfPowerSingularity,
    SpectralError,
    SpectralMeasure,
    covariance_from_measure,
)

TWO_PI = 2.0 * math.pi

#: the Gaussian synthesis and the moving-average and rotation emits work on
#: blocks of about SCRATCH_VALUES values, so their temporaries stay that size
#: whatever the batch; a block's rows are computed exactly as a whole batch's
SCRATCH_VALUES = 1 << 17

IID_LAWS = ("complex-gaussian", "rademacher", "uniform-circle")


class ConfigError(ValueError):
    """Bad user input: a process spec, a walk setting, a manifest or a
    command-line value.  The command line reports it with exit code 2."""


class SpecError(ConfigError):
    """Invalid process specification."""


class StreamExhausted(RuntimeError):
    """A window-limited stream was asked for values beyond its window."""


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def derive_key(seed: int, replica: int = 0) -> int:
    """128-bit Philox key for (seed, replica); replicas are parallel streams."""
    return ((int(seed) & (2 ** 64 - 1)) << 64) | (int(replica) & (2 ** 64 - 1))


_PHILOX_ZEROS = (0, 0, 0, 0)


def make_generator(seed: int, replica: int = 0, reuse=None) -> np.random.Generator:
    """The Philox generator of (seed, replica).

    ``reuse``, a generator over Philox, is re-keyed in place and returned
    instead of building a new one.  Philox is counter-based, so a stream
    depends only on its key and counter: key (seed, replica), counter 0 and
    an empty output buffer give the same stream as a fresh generator,
    whatever state ``reuse`` was left in.
    """
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=derive_key(seed, replica)))
    mask = 2 ** 64 - 1
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        # derive_key's 128-bit key as its low and high 64-bit words
        "state": {"counter": _PHILOX_ZEROS, "key": (int(replica) & mask, int(seed) & mask)},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


class ProcessFamily:
    """Base of the process specs.  ``class Foo(ProcessFamily, kind="foo")``
    registers a family for :func:`spec_from_json`; it defines
    ``_covariances(ks)`` (complex r[k] at ks = 0..k_max), ``spectral_measure``,
    ``batch_state(gens, embedding=None)`` (whose ``emit(count)`` gives the
    next values of one stream per generator), ``to_json`` (``kind``
    included) and the classmethod ``from_json``.
    """

    #: replicas per engine batch unless the run sets its own batch size
    BATCH_SIZE: ClassVar[int] = 8192
    _families: ClassVar[dict] = {}

    def __init_subclass__(cls, kind: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind
        ProcessFamily._families[kind] = cls

    def covariance_sequence(self, k_max: int) -> CovarianceSequence:
        """Closed-form r[k] = E(X_k conj(X_0)) for k = 0..k_max."""
        k_max = int(k_max)
        if k_max < 0:
            raise ValueError("k_max must be >= 0")
        return CovarianceSequence(self._covariances(np.arange(k_max + 1)))

    def embedding_args(self, n_max: int):
        """``(measure, window, field)`` the engine embeds once per run of ``n_max``
        steps and hands to every batch state, or None."""
        return None


@dataclass(frozen=True)
class IID(ProcessFamily, kind="iid"):
    law: str = "complex-gaussian"
    variance: float = 1.0

    def __post_init__(self):
        if self.law not in IID_LAWS:
            raise SpecError(f"unknown IID law {self.law!r}; choose from {IID_LAWS}")
        if self.law != "complex-gaussian" and self.variance != 1.0:
            raise SpecError(f"{self.law} increments have fixed unit variance")
        if not (self.variance > 0.0):
            raise SpecError("variance must be positive")

    def _covariances(self, ks):
        r = np.zeros(ks.size, dtype=complex)
        r[0] = self.variance
        return r

    def spectral_measure(self, grid_size=GRID_SIZE_DEFAULT):
        return SpectralMeasure.flat(self.variance, grid_size)

    def batch_state(self, gens, embedding=None):
        return _IIDState(self, gens)

    def to_json(self):
        return {"kind": self.kind, "law": self.law, "variance": self.variance}

    @classmethod
    def from_json(cls, doc):
        return cls(doc.get("law", "complex-gaussian"), _read(doc, "variance", _number, 1.0))


@dataclass(frozen=True)
class MovingAverage(ProcessFamily, kind="ma"):
    """X_k = sum_j coeffs[j] * eps_{k-j} with eps i.i.d. standard normal."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(v) for v in self.coeffs)
        if not c:
            raise SpecError("moving average needs at least one coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _covariances(self, ks):
        th = np.asarray(self.coeffs, dtype=complex)
        r = np.zeros(ks.size, dtype=complex)
        for k in range(min(ks.size - 1, self.order) + 1):
            r[k] = np.sum(th[k:] * np.conj(th[: th.size - k]))
        return r

    def spectral_measure(self, grid_size=GRID_SIZE_DEFAULT):
        return SpectralMeasure.from_covariance(self.covariance_sequence(self.order).r, grid_size)

    def batch_state(self, gens, embedding=None):
        return _MAState(self, gens)

    def to_json(self):
        return {"kind": self.kind, "coeffs": [_complex_out(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple(_read(doc, "coeffs", _complexes)))


@dataclass
class MarkovChain(ProcessFamily, kind="markov"):
    """Complex-valued function of a stationary finite Markov chain.

    Emits values[state] - mean when ``centered`` (the default), so the
    increment process has zero mean; set ``centered=False`` to emit the raw
    values for exploration.
    """

    transition: np.ndarray
    stationary: np.ndarray
    values: np.ndarray
    centered: bool = True

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=float)
        pi = np.asarray(self.stationary, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise SpecError("transition must be a square matrix")
        s = P.shape[0]
        if pi.shape != (s,) or v.shape != (s,):
            raise SpecError("stationary vector and values must match the state count")
        if P.min() < -1e-15:
            raise SpecError("transition probabilities must be nonnegative")
        if np.abs(P.sum(axis=1) - 1.0).max() > 1e-10:
            raise SpecError("transition rows must sum to 1")
        if pi.min() < -1e-15 or abs(pi.sum() - 1.0) > 1e-10:
            raise SpecError("stationary vector must be a probability vector")
        if np.abs(pi @ P - pi).max() > 1e-12:
            raise SpecError("stationary vector does not satisfy pi P = pi")
        self.transition = np.maximum(P, 0.0)
        self.stationary = np.maximum(pi, 0.0)
        self.values = v

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def mean(self) -> complex:
        return complex(self.stationary @ self.values)

    def _covariances(self, ks):
        d = self.values - self.mean if self.centered else self.values
        w = self.stationary * np.conj(d)
        r = np.empty(ks.size, dtype=complex)
        u = d.copy()
        for k in range(ks.size):
            r[k] = w @ u
            u = self.transition @ u
        return r

    def spectral_measure(self, grid_size=GRID_SIZE_DEFAULT):
        if not self.centered:
            raise SpecError("spectral measure of an uncentered chain has a mean atom; center it")
        r0 = covariance(self, 0)
        k = 16
        while k < 4096:
            r = self.covariance_sequence(k).r
            if abs(r[-1]) < 1e-16 * max(abs(r0), 1e-30):
                break
            k *= 2
        return SpectralMeasure.from_covariance(r, grid_size)

    def batch_state(self, gens, embedding=None):
        return _MarkovState(self, gens)

    def to_json(self):
        return {
            "kind": self.kind,
            "transition": self.transition.tolist(),
            "stationary": self.stationary.tolist(),
            "values": [_complex_out(v) for v in self.values],
            "centered": self.centered,
        }

    @classmethod
    def from_json(cls, doc):
        """``stationary`` may be left out: it is then solved from ``transition``."""
        P = _read(doc, "transition", _floats)
        if "stationary" in doc:
            pi = _read(doc, "stationary", _floats)
        else:
            evals, vecs = np.linalg.eig(P.T)
            pi = vecs[:, int(np.argmax(evals.real))].real
            pi = np.abs(pi) / np.abs(pi).sum()
        vals = np.asarray(_read(doc, "values", _complexes))
        return cls(P, pi, vals, centered=doc.get("centered", True))


@dataclass
class GaussianSpectral(ProcessFamily, kind="gaussian-spectral"):
    """Stationary Gaussian process with prescribed spectral measure.

    ``field="real"`` symmetrizes the measure at construction (a real process
    forces a reflection-symmetric spectral measure) and emits real values;
    ``field="complex"`` emits a proper complex Gaussian process from the
    measure as given.  The stream realizes exactly ``window`` values.
    """

    # a batch holds ``window`` values per replica; 512 stays because the
    # batch plan fixes the reduction order, and so the output bits
    BATCH_SIZE = 512

    measure: SpectralMeasure
    window: int
    field: str = "real"

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise SpecError(f"field must be 'real' or 'complex', got {self.field!r}")
        if int(self.window) < 2:
            raise SpecError("window must be at least 2")
        self.window = int(self.window)
        if self.measure.total_mass() <= 0.0:
            raise SpecError("spectral measure must have positive total mass")
        if self.field == "real":
            self.measure = self.measure.symmetrized()

    def _covariances(self, ks):
        r = _measure_covariances(self.measure, ks)
        if self.field == "real":
            if np.abs(r.imag).max() > 1e-9 * max(1.0, abs(r[0])):
                raise SpecError("real-field measure produced complex covariances")
            r = r.real.astype(complex)
        return r

    def spectral_measure(self, grid_size=GRID_SIZE_DEFAULT):
        return self.measure

    def batch_state(self, gens, embedding=None):
        return _GaussianSpectralState(self, gens, embedding)

    def embedding_args(self, n_max):
        if self.window < n_max:
            raise ConfigError(
                f"gaussian-spectral window {self.window} is shorter than n_max {n_max}"
            )
        return self.measure, self.window, self.field

    def to_json(self):
        m = self.measure
        out = {
            "kind": self.kind,
            "window": self.window,
            "field": self.field,
            "atoms": [[w, mass] for w, mass in m.atoms],
        }
        if m.singularities:
            out["singularities"] = [[s.center, s.coeff] for s in m.singularities]
        out["density"] = m.density.tolist()
        return out

    @classmethod
    def from_json(cls, doc):
        """The density may be a grid array or one of the closed-form names
        ``"flat"`` (with ``mass``) and ``"singular-half-power"`` (with
        ``beta0``)."""
        dens = doc.get("density", "flat")
        grid = _read(doc, "grid_size", int, GRID_SIZE_DEFAULT)
        atoms = _read(doc, "atoms", _pairs(float), ())
        if dens == "flat":
            m = SpectralMeasure(np.full(grid, _read(doc, "mass", float, 1.0)), atoms=atoms)
        elif dens == "singular-half-power":
            m = SpectralMeasure.singular_half_power(_read(doc, "beta0", float), grid)
            if atoms:
                m = SpectralMeasure(m.density, atoms=atoms, singularities=m.singularities)
        else:
            sings = tuple(HalfPowerSingularity(c, co)
                          for c, co in _read(doc, "singularities", _pairs(_number), ()))
            m = SpectralMeasure(_read(doc, "density", _floats), atoms=atoms, singularities=sings)
        return cls(m, _read(doc, "window", int), doc.get("field", "real"))


@dataclass(frozen=True)
class Rotation(ProcessFamily, kind="rotation"):
    """X_k = g(theta0 + k*alpha) with g a trigonometric polynomial.

    theta0 is uniform on the circle (drawn once per stream), alpha is a
    fixed rotation number supplied as a float -- exact irrationality is not
    certifiable from a float, which only matters if one needs the rational
    case excluded arithmetically.  ``fourier`` maps harmonic j to its
    coefficient, so the spectral measure is atoms |c_j|^2 at j*alpha.
    """

    alpha: float
    fourier: tuple = ((1, 1.0 + 0j),)

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(np.mod(self.alpha, TWO_PI)))
        items = tuple(sorted((int(j), complex(c)) for j, c in dict(self.fourier).items()))
        if not items:
            raise SpecError("rotation process needs at least one Fourier coefficient")
        object.__setattr__(self, "fourier", items)

    def _covariances(self, ks):
        r = np.zeros(ks.size, dtype=complex)
        for j, c in self.fourier:
            r += (abs(c) ** 2) * np.exp(1j * ks * j * self.alpha)
        return r

    def spectral_measure(self, grid_size=GRID_SIZE_DEFAULT):
        masses: dict = {}
        for j, c in self.fourier:
            w = float(np.mod(j * self.alpha, TWO_PI))
            masses[w] = masses.get(w, 0.0) + abs(c) ** 2
        return SpectralMeasure(np.zeros(grid_size), atoms=tuple(sorted(masses.items())))

    def batch_state(self, gens, embedding=None):
        return _RotationState(self, gens)

    def to_json(self):
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "fourier": {str(j): _complex_out(c) for j, c in self.fourier},
        }

    @classmethod
    def from_json(cls, doc):
        return cls(_read(doc, "alpha", float), _read(doc, "fourier", _harmonics))


def covariance(spec: ProcessFamily, k: int) -> complex:
    """Closed-form covariance at a single lag k >= 0."""
    if k < 0:
        raise ValueError("negative lag: use conjugate symmetry at the call site")
    return complex(spec.covariance_sequence(k).r[k])


def spectral_measure(spec: ProcessFamily, grid_size: int = GRID_SIZE_DEFAULT) -> SpectralMeasure:
    """The spectral measure of the family, oriented so that
    covariance(spec, k) == integral exp(+ikx) dm(x)."""
    return spec.spectral_measure(grid_size)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


class _IIDState:
    """Real laws emit float64 rows; the walk recursion upcasts on the fly."""

    def __init__(self, spec: IID, gens):
        self.spec = spec
        self.gens = gens

    def emit(self, count: int) -> np.ndarray:
        law, var = self.spec.law, self.spec.variance
        real = law == "rademacher"
        out = np.empty((len(self.gens), count), dtype=float if real else complex)
        pairs = out.view(float)  # a row's (re, im) pairs, in draw order
        for i, g in enumerate(self.gens):
            if law == "complex-gaussian":
                g.standard_normal(out=pairs[i])
            elif real:
                out[i] = 2.0 * g.integers(0, 2, count) - 1.0
            else:  # uniform-circle
                out[i] = np.exp(1j * TWO_PI * g.random(count))
        if law == "complex-gaussian":
            pairs *= math.sqrt(var / 2.0)
        return out


class _MAState:
    def __init__(self, spec: MovingAverage, gens):
        self.spec = spec
        self.gens = gens
        self.real = all(c.imag == 0.0 for c in spec.coeffs)
        q = spec.order
        self.tail = np.stack([g.standard_normal(q) for g in gens]) if q else np.zeros((len(gens), 0))

    def emit(self, count: int) -> np.ndarray:
        q = self.spec.order
        full = np.empty((len(self.gens), q + count))
        full[:, :q] = self.tail
        for i, g in enumerate(self.gens):
            g.standard_normal(out=full[i, q:])
        out = np.zeros((len(self.gens), count), dtype=float if self.real else complex)
        rows = _rows(count)
        for r in range(0, len(self.gens), rows):
            for j, c in enumerate(self.spec.coeffs):
                view = full[r : r + rows, q - j : q - j + count]
                out[r : r + rows] += (c.real * view) if self.real else (c * view)
        if q:
            self.tail = full[:, -q:].copy()
        return out


class _MarkovState:
    def __init__(self, spec: MarkovChain, gens):
        self.spec = spec
        self.gens = gens
        self.cum = np.cumsum(spec.transition, axis=1)
        cum_pi = np.cumsum(spec.stationary)
        u0 = np.array([g.random() for g in gens])
        self.states = np.minimum(np.searchsorted(cum_pi, u0, side="right"), spec.n_states - 1)
        emitted = spec.values - (spec.mean if spec.centered else 0.0)
        self.emitted = emitted.real if np.all(emitted.imag == 0.0) else emitted

    def emit(self, count: int) -> np.ndarray:
        B = len(self.gens)
        u = np.empty((B, count))
        for i, g in enumerate(self.gens):
            g.random(out=u[i])
        u = np.ascontiguousarray(u.T)
        out = np.empty((count, B), dtype=self.emitted.dtype)
        # the next state counts the CDF columns below u; a CDF row never
        # decreases, so counting all S columns and clipping to S-1 is the
        # same as counting the first S-1
        cols = list(self.cum.T[:-1])
        s = self.states
        for t in range(count):
            ut = u[t]
            nxt = np.zeros(B, dtype=np.intp)
            for col in cols:
                nxt += ut > col[s]
            s = nxt
            out[t] = self.emitted[s]
        self.states = s
        return out.T


def _measure_covariances(measure: SpectralMeasure, ks) -> np.ndarray:
    """``covariance_from_measure``, whose one failure, a lag past the range
    the measure's grid resolves, means the spec's window or ``n_max`` is too
    long: it is raised as a SpecError."""
    try:
        return covariance_from_measure(measure, ks)
    except SpectralError as exc:
        raise SpecError(str(exc)) from exc


class _SpectralEmbedding:
    """Circulant embedding of the density-part covariance of a measure.

    The embedding size starts at the first power of two >= 2 * window for a
    real field (the minimal embedding, whose circulant already holds every
    lag of the window) and >= 4 * window for a complex one; it doubles while
    the circulant eigenvalues dip below -1e-10 times the top eigenvalue
    (cap 2**22), and residual negative eigenvalues are clipped to 0.  A real
    field keeps the size/2 + 1 eigenvalues of its even circulant.
    """

    CAP = 2 ** 22
    NEG_TOL = 1e-10

    def __init__(self, measure: SpectralMeasure, window: int, field: str):
        self.window = window
        self.field = field
        density_part = SpectralMeasure(
            measure.density, atoms=(), singularities=measure.singularities
        )
        self.has_density = density_part.total_mass() > 0.0
        self.atoms = measure.atoms
        if not self.has_density:
            self.size = 0
            self.sqrt_lam = np.zeros(0)
            return
        factor = 2 if field == "real" else 4
        size = 2 ** max(3, int(math.ceil(math.log2(factor * window))))
        while True:
            r = _measure_covariances(density_part, np.arange(size // 2 + 1))
            row = np.empty(size, dtype=complex)
            row[: size // 2 + 1] = r
            # the Nyquist lag pairs with itself, so it must be real for the
            # circulant to be Hermitian; lag size/2 >= window never enters
            # the realized window, so dropping its imaginary part is free
            row[size // 2] = r[size // 2].real
            row[size // 2 + 1 :] = np.conj(r[1 : size // 2])[::-1]
            # a real field's row is real and even, so its spectrum is real
            # and symmetric: the first size/2 + 1 eigenvalues are all of them
            lam = np.fft.rfft(row.real) if field == "real" else np.fft.fft(row)
            if np.abs(lam.imag).max() > 1e-8 * max(1.0, np.abs(lam.real).max()):
                raise SpecError("circulant eigenvalues came out complex; bad measure")
            lam = lam.real
            worst = lam.min()
            if worst >= -self.NEG_TOL * lam.max():
                break
            if size >= self.CAP:
                raise SpecError(
                    f"circulant embedding failed at cap {self.CAP}: most negative "
                    f"eigenvalue {worst:.3e} (top {lam.max():.3e})"
                )
            size *= 2
        self.size = size
        self.sqrt_lam = np.sqrt(np.maximum(lam, 0.0))

    def sample(self, gens) -> np.ndarray:
        """One path of ``window`` values per generator.

        The density part is synthesized a sub-block of replicas at a time in
        one reused buffer of about SCRATCH_VALUES noise values; a replica's
        row comes out the same in any sub-block.  Each replica draws its
        density noise first, then one pair of normals per atom, in atom
        order.  A real field draws ``size`` real normals and computes
        ``irfft(sqrt(lam) * rfft(noise))``; a complex field draws ``size``
        complex normals (real and imaginary part of each in turn) and
        computes ``sqrt(size) * ifft(sqrt(lam) * noise)``.
        """
        real = self.field == "real"
        B, N = len(gens), self.window
        out = np.zeros((B, N), dtype=float if real else complex)
        if self.has_density:
            rows = _rows(self.size)
            buf = np.empty((min(rows, B), self.size), dtype=float if real else complex)
            for lo in range(0, B, rows):
                hi = min(lo + rows, B)
                noise = buf[: hi - lo]
                draws = noise.view(float)  # a complex row's (re, im) pairs, in draw order
                for i, g in enumerate(gens[lo:hi]):
                    g.standard_normal(out=draws[i])
                if real:
                    spectrum = np.fft.rfft(noise, axis=1)
                    spectrum *= self.sqrt_lam
                    # irfft's 1/size is the circulant's own normalization
                    paths = np.fft.irfft(spectrum, n=self.size, axis=1)
                    del spectrum
                    out[lo:hi] = paths[:, :N]
                else:
                    noise /= math.sqrt(2.0)
                    np.multiply(self.sqrt_lam, noise, out=noise)
                    paths = np.fft.ifft(noise, axis=1)
                    paths *= math.sqrt(self.size)
                    out[lo:hi] += paths[:, :N]
                del paths  # before the next sub-block's transform is allocated
        ks = np.arange(N)
        for omega, mass in self.atoms:
            amp = math.sqrt(mass)
            if real:
                cos, sin = np.cos(ks * omega), np.sin(ks * omega)
            else:
                harmonic = np.exp(1j * ks * omega)
            for i, g in enumerate(gens):
                a, b = g.standard_normal(2)
                if real:
                    out[i] += amp * (a * cos + b * sin)
                else:
                    out[i] += amp * ((a + 1j * b) / math.sqrt(2.0)) * harmonic
        return out


class _GaussianSpectralState:
    def __init__(self, spec: GaussianSpectral, gens, embedding=None):
        self.spec = spec
        if embedding is None:
            embedding = _SpectralEmbedding(spec.measure, spec.window, spec.field)
        self.paths = embedding.sample(gens)
        self.pos = 0

    def emit(self, count: int) -> np.ndarray:
        if self.pos + count > self.spec.window:
            raise StreamExhausted(
                f"gaussian-spectral stream realizes {self.spec.window} values; "
                f"increase window to consume {self.pos + count}"
            )
        out = self.paths[:, self.pos : self.pos + count]
        self.pos += count
        return out


class _RotationState:
    def __init__(self, spec: Rotation, gens):
        self.spec = spec
        self.theta0 = np.array([TWO_PI * g.random() for g in gens])
        self.pos = 0

    def emit(self, count: int) -> np.ndarray:
        ks = np.arange(self.pos, self.pos + count)
        out = np.zeros((count, len(self.theta0)), dtype=complex)
        rows = _rows(len(self.theta0))
        for j, c in self.spec.fourier:
            # e^{ij(theta0 + k alpha)} factors into an outer product; numpy's
            # complex multiply is not bitwise commutative, so the replica
            # factor stays the left operand
            phase0 = c * np.exp(1j * j * self.theta0)
            phasek = np.exp(1j * j * self.spec.alpha * ks)
            for t in range(0, count, rows):
                out[t : t + rows] += phase0[None, :] * phasek[t : t + rows, None]
        self.pos += count
        return out.T


def _rows(width: int) -> int:
    """Rows of ``width`` values in one block of about SCRATCH_VALUES."""
    return max(1, SCRATCH_VALUES // max(width, 1))


def _batch_state(spec: ProcessFamily, gens, embedding=None):
    """The family's batch state; the engine builds every batch through this name."""
    return spec.batch_state(gens, embedding)


class IncrementStream:
    """Deterministic stream of increments; (spec, seed, replica) fixes the output.

    ``take(n)`` returns the next n values; chunking never changes the
    sequence.
    """

    def __init__(self, spec, seed: int, replica: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self.replica = int(replica)
        self._state = spec.batch_state([make_generator(seed, replica)])

    def take(self, n: int) -> np.ndarray:
        n = int(n)
        if n < 0:
            raise ValueError("cannot take a negative number of values")
        out = self._state.emit(n)[0] if n else np.zeros(0, dtype=complex)
        return out.astype(complex, copy=False)


def make_stream(spec, seed: int, replica: int = 0) -> IncrementStream:
    """Build a stream positioned at k = 0 (Markov chains start stationary)."""
    if not isinstance(spec, ProcessFamily):
        raise SpecError(f"not a process spec: {type(spec).__name__}")
    return IncrementStream(spec, seed, replica)


# ---------------------------------------------------------------------------
# shift-of-finite-type chains
# ---------------------------------------------------------------------------


def _is_primitive(adj: np.ndarray) -> bool:
    s = adj.shape[0]
    reach = adj > 0
    power = reach.copy()
    # Wielandt bound: a primitive matrix has a fully positive power by s^2-2s+2
    for _ in range(s * s - 2 * s + 2):
        if power.all():
            return True
        power = (power @ reach) > 0
    return bool(power.all())


def parry_chain(adjacency, values, centered: bool = True) -> MarkovChain:
    """Markov chain of maximal entropy on the paths of a 0/1 adjacency matrix.

    With Perron data A v = lam v and u A = lam u the transition matrix is
    p[s,t] = A[s,t] v[t] / (lam v[s]) and the stationary vector is
    proportional to u[s] v[s].  Requires an irreducible, aperiodic matrix.
    """
    A = np.asarray(adjacency, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpecError("adjacency must be square")
    if not np.isin(A, (0.0, 1.0)).all():
        raise SpecError("adjacency entries must be 0 or 1")
    if not _is_primitive(A):
        raise SpecError("adjacency must be irreducible and aperiodic (primitive)")
    evals, vecs = np.linalg.eig(A)
    i = int(np.argmax(evals.real))
    lam = float(evals[i].real)
    v = vecs[:, i].real
    v = v * np.sign(v[np.argmax(np.abs(v))])
    evals_l, vecs_l = np.linalg.eig(A.T)
    j = int(np.argmax(evals_l.real))
    u = vecs_l[:, j].real
    u = u * np.sign(u[np.argmax(np.abs(u))])
    if v.min() <= 0 or u.min() <= 0:
        raise SpecError("Perron vectors are not strictly positive; adjacency not primitive")
    P = A * v[None, :] / (lam * v[:, None])
    P /= P.sum(axis=1, keepdims=True)  # absorb roundoff
    pi = u * v
    pi /= pi.sum()
    vals = np.asarray([values[s] for s in range(A.shape[0])], dtype=complex) \
        if not isinstance(values, np.ndarray) else np.asarray(values, dtype=complex)
    return MarkovChain(P, pi, vals, centered=centered)


def golden_mean_spec(values=(1.0, -1.0), centered: bool = True) -> MarkovChain:
    """The 2-state chain forbidding the word (b, b), with maximal-entropy weights."""
    return parry_chain(np.array([[1, 1], [1, 0]]), np.asarray(values, dtype=complex),
                       centered=centered)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _complex_out(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _complex_in(v) -> complex:
    if isinstance(v, (list, tuple)):
        re, im = v
        return complex(re, im)
    return complex(v)


# parsers of one JSON value, for _read


def _number(v):
    """``v`` itself, if it is a number."""
    if not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return v


def _floats(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def _complexes(v) -> list:
    return [_complex_in(c) for c in v]


def _pairs(parse):
    return lambda v: tuple((parse(a), parse(b)) for a, b in v)


def _harmonics(v) -> tuple:
    return tuple((int(j), _complex_in(c)) for j, c in v.items())


_REQUIRED = object()


def _read(doc: dict, key: str, parse, default=_REQUIRED):
    """``parse(doc[key])``, or ``default`` when the key is absent and optional.

    A value ``parse`` cannot take raises SpecError naming the key.  Only the
    parse runs under the ``except``: the family's own validation, and any
    fault past it, keep their own exceptions.
    """
    if key not in doc:
        if default is _REQUIRED:
            raise SpecError(f"{doc.get('kind')} spec is missing {key!r}")
        return default
    try:
        return parse(doc[key])
    except (TypeError, ValueError, AttributeError) as exc:
        raise SpecError(f"{doc.get('kind')} spec key {key!r}: {exc}") from exc


def spec_from_json(doc) -> ProcessFamily:
    """Parse the documented JSON wire format into a process spec; the
    object's ``kind`` selects the family."""
    if not isinstance(doc, dict):
        raise SpecError(f"a process spec is a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in ProcessFamily._families:
        raise SpecError(f"unknown process kind {kind!r}")
    try:
        return ProcessFamily._families[kind].from_json(doc)
    except SpectralError as exc:  # a measure built from the document's values
        raise SpecError(f"{kind} spec: {exc}") from exc
