"""Fejer kernel, spectral measures on the circle, and the variance predictor.

Conventions, fixed once and verified numerically by the test suite (the
mirror orientation would satisfy the same identity; reports echo the choice):

    r[k]       = E(X_k * conj(X_0)) = integral exp(+i k x) dm(x)
    v(n, beta) = sum_{|k|<n} (1 - |k|/n) r[k] exp(-i k beta)
               = (m * K_{n-1})(e^{i beta})

with K_{n-1}(e^{ix}) = sin^2(nx/2) / (n sin^2(x/2)) the Fejer kernel,
which is nonnegative and integrates to 1 against normalized Haar measure.
``v(n, beta)`` equals (1/n) E|S_n|^2 for the twisted walk with increment
covariance r and twist angle beta.

A measure is stored as a density sampled on a uniform grid (values taken
with respect to *normalized* Haar measure, piecewise-linear in between),
plus point masses, plus optional tagged half-power singularities
``coeff * dist(x, center)^(-1/2)``.  Grid quadrature badly underestimates
the mass near an integrable singularity, which is exactly the mass that
drives super-diffusive variance growth, so the singular component is
integrated in closed form (Fresnel integrals) instead of on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import fresnel

TWO_PI = 2.0 * math.pi

GRID_SIZE_DEFAULT = 2 ** 14
_REFINE_CAP = 2 ** 20


class SpectralError(ValueError):
    """Inconsistent spectral data (missing lags, orientation residuals, ...)."""


def fejer(n: int, x) -> np.ndarray | float:
    """Fejer kernel K_{n-1} evaluated at e^{ix}.

    Returns sin^2(nx/2) / (n sin^2(x/2)) with the removable singularity at
    x = 0 (mod 2*pi) evaluating to n exactly.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    xa = np.asarray(x, dtype=float)
    wrapped = np.mod(xa + np.pi, TWO_PI) - np.pi
    s = np.sin(wrapped / 2.0)
    num = np.sin(n * wrapped / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = num / (n * s * s)
    out = np.where(s == 0.0, float(n), val)
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HalfPowerSingularity:
    """Tagged density component coeff * dist(x, center)^(-1/2).

    ``dist`` is circular distance; the component is integrable with total
    mass coeff * 2 / sqrt(pi) against normalized Haar measure.
    """

    center: float
    coeff: float

    def __post_init__(self):
        object.__setattr__(self, "center", float(np.mod(self.center, TWO_PI)))
        if not (self.coeff >= 0.0):
            raise SpectralError(f"singularity coefficient must be >= 0, got {self.coeff!r}")


def _singular_transform(k, sing: HalfPowerSingularity) -> np.ndarray:
    """(1/2pi) * integral dist(x, center)^(-1/2) e^{ikx} dx, exactly.

    Splitting at the antipode and substituting u = v^2 reduces the integral
    to a Fresnel cosine integral:
        int_0^pi u^(-1/2) cos(k u) du = 2 sqrt(pi/(2k)) C(sqrt(2k)).
    """
    ks = np.asarray(k)
    out = np.empty(ks.shape, dtype=complex)
    zero = ks == 0
    out[zero] = 2.0 / math.sqrt(math.pi)
    kk = np.abs(ks[~zero]).astype(float)
    if kk.size:
        _, C = fresnel(np.sqrt(2.0 * kk))
        mag = np.sqrt(2.0 / (np.pi * kk)) * C
        out[~zero] = mag * np.exp(1j * ks[~zero] * sing.center)
    return sing.coeff * out


@dataclass
class SpectralMeasure:
    """Nonnegative measure on the circle: grid density + atoms + singular tags.

    ``density[m]`` is the regular density value at x_m = 2*pi*m/M with
    respect to normalized Haar measure; tagged singular components live
    *on top of* the stored density, which holds the smooth remainder.
    """

    density: np.ndarray
    atoms: tuple = ()
    singularities: tuple = ()

    def __post_init__(self):
        d = np.asarray(self.density, dtype=float)
        if d.ndim != 1 or d.size < 4:
            raise SpectralError("density must be a 1-D grid with at least 4 points")
        if not np.all(np.isfinite(d)):
            raise SpectralError("density values must be finite")
        if d.min() < -1e-12 * max(1.0, d.max()):
            raise SpectralError(f"density must be nonnegative, min={d.min()!r}")
        self.density = np.maximum(d, 0.0)
        atoms = tuple((float(np.mod(w, TWO_PI)), float(m)) for w, m in self.atoms)
        if any(m < 0.0 for _, m in atoms):
            raise SpectralError("atom masses must be nonnegative")
        self.atoms = atoms
        self.singularities = tuple(self.singularities)

    # -- constructors ------------------------------------------------------

    @classmethod
    def flat(cls, mass: float = 1.0, grid_size: int = GRID_SIZE_DEFAULT) -> "SpectralMeasure":
        return cls(np.full(grid_size, float(mass)))

    @classmethod
    def singular_half_power(cls, beta0: float, grid_size: int = GRID_SIZE_DEFAULT) -> "SpectralMeasure":
        """Density 1/|e^{ix} - e^{i beta0}|^(1/2) with the singularity tagged.

        The stored grid holds the smooth remainder
        (2 sin(d/2))^(-1/2) - d^(-1/2) >= 0 (d = circular distance to beta0);
        the d^(-1/2) part is carried exactly by the tag.
        """
        beta0 = float(np.mod(beta0, TWO_PI))
        x = TWO_PI * np.arange(grid_size) / grid_size
        d = np.abs(np.mod(x - beta0 + np.pi, TWO_PI) - np.pi)
        with np.errstate(divide="ignore"):
            rem = (2.0 * np.sin(d / 2.0)) ** -0.5 - d ** -0.5
        rem[d == 0.0] = 0.0
        return cls(rem, singularities=(HalfPowerSingularity(beta0, 1.0),))

    @classmethod
    def from_covariance(cls, r, grid_size: int = GRID_SIZE_DEFAULT) -> "SpectralMeasure":
        """Density sum_{|k|<=K} r[k] e^{-ikx} from a one-sided covariance tail.

        Requires geometric (or finite) decay of r so the trigonometric sum is
        an honest density; tiny negative excursions from roundoff are clipped.
        """
        r = np.asarray(r, dtype=complex)
        if 2 * r.size >= grid_size:
            raise SpectralError("grid too coarse for the covariance tail; increase grid_size")
        coeffs = np.zeros(grid_size, dtype=complex)
        coeffs[0] = r[0]
        ks = np.arange(1, r.size)
        coeffs[ks] = r[ks]
        coeffs[-ks] = np.conj(r[ks])
        # density(x_m) = sum_k c_k e^{-i k x_m}: a forward DFT of the c array
        dens = np.fft.fft(coeffs)
        if np.abs(dens.imag).max() > 1e-9 * max(1.0, np.abs(dens.real).max()):
            raise SpectralError("covariance tail is not Hermitian; density came out complex")
        vals = dens.real
        if vals.min() < -1e-9 * max(1.0, vals.max()):
            raise SpectralError(f"covariance tail is not positive definite (min density {vals.min()})")
        return cls(np.maximum(vals, 0.0))

    # -- geometry ----------------------------------------------------------

    @property
    def grid_size(self) -> int:
        return self.density.size

    @property
    def grid(self) -> np.ndarray:
        return TWO_PI * np.arange(self.grid_size) / self.grid_size

    def with_grid_size(self, grid_size: int) -> "SpectralMeasure":
        """Resample the (piecewise-linear) density onto a finer/coarser grid."""
        if grid_size == self.grid_size:
            return self
        xs = TWO_PI * np.arange(grid_size) / grid_size
        ext_x = np.concatenate([self.grid, [TWO_PI]])
        ext_v = np.concatenate([self.density, self.density[:1]])
        vals = np.interp(xs, ext_x, ext_v)
        return SpectralMeasure(vals, atoms=self.atoms, singularities=self.singularities)

    def total_mass(self) -> float:
        m = float(self.density.mean())
        m += sum(s.coeff * 2.0 / math.sqrt(math.pi) for s in self.singularities)
        m += sum(mass for _, mass in self.atoms)
        return m

    def symmetrized(self) -> "SpectralMeasure":
        """The reflection-symmetric average (m(dx) + m(-dx)) / 2.

        This is the spectral measure of the real process whose covariance is
        the real part of this measure's transform.  Atoms (and singularities)
        at one frequency merge into one, so a symmetric measure is a fixed
        point: symmetrizing it again returns the same components.
        """
        dens = 0.5 * (self.density + np.roll(self.density[::-1], 1))
        sings = _halves_at_reflections((s.center, s.coeff) for s in self.singularities)
        return SpectralMeasure(
            dens,
            atoms=tuple(_halves_at_reflections(self.atoms)),
            singularities=tuple(HalfPowerSingularity(c, coeff) for c, coeff in sings),
        )


def _reflect(w: float) -> float:
    return float(np.mod(-w, TWO_PI))


def _halves_at_reflections(parts) -> list:
    """Half of each (frequency, weight) at its frequency and half at its
    reflection, summed per frequency in first-seen order.

    2*pi - w rounds for w below pi, so reflecting twice can move w by an
    ulp; frequencies count as one when their double reflections agree
    (a double reflection is a fixed point of reflecting twice).
    """
    merged = {}
    for w, weight in parts:
        for x in (w, _reflect(w)):
            key = _reflect(_reflect(x))
            first, total = merged.get(key, (x, 0.0))
            merged[key] = (first, total + weight / 2.0)
    return list(merged.values())


def covariance_from_measure(m: SpectralMeasure, k) -> complex | np.ndarray:
    """Fourier coefficient(s) r[k] = integral exp(+i k x) dm(x).

    Accepts a scalar or an integer array; negative lags use the Hermitian
    symmetry of transforms of nonnegative measures.
    """
    ks = np.asarray(k)
    scalar = ks.ndim == 0
    ks = np.atleast_1d(ks).astype(int)
    kabs = np.abs(ks)
    kmax = int(kabs.max(initial=0))

    meas = m
    if 2 * kmax >= meas.grid_size:
        meas = m.with_grid_size(min(max(2 ** int(math.ceil(math.log2(2 * kmax + 2))), meas.grid_size), _REFINE_CAP))
        if 2 * kmax >= meas.grid_size:
            raise SpectralError(f"lag {kmax} exceeds resolvable range for grid size {meas.grid_size}")

    # (1/M) sum_m density_m e^{+i k x_m} is an inverse DFT of the grid values
    spectrum = np.fft.ifft(meas.density)
    out = spectrum[kabs % meas.grid_size].astype(complex)
    neg = ks < 0
    out[neg] = np.conj(out[neg])
    for s in m.singularities:
        out += _singular_transform(ks, s)
    for w, mass in m.atoms:
        out += mass * np.exp(1j * ks * w)
    if scalar:
        return complex(out[0])
    return out


def spectral_convolve(m: SpectralMeasure, n: int, beta) -> float:
    """(m * K_{n-1})(e^{i beta}): the Fejer average of the measure at beta.

    The grid density is integrated by periodic quadrature (refined when the
    kernel oscillates faster than the grid), tagged singular components via
    their exact Fourier coefficients, atoms via the kernel in closed form.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    b = _beta_value(beta)
    meas = m
    if 8 * n > meas.grid_size:
        meas = m.with_grid_size(min(2 ** int(math.ceil(math.log2(8 * n))), _REFINE_CAP))
    total = float(np.mean(meas.density * fejer(n, b - meas.grid)))
    if m.singularities:
        ks = np.arange(1, n)
        w = 1.0 - ks / n
        for s in m.singularities:
            rs = _singular_transform(ks, s)
            r0 = s.coeff * 2.0 / math.sqrt(math.pi)
            total += r0 + 2.0 * float(np.sum(w * np.real(rs * np.exp(-1j * ks * b))))
    for omega, mass in m.atoms:
        total += mass * fejer(n, b - omega)
    return total


@dataclass
class CovarianceSequence:
    """One-sided covariance sequence r[k] = E(X_k conj(X_0)), k = 0..K.

    r[0] must be real and nonnegative and |r[k]| <= r[0] (Cauchy-Schwarz);
    both are enforced up to a small numerical slack.
    """

    r: np.ndarray
    se: np.ndarray | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=complex)
        if r.ndim != 1 or r.size < 1:
            raise SpectralError("covariance sequence must be a nonempty 1-D array")
        r0 = r[0]
        tol = 1e-9 * max(1.0, abs(r0))
        if abs(r0.imag) > tol or r0.real < -tol:
            raise SpectralError(f"r[0] must be real and nonnegative, got {r0!r}")
        if np.abs(r).max() > abs(r0) * (1.0 + 1e-9) + tol:
            raise SpectralError("|r[k]| exceeds r[0]; not a covariance sequence")
        self.r = r
        if self.se is not None:
            self.se = np.asarray(self.se, dtype=float)

    def __len__(self) -> int:
        return self.r.size


def _beta_value(beta) -> float:
    if hasattr(beta, "value"):
        return float(beta.value)
    return float(beta)


def _resolve_covariances(r_or_spec, n: int) -> np.ndarray:
    if isinstance(r_or_spec, CovarianceSequence):
        r = r_or_spec.r
    elif isinstance(r_or_spec, np.ndarray):
        # raw arrays are taken as-is so the orientation residual check below
        # can catch inconsistent data instead of rejecting it silently here
        r = r_or_spec.astype(complex)
    else:
        return r_or_spec.covariance_sequence(n - 1).r
    if r.size < n:
        raise SpectralError(
            f"need covariances up to lag {n - 1}, sequence stops at lag {r.size - 1}"
        )
    return r


def predicted_variance(r_or_spec, beta, n: int) -> float:
    """Deterministic prediction of (1/n) E|S_n|^2 for twist angle beta.

    Evaluates the triangular sum sum_{|k|<n} (1-|k|/n) r[k] e^{-ik beta}
    with r[-k] = conj(r[k]).  The sum must come out (numerically) real; an
    imaginary residual above 1e-8 * r[0] aborts, since it indicates covariance
    data that violates the documented orientation convention.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = _resolve_covariances(r_or_spec, n)
    b = _beta_value(beta)
    ks = np.arange(1, n)
    w = 1.0 - ks / n
    total = complex(r[0])
    if n > 1:
        pos = np.sum(w * r[1:n] * np.exp(-1j * ks * b))
        neg = np.sum(w * np.conj(r[1:n]) * np.exp(1j * ks * b))
        total += pos + neg
    r0 = max(abs(r[0].real), 1e-30)
    if abs(total.imag) > 1e-8 * r0:
        raise SpectralError(
            f"variance predictor has imaginary residual {total.imag:.3e} "
            f"(> 1e-8 * r0); covariance orientation is inconsistent"
        )
    return float(total.real)


def empirical_autocovariance(samples, k_max: int, n_blocks: int = 64) -> CovarianceSequence:
    """Biased estimator r_hat[k] = (1/N) sum_j X_{j+k} conj(X_j), with SEs.

    Standard errors come from block means (n_blocks blocks), which keeps them
    honest for short-range-dependent series.  Note E r_hat[k] =
    (1 - k/N) r[k]: the estimator trades a small bias for |r_hat| <= r_hat[0].
    """
    x = np.asarray(samples, dtype=complex)
    n = x.size
    if k_max >= n:
        raise SpectralError(f"k_max={k_max} must be smaller than the sample length {n}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    r = np.empty(k_max + 1, dtype=complex)
    se = np.empty(k_max + 1, dtype=float)
    for k in range(k_max + 1):
        prod = x[k:] * np.conj(x[: n - k])
        r[k] = prod.sum() / n
        nb = min(n_blocks, prod.size)
        cut = (prod.size // nb) * nb
        bm = prod[:cut].reshape(nb, -1).mean(axis=1)
        se[k] = float(np.sqrt(np.mean(np.abs(bm - bm.mean()) ** 2) / nb)) * (prod.size / n)
    return CovarianceSequence(r, se=se)


@dataclass
class VarianceCurve:
    """Predicted variance over an (n, beta) grid."""

    ns: np.ndarray
    betas: np.ndarray
    predicted: np.ndarray  # shape (len(ns), len(betas))
    header: dict = field(default_factory=dict)

    def write_csv(self, path):
        # the empty mc_mean and mc_se columns keep the file's bytes fixed
        with open(path, "w") as fh:
            for key in sorted(self.header):
                fh.write(f"# {key}={self.header[key]}\n")
            fh.write("n,beta,predicted,mc_mean,mc_se\n")
            for i, n in enumerate(self.ns):
                for j, b in enumerate(self.betas):
                    fh.write(f"{int(n)},{float(b)!r},{float(self.predicted[i, j])!r},,\n")


CONVENTION_NOTE = (
    "r[k] = E(X_k conj(X_0)) = integral exp(+ikx) dm(x); "
    "v(n,beta) = sum_{|k|<n} (1-|k|/n) r[k] exp(-ik beta) = (m*K_{n-1})(e^{i beta})"
)
