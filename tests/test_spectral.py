import math

import numpy as np
import pytest
from scipy.integrate import quad

import twistwalk as tw
from twistwalk.spectral import (
    CovarianceSequence,
    SpectralError,
    SpectralMeasure,
    covariance_from_measure,
    empirical_autocovariance,
    fejer,
    predicted_variance,
    spectral_convolve,
)

TWO_PI = 2.0 * math.pi


class TestFejer:
    def test_value_at_zero_is_n(self):
        for n in (1, 2, 5, 64, 4097):
            assert fejer(n, 0.0) == float(n)
            assert fejer(n, TWO_PI) == float(n)

    def test_order_two_expansion(self):
        # K_1(e^{ix}) = 1 + cos x
        xs = np.linspace(-7, 7, 301)
        assert np.allclose(fejer(2, xs), 1 + np.cos(xs), atol=1e-12)
        assert fejer(2, math.pi) == pytest.approx(0.0, abs=1e-30)

    def test_unit_haar_integral(self):
        # periodic rectangle quadrature is exact for trig polynomials
        m = 1 << 15
        xs = TWO_PI * np.arange(m) / m
        for n in (5, 33, 700):
            assert np.mean(fejer(n, xs)) == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_and_order_one(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-20, 20, 2000)
        assert np.all(fejer(17, xs) >= 0.0)
        assert np.allclose(fejer(1, xs), 1.0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fejer(0, 0.1)


class TestPredictedVariance:
    def test_iid_is_flat(self):
        spec = tw.IID("complex-gaussian", variance=2.5)
        for n in (1, 2, 100):
            for beta in (0.0, 1.1, 5.0):
                assert predicted_variance(spec, beta, n) == pytest.approx(2.5, rel=1e-14)

    def test_ma1_closed_form(self):
        spec = tw.MovingAverage((1, 1))
        assert predicted_variance(spec, math.pi, 10) == pytest.approx(0.2, rel=1e-12)
        for n in (2, 7, 50):
            for beta in (0.3, 2.0, 4.4):
                expect = 2 + 2 * (1 - 1 / n) * math.cos(beta)
                assert predicted_variance(spec, beta, n) == pytest.approx(expect, rel=1e-12)

    def test_unit_atom_gives_kernel_peak(self):
        beta = 1.7
        m = SpectralMeasure(np.zeros(64), atoms=((beta, 1.0),))
        for n in (2, 16, 333):
            r = CovarianceSequence(covariance_from_measure(m, np.arange(n)))
            assert predicted_variance(r, beta, n) == pytest.approx(float(n), rel=1e-12)
            assert spectral_convolve(m, n, beta) == pytest.approx(float(n), rel=1e-12)

    def test_missing_lag_is_named(self):
        r = CovarianceSequence(np.array([1.0, 0.1, 0.05], dtype=complex))
        with pytest.raises(SpectralError, match="lag 4"):
            predicted_variance(r, 0.3, 5)

    def test_orientation_residual_aborts(self):
        bad = np.array([1.0 + 0.1j, 0.2], dtype=complex)
        with pytest.raises(SpectralError, match="residual"):
            predicted_variance(bad, 0.1, 2)
        with pytest.raises(SpectralError):
            CovarianceSequence(bad)  # the type itself also rejects complex r0


class TestCovarianceFromMeasure:
    def test_flat(self):
        m = SpectralMeasure.flat(1.0, 256)
        assert covariance_from_measure(m, 0) == pytest.approx(1.0)
        assert abs(covariance_from_measure(m, 1)) < 1e-14

    def test_atom_phase(self):
        w = 0.9
        m = SpectralMeasure(np.zeros(64), atoms=((w, 1.0),))
        for k in (1, 5, -3):
            assert covariance_from_measure(m, k) == pytest.approx(np.exp(1j * k * w), rel=1e-12)

    def test_singular_half_power_matches_adaptive_quadrature(self):
        b0 = 2.0
        m = SpectralMeasure.singular_half_power(b0)

        def oracle(k):
            f = lambda t: 1.0 / math.sqrt(2.0 * abs(math.sin((t - b0) / 2.0)))
            re, _ = quad(lambda t: math.cos(k * t) * f(t), 0, TWO_PI, points=[b0], limit=400)
            im, _ = quad(lambda t: math.sin(k * t) * f(t), 0, TWO_PI, points=[b0], limit=400)
            return complex(re, im) / TWO_PI

        for k in (0, 1, 5, 17, 32):
            assert abs(covariance_from_measure(m, k) - oracle(k)) < 1e-6

    def test_hermitian_symmetry(self):
        m = SpectralMeasure.singular_half_power(1.3)
        ks = np.arange(-8, 9)
        r = covariance_from_measure(m, ks)
        assert np.allclose(r[::-1], np.conj(r), atol=1e-12)


class TestFejerSumIdentity:
    @pytest.mark.parametrize(
        "name,spec",
        [
            ("iid", tw.IID("rademacher")),
            ("ma", tw.MovingAverage((1, 0.5 - 0.2j, -0.25))),
            ("golden-mean", None),  # built lazily: numpy arrays in dataclass
            ("rotation", tw.Rotation(alpha=math.sqrt(2), fourier=((1, 0.8), (2, 0.6)))),
            ("gaussian-singular", None),
        ],
    )
    def test_identity_on_grid(self, name, spec):
        if name == "golden-mean":
            spec = tw.golden_mean_spec()
        if name == "gaussian-singular":
            spec = tw.GaussianSpectral(
                SpectralMeasure.singular_half_power(2.0), window=8, field="real"
            )
        measure = tw.spectral_measure(spec)
        betas = np.linspace(0, TWO_PI, 17)[:-1]
        for n in 2 ** np.arange(1, 11):
            for beta in betas:
                pv = predicted_variance(spec, beta, int(n))
                sc = spectral_convolve(measure, int(n), beta)
                assert abs(pv - sc) <= 1e-6 * max(abs(sc), 1e-12), (name, n, beta)


class TestSpectralConvolve:
    def test_flat_measure_is_constant_one(self):
        m = SpectralMeasure.flat(1.0)
        for n in (1, 8, 4096):
            for beta in (0.0, 2.2):
                assert spectral_convolve(m, n, beta) == pytest.approx(1.0, abs=1e-10)

    def test_lebesgue_point_convergence(self):
        # smooth density: the Fejer average tends to the density value
        h = lambda x: 1.0 + 0.5 * np.cos(x) + 0.25 * np.sin(2 * x)
        m = SpectralMeasure(h(TWO_PI * np.arange(1 << 14) / (1 << 14)))
        for beta in np.linspace(0.1, TWO_PI - 0.1, 16):
            assert abs(spectral_convolve(m, 1 << 14, beta) - h(beta)) < 1e-2

    def test_singular_growth_rate(self):
        b0 = 2.0
        m = SpectralMeasure.singular_half_power(b0)
        ns = 2 ** np.arange(6, 15)
        v = np.array([spectral_convolve(m, int(n), b0) for n in ns])
        ratio = v / np.sqrt(ns)
        assert ratio.min() / np.median(ratio) > 0.5
        slope = np.polyfit(np.log(ns), np.log(ns * v), 1)[0]
        assert 1.4 <= slope <= 1.6


class TestMeasureType:
    def test_density_validation(self):
        with pytest.raises(SpectralError):
            SpectralMeasure(np.array([1.0, -0.5, 1.0, 1.0]))
        with pytest.raises(SpectralError):
            SpectralMeasure(np.array([1.0, np.inf, 1.0, 1.0]))
        with pytest.raises(SpectralError):
            SpectralMeasure(np.ones(16), atoms=((0.1, -1.0),))

    def test_total_mass(self):
        m = SpectralMeasure(np.ones(128), atoms=((0.3, 0.5),))
        assert m.total_mass() == pytest.approx(1.5)
        s = SpectralMeasure.singular_half_power(1.0, 1 << 12)
        # mass of (2 sin(d/2))^(-1/2) over normalized Haar
        ref, _ = quad(lambda t: 1 / math.sqrt(2 * abs(math.sin((t - 1.0) / 2))), 0, TWO_PI,
                      points=[1.0], limit=200)
        assert s.total_mass() == pytest.approx(ref / TWO_PI, rel=1e-6)

    def test_symmetrized_transform_is_real(self):
        m = SpectralMeasure.singular_half_power(2.0).symmetrized()
        r = covariance_from_measure(m, np.arange(6))
        assert np.abs(r.imag).max() < 1e-12
        assert m.total_mass() == pytest.approx(
            SpectralMeasure.singular_half_power(2.0).total_mass(), rel=1e-9
        )

    def test_from_covariance_rejects_non_psd(self):
        with pytest.raises(SpectralError):
            SpectralMeasure.from_covariance(np.array([1.0, 0.9, 0.9]), 64)


class TestEmpiricalAutocovariance:
    def test_zeros(self):
        c = empirical_autocovariance(np.zeros(1000, dtype=complex), 5)
        assert np.all(c.r == 0)

    def test_deterministic_harmonic(self):
        w = 0.7
        n = 2000
        x = np.exp(1j * w * np.arange(n))
        c = empirical_autocovariance(x, 8)
        for k in range(9):
            assert c.r[k] == pytest.approx((1 - k / n) * np.exp(1j * k * w), rel=1e-12)

    def test_iid_lag_one_small(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200_000).astype(complex)
        c = empirical_autocovariance(x, 3)
        assert abs(c.r[1]) <= 3 * c.se[1]

    def test_kmax_bound(self):
        with pytest.raises(SpectralError):
            empirical_autocovariance(np.ones(10, dtype=complex), 10)

    def test_cauchy_schwarz_enforced(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        c = empirical_autocovariance(x, 32)
        assert np.abs(c.r).max() <= c.r[0].real * (1 + 1e-9)


class TestVarianceCurveCsv:
    def test_roundtrip_columns(self, tmp_path):
        ns = np.array([2, 4])
        betas = np.array([0.1, 0.2, 0.3])
        pred = np.ones((2, 3))
        curve = tw.VarianceCurve(ns, betas, pred, header={"k": "v"})
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# k=v"
        assert lines[1] == "n,beta,predicted,mc_mean,mc_se"
        assert len(lines) == 2 + 6
        assert lines[2].startswith("2,0.1,1.0,,")
