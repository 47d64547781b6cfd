import math

import numpy as np
import pytest
from scipy.stats import chi2

import twistwalk as tw
from twistwalk.processes import (
    IID,
    GaussianSpectral,
    MarkovChain,
    MovingAverage,
    Rotation,
    SpecError,
    StreamExhausted,
    _batch_state,
    _SpectralEmbedding,
    covariance,
    golden_mean_spec,
    make_generator,
    make_stream,
    parry_chain,
    spec_from_json,
)
from twistwalk.spectral import SpectralMeasure

from oracles import dependence_range, mixing_covariance_bound_check, window_covariance_mc

TWO_PI = 2.0 * math.pi
PHI = (1 + math.sqrt(5)) / 2


def family_specs():
    return {
        "iid-gauss": IID("complex-gaussian"),
        "iid-rademacher": IID("rademacher"),
        "iid-circle": IID("uniform-circle"),
        "ma": MovingAverage((1, 1)),
        "golden-mean": golden_mean_spec(),
        "rotation": Rotation(alpha=math.sqrt(2), fourier=((1, 0.8), (2, 0.6))),
        "gauss-flat": GaussianSpectral(SpectralMeasure.flat(1.0, 1024), window=1 << 17, field="real"),
    }


class TestStreams:
    @pytest.mark.parametrize("name", list(family_specs()))
    def test_determinism_and_chunk_invariance(self, name):
        spec = family_specs()[name]
        a = make_stream(spec, 1).take(10_000)
        s = make_stream(spec, 1)
        b = np.concatenate([s.take(1), s.take(4096), s.take(10_000 - 4097)])
        assert np.array_equal(a, b)
        assert np.array_equal(a, make_stream(spec, 1).take(10_000))

    def test_replicas_differ(self):
        spec = IID("complex-gaussian")
        a = make_stream(spec, 1, replica=0).take(100)
        b = make_stream(spec, 1, replica=1).take(100)
        assert not np.allclose(a, b)

    def test_rademacher_support(self):
        x = make_stream(IID("rademacher"), 1).take(10_000)
        assert set(np.unique(x.real)) == {-1.0, 1.0}
        assert np.all(x.imag == 0)

    def test_uniform_circle_modulus(self):
        x = make_stream(IID("uniform-circle"), 2).take(5000)
        assert np.allclose(np.abs(x), 1.0, atol=1e-12)

    def test_rotation_character(self):
        spec = Rotation(alpha=math.sqrt(2) % TWO_PI, fourier=((1, 1.0),))
        s = make_stream(spec, 123)
        x = s.take(100_000)
        assert np.allclose(np.abs(x), 1.0, atol=1e-12)
        # X_k = e^{i(theta0 + k sqrt2)} exactly
        theta0 = np.angle(x[0])
        ks = np.arange(100_000)
        expect = np.exp(1j * (theta0 + ks * (math.sqrt(2) % TWO_PI)))
        assert np.allclose(x, expect, atol=1e-7)
        assert abs(x.mean()) < 0.02  # ergodic average of a nonzero character

    def test_golden_mean_forbidden_word(self):
        # raw +-1 symbols: b -> b is forbidden, so no two consecutive -1
        spec = golden_mean_spec(centered=False)
        x = make_stream(spec, 7).take(1_000_000).real
        both = (x[1:] == -1.0) & (x[:-1] == -1.0)
        assert not both.any()

    def test_gaussian_window_exhaustion(self):
        spec = GaussianSpectral(SpectralMeasure.flat(1.0, 64), window=128, field="real")
        s = make_stream(spec, 1)
        s.take(128)
        with pytest.raises(StreamExhausted):
            s.take(1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(SpecError):
            IID("cauchy")
        with pytest.raises(SpecError):
            MovingAverage(())
        with pytest.raises(SpecError):
            MarkovChain(np.array([[0.7, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]),
                        np.array([1.0, -1.0]))
        with pytest.raises(SpecError):
            make_stream(object(), 1)


class TestCovariance:
    def test_iid(self):
        assert covariance(IID("rademacher"), 0) == 1.0
        assert covariance(IID("rademacher"), 1) == 0.0
        assert covariance(IID("complex-gaussian", variance=3.0), 0) == 3.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            covariance(IID("rademacher"), -1)

    def test_ma_1_1(self):
        spec = MovingAverage((1, 1))
        assert covariance(spec, 0) == 2.0
        assert covariance(spec, 1) == 1.0
        assert covariance(spec, 2) == 0.0

    def test_ma_convolution_oracle(self):
        rng = np.random.default_rng(4)
        th = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        spec = MovingAverage(tuple(th))
        for k in range(7):
            brute = sum(
                th[j + k] * np.conj(th[j]) for j in range(5) if j + k < 5
            )
            assert covariance(spec, k) == pytest.approx(complex(brute), rel=1e-12)

    def test_golden_mean_closed_form(self):
        spec = golden_mean_spec()
        mu = 1 / math.sqrt(5)  # pi_a - pi_b
        assert covariance(spec, 0).real == pytest.approx(1 - mu ** 2, rel=1e-12)
        lam2 = -1 / PHI ** 2
        r = spec.covariance_sequence(8).r.real
        for k in range(9):
            assert r[k] == pytest.approx(0.8 * lam2 ** k, rel=1e-10)

    def test_golden_mean_against_monte_carlo(self):
        # ~1e7 samples pooled over independent replicas; bias-corrected
        spec = golden_mean_spec()
        reps, length = 2048, 5000
        r_hat = np.zeros(9, dtype=complex)
        per = []
        # the rows of one batch are the replica streams make_stream gives,
        # cast as take casts them
        rows = _batch_state(spec, [make_generator(99, r) for r in range(reps)]).emit(length)
        for rep in range(reps):
            x = rows[rep].astype(complex)
            per.append([np.sum(x[k:] * np.conj(x[:length - k])) / length for k in range(9)])
        per = np.array(per)
        r_hat = per.mean(axis=0)
        se = per.std(axis=0, ddof=1) / math.sqrt(reps)
        r = spec.covariance_sequence(8).r
        for k in range(9):
            expect = (1 - k / length) * r[k]
            assert abs(r_hat[k] - expect) <= 3 * max(se[k], 1e-12), k

    def test_rotation_formula(self):
        spec = Rotation(alpha=1.1, fourier=((1, 0.6), (3, 0.8j)))
        for k in (0, 1, 4):
            expect = 0.36 * np.exp(1j * k * 1.1) + 0.64 * np.exp(1j * 3 * k * 1.1)
            assert covariance(spec, k) == pytest.approx(expect, rel=1e-12)


class TestCovarianceConsistency:
    """Empirical autocovariance matches the closed form, every family."""

    @pytest.mark.parametrize("name", list(family_specs()))
    def test_three_sigma_match(self, name):
        spec = family_specs()[name]
        k_max = 16
        if isinstance(spec, GaussianSpectral):
            reps, length = 64, 16384
        else:
            reps, length = 64, 16384
        per = np.empty((reps, k_max + 1), dtype=complex)
        for rep in range(reps):
            x = make_stream(spec, 321, replica=rep).take(length)
            per[rep] = [np.sum(x[k:] * np.conj(x[: length - k])) / length for k in range(k_max + 1)]
        mean = per.mean(axis=0)
        se = per.std(axis=0, ddof=1) / math.sqrt(reps)
        r = spec.covariance_sequence(k_max).r
        for k in range(k_max + 1):
            expect = (1 - k / length) * r[k]
            assert abs(mean[k] - expect) <= 3 * se[k] + 1e-9, (name, k)


class TestStationarity:
    """Joint law of (X_k, X_{k+1}) agrees between shifted windows."""

    @staticmethod
    def cells(x):
        # quadrant of X_k crossed with quadrant of X_{k+1}
        q = (x.real >= 0).astype(int) + 2 * (x.imag >= 0).astype(int)
        return q[:-1] * 4 + q[1:]

    @pytest.mark.parametrize("name", list(family_specs()))
    def test_shifted_window_agreement(self, name):
        spec = family_specs()[name]
        n, shift = 100_000, 1000
        x = make_stream(spec, 55).take(n + shift)
        c1 = self.cells(x[:n])
        c2 = self.cells(x[shift : n + shift])
        counts1 = np.bincount(c1, minlength=16).astype(float)
        counts2 = np.bincount(c2, minlength=16).astype(float)
        keep = (counts1 + counts2) > 20
        # windows share all but the edges, so the independent-sample
        # chi-square statistic is strongly conservative here
        n1, n2 = counts1[keep].sum(), counts2[keep].sum()
        pooled = (counts1[keep] + counts2[keep]) / (n1 + n2)
        stat = np.sum((counts1[keep] - n1 * pooled) ** 2 / (n1 * pooled))
        stat += np.sum((counts2[keep] - n2 * pooled) ** 2 / (n2 * pooled))
        dof = max(keep.sum() - 1, 1)
        assert stat < chi2.isf(1e-3, dof), (name, stat)


class TestParry:
    def test_full_shift(self):
        spec = parry_chain(np.ones((2, 2)), np.array([1.0, -1.0]))
        assert np.allclose(spec.transition, 0.5)
        assert np.allclose(spec.stationary, 0.5)

    def test_golden_mean_eigendata(self):
        spec = golden_mean_spec()
        P = spec.transition
        assert P[0, 0] == pytest.approx(1 / PHI, rel=1e-12)
        assert P[0, 1] == pytest.approx(1 / PHI ** 2, rel=1e-12)
        assert P[1, 0] == pytest.approx(1.0, rel=1e-12)
        assert P[1, 1] == 0.0
        assert spec.stationary[0] == pytest.approx(PHI ** 2 / (1 + PHI ** 2), rel=1e-12)

    def test_cycle_with_chord_stationarity(self):
        A = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        spec = parry_chain(A, np.array([1.0, 1j, -1.0]))
        assert np.abs(spec.stationary @ spec.transition - spec.stationary).max() < 1e-12

    def test_rejects_bad_adjacency(self):
        with pytest.raises(SpecError):
            parry_chain(np.eye(2), np.array([1.0, -1.0]))  # reducible
        with pytest.raises(SpecError):
            parry_chain(np.array([[0, 1], [1, 0]]), np.array([1.0, -1.0]))  # periodic
        with pytest.raises(SpecError):
            parry_chain(np.array([[2, 0], [1, 1]]), np.array([1.0, -1.0]))  # not 0/1


class TestGaussianSpectral:
    def test_flat_is_white(self):
        spec = GaussianSpectral(SpectralMeasure.flat(1.0, 1024), window=1 << 17, field="real")
        reps = 8
        per = np.empty((reps, 2))
        for rep in range(reps):
            x = make_stream(spec, 77, replica=rep).take(1 << 17).real
            per[rep, 0] = np.mean(x[1:] * x[:-1])
            per[rep, 1] = np.mean(x * x)
        r1 = per[:, 0].mean()
        se = per[:, 0].std(ddof=1) / math.sqrt(reps)
        assert abs(r1) <= 3 * se
        assert per[:, 1].mean() == pytest.approx(1.0, abs=0.02)

    def test_atom_harmonic_construction(self):
        w = 0.9
        m = SpectralMeasure(np.zeros(64), atoms=((w, 1.0),))
        spec = GaussianSpectral(m, window=128, field="complex")
        paths = np.stack([make_stream(spec, 5, replica=r).take(128) for r in range(3000)])
        for k in (1, 10, 100):
            est = np.mean(paths[:, k] * np.conj(paths[:, 0]))
            se = np.std(paths[:, k] * np.conj(paths[:, 0])) / math.sqrt(3000)
            assert abs(est - np.exp(1j * k * w)) <= 3 * se
            assert abs(abs(est) - 1.0) <= 3 * se

    def test_singular_density_covariance(self):
        b0 = 2.0
        m = SpectralMeasure.singular_half_power(b0, 1 << 12)
        spec = GaussianSpectral(m, window=64, field="complex")
        paths = np.stack([make_stream(spec, 9, replica=r).take(64) for r in range(4000)])
        r_true = tw.covariance_from_measure(m, np.arange(33))
        prods = paths[:, :33] * np.conj(paths[:, :1])
        est = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(4000)
        for k in range(33):
            assert abs(est[k] - r_true[k]) <= 3 * se[k], k

    def test_real_field_symmetrizes(self):
        spec = GaussianSpectral(SpectralMeasure.singular_half_power(2.0), window=16, field="real")
        r = spec.covariance_sequence(4).r
        assert np.abs(r.imag).max() < 1e-12
        x = make_stream(spec, 3).take(16)
        assert np.all(x.imag == 0)

    @pytest.mark.parametrize("name, window", [
        ("singular", 64), ("singular", 1024), ("singular", 8192), ("flat-atom", 400),
    ])
    def test_real_embedding_is_minimal_and_exact(self, name, window):
        measure = (SpectralMeasure.singular_half_power(2.0) if name == "singular"
                   else SpectralMeasure(np.full(64, 0.5), atoms=((0.7, 1.0),)))
        spec = GaussianSpectral(measure, window, field="real")
        emb = _SpectralEmbedding(*spec.embedding_args(window))
        assert emb.size == 2 ** math.ceil(math.log2(2 * window))
        # the circulant's first row, back from its eigenvalues, is the
        # density part's covariance at every lag of the window; the lags run
        # to size/2 as in the embedding, because covariance_from_measure
        # refines its grid by the largest lag asked for
        m = spec.measure
        r = tw.covariance_from_measure(
            SpectralMeasure(m.density, singularities=m.singularities),
            np.arange(emb.size // 2 + 1))[:window]
        row = np.fft.irfft(emb.sqrt_lam ** 2, n=emb.size)
        assert np.abs(row[:window] - r.real).max() <= 1e-12 * r[0].real

    def test_doubling_and_complex_start_size(self):
        # a bump of width sqrt(14)/64: its covariance at lag 64 is about
        # e^-7 of r[0], enough to make the minimal circulant indefinite
        x = TWO_PI * np.arange(1 << 12) / (1 << 12)
        bump = SpectralMeasure(np.exp(-((x - math.pi) ** 2) * 64 ** 2 / 28))
        assert _SpectralEmbedding(bump, 64, "real").size == 256
        singular = SpectralMeasure.singular_half_power(2.0)
        assert _SpectralEmbedding(singular, 1024, "complex").size == 4096


class TestMixing:
    @staticmethod
    def pos_real(w):
        return (w[:, 0].real > 0).astype(float)

    def test_iid_gap_one_uncorrelated(self):
        assert mixing_covariance_bound_check(
            IID("complex-gaussian"), 1, self.pos_real, self.pos_real,
            replicas=50_000, seed=3)

    def test_ma1_gap_two_uncorrelated(self):
        assert mixing_covariance_bound_check(
            MovingAverage((1, 1)), 2, self.pos_real, self.pos_real,
            replicas=50_000, seed=4)

    def test_ma1_gap_one_rejected_but_detectable(self):
        spec = MovingAverage((1, 1))
        with pytest.raises(ValueError):
            mixing_covariance_bound_check(spec, 1, self.pos_real, self.pos_real)
        cov, se = window_covariance_mc(spec, 1, self.pos_real, self.pos_real,
                                       replicas=200_000, seed=5)
        # indicator covariance of a bivariate normal with correlation 1/2:
        # P(X>0, Y>0) - 1/4 = arcsin(1/2)/(2 pi) = 1/12
        assert abs(cov.real - 1.0 / 12.0) <= 4 * se
        assert abs(cov) > 4 * se

    def test_dependence_range(self):
        assert dependence_range(IID("rademacher")) == 0
        assert dependence_range(MovingAverage((1, 0.5, 0.1))) == 2
        with pytest.raises(SpecError):
            dependence_range(golden_mean_spec())


def _real_gaussian_with_atom():
    m = SpectralMeasure(np.full(64, 0.5), atoms=((0.7, 1.0),))
    return GaussianSpectral(m, window=128, field="real")


class TestJsonWireFormat:
    @pytest.mark.parametrize("name", [*family_specs(), "gauss-real-atom"])
    def test_roundtrip(self, name):
        spec = family_specs()[name] if name in family_specs() else _real_gaussian_with_atom()
        doc = spec.to_json()
        back = spec_from_json(doc)
        assert type(back) is type(spec)
        # the wire form is a fixed point of parse-then-write
        assert back.to_json() == doc
        a = make_stream(spec, 12).take(64)
        b = make_stream(back, 12).take(64)
        assert np.array_equal(a, b)

    def test_closed_form_density_names(self):
        doc = {"kind": "gaussian-spectral", "density": "singular-half-power",
               "beta0": 2.0, "window": 32, "field": "real"}
        spec = spec_from_json(doc)
        assert spec.measure.singularities
        flat = spec_from_json({"kind": "gaussian-spectral", "density": "flat",
                               "mass": 2.0, "window": 32, "field": "complex"})
        assert flat.measure.total_mass() == pytest.approx(2.0)

    def test_markov_stationary_computed_when_missing(self):
        doc = {"kind": "markov", "transition": [[0.5, 0.5], [1.0, 0.0]],
               "values": [1.0, -1.0]}
        spec = spec_from_json(doc)
        assert np.abs(spec.stationary @ spec.transition - spec.stationary).max() < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            spec_from_json({"kind": "levy"})

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "ma"}, "coeffs"),
        ({"kind": "markov", "values": [1, -1]}, "transition"),
        ({"kind": "markov", "transition": [[0.5, 0.5], [1.0, 0.0]]}, "values"),
        ({"kind": "gaussian-spectral", "density": "flat"}, "window"),
        ({"kind": "gaussian-spectral", "density": "singular-half-power", "window": 32}, "beta0"),
        ({"kind": "rotation", "alpha": 1.0}, "fourier"),
        ({"kind": "rotation", "fourier": {"1": 1.0}}, "alpha"),
    ])
    def test_missing_key_is_named(self, doc, key):
        with pytest.raises(SpecError, match=repr(key)):
            spec_from_json(doc)

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "iid", "variance": "2"}, "variance"),
        ({"kind": "ma", "coeffs": 5}, "coeffs"),
        ({"kind": "markov", "transition": [[0.5, 0.5], [1.0]], "values": [1, -1]}, "transition"),
        ({"kind": "markov", "transition": [[0.5, 0.5], [1.0, 0.0]], "values": [1, [1]]}, "values"),
        ({"kind": "gaussian-spectral", "window": 32, "atoms": [1.0]}, "atoms"),
        ({"kind": "gaussian-spectral", "window": None}, "window"),
        ({"kind": "rotation", "alpha": 1.0, "fourier": [[1, 1.0]]}, "fourier"),
        ({"kind": "rotation", "alpha": [1.0], "fourier": {"1": 1.0}}, "alpha"),
    ])
    def test_mistyped_key_is_named(self, doc, key):
        with pytest.raises(SpecError, match=repr(key)):
            spec_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"kind": "gaussian-spectral", "window": 32.0, "grid_size": 64.0},
        {"kind": "gaussian-spectral", "window": 32, "atoms": [[1.0, "0.5"]]},
        {"kind": "rotation", "alpha": "1.4", "fourier": {"1": 1.0}},
        {"kind": "markov", "transition": [[0.5, 0.5], [1.0, 0.0]], "values": [1, -1], "centered": 1},
    ])
    def test_coercible_values_still_parse(self, doc):
        """Integral floats and numeric strings parse as float() and int() take them."""
        assert spec_from_json(doc).kind == doc["kind"]

    @pytest.mark.parametrize("doc", [[1, 2], "iid", None, {"kind": ["iid"]}])
    def test_document_must_be_an_object_with_a_known_kind(self, doc):
        with pytest.raises(SpecError):
            spec_from_json(doc)
