import math

import numpy as np
import pytest

import twistwalk as tw
from twistwalk.diagnostics import (
    THRESHOLDS,
    SmallBallTable,
    build_report,
    classify,
    divisibility_noise_floor,
    divisibility_stat,
    ecf,
    growth_exponent,
    recurrence_constant,
    returns_growth,
    rotation_invariance_noise_floor,
    rotation_invariance_stat,
    small_ball,
    tau,
    transience_summability,
    unscaled_ball,
)
from twistwalk.processes import IID, GaussianSpectral, MovingAverage, Rotation, golden_mean_spec
from twistwalk.spectral import SpectralMeasure
from twistwalk.walk import CheckpointEnsemble, WalkConfig, simulate

RAYLEIGH = lambda eta: 1.0 - math.exp(-eta * eta)


def synthetic_ensemble(checkpoints, eta_grid, replicas, dense_scaled=None,
                       dense_unscaled=None, samples=None, n_max=None,
                       scaled_counts=None, unscaled_counts=None,
                       return_count_sums=None, moment_sums=None):
    n_max = n_max or max(checkpoints)
    cps = tuple(checkpoints)
    E = len(eta_grid)
    if scaled_counts is None:
        scaled_counts = {n: np.zeros(E, dtype=np.int64) for n in cps}
    if unscaled_counts is None:
        unscaled_counts = {n: np.zeros(E, dtype=np.int64) for n in cps}
    if return_count_sums is None:
        return_count_sums = {n: np.zeros(E, dtype=np.int64) for n in cps}
    if moment_sums is None:
        moment_sums = {n: np.zeros(4) for n in cps}
    return CheckpointEnsemble(
        checkpoints=cps, eta_grid=tuple(eta_grid), replicas=replicas, seed=0,
        beta_value=1.0, beta_fraction=None, mode="raw" if samples is not None else "streaming",
        samples=samples, return_increment_sq=np.zeros(E, dtype=np.int64),
        scaled_counts=scaled_counts,
        unscaled_counts=unscaled_counts, return_count_sums=return_count_sums,
        moment_sums=moment_sums, max_abs={n: 1.0 for n in cps},
        rotation={n: 0.0 for n in cps}, ecf_sums=None, ecf_tgrid=None,
        dense_scaled=dense_scaled, dense_unscaled=dense_unscaled,
        partial=False, replicas_done=replicas, n_max=n_max,
    )


def bootstrap_stat(stat_fn, sample_sets, n_boot: int = 100, seed: int = 0) -> dict:
    """Oracle for the noise floors: resample each set with replacement
    (independently), recompute the statistic, and summarise."""
    rng = np.random.default_rng(np.random.Philox(key=int(seed)))
    vals = np.empty(n_boot)
    for b in range(n_boot):
        resampled = []
        for s in sample_sets:
            idx = rng.integers(0, len(s), size=len(s))
            resampled.append(np.asarray(s)[idx])
        vals[b] = stat_fn(*resampled)
    return {
        "mean": float(vals.mean()),
        "se": float(vals.std(ddof=1)),
        "q95": float(np.quantile(vals, 0.95)),
        "n_boot": int(n_boot),
    }


GAUSSIAN_WALK = dict(beta=0.8, n_max=1024, replicas=20_000, seed=101,
                     eta_grid=(0.1, 0.2, 0.3, 0.5))


@pytest.fixture(scope="module")
def gaussian_walk():
    """An IID complex-Gaussian run: the scaled position is exactly standard
    complex Gaussian at every n."""
    cfg = WalkConfig(**GAUSSIAN_WALK, dense_counts=True)
    return simulate(IID("complex-gaussian"), cfg)


@pytest.fixture(scope="module")
def gaussian_walk_grid():
    """The same run without per-step tables, so tau interpolates on the
    checkpoint grid."""
    cfg = WalkConfig(**GAUSSIAN_WALK, dense_counts=False)
    return simulate(IID("complex-gaussian"), cfg)


@pytest.fixture(scope="module")
def transient_walk():
    """Reduced-size singular-spectrum Gaussian run (transient regime)."""
    n_max = 2048
    spec = GaussianSpectral(SpectralMeasure.singular_half_power(2.0),
                            window=n_max, field="real")
    cfg = WalkConfig(beta=2.0, n_max=n_max, replicas=8000, seed=505,
                     eta_grid=(0.1, 0.2, 0.3, 0.5), dense_counts=True)
    return simulate(spec, cfg)


class TestSmallBall:
    def test_radius_beyond_support_is_one(self):
        # |S_1| = 1 for unit-modulus increments; radii must be on the grid
        cfg = WalkConfig(beta=0.3, n_max=4, checkpoints=[1], replicas=500, seed=5,
                         eta_grid=(0.5, 1.5), record_raw=True)
        ens = simulate(IID("uniform-circle"), cfg)
        assert small_ball(ens, 1, 1.5).value == 1.0
        with pytest.raises(ValueError):
            small_ball(ens, 1, 2.0)

    def test_unit_modulus_support(self):
        cfg = WalkConfig(beta=0.3, n_max=4, checkpoints=[1], replicas=500, seed=5)
        ens = simulate(IID("uniform-circle"), cfg)
        assert small_ball(ens, 1, 0.5).value == 0.0

    def test_rayleigh_limit(self, gaussian_walk):
        for n in (256, 1024):
            for eta in (0.2, 0.3, 0.5):
                est = small_ball(gaussian_walk, n, eta)
                assert abs(est.value - RAYLEIGH(eta)) <= 4 * est.se, (n, eta)

    def test_unknown_checkpoint(self, gaussian_walk):
        with pytest.raises(KeyError):
            small_ball(gaussian_walk, 999, 0.3)

    def test_table_monotone_and_bounded(self, gaussian_walk):
        t = SmallBallTable.from_ensemble(gaussian_walk)
        assert np.all((0.0 <= t.p_hat) & (t.p_hat <= 1.0))
        assert np.all(np.diff(t.p_hat, axis=1) >= 0)

    def test_unscaled_ball_lookup(self, gaussian_walk):
        est = unscaled_ball(gaussian_walk, 1024, 0.5)
        # unscaled radius 0.5 at n=1024 ~ scaled radius 0.5/32
        assert est.value == pytest.approx(RAYLEIGH(0.5 / 32), rel=0.6)


class TestTau:
    def test_constant_sigma(self):
        E = 1
        R = 10
        dense = np.zeros((9, E), dtype=np.int64)
        dense[1:] = 3  # sigma_k = 0.3 for all k
        ens = synthetic_ensemble([8], (0.5,), R, dense_scaled=dense, n_max=8)
        est, mode = tau(ens, 8, 0.5)
        assert mode == "dense"
        assert est.value == pytest.approx(0.3, rel=1e-12)

    def test_harmonic_sigma_exact_arithmetic(self):
        # sigma_k = 1/k on k = 1..4 with R = 12 replicas: counts 12, 6, 4, 3
        dense = np.array([[0], [12], [6], [4], [3]], dtype=np.int64)
        ens = synthetic_ensemble([4], (0.5,), 12, dense_scaled=dense, n_max=4)
        est, _ = tau(ens, 4, 0.5)
        assert est.value == pytest.approx((1 + 0.5 + 1 / 3 + 0.25) / 4, rel=1e-14)

    def test_dense_equals_literal_cesaro(self, gaussian_walk):
        j = 3  # eta = 0.5
        n = 512
        literal = gaussian_walk.dense_scaled[1 : n + 1, j].sum() / (
            n * gaussian_walk.replicas_done)
        est, mode = tau(gaussian_walk, n, 0.5)
        assert mode == "dense"
        assert est.value == pytest.approx(literal, rel=0.0, abs=0.0)

    def test_grid_interpolation_close_to_dense(self, gaussian_walk, gaussian_walk_grid):
        n = 1024
        dense, dense_mode = tau(gaussian_walk, n, 0.5)
        grid, grid_mode = tau(gaussian_walk_grid, n, 0.5)
        assert (dense_mode, grid_mode) == ("dense", "grid")
        assert abs(grid.value - dense.value) <= 0.05 * dense.value

    def test_grid_mode_requires_coverage(self, gaussian_walk_grid):
        with pytest.raises(ValueError):
            tau(gaussian_walk_grid, 4096, 0.5)


class TestRecurrenceConstant:
    def test_one_sided_normal_quantile(self):
        from twistwalk.diagnostics import _z_for

        assert _z_for(1e-3) == 3.090232306167813

    def test_gaussian_limit_constants(self, gaussian_walk):
        table = SmallBallTable.from_ensemble(gaussian_walk)
        c = recurrence_constant(table, n_window=[256, 1024])
        for eta in (0.1, 0.2, 0.3):
            oracle = RAYLEIGH(eta) / eta ** 2
            assert 0.9 < oracle <= 1.0
            assert abs(c[eta]["c_hat"] - oracle) < 0.12, eta
            assert c[eta]["c_lower"] <= c[eta]["c_hat"]

    def test_transient_constant_decays(self, transient_walk):
        table = SmallBallTable.from_ensemble(transient_walk)
        cps = list(transient_walk.checkpoints)
        early = recurrence_constant(table, n_window=[n for n in cps if n <= 32])
        late = recurrence_constant(table, n_window=[n for n in cps if n >= 512])
        for eta in (0.2, 0.3, 0.5):
            assert late[eta]["c_hat"] < 0.5 * early[eta]["c_hat"]

    def test_resonant_atom_diverges(self):
        # spectral atom exactly at the twist angle: scaled norms grow like
        # sqrt(n), so every scaled ball eventually empties
        beta = 1.0
        spec = Rotation(alpha=beta, fourier=((1, 1.0),))
        cfg = WalkConfig(beta=beta, n_max=1024, replicas=200, seed=3,
                         eta_grid=(0.1, 0.3, 0.5), dense_counts=False)
        ens = simulate(spec, cfg)
        table = SmallBallTable.from_ensemble(ens)
        c = recurrence_constant(table, n_window=[512, 1024])
        assert all(v["c_hat"] == 0.0 for v in c.values())

    def test_empty_window_rejected(self, gaussian_walk):
        table = SmallBallTable.from_ensemble(gaussian_walk)
        with pytest.raises(ValueError):
            recurrence_constant(table, n_window=[7])


class TestInvarianceStat:
    def test_exactly_symmetric_cloud(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        orbit = np.concatenate([z, 1j * z, -z, -1j * z])
        assert rotation_invariance_stat(orbit, math.pi / 2, m_max=8) < 1e-12

    def test_gaussian_within_noise_floor(self):
        rng = np.random.default_rng(9)
        z = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) / math.sqrt(2)
        stat = rotation_invariance_stat(z, 0.9)
        floor = rotation_invariance_noise_floor(z, 0.9, n_boot=100, seed=2)
        assert stat <= floor["mean"] + 5 * floor["se"]

    def test_skewed_cloud_detected(self):
        rng = np.random.default_rng(10)
        z = np.abs(rng.standard_normal(5000)).astype(complex)  # positive real axis
        assert rotation_invariance_stat(z, math.pi / 2) > 0.5


class TestDivisibilityStat:
    def test_exact_gaussian_oracle(self):
        # standard complex Gaussian: cf(t) = exp(-|t|^2/4), so the two-scale
        # factorization is exact in law
        rng = np.random.default_rng(11)
        a = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) / math.sqrt(2)
        b = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) / math.sqrt(2)
        t = tw.walk.default_ecf_tgrid()
        cf = np.exp(-np.abs(t) ** 2 / 4)
        assert np.abs(ecf(a, t) - cf).max() < 0.05
        stat = divisibility_stat(a, b)
        floor = divisibility_noise_floor(a, b, n_boot=100, seed=3)
        assert stat <= floor["q95"] + 3 * floor["se"]

    def test_mismatched_scales_detected(self):
        rng = np.random.default_rng(12)
        a = 3.0 * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        b = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) / math.sqrt(2)
        assert divisibility_stat(a, b) > 0.2

    def test_generic_bootstrap_agrees(self):
        rng = np.random.default_rng(13)
        z = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) / math.sqrt(2)
        fast = rotation_invariance_noise_floor(z, 1.1, n_boot=60, seed=5)
        slow = bootstrap_stat(lambda s: rotation_invariance_stat(s, 1.1), [z],
                              n_boot=60, seed=5)
        assert fast["mean"] == pytest.approx(slow["mean"], rel=0.3)


class TestGrowthExponent:
    def test_synthetic_superdiffusive(self):
        cps = [16, 32, 64, 128, 256, 512, 1024]
        R = 100
        moments = {n: np.array([0.0, 0.0, R * math.sqrt(n), 0.0]) for n in cps}
        ens = synthetic_ensemble(cps, (0.5,), R, moment_sums=moments)
        fit = growth_exponent(ens)
        assert fit["slope"] == pytest.approx(1.5, abs=1e-9)

    def test_transient_run_slope(self, transient_walk):
        fit = growth_exponent(transient_walk)
        assert 1.35 <= fit["slope"] <= 1.65


class TestSummability:
    def test_synthetic_three_halves_power(self):
        n_max = 4096
        R = 1_000_000
        dense = np.zeros((n_max + 1, 1), dtype=np.int64)
        ns = np.arange(1, n_max + 1)
        dense[1:, 0] = np.round(R * ns ** -1.5).astype(np.int64)
        ens = synthetic_ensemble([n_max], (0.5,), R, dense_unscaled=dense, n_max=n_max)
        res = transience_summability(ens, 0.5, n_window=(64, 4096))
        assert res.verdict == "summable-evidence"
        assert res.gamma == pytest.approx(1.5, abs=0.05)
        assert res.last_octave_fraction < 0.1

    def test_synthetic_harmonic_not_summable(self):
        n_max = 4096
        R = 1_000_000
        dense = np.zeros((n_max + 1, 1), dtype=np.int64)
        ns = np.arange(1, n_max + 1)
        dense[1:, 0] = np.round(R * 0.5 / ns).astype(np.int64)
        ens = synthetic_ensemble([n_max], (0.5,), R, dense_unscaled=dense, n_max=n_max)
        res = transience_summability(ens, 0.5, n_window=(64, 4096))
        assert res.verdict != "summable-evidence"
        assert abs(res.gamma - 1.0) < 0.05

    def test_all_zero_table(self):
        dense = np.zeros((65, 1), dtype=np.int64)
        ens = synthetic_ensemble([64], (0.5,), 1000, dense_unscaled=dense, n_max=64)
        res = transience_summability(ens, 0.5)
        assert "infinite-decay" in res.flags
        assert res.verdict == "summable-evidence"

    def test_grid_mode_without_dense_tables(self, gaussian_walk):
        # recurrent walk: unscaled return probability decays about like 1/n
        ens = gaussian_walk
        res = transience_summability(ens, 0.5, n_window=(32, 1024))
        assert res.dense  # this fixture recorded dense tables
        assert res.verdict != "summable-evidence"


class TestReturnsGrowth:
    def test_recurrent_returns_grow(self, gaussian_walk):
        g = returns_growth(gaussian_walk, 0.5)
        assert g["mean_increment"] > 3 * g["increment_se"]

    def test_transient_returns_slow_down(self, transient_walk, gaussian_walk):
        # at this reduced n_max the transient tail sum has not fully
        # saturated, but late growth is already well below the recurrent case
        gt = returns_growth(transient_walk, 0.5)
        gr = returns_growth(gaussian_walk, 0.5)
        frac_t = gt["mean_increment"] / max(gt["mean_hi"], 1e-12)
        frac_r = gr["mean_increment"] / max(gr["mean_hi"], 1e-12)
        assert frac_t < 0.2
        assert frac_t < 0.5 * frac_r


class TestClassify:
    def mk_c(self, val):
        return {e: {"c_hat": val, "c_lower": val * 0.9, "n_at_min": 64} for e in (0.1, 0.3)}

    def mk_summ(self, verdict, gamma=1.5):
        from twistwalk.diagnostics import SummabilityResult
        return SummabilityResult(gamma=gamma, gamma_se=0.02, verdict=verdict, eta=0.5,
                                 partial_sum=1.0, last_octave_fraction=0.01,
                                 n_window=(64, 4096), dense=True)

    def test_recurrence_branch(self):
        growth = {"mean_mid": 1.0, "mean_hi": 2.0, "mean_increment": 1.0, "increment_se": 0.01}
        out = classify(self.mk_c(0.9), self.mk_c(1.0), growth,
                       self.mk_summ("not-summable", 1.0), n_max=4096)
        assert out["label"] == "recurrence-evidence"

    def test_transience_branch(self):
        growth = {"mean_mid": 1.0, "mean_hi": 1.01, "mean_increment": 0.0, "increment_se": 0.01}
        out = classify(self.mk_c(0.01), self.mk_c(0.5), growth,
                       self.mk_summ("summable-evidence"), n_max=4096)
        assert out["label"] == "transience-evidence"

    def test_tiny_run_inconclusive(self):
        growth = {"mean_mid": 1.0, "mean_hi": 2.0, "mean_increment": 1.0, "increment_se": 0.01}
        out = classify(self.mk_c(0.9), self.mk_c(1.0), growth,
                       self.mk_summ("not-summable"), n_max=16)
        assert out == {"label": "inconclusive", "reason": "run too short"}

    def test_mixed_evidence_inconclusive(self):
        growth = {"mean_mid": 1.0, "mean_hi": 1.0, "mean_increment": 0.0, "increment_se": 0.01}
        out = classify(self.mk_c(0.9), self.mk_c(1.0), growth,
                       self.mk_summ("not-summable"), n_max=4096)
        assert out["label"] == "inconclusive"


class TestTheoremFiveSurrogates:
    def test_cesaro_ratio_bounded_on_transient_run(self, transient_walk):
        # sup_eta limsup_n tau_n(ball eta)/eta^2 stays bounded: no blow-up
        # beyond 10x the median across the late window
        cps = [n for n in transient_walk.checkpoints if n >= 64]
        for eta in transient_walk.eta_grid:
            ratios = [tau(transient_walk, n, eta)[0].value / eta ** 2 for n in cps]
            assert max(ratios) <= 10 * np.median(ratios), eta

    def test_small_ball_cesaro_vanishes_at_large_n(self, transient_walk):
        # the eta-grid minimum of tau_n/eta^2 at the final time is small,
        # the finite-size face of the vanishing double limit
        n = transient_walk.checkpoints[-1]
        ratios = [tau(transient_walk, n, eta)[0].value / eta ** 2
                  for eta in transient_walk.eta_grid]
        assert min(ratios) < 0.5


class TestCollapse:
    def test_rotation_process_scaled_norm_vanishes(self):
        spec = Rotation(alpha=math.sqrt(2), fourier=((1, 0.8), (2, 0.6)))
        cfg = WalkConfig(beta=2.2, n_max=1 << 14, checkpoints=[1 << 14],
                         replicas=100, seed=19, dense_counts=False)
        ens = simulate(spec, cfg)
        assert ens.mean_scaled_abs2(1 << 14) < 0.05


class TestReport:
    def test_full_report_recurrent(self, gaussian_walk):
        rep = build_report(gaussian_walk, n_boot=40)
        assert rep.label == "recurrence-evidence"
        assert rep.invariance["stat"] < 0.1
        assert rep.invariance["noise_floor"]["n_boot"] == 40
        assert rep.divisibility["stat"] < 0.1
        d = rep.as_dict()
        assert d["schema_version"] == 1
        assert "exp(-ik beta)" in d["convention"]
        assert d["numeric_error_bound"] < 1e-9
        assert d["thresholds"] == THRESHOLDS

    def test_full_report_transient(self, transient_walk):
        rep = build_report(transient_walk)
        assert rep.label == "transience-evidence"
        assert rep.summability["verdict"] == "summable-evidence"
        # two-scale comparison is reported but flagged: the walk is not
        # diffusively scaled here (variance exponent ~1.5, not 1)
        assert rep.divisibility["unreliable"] is True
        assert "divisibility-at-nonstandard-scaling" in rep.flags

    def test_single_checkpoint_report(self):
        cfg = WalkConfig(beta=1.2, n_max=300, checkpoints=[300], replicas=400,
                         seed=17, dense_counts=False)
        ens = simulate(IID("complex-gaussian"), cfg)
        rep = build_report(ens)
        assert rep.divisibility is None  # no half checkpoint recorded
        assert math.isnan(rep.growth["slope"]) or rep.growth["n_points"] < 2
        assert rep.label == "inconclusive"

    def test_streaming_mode_cf_stats_from_sums(self):
        # the structured t-grid carries the rotated/rescaled points, so the
        # structure statistics survive without raw samples and agree with
        # the raw-mode evaluation on the same data
        kw = dict(beta=0.8, n_max=128, checkpoints=[64, 128], replicas=3000, seed=3)
        raw = simulate(IID("complex-gaussian"), WalkConfig(**kw, record_raw=True))
        stream = simulate(IID("complex-gaussian"), WalkConfig(**kw, record_raw=False))
        rep_raw = build_report(raw)
        rep_stream = build_report(stream)
        assert rep_stream.invariance["mode"] == "streaming"
        assert rep_stream.invariance["stat"] == pytest.approx(
            rep_raw.invariance["stat"], abs=1e-9)
        assert rep_stream.divisibility["stat"] == pytest.approx(
            rep_raw.divisibility["stat"], abs=1e-9)
        assert stream.samples is None


MODE_FAMILIES = {
    "iid": lambda n: IID("complex-gaussian"),
    "ma": lambda n: MovingAverage((1, 0.5)),
    "golden-mean": lambda n: golden_mean_spec(),
    "gaussian-spectral": lambda n: GaussianSpectral(SpectralMeasure.singular_half_power(2.0),
                                                    window=n, field="real"),
    "rotation": lambda n: Rotation(alpha=math.sqrt(2.0), fourier=((1, 1.0),)),
}


class TestModeInvariance:
    @pytest.mark.parametrize("family", sorted(MODE_FAMILIES))
    def test_raw_and_streaming_reports_agree(self, family):
        # the memory mode decides only whether samples are kept: labels,
        # return statistics and their integer sums are identical, and the
        # structure statistics agree to rounding
        kw = dict(beta=2.0, n_max=512, replicas=600, seed=31, batch_size=256)
        spec = MODE_FAMILIES[family](kw["n_max"])
        raw = simulate(spec, WalkConfig(**kw, record_raw=True))
        stream = simulate(spec, WalkConfig(**kw, record_raw=False))
        assert (raw.mode, stream.mode) == ("raw", "streaming")
        assert np.array_equal(raw.return_increment_sq, stream.return_increment_sq)
        for n in raw.checkpoints:
            assert np.array_equal(raw.return_count_sums[n], stream.return_count_sums[n])
        rep_raw, rep_stream = build_report(raw), build_report(stream)
        assert rep_raw.label == rep_stream.label
        assert rep_raw.returns == rep_stream.returns
        assert not math.isnan(rep_stream.returns["increment_se"])
        for block in ("invariance", "divisibility"):
            assert getattr(rep_stream, block)["stat"] == pytest.approx(
                getattr(rep_raw, block)["stat"], abs=1e-9)
