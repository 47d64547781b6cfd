import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

import twistwalk as tw
from twistwalk import walk
from twistwalk.group import Angle, GroupElement, g_mul, identity
from twistwalk.processes import (
    IID,
    GaussianSpectral,
    MovingAverage,
    Rotation,
    _batch_state,
    golden_mean_spec,
    make_generator,
    make_stream,
)
from twistwalk.spectral import SpectralMeasure
from twistwalk.walk import (
    ResourceCapError,
    WalkConfig,
    blocked_increments,
    geometric_checkpoints,
    simulate,
    step,
)

TWO_PI = 2.0 * math.pi


class TestStep:
    def test_first_step_is_increment(self):
        for beta in (0.0, 1.2, 5.0):
            assert step(0j, beta, 3 - 2j) == 3 - 2j

    def test_half_turn(self):
        assert step(1 + 0j, math.pi, 0j) == pytest.approx(-1 + 0j, abs=1e-15)

    def test_untwisted_is_plain_sum(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        s = 0j
        for k, x in enumerate(xs):
            s = step(s, 0.0, x)
            assert s == pytest.approx(xs[: k + 1].sum(), rel=1e-12)


class TestConfig:
    def test_geometric_grid(self):
        cps = geometric_checkpoints(4096)
        assert cps[0] == 1 and cps[-1] == 4096
        assert 2048 in cps and 16 in cps and 256 in cps
        assert list(cps) == sorted(set(cps))

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(beta=0.1, n_max=10, checkpoints=[11])
        with pytest.raises(ValueError):
            WalkConfig(beta=0.1, n_max=10, checkpoints=[])
        with pytest.raises(ValueError):
            WalkConfig(beta=0.1, n_max=10, eta_grid=(0.5, 0.1))
        with pytest.raises(ValueError):
            WalkConfig(beta=0.1, n_max=10, checkpoints="logarithmic")
        with pytest.raises(ValueError):
            WalkConfig(beta=0.1, n_max=0)

    def test_rotation_fraction(self):
        cfg = WalkConfig(beta=Angle.rational(2, 5), n_max=16)
        r = cfg.beta.times(3)
        assert r == Angle.rational(6, 5) and (r.p, r.q) == (1, 5)
        assert cfg.rotation_coordinate(5) == 0.0

    def test_raw_mode_sizing_rule(self, monkeypatch):
        # 12 checkpoints of a 16-byte sample per replica, counted twice:
        # 384000 bytes; no per-replica return counts are kept
        R = 1000
        monkeypatch.setattr(walk, "RAW_CAP_BYTES", 16 * R * 13)
        cfg = WalkConfig(beta=0.1, n_max=64, replicas=R)
        assert len(cfg.checkpoints) == 12
        assert not cfg.record_raw
        monkeypatch.setattr(walk, "RAW_CAP_BYTES", 2 * 16 * R * 12 - 1)
        assert not WalkConfig(beta=0.1, n_max=64, replicas=R).record_raw
        monkeypatch.setattr(walk, "RAW_CAP_BYTES", 2 * 16 * R * 12)
        assert WalkConfig(beta=0.1, n_max=64, replicas=R).record_raw

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(walk, "RESOURCE_CAP", 1 << 30)
        cfg = WalkConfig(beta=0.1, n_max=1 << 20, replicas=1 << 12)
        with pytest.raises(ResourceCapError):
            simulate(IID("rademacher"), cfg)


class TestSimulate:
    def test_bit_identical_reruns(self):
        spec = IID("complex-gaussian")
        cfg = dict(beta=0.7, n_max=300, checkpoints=[1, 17, 300], replicas=50, seed=12)
        a = simulate(spec, WalkConfig(**cfg))
        b = simulate(spec, WalkConfig(**cfg))
        for n in a.checkpoints:
            assert np.array_equal(a.samples[n], b.samples[n])
            assert np.array_equal(a.return_count_sums[n], b.return_count_sums[n])
        assert np.array_equal(a.return_increment_sq, b.return_increment_sq)

    @pytest.mark.parametrize("record_raw", [True, False], ids=["raw", "streaming"])
    def test_worker_and_batch_independence(self, record_raw):
        # 1, 4 and 16 workers produce identical ensembles
        spec = IID("complex-gaussian")
        base = None
        for workers in (1, 4, 16):
            cfg = WalkConfig(beta=1.1, n_max=256, replicas=900, seed=4,
                             workers=workers, batch_size=64, record_raw=record_raw)
            ens = simulate(spec, cfg)
            if base is None:
                base = ens
            else:
                for n in base.checkpoints:
                    if record_raw:
                        assert np.array_equal(base.samples[n], ens.samples[n])
                    else:
                        assert np.array_equal(base.ecf_sums[n], ens.ecf_sums[n])
                    assert np.array_equal(base.moment_sums[n], ens.moment_sums[n])
                    assert np.array_equal(base.dense_scaled, ens.dense_scaled)

    def test_matches_stream_recursion(self):
        # replica r of the engine is exactly the hand recursion over the
        # stream keyed (seed, r)
        spec = IID("uniform-circle")
        cfg = WalkConfig(beta=0.9, n_max=200, checkpoints=[200], replicas=3, seed=8)
        ens = simulate(spec, cfg)
        c = complex(math.cos(0.9), math.sin(0.9))
        for r in range(3):
            x = make_stream(spec, 8, replica=r).take(200)
            s = 0j
            for v in x:
                s = c * s + v
            assert abs(ens.samples[200][r] * math.sqrt(200) - s) < 1e-12 * max(1.0, abs(s))

    def test_group_embedding_cross_check(self):
        # random prefixes: the product of (X_k, beta) factors is (S_n, n beta)
        spec = IID("complex-gaussian")
        beta = Angle(0.73)
        cfg = WalkConfig(beta=0.73, n_max=1000, checkpoints=list(range(1, 1001)),
                         replicas=1, seed=9, dense_counts=False, record_raw=True)
        ens = simulate(spec, cfg)
        x = make_stream(spec, 9, replica=0).take(1000)
        acc = identity()
        rng = np.random.default_rng(0)
        probe = set(rng.integers(1, 1001, size=1000).tolist())
        for k in range(1000):
            acc = g_mul(GroupElement(x[k], beta), acc)
            n = k + 1
            if n in probe:
                s_engine = ens.samples[n][0] * math.sqrt(n)
                assert abs(acc.z - s_engine) <= 1e-9 * max(1.0, abs(acc.z))
                d = abs(acc.theta.value - ens.rotation[n])
                assert min(d, TWO_PI - d) < 1e-9

    def test_variance_identity_iid_untwisted(self):
        spec = IID("rademacher")
        cfg = WalkConfig(beta=0.0, n_max=1024, checkpoints=[16, 128, 1024],
                         replicas=10_000, seed=21, dense_counts=False)
        ens = simulate(spec, cfg)
        for n in ens.checkpoints:
            m2 = ens.mean_scaled_abs2(n)
            m4 = ens.moment_sums[n][3] / ens.replicas_done
            se = math.sqrt(max(m4 - m2 ** 2, 0.0) / ens.replicas_done)
            assert abs(m2 - 1.0) <= 4 * se + 1e-9, n

    def test_budget_yields_partial_flag(self):
        spec = IID("rademacher")
        cfg = WalkConfig(beta=0.3, n_max=64, replicas=4000, seed=1,
                         batch_size=100, budget_s=0.0)
        ens = simulate(spec, cfg)
        assert ens.partial
        assert 0 < ens.replicas_done < 4000
        assert len(ens.samples[64]) == ens.replicas_done

    def test_budget_stop_on_threads_is_a_prefix_run(self):
        # the batches folded before a zero budget stops a threaded run are
        # exactly a full run of that many replicas
        spec = IID("complex-gaussian")
        kw = dict(beta=0.3, n_max=64, seed=1, batch_size=100, record_raw=True)
        ens = simulate(spec, WalkConfig(replicas=4000, workers=2, budget_s=0.0, **kw))
        assert ens.partial and 0 < ens.replicas_done < 4000
        assert ens.replicas_done % 100 == 0
        full = simulate(spec, WalkConfig(replicas=ens.replicas_done, **kw))
        assert not full.partial
        for f in dataclasses.fields(full):
            if f.name in ("replicas", "partial"):
                continue
            got, want = getattr(ens, f.name), getattr(full, f.name)
            if isinstance(want, dict):
                assert got.keys() == want.keys(), f.name
                for n in want:
                    assert np.array_equal(got[n], want[n]), (f.name, n)
            else:
                assert np.array_equal(got, want), f.name

    def test_streaming_mode_summaries(self):
        spec = IID("complex-gaussian")
        kw = dict(beta=1.3, n_max=128, checkpoints=[64, 128], replicas=2000, seed=6)
        raw = simulate(spec, WalkConfig(**kw, record_raw=True))
        stream = simulate(spec, WalkConfig(**kw, record_raw=False))
        assert stream.samples is None and stream.mode == "streaming"
        for n in (64, 128):
            assert np.array_equal(raw.scaled_counts[n], stream.scaled_counts[n])
            assert np.allclose(raw.ecf(n), stream.ecf(n), atol=1e-9)
        # return sums, and the squared increments behind their standard
        # error, are recorded the same way in both modes
        assert np.array_equal(raw.return_count_sums[128], stream.return_count_sums[128])
        assert np.array_equal(raw.return_increment_sq, stream.return_increment_sq)

    def test_gaussian_window_must_cover_run(self):
        spec = tw.GaussianSpectral(tw.SpectralMeasure.flat(1.0, 256), window=64, field="real")
        with pytest.raises(ValueError):
            simulate(spec, WalkConfig(beta=0.1, n_max=128, replicas=2, seed=1))


def _on_a_new_thread(fn):
    """fn() on a thread of its own, which starts with an empty generator pool."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def _leave_generator_state_behind(replicas: int) -> list:
    """Run batches through this thread's generator pool that leave state in
    it: an odd Rademacher count keeps half a 64-bit draw (``has_uint32``),
    uniform draws a partly used Philox buffer."""
    gens = walk._generators(5, 0, replicas)
    _batch_state(IID("rademacher"), gens).emit(7)
    _batch_state(IID("uniform-circle"), gens).emit(3)
    states = [g.bit_generator.state for g in gens]
    assert all(st["has_uint32"] == 1 and st["buffer_pos"] < 4 for st in states)
    return gens


POOL_FAMILIES = {
    "iid-complex-gaussian": IID("complex-gaussian", 2.0),
    "iid-rademacher": IID("rademacher"),
    "iid-uniform-circle": IID("uniform-circle"),
    "ma": MovingAverage((1, 0.5j, -0.3)),
    "golden-mean": golden_mean_spec(),
    "rotation": Rotation(math.sqrt(2.0), ((1, 1.0), (3, 0.5j))),
    "gaussian-spectral": GaussianSpectral(SpectralMeasure.singular_half_power(2.0, 256), 300),
}


class TestGeneratorPool:
    @pytest.mark.parametrize("family", sorted(POOL_FAMILIES))
    def test_reused_generators_give_fresh_streams(self, family):
        spec = POOL_FAMILIES[family]

        def check():
            pooled = _leave_generator_state_behind(40)
            # replicas 3..49: the 40 pooled generators re-keyed, 7 new ones
            gens = walk._generators(11, 3, 50)
            assert gens[:40] == pooled and walk._POOL.gens is gens
            got = _batch_state(spec, gens)
            want = _batch_state(spec, [make_generator(11, r) for r in range(3, 50)])
            for count in (1, 128, 171):
                assert np.array_equal(got.emit(count), want.emit(count))

        _on_a_new_thread(check)

    @pytest.mark.parametrize("family", ["iid-rademacher", "golden-mean", "ma"])
    def test_worker_count_after_a_dirty_pool(self, family):
        spec = POOL_FAMILIES[family]
        cfg = dict(beta=1.3, n_max=300, replicas=90, seed=8, batch_size=25, record_raw=True)

        def run_on_a_dirty_pool(workers):
            _leave_generator_state_behind(25)
            return simulate(spec, WalkConfig(workers=workers, **cfg))

        one = _on_a_new_thread(lambda: run_on_a_dirty_pool(1))
        two = _on_a_new_thread(lambda: run_on_a_dirty_pool(2))
        assert np.array_equal(one.dense_scaled, two.dense_scaled)
        assert np.array_equal(one.return_increment_sq, two.return_increment_sq)
        for n in one.checkpoints:
            assert np.array_equal(one.samples[n], two.samples[n])
            assert np.array_equal(one.moment_sums[n], two.moment_sums[n])
            assert np.array_equal(one.return_count_sums[n], two.return_count_sums[n])


class TestDenseTables:
    def test_dense_matches_checkpoints(self):
        spec = IID("complex-gaussian")
        cfg = WalkConfig(beta=0.5, n_max=128, replicas=500, seed=13, dense_counts=True)
        ens = simulate(spec, cfg)
        for n in ens.checkpoints:
            assert np.array_equal(ens.dense_scaled[n], ens.scaled_counts[n])
            assert np.array_equal(ens.dense_unscaled[n], ens.unscaled_counts[n])

    def test_return_counts_accumulate_dense_rows(self):
        spec = IID("rademacher")
        cfg = WalkConfig(beta=0.4, n_max=64, replicas=300, seed=2, dense_counts=True)
        ens = simulate(spec, cfg)
        # cumulative returns at n equal the column sums of the dense table
        for n in ens.checkpoints:
            assert np.array_equal(
                ens.return_count_sums[n], ens.dense_unscaled[1 : n + 1].sum(axis=0)
            )


class TestBlockedWalk:
    def test_q1_is_identity(self):
        x = np.arange(6, dtype=complex)
        assert np.array_equal(blocked_increments(x, 0, 1), x)

    def test_q2_literal_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        got = blocked_increments(x, 1, 2)
        lit = np.exp(1j * math.pi) * (x[0::2] + np.exp(-1j * math.pi) * x[1::2])
        assert np.allclose(got, lit, atol=1e-14)

    def test_pathwise_identity_q5(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        xp = blocked_increments(x, 2, 5)
        beta = Angle.rational(2, 5)
        s = 0j
        for k in range(500):
            s = step(s, beta, x[k])
            if (k + 1) % 5 == 0:
                ref = xp[: (k + 1) // 5].sum()
                assert abs(s - ref) <= 1e-10 * max(1.0, abs(s))

    def test_pathwise_identity_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = int(rng.integers(1, 12))
            ps = [p for p in range(q) if math.gcd(p, q) == 1]
            p = int(rng.choice(ps))
            nb = int(rng.integers(1, 40))
            x = rng.standard_normal(nb * q) + 1j * rng.standard_normal(nb * q)
            xp = blocked_increments(x, p, q)
            beta = Angle.rational(p, q)
            s = 0j
            for k in range(nb * q):
                s = step(s, beta, x[k])
            assert abs(s - xp.sum()) <= 1e-10 * max(1.0, abs(s))

    def test_stream_wrapper(self):
        # blocking a stream piece by piece, in multiples of q, is blocking it whole
        spec = IID("complex-gaussian")
        stream = make_stream(spec, 10)
        xp = np.concatenate([blocked_increments(stream.take(3 * k), 1, 3) for k in (7, 13, 20)])
        x = make_stream(spec, 10).take(120)
        assert np.array_equal(xp, blocked_increments(x, 1, 3))

    def test_errors(self):
        with pytest.raises(ValueError):
            blocked_increments(np.ones(3, dtype=complex), 1, 0)
        with pytest.raises(ValueError):
            blocked_increments(np.ones(4, dtype=complex), 2, 4)  # not reduced
        with pytest.raises(ValueError):
            blocked_increments(np.ones(5, dtype=complex), 1, 2)  # length mismatch


class TestRotationCoordinate:
    def test_exact_rational_arithmetic(self):
        cfg = WalkConfig(beta=Angle.rational(3, 7), n_max=100,
                         checkpoints=[1, 7, 50, 100], replicas=2, seed=1)
        ens = simulate(IID("rademacher"), cfg)
        for n in cfg.checkpoints:
            assert ens.rotation[n] == Angle.rational(3 * n, 7).value
            assert cfg.beta.times(n) == Angle.rational(3 * n, 7)
        assert ens.beta_fraction == (3, 7)

    def test_float_coordinate(self):
        cfg = WalkConfig(beta=0.9, n_max=10, checkpoints=[10], replicas=1, seed=1)
        ens = simulate(IID("rademacher"), cfg)
        assert ens.rotation[10] == pytest.approx((9.0) % TWO_PI, rel=1e-12)
        assert ens.beta_fraction is None
