"""Twisted random walk engine: checkpointed replica ensembles.

The walk is the recursion S_0 = 0, S_n = e^{i beta} S_{n-1} + X_{n-1};
carried alongside is the rotation coordinate n*beta (mod 2*pi), so the pair
is the random walk (S_n, e^{i n beta}) in the rotation-extended plane.
e^{i beta} is computed once per run and every step is one complex
multiply-add, so positions accumulate in double precision with an error
bounded by O(n * ulp * max|S|); the bound is echoed into reports.

Two kinds of ball statistics are recorded and must not be conflated:

* return counts use the *unscaled* ball |S_k| <= eta (returns of the walk
  itself, the recurrence notion), and
* small-ball tables use the *scaled* ball |n^{-1/2} S_n| <= eta (the
  quantity the recurrence criterion bounds below by c * eta^2).

Raw mode (``record_raw``) keeps the scaled samples at every checkpoint;
streaming mode keeps characteristic-function sums on the structured t-grid
instead.  Everything else -- ball counts, moments, return counts and the
sum of squared per-replica return increments between ``mid_checkpoint`` and
the last checkpoint -- is reduced the same way in both modes, so every
statistic the two modes share comes from one code path, and samples serve
only the bootstrap noise floors.

Replicas are embarrassingly parallel.  Replica r draws from a counter-based
generator keyed by (seed, r); replicas are processed in fixed-size batches,
and each batch is folded into the run totals as it completes, in batch
order, so the worker count can never change any output bit.  Each thread
keeps a pool of generators and re-keys them for every batch it runs, which
gives the same streams as building new ones, so generator reuse cannot
change any bit either.
"""

from __future__ import annotations

import concurrent.futures
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .group import Angle, as_angle
from .processes import ConfigError, _SpectralEmbedding, _batch_state, make_generator

TWO_PI = 2.0 * math.pi

#: |t| <= 4, 32 points per ray, rays along 1 and e^{i pi/4}; fixed at run
#: start so streaming-mode characteristic functions can accumulate.
ECF_POINTS_PER_RAY = 32
ECF_TMAX = 4.0
ECF_M_MAX = 8
#: points in the base grid (two rays), the block size of the structured grid
ECF_BLOCK = 2 * ECF_POINTS_PER_RAY

#: the step loop keeps positions for about BLOCK_VALUES replica-steps, and
#: at most BLOCK_STEPS steps, before reducing them
BLOCK_VALUES = 1 << 16
BLOCK_STEPS = 256

#: raw samples are kept while 2 * 16 * replicas * checkpoints bytes fit
RAW_CAP_BYTES = 1 << 29
#: the largest replicas * n_max a run may ask for
RESOURCE_CAP = 1 << 31

#: ball radii of a run that names none
ETA_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)

#: each thread's generators, re-keyed for every batch it runs
_POOL = threading.local()


class ResourceCapError(RuntimeError):
    """replicas * n_max exceeds RESOURCE_CAP."""


def default_ecf_tgrid() -> np.ndarray:
    mags = np.linspace(ECF_TMAX / ECF_POINTS_PER_RAY, ECF_TMAX, ECF_POINTS_PER_RAY)
    rays = np.array([1.0, np.exp(1j * np.pi / 4.0)])
    return (mags[None, :] * rays[:, None]).ravel()


def structured_ecf_tgrid(beta: float, m_max: int = ECF_M_MAX) -> np.ndarray:
    """The run-start t-grid: base rays, their twist-angle rotations, and a
    sqrt(2)-rescale.

    Layout (base size ECF_BLOCK): blocks m = 0..m_max hold base * e^{i beta m},
    the final block holds base / sqrt(2).  These are exactly the points the
    rotation-invariance and divisibility statistics read, so both memory
    modes compute them from the same characteristic function values.
    """
    base = default_ecf_tgrid()
    blocks = [base * np.exp(1j * beta * m) for m in range(m_max + 1)]
    blocks.append(base / math.sqrt(2.0))
    return np.concatenate(blocks)


def ecf(samples: np.ndarray, tpoints: np.ndarray) -> np.ndarray:
    """Empirical characteristic function at complex frequencies t.

    Uses the real pairing <t, z> = Re(t) Re(z) + Im(t) Im(z); evaluation is
    chunked over samples so large replica sets stay in bounded memory.
    """
    z = np.asarray(samples)
    t = np.asarray(tpoints)
    total = np.zeros(t.size, dtype=complex)
    for lo in range(0, z.size, 16384):
        zc = z[lo : lo + 16384]
        total += np.exp(1j * (np.outer(zc.real, t.real) + np.outer(zc.imag, t.imag))).sum(axis=0)
    return total / z.size


def geometric_checkpoints(n_max: int) -> tuple:
    """The grid ceil(2^(j/2)) intersected with [1, n_max], plus n_max.

    Half-octave spacing resolves power laws on log-log axes and contains
    every power of two up to n_max together with its half.
    """
    pts = set()
    j = 0
    while True:
        n = math.ceil(2.0 ** (j / 2.0))
        if n > n_max:
            break
        pts.add(n)
        j += 1
    pts.add(n_max)
    return tuple(sorted(pts))


def mid_checkpoint(checkpoints) -> int:
    """The checkpoint nearest the geometric midpoint of the run (log n_hi / 2);
    return growth is measured from it to the last checkpoint."""
    n_hi = checkpoints[-1]
    return min(checkpoints, key=lambda c: abs(math.log(max(c, 1)) - math.log(n_hi) / 2.0))


@dataclass
class WalkConfig:
    beta: Angle | float
    n_max: int
    checkpoints: object = "geometric"
    replicas: int = 1
    seed: int = 0
    eta_grid: tuple = ETA_GRID
    dense_counts: bool | None = None  # None: on when n_max <= 4096
    record_raw: bool | None = None  # None: on while within RAW_CAP_BYTES
    ecf_tgrid: np.ndarray = field(init=False, repr=False)  # structured grid of beta
    workers: int = 1
    batch_size: int | None = None
    budget_s: float | None = None

    def __post_init__(self):
        self.beta = as_angle(self.beta)
        self.n_max = int(self.n_max)
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if isinstance(self.checkpoints, str):
            if self.checkpoints != "geometric":
                raise ConfigError(f"unknown checkpoint rule {self.checkpoints!r}")
            self.checkpoints = geometric_checkpoints(self.n_max)
        else:
            cps = tuple(sorted({int(c) for c in self.checkpoints}))
            if not cps:
                raise ConfigError("checkpoint list must be nonempty")
            if cps[0] < 1 or cps[-1] > self.n_max:
                raise ConfigError("checkpoints must lie in [1, n_max]")
            self.checkpoints = cps
        etas = tuple(float(e) for e in self.eta_grid)
        if not etas or any(e <= 0 for e in etas) or list(etas) != sorted(etas):
            raise ConfigError("eta_grid must be a sorted tuple of positive radii")
        self.eta_grid = etas
        if self.dense_counts is None:
            self.dense_counts = self.n_max <= 4096
        if self.record_raw is None:
            # a complex sample per replica and checkpoint in the run totals,
            # and as much again at most in batches that finished ahead of
            # their turn and wait to be folded
            need = 2 * 16 * self.replicas * len(self.checkpoints)
            self.record_raw = need <= RAW_CAP_BYTES
        self.ecf_tgrid = structured_ecf_tgrid(self.beta.value)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def rotation_coordinate(self, n: int) -> float:
        """n*beta mod 2*pi; exact integer arithmetic for rational angles."""
        return self.beta.times(n).value


@dataclass
class CheckpointEnsemble:
    """Per-checkpoint replica statistics of a simulated twisted walk."""

    checkpoints: tuple
    eta_grid: tuple
    replicas: int
    seed: int
    beta_value: float
    beta_fraction: tuple | None
    mode: str  # "raw" | "streaming"
    samples: dict | None  # n -> (R,) complex, scaled positions n^{-1/2} S_n
    # (E,) int64: sum over replicas of (returns at the last checkpoint -
    # returns at mid_checkpoint)^2, returns counted as #{k<=n: |S_k|<=eta}
    return_increment_sq: np.ndarray
    scaled_counts: dict = field(default_factory=dict)  # n -> (E,) int64
    unscaled_counts: dict = field(default_factory=dict)  # n -> (E,) int64
    return_count_sums: dict = field(default_factory=dict)  # n -> (E,) int64
    moment_sums: dict = field(default_factory=dict)  # n -> [sum z, sum |z|^2, sum |z|^4]
    max_abs: dict = field(default_factory=dict)  # n -> max |S_n| over replicas
    rotation: dict = field(default_factory=dict)  # n -> n*beta mod 2pi
    ecf_sums: dict | None = None  # n -> (T,) complex sums of e^{i<t, scaled>}
    ecf_tgrid: np.ndarray | None = None
    dense_scaled: np.ndarray | None = None  # (n_max+1, E) int64
    dense_unscaled: np.ndarray | None = None
    partial: bool = False
    replicas_done: int = 0
    n_max: int = 0

    def mean_scaled_abs2(self, n: int) -> float:
        s = self.moment_sums[int(n)]
        return float(s[2]) / self.replicas_done

    def ecf(self, n: int, points=slice(None)) -> np.ndarray:
        """Empirical characteristic function of the scaled position at n, on
        ``ecf_tgrid[points]``; raw mode evaluates only those points."""
        if self.samples is not None:
            return ecf(self.samples[int(n)], self.ecf_tgrid[points])
        if self.ecf_sums is None:
            raise ValueError("no characteristic-function data recorded")
        return self.ecf_sums[int(n)][points] / self.replicas_done


def step(s: complex, beta, x: complex) -> complex:
    """One twisted step: e^{i beta} s + x."""
    b = as_angle(beta).value
    return complex(math.cos(b), math.sin(b)) * s + x


class _BatchAccumulator:
    """Everything a run of ``size`` consecutive replicas contributes, in
    replica order: one batch, or the run totals the batches are added into."""

    def __init__(self, cfg: WalkConfig, size: int):
        E = len(cfg.eta_grid)
        C = len(cfg.checkpoints)
        self.samples = None
        if cfg.record_raw:
            self.samples = {n: np.empty(size, dtype=complex) for n in cfg.checkpoints}
        self.return_increment_sq = np.zeros(E, dtype=np.int64)
        self.scaled_counts = np.zeros((C, E), dtype=np.int64)
        self.unscaled_counts = np.zeros((C, E), dtype=np.int64)
        self.return_count_sums = np.zeros((C, E), dtype=np.int64)
        self.moment_sums = np.zeros((C, 4), dtype=float)  # re, im, |z|^2, |z|^4
        self.max_abs = np.zeros(C, dtype=float)
        self.ecf_sums = None
        if not cfg.record_raw:
            self.ecf_sums = np.zeros((C, cfg.ecf_tgrid.size), dtype=complex)
        self.dense_scaled = (
            np.zeros((cfg.n_max + 1, E), dtype=np.int64) if cfg.dense_counts else None
        )
        self.dense_unscaled = (
            np.zeros((cfg.n_max + 1, E), dtype=np.int64) if cfg.dense_counts else None
        )
        self.size = size

    def add(self, other: "_BatchAccumulator", lo: int) -> None:
        """Fold in ``other``, whose replicas start at replica ``lo`` of these."""
        if self.samples is not None:
            for n, z in other.samples.items():
                self.samples[n][lo : lo + other.size] = z
        self.return_increment_sq += other.return_increment_sq
        self.scaled_counts += other.scaled_counts
        self.unscaled_counts += other.unscaled_counts
        self.return_count_sums += other.return_count_sums
        self.moment_sums += other.moment_sums
        np.maximum(self.max_abs, other.max_abs, out=self.max_abs)
        if self.ecf_sums is not None:
            self.ecf_sums += other.ecf_sums
        if self.dense_scaled is not None:
            self.dense_scaled += other.dense_scaled
            self.dense_unscaled += other.dense_unscaled


def _generators(seed: int, lo: int, hi: int) -> list:
    """The generators of replicas lo..hi-1: this thread's pooled ones,
    re-keyed, and new ones past the largest batch the pool has served."""
    pool = getattr(_POOL, "gens", [])
    gens = [make_generator(seed, r, reuse=g) for r, g in zip(range(lo, hi), pool)]
    gens += [make_generator(seed, r) for r in range(lo + len(gens), hi)]
    if len(gens) > len(pool):
        _POOL.gens = gens
    return gens


def _run_batch(spec, cfg: WalkConfig, lo: int, hi: int, embedding) -> _BatchAccumulator:
    state = _batch_state(spec, _generators(cfg.seed, lo, hi), embedding)
    B = hi - lo
    acc = _BatchAccumulator(cfg, B)
    eta2 = np.asarray(cfg.eta_grid, dtype=float) ** 2
    c = complex(math.cos(cfg.beta.value), math.sin(cfg.beta.value))
    checkpoints = cfg.checkpoints + (cfg.n_max + 1,)  # sentinel past the run
    ci_mid = cfg.checkpoints.index(mid_checkpoint(cfg.checkpoints))
    ci_last = len(cfg.checkpoints) - 1

    # a lone replica steps on two identical lanes: numpy rounds arithmetic
    # on a one-element array like a scalar, which would give it other bits
    # than it gets in any larger batch
    W = max(B, 2)
    S = np.zeros(W, dtype=complex)
    returns = np.zeros((eta2.size, B), dtype=np.int32)  # one row per radius
    # positions are written step by step into a time-major block; the ball
    # counts then run once per block instead of once per step
    block = np.empty((min(BLOCK_STEPS, max(1, BLOCK_VALUES // W)), W), dtype=complex)
    if acc.ecf_sums is not None:
        # phase buffers reused at every checkpoint: fresh multi-megabyte
        # temporaries each time cost more in page faults than the exp itself
        t_grid = cfg.ecf_tgrid
        arg = np.empty((B, t_grid.size))
        ph = np.empty((B, t_grid.size), dtype=complex)
    ci = 0

    # time-chunked generation; chunk size only bounds the increment buffer
    chunk = max(256, min(4096, (1 << 23) // max(B, 1)))
    n = 0
    while n < cfg.n_max:
        count = min(chunk, cfg.n_max - n)
        X = state.emit(count).T
        t = 0
        while t < count:
            # blocks end at the chunk's end and at the next checkpoint
            L = min(len(block), count - t, checkpoints[ci] - n)
            P = block[:L]
            for i in range(L):
                S *= c
                S += X[t + i]
                P[i] = S
            P = P[:, :B]
            a2 = P.real * P.real + P.imag * P.imag
            ns = np.arange(n + 1, n + L + 1, dtype=float)
            for e, r2 in enumerate(eta2):
                hits = a2 <= r2
                returns[e] += hits.sum(axis=0, dtype=np.int32)
                if acc.dense_unscaled is not None:
                    acc.dense_unscaled[n + 1 : n + L + 1, e] = np.count_nonzero(hits, axis=1)
                    acc.dense_scaled[n + 1 : n + L + 1, e] = np.count_nonzero(
                        a2 <= (ns * r2)[:, None], axis=1)
            n += L
            t += L
            if n != checkpoints[ci]:
                continue
            a2 = a2[-1]
            scaled = (S / math.sqrt(n))[:B]
            sa2 = a2 / n
            acc.scaled_counts[ci] += (sa2[:, None] <= eta2[None, :]).sum(axis=0)
            acc.unscaled_counts[ci] += (a2[:, None] <= eta2[None, :]).sum(axis=0)
            acc.return_count_sums[ci] += returns.sum(axis=1, dtype=np.int64)
            acc.moment_sums[ci] += (
                scaled.real.sum(),
                scaled.imag.sum(),
                sa2.sum(),
                (sa2 * sa2).sum(),
            )
            acc.max_abs[ci] = max(acc.max_abs[ci], float(np.sqrt(a2.max())))
            if ci == ci_mid:
                mid_returns = returns.copy()
            if ci == ci_last:
                d = (returns - mid_returns).astype(np.int64)
                acc.return_increment_sq += (d * d).sum(axis=1)
            if acc.samples is not None:
                acc.samples[n] = scaled
            if acc.ecf_sums is not None:
                np.outer(scaled.real, t_grid.real, out=arg)
                arg += np.outer(scaled.imag, t_grid.imag, out=ph.real)  # ph as scratch
                np.multiply(1j, arg, out=ph)
                acc.ecf_sums[ci] += np.exp(ph, out=ph).sum(axis=0)
            ci += 1
    return acc


def _batch_plan(spec, cfg: WalkConfig):
    size = spec.BATCH_SIZE if cfg.batch_size is None else int(cfg.batch_size)
    size = max(1, min(size, cfg.replicas))
    return [(lo, min(lo + size, cfg.replicas)) for lo in range(0, cfg.replicas, size)]


def simulate(spec, cfg: WalkConfig) -> CheckpointEnsemble:
    """Run the walk over independent replicas and collect checkpoint data.

    Deterministic in (spec, cfg.seed): the batch decomposition is fixed by
    the spec family, and each batch is folded into the run totals as it
    completes, in batch order.  ``workers`` only schedules batches: one runs
    them on the calling thread, more run them on a thread pool.  A
    wall-clock budget stops the run at the next batch boundary, cancels the
    batches not yet started and marks the ensemble partial.
    """
    if cfg.replicas * cfg.n_max > RESOURCE_CAP:
        raise ResourceCapError(
            f"replicas * n_max = {cfg.replicas * cfg.n_max} exceeds the cap {RESOURCE_CAP}"
        )
    embedding_args = spec.embedding_args(cfg.n_max)
    embedding = _SpectralEmbedding(*embedding_args) if embedding_args else None

    def run(batch):
        lo, hi = batch
        return _run_batch(spec, cfg, lo, hi, embedding)

    batches = _batch_plan(spec, cfg)
    total = _BatchAccumulator(cfg, cfg.replicas)
    done = 0
    t0 = time.monotonic()
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers)
    try:
        results = map(run, batches) if cfg.workers == 1 else pool.map(run, batches)
        # the first batch always runs so a budgeted run still yields flagged output
        for (lo, hi), acc in zip(batches, results):
            total.add(acc, lo)
            done = hi
            if cfg.budget_s is not None and time.monotonic() - t0 > cfg.budget_s:
                break
    finally:
        pool.shutdown(cancel_futures=True)
    return _merge(cfg, total, partial=done < cfg.replicas, replicas_done=done)


def _merge(cfg: WalkConfig, total: _BatchAccumulator, partial: bool,
           replicas_done: int) -> CheckpointEnsemble:
    cps = cfg.checkpoints
    samples = None
    if total.samples is not None:
        samples = {n: z[:replicas_done] for n, z in total.samples.items()}
    return CheckpointEnsemble(
        checkpoints=cps,
        eta_grid=cfg.eta_grid,
        replicas=cfg.replicas,
        seed=cfg.seed,
        beta_value=cfg.beta.value,
        beta_fraction=(cfg.beta.p, cfg.beta.q) if cfg.beta.is_rational else None,
        mode="raw" if cfg.record_raw else "streaming",
        samples=samples,
        return_increment_sq=total.return_increment_sq,
        scaled_counts=dict(zip(cps, total.scaled_counts)),
        unscaled_counts=dict(zip(cps, total.unscaled_counts)),
        return_count_sums=dict(zip(cps, total.return_count_sums)),
        moment_sums=dict(zip(cps, total.moment_sums)),
        max_abs=dict(zip(cps, total.max_abs)),
        rotation={n: cfg.rotation_coordinate(n) for n in cps},
        ecf_sums=None if total.ecf_sums is None else dict(zip(cps, total.ecf_sums)),
        ecf_tgrid=cfg.ecf_tgrid,
        dense_scaled=total.dense_scaled,
        dense_unscaled=total.dense_unscaled,
        partial=partial,
        replicas_done=replicas_done,
        n_max=cfg.n_max,
    )


# ---------------------------------------------------------------------------
# rational twist angles: the blocked walk
# ---------------------------------------------------------------------------


def blocked_increments(x: np.ndarray, p: int, q: int) -> np.ndarray:
    """Collapse q steps of the twisted walk at beta = 2*pi*p/q into one.

    X'_k = e^{i(q-1)beta} sum_{m<q} e^{-im beta} x[kq+m]; the plain partial
    sums of X' reproduce the twisted walk along multiples of q:
    sum_{j<n} X'_j = S^{(beta)}_{nq} pathwise.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    p, q = int(p), int(q)
    if q < 0:
        p, q = -p, -q
    if math.gcd(p % q, q) != 1:
        raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
    x = np.asarray(x, dtype=complex)
    if x.size % q:
        raise ValueError(f"need a multiple of q={q} increments, got {x.size}")
    beta = TWO_PI * p / q
    phases = np.exp(-1j * beta * np.arange(q)) * np.exp(1j * (q - 1) * beta)
    return (x.reshape(-1, q) * phases[None, :]).sum(axis=1)
