"""Turn walk ensembles into recurrence/transience evidence.

The functionals computed here:

* small-ball probabilities p_hat(n, eta) = P[|n^{-1/2} S_n| <= eta] and
  their Cesaro averages tau_n(eta) = (1/n) sum_{k<=n} sigma_k(eta);
* the criterion constant c_hat(eta) = min over a late-n window of
  p_hat(n, eta) / eta^2 -- a persistent positive value across all small eta
  is the signature of recurrence;
* structure statistics of the scaled law: invariance under rotation by the
  twist angle, and the two-scale divisibility identity
  cf_n(t) ~= cf_{n/2}(t / sqrt 2)^2 tested through empirical characteristic
  functions on a fixed low-dimensional t-grid;
* a transience test through summability: if the *unscaled* return
  probabilities P[|S_n| <= eta] decay like n^{-gamma} with gamma > 1, their
  partial sums converge and returns eventually stop (Borel-Cantelli).

Everything here is a pure reduction of ensemble data; confidence machinery
is plain binomial/bootstrap.  Each statistic reads what raw and streaming
runs both record (ball counts, integer return sums, characteristic-function
values on the structured t-grid), so the report's numbers and its label do
not depend on the memory mode; raw samples only add bootstrap noise floors.
The classifier reports *evidence*, never proof; its thresholds are fixed
(``THRESHOLDS``) and echoed in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .spectral import CONVENTION_NOTE
from .walk import (
    ECF_BLOCK,
    ECF_M_MAX,
    CheckpointEnsemble,
    default_ecf_tgrid,
    ecf,
    mid_checkpoint,
    structured_ecf_tgrid,
)

SCHEMA_VERSION = 1

FLOAT_ERROR_NOTE = (
    "positions accumulate in double precision; the pathwise error is "
    "O(n_max * ulp * max|S|)"
)


class Estimate(NamedTuple):
    value: float
    se: float
    count: int
    replicas: int


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else float("nan")


# ---------------------------------------------------------------------------
# small-ball tables
# ---------------------------------------------------------------------------


@dataclass
class SmallBallTable:
    """p_hat(n, eta) for the scaled ball, on the checkpoint x eta grid."""

    ns: np.ndarray
    etas: np.ndarray
    p_hat: np.ndarray  # (N, E)
    se: np.ndarray
    replicas: int

    def __post_init__(self):
        if np.any(np.diff(self.p_hat, axis=1) < 0):
            raise ValueError("small-ball table must be monotone in eta on a shared replica set")

    @classmethod
    def from_ensemble(cls, ens: CheckpointEnsemble) -> "SmallBallTable":
        ns = np.asarray(ens.checkpoints, dtype=int)
        etas = np.asarray(ens.eta_grid, dtype=float)
        R = ens.replicas_done
        counts = np.stack([ens.scaled_counts[n] for n in ens.checkpoints]).astype(float)
        p = counts / R
        se = np.sqrt(np.maximum(p * (1 - p), 0.0) / R)
        return cls(ns, etas, p, se, R)


def _eta_index(ens: CheckpointEnsemble, eta: float) -> int:
    match = np.isclose(ens.eta_grid, eta)
    if not match.any():
        raise ValueError(f"eta={eta} not on the recorded grid")
    return int(np.argmax(match))


def _ball(ens: CheckpointEnsemble, counts: dict, n: int, eta: float) -> Estimate:
    n = int(n)
    if n not in counts:
        raise KeyError(f"{n} is not a recorded checkpoint")
    R = ens.replicas_done
    k = int(counts[n][_eta_index(ens, eta)])
    p = k / R
    return Estimate(p, _binom_se(p, R), k, R)


def small_ball(ens: CheckpointEnsemble, n: int, eta: float) -> Estimate:
    """Fraction of replicas with |n^{-1/2} S_n| <= eta, with binomial SE;
    eta must be on the recorded grid."""
    return _ball(ens, ens.scaled_counts, n, eta)


def unscaled_ball(ens: CheckpointEnsemble, n: int, eta: float) -> Estimate:
    """Fraction of replicas with |S_n| <= eta (no scaling)."""
    return _ball(ens, ens.unscaled_counts, n, eta)


def tau(ens: CheckpointEnsemble, n: int, eta: float):
    """Cesaro average (1/n) sum_{k<=n} sigma_k(eta) of scaled-ball probabilities.

    Dense mode (per-step tables recorded) evaluates the sum exactly;
    otherwise sigma is interpolated linearly in log k across the checkpoint
    grid.  Returns (Estimate, "dense" or "grid").
    """
    n = int(n)
    j = _eta_index(ens, eta)
    R = ens.replicas_done
    if ens.dense_scaled is not None and n <= ens.dense_scaled.shape[0] - 1:
        total = float(ens.dense_scaled[1 : n + 1, j].sum())
        value = total / (n * R)
        se = math.sqrt(value * max(1.0 - value, 0.0) / R)  # conservative: steps correlate
        return Estimate(value, se, int(total), R), "dense"
    cps = np.asarray([c for c in ens.checkpoints if c <= n], dtype=int)
    if cps.size == 0 or n > max(ens.checkpoints):
        raise ValueError(f"tau at n={n} needs checkpoints up to n")
    sigma = np.array([ens.scaled_counts[c][j] / R for c in cps])
    ks = np.arange(1, n + 1)
    interp = np.interp(np.log(ks), np.log(cps), sigma)
    value = float(interp.mean())
    se = math.sqrt(value * max(1.0 - value, 0.0) / R)
    return Estimate(value, se, -1, R), "grid"


def recurrence_constant(table: SmallBallTable, eta_grid=None, n_window=None,
                        significance: float = 1e-3) -> dict:
    """c_hat(eta) = min over the window of p_hat(n, eta) / eta^2.

    A persistent lower bound c_hat(eta) >= c > 0 across small eta is the
    criterion signature.  Also reports a one-sided lower confidence bound at
    the given significance.
    """
    etas = np.asarray(eta_grid if eta_grid is not None else table.etas, dtype=float)
    window = np.asarray(n_window if n_window is not None else table.ns, dtype=int)
    mask = np.isin(table.ns, window)
    if not mask.any():
        raise ValueError("empty n-window for the recurrence constant")
    z = _z_for(significance)
    out = {}
    for eta in etas:
        j = int(np.argmin(np.abs(table.etas - eta)))
        p = table.p_hat[mask, j]
        se = table.se[mask, j]
        i = int(np.argmin(p))
        out[float(table.etas[j])] = {
            "c_hat": float(p[i] / table.etas[j] ** 2),
            "c_lower": float(max(p[i] - z * se[i], 0.0) / table.etas[j] ** 2),
            "n_at_min": int(np.asarray(table.ns)[mask][i]),
        }
    return out


def _z_for(significance: float) -> float:
    """Upper-tail standard normal quantile: P(Z > z) = significance."""
    from statistics import NormalDist

    return -NormalDist().inv_cdf(significance)


# ---------------------------------------------------------------------------
# characteristic-function structure statistics
# ---------------------------------------------------------------------------


def _rotated_grid(beta, m_max: int) -> np.ndarray:
    """Blocks m = 0..m_max of the structured grid: base * e^{i beta m}."""
    b = float(beta.value) if hasattr(beta, "value") else float(beta)
    return structured_ecf_tgrid(b, m_max)[: (m_max + 1) * ECF_BLOCK]


def rotation_invariance_stat(samples: np.ndarray, beta, m_max: int = ECF_M_MAX) -> float:
    """max over m <= m_max, t in the grid of |cf(t) - cf(e^{i m beta} t)|.

    Zero in law when the scaled distribution is invariant under rotation by
    beta (equivalently under e^{-i m beta} acting on the samples).
    """
    phi = ecf(samples, _rotated_grid(beta, m_max)).reshape(m_max + 1, ECF_BLOCK)
    return float(np.abs(phi[1:] - phi[0][None, :]).max())


def divisibility_stat(samples_n: np.ndarray, samples_half: np.ndarray) -> float:
    """sup_t |cf_n(t) - cf_half(t / sqrt 2)^2| over the fixed t-grid.

    Tests the two-scale factorization a weak limit of the scaled walk must
    satisfy: the law at n is the law at n/2 convolved with itself and
    rescaled by sqrt 2.
    """
    t = default_ecf_tgrid()
    phi_n = ecf(samples_n, t)
    phi_h = ecf(samples_half, t / math.sqrt(2.0))
    return float(np.abs(phi_n - phi_h ** 2).max())


def rotation_invariance_from_sums(ens: CheckpointEnsemble, n: int) -> float:
    """Rotation-invariance statistic at n from the ensemble's characteristic
    function on blocks 0..ECF_M_MAX of its structured grid (either mode)."""
    M = ECF_M_MAX + 1
    phi = ens.ecf(n, slice(0, M * ECF_BLOCK)).reshape(M, ECF_BLOCK)
    return float(np.abs(phi[1:] - phi[:1]).max())


def divisibility_from_sums(ens: CheckpointEnsemble, n: int) -> float:
    """Divisibility statistic at n and n//2 from the ensemble's characteristic
    function: the base block at n, the rescaled final block at n//2."""
    half = int(n) // 2
    if half not in ens.scaled_counts:
        raise ValueError(f"checkpoint {half} was not recorded")
    phi_n = ens.ecf(n, slice(0, ECF_BLOCK))
    phi_h = ens.ecf(half, slice(-ECF_BLOCK, None))
    return float(np.abs(phi_n - phi_h ** 2).max())


def _boot_ecf(samples: np.ndarray, tpoints: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """(n_boot, T) bootstrap ECFs as count-weighted averages.

    Resampling with replacement is a multinomial reweighting of the phase
    matrix, so all resamples share one pass over the samples; single
    precision is ample for noise floors.
    """
    z = np.asarray(samples)
    t = np.asarray(tpoints)
    R = z.size
    counts = np.empty((n_boot, R), dtype=np.float32)
    for b in range(n_boot):
        counts[b] = np.bincount(rng.integers(0, R, size=R), minlength=R)
    out = np.zeros((n_boot, t.size), dtype=np.complex64)
    for lo in range(0, R, 16384):
        zc = z[lo : lo + 16384]
        block = np.exp(
            1j * (np.outer(zc.real, t.real) + np.outer(zc.imag, t.imag))
        ).astype(np.complex64)
        out += counts[:, lo : lo + 16384].astype(np.complex64) @ block
    return out.astype(complex) / R


def _floor_summary(vals: np.ndarray, n_boot: int) -> dict:
    return {
        "mean": float(vals.mean()),
        "se": float(vals.std(ddof=1)),
        "q95": float(np.quantile(vals, 0.95)),
        "n_boot": int(n_boot),
    }


def rotation_invariance_noise_floor(samples, beta, m_max: int = ECF_M_MAX, n_boot: int = 100,
                                    seed: int = 1) -> dict:
    """Bootstrap distribution of the rotation-invariance statistic."""
    rng = np.random.default_rng(np.random.Philox(key=int(seed)))
    phis = _boot_ecf(samples, _rotated_grid(beta, m_max), n_boot, rng).reshape(
        n_boot, m_max + 1, ECF_BLOCK)
    vals = np.abs(phis[:, 1:, :] - phis[:, :1, :]).max(axis=(1, 2))
    return _floor_summary(vals, n_boot)


def divisibility_noise_floor(samples_n, samples_half, n_boot: int = 100, seed: int = 1) -> dict:
    """Bootstrap distribution of the divisibility statistic."""
    t = default_ecf_tgrid()
    rng = np.random.default_rng(np.random.Philox(key=int(seed)))
    phi_n = _boot_ecf(samples_n, t, n_boot, rng)
    phi_h = _boot_ecf(samples_half, t / math.sqrt(2.0), n_boot, rng)
    vals = np.abs(phi_n - phi_h ** 2).max(axis=1)
    return _floor_summary(vals, n_boot)


# ---------------------------------------------------------------------------
# growth and summability
# ---------------------------------------------------------------------------


def growth_exponent(ens: CheckpointEnsemble, top_fraction: float = 0.5) -> dict:
    """Least-squares slope of log E|S_n|^2 against log n, late checkpoints only.

    Diffusive scaling gives slope 1; slope near 3/2 is the super-diffusive
    signature of a spectral singularity at the twist angle.
    """
    cps = np.asarray(ens.checkpoints, dtype=float)
    lo = max(1, int(math.ceil(len(cps) * (1.0 - top_fraction))))
    cps = cps[lo:] if len(cps) > 1 else cps
    y = np.array([ens.mean_scaled_abs2(int(n)) * n for n in cps])
    good = y > 0
    if good.sum() < 2:
        return {"slope": float("nan"), "n_points": int(good.sum())}
    slope, intercept = np.polyfit(np.log(cps[good]), np.log(y[good]), 1)
    return {"slope": float(slope), "intercept": float(intercept), "n_points": int(good.sum())}


@dataclass
class SummabilityResult:
    gamma: float
    gamma_se: float
    verdict: str  # "summable-evidence" | "not-summable" | "inconclusive"
    eta: float
    partial_sum: float
    last_octave_fraction: float
    n_window: tuple
    dense: bool
    flags: tuple = ()
    points: list = field(default_factory=list)
    partial_sums: list = field(default_factory=list)  # [N, sum_{n<=N} p_hat]

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "gamma_se": self.gamma_se,
            "verdict": self.verdict,
            "eta": self.eta,
            "partial_sum": self.partial_sum,
            "last_octave_fraction": self.last_octave_fraction,
            "n_window": list(self.n_window),
            "dense": self.dense,
            "flags": list(self.flags),
            "points": self.points,
            "partial_sums": self.partial_sums,
        }


def transience_summability(ens: CheckpointEnsemble, eta: float, n_window=None,
                           significance: float = 1e-3) -> SummabilityResult:
    """Fit P[|S_n| <= eta] ~ n^{-gamma} and judge summability of the series.

    Dense tables aggregate every step into octave bins (one Poisson-weighted
    point per bin); without them the checkpoint grid is used directly with
    expected-count weights.  Verdict is "summable-evidence" when the fitted
    gamma exceeds 1 by z(significance) standard errors; partial sums and the
    fraction contributed by the last octave quantify visible saturation.
    """
    j = _eta_index(ens, eta)
    R = ens.replicas_done
    n_lo, n_hi = (int(n_window[0]), int(n_window[1])) if n_window is not None else (
        max(1, ens.n_max // 64), ens.n_max)
    dense = ens.dense_unscaled is not None and n_hi <= ens.dense_unscaled.shape[0] - 1

    points = []  # (n_center, p_hat, weight=observed count)
    flags = []
    edges = [n_lo]
    while edges[-1] * 2 <= n_hi:
        edges.append(edges[-1] * 2)
    if edges[-1] < n_hi:
        edges.append(n_hi)
    curve = []
    if dense:
        counts = ens.dense_unscaled[:, j]
        for a, b in zip(edges[:-1], edges[1:]):
            c = float(counts[a + 1 : b + 1].sum())
            width = b - a
            center = math.sqrt((a + 1) * b)
            points.append((center, c / (width * R), c))
        total = float(counts[1 : n_hi + 1].sum()) / R
        half = float(counts[1 : max(n_hi // 2, 1) + 1].sum()) / R
        curve = [[int(e), float(counts[1 : e + 1].sum()) / R] for e in edges]
    else:
        cps = [n for n in ens.checkpoints if n_lo <= n <= n_hi]
        for n in cps:
            k = float(ens.unscaled_counts[n][j])
            points.append((float(n), k / R, k))
        # partial sums via log-log interpolation of the positive points
        pos = [(n, p) for n, p, _ in points if p > 0]
        if len(pos) >= 2:
            ns_i = np.arange(n_lo, n_hi + 1, dtype=float)
            logp = np.interp(np.log(ns_i), np.log([n for n, _ in pos]),
                             np.log([p for _, p in pos]))
            cum = np.cumsum(np.exp(logp))
            total = float(cum[-1])
            half = float(cum[min(len(cum) - 1, n_hi // 2 - n_lo)]) if n_hi // 2 >= n_lo else 0.0
            curve = [[int(e), float(cum[e - n_lo])] for e in edges]
        else:
            total = half = 0.0
            flags.append("too-few-positive-points")

    usable = [(n, p, w) for n, p, w in points if p > 0 and w > 0]
    if not any(w > 0 for _, _, w in points):
        return SummabilityResult(
            gamma=float("inf"), gamma_se=0.0, verdict="summable-evidence", eta=float(eta),
            partial_sum=0.0, last_octave_fraction=0.0, n_window=(n_lo, n_hi),
            dense=dense, flags=("infinite-decay",), points=[])
    if len(usable) < 3:
        return SummabilityResult(
            gamma=float("nan"), gamma_se=float("nan"), verdict="inconclusive", eta=float(eta),
            partial_sum=total, last_octave_fraction=0.0, n_window=(n_lo, n_hi),
            dense=dense, flags=tuple(flags + ["too-few-points"]),
            points=[[n, p, w] for n, p, w in points])

    x = np.log([n for n, _, _ in usable])
    y = np.log([p for _, p, _ in usable])
    w = np.array([c for _, _, c in usable])
    xb = np.average(x, weights=w)
    yb = np.average(y, weights=w)
    sxx = float(np.sum(w * (x - xb) ** 2))
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    gamma = -slope
    # Poisson counts: var(log p_hat_i) ~ 1/count_i, so var(slope) = 1/sxx
    gamma_se = math.sqrt(1.0 / sxx)
    z = _z_for(significance)
    verdict = "summable-evidence" if gamma - z * gamma_se > 1.0 else (
        "not-summable" if gamma + z * gamma_se < 1.0 else "inconclusive")
    last_frac = (total - half) / total if total > 0 else 0.0
    return SummabilityResult(
        gamma=gamma, gamma_se=gamma_se, verdict=verdict, eta=float(eta),
        partial_sum=total, last_octave_fraction=float(last_frac),
        n_window=(n_lo, n_hi), dense=dense, flags=tuple(flags),
        points=[[float(n), float(p), float(c)] for n, p, c in points],
        partial_sums=curve)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


#: the decision rule's thresholds, echoed in every report
THRESHOLDS = {
    "c_min": 0.05,            # criterion constant must exceed this ...
    "eta_max": 0.5,           # ... for every grid eta below eta_max
    "min_n_max": 256,         # anything shorter is inconclusive
    "returns_z": 3.0,         # return growth must clear this many SEs
    "returns_fraction": 0.01,  # and this fraction of the mid-run level
    "decay_ratio": 0.5,       # late c_hat below this multiple of early
}


def returns_growth(ens: CheckpointEnsemble, eta: float) -> dict:
    """Mean return count at the last checkpoint versus ``mid_checkpoint``.

    Return counts are per-replica monotone, so growth is judged on the mean
    increment between the mid checkpoint and the last one.  Its standard
    error comes from the exact integer sums of the per-replica increments
    and of their squares, which both memory modes record.
    """
    j = _eta_index(ens, eta)
    R = ens.replicas_done
    n_hi = ens.checkpoints[-1]
    n_mid = mid_checkpoint(ens.checkpoints)
    s_hi = int(ens.return_count_sums[n_hi][j])
    s_mid = int(ens.return_count_sums[n_mid][j])
    hi = float(s_hi) / R
    mid = float(s_mid) / R
    if R > 1:
        s1, s2 = s_hi - s_mid, int(ens.return_increment_sq[j])
        se = math.sqrt((R * s2 - s1 * s1) / (R * (R - 1))) / math.sqrt(R)
    else:
        se = float("nan")
    return {"eta": float(eta), "n_mid": int(n_mid), "n_hi": int(n_hi),
            "mean_mid": mid, "mean_hi": hi, "mean_increment": hi - mid, "increment_se": se}


def classify(c_hat_late: dict, c_hat_early: dict, growth: dict,
             summability: SummabilityResult, n_max: int) -> dict:
    """Decision rule mapping the evidence to a label and a reason.

    recurrence-evidence: c_hat(eta) > c_min for every grid eta below eta_max
    and mean return counts still growing late in the run.
    transience-evidence: the summability verdict holds and c_hat has decayed
    (late window below c_min and below decay_ratio times the early window).
    Anything else -- including runs too short to populate the windows -- is
    inconclusive.  The thresholds are ``THRESHOLDS``.  The rule is a
    reporting convention, not a theorem.
    """
    t = THRESHOLDS
    if n_max < t["min_n_max"]:
        return {"label": "inconclusive", "reason": "run too short"}

    small = {e: v for e, v in c_hat_late.items() if e < t["eta_max"] + 1e-12}
    if not small:
        return {"label": "inconclusive", "reason": "no eta below eta_max"}
    c_ok = all(v["c_hat"] > t["c_min"] for v in small.values())
    inc = growth["mean_increment"]
    se = growth["increment_se"]
    grows = inc > t["returns_fraction"] * max(growth["mean_mid"], 1e-12) and (
        math.isnan(se) or inc > t["returns_z"] * se)
    if c_ok and grows:
        return {"label": "recurrence-evidence",
                "reason": "criterion constant positive and returns growing"}

    decayed = all(
        v["c_hat"] < t["c_min"]
        and v["c_hat"] < t["decay_ratio"] * max(c_hat_early[e]["c_hat"], 1e-300)
        for e, v in small.items()
    )
    if summability.verdict == "summable-evidence" and decayed:
        return {"label": "transience-evidence",
                "reason": "summable returns and vanishing criterion constant"}
    return {"label": "inconclusive", "reason": "mixed evidence"}


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    schema_version: int
    convention: str
    label: str
    reason: str
    small_ball: dict
    tau_table: dict
    c_hat: dict
    c_hat_early: dict
    growth: dict
    returns: dict
    summability: dict
    invariance: dict | None
    divisibility: dict | None
    collapse: dict
    run: dict
    numeric_error_bound: float
    flags: tuple = ()

    def as_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "convention": self.convention,
            "float_error_note": FLOAT_ERROR_NOTE,
            "numeric_error_bound": self.numeric_error_bound,
            "label": self.label,
            "reason": self.reason,
            "run": self.run,
            "small_ball": self.small_ball,
            "tau": self.tau_table,
            "c_hat": self.c_hat,
            "c_hat_early": self.c_hat_early,
            "growth": self.growth,
            "returns": self.returns,
            "summability": self.summability,
            "invariance": self.invariance,
            "divisibility": self.divisibility,
            "collapse": self.collapse,
            "thresholds": dict(THRESHOLDS),
            "flags": list(self.flags),
        }
        return out


def build_report(ens: CheckpointEnsemble, n_boot: int = 0) -> DiagnosticsReport:
    """Assemble the full diagnostics report for one ensemble.

    Every statistic comes from the same reduction in raw and streaming mode;
    raw samples add bootstrap noise floors when ``n_boot`` is nonzero.
    """
    table = SmallBallTable.from_ensemble(ens)
    cps = list(ens.checkpoints)
    R = ens.replicas_done

    late = [n for n in cps if n >= cps[-1] // 4] or cps[-1:]
    early_hi = max(cps[0], cps[-1] // 16)
    early = [n for n in cps if n <= early_hi] or cps[:1]
    c_late = recurrence_constant(table, n_window=late)
    c_early = recurrence_constant(table, n_window=early)

    tau_rows = {}
    for n in cps:
        row = {}
        for eta in ens.eta_grid:
            est, mode = tau(ens, n, eta)
            row[repr(float(eta))] = {"tau": est.value, "se": est.se, "mode": mode}
        tau_rows[str(n)] = row

    growth = growth_exponent(ens)
    sum_eta = max((e for e in ens.eta_grid if e <= 0.5), default=ens.eta_grid[0])
    summ = transience_summability(ens, sum_eta)
    grow = returns_growth(ens, sum_eta)
    verdictd = classify(c_late, c_early, grow, summ, ens.n_max)

    flags = []
    n_hi = cps[-1]
    half = n_hi // 2
    invariance = {"n": n_hi, "stat": rotation_invariance_from_sums(ens, n_hi),
                  "m_max": ECF_M_MAX}
    divisibility = None
    if half in ens.scaled_counts:
        divisibility = {"n": n_hi, "n_half": half, "stat": divisibility_from_sums(ens, n_hi)}
    if ens.samples is None:
        invariance["mode"] = "streaming"
        if divisibility is not None:
            divisibility["mode"] = "streaming"
    elif n_boot:
        s_hi = ens.samples[n_hi]
        invariance["noise_floor"] = rotation_invariance_noise_floor(
            s_hi, ens.beta_value, n_boot=n_boot, seed=1)
        if divisibility is not None:
            divisibility["noise_floor"] = divisibility_noise_floor(
                s_hi, ens.samples[half], n_boot=n_boot, seed=2)
    if divisibility is not None and abs(growth.get("slope", 1.0) - 1.0) > 0.25:
        divisibility["unreliable"] = True
        flags.append("divisibility-at-nonstandard-scaling")

    collapse = {"n": cps[-1], "mean_scaled_abs2": ens.mean_scaled_abs2(cps[-1])}

    small_ball_out = {
        "ns": [int(n) for n in table.ns],
        "etas": [float(e) for e in table.etas],
        "p_hat": table.p_hat.tolist(),
        "se": table.se.tolist(),
        "replicas": int(table.replicas),
    }
    run = {
        "replicas": int(ens.replicas),
        "replicas_done": int(R),
        "seed": int(ens.seed),
        "beta": float(ens.beta_value),
        "beta_fraction": list(ens.beta_fraction) if ens.beta_fraction else None,
        "n_max": int(ens.n_max),
        "checkpoints": [int(n) for n in cps],
        "eta_grid": [float(e) for e in ens.eta_grid],
        "mode": ens.mode,
        "partial": bool(ens.partial),
        "rotation_coordinate_at_n_max": float(ens.rotation[cps[-1]]),
    }
    bound = ens.n_max * 2.220446049250313e-16 * max(ens.max_abs.values())
    return DiagnosticsReport(
        schema_version=SCHEMA_VERSION,
        convention=CONVENTION_NOTE,
        label=verdictd["label"],
        reason=verdictd["reason"],
        small_ball=small_ball_out,
        tau_table=tau_rows,
        c_hat=c_late,
        c_hat_early=c_early,
        growth=growth,
        returns=grow,
        summability=summ.as_dict(),
        invariance=invariance,
        divisibility=divisibility,
        collapse=collapse,
        run=run,
        numeric_error_bound=float(bound),
        flags=tuple(flags),
    )
