"""Test-only helpers: Monte Carlo mixing checks of the finite-range families.

For an i.i.d. or moving-average spec the strong-mixing coefficient is
exactly zero beyond the dependence range, so the covariance of any two
functionals of windows further apart than that must vanish.
"""

import numpy as np

from twistwalk.processes import IID, MovingAverage, SpecError, make_stream


def dependence_range(spec) -> int:
    """The lag beyond which increments are exactly independent."""
    if isinstance(spec, IID):
        return 0
    if isinstance(spec, MovingAverage):
        return spec.order
    raise SpecError(f"{spec.kind} specs have no finite dependence range")


def window_covariance_mc(spec, gap: int, f, g, window_f: int = 1, window_g: int = 1,
                         replicas: int = 100_000, seed: int = 0):
    """Monte Carlo estimate of E(fg) - E(f)E(g) with a standard error.

    ``f`` sees increments [0, window_f); ``g`` sees the window starting
    ``gap`` steps after the last index ``f`` sees.  Both must accept a
    (replicas, window) array and return one value per row.  Replica
    segments are cut from one stream with a dependence-range spacer, so
    they are exactly independent.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    d = dependence_range(spec)
    seg = window_f - 1 + gap + window_g
    stride = seg + d + 1
    x = make_stream(spec, seed).take(replicas * stride).reshape(replicas, stride)
    fv = np.asarray(f(x[:, :window_f]))
    gv = np.asarray(g(x[:, window_f - 1 + gap : window_f - 1 + gap + window_g]))
    prod = fv * gv
    cov = prod.mean() - fv.mean() * gv.mean()
    centered = (fv - fv.mean()) * (gv - gv.mean())
    se = float(np.sqrt(np.mean(np.abs(centered - centered.mean()) ** 2) / replicas))
    return complex(cov), se


def mixing_covariance_bound_check(spec, gap: int, f, g, window_f: int = 1, window_g: int = 1,
                                  replicas: int = 100_000, seed: int = 0) -> bool:
    """True when the empirical covariance is within 4 standard errors of 0.

    Only gaps beyond the dependence range, where the covariance bound forces
    independence, are accepted; smaller gaps raise ValueError.
    """
    d = dependence_range(spec)
    if gap <= d:
        raise ValueError(f"gap {gap} is within the dependence range {d}; bound not applicable")
    cov, se = window_covariance_mc(spec, gap, f, g, window_f, window_g, replicas, seed)
    return bool(abs(cov) <= 4.0 * se)
