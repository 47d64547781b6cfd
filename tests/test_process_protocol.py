"""The process-family protocol is closed: a family defined only here, with no
edit under ``src/``, runs through streams, the engine, the variance
predictor and the JSON wire format."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from twistwalk.processes import ProcessFamily, make_stream, spec_from_json
from twistwalk.spectral import SpectralMeasure, predicted_variance, spectral_convolve
from twistwalk.walk import WalkConfig, simulate


class _AlternatingState:
    def __init__(self, spec, gens):
        # one fair sign per stream, drawn from its own generator
        self.signs = np.array([spec.amplitude if g.random() < 0.5 else -spec.amplitude
                               for g in gens])
        self.pos = 0

    def emit(self, count: int) -> np.ndarray:
        phase = (-1.0) ** np.arange(self.pos, self.pos + count)
        self.pos += count
        return self.signs[:, None] * phase[None, :]


@dataclass(frozen=True)
class Alternating(ProcessFamily, kind="test-alternating"):
    """X_k = s * a * (-1)^k with a fair random sign s: period 2, all of its
    spectral mass at pi."""

    amplitude: float = 1.0

    def _covariances(self, ks):
        return (self.amplitude ** 2 * (-1.0) ** ks).astype(complex)

    def spectral_measure(self, grid_size=4096):
        return SpectralMeasure(np.zeros(grid_size), atoms=((math.pi, self.amplitude ** 2),))

    def batch_state(self, gens, embedding=None):
        return _AlternatingState(self, gens)

    def to_json(self):
        return {"kind": self.kind, "amplitude": self.amplitude}

    @classmethod
    def from_json(cls, doc):
        return cls(float(doc.get("amplitude", 1.0)))


SPEC = Alternating(1.5)


def test_stream():
    x = make_stream(SPEC, 3, replica=2).take(9)
    assert np.array_equal(x, x[0] * (-1.0) ** np.arange(9))
    assert abs(x[0]) == 1.5
    signs = {make_stream(SPEC, 3, replica=r).take(1)[0].real for r in range(40)}
    assert signs == {1.5, -1.5}


def test_json_roundtrip():
    doc = SPEC.to_json()
    assert spec_from_json(doc) == SPEC
    assert spec_from_json(doc).to_json() == doc


@pytest.mark.parametrize("beta", [0.4, 2.5])
def test_simulate_matches_predicted_variance(beta):
    # |S_n| does not depend on the sign, so every replica has the predicted
    # (1/n) E|S_n|^2 up to rounding
    cfg = WalkConfig(beta=beta, n_max=200, replicas=7, seed=1, batch_size=3)
    ens = simulate(SPEC, cfg)
    assert ens.replicas_done == 7
    for n in cfg.checkpoints:
        pred = predicted_variance(SPEC, beta, n)
        assert ens.mean_scaled_abs2(n) == pytest.approx(pred, rel=1e-9, abs=1e-12)
        assert pred == pytest.approx(spectral_convolve(SPEC.spectral_measure(), n, beta),
                                     rel=1e-9, abs=1e-12)
