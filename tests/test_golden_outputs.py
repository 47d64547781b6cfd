"""Output bytes pinned across commits: SHA-256 of each command's files.

Each named example runs at ``--replicas 600 --n-max 1024``; its exit
code and the SHA-256 of its ``manifest.json``, ``report.json``,
``ensemble.csv`` and ``smallball.csv`` must equal ``golden/digests.json``.
The exit code is pinned, not required to be 0: at this size an example's
own checks are noise (``gaussian-transient`` exits 1 on its label).  The
Gaussian example, whose 600 replicas make two engine batches, also runs
on two workers against the same digests.  ``spectral`` runs for each named
process at ``--n-max 256``; its ``manifest.json`` and
``variance_curve.csv`` are pinned the same way.  A change that moves
output bits on purpose regenerates the file in the same change:

    PYTHONPATH=src python tests/test_golden_outputs.py

The Gaussian-spectral family and the golden-mean chain's spectral
measure go through numpy's FFT, so their bits are pinned only for the
numpy version the digests were made with; under another version those
cases fail and name both versions.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from twistwalk.cli import EXAMPLE_NAMES, PROCESS_NAMES, main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
ARGS = ["--replicas", "600", "--n-max", "1024"]
FILES = ("manifest.json", "report.json", "ensemble.csv", "smallball.csv")
SPECTRAL_ARGS = ["--n-max", "256"]
SPECTRAL_FILES = ("manifest.json", "variance_curve.csv")
#: examples and named processes whose pinned bits pass through numpy's FFT
FFT_CASES = ("gaussian-transient", "golden-mean-parry")


def _digests(argv: list, out: Path, files: tuple) -> dict:
    code = main([*argv, "--out", str(out)])
    return {"exit_code": code,
            **{f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}}


def example_digests(name: str, out: Path, workers: int = 1) -> dict:
    return _digests(["example", name, *ARGS, "--workers", str(workers)], out, FILES)


def spectral_digests(name: str, out: Path) -> dict:
    return _digests(["spectral", "--process", name, *SPECTRAL_ARGS], out, SPECTRAL_FILES)


def _golden(name: str) -> dict:
    golden = json.loads(DIGESTS.read_text())
    if name in FFT_CASES and golden["numpy"] != np.__version__:
        pytest.fail(f"{name}'s digests were made with numpy {golden['numpy']}; this is "
                    f"numpy {np.__version__}, whose FFT may round differently")
    return golden


@pytest.mark.parametrize("name, workers", [
    *(pytest.param(name, 1, id=name) for name in EXAMPLE_NAMES),
    pytest.param("gaussian-transient", 2, id="gaussian-transient-2-workers"),
])
def test_example_bytes_unchanged(name, workers, tmp_path):
    golden = _golden(name)
    assert golden["args"] == ARGS
    assert example_digests(name, tmp_path, workers) == golden["examples"][name]


@pytest.mark.parametrize("name", PROCESS_NAMES)
def test_spectral_bytes_unchanged(name, tmp_path):
    golden = _golden(name)
    assert golden["spectral_args"] == SPECTRAL_ARGS
    assert spectral_digests(name, tmp_path) == golden["spectral"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "numpy": np.__version__,
            "args": ARGS,
            "examples": {n: example_digests(n, Path(tmp) / n) for n in EXAMPLE_NAMES},
            "spectral_args": SPECTRAL_ARGS,
            "spectral": {n: spectral_digests(n, Path(tmp) / f"spectral-{n}")
                         for n in PROCESS_NAMES},
        }
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
