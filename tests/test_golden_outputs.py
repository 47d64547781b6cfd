"""Output bytes pinned across commits: SHA-256 of each example's files.

Each named example runs at ``--replicas 600 --n-max 1024``; the SHA-256
of its ``manifest.json``, ``report.json``, ``ensemble.csv`` and
``smallball.csv`` must equal ``golden/digests.json``.  The Gaussian
example, whose 600 replicas make two engine batches, also runs on two
workers against the same digests.  A change that moves
output bits on purpose regenerates the file in the same change:

    PYTHONPATH=src python tests/test_golden_outputs.py

The Gaussian-spectral family goes through numpy's FFT, so its bits are
pinned only for the numpy version the digests were made with; under
another version that example fails and names both versions.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from twistwalk.cli import EXAMPLE_NAMES, main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
ARGS = ["--replicas", "600", "--n-max", "1024"]
FILES = ("manifest.json", "report.json", "ensemble.csv", "smallball.csv")
FFT_EXAMPLES = ("gaussian-transient",)


def example_digests(name: str, out: Path, workers: int = 1) -> dict:
    assert main(["example", name, *ARGS, "--workers", str(workers), "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("name, workers", [
    *(pytest.param(name, 1, id=name) for name in EXAMPLE_NAMES),
    pytest.param("gaussian-transient", 2, id="gaussian-transient-2-workers"),
])
def test_example_bytes_unchanged(name, workers, tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert golden["args"] == ARGS
    if name in FFT_EXAMPLES and golden["numpy"] != np.__version__:
        pytest.fail(f"{name}'s digests were made with numpy {golden['numpy']}; this is "
                    f"numpy {np.__version__}, whose FFT may round differently")
    assert example_digests(name, tmp_path, workers) == golden["examples"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "numpy": np.__version__,
            "args": ARGS,
            "examples": {n: example_digests(n, Path(tmp) / n) for n in EXAMPLE_NAMES},
        }
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
