import json

import numpy as np
import pytest

from twistwalk.cli import (
    ConfigError,
    beta_token,
    build_process,
    main,
    manifest_hash,
    parse_beta,
)


class TestBetaParsing:
    def test_exact_rational_token(self):
        b = parse_beta("2pi*1/3")
        assert b.is_rational and (b.p, b.q) == (1, 3)
        assert beta_token(b) == "2pi*1/3"

    def test_float(self):
        b = parse_beta("1.25")
        assert not b.is_rational
        assert b.value == 1.25

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_beta("2pi*x/3")


class TestProcessResolution:
    def test_named(self):
        for name in ("iid-rademacher", "iid-complex-gaussian", "iid-uniform-circle",
                     "golden-mean-parry", "rotation-default"):
            build_process(name)

    def test_unknown_lists_options(self):
        with pytest.raises(ConfigError, match="iid-rademacher"):
            build_process("iid-levy")

    def test_json_file(self, tmp_path):
        doc = {"kind": "gaussian-spectral", "density": "singular-half-power",
               "beta0": 2.0, "window": 64}
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(doc))
        spec = build_process(str(path), field="complex")
        assert spec.field == "complex"
        assert spec.window == 64


class TestSimulateCommand:
    def test_small_run_outputs(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "simulate", "--process", "iid-rademacher", "--beta", "1.0",
            "--n-max", "128", "--replicas", "400", "--seed", "42",
            "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        sha = manifest["manifest_sha256"]
        assert report["manifest_sha256"] == sha
        for csv in ("ensemble.csv", "smallball.csv"):
            first = (out / csv).read_text().splitlines()[0]
            assert first == f"# manifest_sha256={sha}"
        assert report["run"]["replicas"] == 400
        assert report["label"] in ("recurrence-evidence", "transience-evidence", "inconclusive")

    def test_csv_cells_are_numbers(self, tmp_path):
        out = tmp_path / "csv"
        rc = main([
            "simulate", "--process", "golden-mean-parry", "--beta", "1.0",
            "--n-max", "64", "--replicas", "50", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        for csv in ("ensemble.csv", "smallball.csv"):
            lines = [ln for ln in (out / csv).read_text().splitlines()
                     if not ln.startswith("#")]
            header, rows = lines[0].split(","), lines[1:]
            assert rows
            for row in rows:
                cells = row.split(",")
                assert len(cells) == len(header)
                for cell in cells:
                    float(cell)

    def test_documented_invocation_recurrence(self, tmp_path):
        out = tmp_path / "doc"
        rc = main([
            "simulate", "--process", "iid-rademacher", "--beta", "1.0",
            "--n-max", "4096", "--replicas", "10000", "--seed", "42",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["label"] == "recurrence-evidence"
        header = (out / "ensemble.csv").read_text().splitlines()[2]
        run = json.loads(header.removeprefix("# run="))
        assert run["seed"] == 42 and run["process_kind"] == "iid"

    def test_rational_beta_runs_blocked_identity(self, tmp_path):
        out = tmp_path / "rat"
        rc = main([
            "simulate", "--process", "iid-complex-gaussian", "--beta", "2pi*1/3",
            "--n-max", "99", "--replicas", "50", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        blk = report["checks"]["blocked_walk_identity"]
        assert blk["pass"] and blk["q"] == 3
        assert report["run"]["beta_fraction"] == [1, 3]

    def test_missing_process_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--beta", "1.0"])
        assert exc.value.code == 2

    def test_unknown_process_exit_2(self, tmp_path):
        rc = main(["simulate", "--process", "nope", "--beta", "1.0",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "ma"}, "coeffs"),
        ({"kind": "rotation", "alpha": 1.0}, "fourier"),
        ({"kind": "markov", "transition": [[0.5, 0.5], [1.0, 0.0]]}, "values"),
        ([1, 2], "JSON object"),
        ({"kind": "iid", "variance": "2"}, "'variance'"),
        ({"kind": "ma", "coeffs": 5}, "'coeffs'"),
        ({"kind": "rotation", "alpha": "x", "fourier": [[1, 1.0]]}, "'alpha'"),
    ])
    def test_malformed_spec_file_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--process", str(path), "--beta", "1.0", "--n-max", "16",
                   "--replicas", "4", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("argv, message", [
        (["--eta-grid", "0.5,0.1"], "eta_grid"),
        (["--replicas", "1048576", "--n-max", "4096"], "exceeds the cap"),
    ])
    def test_config_error_exit_2_leaves_no_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        rc = main(["simulate", "--process", "iid-rademacher", "--beta", "1.0", *argv,
                   "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("checkpoints, dense, sha", [
        pytest.param("dense", True,
                     "78234f1028a74cde0fabb95aabcf6a6bb2b63743449523748e1f2908ae10096f",
                     id="dense"),
        pytest.param("geometric", None,
                     "82c1d6a62097f99d55b45b24d9129354570ba404ec19b50acd4f5a030dd9ab20",
                     id="geometric"),
    ])
    def test_checkpoints_flag_manifest(self, tmp_path, checkpoints, dense, sha):
        # dense per-step tables ride on geometric sample checkpoints
        out = tmp_path / checkpoints
        rc = main(["simulate", "--process", "iid-rademacher", "--beta", "1.0", "--n-max", "32",
                   "--replicas", "20", "--checkpoints", checkpoints, "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["walk"]["checkpoints"] == "geometric"
        assert manifest["walk"]["dense_counts"] is dense
        assert manifest["stream_version"] == 2
        assert manifest["manifest_sha256"] == sha

    def test_budget_exceeded_exit_3(self, tmp_path):
        # more replicas than one engine batch, so a zero budget stops midway
        out = tmp_path / "budget"
        rc = main([
            "simulate", "--process", "iid-rademacher", "--beta", "0.5",
            "--n-max", "64", "--replicas", "20000", "--seed", "2",
            "--budget-s", "0", "--out", str(out),
        ])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["run"]["partial"] is True
        assert 0 < report["run"]["replicas_done"] < 20000


class TestSpectralCommand:
    def test_flat_curve_is_one(self, tmp_path):
        out = tmp_path / "spec"
        rc = main(["spectral", "--process", "iid-rademacher", "--n-max", "256",
                   "--betas", "0.5,1.5", "--out", str(out)])
        assert rc == 0
        lines = (out / "variance_curve.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any("max_rel_identity_gap" in h for h in header)
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        for row in rows:
            n, beta, pred, mc, se = row.split(",")
            assert float(pred) == pytest.approx(1.0, abs=1e-9)
            assert mc == "" and se == ""

    def test_singular_density_growth(self, tmp_path):
        doc = {"kind": "gaussian-spectral", "density": "singular-half-power",
               "beta0": 2.0, "window": 64}
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps(doc))
        out = tmp_path / "spec2"
        rc = main(["spectral", "--process", str(pf), "--n-max", "1024",
                   "--betas", "2.0", "--out", str(out)])
        assert rc == 0
        rows = [l for l in (out / "variance_curve.csv").read_text().splitlines()
                if l and not l.startswith(("#", "n,"))]
        ns = np.array([int(r.split(",")[0]) for r in rows])
        v = np.array([float(r.split(",")[2]) for r in rows])
        big = ns >= 64
        ratio = v[big] / np.sqrt(ns[big])
        assert ratio.min() > 0.5 * np.median(ratio)

    @pytest.mark.parametrize("n_max", ["1", "0"])
    def test_n_max_below_two_exit_2(self, tmp_path, capsys, n_max):
        out = tmp_path / "spec"
        rc = main(["spectral", "--process", "iid-rademacher", "--n-max", n_max,
                   "--out", str(out)])
        assert rc == 2
        assert "--n-max" in capsys.readouterr().err
        assert not out.exists()


class TestExampleCommand:
    def test_unknown_name_exit_2(self, tmp_path, capsys):
        rc = main(["example", "fermat", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "gaussian-transient" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--replicas", "--n-max"])
    def test_zero_override_exit_2(self, tmp_path, capsys, flag):
        rc = main(["example", "sofic-recurrent", flag, "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert ">= 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_rational_block_example(self, tmp_path, capsys):
        out = tmp_path / "rb"
        rc = main(["example", "rational-block", "--replicas", "200",
                   "--n-max", "500", "--out", str(out)])
        assert rc == 0
        assert "[PASS] blocked-walk identity" in capsys.readouterr().out

    def test_sofic_recurrent_example(self, tmp_path, capsys):
        out = tmp_path / "sofic"
        rc = main(["example", "sofic-recurrent", "--replicas", "4000",
                   "--n-max", "2048", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[PASS] label is recurrence-evidence" in text
        assert "[PASS] criterion constant above 0.05" in text

    def test_worker_count_never_changes_report_bytes(self, tmp_path):
        outs = []
        for w, tag in ((1, "w1"), (3, "w3")):
            out = tmp_path / tag
            rc = main(["example", "rotation-singular", "--replicas", "60",
                       "--n-max", "2048", "--workers", str(w), "--out", str(out)])
            assert rc == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestManifestHash:
    def test_stable_under_key_order(self):
        assert manifest_hash({"a": 1, "b": [1, 2]}) == manifest_hash({"b": [1, 2], "a": 1})
        assert manifest_hash({"a": 1}) != manifest_hash({"a": 2})
