import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hamfourier.cli import main
from hamfourier.hamiltonians import ConfigError, sample_couplings
from hamfourier.pipeline import (
    RIDGE_ALPHA_GRID,
    SCHEDULE_12Q,
    SEED_ENV_VAR,
    ExperimentConfig,
    cmd_features,
    cmd_generate,
    cmd_reproduce,
    cmd_scatter,
    cmd_train_eval,
    format_float,
    json_17g,
    overlap_scatter,
    read_dataset,
    read_features,
    sidecar_path,
    _select_ridge_alpha,
    split_indices,
    state_from_descriptor,
)
from hamfourier.regression import DesignMatrix, fit_ridge
from hamfourier.rng import ROLE_COUPLINGS, ROLE_VALID, substream, substreams

from conftest import dense

SMALL = ExperimentConfig(n=4, num=24, seed=3, k=3, c=3.0, f_kind="exp",
                         beta=1.0, state="domain_wall", method="ols")


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "dataset.jsonl"
    cmd_generate(SMALL, path)
    return path


class TestSerialization:
    def test_float_17g_roundtrips_bit_exactly(self):
        for x in (0.1, 1 / 3, 1e-300, -2.5e17, math.pi, 3.0):
            assert float(format_float(x)) == x

    def test_json_17g_nested(self):
        obj = {"a": [0.1, 1], "b": {"c": None, "d": True}, "e": "s"}
        back = json.loads(json_17g(obj))
        assert back == {"a": [0.1, 1], "b": {"c": None, "d": True}, "e": "s"}

    def test_non_finite_floats_become_null(self):
        assert json_17g(float("nan")) == "null"

    def test_config_roundtrip(self):
        config = ExperimentConfig(n=6, num=10, split=0.75, seed=9, k=4, c=3.5,
                                  backend="overlap-shots", shots=128,
                                  schedule="1,2,2,3,3", method="constrained",
                                  w_bound=2.0, f_kind="fourier",
                                  coeffs=(0.1, -0.2, 0.3), state="000111")
        back = ExperimentConfig.from_dict(json.loads(json_17g(asdict(config))))
        assert back == config

    @pytest.mark.parametrize("kwargs, message", [
        ({"num": -1}, "num must be >= 0, got -1"),
        ({"method": "lasso"}, "unknown method 'lasso'"),
    ])
    def test_config_refuses_out_of_range_knobs(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    def test_state_descriptor_roundtrip(self):
        assert dense(state_from_descriptor(4, "domain_wall"))[
            int("0110", 2)] == 1.0
        v = state_from_descriptor(4, {"basis": "0101"})
        assert dense(v)[int("0101", 2)] == 1.0
        with pytest.raises(ValueError):
            state_from_descriptor(4, {"weird": 1})


class TestGenerate:
    def test_record_schema_and_label_bound(self, small_dataset):
        rows = read_dataset(small_dataset)
        assert len(rows) == 24
        for spec, descriptor, y in rows:
            assert spec.n == 4
            assert descriptor == "domain_wall"
            assert abs(y) <= math.exp(3.0)  # sup-norm of e^{-x} on [-3, 3]

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cmd_generate(SMALL, a)
        cmd_generate(SMALL, b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_data(self, tmp_path):
        from dataclasses import asdict, replace
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cmd_generate(SMALL, a)
        cmd_generate(replace(SMALL, seed=4), b)
        assert a.read_bytes() != b.read_bytes()

    def test_empty_dataset_warns(self, tmp_path):
        from dataclasses import asdict, replace
        path = tmp_path / "empty.jsonl"
        with pytest.warns(UserWarning):
            cmd_generate(replace(SMALL, num=0), path)
        assert path.read_text() == ""

    def test_config_sidecar_written(self, small_dataset):
        sidecar = sidecar_path(small_dataset)
        assert sidecar.exists()
        back = ExperimentConfig.from_dict(json.loads(sidecar.read_text()))
        assert back == SMALL

    def test_blank_lines_are_skipped(self, small_dataset):
        rows = read_dataset(small_dataset)
        lines = small_dataset.read_text().splitlines(keepends=True)
        small_dataset.write_text("\n" + lines[0] + "  \n" + "".join(lines[1:]))
        assert read_dataset(small_dataset) == rows

    def test_basis_state_mode(self, tmp_path):
        from dataclasses import asdict, replace
        path = tmp_path / "basis.jsonl"
        cmd_generate(replace(SMALL, num=3, state="0101"), path)
        _, descriptor, _ = read_dataset(path)[0]
        assert descriptor == {"basis": "0101"}


class TestRecordInterchange:
    def test_couplings_read_back_bit_exactly(self, small_dataset):
        # 17 significant digits round-trip every double: the specs read
        # back equal the ones drawn from the same substreams, float for float
        keys = ((ROLE_COUPLINGS, i) for i in range(SMALL.num))
        drawn = [sample_couplings(SMALL.n, rng)
                 for rng in substreams(SMALL.seed, keys)]
        assert [spec for spec, _, _ in read_dataset(small_dataset)] == drawn

    def test_record_keys(self, small_dataset):
        lines = small_dataset.read_text().splitlines()
        assert len(lines) == SMALL.num
        for line in lines:
            assert list(json.loads(line)) == ["n", "couplings", "state", "y"]


class TestFeatureStage:
    def test_exact_csv_layout(self, tmp_path, small_dataset):
        out = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, out)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(f"x{j}" for j in range(7))
        x = read_features(out)
        assert x.shape == (24, 7)
        np.testing.assert_allclose(x[:, 0], 1.0, atol=1e-10)
        assert np.all(np.abs(x) <= 1 + 1e-10)

    def test_provenance_sidecar(self, tmp_path, small_dataset):
        out = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, out)
        meta = json.loads(sidecar_path(out).read_text())
        assert meta == {"K": 3, "C": 3.0, "backend": "exact", "n_shot": 0,
                        "schedule": None, "seed": 3}
        cmd_features(replace(SMALL, schedule="1,2,2,3"), small_dataset, out)
        meta = json.loads(sidecar_path(out).read_text())
        assert meta["schedule"] == "1,2,2,3"

    def test_trotterized_noiseless_close_to_exact(self, tmp_path, small_dataset):
        from dataclasses import asdict, replace
        exact_out = tmp_path / "exact.csv"
        trot_out = tmp_path / "trot.csv"
        cmd_features(SMALL, small_dataset, exact_out)
        trot = replace(SMALL, backend="overlap-shots", shots=0,
                       schedule="16,16,16,16")
        cmd_features(trot, small_dataset, trot_out)
        diff = np.abs(read_features(exact_out) - read_features(trot_out))
        assert 0 < diff.max() <= 1e-2

    def test_shot_features_deterministic(self, tmp_path, small_dataset):
        from dataclasses import asdict, replace
        config = replace(SMALL, backend="overlap-shots", shots=64)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cmd_features(config, small_dataset, a)
        cmd_features(config, small_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_sample_order_independent(self, small_dataset):
        # substreams are keyed by sample index, not evaluation order
        from dataclasses import asdict, replace
        from hamfourier.features import feature_vector
        cfg = replace(SMALL, backend="hadamard-shots", shots=32).feature_map()
        rows = read_dataset(small_dataset)
        psi = state_from_descriptor(4, "domain_wall")
        forward = [feature_vector(spec, psi, cfg, i)
                   for i, (spec, _, _) in enumerate(rows)]
        backward = [feature_vector(rows[i][0], psi, cfg, i)
                    for i in reversed(range(len(rows)))][::-1]
        for a, b in zip(forward, backward):
            np.testing.assert_array_equal(a, b)

    def test_noiseless_hadamard_needs_no_orthogonality(self, rng):
        # |0000> is not orthogonal to the overlap reference |0...0>, which
        # only the overlap route needs; the noiseless Hadamard test reads A
        from hamfourier.features import FeatureMapConfig, feature_vector
        from hamfourier.hamiltonians import sample_couplings
        from hamfourier.states import basis_state
        spec = sample_couplings(4, rng)
        psi = basis_state(4, "0000")
        config = ExperimentConfig(n=4, k=2, backend="hadamard-shots", shots=0)
        x = feature_vector(spec, psi, config.feature_map())
        np.testing.assert_allclose(
            x, feature_vector(spec, psi, FeatureMapConfig(K=2, C=3.0)),
            atol=1e-12)
        shots = replace(config, shots=10).feature_map()
        assert feature_vector(spec, psi, shots).shape == (5,)
        with pytest.raises(ValueError, match="orthogonal"):
            feature_vector(spec, psi,
                           replace(config, backend="overlap-shots").feature_map())

    def test_exact_backend_with_schedule_is_trotterized(self, tmp_path):
        # the exact backend has no overlap readout, so a state on |0...0>
        # is fine and a schedule gives the Strang-circuit amplitudes
        from hamfourier.evolution import trotter_evolve
        from hamfourier.states import basis_state
        config = ExperimentConfig(n=4, num=3, k=2, backend="exact",
                                  schedule="1,1,1", state="0000")
        cmd_generate(config, tmp_path / "d.jsonl")
        cmd_features(config, tmp_path / "d.jsonl", tmp_path / "f.csv")
        psi = basis_state(4, "0000")
        for (spec, _, _), x in zip(read_dataset(tmp_path / "d.jsonl"),
                                   read_features(tmp_path / "f.csv")):
            a = [np.vdot(dense(psi), dense(trotter_evolve(spec, psi, t, 1)))
                 for t in config.feature_map().times()]
            np.testing.assert_allclose(x, [a[0].real, a[1].imag, a[1].real,
                                           a[2].imag, a[2].real], atol=1e-15)


class TestSplit:
    def test_sizes_and_partition(self):
        train, test = split_indices(55, 0.8, seed=1)
        assert len(train) == 44 and len(test) == 11
        assert sorted(np.concatenate([train, test])) == list(range(55))

    def test_deterministic(self):
        a = split_indices(20, 0.8, seed=5)
        b = split_indices(20, 0.8, seed=5)
        np.testing.assert_array_equal(a[0], b[0])


class TestTrainStage:
    def test_expressible_target_fits_exactly(self, tmp_path):
        # a fourier target in the feature basis leaves zero residual
        from dataclasses import asdict, replace
        config = replace(SMALL, f_kind="fourier",
                         coeffs=(0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.6))
        data = tmp_path / "data.jsonl"
        feats = tmp_path / "features.csv"
        cmd_generate(config, data)
        cmd_features(config, data, feats)
        metrics = cmd_train_eval(config, feats, data,
                                 tmp_path / "model.json",
                                 tmp_path / "metrics.json")
        assert metrics.r2 >= 0.999999
        assert metrics.mse <= 1e-12
        model = json.loads((tmp_path / "model.json").read_text())
        assert set(model) == {"weights", "norm_budget", "method"}
        assert len(model["weights"]) == 7
        written = json.loads((tmp_path / "metrics.json").read_text())
        assert set(written) == {"r2", "mse", "n_train", "n_test"}
        assert written["n_train"] == 20 and written["n_test"] == 4

    def test_thermal_target_fits_well_at_small_n(self, tmp_path, small_dataset):
        # at n=4 the eigenvalues reach the +-C edge where the truncated
        # series of e^{-x} is worst, so the fit is good but not sharp
        feats = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, feats)
        metrics = cmd_train_eval(SMALL, feats, small_dataset,
                                 tmp_path / "model.json",
                                 tmp_path / "metrics.json")
        assert metrics.r2 >= 0.9

    def test_shuffled_labels_negative_control(self, tmp_path, small_dataset):
        feats = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, feats)
        lines = small_dataset.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        ys = [r["y"] for r in records]
        for r, y in zip(records, ys[7:] + ys[:7]):  # cyclic shift kills signal
            r["y"] = y
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(json.dumps(r) + "\n" for r in records))
        metrics = cmd_train_eval(SMALL, feats, shuffled,
                                 tmp_path / "m.json", tmp_path / "s.json")
        assert metrics.r2 < 0.5

    def test_row_mismatch_rejected(self, tmp_path, small_dataset):
        feats = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, feats)
        truncated = tmp_path / "short.jsonl"
        truncated.write_text(
            "".join(line + "\n"
                    for line in small_dataset.read_text().splitlines()[:5]))
        with pytest.raises(ValueError):
            cmd_train_eval(SMALL, feats, truncated, tmp_path / "m.json",
                           tmp_path / "s.json")

    def test_constrained_method(self, tmp_path, small_dataset):
        from dataclasses import asdict, replace
        feats = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, feats)
        config = replace(SMALL, method="constrained", w_bound=0.5)
        cmd_train_eval(config, feats, small_dataset, tmp_path / "m.json",
                       tmp_path / "s.json")
        model = json.loads((tmp_path / "m.json").read_text())
        assert np.linalg.norm(model["weights"]) <= 0.5 * (1 + 1e-8)

    def test_ridge_grid_selection(self, tmp_path):
        from dataclasses import asdict, replace
        config = replace(SMALL, method="ridge", alpha=None, f_kind="fourier",
                         coeffs=(0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.6))
        data = tmp_path / "data.jsonl"
        feats = tmp_path / "features.csv"
        cmd_generate(config, data)
        cmd_features(config, data, feats)
        metrics = cmd_train_eval(config, feats, data,
                                 tmp_path / "m.json", tmp_path / "s.json")
        assert metrics.r2 > 0.999


    def test_ridge_without_a_validation_fifth_takes_the_first_alpha(
            self, tmp_path, small_dataset):
        # 5 rows: ceil(0.8·5) = 4 train, and ceil(0.8·4) = 4 of them fit,
        # so no row is left to score the grid on
        five = tmp_path / "five.jsonl"
        five.write_text("".join(small_dataset.read_text().splitlines(
            keepends=True)[:5]))
        feats = tmp_path / "f.csv"
        config = replace(SMALL, num=5, method="ridge")
        cmd_features(config, five, feats)
        assert main(["train", "--n", "4", "--k", "3", "--seed", "3",
                     "--method", "ridge", "--in", str(five), "--features",
                     str(feats), "--out", str(tmp_path / "run")]) == 0
        train_idx, _ = split_indices(5, config.split, config.seed)
        assert len(train_idx) == 4
        x = read_features(feats)[train_idx]
        y = np.array([row[2] for row in read_dataset(five)])[train_idx]
        weights = json.loads((tmp_path / "run" / "model.json").read_text())[
            "weights"]
        assert weights == fit_ridge(DesignMatrix(X=x, y=y),
                                    RIDGE_ALPHA_GRID[0]).weights.tolist()

    def test_ridge_grid_runs_one_svd(self, rng, monkeypatch):
        # every alpha's weights come from one SVD of the fit rows, and the
        # pick is that of seven separate fits scored by hand
        svd, calls, picks = np.linalg.svd, [], set()
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        for seed in range(30):
            rows, cols = rng.integers(8, 60), rng.integers(2, 12)
            x = rng.normal(size=(rows, cols)) * np.logspace(0, -4, cols)
            y = x @ rng.normal(size=cols) + rng.normal(
                scale=10.0 ** rng.uniform(-4, 0), size=rows)
            calls.clear()
            alpha = _select_ridge_alpha(DesignMatrix(X=x, y=y), seed)
            assert len(calls) == 1
            perm = substream(seed, ROLE_VALID).permutation(rows)
            fit, val = np.split(perm, [math.ceil(0.8 * rows)])
            mse = [np.mean((y[val] - x[val] @ fit_ridge(
                DesignMatrix(X=x[fit], y=y[fit]), a).weights) ** 2)
                for a in RIDGE_ALPHA_GRID]
            assert alpha == RIDGE_ALPHA_GRID[int(np.argmin(mse))], seed
            picks.add(alpha)
        assert len(picks) >= 3  # the designs do not all pick one alpha


class TestEndToEndDeterminism:
    def test_metrics_bytes_identical(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            cmd_generate(SMALL, d / "data.jsonl")
            cmd_features(SMALL, d / "data.jsonl", d / "features.csv")
            cmd_train_eval(SMALL, d / "features.csv", d / "data.jsonl",
                           d / "model.json", d / "metrics.json")
            outs.append((d / "metrics.json").read_bytes())
        assert outs[0] == outs[1]


class TestScatter:
    def test_identical_files_sit_on_diagonal(self, tmp_path, small_dataset):
        feats = tmp_path / "features.csv"
        cmd_features(SMALL, small_dataset, feats)
        out = tmp_path / "scatter.csv"
        cmd_scatter(feats, feats, out)
        body = out.read_text().splitlines()[1:]
        assert len(body) == 24 * 7
        for line in body:
            _, _, exact, estimated = line.split(",")
            assert exact == estimated

    def test_shape_mismatch_rejected(self, tmp_path, small_dataset):
        from dataclasses import asdict, replace
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cmd_features(SMALL, small_dataset, a)
        cmd_features(replace(SMALL, k=2), small_dataset, b)
        with pytest.raises(ValueError):
            cmd_scatter(a, b, tmp_path / "out.csv")

    def test_overlap_scatter_t0_peaks(self, tmp_path, small_dataset):
        from dataclasses import asdict, replace
        out = tmp_path / "w.csv"
        overlap_scatter(replace(SMALL, shots=50), small_dataset, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        t0 = [(r[2], float(r[3])) for r in rows if r[1] == "0"]
        assert len(t0) == 24 * 4
        for name, exact in t0:
            if name == "w_plus":
                assert exact == pytest.approx(1.0, abs=1e-9)
            elif name == "w_minus":
                assert exact == pytest.approx(0.0, abs=1e-9)
            else:
                assert exact == pytest.approx(0.5, abs=1e-9)

    def test_shot_scaling_of_scatter_spread(self, tmp_path, small_dataset):
        # RMS deviation from the diagonal shrinks ~ 1/sqrt(shots)
        from dataclasses import asdict, replace
        rms = {}
        for shots in (100, 10_000):
            out = tmp_path / f"w{shots}.csv"
            overlap_scatter(replace(SMALL, shots=shots), small_dataset, out)
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            dev = np.array([float(r[4]) - float(r[3]) for r in rows])
            rms[shots] = np.sqrt(np.mean(dev**2))
        ratio = rms[100] / rms[10_000]
        assert 8.0 <= ratio <= 12.5

    def test_overlap_scatter_recombines_to_feature_rows(self, tmp_path,
                                                        small_dataset):
        # the scatter plots the very draws and schedule behind the features
        from dataclasses import asdict, replace
        from hamfourier.features import overlap_reference, reconstruct_amplitudes
        config = replace(SMALL, backend="overlap-shots", shots=50,
                         schedule="1,2,2,3")
        cmd_features(config, small_dataset, tmp_path / "f.csv")
        cmd_features(replace(config, shots=0), small_dataset, tmp_path / "f0.csv")
        overlap_scatter(config, small_dataset, tmp_path / "w.csv")
        rows = [line.split(",")
                for line in (tmp_path / "w.csv").read_text().splitlines()[1:]]
        w = np.array([[float(r[3]), float(r[4])] for r in rows])
        w = w.reshape(24, config.k + 1, 4, 2)
        times = config.feature_map().times()
        for (spec, _, _), x, x0, w_i in zip(read_dataset(small_dataset),
                                            read_features(tmp_path / "f.csv"),
                                            read_features(tmp_path / "f0.csv"), w):
            lambda_ref = overlap_reference(spec, SMALL.psi())
            est = reconstruct_amplitudes(w_i[..., 1], lambda_ref, times)
            np.testing.assert_array_equal(x[0::2], est.real)
            np.testing.assert_array_equal(x[1::2], est.imag[1:])
            exact = reconstruct_amplitudes(w_i[..., 0], lambda_ref, times)
            np.testing.assert_allclose(x0[0::2], exact.real, rtol=0, atol=1e-15)
            np.testing.assert_allclose(x0[1::2], exact.imag[1:], rtol=0, atol=1e-15)


class TestReproduce:
    def test_unknown_row(self, tmp_path):
        with pytest.raises(ConfigError, match="exact12"):
            cmd_reproduce("exact13", tmp_path)

    @pytest.mark.parametrize("row", ["mps32", "qpu40", "trotter32"])
    def test_large_rows_rejected_with_explanation(self, tmp_path, row):
        with pytest.raises(ConfigError, match="desk-scale"):
            cmd_reproduce(row, tmp_path)

    def test_failed_threshold_exits_1(self, tmp_path, monkeypatch, capsys):
        # a row whose threshold no fit can meet: the stages run, the check
        # fails, and the exit code says so
        from hamfourier.pipeline import REPRODUCE_ROWS
        monkeypatch.setitem(REPRODUCE_ROWS, "exact12", {
            "config": SMALL, "reference": {"r2": 1.0, "mse": 0.0},
            "criteria": {"r2_min": 2.0}})
        assert main(["reproduce", "--row", "exact12", "--out",
                     str(tmp_path)]) == 1
        assert "[FAIL] r2 >= 2" in capsys.readouterr().out

    def test_reproduce_equals_chained_stages(self, tmp_path):
        # composability: the row runner is exactly generate -> features -> train
        from hamfourier.pipeline import REPRODUCE_ROWS
        result = cmd_reproduce("trotter12", tmp_path / "row", seed=21)
        from dataclasses import asdict, replace
        config = replace(REPRODUCE_ROWS["trotter12"]["config"], seed=21)
        d = tmp_path / "manual"
        d.mkdir()
        cmd_generate(config, d / "data.jsonl")
        cmd_features(config, d / "data.jsonl", d / "features.csv")
        metrics = cmd_train_eval(config, d / "features.csv", d / "data.jsonl",
                                 d / "model.json", d / "metrics.json")
        assert metrics.to_dict() == result["metrics"]


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only extra; importing it would also cost set-up time
    import hamfourier
    src = str(Path(hamfourier.__file__).resolve().parents[1])
    code = "import sys, hamfourier; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestCli:
    def test_bound_subcommand_prints_itemized_json(self, capsys):
        rc = main(["bound", "--k", "11", "--w-bound", "1", "--f-inf", "1",
                   "--num", "100", "--delta", "0.05", "--shot-eta", "0.05",
                   "--epsilon", "0.1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hoeffding_shots"] == 5460
        assert report["sufficient_parameters"]["K"] == 24
        assert set(report["terms"]) == {"approximation", "rademacher",
                                        "concentration", "noise_linear",
                                        "noise_quadratic"}
        assert report["expected_loss_bound"] == pytest.approx(
            sum(v for k, v in report["terms"].items()
                if not k.startswith("noise")))

    def test_generate_features_train_chain(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        feats = tmp_path / "f.csv"
        base = ["--n", "4", "--num", "20", "--seed", "3", "--k", "3"]
        assert main(["generate", *base, "--f", "fourier",
                     "--coeffs", "0.3,-0.2,0.5,0.1,-0.4,0.2,0.6",
                     "--out", str(data)]) == 0
        assert main(["features", *base, "--backend", "exact",
                     "--in", str(data), "--out", str(feats)]) == 0
        assert main(["train", *base, "--method", "ols", "--in", str(data),
                     "--features", str(feats), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        metrics = json.loads(out.strip().splitlines()[-1])
        assert metrics["r2"] > 0.999999
        assert (tmp_path / "model.json").exists()

    def test_env_var_overrides_seed(self, tmp_path, monkeypatch):
        data_flag = tmp_path / "flag.jsonl"
        data_env = tmp_path / "env.jsonl"
        args = ["generate", "--n", "4", "--num", "5", "--seed", "3",
                "--f", "exp"]
        main([*args, "--out", str(data_flag)])
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        main([*args, "--out", str(data_env)])
        assert data_flag.read_bytes() != data_env.read_bytes()
        back = json.loads(sidecar_path(data_env).read_text())
        assert back["seed"] == 99

    def test_env_seed_must_be_an_integer(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert main(["generate", "--n", "4", "--num", "5", "--out",
                     str(tmp_path / "g.jsonl")]) == 2
        assert capsys.readouterr().err == (
            f"error: {SEED_ENV_VAR} must be an integer, got 'abc'\n")

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(
            {"n": 4, "num": 5, "seed": 3, "f_kind": "exp", "beta": 1.0}))
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        main(["generate", "--config", str(config_file), "--out", str(out_a)])
        # explicit flag beats the file
        main(["generate", "--config", str(config_file), "--seed", "4",
              "--out", str(out_b)])
        assert json.loads(sidecar_path(out_a).read_text())["seed"] == 3
        assert json.loads(sidecar_path(out_b).read_text())["seed"] == 4

    def test_generate_sidecar_is_a_config_file(self, tmp_path, capsys):
        # config-file keys are the field names, so a dataset's sidecar
        # configures the later stages
        data, feats = tmp_path / "d.jsonl", tmp_path / "f.csv"
        assert main(["generate", "--n", "4", "--num", "20", "--seed", "3",
                     "--k", "3", "--out", str(data)]) == 0
        config = ["--config", str(sidecar_path(data))]
        assert main(["features", *config, "--in", str(data),
                     "--out", str(feats)]) == 0
        assert main(["train", *config, "--in", str(data), "--features",
                     str(feats), "--out", str(tmp_path / "run")]) == 0
        provenance = json.loads(sidecar_path(feats).read_text())
        assert (provenance["K"], provenance["seed"]) == (3, 3)

    def test_reproduce_rejects_large_rows(self, tmp_path, capsys):
        rc = main(["reproduce", "--row", "qpu32", "--out", str(tmp_path)])
        assert rc == 2
        assert "desk-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("state, flags, message", [
        ("domain_wall", ["--backend", "exact", "--shots", "5"],
         "draws no shots"),
        ("domain_wall", ["--nstep-schedule", "1,1"], "need K+1 = 4"),
        ("0000", ["--backend", "overlap-shots", "--shots", "10"],
         "not orthogonal"),
    ])
    def test_refused_input_is_an_error_line(self, tmp_path, capsys, state,
                                            flags, message):
        data = tmp_path / "d.jsonl"
        base = ["--n", "4", "--num", "5", "--seed", "3", "--k", "3"]
        assert main(["generate", *base, "--f", "exp", "--state", state,
                     "--out", str(data)]) == 0
        capsys.readouterr()
        rc = main(["features", *base, *flags, "--in", str(data),
                   "--out", str(tmp_path / "f.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err

    SIZE = ["--n", "4", "--num", "5", "--k", "3"]
    GENERATE = ["generate", *SIZE, "--out", "{tmp}/g.jsonl"]
    FEATURES = ["features", *SIZE, "--in", "{data}", "--out", "{tmp}/f2.csv"]
    TRAIN = ["train", *SIZE, "--out", "{tmp}/run"]
    BOUND = ["bound", "--k", "3", "--w-bound", "1", "--f-inf", "1",
             "--num", "5"]
    #: --config files of the refusal cases
    CONFIGS = {
        "half_shots": {"shots": 2.5, "backend": "hadamard-shots", "k": 3},
        "real_seed": {"seed": 3.7},
        "text_n": {"n": "4"},
        "real_num": {"num": 5.5},
        "text_c": {"c": "abc"},
        "flag_schedule": {"nstep_schedule": "1,1,1,1"},
        "flag_f": {"f": "exp"},
        "shot": {"shot": 100, "backend": "hadamard-shots"},
    }

    @pytest.mark.parametrize("argv, message", [
        (GENERATE + ["--split", "2"], "split must lie in (0, 1)"),
        (GENERATE + ["--seed", "-1"], "seed must be >= 0"),
        (GENERATE + ["--f", "fourier"], "needs coeffs"),
        (TRAIN + ["--in", "{data}", "--features", "{feats}", "--method",
                  "constrained"], "needs w_bound"),
        (["scatter", *SIZE, "--in", "{data}", "--out", "{tmp}/s.csv",
          "--shots", "0"], "overlap scatter shots must be >= 1, got 0"),
        (FEATURES + ["--nstep-schedule", "0,1,1,1"], "must be >= 1"),
        (FEATURES + ["--nstep-schedule", "1,x,1,1"], "comma-separated ints"),
        (GENERATE + ["--f", "fourier", "--coeffs", "1,2"],
         "odd number of coefficients"),
        (GENERATE + ["--f", "fourier", "--coeffs", "a,b,c"],
         "comma-separated floats"),
        (GENERATE + ["--c", "0"], "C must be positive"),
        (GENERATE + ["--state", "01x1"], "non-binary characters"),
        (TRAIN + ["--in", "{data}", "--features", "{feats}", "--method",
                  "ridge", "--alpha", "-1"],
         "alpha must be non-negative, got -1.0"),
        (TRAIN + ["--in", "{data}", "--features", "{feats}", "--method",
                  "constrained", "--w-bound", "-1"],
         "norm budget must be positive"),
        (TRAIN + ["--in", "{data7}", "--features", "{feats5}"],
         "row mismatch: 5 feature rows vs 7 labels"),
        (TRAIN + ["--in", "{data1}", "--features", "{feats1}"],
         "empty design matrix"),
        (["scatter", "--exact", "{feats}", "--noisy", "{feats_k2}", "--out",
          "{tmp}/s.csv"], "shape mismatch"),
        (BOUND + ["--delta", "2"], "delta must lie in (0, 1)"),
        (BOUND + ["--delta", "0.05", "--shot-eta", "0"],
         "eta must be positive"),
        (["scatter", *SIZE, "--in", "{data}", "--out", "{tmp}/s.csv",
          "--shots", "10", "--c", "1"], "below the spectral bound"),
        (FEATURES + ["--config", "{half_shots}"], "shots must be an int"),
        (FEATURES + ["--config", "{real_seed}"], "seed must be an int"),
        (["generate", "--config", "{text_n}", "--out", "{tmp}/g.jsonl"],
         "n must be an int, got '4'"),
        (["generate", "--config", "{real_num}", "--out", "{tmp}/g.jsonl"],
         "num must be an int, got 5.5"),
        (["generate", "--config", "{text_c}", "--out", "{tmp}/g.jsonl"],
         "c must be a finite number, got 'abc'"),
        (FEATURES + ["--c", "nan"], "c must be a finite number, got nan"),
        (FEATURES + ["--c", "inf"], "c must be a finite number, got inf"),
        (GENERATE + ["--beta", "nan"], "beta must be a finite number"),
        (FEATURES + ["--config", "{flag_schedule}"],
         "unknown config key 'nstep_schedule'"),
        (GENERATE + ["--config", "{flag_f}"], "unknown config key 'f'"),
        (FEATURES + ["--config", "{shot}"], "unknown config key 'shot'"),
        (TRAIN + ["--in", "{data}", "--features", "{tmp}/missing.csv"],
         "No such file or directory"),
        (["features", *SIZE, "--in", "{tmp}/missing.jsonl", "--out",
          "{tmp}/f2.csv"], "No such file or directory"),
        (["generate", "--config", "{cut_json}", "--out", "{tmp}/g.jsonl"],
         "is not valid JSON"),
        (["generate", "--config", "{list_json}", "--out", "{tmp}/g.jsonl"],
         "holds no JSON object"),
        (["generate", "--n", "16", "--num", "1", "--f", "step", "--out",
          "{tmp}/g.jsonl"], "needs 16.8 GB of spin blocks > cap 1 GB"),
        (["generate", "--n", "40", "--num", "1", "--out", "{tmp}/g.jsonl"],
         "sector (n=40, magnetization=20) needs 189676.8 GB of pattern and "
         "Lanczos chunk > cap 1 GB"),
        (TRAIN + ["--in", "{cut_record}", "--features", "{feats}"],
         "cut_record line 3 is not JSON"),
        (TRAIN + ["--in", "{no_couplings}", "--features", "{feats}"],
         "no_couplings line 3 has no 'couplings' key"),
        (TRAIN + ["--in", "{no_y}", "--features", "{feats}"],
         "no_y line 3 has no 'y' key"),
        (TRAIN + ["--in", "{data}", "--features", "{null_cell}"],
         "null_cell line 3 is not a row of finite numbers as wide as the "
         "header"),
        (["generate", "--n", "64", "--num", "1", "--out", "{tmp}/g.jsonl"],
         "int64 indices need n in [1, 63], got 64"),
        (["scatter", "--exact", "{empty}", "--noisy", "{empty}", "--out",
          "{tmp}/s.csv"], "empty line 1 is not a header of column names"),
        (TRAIN + ["--in", "{data}", "--features", "{nan_cell}"],
         "nan_cell line 3 is not a row of finite numbers"),
        (TRAIN + ["--in", "{data}", "--features", "{inf_cell}"],
         "inf_cell line 3 is not a row of finite numbers"),
        (["scatter", "--exact", "{nan_cell}", "--noisy", "{feats}", "--out",
          "{tmp}/s.csv"], "nan_cell line 3 is not a row of finite numbers"),
        (["scatter", "--exact", "{feats}", "--noisy", "{inf_cell}", "--out",
          "{tmp}/s.csv"], "inf_cell line 3 is not a row of finite numbers"),
        (TRAIN + ["--in", "{data}", "--features", "{empty}"],
         "empty line 1 is not a header of column names"),
        (TRAIN + ["--in", "{data}", "--features", "{digit_separator}"],
         "digit_separator line 3 is not a row of finite numbers"),
    ])
    def test_refused_config_is_an_error_line(self, tmp_path, small_dataset,
                                             capsys, argv, message):
        files = {"tmp": tmp_path, "data": small_dataset,
                 "feats": tmp_path / "f.csv", "feats_k2": tmp_path / "fk2.csv"}
        for name, values in self.CONFIGS.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(values))
        cmd_features(SMALL, small_dataset, files["feats"])
        cmd_features(replace(SMALL, k=2), small_dataset, files["feats_k2"])
        records = small_dataset.read_text().splitlines(keepends=True)
        rows = files["feats"].read_text().splitlines(keepends=True)
        no_couplings = '{"n": 4, "state": "domain_wall", "y": 0.5}\n'
        no_y = '{"n": 2, "couplings": [1.0], "state": "domain_wall"}\n'
        for name, text in (("data7", records[:7]), ("feats5", rows[:6]),
                           ("data1", records[:1]), ("feats1", rows[:2]),
                           ("cut_json", '{"n": 4,'), ("list_json", "[1]"),
                           ("cut_record", records[:2] + ['{"n": 4,\n']),
                           ("no_couplings", records[:2] + [no_couplings]),
                           ("no_y", records[:2] + [no_y]),
                           ("null_cell", rows[:2] + ["1,null,0,1,0,1,0\n"]),
                           ("nan_cell", rows[:2] + ["1,nan,0,1,0,1,0\n"]),
                           ("inf_cell", rows[:2] + ["1,0,0,1,0,1,inf\n"]),
                           ("digit_separator",
                            rows[:2] + ["1,1_5,0,1,0,1,0\n"]),
                           ("empty", "")):
            files[name] = tmp_path / name
            files[name].write_text("".join(text))
        before = set(tmp_path.rglob("*"))
        rc = main([arg.format(**files) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        # the error line alone (no warning before it) and no output file
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert {p for p in tmp_path.rglob("*") if p.is_file()} <= before

    BOUND_12 = ["bound", "--k", "11", "--f-inf", "1", "--num", "55",
                "--delta", "0.1"]

    @pytest.mark.parametrize("argv, message", [
        (["--f", "exp", "--beta", "300"],
         "exp target: |param|·C = 900 puts f or its sup-norm outside"),
        (["--f", "sin", "--beta", "1e308"], "sin target: |param|·C = inf"),
        (["--f", "fourier", "--coeffs", "1e308,1e308,1e308"],
         "fourier target: sum |coeffs| = inf"),
        (BOUND_12 + ["--w-bound", "1e200"],
         "expected_loss_terms leaves the double range at BoundInputs(K=11"),
        (BOUND_12 + ["--w-bound", "1", "--epsilon", "1e-300"],
         "sufficient_parameters leaves the double range at 1e-300, 1.0, 1.0"),
        (BOUND_12 + ["--w-bound", "1", "--shot-eta", "1e-200"],
         "hoeffding_shots leaves the double range at 1e-200, 0.1, 11"),
    ])
    def test_out_of_double_range_is_an_error_line(self, tmp_path, capsys,
                                                  argv, message):
        # refused before f or a bound is evaluated past the double range:
        # no traceback, no null label, no dataset and no printed bound
        out = tmp_path / "g.jsonl"
        if argv[0] != "bound":
            argv = ["generate", "--n", "4", "--num", "3", *argv,
                    "--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_scatter_cli_modes(self, tmp_path, small_dataset, capsys):
        out = tmp_path / "sc.csv"
        rc = main(["scatter", "--in", str(small_dataset), "--n", "4",
                   "--k", "3", "--shots", "64", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("sample,l,circuit,exact,estimated")
        rc = main(["scatter", "--out", str(out)])
        assert rc == 2
