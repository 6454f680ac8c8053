"""End-to-end command tests: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gecsr import cli, hypernets, model
from gecsr.cli import main

TINY_MANIFEST = {
    "seed": 60,
    "count": 4,
    "m": 16,
    "n": 8,
    "matrix_class": "gaussian",
    "snr_db_range": [20.0, 20.0],
    "rho_range": [0.5, 0.5],
}


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(TINY_MANIFEST))
    return str(path)


def _train_config(tmp_path, **trainer):
    base = dict(epochs=1, batch_size=2, layers=2, grad_pairs=1, seed=5, hidden=4)
    base.update(trainer)
    cfg = {"variants": ["net_direct"], "manifest": TINY_MANIFEST, "trainer": base}
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return str(path)


_TRAIN = {"variants": ["net_direct"], "manifest": TINY_MANIFEST,
          "trainer": {"epochs": 1, "batch_size": 2, "layers": 2}}
_SWEEP = {"kind": "ratio", "grid": [2.0], "variants": [{"name": "schedule_0.5"}],
          "manifest": TINY_MANIFEST, "samples": 2, "layers": 2}


class TestMalformedConfig:
    """A config of the wrong shape exits 2, with no traceback and no output."""

    @pytest.mark.parametrize("command, config", [
        ("train", dict(_TRAIN, trainer="x")),
        ("train", dict(_TRAIN, trainer={"learning_rate": "a"})),
        ("train", dict(_TRAIN, trainer={"learning_rate": float("nan")})),
        ("train", dict(_TRAIN, variants=3)),
        ("train", [_TRAIN]),
        ("sweep", [_SWEEP]),
        ("sweep", dict(_SWEEP, variants=3)),
        ("sweep", dict(_SWEEP, variants="schedule_0.5")),
        ("sweep", dict(_SWEEP, variants=[{"checkpoint": "ck.json"}])),
        ("sweep", dict(_SWEEP, grid=[float("inf")])),
        ("sweep", dict(_SWEEP, kind="size", grid=[8], ratio=float("inf"))),
        ("sweep", dict(_SWEEP, kind="size", grid=[8.5])),
    ], ids=["trainer-string", "learning-rate-string", "learning-rate-nan",
            "train-variants-number", "train-list", "sweep-list",
            "sweep-variants-number", "sweep-variants-string", "sweep-entry-unnamed",
            "ratio-grid-infinite", "ratio-infinite", "size-grid-fraction"])
    def test_exit_code(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestGen:
    def test_valid_manifest(self, manifest_path, capsys):
        assert main(["gen", "--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "mean SNR" in out and "rho histogram" in out

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["gen", "--manifest", str(path)]) == 2

    def test_inverted_range(self, tmp_path):
        bad = dict(TINY_MANIFEST, snr_db_range=[25.0, 15.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["gen", "--manifest", str(path)]) == 2

    def test_empty_count(self, tmp_path, capsys):
        empty = dict(TINY_MANIFEST, count=0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(empty))
        assert main(["gen", "--manifest", str(path)]) == 0
        assert "count=0" in capsys.readouterr().out


class TestManifestErrors:
    """A manifest that cannot be drawn from exits 2 before any sample is."""

    @pytest.mark.parametrize("command", ["gen", "eval"])
    @pytest.mark.parametrize("bad", [{"snr_db_range": [float("nan"), float("nan")]},
                                     {"snr_db_range": [1e9, 1e9]},
                                     {"snr_range": [40.0, 40.0]}])
    def test_exit_code(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TINY_MANIFEST, **bad)))
        out = tmp_path / "out"
        argv = [command, "--manifest", str(path)]
        if command == "eval":
            argv += ["--layers", "2", "--out", str(out)]
        assert main(argv) == 2
        assert next(iter(bad)) in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_produces_checkpoint_and_history(self, tmp_path):
        cfg = _train_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        ck = json.loads((out / "net_direct.json").read_text())
        assert ck["variant"] == "net_direct"
        lines = (out / "net_direct_loss.csv").read_text().splitlines()
        assert lines[0] == "step,batch_loss,moving_avg"
        assert len(lines) == 3

    def test_zero_epochs_equals_initialization(self, tmp_path):
        cfg = _train_config(tmp_path, epochs=0, layers=3)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        ck = json.loads((out / "net_direct.json").read_text())
        params = hypernets.params_from_checkpoint(ck)
        init = hypernets.init_direct_params(3)
        np.testing.assert_array_equal(hypernets.params_to_vector(params),
                                      hypernets.params_to_vector(init))

    def test_same_seed_identical_checkpoints(self, tmp_path):
        cfg = _train_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
        assert ((out1 / "net_direct.json").read_bytes()
                == (out2 / "net_direct.json").read_bytes())

    def test_unknown_variant(self, tmp_path):
        cfg = {"variants": ["oops"], "manifest": TINY_MANIFEST, "trainer": {}}
        path = tmp_path / "train.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_variant_rejected_before_training(self, tmp_path, capsys):
        cfg = {"variants": ["net_direct", "bogus"], "manifest": TINY_MANIFEST,
               "trainer": {"epochs": 1, "batch_size": 2, "layers": 2}}
        path = tmp_path / "train.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("estimator", ["spsa", "adjoint"])
    @pytest.mark.parametrize("layers", ["0", "-3"])
    def test_non_positive_layers_rejected(self, tmp_path, capsys, estimator, layers):
        cfg = _train_config(tmp_path, grad_estimator=estimator)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--layers", layers]) == 2
        assert "layers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("batch_size", 2.5), ("epochs", True),
                                              ("layers", 2.5), ("seed", 1.5)])
    def test_non_integer_trainer_field_rejected(self, tmp_path, capsys, field, value):
        # batch_size 2.5 used to end in a TypeError traceback (exit 1).
        cfg = _train_config(tmp_path, **{field: value})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_manifest_field_rejected(self, tmp_path, capsys):
        cfg = {"variants": ["net_direct"], "manifest": dict(TINY_MANIFEST, seed=1.9),
               "trainer": {"epochs": 1, "batch_size": 2, "layers": 2}}
        path = tmp_path / "train.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err


class TestEval:
    def test_baseline_only_table(self, tmp_path, manifest_path):
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--layers", "3",
                     "--out", str(out)]) == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == cli.RESULT_HEADER
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {cli.BASELINE_GEOMETRIC, cli.BASELINE_CONSTANT}
        # 2 variants x 3 layers x 2 metrics
        assert len(lines) == 1 + 12

    def test_checkpoint_included(self, tmp_path, manifest_path):
        params = hypernets.init_hypergru_params(8, hidden=4, seed=6)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--checkpoint", str(ck),
                     "--layers", "4", "--out", str(out)]) == 0
        body = (out / "eval.csv").read_text()
        assert "hypergru," in body

    def test_n_mismatch_exit_code(self, tmp_path, manifest_path):
        params = hypernets.init_hypergru_params(5, hidden=4, seed=7)
        payload = hypernets.checkpoint_payload("hypergru", params, n=5, layers=2)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        assert main(["eval", "--manifest", manifest_path, "--checkpoint", str(ck),
                     "--out", str(tmp_path)]) == 4

    def _eval_with(self, tmp_path, manifest_path, payload) -> int:
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        return main(["eval", "--manifest", manifest_path, "--checkpoint", str(ck),
                     "--layers", "2", "--out", str(tmp_path / "out")])

    def test_unknown_checkpoint_format_rejected(self, tmp_path, manifest_path, capsys):
        params = hypernets.init_hypergru_params(8, hidden=4, seed=8)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        payload["format"] = "gecsr-checkpoint-v0"
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "gecsr-checkpoint-v0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_array_shape_rejected(self, tmp_path, manifest_path, capsys):
        params = hypernets.init_hypergru_params(8, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        payload["arrays"]["w_out"] = {"shape": [5], "data": [0.1] * 5}
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "'w_out' has shape [5]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_array_value_rejected(self, tmp_path, manifest_path, capsys):
        params = hypernets.init_hypergru_params(8, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        payload["arrays"]["w_out"]["data"][2] = float("nan")
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "'w_out' holds non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_array_outside_header_rejected(self, tmp_path, manifest_path, capsys):
        # Attention weights under a plain "hypergru" header must not load as
        # a controller without attention.  The writer refuses such a bundle,
        # so the arrays are added to a valid payload by hand.
        params = hypernets.init_hypergru_params(8, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        head = hypernets.init_hypergru_params(8, hidden=4, attention=True,
                                              seed=9).attention
        for name, arr in (("attn_w_b", head.w_b), ("attn_w_c", head.w_c)):
            payload["arrays"][name] = {"shape": list(arr.shape),
                                       "data": arr.ravel().tolist()}
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "attn_w_b" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_headerless_pure_mix_attention_rejected(self, tmp_path, manifest_path,
                                                    capsys):
        params = hypernets.init_variant_params("hypernet_attn", n=8, layers=2,
                                               hidden=4, heads=2, seed=9)
        payload = hypernets.checkpoint_payload("hypernet_attn", params, n=8, layers=2)
        del payload["residual"]
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "pure-mix" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_manifest_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(TINY_MANIFEST, count=0)))
        out = tmp_path / "out"
        assert main(["eval", "--manifest", str(path), "--out", str(out)]) == 6
        assert "no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_static_extension_beyond_trained_depth(self, tmp_path, manifest_path):
        params = hypernets.init_direct_params(2)
        payload = hypernets.checkpoint_payload("net_direct", params, n=8, layers=2)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--checkpoint", str(ck),
                     "--layers", "5", "--out", str(out)]) == 0
        rows = [line for line in (out / "eval.csv").read_text().splitlines()
                if line.startswith("net_direct,")]
        assert len(rows) == 10


class TestSweep:
    def test_snr_grid(self, tmp_path):
        cfg = {
            "kind": "snr",
            "grid": [15.0, 25.0],
            "variants": [{"name": cli.BASELINE_GEOMETRIC}],
            "manifest": TINY_MANIFEST,
            "samples": 2,
            "layers": 2,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep_snr.csv").read_text().splitlines()
        scenarios = {line.split(",")[1] for line in lines[1:]}
        assert scenarios == {"snr=15", "snr=25"}

    def test_ratio_grid_changes_m(self, tmp_path):
        cfg = {
            "kind": "ratio",
            "grid": [2.0],
            "variants": [{"name": cli.BASELINE_CONSTANT}],
            "manifest": TINY_MANIFEST,
            "samples": 2,
            "layers": 2,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_zero_samples_exit_code(self, tmp_path, capsys):
        cfg = {
            "kind": "snr",
            "grid": [15.0],
            "variants": [{"name": cli.BASELINE_CONSTANT}],
            "manifest": TINY_MANIFEST,
            "samples": 0,
            "layers": 2,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 6
        assert "no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_sample_count_rejected(self, tmp_path, capsys):
        cfg = {"kind": "snr", "grid": [15.0], "samples": 2.5, "layers": 2,
               "variants": [{"name": cli.BASELINE_CONSTANT}], "manifest": TINY_MANIFEST}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "samples" in capsys.readouterr().err

    def test_empty_grid_rejected(self, tmp_path):
        cfg = {"kind": "snr", "grid": [], "variants": [], "manifest": TINY_MANIFEST}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_gamma_grid_forces_geometric_class(self, tmp_path):
        cfg = {
            "kind": "gamma",
            "grid": [1.0, 0.95],
            "variants": [{"name": cli.BASELINE_CONSTANT}],
            "manifest": TINY_MANIFEST,
            "samples": 2,
            "layers": 2,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        body = (out / "sweep_gamma.csv").read_text()
        assert "gamma=1," in body and "gamma=0.95," in body

    def test_size_sweep_rejects_mismatched_checkpoint(self, tmp_path):
        params = hypernets.init_hypergru_params(8, hidden=4, seed=17)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        cfg = {
            "kind": "size",
            "grid": [12],
            "variants": [{"name": "hypergru", "checkpoint": str(ck)}],
            "manifest": TINY_MANIFEST,
            "samples": 2,
            "layers": 2,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 4


class TestReconImage:
    def _write_image(self, tmp_path, side=8, bright=True):
        rng = np.random.default_rng(8)
        img = rng.random((side, side)) if bright else np.zeros((side, side))
        path = tmp_path / "img.pgm"
        model.write_pgm(str(path), img)
        return str(path)

    def test_baseline_reconstruction(self, tmp_path):
        image = self._write_image(tmp_path)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     "--layers", "2", "--snr-db", "25"]) == 0
        report = json.loads((out / "recon_report.json").read_text())
        assert np.isfinite(report["nmse_db"])
        recon = model.read_pgm(str(out / "recon.pgm"))
        assert recon.shape == (8, 8)

    def test_spectral_init_only(self, tmp_path):
        image = self._write_image(tmp_path)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     "--layers", "0"]) == 0
        assert (out / "recon.pgm").exists()

    def test_black_image_rejected(self, tmp_path):
        image = self._write_image(tmp_path, bright=False)
        assert main(["recon-image", "--image", image, "--out", str(tmp_path)]) == 5

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        assert main(["recon-image", "--image", str(path),
                     "--out", str(tmp_path)]) == 5

    def test_oversize_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "big.pgm"
        model.write_pgm(str(path), rng.random((80, 80)))
        assert main(["recon-image", "--image", str(path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("ratio", ["inf", "-inf", "nan", "0.5", "0", "-2"])
    def test_bad_ratio_rejected(self, tmp_path, capsys, ratio):
        image = self._write_image(tmp_path)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     f"--ratio={ratio}"]) == 2
        assert "--ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_draw_beyond_cap_rejected_before_drawing(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_draw(*args):
            raise AssertionError("transform drawn")

        monkeypatch.setattr(model, "dense_gaussian_matrix", no_draw)
        image = self._write_image(tmp_path)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     "--ratio", "1e9"]) == 2
        assert "--ratio" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--snr-db", "nan"), ("--snr-db", "inf"),
                                             ("--snr-db", "-inf"), ("--snr-db", "4000"),
                                             ("--layers", "-1")])
    def test_bad_snr_or_layers_rejected_before_reading(self, tmp_path, capsys,
                                                       monkeypatch, flag, value):
        def untouched(*args):
            raise AssertionError("image read or transform drawn")

        monkeypatch.setattr(model, "read_pgm", untouched)
        monkeypatch.setattr(model, "dense_gaussian_matrix", untouched)
        image = self._write_image(tmp_path)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     f"{flag}={value}"]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_draw_cap_at_pixel_cap(self, tmp_path, capsys, monkeypatch):
        # A 64 x 64 image at ratio 4 is the largest draw allowed.  The
        # transform is stubbed, so the 1 GiB draw is never taken.
        class Drawn(Exception):
            pass

        def stub(*args):
            raise Drawn

        monkeypatch.setattr(model, "dense_gaussian_matrix", stub)
        path = tmp_path / "cap.pgm"
        model.write_pgm(str(path), np.random.default_rng(10).random((64, 64)))
        argv = ["recon-image", "--image", str(path), "--out", str(tmp_path / "out")]
        with pytest.raises(Drawn):
            main(argv + ["--ratio", "4"])
        assert main(argv + ["--ratio", "4.001"]) == 2
        assert "--ratio" in capsys.readouterr().err

    def test_unit_ratio_accepted(self, tmp_path):
        image = self._write_image(tmp_path)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     "--ratio", "1", "--layers", "1"]) == 0
        assert json.loads((out / "recon_report.json").read_text())["m"] == 64


class TestPlot:
    def _table(self, tmp_path, rows):
        path = tmp_path / "table.csv"
        path.write_text("\n".join([cli.RESULT_HEADER] + rows) + "\n")
        return str(path)

    def test_single_point_plot(self, tmp_path):
        table = self._table(tmp_path, ["a,scen,1,nmse_median_db,-3.5"])
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 0
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 1

    def test_curve_count_matches_variants(self, tmp_path):
        rows = []
        for variant in ("one", "two", "three"):
            for t in (1, 2, 3):
                rows.append(f"{variant},scen,{t},nmse_median_db,{-t}")
        table = self._table(tmp_path, rows)
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 0
        body = (out / "curve_scen.svg").read_text()
        assert body.count("<polyline") == 3

    def test_byte_identical_reruns(self, tmp_path):
        rows = [f"v,scen,{t},nmse_median_db,{-2.0 * t}" for t in range(1, 4)]
        table = self._table(tmp_path, rows)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["plot", "--table", table, "--out", str(out1)]) == 0
        assert main(["plot", "--table", table, "--out", str(out2)]) == 0
        assert ((out1 / "curve_scen.svg").read_bytes()
                == (out2 / "curve_scen.svg").read_bytes())

    def test_empty_table_exit_code(self, tmp_path):
        table = self._table(tmp_path, [])
        assert main(["plot", "--table", table, "--out", str(tmp_path)]) == 6

    @pytest.mark.parametrize("row", ["a,scen,1,nmse_median_db", "a,scen,1,nmse_median_db,-3,4",
                                     "a,scen,1,nmse_median_db,abc", "a,scen,x,nmse_median_db,-3",
                                     "a,scen,1.5,nmse_median_db,-3", "a,scen,1,nmse_median_db,nan",
                                     "a,scen,1,nmse_median_db,inf"])
    def test_malformed_row_format_error(self, tmp_path, capsys, row):
        table = self._table(tmp_path, ["a,scen,1,nmse_median_db,-2", row])
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 5
        assert "line 3" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.svg"))

    def test_sweep_summary_plot(self, tmp_path):
        rows = []
        for g in (10, 20):
            for t in (1, 2):
                rows.append(f"v,snr={g},{t},nmse_median_db,{-t - g / 10}")
        table = self._table(tmp_path, rows)
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 0
        assert (out / "sweep_snr.svg").exists()


class TestHighSnrControllers:
    """sqrt(SNR) = 1e15 at +300 dB reaches the controllers' gates unscaled."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, variant", [("eval", "hypergru"), ("eval", "hypernet"),
                                                  ("eval", "hypernet_attn"),
                                                  ("recon-image", "hypergru")])
    def test_exits_cleanly(self, tmp_path, command, variant):
        params = hypernets.init_variant_params(variant, n=16, layers=3)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), hypernets.checkpoint_payload(
            variant, params, n=16, layers=3))
        out = tmp_path / "out"
        if command == "eval":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(dict(TINY_MANIFEST, m=64, n=16,
                                                snr_db_range=[300.0, 300.0])))
            args = ["eval", "--manifest", str(manifest), "--layers", "3"]
        else:
            image = tmp_path / "img.pgm"
            model.write_pgm(str(image), np.random.default_rng(79).random((4, 4)))
            args = ["recon-image", "--image", str(image), "--snr-db", "300",
                    "--layers", "3"]
        assert main(args + ["--checkpoint", str(ck), "--out", str(out)]) == 0


class TestReconImageWithCheckpoint:
    def test_cross_width_checkpoint_drives_reconstruction(self, tmp_path):
        rng = np.random.default_rng(77)
        image = tmp_path / "img.pgm"
        model.write_pgm(str(image), rng.random((8, 8)))
        params = hypernets.init_hypergru_params(16, hidden=4, seed=30)
        payload = hypernets.checkpoint_payload("hypergru", params, n=16, layers=4)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", str(image), "--checkpoint",
                     str(ck), "--out", str(out), "--layers", "2",
                     "--snr-db", "25"]) == 0
        report = json.loads((out / "recon_report.json").read_text())
        assert report["variant"] == "hypergru"
        assert np.isfinite(report["nmse_db"])

    def test_cross_width_static_checkpoint_past_its_depth(self, tmp_path):
        # A static controller trained at N = 16 for 2 layers drives a
        # 64-pixel image for 4: it resamples the spectrum and damps layers
        # 3 and 4 by 0.5.
        rng = np.random.default_rng(78)
        image = tmp_path / "img.pgm"
        model.write_pgm(str(image), rng.random((8, 8)))
        params = hypernets.init_hypernet_params(16, layers=2, hidden=4, seed=31)
        payload = hypernets.checkpoint_payload("hypernet", params, n=16, layers=2)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", str(image), "--checkpoint",
                     str(ck), "--out", str(out), "--layers", "4",
                     "--snr-db", "25"]) == 0
        report = json.loads((out / "recon_report.json").read_text())
        assert report["variant"] == "hypernet" and report["n"] == 64
        assert np.isfinite(report["nmse_db"])


_LOADED_SCIPY = """
import sys
import gecsr, gecsr.cli
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is loaded by the dense factorization only, so commands that
        # never factor a dense draw start without it.
        src = os.path.dirname(os.path.dirname(model.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY], env=env,
                             check=True, capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"
