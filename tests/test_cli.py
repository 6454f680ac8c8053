"""End-to-end command tests: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from xml.dom import minidom

import numpy as np
import pytest

from gecsr import cli, hypernets, model, training
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
    """A config of the wrong shape exits 2, naming what is wrong, with no
    traceback and no output."""

    @pytest.mark.parametrize("command, config, named", [
        ("train", dict(_TRAIN, trainer="x"), "trainer"),
        ("train", dict(_TRAIN, trainer={"learning_rate": "a"}), "learning_rate"),
        ("train", dict(_TRAIN, trainer={"learning_rate": float("nan")}), "learning_rate"),
        ("train", dict(_TRAIN, variants=3), "variants"),
        ("train", [_TRAIN], "must be a JSON object"),
        ("sweep", [_SWEEP], "must be a JSON object"),
        ("sweep", dict(_SWEEP, variants=3), "variants"),
        ("sweep", dict(_SWEEP, variants="schedule_0.5"), "variants"),
        ("sweep", dict(_SWEEP, variants=[{"checkpoint": "ck.json"}]), "name"),
        ("sweep", dict(_SWEEP, grid=[float("inf")]), "grid"),
        ("sweep", dict(_SWEEP, kind="size", grid=[8], ratio=float("inf")), "ratio"),
        ("sweep", dict(_SWEEP, kind="size", grid=[8.5]), "grid"),
        ("train", dict(_TRAIN, trainer={"tied": "no"}), "tied"),
        ("train", dict(_TRAIN, trainer={"keep_best": "false"}), "keep_best"),
        ("train", dict(_TRAIN, manifest=dict(TINY_MANIFEST, snr_db_range=["15", "25"])),
         "snr_db_range"),
        ("train", dict(_TRAIN, manifest=dict(TINY_MANIFEST, rho_range=[True, True])),
         "rho_range"),
        ("sweep", dict(_SWEEP, manifest=dict(TINY_MANIFEST, matrix_class="geometric",
                                              gammas=["0.9"])), "gammas"),
        # A misspelt key must not leave its default in place unnoticed.
        ("train", dict(_TRAIN, trainer_config={"epochs": 1}), "trainer_config"),
        ("sweep", dict(_SWEEP, sampels=2), "sampels"),
        ("sweep", dict(_SWEEP, variants=[{"name": "schedule_0.5", "chekpoint": "ck.json"}]),
         "chekpoint"),
        ("train", dict(_TRAIN, manifest=dict(TINY_MANIFEST, snr_range=[20.0, 20.0])),
         "snr_range"),
        ("train", dict(_TRAIN, trainer={"learnig_rate": 0.1}), "learnig_rate"),
    ], ids=["trainer-string", "learning-rate-string", "learning-rate-nan",
            "train-variants-number", "train-list", "sweep-list",
            "sweep-variants-number", "sweep-variants-string", "sweep-entry-unnamed",
            "ratio-grid-infinite", "ratio-infinite", "size-grid-fraction",
            "tied-string", "keep-best-string", "snr-range-strings", "rho-range-booleans",
            "gammas-string", "train-key-misspelt", "sweep-key-misspelt",
            "sweep-entry-key-misspelt", "manifest-key-misspelt", "trainer-key-misspelt"])
    def test_exit_code(self, tmp_path, capsys, command, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [("train", dict(_TRAIN, variants=[])),
                                                 ("sweep", dict(_SWEEP, variants=[]))])
    def test_empty_variants_is_an_empty_result(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 6
        assert "no variants" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    """main maps each exception class to one exit code and prints its message."""

    @pytest.mark.parametrize("exc, code", [
        (cli.InputFormatError("bad"), 5), (cli.EmptyResultError("bad"), 6),
        (training.TrainingAborted("bad"), 3), (training.IncompatibleError("bad"), 4),
        (model.ManifestError("bad"), 2), (hypernets.CheckpointError("bad"), 2),
        (ValueError("bad"), 2), (FileNotFoundError("bad"), 2)],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_exception_class(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_gen", fail)
        assert main(["gen", "--manifest", "unused.json"]) == code
        assert capsys.readouterr().err == "error: bad\n"

    def test_training_abort_message(self, tmp_path, capsys, monkeypatch):
        solve = training.run_solver

        def diverging_solve(*args, **kwargs):
            trace = solve(*args, **kwargs)
            trace.diverged = True
            return trace

        monkeypatch.setattr(training, "run_solver", diverging_solve)
        out = tmp_path / "out"
        assert main(["train", "--config", _train_config(tmp_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: training aborted: solver diverged on 2/2 samples")
        assert list(out.glob("*")) == []


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

    @pytest.mark.parametrize("changes, expected", [
        ({}, "manifest valid; probed 4 samples\n"
             "mean SNR: 20.00 dB (declared range 20..20)\n"
             "rho histogram: [0.50,0.50):4 [0.50,0.50):0 [0.50,0.50):0 [0.50,0.50):0\n"
             "matrix classes: gaussian=4\n"),
        ({"count": 8, "matrix_class": ["gaussian", "binary"], "snr_db_range": [15.0, 25.0],
          "rho_range": [0.3, 0.8]},
         "manifest valid; probed 8 samples\n"
         "mean SNR: 19.44 dB (declared range 15..25)\n"
         "rho histogram: [0.30,0.43):4 [0.43,0.55):3 [0.55,0.68):1 [0.68,0.80):0\n"
         "matrix classes: binary=4, gaussian=4\n")])
    def test_full_stdout(self, tmp_path, capsys, changes, expected):
        # The histogram reads each sample's drawn prior.
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(TINY_MANIFEST, **changes)))
        assert main(["gen", "--manifest", str(path)]) == 0
        assert capsys.readouterr().out == expected

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
                                     {"snr_range": [40.0, 40.0]},
                                     {"seed": -1}])
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
        init = hypernets.init_variant_params("net_direct", 8, 3)
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

    @pytest.mark.parametrize("field, value", [("epochs", -1), ("hidden", -2), ("heads", -1),
                                              ("grad_pairs", 0), ("grad_perturbation", 0.0),
                                              ("seed", -1)])
    def test_out_of_range_trainer_field_rejected(self, tmp_path, capsys, field, value):
        cfg = _train_config(tmp_path, **{field: value})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", _train_config(tmp_path), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
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
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=6)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), payload)
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--checkpoint", str(ck),
                     "--layers", "4", "--out", str(out)]) == 0
        body = (out / "eval.csv").read_text()
        assert "hypergru," in body

    def test_n_mismatch_exit_code(self, tmp_path, manifest_path):
        params = hypernets.init_variant_params("hypergru", 5, 2, hidden=4, seed=7)
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
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=8)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        payload["format"] = "gecsr-checkpoint-v0"
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "gecsr-checkpoint-v0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_array_shape_rejected(self, tmp_path, manifest_path, capsys):
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        payload["arrays"]["w_out"] = {"shape": [5], "data": [0.1] * 5}
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "'w_out' has shape [5]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_array_value_rejected(self, tmp_path, manifest_path, capsys):
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        payload["arrays"]["w_out"]["data"][2] = float("nan")
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert "'w_out' holds non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_array_outside_header_rejected(self, tmp_path, manifest_path, capsys):
        # Attention weights under a plain "hypergru" header must not load as
        # a controller without attention.  The writer refuses such a bundle,
        # so the arrays are added to a valid payload by hand.
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=2)
        head = hypernets.init_variant_params("hypergru_attn", 8, 2, hidden=4,
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

    @pytest.mark.parametrize("layers", ["-1", "0"])
    def test_non_positive_layers_rejected(self, tmp_path, manifest_path, capsys, layers):
        # -1 used to reach numpy ("negative dimensions are not allowed"), and
        # 0 the solver, after a sample and its spectral init were drawn.
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--layers", layers,
                     "--out", str(out)]) == 2
        assert f"layers must be >= 1, got {layers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", ["null", "5", '"format variant n layers arrays"', "[]"])
    def test_non_object_checkpoint_rejected(self, tmp_path, manifest_path, capsys, body):
        ck = tmp_path / "ck.json"
        ck.write_text(body)
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--checkpoint", str(ck),
                     "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant, field, value", [
        ("hypergru", "n", 8.5), ("hypergru", "n", "8"), ("hypergru", "layers", 2.7),
        ("hypergru", "layers", True), ("hypergru", "hidden", 4.9),
        ("hypergru", "heads", 0.5), ("net_direct", "tied", 0), ("net_direct", "tied", None),
        ("hypergru", "n", 0), ("hypernet", "layers", -1), ("hypergru", "hidden", -2),
        ("hypernet_attn", "heads", -1)])
    def test_untyped_header_field_rejected(self, tmp_path, manifest_path, capsys,
                                          variant, field, value):
        params = hypernets.init_variant_params(variant, n=8, layers=2, hidden=4, seed=9)
        payload = hypernets.checkpoint_payload(variant, params, n=8, layers=2)
        payload[field] = value
        assert self._eval_with(tmp_path, manifest_path, payload) == 2
        assert f"'{field}' must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_static_extension_beyond_trained_depth(self, tmp_path, manifest_path):
        params = hypernets.init_variant_params("net_direct", 8, 2)
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

    def test_one_snr_point_equals_eval_on_its_manifest(self, tmp_path):
        # A sweep point is an eval of the manifest it derives, with the
        # sweep's value as its scenario label.
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=12)
        ck = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(ck), hypernets.checkpoint_payload(
            "hypergru", params, n=8, layers=2))
        cfg = {"kind": "snr", "grid": [18.0], "manifest": TINY_MANIFEST,
               "samples": 3, "layers": 3,
               "variants": [{"name": "hypergru", "checkpoint": str(ck)},
                            {"name": cli.BASELINE_GEOMETRIC},
                            {"name": cli.BASELINE_CONSTANT}]}
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(cfg))
        point = dict(TINY_MANIFEST, seed=TINY_MANIFEST["seed"] * 1_000_003 % 2**63,
                     count=3, snr_db_range=[18.0, 18.0])
        manifest = tmp_path / "point.json"
        manifest.write_text(json.dumps(point))
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "s")]) == 0
        assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ck),
                     "--layers", "3", "--out", str(tmp_path / "e")]) == 0

        def without_scenario(path):
            return [[f for k, f in enumerate(line.split(",")) if k != 1]
                    for line in path.read_text().splitlines()]

        swept = without_scenario(tmp_path / "s" / "sweep_snr.csv")
        assert swept == without_scenario(tmp_path / "e" / "eval.csv")
        assert len(swept) == 1 + 3 * 3 * 2

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

    @pytest.mark.parametrize("layers", [-1, 0])
    def test_non_positive_layers_rejected(self, tmp_path, capsys, layers):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(_SWEEP, layers=layers)))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"layers must be >= 1, got {layers}" in capsys.readouterr().err
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
        params = hypernets.init_variant_params("hypergru", 8, 2, hidden=4, seed=17)
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

    @staticmethod
    def _checkpoint(path, variant="hypergru", n=8, seed=17, nan=False):
        params = hypernets.init_variant_params(variant, n, 2, hidden=4, seed=seed)
        payload = hypernets.checkpoint_payload(variant, params, n=n, layers=2)
        if nan:
            payload["arrays"]["w_out"]["data"][0] = float("nan")
        hypernets.save_checkpoint(str(path), payload)
        return str(path)

    @staticmethod
    def _sweep(tmp_path, capsys, kind, grid, variants, **manifest):
        """(exit code, stderr, data rows or None) of a 2-sample, 2-layer sweep."""
        cfg = {"kind": kind, "grid": grid, "variants": variants, "samples": 2, "layers": 2,
               "manifest": dict(TINY_MANIFEST, **manifest)}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        table = out / f"sweep_{kind}.csv"
        rows = table.read_text().splitlines()[1:] if table.exists() else None
        return code, capsys.readouterr().err, rows

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = training.run_solver
        monkeypatch.setattr(training, "run_solver",
                            lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
        return calls

    def test_size_mismatch_at_a_later_point_fails_before_any_solve(self, tmp_path, capsys,
                                                                     solves):
        # The N=8 checkpoint fits the first point and not the second.
        ck = self._checkpoint(tmp_path / "ck.json")
        variants = [{"name": cli.BASELINE_GEOMETRIC}, {"name": "hypergru", "checkpoint": ck}]
        code, err, rows = self._sweep(tmp_path, capsys, "size", [8, 12], variants)
        assert (code, rows, solves) == (4, None, [])
        assert "N=8" in err

    def test_non_finite_third_checkpoint_fails_before_any_solve(self, tmp_path, capsys,
                                                                solves):
        ck = self._checkpoint(tmp_path / "ck.json", nan=True)
        variants = [{"name": cli.BASELINE_GEOMETRIC}, {"name": cli.BASELINE_CONSTANT},
                    {"name": "hypergru", "checkpoint": ck}]
        code, err, rows = self._sweep(tmp_path, capsys, "snr", [15.0, 25.0], variants)
        assert (code, rows, solves) == (2, None, [])
        assert "non-finite" in err

    def test_rows_carry_entry_names(self, tmp_path, capsys):
        # Two checkpoints of one variant are two series, in the table and the plot.
        variants = [{"name": f"gru_seed{seed}", "checkpoint": self._checkpoint(
            tmp_path / f"ck{seed}.json", "hypergru_attn", seed=seed)} for seed in (1, 2)]
        code, _, rows = self._sweep(tmp_path, capsys, "snr", [15.0, 25.0], variants)
        assert code == 0
        by_label = {}
        for row in rows:
            label, rest = row.split(",", 1)
            by_label.setdefault(label, []).append(rest)
        assert set(by_label) == {"gru_seed1", "gru_seed2"}
        assert by_label["gru_seed1"] != by_label["gru_seed2"]
        plots = tmp_path / "plots"
        assert main(["plot", "--table", str(tmp_path / "out" / "sweep_snr.csv"),
                     "--out", str(plots)]) == 0
        assert (plots / "sweep_snr.svg").read_text().count("<polyline") == 2

    @pytest.mark.parametrize("names", [("gru", "gru"), ("gru", "ok", "gru"),
                                       (cli.BASELINE_CONSTANT, cli.BASELINE_CONSTANT)])
    def test_repeated_names_rejected_before_any_solve(self, tmp_path, capsys, solves,
                                                      names):
        ck = self._checkpoint(tmp_path / "ck.json")
        variants = [{"name": name} if name in cli.BASELINES
                    else {"name": name, "checkpoint": ck} for name in names]
        code, err, rows = self._sweep(tmp_path, capsys, "snr", [15.0], variants)
        assert (code, rows, solves) == (2, None, [])
        assert "names must differ" in err

    @pytest.mark.parametrize("name", ["", "gru,1", "gru 1", "gru\n1"])
    def test_name_unfit_for_the_table_rejected(self, tmp_path, capsys, name):
        variants = [{"name": name, "checkpoint": self._checkpoint(tmp_path / "ck.json")}]
        code, err, rows = self._sweep(tmp_path, capsys, "snr", [15.0], variants)
        assert (code, rows) == (2, None)
        assert "letters, digits" in err

    def test_negative_base_seed_rejected(self, tmp_path, capsys, solves):
        # A point seed folds the base seed modulo 2^63, so a negative one
        # would run; the base manifest refuses it first.
        code, err, rows = self._sweep(tmp_path, capsys, "snr", [15.0],
                                      [{"name": cli.BASELINE_CONSTANT}], seed=-1)
        assert (code, rows, solves) == (2, None, [])
        assert "seed must be >= 0, got -1" in err


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

    def test_every_output_renamed_into_place(self, tmp_path, monkeypatch):
        image = self._write_image(tmp_path)
        replaced, rename = [], os.replace

        def recording_replace(src, dst):
            replaced.append(os.path.basename(dst))
            rename(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        out = tmp_path / "out"
        assert main(["recon-image", "--image", image, "--out", str(out),
                     "--layers", "1"]) == 0
        assert sorted(replaced) == sorted(p.name for p in out.iterdir())
        assert sorted(replaced) == ["recon.pgm", "recon_report.json"]

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
                                             ("--layers", "-1"), ("--seed", "-1")])
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

    def test_sweep_table_without_medians_exit_code(self, tmp_path):
        table = self._table(tmp_path, ["v,snr=10,1,nmse_mean_db,-1",
                                       "v,snr=20,1,nmse_mean_db,-2"])
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 6
        assert not out.exists()

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

    def test_markup_in_labels_is_escaped(self, tmp_path):
        table = self._table(tmp_path, [f"a<b&c,s<1>,{t},nmse_median_db,{-t}"
                                       for t in (1, 2)])
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 0
        svg = minidom.parse(str(out / "curve_s_1_.svg"))
        texts = [node.firstChild.data for node in svg.getElementsByTagName("text")]
        assert "a<b&c" in texts and "s<1>" in texts

    def test_labels_with_one_safe_name_get_their_own_files(self, tmp_path, capsys):
        # s<1 and s>1 both map to curve_s_1; the second plot is not written
        # over the first, and s_1-2 does not take the second's suffixed name.
        table = self._table(tmp_path, [f"v,{scenario},1,nmse_median_db,-1"
                                       for scenario in ("s>1", "s_1-2", "s<1")])
        out = tmp_path / "plots"
        assert main(["plot", "--table", table, "--out", str(out)]) == 0
        titles = {}
        for path in out.glob("*.svg"):
            texts = [node.firstChild.data for node in
                     minidom.parse(str(path)).getElementsByTagName("text")]
            titles[path.name] = next(s for s in ("s<1", "s>1", "s_1-2") if s in texts)
        assert titles == {"curve_s_1.svg": "s<1", "curve_s_1-2.svg": "s>1",
                          "curve_s_1-2-2.svg": "s_1-2"}
        assert len(set(capsys.readouterr().out.splitlines())) == 3


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
        params = hypernets.init_variant_params("hypergru", 16, 4, hidden=4, seed=30)
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
        params = hypernets.init_variant_params("hypernet", 16, 2, hidden=4, seed=31)
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
import json, os, sys
import numpy as np
import gecsr, gecsr.cli
from gecsr.model import write_pgm

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = [scipy_modules()]
os.chdir(sys.argv[1])
write_pgm("img.pgm", np.random.default_rng(0).random((8, 8)))
assert gecsr.cli.main(["recon-image", "--image", "img.pgm", "--ratio", "4",
                       "--layers", "2", "--out", "recon"]) == 0
loaded.append(scipy_modules())
with open("binary.json", "w") as fh:
    json.dump({"seed": 3, "count": 2, "m": 64, "n": 16, "matrix_class": "binary",
               "snr_db_range": [20, 20]}, fh)
assert gecsr.cli.main(["eval", "--manifest", "binary.json", "--layers", "3",
                       "--out", "runs"]) == 0
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        # The dense factorization calls numpy's own zheevr, so neither the
        # import nor a command that factors a dense draw (recon-image, eval
        # on binary transforms) loads scipy.
        src = os.path.dirname(os.path.dirname(model.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, str(tmp_path)], env=env,
                             check=True, capture_output=True, text=True, timeout=120)
        assert json.loads(out.stdout.splitlines()[-1]) == [[], [], []]
        assert (tmp_path / "recon" / "recon.pgm").exists()
        assert (tmp_path / "runs" / "eval.csv").exists()
