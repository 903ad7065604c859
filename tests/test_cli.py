"""End-to-end tests of the command-line interface and its exit-code contract."""
import csv
import warnings

import numpy as np
import pytest

from margincal import cli
from margincal.cli import run
from margincal.margins import read_margins_csv
from margincal.segdata import (
    FEATURE_DIM, SynthConfig, accumulate_stats, generate_synthetic, read_stats_csv,
    write_stats_csv,
)
from margincal.trainer import PixelMLP, evaluate, load_model, save_model
from test_metrics import recount


def run_ok(argv):
    assert run(argv) == 0, f"expected success for {argv}"


def recounted_evaluate(model_path, feats, masks, *margins_and_stats):
    """``evaluate``'s report of the saved model, once its counts match an
    argmax/bincount recount of the model's scores by one numpy expression."""
    model = load_model(model_path)
    report = evaluate(model, feats, masks, *margins_and_stats)
    scores = np.maximum(feats.features @ model.w1 + model.b1, 0.0) @ model.w2 + model.b2
    tp, fp, fn, n = recount(scores, masks.labels, model.k_classes)
    np.testing.assert_array_equal(report.p_k0, fn / n)
    np.testing.assert_array_equal(report.p_0k, fp / n)
    assert report.pixel_accuracy == tp.sum() / n
    return report


@pytest.fixture
def generate_calls(monkeypatch):
    """Count the CLI's calls to the synthetic-data generator."""
    calls = []
    real = cli.generate_synthetic

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "generate_synthetic", counting)
    return calls


SMALL_DATASET = [
    "--width", "24", "--height", "24", "--k-classes", "3",
    "--ratios", "0.84,0.10,0.06", "--noise-sigma", "0.05",
    "--data-seed", "3", "--train-images", "8", "--val-images", "4",
]

SMALL_TRAIN = SMALL_DATASET + [
    "--epochs", "3", "--batch-images", "4", "--lr", "0.05", "--seed", "1",
    "--eval-every", "3", "--hidden", "8",
]

# Small enough to train in a blink, yet the model learns the foreground, so a
# cell's val mIoU depends on its tau and on the model it started from.
TAU_SENSITIVE_TRAIN = [
    "--width", "16", "--height", "16", "--k-classes", "2", "--ratios", "0.9,0.1",
    "--data-seed", "3", "--train-images", "40", "--val-images", "10",
    "--epochs", "10", "--batch-images", "10", "--seed", "1", "--eval-every", "10",
]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["margins", "--bogus"]) == 2
        capsys.readouterr()

    def test_domain_error_is_exit_one(self, tmp_path, capsys):
        """A stats file whose margins make the bound vacuous exits 1 with the
        error on stderr."""
        stats_csv = tmp_path / "stats.csv"
        margins_csv = tmp_path / "margins.csv"
        run_ok(["gen", "--out-dir", str(tmp_path / "data"), "--seed", "0",
                "--n-images", "4"] + SMALL_DATASET[:10])
        run_ok(["stats", "--masks", str(tmp_path / "data"), "--k-classes", "3",
                "--out", str(stats_csv)])
        run_ok(["margins", "--stats", str(stats_csv), "--tau", "10",
                "--upsilon", "1", "--out", str(margins_csv)])
        code = run(["bound", "--margins", str(margins_csv), "--m-pixels", "64",
                    "--eta", "0.05", "--c-theta", "1.0",
                    "--out", str(tmp_path / "bound.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "vacuous" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--ratios", "0.9,x"], "--ratios"),
        (["sweep", "--tau-grid", "1,x", "--upsilon-grid", "1", "--out", "s.csv"],
         "--tau-grid"),
    ])
    def test_malformed_number_list_is_usage_error(self, argv, flag, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: expected comma-separated numbers" in captured.err
        assert "usage:" in captured.err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_input_file_is_exit_one(self, tmp_path, capsys):
        code = run(["bound", "--margins", str(tmp_path / "nope.csv"),
                    "--m-pixels", "4", "--out", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


def assert_clean_exit_one(code, captured, message):
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.err.strip() == f"error: {message}"


class TestMalformedCsvNumbers:
    """A field that does not parse as its column's number type is a clean
    exit 1 naming the CSV kind, the line and the field."""

    @pytest.mark.parametrize("row, field, what", [
        ("0,abc,0.5", "n_pixels", "an integer"),
        ("0,10.5,0.5", "n_pixels", "an integer"),
        ("0,5,half", "p_k", "a number"),
    ], ids=["word-count", "fractional-count", "word-frequency"])
    def test_margins_rejects_malformed_stats(self, tmp_path, capsys, row, field, what):
        stats_csv = tmp_path / "stats.csv"
        stats_csv.write_text(f"class_index,n_pixels,p_k\n{row}\n1,5,0.5\n")
        out = tmp_path / "margins.csv"
        code = run(["margins", "--stats", str(stats_csv), "--out", str(out)])
        bad = row.split(",")[1 if field == "n_pixels" else 2]
        assert_clean_exit_one(code, capsys.readouterr(),
                              f"stats CSV line 2 field {field}: expected {what}, got {bad!r}")
        assert not out.exists()

    def test_bound_rejects_malformed_mu(self, tmp_path, capsys):
        stats_csv = tmp_path / "stats.csv"
        stats_csv.write_text("class_index,n_pixels,p_k\n0,90000000,0.9\n1,10000000,0.1\n")
        margins_csv = tmp_path / "margins.csv"
        run_ok(["margins", "--stats", str(stats_csv), "--out", str(margins_csv)])
        lines = margins_csv.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "oops"
        lines[2] = ",".join(fields)
        margins_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bound.csv"
        code = run(["bound", "--margins", str(margins_csv), "--m-pixels", "64",
                    "--out", str(out)])
        assert_clean_exit_one(code, capsys.readouterr(),
                              "margins CSV line 3 field mu_k: expected a number, got 'oops'")
        assert not out.exists()


class TestNanSettings:
    """A NaN setting, or a finite one out of its rule's range, fails the
    check of the rule it breaks: exit 1 with that rule's message, no numpy
    warning and no traceback.  Before, the out-of-range ones failed on a
    later symptom, ``--tau 1e308`` and ``--upsilon 1e308`` after a numpy
    overflow warning."""

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--n-images", "2", "--ratios", "nan,0.5,0.5"],
         "target_ratios must all be finite and positive"),
        (["gen", "--n-images", "2", "--ratios", "0.9,nan,0.1"],
         "target_ratios must all be finite and positive"),
        (["train", *SMALL_TRAIN, "--ratios", "nan,0.5,0.5"],
         "target_ratios must all be finite and positive"),
        (["gen", "--n-images", "2", "--noise-sigma", "nan"],
         "noise_sigma must be finite and non-negative"),
        (["margins", "--tau", "nan"], "tau and upsilon must be finite and positive"),
        (["margins", "--upsilon", "nan"], "tau and upsilon must be finite and positive"),
        (["train", *SMALL_TRAIN, "--tau", "nan"], "tau and upsilon must be finite and positive"),
        (["train", *SMALL_TRAIN, "--upsilon", "nan"], "tau and upsilon must be finite and positive"),
        (["bound", "--m-pixels", "1", "--c-theta", "nan"],
         "c_theta must be finite and non-negative"),
        (["margins", "--tau", "1e308"], "tau=1e+308 and upsilon=1.0 put the margin-offsets of "
                                        "class 0 outside float64's normal range"),
        (["margins", "--upsilon", "1e308"], "tau=10.0 and upsilon=1e+308 put the margin-offsets "
                                            "of class 0 outside float64's normal range"),
        (["margins", "--tau", "1e-320"], "tau=1e-320 and upsilon=1.0 put the margin-offsets of "
                                         "class 0 outside float64's normal range"),
        (["bound", "--m-pixels", "1", "--c-theta", "inf"],
         "c_theta must be finite and non-negative"),
    ], ids=["gen-ratio-0", "gen-ratio-1", "train-ratio", "gen-noise-sigma", "margins-tau",
            "margins-upsilon", "train-tau", "train-upsilon", "bound-c-theta",
            "margins-tau-overflows", "margins-upsilon-overflows", "margins-tau-underflows",
            "bound-c-theta-inf"])
    def test_nan_setting_is_clean_error(self, tmp_path, capsys, argv, message):
        stats_csv, margins_csv = tmp_path / "stats.csv", tmp_path / "margins.csv"
        stats_csv.write_text("class_index,n_pixels,p_k\n0,90,0.9\n1,10,0.1\n")
        run_ok(["margins", "--stats", str(stats_csv), "--out", str(margins_csv)])
        capsys.readouterr()
        files = {"gen": ["--out-dir", str(tmp_path / "data")],
                 "margins": ["--stats", str(stats_csv), "--out", str(tmp_path / "m.csv")],
                 "train": [],
                 "bound": ["--margins", str(margins_csv), "--out", str(tmp_path / "b.csv")]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + files[argv[0]])
        assert [str(w.message) for w in caught] == []
        assert_clean_exit_one(code, capsys.readouterr(), message)

    @pytest.mark.parametrize("command", ["eval", "bound"])
    def test_subnormal_offsets_in_a_margins_csv_are_a_clean_error(self, tmp_path, capsys,
                                                                  command):
        """Offsets of 1e-320 keep the file's own rule (mu_k = rho_k0/rho_0k)
        and break the offsets' rule.  Before, the file loaded, ``eval`` printed
        two numpy overflow warnings from the lower bound's phi-sums and exited 0."""
        margins_csv, out = tmp_path / "margins.csv", tmp_path / "out.csv"
        margins_csv.write_text("class_index,n_pixels,p_k,mu_k,rho_0k,rho_k0\n"
                               + "".join(f"{k},10,0.333333333333,1,1e-320,1e-320\n"
                                         for k in range(3)))
        model_path = tmp_path / "model.bin"
        save_model(PixelMLP.init(FEATURE_DIM, 8, 3, seed=0), model_path)
        argv = {"eval": ["eval", "--model", str(model_path), *SMALL_DATASET],
                "bound": ["bound", "--m-pixels", "1"]}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--margins", str(margins_csv), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert_clean_exit_one(code, capsys.readouterr(), "rho_0k and rho_k0 of class 0 must "
                                                         "be positive normal float64 numbers")
        assert not out.exists()


class TestStatsMarginsFlow:
    def test_worked_example_margins_csv(self, tmp_path, capsys):
        """The 90/10 stats file produces the worked-example offsets."""
        stats_csv = tmp_path / "stats.csv"
        stats_csv.write_text(
            "class_index,n_pixels,p_k\n0,90,0.9\n1,10,0.1\n"
        )
        margins_csv = tmp_path / "margins.csv"
        run_ok(["margins", "--stats", str(stats_csv), "--tau", "10",
                "--upsilon", "1", "--out", str(margins_csv)])
        capsys.readouterr()
        m, _ = read_margins_csv(margins_csv)
        np.testing.assert_allclose(m.rho_0k, [0.351364, 9.486833], atol=1e-5)
        np.testing.assert_allclose(m.mu_k, [1.193487, 0.003551], atol=1e-5)
        np.testing.assert_allclose(m.rho_k0, [0.419351, 0.033688], atol=1e-5)

    def test_gen_stats_round_trip(self, tmp_path, capsys):
        out = tmp_path / "data"
        run_ok(["gen", "--out-dir", str(out), "--seed", "5", "--n-images", "6"]
               + SMALL_DATASET[:10])
        capsys.readouterr()
        masks = sorted(out.glob("mask_*.pgm"))
        images = sorted(out.glob("image_*.pgm"))
        assert len(masks) == 6 and len(images) == 6
        stats_csv = tmp_path / "stats.csv"
        run_ok(["stats", "--masks", str(out), "--k-classes", "3",
                "--out", str(stats_csv)])
        capsys.readouterr()
        stats = read_stats_csv(stats_csv)
        assert stats.n_total == 6 * 24 * 24
        # --masks takes files as well as directories
        run_ok(["stats", "--masks", str(masks[0]), str(masks[2]), "--k-classes", "3",
                "--out", str(stats_csv)])
        assert capsys.readouterr().out == (
            f"counted {2 * 24 * 24} pixels over 2 masks -> {stats_csv}\n")
        assert read_stats_csv(stats_csv).n_total == 2 * 24 * 24

    @pytest.mark.parametrize("masks, k_classes, message", [
        ("data", "-1", "k_classes must be >= 1; got -1"),
        ("empty", "3", "no masks given"),
    ], ids=["negative-k", "no-masks"])
    def test_stats_bad_input_is_clean_error(self, tmp_path, capsys, masks, k_classes, message):
        """Before: numpy's traceback for a negative K, and an empty directory
        read as a dataset whose every pixel is ignored."""
        run_ok(["gen", "--out-dir", str(tmp_path / "data"), "--seed", "0", "--n-images", "2"]
               + SMALL_DATASET[:10])
        (tmp_path / "empty").mkdir()
        capsys.readouterr()
        out = tmp_path / "stats.csv"
        code = run(["stats", "--masks", str(tmp_path / masks), "--k-classes", k_classes,
                    "--out", str(out)])
        assert_clean_exit_one(code, capsys.readouterr(), message)
        assert not out.exists()


class TestTrainEvalFlow:
    def test_train_eval_produces_metrics(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        log_path = tmp_path / "log.csv"
        run_ok(["train", "--loss", "margin_calibration",
                "--out-model", str(model_path), "--log-csv", str(log_path)]
               + SMALL_TRAIN)
        capsys.readouterr()
        assert model_path.exists()
        with open(log_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "train_miou", "val_miou",
                           "seconds"]
        assert len(rows) >= 2

        metrics_path = tmp_path / "metrics.csv"
        run_ok(["eval", "--model", str(model_path), "--split", "val",
                "--out", str(metrics_path)] + SMALL_DATASET)
        capsys.readouterr()
        lines = metrics_path.read_text().strip().splitlines()
        assert lines[0] == "class_index,iou,dsc,p_k,p_k0,p_0k,iou_lower"

    def test_train_idempotent_outputs(self, tmp_path, capsys):
        logs = []
        for name in ("a", "b"):
            log_path = tmp_path / f"{name}.csv"
            run_ok(["train", "--loss", "cross_entropy",
                    "--log-csv", str(log_path)] + SMALL_TRAIN)
            capsys.readouterr()
            # drop the wall-time column, which is not part of determinism
            rows = [r.rsplit(",", 1)[0]
                    for r in log_path.read_text().splitlines()]
            logs.append(rows)
        assert logs[0] == logs[1]

    def test_eval_every_zero_trains_without_evaluation(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        log_path = tmp_path / "log.csv"
        argv = ["train", "--out-model", str(model_path), "--log-csv", str(log_path)]
        run_ok(argv + SMALL_TRAIN + ["--eval-every", "0"])
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines()[-1] == (
            "trained 3 epochs; no evaluation ran (--eval-every 0)"
        )
        assert model_path.exists()
        assert log_path.read_text().splitlines() == [
            "epoch,train_loss,train_miou,val_miou,seconds"
        ]

    def test_negative_eval_every_is_exit_one(self, tmp_path, capsys):
        model_path, log_path = tmp_path / "model.bin", tmp_path / "log.csv"
        code = run(["train", "--out-model", str(model_path), "--log-csv", str(log_path)]
                   + SMALL_TRAIN + ["--eval-every", "-2"])
        assert_clean_exit_one(code, capsys.readouterr(),
                              "eval_every must be >= 0 (0 never evaluates); got -2")
        assert not model_path.exists() and not log_path.exists()

    def test_eval_with_margins_reports_the_certified_lower_bound(self, tmp_path, capsys):
        """``eval --margins`` writes the IoU lower bound that the margins CSV's
        offsets certify on the val split, as ``evaluate`` computes it."""
        model_path = tmp_path / "model.bin"
        run_ok(["train", "--loss", "margin_calibration", "--out-model", str(model_path)]
               + SMALL_TRAIN)
        split = dict(width=24, height=24, k_classes=3, target_ratios=(0.84, 0.10, 0.06),
                     noise_sigma=0.05)
        _, train_masks = generate_synthetic(SynthConfig(seed=3, n_images=8, **split))
        feats, masks = generate_synthetic(SynthConfig(seed=4, n_images=4, **split))
        stats_csv, margins_csv = tmp_path / "stats.csv", tmp_path / "margins.csv"
        write_stats_csv(accumulate_stats(train_masks, 3), stats_csv)
        run_ok(["margins", "--stats", str(stats_csv), "--tau", "2", "--upsilon", "1",
                "--out", str(margins_csv)])
        metrics_path = tmp_path / "metrics.csv"
        capsys.readouterr()
        run_ok(["eval", "--model", str(model_path), "--margins", str(margins_csv),
                "--out", str(metrics_path)] + SMALL_DATASET)
        out = capsys.readouterr().out
        want = recounted_evaluate(model_path, feats, masks, read_margins_csv(margins_csv)[0])
        assert out == (f"miou={want.miou:.6g} pixel_acc={want.pixel_accuracy:.6g} "
                       f"miou_lower={want.miou_lower:.6g} bound_scope=batch -> {metrics_path}\n")
        with open(metrics_path) as fh:
            rows = {row["class_index"]: row for row in csv.DictReader(fh)}
        np.testing.assert_allclose([float(rows[str(k)]["iou_lower"]) for k in range(3)],
                                   want.iou_lower_per_class, rtol=1e-11)
        miou, miou_lower = float(rows["miou"]["iou"]), float(rows["miou_lower"]["iou"])
        assert (miou, miou_lower) == pytest.approx((want.miou, want.miou_lower), rel=1e-11)
        assert miou_lower <= miou

    def test_eval_on_the_split_of_the_margins_statistics_reports_dataset_scope(
            self, tmp_path, capsys):
        """Margins made from the train split's statistics certify that whole
        split, so ``eval --split train`` reports ``bound_scope=dataset``."""
        model_path = tmp_path / "model.bin"
        run_ok(["train", "--loss", "margin_calibration", "--out-model", str(model_path)]
               + SMALL_TRAIN)
        feats, masks = generate_synthetic(SynthConfig(
            seed=3, n_images=8, width=24, height=24, k_classes=3,
            target_ratios=(0.84, 0.10, 0.06), noise_sigma=0.05))
        stats_csv, margins_csv = tmp_path / "stats.csv", tmp_path / "margins.csv"
        write_stats_csv(accumulate_stats(masks, 3), stats_csv)
        run_ok(["margins", "--stats", str(stats_csv), "--tau", "2", "--upsilon", "1",
                "--out", str(margins_csv)])
        metrics_path = tmp_path / "metrics.csv"
        capsys.readouterr()
        run_ok(["eval", "--model", str(model_path), "--split", "train", "--margins",
                str(margins_csv), "--out", str(metrics_path)] + SMALL_DATASET)
        want = recounted_evaluate(model_path, feats, masks, *read_margins_csv(margins_csv))
        assert want.bound_scope == "dataset"
        assert capsys.readouterr().out == (
            f"miou={want.miou:.6g} pixel_acc={want.pixel_accuracy:.6g} "
            f"miou_lower={want.miou_lower:.6g} bound_scope=dataset -> {metrics_path}\n")

    def test_eval_generates_only_its_split(self, tmp_path, capsys, generate_calls):
        model_path = tmp_path / "model.bin"
        run_ok(["train", "--out-model", str(model_path)] + SMALL_TRAIN)
        generate_calls.clear()
        for split, seed, n_images in (("train", 3, 8), ("val", 4, 4)):
            run_ok(["eval", "--model", str(model_path), "--split", split,
                    "--out", str(tmp_path / f"{split}.csv")] + SMALL_DATASET)
            assert [(c.seed, c.n_images) for c in generate_calls] == [(seed, n_images)]
            generate_calls.clear()
        capsys.readouterr()

    def test_warm_start_from_saved_model(self, tmp_path, capsys):
        first = tmp_path / "first.bin"
        run_ok(["train", "--loss", "cross_entropy", "--out-model", str(first)]
               + SMALL_TRAIN)
        second = tmp_path / "second.bin"
        run_ok(["train", "--loss", "margin_calibration",
                "--init-from", str(first), "--out-model", str(second)]
               + SMALL_TRAIN)
        capsys.readouterr()
        assert second.exists()

    def test_warm_start_of_other_hidden_width_fails(self, tmp_path, capsys):
        """--hidden is not silently dropped for the --init-from model's width."""
        init = tmp_path / "h8.bin"
        save_model(PixelMLP.init(FEATURE_DIM, 8, 3, seed=0), init)
        model, log = tmp_path / "out.bin", tmp_path / "log.csv"
        code = run(["train", "--init-from", str(init), "--out-model", str(model),
                    "--log-csv", str(log)] + SMALL_TRAIN + ["--hidden", "32"])
        assert_clean_exit_one(code, capsys.readouterr(),
                              "--init-from model has hidden width 8; --hidden is 32")
        assert not model.exists() and not log.exists()

    @pytest.mark.parametrize("hidden", ["0", "-1"])
    def test_hidden_width_below_one_is_exit_one(self, tmp_path, capsys, hidden):
        model = tmp_path / "out.bin"
        code = run(["train", "--out-model", str(model)] + SMALL_TRAIN + ["--hidden", hidden])
        assert_clean_exit_one(code, capsys.readouterr(),
                              f"need d, hidden and k_classes >= 1; got {FEATURE_DIM}, {hidden}, 3")
        assert not model.exists()

    def test_a_hidden_0_init_model_is_refused_as_hidden_0_is(self, tmp_path, capsys):
        """The model file's header obeys ``PixelMLP.init``'s rule: before,
        ``--hidden 0 --init-from`` trained a hidden-0 model and exited 0."""
        init, model = tmp_path / "h0.bin", tmp_path / "out.bin"
        save_model(PixelMLP(w1=np.zeros((FEATURE_DIM, 0)), b1=np.zeros(0), w2=np.zeros((0, 3)),
                            b2=np.zeros(3)), init)
        code = run(["train", "--init-from", str(init), "--out-model", str(model)]
                   + SMALL_TRAIN + ["--hidden", "0"])
        assert_clean_exit_one(code, capsys.readouterr(),
                              f"need d, hidden and k_classes >= 1; got {FEATURE_DIM}, 0, 3")
        assert not model.exists()

    def test_eval_of_a_0_class_model_names_the_cause(self, tmp_path, capsys):
        """Before, the first label was said to exceed k_classes=0."""
        path, out = tmp_path / "k0.bin", tmp_path / "metrics.csv"
        save_model(PixelMLP(w1=np.zeros((FEATURE_DIM, 4)), b1=np.zeros(4), w2=np.zeros((4, 0)),
                            b2=np.zeros(0)), path)
        code = run(["eval", "--model", str(path), "--out", str(out)] + SMALL_DATASET)
        assert_clean_exit_one(code, capsys.readouterr(),
                              f"need d, hidden and k_classes >= 1; got {FEATURE_DIM}, 4, 0")
        assert not out.exists()


class TestGradcheckCommand:
    def test_margin_calibration_passes(self, capsys):
        code = run(["gradcheck", "--loss", "margin_calibration", "--seed", "7",
                    "--batches", "5"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "loss_name,max_rel_err,n_probes"
        name, err, probes = lines[1].split(",")
        assert name == "margin_calibration"
        assert float(err) <= 1e-4
        assert int(probes) == 5 * 16 * 3

    def test_impossible_tolerance_fails(self, capsys):
        code = run(["gradcheck", "--loss", "cross_entropy", "--seed", "7",
                    "--batches", "2", "--tol", "1e-18"])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x"])
    def test_a_tolerance_not_finite_and_non_negative_is_a_usage_error(self, capsys, tol):
        """Before, NaN and -1 ran every check and then failed every loss."""
        code = run(["gradcheck", "--loss", "cross_entropy", "--batches", "1", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --tol: must be finite and >= 0, "
                                     f"got {tol!r}\n")

    @pytest.mark.parametrize("batches", ["0", "-3"])
    def test_no_batches_is_exit_one(self, capsys, batches):
        """A check of no batches would pass having checked nothing."""
        code = run(["gradcheck", "--loss", "cross_entropy", "--batches", batches])
        assert_clean_exit_one(code, capsys.readouterr(),
                              f"need at least one batch to check; got {batches}")

    def test_failed_check_writes_no_csv_header(self, capsys):
        """Rows are written only after every check has finished, so any failed
        check leaves stdout empty."""
        code = run(["gradcheck", "--batches", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""


class TestBoundCommand:
    def test_valid_config_writes_csv(self, tmp_path, capsys):
        stats_csv = tmp_path / "stats.csv"
        stats_csv.write_text(
            "class_index,n_pixels,p_k\n0,90000000,0.9\n1,10000000,0.1\n"
        )
        margins_csv = tmp_path / "margins.csv"
        run_ok(["margins", "--stats", str(stats_csv), "--tau", "10",
                "--upsilon", "1", "--out", str(margins_csv)])
        bound_csv = tmp_path / "bound.csv"
        run_ok(["bound", "--margins", str(margins_csv), "--m-pixels", "64",
                "--eta", "0.05", "--c-theta", "1.0", "--out", str(bound_csv)])
        capsys.readouterr()
        rows = bound_csv.read_text().strip().splitlines()
        assert rows[0] == "class_index,eps_k,valid"
        summary = {r.split(",")[0]: r.split(",")[1] for r in rows[3:]}
        assert float(summary["eps"]) == pytest.approx(227891.32177174325,
                                                      rel=1e-9)
        assert float(summary["sigma"]) == pytest.approx(0.02808495672493192,
                                                        rel=1e-9)


    def test_negative_stats_count_is_clean_error(self, tmp_path, capsys):
        """A stats CSV with a negative count stops before any square root of it."""
        stats_csv = tmp_path / "stats.csv"
        stats_csv.write_text("class_index,n_pixels,p_k\n0,90,0.9\n1,10,0.1\n")
        margins_csv = tmp_path / "margins.csv"
        run_ok(["margins", "--stats", str(stats_csv), "--out", str(margins_csv)])
        capsys.readouterr()
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("class_index,n_pixels,p_k\n0,-5,-1\n1,10,2\n")
        out = tmp_path / "bound.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["bound", "--margins", str(margins_csv), "--stats", str(bad_csv),
                        "--m-pixels", "64", "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert_clean_exit_one(code, capsys.readouterr(),
                              "class 0 has a negative pixel count -5")
        assert not out.exists()

    def test_margins_with_an_empty_class_is_clean_error(self, tmp_path, capsys):
        """No ``margins`` run writes a class of 0 pixels; a hand-made one is
        refused by ``compute_margins``' rule before any division by N_k."""
        margins_csv = tmp_path / "margins.csv"
        margins_csv.write_text("class_index,n_pixels,p_k,mu_k,rho_0k,rho_k0\n"
                               "0,100,1,0.5,1,0.5\n1,0,0,0.5,1,0.5\n")
        out = tmp_path / "bound.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["bound", "--margins", str(margins_csv), "--m-pixels", "1",
                        "--c-theta", "0.05", "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert_clean_exit_one(code, capsys.readouterr(),
                              "empty class 1: margin-offsets need N_k >= 1")
        assert not out.exists()

    def test_stats_of_another_class_count_is_clean_error(self, tmp_path, capsys):
        stats_csv, margins_csv = tmp_path / "stats.csv", tmp_path / "margins.csv"
        stats_csv.write_text("class_index,n_pixels,p_k\n0,80,0.8\n1,15,0.15\n2,5,0.05\n")
        run_ok(["margins", "--stats", str(stats_csv), "--out", str(margins_csv)])
        capsys.readouterr()
        two_csv = tmp_path / "two.csv"
        two_csv.write_text("class_index,n_pixels,p_k\n0,90,0.9\n1,10,0.1\n")
        out = tmp_path / "bound.csv"
        code = run(["bound", "--margins", str(margins_csv), "--stats", str(two_csv),
                    "--m-pixels", "64", "--out", str(out)])
        assert_clean_exit_one(code, capsys.readouterr(),
                              "margins and stats disagree on the number of classes (3 and 2)")
        assert not out.exists()


class TestSweepCommand:
    def test_single_cell_equals_train_run(self, tmp_path, capsys):
        """Each cell of a two-cell grid equals its own `train` run, so no cell
        reuses another's trained model or margin-offsets."""
        sweep_csv = tmp_path / "sweep.csv"
        run_ok(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "1",
                "--out", str(sweep_csv)] + TAU_SENSITIVE_TRAIN)
        with open(sweep_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tau", "upsilon", "val_miou"]
        assert [r[:2] for r in rows[1:]] == [["5", "1"], ["10", "1"]]
        assert rows[1][2] != rows[2][2], "the grid must be sensitive to tau"
        for row in rows[1:]:
            log_path = tmp_path / f"log_tau{row[0]}.csv"
            run_ok(["train", "--loss", "margin_calibration", "--tau", row[0],
                    "--upsilon", "1", "--log-csv", str(log_path)] + TAU_SENSITIVE_TRAIN)
            assert np.isfinite(float(row[2]))
            with open(log_path) as fh:
                final_val = list(csv.reader(fh))[-1][3]
            assert float(row[2]) == pytest.approx(float(final_val), rel=1e-12)
        capsys.readouterr()

    def test_grid_generates_the_dataset_once(self, tmp_path, capsys, generate_calls):
        run_ok(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "0.5,1",
                "--out", str(tmp_path / "sweep.csv")] + SMALL_TRAIN)
        capsys.readouterr()
        assert sorted((c.seed, c.n_images) for c in generate_calls) == [(3, 8), (4, 4)]

    def test_eval_every_zero_is_usage_error(self, tmp_path, capsys, generate_calls):
        path = tmp_path / "sweep.csv"
        code = run(["sweep", "--tau-grid", "10", "--upsilon-grid", "1",
                    "--out", str(path)] + SMALL_TRAIN + ["--eval-every", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "argument --eval-every: must be positive" in captured.err
        assert generate_calls == [] and not path.exists()

    def test_bad_dataset_fails_once_without_csv(self, tmp_path, capsys):
        """Ratios that do not sum to 1 are bad data for every cell: exit 1."""
        path = tmp_path / "sweep.csv"
        argv = SMALL_TRAIN + ["--k-classes", "2", "--ratios", "0.5,0.4"]
        code = run(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "1",
                    "--out", str(path)] + argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == "error: target_ratios must sum to 1"
        assert not path.exists()

    def test_bad_init_model_fails_once_without_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX")
        path = tmp_path / "sweep.csv"
        code = run(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "1", "--out", str(path),
                    "--init-from", str(bad)] + SMALL_TRAIN)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == "error: not a model file: magic b'XXXX'"
        assert not path.exists()

    def test_init_model_for_other_classes_fails_once_without_csv(self, tmp_path, capsys):
        two_class = tmp_path / "k2.bin"
        save_model(PixelMLP.init(FEATURE_DIM, 8, 2, seed=0), two_class)
        path = tmp_path / "sweep.csv"
        code = run(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "1", "--out", str(path),
                    "--init-from", str(two_class)] + SMALL_TRAIN)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == (
            f"error: --init-from model maps {FEATURE_DIM} features to 2 classes; "
            f"the data has {FEATURE_DIM} and 3")
        assert not path.exists()

    def test_init_model_of_other_hidden_width_fails_once_without_csv(self, tmp_path, capsys):
        init = tmp_path / "h8.bin"
        save_model(PixelMLP.init(FEATURE_DIM, 8, 3, seed=0), init)
        path = tmp_path / "sweep.csv"
        code = run(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "1", "--out", str(path),
                    "--init-from", str(init)] + SMALL_TRAIN + ["--hidden", "32"])
        assert_clean_exit_one(code, capsys.readouterr(),
                              "--init-from model has hidden width 8; --hidden is 32")
        assert not path.exists()

    def test_cells_start_from_the_same_init_model(self, tmp_path, capsys):
        """Two equal cells give equal results, so the second does not start
        from the first cell's trained parameters."""
        init = tmp_path / "init.bin"
        run_ok(["train", "--loss", "cross_entropy", "--out-model", str(init)]
               + TAU_SENSITIVE_TRAIN)
        path = tmp_path / "sweep.csv"
        run_ok(["sweep", "--tau-grid", "5,5", "--upsilon-grid", "1", "--out", str(path),
                "--init-from", str(init)] + TAU_SENSITIVE_TRAIN)
        capsys.readouterr()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == rows[2]

    @pytest.mark.parametrize("flag", ["--tau", "--upsilon"])
    def test_single_offset_flags_are_usage_errors(self, tmp_path, flag, capsys):
        """A sweep takes tau and upsilon only from its grids."""
        path = tmp_path / "sweep.csv"
        code = run(["sweep", "--tau-grid", "5", "--upsilon-grid", "1", "--out", str(path),
                    flag, "999"] + SMALL_TRAIN)
        captured = capsys.readouterr()
        assert code == 2
        assert f"unrecognized arguments: {flag} 999" in captured.err
        assert not path.exists()

    def test_sweep_deterministic(self, tmp_path, capsys):
        outputs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            run_ok(["sweep", "--tau-grid", "5,10", "--upsilon-grid", "1",
                    "--out", str(path)] + SMALL_TRAIN)
            capsys.readouterr()
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_failed_cell_recorded_as_nan(self, tmp_path, capsys):
        """An upsilon small enough to break the mu denominator fails its cell
        but the sweep continues."""
        path = tmp_path / "sweep.csv"
        run_ok(["sweep", "--tau-grid", "10", "--upsilon-grid", "1e-9,1",
                "--out", str(path)] + SMALL_TRAIN)
        capsys.readouterr()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert rows[1][2] == "nan"
        assert rows[2][2] != "nan"
