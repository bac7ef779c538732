import struct

import numpy as np
import pytest

from spikelat.cli import main
from spikelat.data import save_idx, synth_digits


def fast_args(extra=()):
    base = [
        "--set", "data.train_count=96",
        "--set", "data.eval_count=48",
        "--set", "data.classes=3",
        "--set", "model.timesteps=4",
        "--set", "model.hidden=24",
        "--set", "train.epochs=2",
        "--set", "train.batch_size=32",
        "--set", "train.lr=0.01",
    ]
    return base + list(extra)


def run_train(tmp_path, name="run", extra=()):
    out = tmp_path / name
    code = main(["train", "--out", str(out)] + fast_args(extra))
    assert code == 0
    return out


class TestTrainCommand:
    def test_writes_run_artifacts(self, tmp_path, capsys):
        out = run_train(tmp_path)
        assert (out / "config.txt").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "model.ckpt").exists()
        text = capsys.readouterr().out
        assert "final accuracy" in text
        assert "run_dir" in text

    def test_snapshot_records_overrides(self, tmp_path):
        out = run_train(tmp_path)
        assert "train.epochs = 2" in (out / "config.txt").read_text()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a = run_train(tmp_path, "a")
        b = run_train(tmp_path, "b")
        for name in ("config.txt", "metrics.csv", "model.ckpt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestEvalCommand:
    def test_scores_checkpoint(self, tmp_path, capsys):
        out = run_train(tmp_path)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.ckpt")]
                    + fast_args())
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy" in text
        assert "mean_exit" in text
        assert "fallback_rate" in text

    def test_rate_decode_mode(self, tmp_path, capsys):
        out = run_train(tmp_path)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.ckpt")]
                    + fast_args(["--set", "decode.mode=rate"]))
        assert code == 0
        assert "mean_exit 4" in capsys.readouterr().out

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")]
                    + fast_args())
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_name_is_runtime_error(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"SPKL" + struct.pack("<III", 1, 1, 2) + b"\xff\xfe")
        code = main(["eval", "--checkpoint", str(ckpt)] + fast_args())
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_checkpoint_with_overflowing_dims_is_runtime_error(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"SPKL" + struct.pack("<IIIsI", 1, 1, 1, b"w", 2)
                         + struct.pack("<2Q", 2**32, 2**32))
        code = main(["eval", "--checkpoint", str(ckpt)] + fast_args())
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "implausible size" in err


class TestAnalyzeCommand:
    def test_writes_reports(self, tmp_path, capsys):
        out = run_train(tmp_path)
        capsys.readouterr()
        rep = tmp_path / "reports"
        code = main([
            "analyze", "--checkpoint", str(out / "model.ckpt"),
            "--out", str(rep),
        ] + fast_args(["--set", "analyze.batch=32"]))
        assert code == 0
        assert (rep / "energy.csv").exists()
        assert (rep / "similarity_enc.csv").exists()
        assert (rep / "similarity_out.csv").exists()
        assert (rep / "robustness.csv").exists()
        assert (rep / "robustness.gp").exists()
        text = capsys.readouterr().out
        assert "energy_ratio" in text
        assert "mce" in text

    def test_robustness_can_be_disabled(self, tmp_path, capsys):
        out = run_train(tmp_path)
        capsys.readouterr()
        rep = tmp_path / "reports2"
        code = main([
            "analyze", "--checkpoint", str(out / "model.ckpt"),
            "--out", str(rep),
        ] + fast_args(["--set", "analyze.robustness=false"]))
        assert code == 0
        assert not (rep / "robustness.csv").exists()
        assert "mce" not in capsys.readouterr().out

    def test_tiebreak_setting_changes_no_output(self, tmp_path, capsys):
        ckpt = str(run_train(tmp_path) / "model.ckpt")
        capsys.readouterr()
        outputs = []
        for tiebreak in ("spikers", "all"):
            rep = tmp_path / tiebreak
            extra = fast_args(["--set", f"decode.tiebreak={tiebreak}"])
            assert main(["eval", "--checkpoint", ckpt] + extra) == 0
            assert main(["analyze", "--checkpoint", ckpt, "--out", str(rep)]
                        + extra) == 0
            stdout = capsys.readouterr().out.replace(str(rep), "<out>")
            outputs.append((stdout, {f.name: f.read_bytes() for f in rep.iterdir()}))
        assert "robustness.csv" in outputs[0][1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("batch", [-40, 0])
    def test_batch_below_one_is_runtime_error(self, tmp_path, capsys, batch):
        out = run_train(tmp_path)
        capsys.readouterr()
        code = main([
            "analyze", "--checkpoint", str(out / "model.ckpt"),
            "--out", str(tmp_path / "reports"),
        ] + fast_args(["--set", f"analyze.batch={batch}"]))
        assert code == 3
        assert "error: analyze.batch must be >= 1" in capsys.readouterr().err


class TestEncodeDemo:
    def test_prints_grid_and_counts(self, capsys):
        code = main(["encode-demo"] + fast_args())
        assert code == 0
        text = capsys.readouterr().out
        assert "spike step per pixel" in text
        assert "step 1:" in text
        assert "total 64 spikes for 64 pixels" in text

    def test_deterministic_output(self, capsys):
        main(["encode-demo"] + fast_args())
        a = capsys.readouterr().out
        main(["encode-demo"] + fast_args())
        b = capsys.readouterr().out
        assert a == b

    def test_bad_index(self, capsys):
        code = main(["encode-demo", "--index", "99999"] + fast_args())
        assert code == 3


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    assert main(["train", "--out", str(out)] + fast_args()) == 0
    return str(out / "model.ckpt")


class TestErrorPaths:
    @pytest.mark.parametrize("command, settings, message", [
        ("train", "data.train_count=-1", "count must be >= 0, got -1"),
        ("train", "data.eval_count=-1", "count must be >= 0, got -1"),
        ("train", "data.train_count=0",
         "training needs at least one train and one eval image, got 0 and 48"),
        ("train", "data.eval_count=0",
         "training needs at least one train and one eval image, got 96 and 0"),
        ("train", "data.label_noise=-0.5", "label_noise must be in [0, 1], got -0.5"),
        ("train", "data.label_noise=1.5", "label_noise must be in [0, 1], got 1.5"),
        ("train", "data.size=-3", "size must be >= 1, got -3"),
        ("train", "data.size=0", "size must be >= 1, got 0"),
        ("analyze", "data.size=-3", "size must be >= 1, got -3"),
        ("train", "data.train_count=100000000000",
         "count must be <= 1000000, got 100000000000"),
        ("train", "data.eval_count=100000000000",
         "count must be <= 1000000, got 100000000000"),
        ("eval", "data.eval_count=-1", "count must be >= 0, got -1"),
        ("eval", "data.eval_count=0", "the eval split holds no images"),
        ("analyze", "data.eval_count=0", "the eval split holds no images"),
        ("train", "data.noise=-0.5", "noise must be >= 0, got -0.5"),
        ("train", "data.source=digits data.noise=-0.5", "noise must be >= 0"),
        ("train", "data.jitter=-1", "jitter must be >= 0, got -1"),
        ("train", "data.seed=-1", "seed must be >= 0, got -1"),
        ("train", "model.seed=-1", "model seed must be >= 0, got -1"),
        ("train", "train.seed=-2", "batch order seed must be >= 0"),
        ("train", "train.seed=-1", "batch order seed must be >= 0, got -1"),
        ("train", "train.lr=0", "lr must be positive"),
        ("train", "train.tau=0", "tau must be positive, got 0.0"),
        ("analyze", "analyze.seed=-1000", "corruption seed must be >= 0"),
        ("train", "model.hidden=0", "hidden must be in [1, 4096], got 0"),
        ("train", "model.hidden=5000", "hidden must be in [1, 4096], got 5000"),
        ("train", "model.preset=vgg-mini model.width=0",
         "width must be in [1, 2048], got 0"),
        ("train", "model.preset=vgg-mini model.width=-2",
         "width must be in [1, 2048], got -2"),
        ("train", "model.preset=sew-mini model.width=-2",
         "width must be in [1, 2048], got -2"),
        ("train", "model.preset=vgg-mini model.width=4096",
         "width must be in [1, 2048], got 4096"),
        ("train", "model.preset=sew-mini model.width=2049",
         "width must be in [1, 2048], got 2049"),
        ("train", "model.timesteps=1000000000",
         "timesteps must be in [1, 1024], got 1000000000"),
        ("train", "model.hidden=100000000000",
         "hidden must be in [1, 4096], got 100000000000"),
        ("train", "model.preset=vgg-mini model.width=100000000000",
         "width must be in [1, 2048], got 100000000000"),
        ("train", "model.encoder_channels=100000000000",
         "encoder_channels must be in [1, 4096], got 100000000000"),
        ("encode-demo", "model.timesteps=10000000",
         "timesteps must be in [1, 1024], got 10000000"),
    ])
    def test_bad_numeric_setting_is_runtime_error(self, tmp_path, capsys, request,
                                                  command, settings, message):
        if command == "train":
            args = ["train", "--out", str(tmp_path / "run")]
        elif command == "eval":
            args = ["eval", "--checkpoint", str(tmp_path / "none.ckpt")]
        elif command == "encode-demo":
            args = ["encode-demo"]
        else:
            args = ["analyze", "--checkpoint",
                    request.getfixturevalue("trained_checkpoint"),
                    "--out", str(tmp_path / "reports")]
        extra = [arg for kv in settings.split() for arg in ("--set", kv)]
        capsys.readouterr()
        assert main(args + fast_args(extra)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        if command == "train":
            # every setting is checked before the run directory is made
            assert not (tmp_path / "run").exists()
        if command == "encode-demo":
            assert captured.out == ""
        if command == "analyze":
            # a failing analyze prints no report line and writes no file
            assert captured.out == ""
            assert not (tmp_path / "reports").exists()

    def test_bad_set_key_is_usage_error(self, capsys):
        code = main(["train", "--set", "zzz=1"])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["train.lr", "train.tau", "train.weight_decay",
                                     "lif.v_th", "lif.surrogate_width", "lif.tau_leak",
                                     "data.noise"])
    def test_nonfinite_float_setting_is_usage_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "run"
        code = main(["train", "--out", str(out)] + fast_args(["--set", f"{key}={value}"]))
        assert code == 2
        assert f"{key} expects a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("train.epochs = soon\n")
        code = main(["train", "--config", str(p)])
        assert code == 2

    def test_missing_config_file_is_usage_error(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "none.cfg")])
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_idx_source_requires_paths(self, capsys):
        code = main(["train", "--set", "data.source=idx"])
        assert code == 3
        assert "data.train_images" in capsys.readouterr().err


class TestIdxPipeline:
    def test_train_from_idx_files(self, tmp_path, capsys):
        ds = synth_digits(120, seed=0)
        ev = synth_digits(40, seed=1)
        save_idx(ds, tmp_path / "tr-i.idx", tmp_path / "tr-l.idx")
        save_idx(ev, tmp_path / "ev-i.idx", tmp_path / "ev-l.idx")
        out = tmp_path / "run"
        code = main([
            "train", "--out", str(out),
            "--set", "data.source=idx",
            "--set", f"data.train_images={tmp_path / 'tr-i.idx'}",
            "--set", f"data.train_labels={tmp_path / 'tr-l.idx'}",
            "--set", f"data.eval_images={tmp_path / 'ev-i.idx'}",
            "--set", f"data.eval_labels={tmp_path / 'ev-l.idx'}",
            "--set", "model.preset=vgg-mini",
            "--set", "model.width=4",
            "--set", "model.timesteps=4",
            "--set", "train.epochs=1",
            "--set", "train.batch_size=40",
            "--set", "train.lr=0.01",
        ])
        assert code == 0
        assert (out / "model.ckpt").exists()
