import pytest

from spikelat.config import load_config, snapshot
from spikelat.errors import FormatError


class TestDefaults:
    def test_loads_without_file(self):
        cfg = load_config()
        assert cfg["model.preset"] == "mlp-mini"
        assert cfg["train.lr"] == 0.001
        assert cfg["train.detach_weights"] is True
        assert cfg["lif.tau_leak"] == 0.5
        assert cfg["model.timesteps"] == 8

    def test_unknown_key_lookup_raises(self):
        with pytest.raises(KeyError):
            load_config()["nonexistent.key"]


class TestFileParsing:
    def test_pairs_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# a comment\n"
            "\n"
            "train.epochs = 9\n"
            "model.preset=vgg-mini   # inline comment\n"
            "   lif.v_th   =   1.5\n"
        )
        cfg = load_config(p)
        assert cfg["train.epochs"] == 9
        assert cfg["model.preset"] == "vgg-mini"
        assert cfg["lif.v_th"] == 1.5
        assert cfg["train.lr"] == 0.001

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = 2\ntrain.momentum = 0.9\n")
        with pytest.raises(FormatError, match="line 2.*train.momentum"):
            load_config(p)

    def test_missing_equals_reports_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs 2\n")
        with pytest.raises(FormatError, match="line 1"):
            load_config(p)

    def test_type_errors_report_location(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = soon\n")
        with pytest.raises(FormatError, match="integer"):
            load_config(p)
        p.write_text("train.lr = fast\n")
        with pytest.raises(FormatError, match="number"):
            load_config(p)
        p.write_text("lif.detach_reset = perhaps\n")
        with pytest.raises(FormatError, match="boolean"):
            load_config(p)

    def test_choice_violation(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.loss = hinge\n")
        with pytest.raises(FormatError, match="one of"):
            load_config(p)

    def test_boolean_spellings(self, tmp_path):
        p = tmp_path / "run.cfg"
        for raw, expect in [("true", True), ("YES", True), ("1", True),
                            ("off", False), ("0", False), ("No", False)]:
            p.write_text(f"analyze.robustness = {raw}\n")
            assert load_config(p)["analyze.robustness"] is expect


class TestOverrides:
    def test_set_wins_over_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = 3\n")
        cfg = load_config(p, overrides=["train.epochs=7"])
        assert cfg["train.epochs"] == 7

    def test_later_override_wins(self):
        cfg = load_config(overrides=["train.lr=0.1", "train.lr=0.2"])
        assert cfg["train.lr"] == 0.2

    def test_bad_override_forms(self):
        with pytest.raises(FormatError, match="--set #1"):
            load_config(overrides=["train.epochs"])
        with pytest.raises(FormatError, match="unknown key"):
            load_config(overrides=["nope=1"])


class TestSnapshot:
    def test_roundtrip_equality(self, tmp_path):
        cfg = load_config(overrides=[
            "train.lr=0.0125", "model.preset=sew-mini",
            "lif.detach_reset=true", "data.noise=0.07",
        ])
        p = tmp_path / "snap.cfg"
        p.write_text(snapshot(cfg))
        again = load_config(p)
        assert again == cfg

    def test_snapshot_bytes_are_stable(self):
        a = snapshot(load_config(overrides=["train.lr=0.5"]))
        b = snapshot(load_config(overrides=["train.lr=0.5"]))
        assert a == b

    def test_sorted_and_complete(self):
        text = snapshot(load_config())
        lines = [l for l in text.splitlines() if l]
        keys = [l.split(" = ")[0] for l in lines]
        assert keys == sorted(keys)
        assert "train.lr = 0.001" in lines
        assert "train.detach_weights = true" in lines


class TestPinnedRegistry:
    """The registry's keys, defaults and choice lists, written out once by hand."""

    DEFAULTS = (
        "analyze.batch = 64",
        "analyze.robustness = true",
        "analyze.seed = 0",
        "data.classes = 4",
        "data.eval_count = 128",
        "data.eval_images = ",
        "data.eval_labels = ",
        "data.jitter = 0.5",
        "data.label_noise = 0.0",
        "data.noise = 0.1",
        "data.seed = 0",
        "data.size = 8",
        "data.source = blobs",
        "data.train_count = 512",
        "data.train_images = ",
        "data.train_labels = ",
        "decode.mode = first",
        "decode.tiebreak = spikers",
        "lif.detach_reset = false",
        "lif.surrogate_width = 1.0",
        "lif.tau_leak = 0.5",
        "lif.v_th = 1.0",
        "model.encoder_channels = 2",
        "model.hidden = 128",
        "model.preset = mlp-mini",
        "model.seed = 0",
        "model.timesteps = 8",
        "model.width = 8",
        "train.batch_size = 64",
        "train.detach_weights = true",
        "train.epochs = 5",
        "train.loss = tad",
        "train.lr = 0.001",
        "train.seed = 0",
        "train.tau = 2.0",
        "train.weight_decay = 0.01",
    )

    def test_default_snapshot(self):
        assert snapshot(load_config()) == "\n".join(self.DEFAULTS) + "\n"

    @pytest.mark.parametrize("key, choices", [
        ("model.preset", "['mlp-mini', 'vgg-mini', 'sew-mini']"),
        ("train.loss", "['tad', 'vanilla']"),
        ("decode.tiebreak", "['spikers', 'all']"),
        ("decode.mode", "['first', 'rate']"),
    ])
    def test_choice_error_lists_the_choices_in_order(self, key, choices):
        with pytest.raises(FormatError) as e:
            load_config(overrides=[f"{key}=zz"])
        assert str(e.value) == f"--set #1: {key} must be one of {choices}, got 'zz'"
