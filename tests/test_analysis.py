import numpy as np
import pytest

from spikelat.analysis import (
    E_AC_PJ,
    E_MAC_PJ,
    EnergyReport,
    RobustnessReport,
    energy_ann,
    energy_snn,
    model_energy,
    normalized_energy,
    robustness_eval,
    temporal_similarity,
    write_energy_csv,
    write_robustness_csv,
    write_similarity_csv,
    write_similarity_gnuplot,
)
from spikelat.autodiff import Tensor
from spikelat.data import synth_blobs
from spikelat.encoder import latency_encode
from spikelat.errors import ContractError
from spikelat.network import build_model, flops_conv, flops_fc, preset_spec

from helpers import traced_peak


class TestFlopCounts:
    def test_conv_formula(self):
        assert flops_conv(2, 2, 1, 2, 3) == 72
        assert flops_conv(16, 16, 2, 8, 3) == 36864

    def test_fc_formula(self):
        assert flops_fc(256, 20) == 5120


class TestEnergyFormulas:
    def test_constants(self):
        assert E_MAC_PJ == 4.6
        assert E_AC_PJ == 0.9

    def test_ann_energy(self):
        np.testing.assert_allclose(energy_ann([72]), 331.2, rtol=1e-12)
        np.testing.assert_allclose(energy_ann([100, 50]), 690.0, rtol=1e-12)

    def test_snn_energy_two_layer_toy(self):
        got = energy_snn([100, 50], [None, 1.0], timesteps=1)
        np.testing.assert_allclose(got, 4.6 * 100 + 0.9 * 50, rtol=1e-12)
        np.testing.assert_allclose(got, 505.0, rtol=1e-12)

    def test_snn_energy_scales_with_window_and_activity(self):
        base = energy_snn([100, 50], [None, 0.5], timesteps=2)
        np.testing.assert_allclose(base, 4.6 * 100 + 0.9 * 2 * 0.5 * 50,
                                   rtol=1e-12)
        assert energy_snn([100, 50], [None, 0.25], 2) < base
        assert energy_snn([100, 50], [None, 0.5], 4) > base

    def test_snn_rejects_misaligned_inputs(self):
        with pytest.raises(ContractError):
            energy_snn([100], [None, 1.0], 1)
        with pytest.raises(ContractError):
            energy_snn([100], [-0.1], 1)
        with pytest.raises(ContractError):
            energy_snn([100], [None], 0)


class TestNormalizedEnergy:
    def test_static_heavy_platform(self):
        got = normalized_energy(1.31, 6.3, 680.0, 6.9, platform="truenorth")
        expect = 0.6 * 1.31 / 680.0 + 0.4 * 6.3 / 6.9
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        assert abs(got - 0.366) < 5e-4

    def test_dynamic_heavy_platform(self):
        got = normalized_energy(1.31, 5.3, 680.0, 6.9, platform="spinnaker")
        expect = 0.36 * 1.31 / 680.0 + 0.64 * 5.3 / 6.9
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        assert abs(got - 0.492) < 5e-4

    def test_identity_baseline_is_one(self):
        np.testing.assert_allclose(
            normalized_energy(8, 100, 8, 100, platform="truenorth"), 1.0,
            rtol=1e-12)

    def test_explicit_shares_and_errors(self):
        with pytest.raises(ContractError):
            normalized_energy(1, 1, 1, 1, platform="loihi")
        with pytest.raises(ContractError):
            normalized_energy(1, 1, 0, 1)


class TestModelEnergy:
    def setup_method(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4, timesteps=8)
        self.model = build_model(spec, seed=0)
        rng = np.random.default_rng(0)
        imgs = Tensor(rng.uniform(0, 1, size=(8, 1, 16, 16)))
        self.record = self.model.forward(imgs, training=False)

    def test_layer_rows_and_totals(self):
        rep = model_energy(self.model, self.record)
        names = [r.name for r in rep.rows]
        assert names == ["enc", "s0", "s2", "out"]
        assert rep.rows[0].alpha_in is None
        assert rep.rows[0].energy_pj == E_MAC_PJ * rep.rows[0].flops
        for r in rep.rows[1:]:
            np.testing.assert_allclose(r.sops_per_step,
                                       r.alpha_in * r.flops, rtol=1e-12)
            np.testing.assert_allclose(
                r.energy_pj, E_AC_PJ * rep.timesteps * r.sops_per_step,
                rtol=1e-12)
        np.testing.assert_allclose(rep.snn_pj,
                                   sum(r.energy_pj for r in rep.rows),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            rep.ann_pj, E_MAC_PJ * sum(r.flops for r in rep.rows), rtol=1e-12)

    def test_total_is_energy_snn_over_the_rows(self):
        # a sum re-derived row by row drifts from energy_snn in the last
        # digit for this model (77820.15937499999 against 77820.159375)
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=10, timesteps=8)
        model = build_model(spec, seed=8)
        imgs = np.random.default_rng(8).uniform(size=(16, 1, 16, 16))
        rep = model_energy(model, model.forward(Tensor(imgs)))
        assert rep.snn_pj == energy_snn([r.flops for r in rep.rows],
                                        [r.alpha_in for r in rep.rows], 8)
        assert rep.ann_pj == energy_ann([r.flops for r in rep.rows])

    def test_binary_layers_respect_sops_bound(self):
        rep = model_energy(self.model, self.record)
        for r in rep.rows[1:]:
            if r.source_kind != "sew":
                assert r.sops_per_step <= r.flops + 1e-9

    def test_sew_activity_can_exceed_one(self):
        spec = preset_spec("sew-mini", (1, 16, 16), classes=4, timesteps=8)
        model = build_model(spec, seed=1)
        rng = np.random.default_rng(1)
        rec = model.forward(Tensor(rng.uniform(0, 1, (8, 1, 16, 16))),
                            training=False)
        alphas = rec.stage_alpha()
        assert "s3" in alphas
        rep = model_energy(model, rec)
        out_row = [r for r in rep.rows if r.name == "out"][0]
        assert out_row.source_kind == "sew"

    def test_energy_csv_layout(self, tmp_path):
        rep = model_energy(self.model, self.record)
        p = tmp_path / "energy.csv"
        write_energy_csv(p, rep)
        lines = p.read_text().splitlines()
        assert lines[0] == "layer,kind,flops,alpha_in,sops_per_step,energy_pj"
        assert lines[-2].startswith("total_ann")
        assert lines[-1].startswith("total_snn")
        assert len(lines) == 1 + len(rep.rows) + 2


class TestTemporalSimilarity:
    def test_half_overlap_pair(self):
        t1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        t2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = temporal_similarity([t1, t2])
        np.testing.assert_allclose(m, [[1.0, 0.5], [0.5, 1.0]], rtol=1e-12)
        assert m[0, 1] == 0.5

    def test_diagonal_is_exactly_one_for_active_vectors(self):
        rng = np.random.default_rng(0)
        frames = [rng.uniform(0.1, 1.0, size=(5, 17)) for _ in range(4)]
        m = temporal_similarity(frames)
        assert np.all(np.diag(m) == 1.0)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        frames = [rng.normal(size=(6, 9)) for _ in range(5)]
        m = temporal_similarity(frames)
        np.testing.assert_array_equal(m, m.T)

    def test_zero_frames_contribute_zero(self):
        t1 = np.zeros((2, 4))
        t2 = np.ones((2, 4))
        m = temporal_similarity([t1, t2])
        assert m[0, 0] == 0.0
        assert m[0, 1] == 0.0
        assert m[1, 1] == 1.0

    def test_latency_encoded_frames_give_identity(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.uniform(0, 1, size=(6, 200)))
        frames = [s.data for s in latency_encode(f, 4)]
        m = temporal_similarity(frames)
        np.testing.assert_array_equal(m, np.eye(4))

    def test_bounded_for_nonnegative_activity(self):
        rng = np.random.default_rng(3)
        frames = [(rng.random((4, 30)) < 0.3).astype(float) for _ in range(6)]
        m = temporal_similarity(frames)
        assert np.all(m >= 0.0)
        assert np.all(m <= 1.0)

    def test_spike_bytes_give_the_float64_matrix_bitwise_without_a_float64_copy(self):
        # s0's frames for 64 digits; dots reach 4 * 2048, beyond a byte
        frames = np.random.default_rng(5).integers(0, 3, size=(4, 64, 8, 16, 16), dtype=np.uint8)
        got, peak = traced_peak(temporal_similarity, frames)
        assert np.array_equal(got, temporal_similarity(frames.astype(np.float64)))
        assert peak < frames.size * 8 / 4, peak

    @pytest.mark.parametrize("shape", [(0, 2, 3), (3, 0, 4), (3,)])
    def test_rejects_frames_without_steps_or_samples(self, shape):
        with pytest.raises(ContractError, match=r"\(T, N, \.\.\.\) frames"):
            temporal_similarity(np.zeros(shape))

    def test_accepts_multichannel_frames(self):
        rng = np.random.default_rng(4)
        frames = [rng.random((3, 2, 5, 5)) for _ in range(3)]
        m = temporal_similarity(frames)
        assert m.shape == (3, 3)

    def test_similarity_csv_layout(self, tmp_path):
        m = np.array([[1.0, 0.25], [0.25, 1.0]])
        p = tmp_path / "sim.csv"
        write_similarity_csv(p, m)
        lines = p.read_text().splitlines()
        assert lines[0] == "step,1,2"
        assert lines[1] == "1,1,0.25"

    def test_gnuplot_files(self, tmp_path):
        m = np.eye(3)
        dat, gp = tmp_path / "sim.dat", tmp_path / "sim.gp"
        write_similarity_gnuplot(dat, gp, m)
        assert "matrix with image" in gp.read_text()
        assert len(dat.read_text().splitlines()) == 3


class TestRobustness:
    def setup_method(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=4,
                           hidden=16)
        self.model = build_model(spec, seed=0)
        self.ds = synth_blobs(45, classes=3, seed=0)

    def test_cell_grid_and_mce(self):
        rep = robustness_eval(self.model, self.ds, batch_size=32, seed=1)
        assert len(rep.cells) == 25
        for (kind, sev), err in rep.cells.items():
            assert 0.0 <= err <= 1.0
            assert 1 <= sev <= 5
        np.testing.assert_allclose(rep.mce,
                                   np.mean(list(rep.cells.values())),
                                   rtol=1e-12)
        assert 0.0 <= rep.clean_error <= 1.0

    def test_deterministic_across_runs(self):
        a = robustness_eval(self.model, self.ds, batch_size=32, seed=2)
        b = robustness_eval(self.model, self.ds, batch_size=32, seed=2)
        assert a.cells == b.cells
        assert a.mce == b.mce

    def test_predict_fn_replaces_model(self):
        # A constant predictor is immune to corruption, so every cell's
        # error equals the clean error: the fraction of labels != 0.
        rep = robustness_eval(None, self.ds, seed=5,
                              predict_fn=lambda imgs: np.zeros(len(imgs), int))
        want = float((self.ds.labels != 0).mean())
        assert rep.clean_error == want
        for err in rep.cells.values():
            assert err == want

    def test_robustness_csv_layout(self, tmp_path):
        rep = RobustnessReport(
            clean_error=0.1,
            cells={("gaussian", 1): 0.2, ("gaussian", 2): 0.3},
            mce=0.25,
        )
        p = tmp_path / "rob.csv"
        write_robustness_csv(p, rep)
        lines = p.read_text().splitlines()
        assert lines[0] == "corruption,severity,error_rate"
        assert lines[1] == "clean,0,0.1"
        assert lines[-1] == "mce,,0.25"
