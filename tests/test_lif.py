import numpy as np
import pytest

from spikelat.autodiff import Tensor
from spikelat.errors import ContractError
from spikelat.lif import LifConfig, lif_unroll

from helpers import manual_bptt, rel_err, tape_lif_unroll


class TestDynamics:
    def test_constant_drive_three_steps(self):
        cfg = LifConfig()
        currents = [Tensor([0.6]) for _ in range(3)]
        trace = lif_unroll(currents, cfg)
        got_u = [float(p.data[0]) for p in trace.potentials]
        np.testing.assert_allclose(got_u, [0.6, 0.9, 1.05], rtol=1e-12)
        got_s = [float(s.data[0]) for s in trace.spikes]
        assert got_s == [0.0, 0.0, 1.0]
        np.testing.assert_allclose(trace.final.data, [0.05], rtol=1e-10)

    def test_fires_exactly_at_threshold(self):
        cfg = LifConfig()
        trace = lif_unroll([Tensor([1.0])], cfg)
        assert trace.spikes.data[0, 0] == 1.0
        assert trace.final.data[0] == 0.0

    def test_soft_reset_subtracts_threshold_only_from_spikers(self):
        cfg = LifConfig(v_th=1.0)
        trace = lif_unroll([Tensor([1.3, 0.7])], cfg)
        np.testing.assert_allclose(trace.spikes.data[0], [1.0, 0.0])
        np.testing.assert_allclose(trace.final.data, [0.3, 0.7], rtol=1e-12)

    def test_spikes_are_binary(self):
        rng = np.random.default_rng(0)
        cfg = LifConfig()
        trace = lif_unroll([Tensor(rng.normal(size=(4, 5))) for _ in range(6)], cfg)
        for s in trace.spikes:
            assert set(np.unique(s.data)) <= {0.0, 1.0}

    def test_zero_leak_forgets_history(self):
        cfg = LifConfig(tau_leak=0.0)
        trace = lif_unroll([Tensor([0.9]), Tensor([0.4])], cfg)
        np.testing.assert_allclose(trace.potentials[1].data, [0.4])

    def test_spike_count_accumulates(self):
        cfg = LifConfig()
        trace = lif_unroll([Tensor([1.0, 0.2]) for _ in range(4)], cfg)
        np.testing.assert_allclose(sum(s.data for s in trace.spikes), [4.0, 0.0])

    def test_rejects_bad_config(self):
        with pytest.raises(ContractError):
            LifConfig(tau_leak=1.5)
        with pytest.raises(ContractError):
            LifConfig(v_th=0.0)
        with pytest.raises(ContractError):
            LifConfig(surrogate_width=-1.0)
        with pytest.raises(ContractError):
            lif_unroll([], LifConfig())
        with pytest.raises(ContractError):
            lif_unroll(Tensor(np.zeros((0, 3))), LifConfig())


class TestSurrogateGradient:
    """From rest, a one-step run fires on its current and hands back the
    boxcar window as its gradient: there is no later step to reset."""

    @staticmethod
    def one_step(values, cfg):
        u = Tensor([values])
        lif_unroll(u, cfg).spikes.sum().backward()
        return u

    def test_window_height_and_support(self):
        cfg = LifConfig(v_th=1.0, surrogate_width=1.0)
        u = self.one_step([0.2, 0.5, 0.999, 1.0, 1.5, 1.501, 2.0], cfg)
        np.testing.assert_allclose(u.grad[0], [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_window_scales_with_width(self):
        cfg = LifConfig(v_th=1.0, surrogate_width=0.5)
        u = self.one_step([0.74, 0.75, 1.0, 1.25, 1.26], cfg)
        np.testing.assert_allclose(u.grad[0], [0.0, 2.0, 2.0, 2.0, 0.0])

    def test_forward_value_unaffected_by_width(self):
        for w in (0.25, 1.0, 4.0):
            cfg = LifConfig(surrogate_width=w)
            s = lif_unroll(Tensor([[0.9, 1.1]]), cfg).spikes
            np.testing.assert_allclose(s.data[0], [0.0, 1.0])


class TestBackpropThroughTime:
    def tape_grads(self, currents, a, b, cfg):
        ts = [Tensor([c]) for c in currents]
        trace = lif_unroll(ts, cfg)
        loss = trace.final * b
        for t, s in enumerate(trace.spikes):
            loss = loss + s * a[t]
        loss.sum().backward()
        return [float(t.grad[0]) for t in ts], trace

    def test_matches_manual_adjoint(self):
        cfg = LifConfig()
        rng = np.random.default_rng(1)
        for _ in range(20):
            T = int(rng.integers(2, 8))
            currents = list(rng.uniform(-0.2, 1.2, size=T))
            a = list(rng.normal(size=T))
            b = float(rng.normal())
            got, trace = self.tape_grads(currents, a, b, cfg)
            s_ref, u_ref, dI_ref = manual_bptt(currents, a, b, cfg)
            np.testing.assert_allclose(
                [float(s.data[0]) for s in trace.spikes], s_ref
            )
            np.testing.assert_allclose(
                [float(p.data[0]) for p in trace.potentials], u_ref, rtol=1e-12
            )
            assert rel_err(got, dI_ref) < 1e-10

    def test_matches_manual_adjoint_with_detached_reset(self):
        cfg = LifConfig(detach_reset=True)
        rng = np.random.default_rng(2)
        for _ in range(20):
            T = int(rng.integers(2, 8))
            currents = list(rng.uniform(-0.2, 1.2, size=T))
            a = list(rng.normal(size=T))
            b = float(rng.normal())
            got, _ = self.tape_grads(currents, a, b, cfg)
            _, _, dI_ref = manual_bptt(currents, a, b, cfg)
            assert rel_err(got, dI_ref) < 1e-10

    def test_reset_path_changes_gradient(self):
        # a spiking step above threshold: the soft reset feeds gradient back
        currents, a, b = [1.2, 0.6], [0.0, 0.0], 1.0
        attached, _ = self.tape_grads(currents, a, b, LifConfig())
        detached, _ = self.tape_grads(currents, a, b, LifConfig(detach_reset=True))
        assert attached != detached

    def test_gradient_reaches_all_timesteps(self):
        # sub-window drive keeps 1 - v_th/width factors away from zero
        cfg = LifConfig()
        ts = [Tensor([0.2]) for _ in range(5)]
        trace = lif_unroll(ts, cfg)
        (trace.final * 1.0).sum().backward()
        for t in ts:
            assert t.grad is not None
            assert abs(t.grad[0]) > 0.0

    def test_batched_unroll_gradients_match_scalar_runs(self):
        cfg = LifConfig()
        rng = np.random.default_rng(3)
        T, N = 4, 3
        cur = rng.uniform(0.0, 1.2, size=(T, N))
        batch = [Tensor(cur[t]) for t in range(T)]
        trace = lif_unroll(batch, cfg)
        total = trace.final.sum()
        for s in trace.spikes:
            total = total + s.sum()
        total.backward()
        for n in range(N):
            _, _, dI_ref = manual_bptt(list(cur[:, n]), [1.0] * T, 1.0, cfg)
            got = [float(batch[t].grad[n]) for t in range(T)]
            assert rel_err(got, dI_ref) < 1e-10


class TestFusedNodeMatchesPerStepTape:
    """The fused node against a tape built step by step from helpers.spike()."""

    @pytest.mark.parametrize("detach", [False, True])
    @pytest.mark.parametrize("outputs", ["spikes", "potentials", "final", "all"])
    def test_values_bitwise_and_gradients(self, detach, outputs):
        cfg = LifConfig(detach_reset=detach)
        rng = np.random.default_rng(4 + detach)
        cur = rng.normal(loc=0.6, scale=0.6, size=(5, 3, 2, 4, 4))
        proj = {k: rng.normal(size=cur.shape) for k in ("spikes", "potentials")}
        proj["final"] = rng.normal(size=cur.shape[1:])
        used = ("spikes", "potentials", "final") if outputs == "all" else (outputs,)

        block = Tensor(cur)
        trace = lif_unroll(block, cfg)
        got = {"spikes": trace.spikes, "potentials": trace.potentials,
               "final": trace.final}
        loss = sum((got[k] * Tensor(proj[k])).sum() for k in used)
        loss.backward()

        steps = [Tensor(c) for c in cur]
        spikes, pots, final = tape_lif_unroll(steps, cfg)
        ref = {"spikes": spikes, "potentials": pots, "final": [final]}
        loss = 0.0
        for k in used:
            w = proj[k] if k != "final" else [proj[k]]
            for x, wx in zip(ref[k], w):
                loss = (x * Tensor(wx)).sum() + loss
        loss.backward()

        assert np.array_equal(trace.spikes.data, np.stack([s.data for s in spikes]))
        assert np.array_equal(trace.potentials.data, np.stack([u.data for u in pots]))
        assert np.array_equal(trace.final.data, final.data)
        want = np.stack([s.grad for s in steps])
        assert np.any(want != 0.0)
        assert rel_err(block.grad, want) < 1e-12

    def test_list_input_is_stacked(self):
        rng = np.random.default_rng(6)
        cur = rng.normal(loc=0.6, size=(4, 5))
        a = lif_unroll([Tensor(c) for c in cur], LifConfig())
        b = lif_unroll(Tensor(cur), LifConfig())
        assert np.array_equal(a.spikes.data, b.spikes.data)
        assert len(a.spikes) == a.steps == 4

    def test_graph_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        gc.disable()
        try:
            cur = Tensor(np.random.default_rng(7).normal(loc=0.8, size=(3, 4)))
            trace = lif_unroll(cur, LifConfig())
            (trace.potentials.sum() + trace.final.sum()).backward()
            arrays = [weakref.ref(t.data) for t in
                      (trace.spikes, trace.potentials, trace.final)]
            del trace
            assert all(r() is None for r in arrays)
        finally:
            gc.enable()
