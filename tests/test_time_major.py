"""Every time series enters as one time-major (T, N, ...) tensor or array:
a list of per-step tensors is refused with an error naming the block."""
import numpy as np
import pytest

from spikelat.autodiff import Tensor
from spikelat.decoder import decode_batch, rate_decode
from spikelat.errors import SpikelatError
from spikelat.lif import LifConfig, lif_unroll
from spikelat.loss import tad_loss, vanilla_loss

LABELS = np.array([0, 1])

CALLS = {
    "lif_unroll": lambda steps: lif_unroll(steps, LifConfig()),
    "tad_loss": lambda steps: tad_loss(steps, LABELS),
    "vanilla_loss": lambda steps: vanilla_loss(steps, LABELS),
    "decode_batch": lambda steps: decode_batch(steps, steps),
    "rate_decode": rate_decode,
}


@pytest.mark.parametrize("name", CALLS)
def test_step_list_is_refused(name):
    steps = [Tensor(np.full((2, 3), 0.5 * t)) for t in range(4)]
    with pytest.raises(SpikelatError, match=r"\(T, "):
        CALLS[name](steps)
    CALLS[name](Tensor(np.stack([s.data for s in steps])))   # the block is taken
