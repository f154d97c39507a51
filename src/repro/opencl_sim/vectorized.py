"""The vectorized fast-path executor: cache-blocked whole-launch gathers.

Dedispersion is a pure gather-accumulate (Barsdell et al. 2012; Sclocco
et al. 2016): every output element reads one sample per channel at a
per-(DM, channel) shift and sums them.  The tiled executor replays that
as Python loops over work-groups x channels x tile rows; this module
computes *all* work-groups of a launch at once with whole-array NumPy
operations:

* a zero-copy sliding-window view exposes every possible shifted read
  of a channel as rows of a ``(t - samples + 1, samples)`` matrix;
* the output is walked in blocks of DM rows, and inside each block one
  fancy-index gather per channel pulls the block's rows the delay table
  selects and one batched ``+=`` accumulates them.

The kernel is memory-bound (the paper's central finding), so the block
size comes from the one input property that decides cache fit,
``samples``: a block's float32 output rows plus one gathered float32
block fit :data:`_BLOCK_BYTES`, an L2-sized budget.  The output block
then stays in cache across the whole channel loop instead of every
channel streaming the full ``(n_dms, samples)`` plane through DRAM.

Bit-for-bit equality with the tiled executor is not approximate: both
paths start each output element at float32 zero and add the channels in
index order with float32 arithmetic, so every intermediate rounding
step is identical.  The property tests assert exact equality across the
sampled tuning space and across block boundaries.
"""

from __future__ import annotations

import numpy as np

#: Dtype used for fancy-index gathers (fits any valid delay).
_INDEX_DTYPE = np.intp

#: Working-set budget of one DM-row block (bytes): its float32 output
#: rows plus one gathered float32 block, i.e. ``8 * samples`` per row.
_BLOCK_BYTES = 1 << 20


def accumulate_channels(
    input_data: np.ndarray,
    delay_table: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Accumulate every channel's shifted rows into ``out``, in order.

    ``input_data`` is ``(channels, t)``, ``delay_table`` is
    ``(n_dms, channels)`` with every shift at most ``t - samples``, and
    ``out`` is the zero-initialised ``(n_dms, samples)`` output.  Inputs
    are assumed validated by the caller (:func:`repro.run.execute`).
    """
    samples = out.shape[1]
    shifts = delay_table.astype(_INDEX_DTYPE, copy=False)
    # (channels, t - samples + 1, samples) zero-copy view: row w of
    # channel c is input_data[c, w : w + samples].
    windows = np.lib.stride_tricks.sliding_window_view(
        input_data, samples, axis=1
    )
    rows = max(1, _BLOCK_BYTES // (8 * samples))
    for d0 in range(0, out.shape[0], rows):
        block = out[d0 : d0 + rows]
        block_shifts = shifts[d0 : d0 + rows]
        for channel in range(input_data.shape[0]):
            # Channel-index order matches the tiled executor's innermost
            # accumulation order, which is what makes the result bit-equal.
            block += windows[channel][block_shifts[:, channel]]
    return out
