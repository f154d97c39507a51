"""Property-based tests for the kernel executors.

The strongest correctness property in the repository: for *any* kernel
configuration that tiles the problem and *any* non-negative delay table
(not just physical ones), the tiled work-group execution must reproduce
the sequential Algorithm 1 bit-for-bit (up to float32 addition order),
and the vectorized fast path must match the tiled executor *exactly*
(float32 bitwise — both add channels in the same order), at every DM-row
block boundary of its cache blocking.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KernelConfiguration
from repro.opencl_sim import vectorized
from repro.opencl_sim.codegen import build_kernel
from tests.conftest import launch


@st.composite
def problems(draw):
    """(channels, samples, n_dms, config, delays, input) bundles.

    The configuration is drawn from divisors of the problem dimensions so
    the tiling is always exact, mirroring the meaningful-configuration
    rule.
    """
    channels = draw(st.integers(min_value=1, max_value=8))
    # samples = wt * et * k
    wt = draw(st.sampled_from([1, 2, 4, 5, 8]))
    et = draw(st.sampled_from([1, 2, 3, 5]))
    tiles_t = draw(st.integers(min_value=1, max_value=3))
    samples = wt * et * tiles_t
    wd = draw(st.sampled_from([1, 2, 4]))
    ed = draw(st.sampled_from([1, 2]))
    tiles_d = draw(st.integers(min_value=1, max_value=3))
    n_dms = wd * ed * tiles_d
    config = KernelConfiguration(wt, wd, et, ed)
    max_delay = draw(st.integers(min_value=0, max_value=20))
    delays = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_delay),
                min_size=channels,
                max_size=channels,
            ),
            min_size=n_dms,
            max_size=n_dms,
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    data = rng.normal(size=(channels, samples + max_delay)).astype(np.float32)
    return channels, samples, n_dms, config, np.asarray(delays), data


@st.composite
def blocked_problems(draw):
    """(rows, samples, n_dms, config, delays, input) with a ragged block.

    ``rows`` is the DM-row block height of the vectorized executor: 1, 2
    or 3 with ``n_dms`` not a multiple of it (beyond 1), or more rows
    than the grid has.  ``config`` tiles one DM row per work-group so
    any ``n_dms`` is valid for the tiled reference.
    """
    rows = draw(st.sampled_from([1, 2, 3, None]))
    if rows is None:
        n_dms = draw(st.integers(min_value=1, max_value=7))
        rows = n_dms + draw(st.integers(min_value=1, max_value=4))
    else:
        n_dms = rows * draw(st.integers(min_value=0, max_value=3)) + draw(
            st.integers(min_value=1, max_value=max(1, rows - 1))
        )
    channels = draw(st.integers(min_value=1, max_value=8))
    wt = draw(st.sampled_from([1, 2, 4, 5, 8]))
    et = draw(st.sampled_from([1, 2, 3, 5]))
    samples = wt * et * draw(st.integers(min_value=1, max_value=3))
    max_delay = draw(st.integers(min_value=0, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    delays = rng.integers(0, max_delay + 1, size=(n_dms, channels))
    data = rng.normal(size=(channels, samples + max_delay)).astype(np.float32)
    config = KernelConfiguration(wt, 1, et, 1)
    return rows, samples, n_dms, config, delays, data


def reference(data, delays, samples):
    """Direct Algorithm 1 on an arbitrary delay table."""
    n_dms, channels = delays.shape
    out = np.zeros((n_dms, samples), dtype=np.float32)
    for dm in range(n_dms):
        for ch in range(channels):
            start = int(delays[dm, ch])
            out[dm] += data[ch, start : start + samples]
    return out


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(problem=problems())
    def test_tiled_execution_matches_reference(self, problem):
        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        out = launch(kernel, data, delays, backend="tiled")
        expected = reference(data, delays, samples)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(problem=problems())
    def test_vectorized_bitwise_equals_tiled(self, problem):
        # The fast path's contract is *exact* float32 equality, not
        # allclose: both executors add the channels in the same order.
        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        tiled = launch(kernel, data, delays, backend="tiled")
        fast = launch(kernel, data, delays, backend="vectorized")
        np.testing.assert_array_equal(tiled, fast)

    @settings(max_examples=60, deadline=None)
    @given(
        problem=problems(),
        budget=st.sampled_from([64, 4096, 2 * 1024 * 1024]),
    )
    def test_channel_tile_bitwise_equals_tiled(self, problem, budget):
        # Same exact-equality contract as the vectorized path, across
        # block budgets from one-channel-per-block up to one block.
        from repro.opencl_sim.channel_tile import accumulate_channel_tiles

        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        tiled = launch(kernel, data, delays, backend="tiled")
        out = np.zeros((n_dms, samples), dtype=np.float32)
        accumulate_channel_tiles(data, delays, out, budget_bytes=budget)
        np.testing.assert_array_equal(tiled, out)

    @settings(max_examples=60, deadline=None)
    @given(problem=blocked_problems())
    def test_vectorized_blocks_bitwise_equal_tiled(self, problem):
        # Shrink the block budget so one block holds ``rows`` DM rows:
        # a partial last block must not change a single bit.
        rows, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, data.shape[0], samples)
        tiled = launch(kernel, data, delays, backend="tiled")
        out = np.zeros((n_dms, samples), dtype=np.float32)
        with mock.patch.object(vectorized, "_BLOCK_BYTES", rows * 8 * samples):
            vectorized.accumulate_channels(data, delays, out)
        np.testing.assert_array_equal(tiled, out)

    def test_stale_out_buffer_equals_fresh_launch(self):
        # The sharded path of repro.run.execute hands the executor a
        # reused ``out``; stale contents must not leak into any block.
        rng = np.random.default_rng(7)
        channels, samples, n_dms = 6, 40, 7
        delays = rng.integers(0, 12, size=(n_dms, channels))
        data = rng.normal(size=(channels, samples + 12)).astype(np.float32)
        kernel = build_kernel(
            KernelConfiguration(4, 1, 2, 1), channels, samples
        )
        stale = rng.normal(size=(n_dms, samples)).astype(np.float32)
        stale[0, 0] = np.nan
        with mock.patch.object(vectorized, "_BLOCK_BYTES", 3 * 8 * samples):
            fresh = launch(kernel, data, delays, backend="vectorized")
            reused = launch(
                kernel, data, delays, backend="vectorized", out=stale
            )
        np.testing.assert_array_equal(fresh, reused)

    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_staged_equals_direct(self, problem):
        channels, samples, n_dms, config, delays, data = problem
        staged = launch(
            build_kernel(config, channels, samples),
            data,
            delays,
            backend="tiled",
        )
        direct = launch(build_kernel(
            config, channels, samples, use_local_staging=False
        ), data, delays, backend="tiled")
        np.testing.assert_array_equal(staged, direct)

    @settings(max_examples=30, deadline=None)
    @given(problem=problems(), scale=st.floats(min_value=0.1, max_value=8.0))
    def test_linearity(self, problem, scale):
        # Dedispersion is linear: kernel(a*x) == a*kernel(x).
        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        base = launch(kernel, data, delays)
        scaled = launch(
            kernel, (data * np.float32(scale)).astype(np.float32), delays
        )
        np.testing.assert_allclose(
            scaled, base * np.float32(scale), rtol=1e-4, atol=1e-4
        )
