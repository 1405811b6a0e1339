"""Property tests pinning the batched share kernels to the per-peer path.

The batched core (:mod:`repro.secure.batched`) must be a pure
vectorisation: fed the same generator stream, its rows are **bitwise**
the shares the per-peer loops produce.  These hypothesis suites assert
exactly that, for the float codec (multiplicative and zero-sum masks)
and the ring64 fixed-point codec (dense and seeded).
"""

import os
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure import batched
from repro.secure.additive import divide, divide_zero_sum, reconstruct
from repro.secure.batched import (
    DenseSubtotal,
    apply_divide_noise,
    batched_divide,
    batched_divide_ring,
    batched_seeded_ring_dense,
    batched_zero_sum,
    divide_handles,
    draw_divide_noise,
    layer_group_sums,
    mean_of_subtotals,
    sum_dense_shares,
)
from repro.secure.fixed_point import divide_ring
from repro.secure.sac import reference_group_average, sac_average
from repro.secure.seedshare import seeded_ring_shares

RNG = lambda seed=0: np.random.default_rng(seed)

dims = st.integers(min_value=1, max_value=24)
batch = st.integers(min_value=1, max_value=6)
peers = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _stack(b, d, seed):
    return RNG(seed).normal(size=(b, d))


# Reference implementations: the pre-batching per-peer loops, consuming
# one shared generator left to right (exactly the stream the batched
# kernels must replicate).

def _ref_divide(w, n, rng):
    rn = rng.random(n)
    total = rn.sum()
    for _ in range(100):
        if abs(total) >= 1e-3:
            break
        rn = rng.random(n)
        total = rn.sum()
    prn = rn / total
    return prn.reshape((n,) + (1,) * w.ndim) * w


def _ref_zero_sum(w, n, rng, mask_scale=1.0):
    out = np.empty((n,) + w.shape)
    if n == 1:
        out[0] = w
        return out
    out[:-1] = rng.normal(0.0, mask_scale, size=(n - 1,) + w.shape)
    np.subtract(w, out[:-1].sum(axis=0), out=out[-1])
    return out


class TestFloatBatched:
    @given(b=batch, n=peers, d=dims, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_batched_divide_matches_per_peer_loop(self, b, n, d, seed):
        stack = _stack(b, d, seed)
        got = batched_divide(stack, n, RNG(seed))
        rng = RNG(seed)
        for i in range(b):
            expect = _ref_divide(stack[i], n, rng)
            assert np.array_equal(got[i], expect)

    @given(b=batch, n=peers, d=dims, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_batched_zero_sum_matches_per_peer_loop(self, b, n, d, seed):
        stack = _stack(b, d, seed)
        got = batched_zero_sum(stack, n, RNG(seed))
        rng = RNG(seed)
        for i in range(b):
            expect = _ref_zero_sum(stack[i], n, rng)
            assert np.array_equal(got[i], expect)

    @given(n=peers, d=dims, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_wrapper_divide_is_batched_row(self, n, d, seed):
        w = RNG(seed).normal(size=d)
        assert np.array_equal(
            divide(w, n, RNG(seed)),
            batched_divide(w[np.newaxis], n, RNG(seed))[0],
        )
        assert np.array_equal(
            divide_zero_sum(w, n, RNG(seed)),
            batched_zero_sum(w[np.newaxis], n, RNG(seed))[0],
        )

    def test_noise_totals_are_the_per_row_sums(self):
        """At xlayer_wide's bottom layer: 26,244 groups of 4 owners."""
        rn, totals = draw_divide_noise(104_976, 4, RNG(4))
        expect = np.array([row.sum() for row in rn])
        assert _bits_equal(totals, expect)

    @given(n=peers, d=dims, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_divide_reconstructs(self, n, d, seed):
        w = RNG(seed).normal(size=d)
        shares = divide(w, n, RNG(seed))
        assert np.allclose(reconstruct(list(shares)), w)


class TestRingBatched:
    @given(b=batch, n=peers, d=dims, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_batched_ring_rows_reconstruct_exactly(self, b, n, d, seed):
        qstack = RNG(seed).integers(
            0, 2**64, size=(b, d), dtype=np.uint64
        )
        shares = batched_divide_ring(qstack, n, RNG(seed))
        # Ring sums are exact mod 2^64: every row reconstructs bitwise.
        totals = shares.sum(axis=1, dtype=np.uint64)
        assert np.array_equal(totals, qstack)

    @given(n=peers, d=dims, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_ring_wrapper_is_batched_row(self, n, d, seed):
        q = RNG(seed).integers(0, 2**64, size=d, dtype=np.uint64)
        assert np.array_equal(
            divide_ring(q, n, RNG(seed)),
            batched_divide_ring(q[np.newaxis], n, RNG(seed))[0],
        )
        assert np.array_equal(
            divide_ring(q, n, RNG(seed)).sum(axis=0, dtype=np.uint64), q
        )

    @given(b=batch, n=peers, d=dims, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_batched_seeded_ring_dense_matches_sequential(self, b, n, d, seed):
        qstack = RNG(seed).integers(
            0, 2**64, size=(b, d), dtype=np.uint64
        )
        got = batched_seeded_ring_dense(
            qstack, n, RNG(seed), residual_indices=[i % n for i in range(b)]
        )
        rng = RNG(seed)
        for i in range(b):
            ref = seeded_ring_shares(
                qstack[i], n, rng, residual_index=i % n
            ).materialize()
            assert np.array_equal(got[i], ref)


def _bits_equal(a, b):
    """Stricter than ``array_equal``: dtype, shape and every bit (so a
    ``-0.0`` for a ``0.0`` fails too)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _materialise_and_reduce(stack, rn, totals, n):
    """Materialise the shares, reduce the owner axis: the ``(G, n, *shape)``
    index subtotals."""
    shares = apply_divide_noise(stack, rn, totals)
    g = stack.shape[0] // n
    return shares.reshape((g, n, n) + stack.shape[1:]).sum(axis=1)


def _group_sums_oracle(stack, rn, totals, n):
    """The index subtotals added left to right, as the no-simulator
    X-layer reference (``multi_layer._add_in_order``) adds them."""
    sub = _materialise_and_reduce(stack, rn, totals, n)
    total = sub[:, 0].copy()
    for j in range(1, n):
        np.add(total, sub[:, j], out=total)
    return total


def _group_sums(stack, rn, totals, n):
    """``layer_group_sums`` on a group-major ``(G*n, *shape)`` stack, fed
    as the strided ``(n, d, G)`` view it takes, back as ``(G, *shape)``."""
    g, shape = stack.shape[0] // n, stack.shape[1:]
    vals = stack.reshape(g, n, -1).transpose(1, 2, 0)
    return layer_group_sums(vals, rn, totals).T.reshape((g,) + shape)


@contextmanager
def _fused_block(elements):
    """Run the fused kernel with another block size (restored on exit;
    hypothesis re-enters the test body, so no ``monkeypatch`` fixture)."""
    shipped = batched._FUSED_BLOCK
    batched._FUSED_BLOCK = elements
    try:
        yield
    finally:
        batched._FUSED_BLOCK = shipped


model_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 200)),
    st.lists(st.integers(1, 6), min_size=2, max_size=3).map(tuple),
)
layouts = st.sampled_from(["contiguous", "strided", "reversed", "float32"])
# 32_768 is the shipped block; the small ones put block edges inside
# (and off the end of) the tiny models hypothesis draws.
blocks = st.sampled_from([7, 64, 32_768])


class TestFusedSubtotals:
    """``layer_group_sums`` against materialise, reduce owners, add indices."""

    @given(g=st.integers(1, 4), n=peers, shape=model_shapes, layout=layouts,
           block=blocks, seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_equals_materialise_and_reduce(
        self, g, n, shape, layout, block, seed
    ):
        rng = RNG(seed)
        if layout == "strided":
            stack = rng.normal(size=(g * n,) + shape + (2,))[..., 0]
        elif layout == "reversed":
            stack = rng.normal(size=(g * n,) + shape)[::-1]
        else:
            stack = rng.normal(size=(g * n,) + shape)
        if layout == "float32":
            stack = stack.astype(np.float32)
        rn, totals = draw_divide_noise(g * n, n, rng)
        expect = _group_sums_oracle(stack, rn, totals, n)
        with _fused_block(block):
            got = _group_sums(stack, rn, totals, n)
        assert got.shape == (g,) + shape
        assert _bits_equal(got, expect)

    @pytest.mark.parametrize("rows,d,n", [
        (5, 70_001, 5),    # paper-like: G = 1, one group per block
        (12, 8_192, 4),    # four groups per block, d below the block
        (4_004, 8, 4),     # many groups per block, ragged tail
        (3, 1, 3),
        (104_976, 8, 4),   # xlayer_wide's bottom layer: 26,244 groups
    ])
    def test_shipped_block_size_at_realistic_shapes(self, rows, d, n):
        rng = RNG(rows)
        stack = rng.random((rows, d))
        rn, totals = draw_divide_noise(rows, n, rng)
        assert _bits_equal(
            _group_sums(stack, rn, totals, n),
            _group_sums_oracle(stack, rn, totals, n),
        )

    def test_rejects_ragged_groups(self):
        rn, totals = draw_divide_noise(5, 3, RNG())
        with pytest.raises(ValueError):
            layer_group_sums(np.ones((3, 4, 2)), rn, totals)

    def test_peak_memory_is_a_few_outputs(self):
        """Perf pin: at xlayer_wide's bottom layer the kernel holds its
        output, one block of fractions and two block scratches — at most
        four outputs' worth, never an ``(n, d, G)`` subtotal tensor."""
        g, n, d = 26_244, 4, 8
        rng = RNG(3)
        vals = rng.random((d, n, g)).swapaxes(0, 1)
        rn, totals = draw_divide_noise(g * n, n, rng)
        tracemalloc.start()
        try:
            out = layer_group_sums(vals, rn, totals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (d, g)
        assert peak <= 4 * out.nbytes, peak / out.nbytes


class TestGroupKernel:
    """``reference_group_average`` against Alg. 1–2 spelled out in plain
    NumPy — the independent check of the one no-simulator kernel."""

    @given(n=peers, seed=seeds,
           d=st.sampled_from([1, 7, 32_767, 32_768, 32_769, 70_001]))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_owner_shares_added_owners_then_indices(
        self, n, d, seed
    ):
        models = RNG(seed).normal(size=(n, d))
        peer_seeds = [seed + 17 * i for i in range(n)]
        subtotals = None
        for model, peer_seed in zip(models, peer_seeds):
            # One owner's n materialised Alg. 1 shares, from its own
            # generator.
            rn, totals = draw_divide_noise(1, n, RNG(peer_seed))
            shares = apply_divide_noise(model[np.newaxis], rn, totals)[0]
            subtotals = shares if subtotals is None else subtotals + shares
        expect = subtotals[0]
        for j in range(1, n):
            expect = expect + subtotals[j]
        expect = expect / n
        got = reference_group_average(list(models), peer_seeds)
        assert _bits_equal(got, expect)
        assert got.base is None

    @given(n=peers, d=dims, seed=seeds,
           codec=st.sampled_from(["dense", "seed", "seed-dense"]))
    @settings(max_examples=40, deadline=None)
    def test_sac_average_draws_exactly_n_peer_seeds(self, n, d, seed, codec):
        rng_sac, rng_seeds = RNG(seed), RNG(seed)
        sac_average(list(_stack(n, d, seed)), rng_sac, share_codec=codec)
        for _ in range(n):
            rng_seeds.integers(2**63)
        assert rng_sac.bit_generator.state == rng_seeds.bit_generator.state


class TestDenseShareHandles:
    @given(n=peers, shape=model_shapes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_handles_are_the_divide_rows(self, n, shape, seed):
        w = RNG(seed).normal(size=shape)
        rng_h, rng_d = RNG(seed), RNG(seed)
        handles = divide_handles(w, n, rng_h)
        shares = divide(w, n, rng_d)
        assert rng_h.bit_generator.state == rng_d.bit_generator.state
        assert len(handles) == n
        for handle, share in zip(handles, shares):
            assert handle.size == share.size and handle.shape == share.shape
            assert _bits_equal(handle.materialize(), share)
            assert _bits_equal(np.asarray(handle), share)

    @given(n=peers, shape=model_shapes, block=blocks, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_sum_equals_left_to_right_sum_of_materialised(
        self, n, shape, block, seed
    ):
        rng = RNG(seed)
        # One subtotal: share j of each of n owners.
        handles = [
            divide_handles(rng.normal(size=shape), n, rng)[i % n]
            for i in range(n)
        ]
        expect = handles[0].materialize()
        for handle in handles[1:]:
            expect = expect + handle.materialize()
        with _fused_block(block):
            got = sum_dense_shares(handles)
        assert _bits_equal(got, expect)


def _term_is_lazy(mix, j):
    """Whether term ``j`` of the leader's sum is a handle: every term
    (dense codec), none (seed codecs), or alternating from either kind
    — an array in first position is the case the eager leader had to
    copy before accumulating in place."""
    return {"handles": True, "arrays": False,
            "array_first": j % 2 == 1, "handle_first": j % 2 == 0}[mix]


class TestMeanOfSubtotals:
    @given(n=peers, shape=model_shapes, block=blocks, seed=seeds,
           mix=st.sampled_from(
               ["handles", "arrays", "array_first", "handle_first"]))
    @settings(max_examples=200, deadline=None)
    def test_equals_materialise_reduce_add_divide(
        self, n, shape, block, seed, mix
    ):
        models = RNG(seed).normal(size=(n,) + shape)
        rng_h, rng_d = RNG(seed + 1), RNG(seed + 1)
        handles = [divide_handles(w, n, rng_h) for w in models]
        # The oracle: every share as an array, owners reduced, indices
        # added in order, one divide.
        subtotals = batched_divide(models, n, rng_d).sum(axis=0)
        expect = np.array(subtotals[0])
        for j in range(1, n):
            np.add(expect, subtotals[j], out=expect)
        expect /= n

        # handles[owner][index] -> one subtotal per index, owners in order
        lazy = [DenseSubtotal(column) for column in zip(*handles)]
        terms = [lazy[j] if _term_is_lazy(mix, j) else np.array(subtotals[j])
                 for j in range(n)]
        inputs = [models] + [t for t in terms if isinstance(t, np.ndarray)]
        before = [a.tobytes() for a in inputs]
        with _fused_block(block):
            got = mean_of_subtotals(terms, n)
            for j, handle in enumerate(lazy):
                assert handle.size == subtotals[j].size
                assert handle.shape == shape
                assert _bits_equal(
                    handle.materialize(), sum_dense_shares(handle.shares)
                )
                assert _bits_equal(np.asarray(handle), np.array(subtotals[j]))
        assert _bits_equal(got, expect)
        assert [a.tobytes() for a in inputs] == before
        assert not any(np.shares_memory(got, a) for a in inputs)

    @pytest.mark.parametrize("d", [1, 32_768, 32_769, 70_001])
    def test_shipped_block_size_across_block_edges(self, d):
        n, rng = 5, RNG(d)
        models = rng.random((n, d))
        handles = [divide_handles(w, n, rng) for w in models]
        terms = [DenseSubtotal(column) for column in zip(*handles)]
        expect = terms[0].materialize()
        for term in terms[1:]:
            np.add(expect, term.materialize(), out=expect)
        expect /= n
        assert _bits_equal(mean_of_subtotals(terms, n), expect)

    def test_typed_errors_before_any_block_runs(self):
        handles = divide_handles(np.ones(4), 2, RNG())
        with pytest.raises(ValueError, match="at least one term"):
            mean_of_subtotals([], 2)
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one share"):
                mean_of_subtotals([np.ones(4)], n)
        with pytest.raises(ValueError, match="4 elements"):
            mean_of_subtotals([np.ones(4), np.ones(5)], 2)
        short = divide_handles(np.ones(3), 2, RNG())[0]
        ragged = DenseSubtotal([handles[0], short])
        with pytest.raises(ValueError, match="4 elements"):
            mean_of_subtotals([DenseSubtotal(handles), ragged], 2)


@contextmanager
def cpus_patched(count):
    """Split the kernels as a host with ``count`` usable CPUs would."""
    shipped = batched._CPUS
    batched._CPUS = count
    try:
        yield
    finally:
        batched._CPUS = shipped


def count_thread_starts(monkeypatch):
    """A list that every ``Thread.start`` from now on appends to."""
    starts = []
    start = threading.Thread.start

    def counted(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


# Block edges, odd remainders and the paper's |w| (39 blocks).
SPLIT_SIZES = [1, 32_767, 32_768, 32_769, 8 * 32_768 + 1, 1_250_858]


class TestSplitBlocks:
    """``_split_blocks``: which spans run where, and that splitting a
    kernel over threads never moves a bit."""

    def test_cpus_are_the_affinity_mask(self):
        assert batched._CPUS == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 16])
    def test_spans_tile_the_blocks(self, cpus):
        for n_blocks in range(40):
            spans = []
            with cpus_patched(cpus):
                batched._split_blocks(
                    n_blocks,
                    lambda lo, hi: spans.append(
                        (lo, hi, threading.current_thread())
                    ),
                )
            spans.sort(key=lambda s: s[0])
            edges = [lo for lo, _, _ in spans] + [spans[-1][1]]
            assert edges[0] == 0 and edges[-1] == n_blocks
            assert all(hi == lo for (_, hi, _), (lo, _, _)
                       in zip(spans, spans[1:]))
            workers = min(cpus, n_blocks // 4)
            assert len(spans) == (workers if workers > 1 else 1)
            # the caller runs the first span itself
            assert spans[0][2] is threading.current_thread()
            assert all(hi > lo for lo, hi, _ in spans) or n_blocks == 0

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_a_span_exception_reaches_the_caller(self, failing):
        finished = []

        def run(lo, hi):
            if lo == failing * 10:
                raise KeyError(lo)
            finished.append(lo)

        before = threading.active_count()
        with cpus_patched(4), pytest.raises(KeyError) as err:
            batched._split_blocks(40, run)
        assert err.value.args == (failing * 10,)
        # every other span still ran, and was joined before the raise
        assert sorted(finished) == [lo for lo in (0, 10, 20, 30)
                                    if lo != failing * 10]
        assert threading.active_count() == before

    @pytest.mark.parametrize("d", SPLIT_SIZES)
    def test_split_is_bit_identical_to_inline(self, d):
        n, rng = 5, RNG(d)
        models = rng.random((n, d))
        handles = [divide_handles(w, n, rng) for w in models]
        terms = [DenseSubtotal(column) for column in zip(*handles)]
        terms[1] = np.asarray(terms[1])  # one ready array among the handles
        with cpus_patched(1):
            inline = mean_of_subtotals(terms, n)
        for cpus in (2, 3, 4):
            with cpus_patched(cpus):
                assert _bits_equal(mean_of_subtotals(terms, n), inline)

    @pytest.mark.parametrize("d,blocks", [
        (1_250_858, 39), (16_384, 1), (8, 1),
    ])
    def test_threads_started(self, monkeypatch, d, blocks):
        """A paper-size leader starts one thread per extra span; a
        campaign-size (d = 16,384) or X-layer-size (d = 8) one starts
        none."""
        terms = [np.ones(d)] * 3
        starts = count_thread_starts(monkeypatch)
        for cpus in (batched._CPUS, 4):
            starts.clear()
            with cpus_patched(cpus):
                mean_of_subtotals(terms, 3)
            assert len(starts) == max(0, min(cpus, blocks // 4) - 1)
