"""Batched SAC kernels: whole-subgroup share math in single numpy passes.

The per-peer splitting routines (:func:`repro.secure.additive.divide`,
:func:`~repro.secure.additive.divide_zero_sum`,
:func:`repro.secure.fixed_point.divide_ring` and their seeded variants)
each cost one or two RNG calls plus a Python-level loop *per owner*; a
subgroup of ``n`` peers therefore pays ``O(n)`` numpy dispatches for
share generation and ``O(n^2)`` for the seeded mask expansions.  This
module hoists the owner loop into the array shape: a stacked
``(b, *shape)`` batch of secrets is split into ``(b, n, *shape)`` shares
with a *single* RNG draw for all mask material, and each seeded mask is
expanded exactly once (the per-peer path used to expand twice: once for
the residual accumulation and once for ``materialize()``).

Bit-compatibility contract (relied on by the regression gate and the
property tests in ``tests/secure/test_batched.py``):

- ``batched_divide`` consumes the RNG stream exactly as ``b`` sequential
  :func:`~repro.secure.additive.divide` calls do (``Generator.random``
  fills row-major, so ``random((b, n))`` equals ``b`` draws of
  ``random(n)``) and produces bitwise-identical shares.  The only
  divergence is the measure-zero resample guard: when a row's random sum
  is below the conditioning threshold, only that row is redrawn (the
  sequential path would have interleaved the redraw mid-stream).
- ``layer_group_sums`` (the X-layer round's groups, held group axis
  innermost) and :func:`sum_dense_shares` / :func:`mean_of_subtotals`
  (its per-index and whole-group forms over handles) equal "materialise
  the ``batched_divide`` shares, reduce the owner axis, add the index
  subtotals in order" bit for bit: the same normalised fractions, one
  multiply per (owner, index), owners then indices added left to right.
  Only the traversal differs — cache-sized blocks, so the share tensor
  never exists.
- ``batched_zero_sum`` and the seeded ring kernel are bitwise identical
  to the sequential loops for every batch size: normal variates fill
  row-major, 128-bit share seeds are two full-range ``uint64`` draws per
  seed (one ``next64`` each), and the float residuals keep the per-owner
  reduction (float addition is not associative).
- ``batched_divide_ring`` collapses the per-owner pair of ``integers``
  draws into two batch draws; for ``b == 1`` the stream is unchanged,
  for ``b > 1`` the drawn masks differ from the sequential path but the
  share *sums* are exact either way (``uint64`` arithmetic is associative
  mod ``2^64``), so every reconstructed value is unchanged.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .philox import expand_ring_batch

_MIN_SUM = 1e-3

_RING_HIGH = 2**64

#: Elements per accumulation block of the fused subtotal kernel (256 KB of
#: float64): accumulator, scratch and one model block stay cache-resident.
_FUSED_BLOCK = 32_768


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: CPUs this process may use, read once at import: the upper bound of
#: :func:`_split_blocks`' thread count.
_CPUS = _usable_cpus()


def _split_blocks(n_blocks: int, run: Callable[[int, int], None]) -> None:
    """Call ``run(lo, hi)`` over contiguous spans covering ``range(n_blocks)``.

    ``min(_CPUS, n_blocks // 4)`` spans, so a call of fewer than 8 blocks
    runs inline.  The calling thread runs the first span and short-lived
    threads the others (numpy releases the GIL inside its loops); all are
    joined before this returns, and the first exception any span raised
    is re-raised here.  Spans must write disjoint parts of the output:
    each block then sees the operations of the serial loop, so the split
    never changes a bit.
    """
    workers = min(_CPUS, n_blocks // 4)
    if workers < 2:
        run(0, n_blocks)
        return
    edges = [n_blocks * i // workers for i in range(workers + 1)]
    errors: list[BaseException] = []

    def span(lo: int, hi: int) -> None:
        try:
            run(lo, hi)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=span, args=edges[i:i + 2])
        for i in range(1, workers)
    ]
    for t in threads:
        t.start()
    try:
        run(edges[0], edges[1])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _as_batch(stack: np.ndarray, dtype=None) -> np.ndarray:
    stack = np.asarray(stack) if dtype is None else np.asarray(stack, dtype=dtype)
    if stack.ndim < 1:
        raise ValueError("batch must have at least one axis (the owners)")
    return stack


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one share, got n={n}")


def _residual_indices(
    b: int, n: int, residual_indices: int | Sequence[int] | None
) -> list[int]:
    if residual_indices is None:
        idx = [n - 1] * b
    elif isinstance(residual_indices, (int, np.integer)):
        idx = [int(residual_indices)] * b
    else:
        idx = [int(i) for i in residual_indices]
        if len(idx) != b:
            raise ValueError(
                f"need one residual index per owner: got {len(idx)} for b={b}"
            )
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"residual index {i} out of range for n={n}")
    return idx


def draw_divide_noise(
    b: int, n: int, rng: np.random.Generator, max_resample: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """The random material of ``b`` Alg. 1 splits: ``(rn, row_totals)``.

    One ``rng.random((b, n))`` draw replaces ``b`` per-owner draws.  The
    conditioning guard (the paper leaves the tiny-sum case unspecified)
    is vectorized: row totals carry the bits of the per-owner 1-D sums —
    numpy's pairwise sum adds fewer than 8 terms left to right, so for
    ``1 < n < 8`` they are ``n - 1`` column adds, each one loop over
    rows; other widths and one-row draws take a ``sum(axis=1)`` pass,
    the same pairwise reduction over the same contiguous rows — and only
    the measure-zero offending rows are redrawn in row order.

    Split out from :func:`batched_divide` so a caller can draw a whole
    layer's noise first and hand it to :func:`layer_group_sums`.
    """
    _check_n(n)
    rn = rng.random((b, n))
    if b > 1 and 1 < n < 8:
        totals = rn[:, 0] + rn[:, 1]
        for c in range(2, n):
            totals += rn[:, c]
    else:
        totals = rn.sum(axis=1)
    for i in np.flatnonzero(np.abs(totals) < _MIN_SUM):
        total = totals[i]
        for _ in range(max_resample):
            if abs(total) >= _MIN_SUM:
                break
            rn[i] = rng.random(n)
            total = rn[i].sum()
        else:  # pragma: no cover - U(0,1) sums virtually never stay tiny
            raise RuntimeError("could not draw a well-conditioned random split")
        totals[i] = total
    return rn, totals


def apply_divide_noise(
    stack: np.ndarray, rn: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Deterministic half of :func:`batched_divide`: normalize + multiply."""
    stack = _as_batch(stack)
    prn = rn / totals[:, None]
    tail = (1,) * (stack.ndim - 1)
    return prn.reshape(rn.shape + tail) * stack[:, None]


def batched_divide(
    stack: np.ndarray, n: int, rng: np.random.Generator, max_resample: int = 100
) -> np.ndarray:
    """Alg. 1 splits for a whole batch: ``(b, *shape) -> (b, n, *shape)``.

    One ``rng.random((b, n))`` draw replaces ``b`` per-owner draws;
    shares are bitwise identical to sequential :func:`additive.divide`
    calls (same stream, same elementwise multiplies).
    """
    stack = _as_batch(stack)
    rn, totals = draw_divide_noise(stack.shape[0], n, rng, max_resample)
    return apply_divide_noise(stack, rn, totals)


def _handle_array(self, dtype=None, copy=None) -> np.ndarray:
    """``__array__`` of a lazy handle: ``np.asarray`` materialises it."""
    out = self.materialize()
    return out if dtype is None else out.astype(dtype, copy=False)


@dataclass(frozen=True)
class DenseShare:
    """One Alg. 1 share held as its two factors: ``fraction * model``.

    What a dense share *is* on the simulated wire: the recipient gets a
    ``|w|``-sized payload (``size`` parameters, accounted exactly like
    the array it stands for), but the host keeps only a reference to the
    owner's model and one float.  :meth:`materialize` (or
    ``np.asarray``) yields the array :func:`batched_divide` would have
    produced, bit for bit; :func:`sum_dense_shares` aggregates handles
    without ever building it.
    """

    model: np.ndarray
    fraction: float

    @property
    def size(self) -> int:
        return self.model.size

    @property
    def shape(self) -> tuple[int, ...]:
        return self.model.shape

    def materialize(self) -> np.ndarray:
        return np.asarray(self.fraction * self.model)

    __array__ = _handle_array


def divide_handles(
    w: np.ndarray, n: int, rng: np.random.Generator, max_resample: int = 100
) -> list[DenseShare]:
    """Alg. 1 split of one secret as ``n`` :class:`DenseShare` handles.

    Same RNG draws and fractions as :func:`repro.secure.additive.divide`;
    ``handles[j].materialize()`` equals ``divide(w, n, rng)[j]`` bitwise.
    """
    w = np.asarray(w)
    rn, totals = draw_divide_noise(1, n, rng, max_resample)
    return [DenseShare(w, f) for f in rn[0] / totals[0]]


def _accumulate_scaled(
    out: np.ndarray,
    owners: Sequence[np.ndarray],
    fractions: Sequence[np.ndarray],
) -> None:
    """``out[j] = sum_i fractions[i][j] * owners[i]``, in column blocks.

    ``owners[i]`` is a ``d``-vector, ``fractions[i]`` an ``m``-vector,
    ``out`` is ``(m, d)``.  Owners are added left to right and every
    product is rounded before its add (scratch buffer, no FMA), so each
    output element sees exactly the operations of a materialised
    ``(owners, m, d)`` tensor reduced over its owner axis.
    """
    m, d = out.shape
    cb = max(1, min(d, _FUSED_BLOCK // m))
    scratch = np.empty((m, cb), dtype=out.dtype)
    for c0 in range(0, d, cb):
        c1 = min(c0 + cb, d)
        acc, tmp = out[:, c0:c1], scratch[:, : c1 - c0]
        np.multiply(fractions[0][:, None], owners[0][None, c0:c1], out=acc)
        for frac, owner in zip(fractions[1:], owners[1:]):
            np.multiply(frac[:, None], owner[None, c0:c1], out=tmp)
            np.add(acc, tmp, out=acc)


def layer_group_sums(
    vals: np.ndarray, rn: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Each group's sum of its SAC index subtotals, group axis innermost.

    ``vals`` is ``(n, d, G)``: owner ``i`` of group ``g`` holds
    ``vals[i, :, g]``.  ``(rn, totals)`` is the :func:`draw_divide_noise`
    material of the ``G * n`` owners, group-major.  Returns ``(d, G)``:
    per group, ``sub_j = f_0j v_0 + f_1j v_1 + ...`` (owners left to
    right, each product rounded before its add), then ``sub_0 + sub_1 +
    ...`` (indices left to right) — the bits of materialising the
    :func:`apply_divide_noise` shares, reducing the owner axis and adding
    the index subtotals in order.  Cache-sized group blocks, so every
    ufunc loop runs over groups and no subtotal tensor is built.
    """
    n, d, g = vals.shape
    _check_n(n)
    if rn.shape != (g * n, n):
        raise ValueError(f"noise {rn.shape} does not fit {g} groups of n={n}")
    # frac[i, j, g]: owner i's fraction for index j, viewed group-last.
    rn = rn.reshape(g, n, n).transpose(1, 2, 0)
    totals = totals.reshape(g, n).T[:, None]
    out = np.empty((d, g), dtype=np.result_type(rn, vals))
    gb = max(1, _FUSED_BLOCK // max(d, 1))
    frac = np.empty((n, n, min(gb, g)))
    scratch = np.empty((2, d, min(gb, g)), dtype=out.dtype)
    for g0 in range(0, g, gb):
        g1 = min(g0 + gb, g)
        f = frac[..., : g1 - g0]
        np.divide(rn[..., g0:g1], totals[..., g0:g1], out=f)
        acc = out[:, g0:g1]
        sub, tmp = scratch[..., : g1 - g0]
        for j in range(n):
            part = sub if j else acc
            np.multiply(f[0, j], vals[0, :, g0:g1], out=part)
            for i in range(1, n):
                np.multiply(f[i, j], vals[i, :, g0:g1], out=tmp)
                np.add(part, tmp, out=part)
            if j:
                np.add(acc, sub, out=acc)
    return out


def sum_dense_shares(shares: Sequence[DenseShare]) -> np.ndarray:
    """One subtotal from its owners' handles: ``sum_i f_i * model_i``.

    For callers that hold handles rather than a stacked batch (the
    protocol actors): owners in sequence order, same bits as summing the
    materialised shares.
    """
    first = shares[0]
    owners = [s.model.reshape(-1) for s in shares]
    fractions = [np.full(1, s.fraction) for s in shares]
    out = np.empty((1, first.size), dtype=np.result_type(np.float64, *owners))
    _accumulate_scaled(out, owners, fractions)
    return out.reshape(first.shape)


@dataclass(frozen=True)
class DenseSubtotal:
    """One SAC subtotal held as its owners' shares, in origin order:
    ``|w|`` parameters on the simulated wire, ``n`` references on the
    host.  No round materialises it — the leader's
    :func:`mean_of_subtotals` evaluates all its terms in one pass."""

    shares: Sequence[DenseShare]

    @property
    def size(self) -> int:
        return self.shares[0].size

    @property
    def shape(self) -> tuple[int, ...]:
        return self.shares[0].shape

    def materialize(self) -> np.ndarray:
        return sum_dense_shares(self.shares)

    __array__ = _handle_array


def mean_of_subtotals(terms: Sequence, n: int) -> np.ndarray:
    """Alg. 2's ``(terms[0] + terms[1] + ...) / n`` in one blocked pass.

    Each term is a :class:`DenseSubtotal` or a ready array.  Per cache
    block a handle is evaluated as :func:`sum_dense_shares` would, the
    terms are added in sequence order and the block is divided by ``n``:
    per element the operations of "materialise each term, add them in
    order, ``/= n``", so the same bits, but a model block is read from
    memory once for all terms and no term is allocated.  Blocks are
    independent, so :func:`_split_blocks` spreads them over the host's
    cores.  Returns a new array; no input is written.
    """
    if not terms:
        raise ValueError("need at least one term")
    _check_n(n)
    d, shape = terms[0].size, terms[0].shape
    # A term is its (fraction, flat model) recipe; a ready array has none.
    recipes = [
        [(s.fraction, s.model.reshape(-1)) for s in t.shares]
        if isinstance(t, DenseSubtotal) else [(None, np.asarray(t).reshape(-1))]
        for t in terms
    ]
    if any(vec.size != d for recipe in recipes for _, vec in recipe):
        raise ValueError(f"terms must all have {d} elements")
    out = np.empty(d)

    def run(lo: int, hi: int) -> None:
        scratch = np.empty((2, min(d, _FUSED_BLOCK)))
        stop = min(hi * _FUSED_BLOCK, d)
        for c0 in range(lo * _FUSED_BLOCK, stop, _FUSED_BLOCK):
            c1 = c0 + _FUSED_BLOCK
            acc = out[c0:c1]
            held, tmp = scratch[:, : acc.size]
            for j, ((fraction, vec), *rest) in enumerate(recipes):
                if fraction is None:
                    part = vec[c0:c1]
                else:
                    # The first term is evaluated straight into the output.
                    part = held if j else acc
                    np.multiply(fraction, vec[c0:c1], out=part)
                    for fraction, vec in rest:
                        np.multiply(fraction, vec[c0:c1], out=tmp)
                        np.add(part, tmp, out=part)
                if j:
                    np.add(acc, part, out=acc)
                elif part is not acc:
                    np.copyto(acc, part)
            np.divide(acc, n, out=acc)

    _split_blocks(-(-d // _FUSED_BLOCK), run)
    return out.reshape(shape)


def batched_zero_sum(
    stack: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zero-sum splits for a whole batch: ``n-1`` N(0, 1) masks + residual each.

    One ``rng.normal`` draw of shape ``(b, n-1, *shape)`` replaces the
    per-owner draws (normal variates fill row-major, so the stream is
    identical); residuals keep the per-owner ``masks.sum(axis=0)``
    reduction so every share is bitwise identical to sequential
    :func:`additive.divide_zero_sum` calls.
    """
    _check_n(n)
    stack = _as_batch(stack, dtype=np.float64)
    b = stack.shape[0]
    shape = stack.shape[1:]
    out = np.empty((b, n) + shape, dtype=np.float64)
    if n == 1:
        out[:, 0] = stack
        return out
    out[:, :-1] = rng.normal(0.0, 1.0, size=(b, n - 1) + shape)
    for i in range(b):
        np.subtract(stack[i], out[i, :-1].sum(axis=0), out=out[i, -1])
    return out


def batched_seed_keys(
    count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` 128-bit share seeds as one RNG pass.

    Returns an ``(count, 2)`` ``uint64`` array of ``(hi, lo)`` words.
    Full-range ``uint64`` draws consume exactly one ``next64`` per
    element, so the flattened sequence equals ``count`` sequential
    :func:`repro.secure.seedshare.draw_seed` calls bit for bit.
    """
    return rng.integers(0, _RING_HIGH, size=(count, 2), dtype=np.uint64)


def batched_divide_ring(
    qstack: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Ring splits for a whole batch: ``(b, *shape) -> (b, n, *shape)``.

    Two batch ``integers`` draws replace the per-owner pairs.  For
    ``b == 1`` the RNG stream matches :func:`fixed_point.divide_ring`
    exactly; for larger batches the drawn masks differ but every share
    *sum* is exact mod ``2^64`` regardless.
    """
    _check_n(n)
    qstack = _as_batch(qstack, dtype=np.uint64)
    b = qstack.shape[0]
    shape = qstack.shape[1:]
    out = np.empty((b, n) + shape, dtype=np.uint64)
    if n == 1:
        out[:, 0] = qstack
        return out
    out[:, :-1] = rng.integers(
        0, 2**63, size=(b, n - 1) + shape, dtype=np.uint64
    ) | (
        rng.integers(0, 2, size=(b, n - 1) + shape, dtype=np.uint64)
        << np.uint64(63)
    )
    # uint64 sums are associative mod 2^64: the vectorized reduction is
    # exactly the sequential subtraction loop.
    np.subtract(qstack, out[:, :-1].sum(axis=1, dtype=np.uint64), out=out[:, -1])
    return out


def batched_seeded_ring_dense(
    qstack: np.ndarray,
    n: int,
    rng: np.random.Generator,
    residual_indices: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Materialized seeded ring splits for a whole batch.

    Bitwise identical to per-owner ``seeded_ring_shares(...).materialize()``
    for every batch size: seed draws are sequential ``next64`` pairs, all
    ``b * (n - 1)`` masks expand in one vectorized Philox pass
    (:func:`repro.secure.philox.expand_ring_batch`), and the residual
    subtraction is exact mod ``2^64`` in any order.
    """
    _check_n(n)
    qstack = _as_batch(qstack, dtype=np.uint64)
    b = qstack.shape[0]
    shape = qstack.shape[1:]
    res = _residual_indices(b, n, residual_indices)
    out = np.empty((b, n) + shape, dtype=np.uint64)
    keys = batched_seed_keys(b * (n - 1), rng)
    d = int(np.prod(shape)) if shape else 1
    masks = expand_ring_batch(keys[:, 0], keys[:, 1], d)
    masks = masks.reshape((b, n - 1) + shape)
    res_arr = np.asarray(res, dtype=np.int64)
    slots = np.arange(n - 1)
    # Scatter mask slot s of owner i to share index s (+1 past the
    # owner's residual slot).
    jj = slots[None, :] + (slots[None, :] >= res_arr[:, None])
    out[np.arange(b)[:, None], jj] = masks
    out[np.arange(b), res_arr] = qstack - masks.sum(axis=1, dtype=np.uint64)
    return out
