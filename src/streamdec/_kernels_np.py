"""Pure-numpy decode kernels over lane-major (n, F) arrays.

Lane s of column axis F is one frame.  The per-lane arithmetic order is
the contract shared with the numba kernels: checks are visited in
ascending row order, edges in row order, and variable sums accumulate
in column-adjacency position order.  The layered kernel runs the rows
level by level (``ParityCheckCode.levels``): levels run in order and
rows within a level share no variable, so each level is one vectorised
step with the ascending-row result.

Every check-node update goes through ``_check_rows`` over a ``RowPlan``
that the code builds once.  A plan lists its edges slot-major, so the
step reads its inputs as a (max_row_degree, rows, F) block of
contiguous (rows, F) slabs, one per slot, with no copy for a regular
code.  ``_check_messages`` takes the two smallest magnitudes with a
running two-minimum over the slabs, which selects values and computes
none, scales and clips them, and then applies each slot's sign, its
own sign XOR the row's sign parity, by toggling the IEEE sign bit of
the clipped magnitude with one integer XOR, which has no per-element
branch.  That equals the row loops' ``norm * (sign * mag)``, clipped,
bit for bit, signed zeros included: every magnitude is +0.0 or more, so
the toggle is exactly unary minus, +0.0 to -0.0 included, and scaling
and clipping commute with negation because rounding is symmetric in
sign.  A -0.0 input counts as positive (``vals < 0.0``) and has
magnitude +0.0, as in the row loops.  The syndrome
reduces over the same block.  Padding is inert, never masked: the check
step pads rows to ``max_row_degree`` with ``+inf``, which never wins a
minimum and is never negative, the syndrome pads with 0, and the
flooding variable phase points the padding slots of
``code.col_pad_pos`` at a ``-0.0`` row past the last message, as
``x + (-0.0) == x`` for every x, signed zeros included.  Every row
gather is ``take(..., axis=0)`` over the plans' ``np.intp`` indices,
numpy's fast path for it; the one scatter, the layered posterior
update, is a fancy assignment.  Both schedules sweep in lockstep under
``_Lanes``: with early termination a converged lane leaves the working
arrays, so its messages and posterior are never written again, and its
bits and syndrome flag are read from that final posterior.  The lanes
that stay are kept with ``take(..., axis=1)``, which returns C-ordered
arrays; ``a[:, keep]`` returns Fortran-ordered ones, on which every
later row gather and slab step runs several times slower.

The layered kernel keeps its check messages as one (edges, F) array per
level, in ``plan.edge`` order, so a level step reads and writes them
without a gather or scatter.  No array of a decode is then larger than
its (n, F) block.  A single (edge_count, F) message array would be, and
freeing it raises glibc's dynamic mmap threshold to its size, after which
every thread's malloc arena keeps up to twice that size of freed memory.
"""

from __future__ import annotations

import numpy as np

_SIGN_BIT = np.uint64(63)  # the IEEE 754 sign bit of a float64
# Flooding's (edges, F) temporaries outgrow the cache as F grows; chunks
# of 16 to 32 lanes decoded fastest per frame on a 576x288 code.
_FLOOD_LANES = 32


def _slot_block(code, plan, vals, pad):
    """vals, (edges, F) in ``plan.edge`` order, as the plan's
    (max_row_degree, rows, F) block; padding slots hold ``pad``."""
    nf = vals.shape[1]
    if plan.real is None:
        return vals.reshape(code.max_row_degree, -1, nf)
    block = np.full(plan.real.shape + (nf,), pad, dtype=vals.dtype)
    block[plan.real] = vals
    return block


def _syndrome_ok_lanes(code, bits):
    """Zero-syndrome flag per lane for hard bits of shape (n, F)."""
    block = _slot_block(code, code.row_plan, bits.take(code.row_plan.var, axis=0), 0)
    return ~np.bitwise_xor.reduce(block, axis=0).any(axis=0)


def _check_messages(vals, norm, clamp):
    """Normalized min-sum row update on a slot-major block.

    vals : (dmax, rows, F) gathered inputs, slot t of every row in
    ``vals[t]``; padding slots hold ``+inf``, which never wins a minimum
    and is never negative, so it is inert.  Returns messages of the same
    shape in a new array (garbage in padding slots); ``vals`` is unchanged.
    """
    a = np.abs(vals)
    # running two-minimum over the slots; a tie leaves min2 == min1, so
    # every slot gets the same magnitude as excluding the first minimum's
    # own slot would give it
    if a.shape[0] > 1:
        min1, min2 = np.minimum(a[0], a[1]), np.maximum(a[0], a[1])
        tmp = np.empty_like(min1)
        for t in range(2, a.shape[0]):
            np.maximum(min1, a[t], out=tmp)
            np.minimum(min2, tmp, out=min2)
            np.minimum(min1, a[t], out=min1)
    else:  # degree-1 rows only: no second minimum
        min1, min2 = a[0], np.inf
    mag = np.where(a == min1, min2, min1)
    mag *= norm
    np.minimum(mag, clamp, out=mag)
    neg = vals < 0.0
    neg ^= np.bitwise_xor.reduce(neg, axis=0)  # True where a slot's sign flips
    bits = mag.view(np.uint64)
    bits ^= np.left_shift(neg, _SIGN_BIT, dtype=np.uint64)
    return mag


def _check_rows(code, plan, vals, norm, clamp):
    """Check messages, (edges, F) in ``plan.edge`` order, from their inputs.

    A degree-1 row has no other input to take a minimum over; it sends
    ``norm * clamp``, as the row-loop kernels do.
    """
    out = _check_messages(_slot_block(code, plan, vals, np.inf), norm, clamp)
    if plan.deg1 is not None:
        out[0, plan.deg1] = norm * clamp
    return out.reshape(vals.shape) if plan.real is None else out[plan.real]


class _Lanes:
    """Lockstep sweeps over the F lanes of one decode.

    Iterating yields the working arrays, posterior first, once per sweep,
    and the sweep updates them in place.  They hold the columns of the
    ``live`` lanes only: with early termination the driver drops each
    lane whose hard decisions satisfy every check from every working
    array, writing its posterior back to ``post`` as it leaves, and the
    lanes still live are written back once, after the last sweep.  Until
    the first drop the working posterior is ``post`` itself.  A lane's
    bits and syndrome flag are those of its final posterior, so
    ``result`` derives both once, at the end.
    """

    def __init__(self, code, max_iters, early_term, *work):
        self.code, self.max_iters, self.early_term = code, max_iters, early_term
        self.post, self.work = work[0], work
        self.iters = np.full(self.post.shape[1], max_iters, dtype=np.int64)
        self.live = np.arange(self.post.shape[1])

    def __iter__(self):
        for it in range(1, self.max_iters + 1):
            yield self.work
            if self.early_term:
                done = _syndrome_ok_lanes(self.code, (self.work[0] < 0.0).view(np.uint8))
                self.iters[self.live[done]] = it
                if done.all():
                    break
                if done.any():
                    self._write_back(done)
                    keep = np.flatnonzero(~done)
                    self.live = self.live[keep]
                    self.work = tuple(a.take(keep, axis=1) for a in self.work)
        self._write_back(slice(None))

    def _write_back(self, lanes):
        """Copy the posterior of the given working lanes to ``post``."""
        work = self.work[0]
        if work is not self.post:  # a copy since a lane converged
            self.post[:, self.live[lanes]] = work[:, lanes]

    def result(self):
        """(bits, iterations, syndrome_ok, posterior) of every lane."""
        bits = (self.post < 0.0).view(np.uint8)
        return bits, self.iters, _syndrome_ok_lanes(self.code, bits), self.post


def decode_flooding(code, llr, max_iters, early_term, norm, clamp):
    """Two-phase min-sum.  Returns (bits, iterations, syndrome_ok, posterior).

    The lanes run in chunks of at most ``_FLOOD_LANES``, each under its
    own ``_Lanes``, so the working set stays that narrow at any width.
    """
    outs = [_flood_chunk(code, llr[:, s:s + _FLOOD_LANES], max_iters, early_term,
                         norm, clamp)
            for s in range(0, llr.shape[1], _FLOOD_LANES)]
    if len(outs) == 1:
        return outs[0]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*outs))


def _flood_chunk(code, llr, max_iters, early_term, norm, clamp):
    intrinsic = np.clip(llr, -clamp, clamp)
    plan = code.row_plan
    # the first sweep writes every lane's posterior before anything reads it
    lanes = _Lanes(code, max_iters, early_term,
                   np.empty_like(intrinsic), intrinsic, intrinsic.take(plan.var, axis=0))
    for post, intrinsic, v2c in lanes:  # messages in plan.edge order
        c2v = _check_rows(code, plan, v2c, norm, clamp)
        # variable totals accumulate in column-adjacency position order
        padded = np.concatenate((c2v, np.full((1, c2v.shape[1]), -0.0)))
        total = intrinsic.copy()
        for t in range(code.max_col_degree):
            total += padded.take(code.col_pad_pos[:, t], axis=0)
        np.clip(total, -clamp, clamp, out=post)
        np.take(total, plan.var, axis=0, out=v2c)  # no (edges, F) temporary
        v2c -= c2v
        np.clip(v2c, -clamp, clamp, out=v2c)
    return lanes.result()


def _layered_level(code, plan, post, msg, norm, clamp):
    """Update the rows of one level in place; they share no variable.

    msg holds the level's check messages, (edges, F) in ``plan.edge`` order.
    """
    ext = post.take(plan.var, axis=0)
    ext -= msg
    new = _check_rows(code, plan, ext, norm, clamp)
    ext += new
    np.clip(ext, -clamp, clamp, out=ext)
    msg[...] = new
    post[plan.var] = ext


def decode_layered(code, llr, max_iters, early_term, norm, clamp):
    """Horizontal layered min-sum, posteriors updated in place.

    Each sweep runs ``code.levels`` in order, one vectorised step per
    level.  Rows within a level share no variable, so the result equals
    visiting the rows one by one in ascending order.
    """
    post = np.clip(llr, -clamp, clamp)
    lanes = _Lanes(code, max_iters, early_term, post,
                   *(np.zeros((len(p.edge), llr.shape[1])) for p in code.level_plans))
    for post, *msgs in lanes:
        for plan, msg in zip(code.level_plans, msgs):
            _layered_level(code, plan, post, msg, norm, clamp)
    return lanes.result()
