"""Pure-numpy decode kernels over lane-major (n, F) arrays.

Lane s of column axis F is one frame.  The per-lane arithmetic order is
the contract shared with the numba kernels: checks are visited in
ascending row order, edges in row order, and variable sums accumulate
in column-adjacency position order.  The layered kernel runs the rows
level by level (``ParityCheckCode.levels``): levels run in order and
rows within a level share no variable, so each level is one vectorised
step with the ascending-row result.  Padding is inert, never masked:
the check step pads rows to ``max_row_degree`` with ``+inf``, which
never wins a minimum and is never negative, and the flooding variable
phase points the padding slots of ``code.col_pad_edge`` at a ``-0.0``
row past the last edge, as ``x + (-0.0) == x`` for every x, signed zeros
included.  Every check-node update goes through ``_check_rows`` over a
``RowPlan`` that the code builds once.  ``_check_messages`` takes the
two smallest magnitudes from one ``np.partition`` and each slot's sign
as its own sign XOR the row's sign parity; the result equals the row
loops' ``norm * (sign * mag)``, clipped, bit for bit, signed zeros
included.  Both schedules sweep in lockstep under ``_Lanes``: with early
termination a converged lane leaves the working arrays, so its messages
and posterior are never written again, and its bits and syndrome flag
are read from that final posterior.

The layered kernel keeps its check messages as one (edges, F) array per
level, in ``plan.edge`` order, so a level step reads and writes them
without a gather or scatter.  No array of a decode is then larger than
its (n, F) block.  A single (edge_count, F) message array would be, and
freeing it raises glibc's dynamic mmap threshold to its size, after which
every thread's malloc arena keeps up to twice that size of freed memory.

A kernel owns the (n, F) LLR block it is given: it clips the block in
place and keeps it as its posterior buffer (layered) or intrinsic buffer
(flooding), so the caller must not read the block afterwards.  A caller
that needs its LLRs back passes a copy.
"""

from __future__ import annotations

import numpy as np


def _syndrome_ok_lanes(code, bits):
    """Zero-syndrome flag per lane for hard bits of shape (n, F)."""
    parity = np.bitwise_xor.reduceat(bits[code.edge_var, :], code.row_ptr[:-1], axis=0)
    return ~parity.any(axis=0)


def _check_messages(vals, norm, clamp):
    """Normalized min-sum row update on padded rows.

    vals : (m, dmax, F) gathered inputs; padding slots hold ``+inf``, which
    never wins a minimum and is never negative, so it is inert.
    Returns messages of the same shape (garbage in padding slots).
    """
    a = np.abs(vals)
    if a.shape[1] > 1:
        two = np.partition(a, 1, axis=1)
        min1, min2 = two[:, :1], two[:, 1:2]
    else:  # degree-1 rows only: no second minimum
        min1, min2 = a, np.inf
    # a tied minimum leaves min2 == min1, so every slot gets the same
    # magnitude as excluding the first minimum's own slot would give it
    mag = np.where(a == min1, min2, min1)
    mag *= norm
    np.minimum(mag, clamp, out=mag)
    neg = vals < 0.0
    flip = neg ^ np.bitwise_xor.reduce(neg, axis=1, keepdims=True)
    return np.where(flip, -mag, mag)  # np.negative(where=) is ~7x slower at F=32


def _check_rows(code, plan, vals, norm, clamp):
    """Check messages, (edges, F) in ``plan.edge`` order, from their inputs.

    A degree-1 row has no other input to take a minimum over; it sends
    ``norm * clamp``, as the row-loop kernels do.
    """
    nf = vals.shape[1]
    if plan.real is None:
        padded = vals.reshape(-1, code.max_row_degree, nf)
    else:
        padded = np.full(plan.real.shape + (nf,), np.inf)
        padded[plan.real] = vals
    out = _check_messages(padded, norm, clamp)
    if plan.deg1 is not None:
        out[plan.deg1, 0] = norm * clamp
    return out.reshape(-1, nf) if plan.real is None else out[plan.real]


class _Lanes:
    """Lockstep sweeps over the F lanes of one decode.

    Iterating yields the working arrays, posterior first, once per sweep,
    and the sweep updates them in place.  They hold the columns of the
    ``live`` lanes only: after each sweep the driver writes the posterior
    back, and with early termination it drops each lane whose hard
    decisions satisfy every check from every working array.  A lane's
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
            post = self.work[0]
            if post is not self.post:  # a copy since a lane converged
                self.post[:, self.live] = post
            if self.early_term:
                done = _syndrome_ok_lanes(self.code, (post < 0.0).view(np.uint8))
                self.iters[self.live[done]] = it
                if done.all():
                    return
                if done.any():
                    self.live = self.live[~done]
                    self.work = tuple(a[:, ~done] for a in self.work)

    def result(self):
        """(bits, iterations, syndrome_ok, posterior) of every lane."""
        bits = (self.post < 0.0).view(np.uint8)
        return bits, self.iters, _syndrome_ok_lanes(self.code, bits), self.post


def decode_flooding(code, llr, max_iters, early_term, norm, clamp):
    """Two-phase min-sum over an owned llr block, which becomes the clipped
    intrinsic buffer.  Returns (bits, iterations, syndrome_ok, posterior)."""
    intrinsic = np.clip(llr, -clamp, clamp, out=llr)
    lanes = _Lanes(code, max_iters, early_term,
                   intrinsic.copy(), intrinsic, intrinsic[code.edge_var, :])
    for post, intrinsic, v2c in lanes:
        c2v = _check_rows(code, code.row_plan, v2c, norm, clamp)
        # variable totals accumulate in column-adjacency position order
        padded = np.concatenate((c2v, np.full((1, c2v.shape[1]), -0.0)))
        total = intrinsic.copy()
        for t in range(code.max_col_degree):
            total += padded[code.col_pad_edge[:, t]]
        np.clip(total, -clamp, clamp, out=post)
        np.take(total, code.edge_var, axis=0, out=v2c)  # no (edges, F) temporary
        v2c -= c2v
        np.clip(v2c, -clamp, clamp, out=v2c)
    return lanes.result()


def _layered_level(code, plan, post, msg, norm, clamp):
    """Update the rows of one level in place; they share no variable.

    msg holds the level's check messages, (edges, F) in ``plan.edge`` order.
    """
    ext = post[plan.var] - msg
    new = _check_rows(code, plan, ext, norm, clamp)
    ext += new
    np.clip(ext, -clamp, clamp, out=ext)
    msg[...] = new
    post[plan.var] = ext


def decode_layered(code, llr, max_iters, early_term, norm, clamp):
    """Horizontal layered min-sum over an owned llr block, which becomes
    the posterior buffer, updated in place.

    Each sweep runs ``code.levels`` in order, one vectorised step per
    level.  Rows within a level share no variable, so the result equals
    visiting the rows one by one in ascending order.
    """
    post = np.clip(llr, -clamp, clamp, out=llr)
    lanes = _Lanes(code, max_iters, early_term, post,
                   *(np.zeros((len(p.edge), llr.shape[1])) for p in code.level_plans))
    for post, *msgs in lanes:
        for plan, msg in zip(code.level_plans, msgs):
            _layered_level(code, plan, post, msg, norm, clamp)
    return lanes.result()


def warmup():
    """Nothing to precompile for the numpy path."""
