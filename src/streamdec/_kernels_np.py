"""Pure-numpy decode kernels over lane-major (n, F) arrays.

Lane s of column axis F is one frame.  The per-lane arithmetic order is
the contract shared with the numba kernels: checks are visited in
ascending row order, edges in row order, and variable sums accumulate
in column-adjacency position order.  The layered kernel runs the rows
level by level (``ParityCheckCode.levels``): levels run in order and
rows within a level share no variable, so each level is one vectorised
step with the ascending-row result.  Every check-node update goes
through ``_check_rows``.  Both schedules sweep under one driver,
``_Lanes``: with early termination a converged lane leaves the working
arrays, so its messages, posteriors and bits are never written again.
"""

from __future__ import annotations

import numpy as np

NAME = "numpy"


def _syndrome_ok_lanes(code, bits):
    """Zero-syndrome flag per lane for hard bits of shape (n, F)."""
    parity = np.bitwise_xor.reduceat(bits[code.edge_var, :], code.row_ptr[:-1], axis=0)
    return ~parity.any(axis=0)


def _check_messages(vals, mask, norm, clamp):
    """Normalized min-sum row update on padded rows.

    vals : (m, dmax, F) gathered inputs; slots outside ``mask`` are inert.
    Returns messages of the same shape (garbage in masked-out slots).
    """
    m, dmax, nf = vals.shape
    a = np.where(mask[:, :, None], np.abs(vals), np.inf)
    first = np.argmin(a, axis=1)
    min1 = np.take_along_axis(a, first[:, None, :], axis=1)[:, 0, :]
    rest = a.copy()
    np.put_along_axis(rest, first[:, None, :], np.inf, axis=1)
    min2 = rest.min(axis=1)
    neg = (vals < 0.0) & mask[:, :, None]
    total_sign = 1.0 - 2.0 * (neg.sum(axis=1) & 1)
    pos = np.arange(dmax)[None, :, None]
    mag = np.where(pos == first[:, None, :], min2[:, None, :], min1[:, None, :])
    sign_in = np.where(neg, -1.0, 1.0)
    out = norm * (total_sign[:, None, :] * sign_in * mag)
    np.clip(out, -clamp, clamp, out=out)
    return out


def _check_rows(code, rows, vals, norm, clamp):
    """Check messages of ``rows`` from their gathered (rows, dmax, F) inputs.

    A degree-1 row has no other input to take a minimum over; it sends
    ``norm * clamp``, as the row-loop kernels do.
    """
    out = _check_messages(vals, code.row_pad_mask[rows], norm, clamp)
    out[code.row_degrees[rows] == 1, 0, :] = norm * clamp
    return out


class _Lanes:
    """Lockstep sweeps over the F lanes of one decode.

    Iterating yields the working arrays, posterior first, once per sweep,
    and the sweep updates them in place.  They hold the columns of the
    ``live`` lanes only: after each sweep the driver writes the posterior
    back and takes the hard decisions, and with early termination it drops
    each converged lane from every working array.
    """

    def __init__(self, code, max_iters, early_term, *work):
        self.code, self.max_iters, self.early_term = code, max_iters, early_term
        self.post, self.work = work[0], work
        n, nf = self.post.shape
        self.bits = np.zeros((n, nf), dtype=np.uint8)
        self.iters = np.full(nf, max_iters, dtype=np.int64)
        self.ok = np.zeros(nf, dtype=bool)
        self.live = np.arange(nf)

    def __iter__(self):
        for it in range(1, self.max_iters + 1):
            yield self.work
            post = self.work[0]
            if post is not self.post:  # a copy since a lane converged
                self.post[:, self.live] = post
            hard = (post < 0.0).view(np.uint8)
            self.bits[:, self.live] = hard
            if self.early_term:
                done = _syndrome_ok_lanes(self.code, hard)
                self.iters[self.live[done]] = it
                self.ok[self.live[done]] = True
                if done.all():
                    return
                if done.any():
                    self.live = self.live[~done]
                    self.work = tuple(a[:, ~done] for a in self.work)

    def result(self):
        """(bits, iterations, syndrome_ok, posterior) of every lane."""
        if not self.early_term:
            self.ok[:] = _syndrome_ok_lanes(self.code, self.bits)
        return self.bits, self.iters, self.ok, self.post


def decode_flooding(code, llr, max_iters, early_term, norm, clamp):
    """Two-phase min-sum.  Returns (bits, iterations, syndrome_ok, posterior)."""
    intrinsic = np.clip(llr, -clamp, clamp)
    lanes = _Lanes(code, max_iters, early_term,
                   intrinsic.copy(), intrinsic, intrinsic[code.edge_var, :])
    for post, intrinsic, v2c in lanes:
        vals = v2c[code.row_pad_edge, :]
        out = _check_rows(code, slice(None), vals, norm, clamp)
        c2v = out[code.row_pad_mask]
        # variable totals accumulate in column-adjacency position order
        total = intrinsic.copy()
        for t in range(code.max_col_degree):
            sel = code.col_pad_mask[:, t]
            total[sel] += c2v[code.col_pad_edge[sel, t], :]
        np.clip(total, -clamp, clamp, out=post)
        np.take(total, code.edge_var, axis=0, out=v2c)  # no (edges, F) temporary
        v2c -= c2v
        np.clip(v2c, -clamp, clamp, out=v2c)
    return lanes.result()


def _layered_level(code, rows, post, msg, norm, clamp):
    """Update the rows of one level in place; they share no variable."""
    edges = code.row_pad_edge[rows]
    var = code.edge_var[edges]
    ext = post[var, :] - msg[edges, :]
    new = _check_rows(code, rows, ext, norm, clamp)
    new_post = ext + new
    np.clip(new_post, -clamp, clamp, out=new_post)
    mask = code.row_pad_mask[rows]
    msg[edges[mask], :] = new[mask]
    post[var[mask], :] = new_post[mask]


def decode_layered(code, llr, max_iters, early_term, norm, clamp):
    """Horizontal layered min-sum, posteriors updated in place.

    Each sweep runs ``code.levels`` in order, one vectorised step per
    level.  Rows within a level share no variable, so the result equals
    visiting the rows one by one in ascending order.
    """
    lanes = _Lanes(code, max_iters, early_term, np.clip(llr, -clamp, clamp),
                   np.zeros((code.edge_count, llr.shape[1])))
    for post, msg in lanes:
        for rows in code.levels:
            _layered_level(code, rows, post, msg, norm, clamp)
    return lanes.result()


def warmup():
    """Nothing to precompile for the numpy path."""
