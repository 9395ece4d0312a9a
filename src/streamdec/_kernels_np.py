"""Pure-numpy decode kernels over lane-major (n, F) arrays.

Lane s of column axis F is one frame.  The per-lane arithmetic order is
the contract shared with the numba kernels: checks are visited in
ascending row order, edges in row order, and variable sums accumulate
in column-adjacency position order.  The layered kernel runs the rows
level by level (``ParityCheckCode.levels``): levels run in order and
rows within a level share no variable, so each level is one vectorised
step with the ascending-row result.  Every check-node update goes
through ``_check_messages``.  With early termination, converged lanes
freeze: their messages, posteriors and bits are never written again.
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


def _var_totals(code, intrinsic, c2v):
    """intrinsic + incident check messages, accumulated in position order."""
    total = intrinsic.copy()
    for t in range(code.max_col_degree):
        sel = code.col_pad_mask[:, t]
        total[sel] += c2v[code.col_pad_edge[sel, t], :]
    return total


def decode_flooding(code, llr, max_iters, early_term, norm, clamp):
    """Two-phase min-sum.  Returns (bits, iterations, syndrome_ok, posterior)."""
    n, nf = llr.shape
    intrinsic = np.clip(llr, -clamp, clamp)
    post = intrinsic.copy()
    v2c = intrinsic[code.edge_var, :].copy()
    c2v = np.zeros((code.edge_count, nf))
    bits = np.zeros((n, nf), dtype=np.uint8)
    iters = np.full(nf, max_iters, dtype=np.int64)
    ok = np.zeros(nf, dtype=bool)
    active = np.ones(nf, dtype=bool)

    for it in range(1, max_iters + 1):
        vals = v2c[code.row_pad_edge, :]
        out = _check_messages(vals, code.row_pad_mask, norm, clamp)
        new_c2v = out[code.row_pad_mask]
        if code.deg1_rows.size:
            new_c2v[code.row_ptr[code.deg1_rows]] = norm * clamp
        total = _var_totals(code, intrinsic, new_c2v)
        new_post = np.clip(total, -clamp, clamp)
        new_v2c = np.clip(total[code.edge_var, :] - new_c2v, -clamp, clamp)

        post[:, active] = new_post[:, active]
        v2c[:, active] = new_v2c[:, active]
        c2v[:, active] = new_c2v[:, active]
        bits[:, active] = (new_post[:, active] < 0.0)

        if early_term:
            converged = active & _syndrome_ok_lanes(code, bits)
            iters[converged] = it
            ok[converged] = True
            active &= ~converged
            if not active.any():
                break

    if not early_term:
        ok[:] = _syndrome_ok_lanes(code, bits)
    return bits, iters, ok, post


def _layered_level(code, rows, post, msg, norm, clamp):
    """Update the rows of one level in place; they share no variable."""
    edges = code.row_pad_edge[rows]
    mask = code.row_pad_mask[rows]
    var = code.edge_var[edges]
    ext = post[var, :] - msg[edges, :]
    new = _check_messages(ext, mask, norm, clamp)
    new[code.row_degrees[rows] == 1, 0, :] = norm * clamp
    new_post = ext + new
    np.clip(new_post, -clamp, clamp, out=new_post)
    msg[edges[mask], :] = new[mask]
    post[var[mask], :] = new_post[mask]


def decode_layered(code, llr, max_iters, early_term, norm, clamp):
    """Horizontal layered min-sum, posteriors updated in place.

    Each sweep runs ``code.levels`` in order, one vectorised step per
    level.  Rows within a level share no variable, so the result equals
    visiting the rows one by one in ascending order.
    """
    n, nf = llr.shape
    post = np.clip(llr, -clamp, clamp)
    bits = np.zeros((n, nf), dtype=np.uint8)
    iters = np.full(nf, max_iters, dtype=np.int64)
    ok = np.zeros(nf, dtype=bool)
    active = np.ones(nf, dtype=bool)
    # the lanes still decoding, whose columns the working arrays hold: all of
    # them, in place, until the first lane freezes
    live = np.arange(nf)
    work_post, work_msg = post, np.zeros((code.edge_count, nf))

    for it in range(1, max_iters + 1):
        for rows in code.levels:
            _layered_level(code, rows, work_post, work_msg, norm, clamp)
        if work_post is not post:
            post[:, live] = work_post
        bits[:, live] = (work_post < 0.0)

        if early_term:
            converged = active & _syndrome_ok_lanes(code, bits)
            iters[converged] = it
            ok[converged] = True
            active &= ~converged
            if not active.any():
                break
            if converged.any():
                keep = active[live]
                live = live[keep]
                work_post, work_msg = work_post[:, keep], work_msg[:, keep]

    if not early_term:
        ok[:] = _syndrome_ok_lanes(code, bits)
    return bits, iters, ok, post


def warmup():
    """Nothing to precompile for the numpy path."""
