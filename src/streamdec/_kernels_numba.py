"""Numba-jitted decode kernels, bit-compatible with the numpy set.

The jitted loops release the GIL so stream workers scale across cores.
Kernels follow the exact arithmetic order documented in _kernels_np:
ascending rows, edges in row order, variable sums in column-position
order.  They visit the rows one by one, so they also serve as the
reference for the numpy kernel's level schedule; without numba they
import with a no-op ``njit`` and run as plain Python.  First call per
signature pays JIT compilation; cache=True keeps the result on disk.

Each rule is written once and both schedules call it: ``_clip`` bounds
every stored value, ``_row_messages`` is the min-sum update of one check
row, and ``_retire`` is the early-termination step.  A retired lane's
posterior is never written again, so ``_result`` takes every lane's bits
and syndrome flag from its final posterior.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover - plain-python stand-in
    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap

_INF = np.inf


@njit(cache=True, nogil=True)
def _clip(x, clamp):
    if x > clamp:
        return clamp
    if x < -clamp:
        return -clamp
    return x


@njit(cache=True, nogil=True)
def _clipped(llr, clamp):
    out = np.empty(llr.shape)
    for i in range(llr.shape[0]):
        for s in range(llr.shape[1]):
            out[i, s] = _clip(llr[i, s], clamp)
    return out


@njit(cache=True, nogil=True)
def _row_messages(x, out, active, norm, clamp, min1, min2, first, tsign):
    """Min-sum messages of one check row, from x into out, active lanes only.

    x, out : (d, F), edges in row order.  Output t carries the product of
    the other signs times the smallest other magnitude, scaled by norm and
    clipped; a degree-1 row has no other input and sends ``norm * clamp``.
    min1, min2, first and tsign are (F,) scratch.
    """
    d, nf = x.shape
    if d == 1:
        for s in range(nf):
            if active[s]:
                out[0, s] = norm * clamp
        return
    for s in range(nf):
        min1[s] = _INF
        min2[s] = _INF
        first[s] = -1
        tsign[s] = 1.0
    for t in range(d):
        for s in range(nf):
            v = x[t, s]
            a = abs(v)
            if v < 0.0:
                tsign[s] = -tsign[s]
            if a < min1[s]:
                min2[s] = min1[s]
                min1[s] = a
                first[s] = t
            elif a < min2[s]:
                min2[s] = a
    for t in range(d):
        for s in range(nf):
            if active[s]:
                so = -tsign[s] if x[t, s] < 0.0 else tsign[s]
                mag = min2[s] if first[s] == t else min1[s]
                out[t, s] = _clip(norm * (so * mag), clamp)


@njit(cache=True, nogil=True)
def _syndrome_ok(row_ptr, edge_var, post, s):
    """True iff lane s's hard decisions (post < 0) satisfy every check."""
    for j in range(row_ptr.shape[0] - 1):
        p = 0
        for t in range(row_ptr[j], row_ptr[j + 1]):
            if post[edge_var[t], s] < 0.0:
                p ^= 1
        if p:
            return False
    return True


@njit(cache=True, nogil=True)
def _retire(row_ptr, edge_var, post, active, iters, it):
    """Freeze each active lane that satisfies every check after sweep it;
    False once no lane is left active."""
    for s in range(active.shape[0]):
        if active[s] and _syndrome_ok(row_ptr, edge_var, post, s):
            active[s] = False
            iters[s] = it
    return active.any()


@njit(cache=True, nogil=True)
def _result(row_ptr, edge_var, post, iters):
    """(bits, iterations, syndrome_ok, posterior) of every lane."""
    ok = np.empty(post.shape[1], dtype=np.bool_)
    for s in range(post.shape[1]):
        ok[s] = _syndrome_ok(row_ptr, edge_var, post, s)
    return (post < 0.0).astype(np.uint8), iters, ok, post


@njit(cache=True, nogil=True)
def _flooding_kernel(row_ptr, edge_var, col_ptr, col_edge, llr,
                     max_iters, early_term, norm, clamp):
    n, nf = llr.shape
    intrinsic = _clipped(llr, clamp)
    post = intrinsic.copy()
    v2c = intrinsic[edge_var]
    c2v = np.zeros(v2c.shape)
    iters = np.full(nf, max_iters, dtype=np.int64)
    active = np.ones(nf, dtype=np.bool_)
    min1 = np.empty(nf)
    min2 = np.empty(nf)
    first = np.empty(nf, dtype=np.int64)
    tsign = np.empty(nf)

    for it in range(1, max_iters + 1):
        # check-node phase: reads v2c written last phase, writes c2v
        for j in range(row_ptr.shape[0] - 1):
            lo = row_ptr[j]
            hi = row_ptr[j + 1]
            _row_messages(v2c[lo:hi], c2v[lo:hi], active, norm, clamp,
                          min1, min2, first, tsign)
        # variable-node phase: totals in column-position order
        for i in range(n):
            for s in range(nf):
                if not active[s]:
                    continue
                total = intrinsic[i, s]
                for t in range(col_ptr[i], col_ptr[i + 1]):
                    total += c2v[col_edge[t], s]
                post[i, s] = _clip(total, clamp)
                for t in range(col_ptr[i], col_ptr[i + 1]):
                    e = col_edge[t]
                    v2c[e, s] = _clip(total - c2v[e, s], clamp)
        if early_term and not _retire(row_ptr, edge_var, post, active, iters, it):
            break
    return _result(row_ptr, edge_var, post, iters)


@njit(cache=True, nogil=True)
def _layered_kernel(row_ptr, edge_var, llr, max_iters, early_term, norm, clamp):
    nf = llr.shape[1]
    post = _clipped(llr, clamp)
    msg = np.zeros((edge_var.shape[0], nf))
    iters = np.full(nf, max_iters, dtype=np.int64)
    active = np.ones(nf, dtype=np.bool_)
    dmax = np.max(row_ptr[1:] - row_ptr[:-1])
    ext = np.empty((dmax, nf))
    new = np.empty((dmax, nf))
    min1 = np.empty(nf)
    min2 = np.empty(nf)
    first = np.empty(nf, dtype=np.int64)
    tsign = np.empty(nf)

    for it in range(1, max_iters + 1):
        for j in range(row_ptr.shape[0] - 1):
            lo = row_ptr[j]
            d = row_ptr[j + 1] - lo
            for t in range(d):
                i = edge_var[lo + t]
                for s in range(nf):
                    ext[t, s] = post[i, s] - msg[lo + t, s]
            _row_messages(ext[:d], new[:d], active, norm, clamp,
                          min1, min2, first, tsign)
            for t in range(d):
                i = edge_var[lo + t]
                for s in range(nf):
                    if active[s]:
                        msg[lo + t, s] = new[t, s]
                        post[i, s] = _clip(ext[t, s] + new[t, s], clamp)
        if early_term and not _retire(row_ptr, edge_var, post, active, iters, it):
            break
    return _result(row_ptr, edge_var, post, iters)


def decode_flooding(code, llr, max_iters, early_term, norm, clamp):
    """Two-phase min-sum.  Returns (bits, iterations, syndrome_ok, posterior)."""
    return _flooding_kernel(code.row_ptr, code.edge_var, code.col_ptr, code.col_edge,
                            np.ascontiguousarray(llr, dtype=np.float64),
                            max_iters, early_term, float(norm), float(clamp))


def decode_layered(code, llr, max_iters, early_term, norm, clamp):
    """Horizontal layered min-sum, rows ascending, posteriors updated in place."""
    return _layered_kernel(code.row_ptr, code.edge_var,
                           np.ascontiguousarray(llr, dtype=np.float64),
                           max_iters, early_term, float(norm), float(clamp))
