"""Numba-jitted decode kernels, bit-compatible with the numpy set.

The jitted loops release the GIL so stream workers scale across cores.
Kernels follow the exact arithmetic order documented in _kernels_np:
ascending rows, edges in row order, variable sums in column-position
order.  They visit the rows one by one, so they also serve as the
reference for the numpy kernel's level schedule; without numba they
import with a no-op ``njit`` and run as plain Python.  First call per
signature pays JIT compilation; cache=True keeps the result on disk.
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
def _syndrome_ok(row_ptr, edge_var, bits, s):
    """True iff lane s of the hard bits satisfies every check."""
    for j in range(row_ptr.shape[0] - 1):
        p = 0
        for t in range(row_ptr[j], row_ptr[j + 1]):
            p ^= bits[edge_var[t], s]
        if p:
            return False
    return True


@njit(cache=True, nogil=True)
def _flooding_kernel(row_ptr, edge_var, col_ptr, col_edge, llr,
                     max_iters, early_term, norm, clamp):
    n, nf = llr.shape
    m = row_ptr.shape[0] - 1
    ne = edge_var.shape[0]

    intrinsic = np.empty((n, nf))
    for i in range(n):
        for s in range(nf):
            x = llr[i, s]
            if x > clamp:
                x = clamp
            elif x < -clamp:
                x = -clamp
            intrinsic[i, s] = x
    post = intrinsic.copy()

    v2c = np.empty((ne, nf))
    for e in range(ne):
        i = edge_var[e]
        for s in range(nf):
            v2c[e, s] = intrinsic[i, s]
    c2v = np.zeros((ne, nf))

    bits = np.zeros((n, nf), dtype=np.uint8)
    iters = np.full(nf, max_iters, dtype=np.int64)
    ok = np.zeros(nf, dtype=np.bool_)
    active = np.ones(nf, dtype=np.bool_)

    min1 = np.empty(nf)
    min2 = np.empty(nf)
    first = np.empty(nf, dtype=np.int64)
    tsign = np.empty(nf)

    for it in range(1, max_iters + 1):
        # check-node phase: reads v2c written last phase, writes c2v
        for j in range(m):
            lo = row_ptr[j]
            hi = row_ptr[j + 1]
            d = hi - lo
            if d == 1:
                v = norm * clamp
                for s in range(nf):
                    if active[s]:
                        c2v[lo, s] = v
                continue
            for s in range(nf):
                min1[s] = _INF
                min2[s] = _INF
                first[s] = -1
                tsign[s] = 1.0
            for t in range(d):
                e = lo + t
                for s in range(nf):
                    x = v2c[e, s]
                    a = -x if x < 0.0 else x
                    if x < 0.0:
                        tsign[s] = -tsign[s]
                    if a < min1[s]:
                        min2[s] = min1[s]
                        min1[s] = a
                        first[s] = t
                    elif a < min2[s]:
                        min2[s] = a
            for t in range(d):
                e = lo + t
                for s in range(nf):
                    if not active[s]:
                        continue
                    x = v2c[e, s]
                    so = -tsign[s] if x < 0.0 else tsign[s]
                    mag = min2[s] if first[s] == t else min1[s]
                    v = norm * (so * mag)
                    if v > clamp:
                        v = clamp
                    elif v < -clamp:
                        v = -clamp
                    c2v[e, s] = v

        # variable-node phase: totals in column-position order
        for i in range(n):
            clo = col_ptr[i]
            chi = col_ptr[i + 1]
            for s in range(nf):
                if not active[s]:
                    continue
                total = intrinsic[i, s]
                for t in range(clo, chi):
                    total += c2v[col_edge[t], s]
                p = total
                if p > clamp:
                    p = clamp
                elif p < -clamp:
                    p = -clamp
                post[i, s] = p
                for t in range(clo, chi):
                    e = col_edge[t]
                    v = total - c2v[e, s]
                    if v > clamp:
                        v = clamp
                    elif v < -clamp:
                        v = -clamp
                    v2c[e, s] = v
                bits[i, s] = 1 if post[i, s] < 0.0 else 0

        if early_term:
            for s in range(nf):
                if active[s] and _syndrome_ok(row_ptr, edge_var, bits, s):
                    active[s] = False
                    iters[s] = it
                    ok[s] = True
            if not active.any():
                break

    if not early_term:
        for s in range(nf):
            ok[s] = _syndrome_ok(row_ptr, edge_var, bits, s)
    return bits, iters, ok, post


@njit(cache=True, nogil=True)
def _layered_kernel(row_ptr, edge_var, llr, max_iters, early_term, norm, clamp):
    n, nf = llr.shape
    m = row_ptr.shape[0] - 1
    ne = edge_var.shape[0]

    post = np.empty((n, nf))
    for i in range(n):
        for s in range(nf):
            x = llr[i, s]
            if x > clamp:
                x = clamp
            elif x < -clamp:
                x = -clamp
            post[i, s] = x
    msg = np.zeros((ne, nf))

    bits = np.zeros((n, nf), dtype=np.uint8)
    iters = np.full(nf, max_iters, dtype=np.int64)
    ok = np.zeros(nf, dtype=np.bool_)
    active = np.ones(nf, dtype=np.bool_)

    dmax = 0
    for j in range(m):
        d = row_ptr[j + 1] - row_ptr[j]
        if d > dmax:
            dmax = d
    ext = np.empty((dmax, nf))
    min1 = np.empty(nf)
    min2 = np.empty(nf)
    first = np.empty(nf, dtype=np.int64)
    tsign = np.empty(nf)

    for it in range(1, max_iters + 1):
        for j in range(m):
            lo = row_ptr[j]
            hi = row_ptr[j + 1]
            d = hi - lo
            if d == 1:
                i = edge_var[lo]
                v = norm * clamp
                for s in range(nf):
                    if not active[s]:
                        continue
                    p = (post[i, s] - msg[lo, s]) + v
                    if p > clamp:
                        p = clamp
                    elif p < -clamp:
                        p = -clamp
                    msg[lo, s] = v
                    post[i, s] = p
                continue
            for s in range(nf):
                min1[s] = _INF
                min2[s] = _INF
                first[s] = -1
                tsign[s] = 1.0
            for t in range(d):
                e = lo + t
                i = edge_var[e]
                for s in range(nf):
                    x = post[i, s] - msg[e, s]
                    ext[t, s] = x
                    a = -x if x < 0.0 else x
                    if x < 0.0:
                        tsign[s] = -tsign[s]
                    if a < min1[s]:
                        min2[s] = min1[s]
                        min1[s] = a
                        first[s] = t
                    elif a < min2[s]:
                        min2[s] = a
            for t in range(d):
                e = lo + t
                i = edge_var[e]
                for s in range(nf):
                    if not active[s]:
                        continue
                    x = ext[t, s]
                    so = -tsign[s] if x < 0.0 else tsign[s]
                    mag = min2[s] if first[s] == t else min1[s]
                    v = norm * (so * mag)
                    if v > clamp:
                        v = clamp
                    elif v < -clamp:
                        v = -clamp
                    p = x + v
                    if p > clamp:
                        p = clamp
                    elif p < -clamp:
                        p = -clamp
                    msg[e, s] = v
                    post[i, s] = p

        for i in range(n):
            for s in range(nf):
                if active[s]:
                    bits[i, s] = 1 if post[i, s] < 0.0 else 0

        if early_term:
            for s in range(nf):
                if active[s] and _syndrome_ok(row_ptr, edge_var, bits, s):
                    active[s] = False
                    iters[s] = it
                    ok[s] = True
            if not active.any():
                break

    if not early_term:
        for s in range(nf):
            ok[s] = _syndrome_ok(row_ptr, edge_var, bits, s)
    return bits, iters, ok, post


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


def warmup():
    """Force JIT compilation on a toy code so first real decode is cheap."""
    row_ptr = np.array([0, 2, 4], dtype=np.int32)
    edge_var = np.array([0, 1, 1, 2], dtype=np.int32)
    col_ptr = np.array([0, 1, 3, 4], dtype=np.int32)
    col_edge = np.array([0, 1, 2, 3], dtype=np.int32)
    llr = np.ones((3, 2))
    _flooding_kernel(row_ptr, edge_var, col_ptr, col_edge, llr, 2, True, 1.0, 64.0)
    _flooding_kernel(row_ptr, edge_var, col_ptr, col_edge, llr, 2, False, 1.0, 64.0)
    _layered_kernel(row_ptr, edge_var, llr, 2, True, 1.0, 64.0)
    _layered_kernel(row_ptr, edge_var, llr, 2, False, 1.0, 64.0)
