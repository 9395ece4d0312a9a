"""Backend selection and numpy/numba bit-compatibility."""

import numpy as np
import pytest

from streamdec import (
    AwgnChannel,
    DecoderConfig,
    decode_batch,
    from_dense,
    interleave,
    llr_from_channel,
    modulate_bpsk,
    random_regular_code,
    transmit,
)
from streamdec import _kernels_np, _kernels_numba
from streamdec.backend import HAVE_NUMBA, active_backend, available_backends, get_kernels

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")


def test_env_flag_selects_backend(monkeypatch):
    monkeypatch.setenv("STREAMDEC_BACKEND", "numpy")
    assert active_backend() == "numpy"
    monkeypatch.setenv("STREAMDEC_BACKEND", "auto")
    assert active_backend() in ("numba", "numpy")
    monkeypatch.setenv("STREAMDEC_BACKEND", "metal")
    with pytest.raises(ValueError):
        active_backend()


@needs_numba
def test_env_flag_numba(monkeypatch):
    monkeypatch.setenv("STREAMDEC_BACKEND", "numba")
    assert active_backend() == "numba"


def test_default_prefers_numba_when_available(monkeypatch):
    monkeypatch.delenv("STREAMDEC_BACKEND", raising=False)
    assert active_backend() == ("numba" if HAVE_NUMBA else "numpy")
    assert active_backend() in available_backends()


def test_get_kernels_rejects_unknown():
    with pytest.raises(ValueError):
        get_kernels("fortran")


def test_kernel_modules_expose_uniform_api():
    for name in available_backends():
        mod = get_kernels(name)
        assert callable(mod.decode_flooding)
        assert callable(mod.decode_layered)
        assert callable(mod.warmup)
        assert mod.NAME == name


@needs_numba
@pytest.mark.parametrize("schedule", ["flooding", "layered"])
@pytest.mark.parametrize("early", [True, False])
def test_backends_bit_identical(schedule, early):
    code = random_regular_code(128, 64, 6, seed=13)
    ch = AwgnChannel(2.0, 0.5, seed=31)
    sym = modulate_bpsk(np.zeros(code.n, dtype=np.uint8))
    frames = np.array([llr_from_channel(ch, transmit(ch, sym, i)) for i in range(16)])
    config = DecoderConfig(schedule=schedule, max_iterations=15,
                           early_termination=early, normalization=0.75)
    batch = interleave(frames)
    via_np = decode_batch(code, batch, config, backend="numpy")
    via_nb = decode_batch(code, batch, config, backend="numba")
    for a, b in zip(via_np, via_nb):
        assert np.array_equal(a.bits, b.bits)
        assert a.iterations_run == b.iterations_run
        assert a.syndrome_ok == b.syndrome_ok


@needs_numba
def test_backends_identical_with_degree_one_checks():
    h = np.array([[1, 0, 0, 0],
                  [1, 1, 1, 0],
                  [0, 1, 1, 1]], dtype=np.uint8)
    from streamdec import from_dense
    code = from_dense(h)
    rng = np.random.default_rng(6)
    frames = rng.normal(0, 4, (8, 4))
    for schedule in ("flooding", "layered"):
        config = DecoderConfig(schedule=schedule, max_iterations=8,
                               early_termination=True, normalization=0.75,
                               llr_clamp=12.0)
        a = decode_batch(code, interleave(frames), config, backend="numpy")
        b = decode_batch(code, interleave(frames), config, backend="numba")
        for x, y in zip(a, b):
            assert np.array_equal(x.bits, y.bits)
            assert x.iterations_run == y.iterations_run


def _irregular_code(rng, m, n):
    """Random code with varied row and column degrees and one degree-1 row."""
    while True:
        h = (rng.random((m, n)) < 0.3).astype(np.uint8)
        h[0] = 0
        h[0, rng.integers(n)] = 1
        if h.any(axis=0).all() and h.any(axis=1).all():
            return from_dense(h)


def _assert_kernels_match(schedule, code, llr, early):
    """Assert both kernel sets agree; return how many distinct sweep counts."""
    args = (code, llr, 8, early, 0.75, 12.0)
    want = getattr(_kernels_np, f"decode_{schedule}")(*args)
    got = getattr(_kernels_numba, f"decode_{schedule}")(*args)
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return len(set(want[1].tolist()))


@pytest.mark.parametrize("schedule", ["flooding", "layered"])
@pytest.mark.parametrize("early", [True, False])
def test_row_loop_kernels_match_numpy(schedule, early):
    # _kernels_numba imports without numba too (its njit then returns the
    # plain function), so its row-by-row loops check the vectorised numpy
    # kernels on every host
    rng = np.random.default_rng(17)
    staggered = False
    for _ in range(4):
        code = _irregular_code(rng, 12, 24)
        f = int(rng.integers(2, 9))
        llr = 1.0 + rng.normal(0, 1.5, (code.n, f))
        staggered |= _assert_kernels_match(schedule, code, llr, early) > 1
    # a regular code at F=32: levels of several rows, lanes leaving at
    # several different sweeps
    code = random_regular_code(96, 48, 6, seed=3)
    assert max(len(rows) for rows in code.levels) > 1
    llr = 2.5 + rng.normal(0, 2.2, (code.n, 32))
    sweeps = _assert_kernels_match(schedule, code, llr, early)
    if early:  # lanes froze at different sweeps
        assert staggered and sweeps >= 3
