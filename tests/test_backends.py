"""Backend selection and numpy/numba bit-compatibility."""

import numpy as np
import pytest

from streamdec import (
    AwgnChannel,
    DecoderConfig,
    ParityCheckCode,
    StreamConfig,
    decode_batch,
    decode_frame,
    engine_start,
    from_dense,
    interleave,
    llr_from_channel,
    modulate_bpsk,
    random_regular_code,
    transmit,
)
from streamdec import _kernels_np, _kernels_numba, backend, decoder
from streamdec.backend import HAVE_NUMBA, active_backend, available_backends, get_kernels
from streamdec.bench import run_ber, run_throughput


def test_env_flag_selects_backend(monkeypatch):
    monkeypatch.setenv("STREAMDEC_BACKEND", "numpy")
    assert active_backend() == "numpy"
    monkeypatch.setenv("STREAMDEC_BACKEND", "auto")
    assert active_backend() in ("numba", "numpy")
    monkeypatch.setenv("STREAMDEC_BACKEND", "metal")
    with pytest.raises(ValueError):
        active_backend()


def test_env_flag_numba(monkeypatch):
    # selection reads HAVE_NUMBA when called, and the row-loop module
    # imports without numba, so this runs on every host
    monkeypatch.setattr(backend, "HAVE_NUMBA", True)
    monkeypatch.setenv("STREAMDEC_BACKEND", "numba")
    assert active_backend() == "numba"
    assert get_kernels("numba") is _kernels_numba


def test_default_prefers_numba_when_available(monkeypatch):
    monkeypatch.delenv("STREAMDEC_BACKEND", raising=False)
    assert active_backend() == ("numba" if HAVE_NUMBA else "numpy")
    assert active_backend() in available_backends()


def test_get_kernels_rejects_unknown():
    with pytest.raises(ValueError):
        get_kernels("fortran")


def test_kernel_modules_expose_uniform_api():
    # both modules import on every host (the row loops run un-jitted
    # without numba), so both are checked
    modules = {"numpy": _kernels_np, "numba": _kernels_numba}
    for mod in modules.values():
        assert callable(mod.decode_flooding)
        assert callable(mod.decode_layered)
    for name in available_backends():
        assert get_kernels(name) is modules[name]


def test_config_backend_reaches_kernels(monkeypatch):
    # the process default names no valid backend, so any entry point that
    # resolved kernels without the config's name would raise
    monkeypatch.setenv("STREAMDEC_BACKEND", "metal")
    seen = []

    def spy(name=None):
        kernels = get_kernels(name)
        seen.append(kernels)
        return kernels

    monkeypatch.setattr(decoder, "get_kernels", spy)
    code = random_regular_code(24, 12, 6, seed=0)
    config = DecoderConfig(schedule="layered", max_iterations=4, backend="numpy")
    frames = np.random.default_rng(3).normal(2.0, 2.0, (2, code.n))

    def via_engine():
        eng = engine_start(code, config, StreamConfig(w=1, f=2))
        assert eng.submit(eng.make_job(frames)).accepted
        eng.shutdown()
        assert len(list(eng.collect())) == 1

    entry_points = {
        "decode_frame": lambda: decode_frame(code, frames[0], config),
        "decode_batch": lambda: decode_batch(code, interleave(frames), config),
        "engine": via_engine,
        "run_ber": lambda: run_ber(code, config, [3.0], frames=4, f=2),
        "run_throughput": lambda: run_throughput(code, config, w=1, f=2, frames=2,
                                                 repeats=1),
    }
    for name, call in entry_points.items():
        seen.clear()
        call()
        assert seen and set(seen) == {_kernels_np}, name


def test_engine_start_refuses_unusable_process_backend(monkeypatch):
    # backend=None resolves STREAMDEC_BACKEND when the config is made, so a
    # bad process default fails there, before any engine or decode exists
    code = random_regular_code(24, 12, 6, seed=0)
    monkeypatch.delenv("STREAMDEC_BACKEND", raising=False)
    config = DecoderConfig(schedule="layered")
    assert config.backend == active_backend()
    bad = ["metal"] if HAVE_NUMBA else ["metal", "numba"]
    for value in bad:
        monkeypatch.setenv("STREAMDEC_BACKEND", value)
        with pytest.raises(ValueError, match="STREAMDEC_BACKEND"):
            DecoderConfig(schedule="layered")
        with pytest.raises(ValueError, match="STREAMDEC_BACKEND"):
            engine_start(code, DecoderConfig(schedule="layered"),
                         StreamConfig(w=1, f=2))
    # a config made earlier keeps the kernels it named
    eng = engine_start(code, config, StreamConfig(w=1, f=2))
    assert eng.submit(eng.make_job(np.full((2, code.n), 3.0))).accepted
    eng.shutdown()
    assert [out.syndrome_ok.all() for _, out in eng.collect()] == [True]


def _irregular_code(rng, m, n):
    """Random code with varied row and column degrees and one degree-1 row."""
    while True:
        h = (rng.random((m, n)) < 0.3).astype(np.uint8)
        h[0] = 0
        h[0, rng.integers(n)] = 1
        if h.any(axis=0).all() and h.any(axis=1).all():
            return from_dense(h)


def _assert_kernels_match(schedule, code, llr, early, iterations=8, clamp=12.0,
                          norm=0.75):
    """Assert both kernel sets agree; return how many distinct sweep counts."""
    args = (iterations, early, norm, clamp)
    want = getattr(_kernels_np, f"decode_{schedule}")(code, llr, *args)
    got = getattr(_kernels_numba, f"decode_{schedule}")(code, llr, *args)
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for bits, _, ok, post in (want, got):  # outputs follow from the posterior
        assert np.array_equal(bits, post < 0)
        assert np.array_equal(ok, _kernels_np._syndrome_ok_lanes(code, bits))
    assert np.array_equal(np.signbit(want[3]), np.signbit(got[3]))  # zeros too
    return len(set(want[1].tolist()))


@pytest.mark.parametrize("schedule", ["flooding", "layered"])
@pytest.mark.parametrize("early", [True, False])
def test_row_loop_kernels_match_numpy(schedule, early):
    # _kernels_numba imports without numba too (its njit then returns the
    # plain function), so its row-by-row loops check the vectorised numpy
    # kernels on every host; with numba they are the jitted kernels
    rng = np.random.default_rng(17)
    staggered = False
    for _ in range(4):
        code = _irregular_code(rng, 12, 24)
        f = int(rng.integers(2, 9))
        llr = 1.0 + rng.normal(0, 1.5, (code.n, f))
        staggered |= _assert_kernels_match(schedule, code, llr, early) > 1
        # plain min-sum, the default of DecoderConfig and throughput
        _assert_kernels_match(schedule, code, llr, early, norm=1.0)
    # a regular code at F=32: levels of several rows, lanes leaving at
    # several different sweeps
    code = random_regular_code(96, 48, 6, seed=3)
    assert max(len(rows) for rows in code.levels) > 1
    llr = 2.5 + rng.normal(0, 2.2, (code.n, 32))
    sweeps = _assert_kernels_match(schedule, code, llr, early)
    if early:  # lanes froze at different sweeps
        assert staggered and sweeps >= 3
    # integer LLRs: exact zeros, signed zeros and tied minima are common
    llr = np.round(1.0 + rng.normal(0, 1.5, (code.n, 16)))
    assert (llr == 0).any() and np.signbit(llr[llr == 0]).any()
    _assert_kernels_match(schedule, code, llr, early)
    code = _irregular_code(rng, 12, 24)
    _assert_kernels_match(schedule, code, np.round(rng.normal(0, 2, (code.n, 8))), early)
    # LLRs of -0.0, 0.0, +-1 and 2 on 12x6 codes: a -0.0 input has
    # magnitude +0.0 in both sets, so zero messages, and zero posteriors
    # under early termination, carry the same sign
    zrng = np.random.default_rng(1)
    for _ in range(5):
        code = random_regular_code(12, 6, 4, seed=int(zrng.integers(1 << 20)))
        llr = zrng.choice([-0.0, 0.0, 1.0, -1.0, 2.0], size=(code.n, 8))
        _assert_kernels_match(schedule, code, llr, early, iterations=3)
    # every row of degree 1: no second minimum anywhere
    code = ParityCheckCode([[0], [1], [0], [2], [1]], 3)
    assert code.max_row_degree == 1
    _assert_kernels_match(schedule, code, rng.normal(0, 2, (code.n, 4)), early)
    # a check of degree 1 beside wider checks
    code = from_dense([[1, 0, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1]])
    _assert_kernels_match(schedule, code,
                          np.random.default_rng(6).normal(0, 4, (8, 4)).T, early)
    # all-zeros codeword through AWGN, 128x64 at F=16, 15 sweeps, default clamp
    code = random_regular_code(128, 64, 6, seed=13)
    ch = AwgnChannel(2.0, 0.5, seed=31)
    sym = modulate_bpsk(np.zeros(code.n, dtype=np.uint8))
    llr = np.array([llr_from_channel(ch, transmit(ch, sym, i)) for i in range(16)]).T
    for norm in (0.75, 1.0):
        _assert_kernels_match(schedule, code, llr, early, iterations=15, clamp=64.0,
                              norm=norm)
