"""Benchmark runners and the command-line harness."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from streamdec import (
    AwgnChannel,
    DecoderConfig,
    decode_frame,
    from_dense,
    llr_from_channel,
    modulate_bpsk,
    parse_alist,
    random_regular_code,
    systematic_form,
    transmit,
)
from streamdec.backend import HAVE_NUMBA
from streamdec.bench import (
    BER_CSV_HEADER,
    COMPARE_CSV_HEADER,
    THROUGHPUT_CSV_HEADER,
    run_ber,
    run_compare_schedules,
    run_throughput,
)
from streamdec.cli import main

from oracles import H_EXAMPLE

CODE10 = from_dense(H_EXAMPLE)
LAYERED10 = DecoderConfig(schedule="layered", max_iterations=10,
                          early_termination=True, backend="numpy")


def child_env():
    """Environment for a child interpreter: it imports streamdec from this
    checkout's src/, as pytest's own ``pythonpath`` does not reach it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_cli(argv):
    """Invoke the CLI in process; returns the exit code."""
    try:
        return main(argv)
    except SystemExit as e:  # argparse errors raise instead of returning
        return e.code


# ---------------------------------------------------------------- bench API

def test_throughput_single_frame_smoke():
    cfg = DecoderConfig(schedule="layered", max_iterations=10, backend="numpy")
    results = run_throughput(CODE10, cfg, w=1, f=1, frames=1, repeats=1)
    assert len(results) == 1
    r = results[0]
    assert r.frames_decoded == 1
    assert r.throughput_mbps > 0
    assert sum(r.per_phase.values()) <= r.wall_time + 1e-6


def test_throughput_argument_validation():
    cfg = DecoderConfig(schedule="layered", max_iterations=5)
    with pytest.raises(ValueError):
        run_throughput(CODE10, cfg, w=1, f=1)
    with pytest.raises(ValueError):
        run_throughput(CODE10, cfg, w=1, f=1, frames=4, seconds=1.0)
    with pytest.raises(ValueError):
        run_throughput(CODE10, cfg, w=1, f=1, frames=0)
    for f in (0, -1):
        with pytest.raises(ValueError):
            run_throughput(CODE10, cfg, w=1, f=f, frames=4)


def test_throughput_seconds_mode():
    cfg = DecoderConfig(schedule="layered", max_iterations=5, backend="numpy")
    r = run_throughput(CODE10, cfg, w=1, f=4, seconds=0.1, repeats=1)[0]
    assert r.frames_decoded >= 4
    assert r.wall_time >= 0.1


def test_throughput_counts_jobs_under_optimize():
    # python -O strips asserts; every timed job must still be submitted
    script = ("from streamdec import DecoderConfig, random_regular_code\n"
              "from streamdec.bench import run_throughput\n"
              "code = random_regular_code(96, 48, 6, seed=0)\n"
              "cfg = DecoderConfig(schedule='flooding', max_iterations=10,\n"
              "                    backend='numpy')\n"
              "r, = run_throughput(code, cfg, w=2, f=2, frames=8, repeats=1)\n"
              "print(r.frames_decoded)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 8


def test_decode_time_scales_with_iterations():
    # fixed workload, 5 vs 10 iterations: decode phase cost is near-linear.
    # The host's speed drifts, so the two settings alternate run by run and
    # the ratio is of decode time summed over 20 runs of each
    code = random_regular_code(576, 288, 6, seed=0)
    configs = {iters: DecoderConfig(schedule="layered", max_iterations=iters,
                                    backend="numpy")
               for iters in (5, 10)}
    decode = dict.fromkeys(configs, 0.0)
    for _ in range(20):
        for iters, cfg in configs.items():
            run, = run_throughput(code, cfg, w=1, f=32, frames=64, repeats=1)
            decode[iters] += run.per_phase["decode"]
    ratio = decode[10] / decode[5]
    assert 1.6 <= ratio <= 2.4, f"decode ratio {ratio:.2f} outside [1.6, 2.4]"


def test_ber_noiseless_is_error_free():
    results = run_ber(CODE10, LAYERED10, ebno_list=[4.0], frames=64,
                      noiseless=True)
    assert results[0].ber == 0.0 and results[0].fer == 0.0
    assert results[0].bit_errors == 0 and results[0].frame_errors == 0


def test_ber_counts_and_bounds():
    code = random_regular_code(96, 48, 6, seed=3)
    low, high = run_ber(code, LAYERED10, ebno_list=[1.0, 5.0], frames=200,
                        seed=0)
    assert 0.0 <= high.ber <= low.ber <= 1.0
    assert 0.0 <= high.fer <= low.fer <= 1.0
    assert low.frames == high.frames == 200


def test_ber_deterministic_and_chunk_invariant():
    code = random_regular_code(96, 48, 6, seed=3)
    a = run_ber(code, LAYERED10, ebno_list=[2.0], frames=100, seed=9, f=32)
    b = run_ber(code, LAYERED10, ebno_list=[2.0], frames=100, seed=9, f=7)
    assert a == b


def test_ber_memory_does_not_grow_with_frames():
    # a sweep holds one batch at a time: 64 * f frames peak where 4 * f do,
    # while holding every message alone would add 60 * f * k = 138 KB
    code = random_regular_code(576, 288, 6, seed=0)
    cfg = DecoderConfig(schedule="layered", max_iterations=1, backend="numpy")
    f = 8
    run_ber(code, cfg, [10.0], frames=f, f=f)  # builds the systematic form
    peaks = []
    for frames in (4 * f, 64 * f):
        tracemalloc.start()
        try:
            run_ber(code, cfg, [10.0], frames=frames, f=f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 16_000, peaks


def test_ber_all_zeros_mode():
    results = run_ber(CODE10, LAYERED10, ebno_list=[6.0], frames=100,
                      all_zeros=True, seed=1)
    assert results[0].frames == 100
    assert 0.0 <= results[0].ber <= 1.0


def test_ber_validation():
    with pytest.raises(ValueError):
        run_ber(CODE10, LAYERED10, ebno_list=[], frames=10)
    with pytest.raises(ValueError):
        run_ber(CODE10, LAYERED10, ebno_list=[2.0], frames=0)
    for f in (0, -1):
        with pytest.raises(ValueError):
            run_ber(CODE10, LAYERED10, ebno_list=[2.0], frames=10, f=f)


def test_sweeps_refuse_a_code_without_message_bits(capsys):
    code = from_dense(np.eye(4, dtype=np.uint8))
    assert systematic_form(code).k == 0
    for noiseless in (False, True):
        with pytest.raises(ValueError, match=r"no message bits \(k = 0\)"):
            run_ber(code, LAYERED10, ebno_list=[2.0], frames=4, noiseless=noiseless)
    with pytest.raises(ValueError, match=r"no message bits \(k = 0\)"):
        run_compare_schedules(code, ebno_list=[2.0], frames=4, backend="numpy")
    for extra in ([], ["--noiseless"]):  # a 10x10 code of row degree 1 has k = 0
        capsys.readouterr()
        assert run_cli(["ber", "--gen", "10,10,1,0", "--ebno", "2", "--frames",
                        "10", "--backend", "numpy", *extra]) == 2
        assert "no message bits (k = 0)" in capsys.readouterr().err


def _reference_sweep(code, configs, ebno_list, frames, seed, all_zeros):
    """Per-frame sweep from the public API: one decode_frame per (config,
    point, frame).  Returns [config][point] = (bit errors, frame errors,
    iterations with unconverged frames counted as max_iterations,
    converged frames)."""
    gen = systematic_form(code)
    if all_zeros:
        messages = np.zeros((frames, gen.k), dtype=np.uint8)
    else:  # run_ber's documented message stream
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E)))
        messages = rng.integers(0, 2, size=(frames, gen.k), dtype=np.uint8)
    out = []
    for cfg in configs:
        rows = []
        for ebno in ebno_list:
            ch = AwgnChannel(ebno, gen.k / code.n, seed=seed)
            bit_errors = frame_errors = iters = converged = 0
            for j, msg in enumerate(messages):
                x = modulate_bpsk(gen.encode(msg))
                o = decode_frame(code, llr_from_channel(ch, transmit(ch, x, j)), cfg)
                errs = int(np.count_nonzero(o.bits[gen.message_columns] != msg))
                bit_errors += errs
                frame_errors += errs > 0
                iters += o.iterations_run if o.syndrome_ok else cfg.max_iterations
                converged += o.syndrome_ok
            rows.append((bit_errors, frame_errors, iters, converged))
        out.append(rows)
    return out


CODE96 = random_regular_code(96, 48, 6, seed=3)


@pytest.mark.parametrize("all_zeros", [False, True])
def test_ber_matches_per_frame_reference(all_zeros):
    # 37 frames at f=8: four full batches and a short one of 5
    cfg = DecoderConfig(schedule="flooding", max_iterations=8,
                        early_termination=True, normalization=0.75,
                        backend="numpy")
    ebno = [1.5, 3.0]
    results = run_ber(CODE96, cfg, ebno, frames=37, seed=4, f=8,
                      all_zeros=all_zeros)
    ref, = _reference_sweep(CODE96, [cfg], ebno, 37, 4, all_zeros)
    k = systematic_form(CODE96).k
    assert [r.ebno_db for r in results] == ebno
    for r, (bit_errors, frame_errors, _, _) in zip(results, ref):
        assert (r.frames, r.bit_errors, r.frame_errors) == (37, bit_errors, frame_errors)
        assert r.ber == bit_errors / (37 * k) and r.fer == frame_errors / 37
    assert any(be > 0 for be, *_ in ref)  # the low point must have errors


def test_compare_matches_per_frame_reference():
    ebno = [1.5, 3.0]
    results = run_compare_schedules(CODE96, ebno, frames=37, max_iterations=8,
                                    seed=4, f=8, normalization=0.75,
                                    backend="numpy")
    configs = [DecoderConfig(schedule=s, max_iterations=8, early_termination=True,
                             normalization=0.75, backend="numpy")
               for s in ("flooding", "layered")]
    flooding, layered = _reference_sweep(CODE96, configs, ebno, 37, 4, all_zeros=True)
    for r, p, fl, la in zip(results, ebno, flooding, layered):
        assert (r.ebno_db, r.frames) == (p, 37)
        assert r.mean_iters_flooding == fl[2] / 37
        assert r.mean_iters_layered == la[2] / 37
        assert (r.converged_flooding, r.converged_layered) == (fl[3], la[3])
    assert any(fl[3] < 37 for fl in flooding)  # some frame never converged


def test_compare_deterministic_and_chunk_invariant():
    a = run_compare_schedules(CODE96, [1.5, 2.5], frames=100, seed=9, f=32,
                              backend="numpy")
    b = run_compare_schedules(CODE96, [1.5, 2.5], frames=100, seed=9, f=7,
                              backend="numpy")
    assert a == b


def test_compare_layered_converges_no_slower():
    code = random_regular_code(96, 48, 6, seed=3)
    results = run_compare_schedules(code, ebno_list=[2.5, 3.5], frames=128,
                                    max_iterations=30, seed=0, backend="numpy")
    for r in results:
        assert r.mean_iters_layered <= r.mean_iters_flooding
        assert 0 <= r.converged_flooding <= r.frames
        assert 0 <= r.converged_layered <= r.frames


# ----------------------------------------------------------------- CLI

def test_cli_gencode_round_trip_and_determinism(tmp_path):
    out1 = tmp_path / "a.alist"
    out2 = tmp_path / "b.alist"
    assert run_cli(["gencode", "--gen", "96,48,6,5", "--out", str(out1)]) == 0
    assert run_cli(["gencode", "--gen", "96,48,6,5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    code = parse_alist(out1.read_text())
    assert code == random_regular_code(96, 48, 6, seed=5)


def test_cli_ber_csv_deterministic(tmp_path):
    args = ["ber", "--gen", "96,48,6,3", "--ebno", "2,4", "--frames", "100",
            "--seed", "11", "--backend", "numpy"]
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(args + ["--csv", str(c1)]) == 0
    assert run_cli(args + ["--csv", str(c2)]) == 0
    b1 = c1.read_bytes()
    assert b1 == c2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == BER_CSV_HEADER
    assert len(lines) == 3


def test_cli_ber_noiseless_zero(tmp_path):
    csv = tmp_path / "z.csv"
    rc = run_cli(["ber", "--gen", "96,48,6,3", "--ebno", "3", "--frames",
                  "32", "--noiseless", "--backend", "numpy",
                  "--csv", str(csv)])
    assert rc == 0
    row = csv.read_text().splitlines()[1].split(",")
    header = BER_CSV_HEADER.split(",")
    assert row[header.index("ber")] == "0"
    assert row[header.index("fer")] == "0"


def test_cli_throughput_csv(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    rc = run_cli(["throughput", "--gen", "96,48,6,3", "--frames", "8",
                  "--batch", "4", "--streams", "2", "--repeats", "2",
                  "--backend", "numpy", "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == THROUGHPUT_CSV_HEADER
    assert len(lines) == 3
    assert "median throughput" in capsys.readouterr().out


def test_cli_compare_csv_deterministic(tmp_path):
    args = ["compare", "--gen", "96,48,6,3", "--ebno", "2.5", "--frames",
            "64", "--iters", "25", "--backend", "numpy"]
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run_cli(args + ["--csv", str(c1)]) == 0
    assert run_cli(args + ["--csv", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_text().splitlines()[0] == COMPARE_CSV_HEADER


def test_cli_table_output(capsys):
    rc = run_cli(["ber", "--gen", "96,48,6,3", "--ebno", "4", "--frames",
                  "32", "--backend", "numpy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[:3] == ["n", "m", "k"]


def test_cli_usage_errors():
    # argparse-level: missing required workload flag
    assert run_cli(["throughput", "--gen", "10,5,2,0"]) == 2
    # missing code source entirely
    assert run_cli(["ber", "--ebno", "2"]) == 2
    # malformed --gen
    assert run_cli(["ber", "--gen", "abc", "--ebno", "2"]) == 2
    assert run_cli(["ber", "--gen", "1,2,3", "--ebno", "2"]) == 2
    # empty sweep
    assert run_cli(["ber", "--gen", "10,5,2,0", "--ebno", ","]) == 2
    # unknown backend name and multi-backend where one is required
    assert run_cli(["ber", "--gen", "10,5,2,0", "--ebno", "2",
                    "--backend", "fortran"]) == 2
    assert run_cli(["ber", "--gen", "10,5,2,0", "--ebno", "2",
                    "--backend", "numpy,numba"]) == 2
    # batch size below 1
    assert run_cli(["ber", "--gen", "96,48,6,0", "--ebno", "1,2", "--frames",
                    "64", "--batch", "-1"]) == 2
    assert run_cli(["ber", "--gen", "96,48,6,0", "--ebno", "1,2", "--frames",
                    "64", "--batch", "0"]) == 2
    assert run_cli(["compare", "--gen", "96,48,6,0", "--ebno", "2", "--frames",
                    "64", "--batch", "-1"]) == 2
    # unreadable code file
    assert run_cli(["ber", "--code", "/no/such/file.alist", "--ebno", "2"]) == 2
    # degenerate generation request
    assert run_cli(["gencode", "--gen", "10,2,2,0"]) == 2


def test_cli_extreme_ebno_is_a_usage_error(capsys):
    # each point gives no finite, positive noise variance; compare must
    # not exit 1, which reports a failed comparison
    for command in ("ber", "compare"):
        for ebno in ("4000", "-3300", "-3100", "5000"):
            capsys.readouterr()
            rc = run_cli([command, "--gen", "96,48,6,0", "--ebno", f"2,{ebno}",
                          "--frames", "4", "--backend", "numpy"])
            assert rc == 2, (command, ebno)
            assert "usage error" in capsys.readouterr().err


def test_cli_unusable_process_backend_is_a_usage_error(monkeypatch, capsys):
    commands = [
        ["ber", "--gen", "96,48,6,0", "--ebno", "2", "--frames", "8"],
        ["compare", "--gen", "96,48,6,0", "--ebno", "2", "--frames", "8"],
        ["throughput", "--gen", "96,48,6,0", "--frames", "8", "--batch", "4",
         "--repeats", "1", "--backend", "auto"],
    ]
    bad = ["metal"] if HAVE_NUMBA else ["metal", "numba"]
    for value in bad:
        monkeypatch.setenv("STREAMDEC_BACKEND", value)
        for argv in commands:
            capsys.readouterr()
            assert run_cli(argv) == 2, (value, argv[0])
            assert "usage error" in capsys.readouterr().err


def test_cli_unwritable_output_is_a_usage_error_before_any_work(
        tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr("streamdec.cli.random_regular_code", no_work)
    gen = ["--gen", "96,48,6,0"]
    commands = [
        ["ber", *gen, "--ebno", "2", "--frames", "8", "--csv"],
        ["compare", *gen, "--ebno", "2", "--frames", "8", "--csv"],
        ["throughput", *gen, "--frames", "8", "--csv"],
        ["gencode", *gen, "--out"],
    ]
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        for argv in commands:
            capsys.readouterr()
            assert run_cli(argv + [str(path)]) == 2, (argv[0], path)
            assert f"usage error: cannot write {path}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_module_entry_point(tmp_path):
    out = tmp_path / "m.alist"
    proc = subprocess.run(
        [sys.executable, "-m", "streamdec", "gencode", "--gen", "20,10,4,1",
         "--out", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert parse_alist(out.read_text()).n == 20
    bad = subprocess.run([sys.executable, "-m", "streamdec", "bogus"],
                         capture_output=True, text=True, env=child_env())
    assert bad.returncode == 2
