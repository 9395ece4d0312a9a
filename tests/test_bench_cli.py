"""Benchmark runners and the command-line harness."""

import subprocess
import sys

import pytest

from streamdec import DecoderConfig, from_dense, parse_alist, random_regular_code
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
                          capture_output=True, text=True)
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


def test_cli_module_entry_point(tmp_path):
    out = tmp_path / "m.alist"
    proc = subprocess.run(
        [sys.executable, "-m", "streamdec", "gencode", "--gen", "20,10,4,1",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_alist(out.read_text()).n == 20
    bad = subprocess.run([sys.executable, "-m", "streamdec", "bogus"],
                         capture_output=True, text=True)
    assert bad.returncode == 2
