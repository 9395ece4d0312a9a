"""Byte-identical CLI outputs for fixed seeds.

Each command runs ``cli.main`` in process on the numpy backend and must
reproduce the recorded text exactly: the CSV of every ``ber`` and
``compare`` command, and the sha256 of the ``gencode`` alist.  A change
that moves these on purpose records the new text in its own diff and
says why; ROADMAP item 1 (layered decoding without posterior saturation)
will change the layered rows and the ``compare`` layered columns that way.
"""

import hashlib

import pytest

from streamdec import cli

GENCODE_SHA256 = {
    "gencode --gen 576,288,6,0":
        "9b36011db095000113bba515f559811d5295197924e90d7610d452be84aea067",
}

CSV = {
    "ber --gen 576,288,6,0 --ebno 1.5,3,4 --frames 256": (
        "n,m,k,schedule,backend,iterations,ebno_db,frames,bit_errors,frame_errors,ber,fer\n"
        "576,288,288,layered,numpy,10,1.5,256,4365,166,0.05920410156,0.6484375\n"
        "576,288,288,layered,numpy,10,3,256,443,4,0.006008572049,0.015625\n"
        "576,288,288,layered,numpy,10,4,256,214,3,0.002902560764,0.01171875\n"
    ),
    "ber --gen 576,288,6,0 --ebno 2,3 --frames 200 --iters 20 --early-term off": (
        "n,m,k,schedule,backend,iterations,ebno_db,frames,bit_errors,frame_errors,ber,fer\n"
        "576,288,288,layered,numpy,20,2,200,26837,197,0.4659201389,0.985\n"
        "576,288,288,layered,numpy,20,3,200,28462,200,0.4941319444,1\n"
    ),
    "ber --gen 96,48,6,0 --ebno 1,2,3,4 --frames 300 --batch 7 --normalization 0.75 --schedule flooding": (
        "n,m,k,schedule,backend,iterations,ebno_db,frames,bit_errors,frame_errors,ber,fer\n"
        "96,48,48,flooding,numpy,10,1,300,1093,188,0.07590277778,0.6266666667\n"
        "96,48,48,flooding,numpy,10,2,300,439,100,0.03048611111,0.3333333333\n"
        "96,48,48,flooding,numpy,10,3,300,70,21,0.004861111111,0.07\n"
        "96,48,48,flooding,numpy,10,4,300,2,1,0.0001388888889,0.003333333333\n"
    ),
    "ber --gen 96,48,6,0 --ebno 1,2,3,4 --frames 300 --batch 5 --all-zeros": (
        "n,m,k,schedule,backend,iterations,ebno_db,frames,bit_errors,frame_errors,ber,fer\n"
        "96,48,48,layered,numpy,10,1,300,1444,201,0.1002777778,0.67\n"
        "96,48,48,layered,numpy,10,2,300,529,88,0.03673611111,0.2933333333\n"
        "96,48,48,layered,numpy,10,3,300,142,30,0.009861111111,0.1\n"
        "96,48,48,layered,numpy,10,4,300,30,3,0.002083333333,0.01\n"
    ),
    "compare --gen 96,48,6,0 --ebno 1.5,2.5,3.5 --frames 128 --normalization 0.75": (
        "n,m,backend,max_iterations,ebno_db,frames,mean_iters_flooding,mean_iters_layered,converged_flooding,converged_layered\n"
        "96,48,numpy,10,1.5,128,7.539062,6.351562,63,72\n"
        "96,48,numpy,10,2.5,128,4.914062,3.531250,106,112\n"
        "96,48,numpy,10,3.5,128,2.820312,1.906250,125,127\n"
    ),
    "compare --gen 576,288,6,0 --ebno 2,3 --frames 90 --batch 9 --iters 30": (
        "n,m,backend,max_iterations,ebno_db,frames,mean_iters_flooding,mean_iters_layered,converged_flooding,converged_layered\n"
        "576,288,numpy,30,2,90,15.011111,10.911111,73,76\n"
        "576,288,numpy,30,3,90,5.322222,3.100000,90,90\n"
    ),
    # k = 49 and f = 9: f * k = 441 is not a multiple of 4, so drawing each
    # batch's messages alone would change them; 103 frames end on a
    # 4-frame batch, and 4 points x 9 frames make a 36-lane flooding block
    "ber --gen 97,48,6,0 --ebno 1,2,3,4 --frames 103 --batch 9 --normalization 0.75 --schedule flooding": (
        "n,m,k,schedule,backend,iterations,ebno_db,frames,bit_errors,frame_errors,ber,fer\n"
        "97,48,49,flooding,numpy,10,1,103,343,61,0.06796116505,0.5922330097\n"
        "97,48,49,flooding,numpy,10,2,103,129,29,0.02555973846,0.2815533981\n"
        "97,48,49,flooding,numpy,10,3,103,29,4,0.005745987715,0.03883495146\n"
        "97,48,49,flooding,numpy,10,4,103,3,1,0.0005944125223,0.009708737864\n"
    ),
}


@pytest.mark.parametrize("command", list(GENCODE_SHA256))
def test_gencode_alist(command, capsys):
    assert cli.main(command.split()) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == GENCODE_SHA256[command]


@pytest.mark.parametrize("command", list(CSV))
def test_sweep_csv(command, tmp_path, capsys):
    path = tmp_path / "out.csv"
    argv = command.split() + ["--backend", "numpy", "--csv", str(path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert path.read_text() == "".join(CSV[command])
