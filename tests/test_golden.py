"""Golden digests: every construction path writes the same bytes.

Each case runs `agrip pipeline ... --analyze` on one small instance and
compares the sha256 of every artifact it writes with a constant.  The
constants were recorded before the families were moved onto one evaluation
helper and one elimination kernel, so a refactor that changes a matrix, a
sidecar, a sign or a report number fails here.  `recovery.json` is pinned
by its own cases below, run in a child process with one BLAS thread, because
its floats depend on the BLAS thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agrip

from agrip.cli import main

ARTIFACTS = ("matrix.agrip", "matrix.agrip.json", "signed.agrip",
             "signed.agrip.json", "report.json")

# name -> (pipeline arguments, {artifact: sha256})
GOLDEN = {
    "devore-F5-r2-ones": (
        ("--family", "devore", "--field", "5", "--r", "2"),
        {
            "matrix.agrip":
                "578d0f4f4c888462e0386055f1bd43b64050c00df431cc50eb6440fae6188881",
            "matrix.agrip.json":
                "5650e38e5ad753742495d4b826989e21d9e9644e40fcccd835c9480feb451602",
            "report.json":
                "cce4171eea0e877129376415494af85d2ad97d4742be81ac49e2467093e199d2",
        }),
    "devore-F4-r2-balanced": (
        ("--family", "devore", "--field", "2^2", "--r", "2", "--sign-scheme",
         "balanced"),
        {
            "matrix.agrip":
                "299ee9fa13a5ec34f68439dd20ae71fe5e731901f72ca927f54738c65300f514",
            "matrix.agrip.json":
                "39056135e3592f8c44b6e33d1722619ae210853583f3b6483fff8216c713f707",
            "signed.agrip":
                "f584c9ef7f549af37eb7cdee00a499f2319278069f25ef51042bac4843604444",
            "signed.agrip.json":
                "34b5ce63a378ed45336590aa8f66fa4afcf4245909cadc4ef50b8ea331e85fec",
            "report.json":
                "ece727430cdc30297e895ce8538db7d1389ecc103aee465dc33a19d74bcd0844",
        }),
    "projspace-F3-n2-r1-random": (
        ("--family", "projspace", "--field", "3", "--dim", "2", "--r", "1",
         "--sign-scheme", "random:7"),
        {
            "matrix.agrip":
                "46b69fb183f8f11614966390e7be2ccbfc5688cf6e6a34941dceabd188db4b27",
            "matrix.agrip.json":
                "730e8877c022b4ceb82d361279e29377d642c5ae5cd3292dfbb8f2b1044c8e66",
            "signed.agrip":
                "6c9f01a37955c5a8a089d68470a60ebc610e0b2b1133a16c6501417eddcf01f5",
            "signed.agrip.json":
                "a4b2753c1f5127927bc52dab9b0ebef615552e3b8b4406c161c971bf2b733424",
            "report.json":
                "72c6cb013b1d74812eb44b125c4b4820e8adfcfad49e5caf96ded072793b3ba2",
        }),
    "ruled-F5-1-1-balanced": (
        ("--family", "ruled", "--field", "5", "--d1", "1", "--d2", "1",
         "--sign-scheme", "balanced"),
        {
            "matrix.agrip":
                "00e08fbd3e178bec1566081f2ce65b9f412e1cfeb012b6261525d3a8c88d494d",
            "matrix.agrip.json":
                "70ba03ee2b500094770c6579b7a70047203209f0bc4cc0ddbd1cdc37410eb0d3",
            "signed.agrip":
                "540d3daa958f8dd5f1a6c1e8839e93f19f0b723d895f52797b4c39190a41b2d6",
            "signed.agrip.json":
                "9036825c2b54e1fe7b373f7ab40b3fe87108bf1da87c69b727af9f9368bc9ff4",
            "report.json":
                "ea7657acc163c7bcb5044c85904dfc707366c175318454cf2113dd0c7459e9e5",
        }),
    "toric-F5-case1-d1": (
        ("--family", "toric", "--field", "5", "--case", "1", "--d", "1"),
        {
            "matrix.agrip":
                "f5e03dbcdfda45867c62ef0ddc20d7f62fad3080ffea1316b9ef9225e8997fb7",
            "matrix.agrip.json":
                "4be6f148e92c5bbbb79ae2d24456b7d07392073f80a083433ec0846f0dac5173",
            "report.json":
                "63f9140cbe305becfaf4c073948f085f7dc859fed6c866f7bba70cf54c8752e2",
        }),
    "consta-poles-F5-inf-pole": (
        ("--family", "consta-poles", "--field", "5", "--poles", "inf,0",
         "--points", "1,2,3,4"),
        {
            "matrix.agrip":
                "ae34139c6a441d8c7c1dc57a17fab8f79248702c4b1408b6cd35dda77aa6e2cb",
            "matrix.agrip.json":
                "e3edd337b7ac0f5dbd71ed740162ad0ca54dda836c4865ea2af6e2bdd46007b1",
            "report.json":
                "c504e215fc9e9e2944b2bce379e83ae1028ea18cab3785b8be0d08e1ba2ed74e",
        }),
    "consta-poles-F4-inf-point": (
        ("--family", "consta-poles", "--field", "2^2", "--poles", "0,1",
         "--points", "2,3,inf"),
        {
            "matrix.agrip":
                "44b33735986371cf9f6ff9f08abd650e33aa1f266fea191f7250c42dd4bbdcd4",
            "matrix.agrip.json":
                "d2a0029472f24f4387259a3347ad42adb63f84784dfdd7e0cce1c1ae35224f65",
            "report.json":
                "3f95f5ef807c8c208f11e5077c6a71bf1d508696dc6e8af93bdda8965964adb5",
        }),
    "consta-point-F4-t2": (
        ("--family", "consta-point", "--field", "2^2", "--t", "2",
         "--points", "0,1,2,3"),
        {
            "matrix.agrip":
                "0d75ee5ee8e7d716f3a0580037b2a4b53bbe9e014b252ae4d8f9174443f040b7",
            "matrix.agrip.json":
                "7c683aa30f220f29bb1f507fe2bfdee00deb6d1a47b12d74b3ba5981ed55baac",
            "report.json":
                "32117151316ab4d24dd97279c2207167dee3f7ce293d4b1509faea4beb9a7210",
        }),
    "planecurve-F3-r2": (
        ("--family", "planecurve", "--field", "3", "--r", "2"),
        {
            "matrix.agrip":
                "8ebc4081cbce15a0a62d0b702a3b5042e2a1dbeaff14d458267249821552bef8",
            "matrix.agrip.json":
                "723eee5e3297741ad2b5b6a1e57faf327ea810e2d5c7e2107655b141ff2b0ed3",
            "report.json":
                "381ba640553cc1e0cc0df2757f09647819e3bb30c3974f96fdd7a2111cf8a570",
        }),
    "fermat-F4": (
        ("--family", "fermat", "--field", "2^2"),
        {
            "matrix.agrip":
                "1ca9214ce1e8cc5204092e32ace2efce3b1bdf516f48504bbf692b0050ac0aea",
            "matrix.agrip.json":
                "891f4084e26f78a511201d166fc35a5989c7264d72b63a98874747d9e238230f",
            "report.json":
                "6ea9da63f1f1fbc1e232d5a188e49705317510aebd39228a67f08b0100aa1333",
        }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_artifacts_match_golden_digests(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert main(["pipeline", *argv, "--analyze",
                 "--out-dir", str(tmp_path)]) == 0
    written = {a: hashlib.sha256((tmp_path / a).read_bytes()).hexdigest()
               for a in ARTIFACTS if (tmp_path / a).exists()}
    assert written == expected


# name -> (pipeline arguments, sha256 of recovery.json)
RECOVERY_GOLDEN = {
    # mixed column norms (Construction A), OMP
    "consta-poles-F7-inf-0-omp": (
        ("--family", "consta-poles", "--field", "7", "--poles", "inf,0",
         "--points", "1,2,3,4,5,6", "--recover-k", "1..4", "--trials", "30",
         "--seed", "2"),
        "5634a68758ad0e24023cd7fb951d9fd62ac5e5db88cfb37af56f52fc0031e2fb"),
    # many equal correlations and rank-deficient refits, OST without noise
    "consta-poles-F5-3-poles-ost": (
        ("--family", "consta-poles", "--field", "5", "--poles", "inf,0,1",
         "--points", "2,3,4", "--algorithm", "ost", "--recover-k", "1..4",
         "--trials", "30", "--seed", "2"),
        "cb0d5e28854d6201cae9cb093fbd813e154f34346ea5d672889045403e90b9b6"),
    "devore-F7-r2-ost-noisy": (
        ("--family", "devore", "--field", "7", "--r", "2", "--algorithm",
         "ost", "--sigma", "0.01", "--recover-k", "1..5", "--trials", "40",
         "--seed", "3"),
        "016e17227e21489a315328a1ff8f05076ef3a522730815fd3da45c6540745507"),
    "devore-F5-r3-balanced-omp": (
        ("--family", "devore", "--field", "5", "--r", "3", "--sign-scheme",
         "balanced", "--recover-k", "1..4", "--trials", "30", "--seed", "4"),
        "5544bb3ab4cdeaaf49de56e86a6658fbe7e13ab9760cbc86696e93dccc257081"),
}

_RECOVERY_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path
from agrip.cli import main
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    with tempfile.TemporaryDirectory() as out:
        assert main(["pipeline", *argv, "--out-dir", out]) == 0
        body = (Path(out) / "recovery.json").read_bytes()
        digests[name] = hashlib.sha256(body).hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def recovery_digests():
    """sha256 of each case's recovery.json, from one child process started
    with OPENBLAS_NUM_THREADS=1, so the setting holds before numpy loads."""
    src = str(Path(agrip.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    cases = {name: argv for name, (argv, _) in RECOVERY_GOLDEN.items()}
    done = subprocess.run([sys.executable, "-c", _RECOVERY_SCRIPT,
                           json.dumps(cases)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(RECOVERY_GOLDEN))
def test_recovery_json_matches_golden_digest(name, recovery_digests):
    assert recovery_digests[name] == RECOVERY_GOLDEN[name][1]
