"""Correctness gate for one finished pipeline job, run outside the timed region.

Every seed: the job exited 0, wrote the artifacts its arguments ask for,
each matrix has the recorded (n, N, nnz), the report and recovery JSON agree
with the job's arguments, the reported mu equals the difference-trick
oracle for unsigned and odd-p balanced function-space designs, and
Construction A stays within its coherence bound.  Recorded seeds: the sha256
of every artifact equals the golden digest taken at the seed commit.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from agrip import cli
from agrip import constructions as cons
from agrip import verification as ver
from agrip.fields import parse_descriptor

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# the manifest records the out-dir path, so only these are digested
ARTIFACTS = ("matrix.agrip", "matrix.agrip.json", "signed.agrip",
             "signed.agrip.json", "report.json", "recovery.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def pipeline_args(job, outdir):
    return ["pipeline", *job.argv, "--out-dir", str(outdir)]


def artifact_digests(outdir) -> dict:
    out = {}
    for name in ARTIFACTS:
        path = Path(outdir) / name
        if path.exists():
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def matrix_shape(path) -> list:
    """[n, N, nnz] from an AGRIP-SPARSE header."""
    with open(path) as fh:
        return [int(x) for x in fh.readline().split()[2:5]]


def _mu_squared(mu: dict) -> Fraction:
    if mu["num"] is not None:
        return Fraction(mu["num"], mu["den"]) ** 2
    return Fraction(mu["squared"]["num"], mu["squared"]["den"])


def _check_report(job, outdir, sidecar, shape, problems):
    report = json.loads((outdir / "report.json").read_text())
    if [report["n"], report["N"]] != shape[:2]:
        problems.append(f"report shape {report['n']}x{report['N']} != {shape[:2]}")
    mu2 = _mu_squared(report["mu"])
    if job.diff_trick:
        design = cons.build_design(sidecar["family"],
                                   parse_descriptor(sidecar["field"]),
                                   sidecar["params"])
        oracle = ver.coherence_via_differences(design)
        if mu2 != oracle ** 2:
            problems.append(f"mu^2 {mu2} != difference-trick {oracle}^2")
        cert = report.get("strong_coherence_certificate")
        if cert is not None and _mu_squared(cert["mu"]) != oracle ** 2:
            problems.append("certificate mu disagrees with the difference trick")
    bound = sidecar.get("coherence_bound")
    if bound is not None and mu2 > Fraction(bound[0], bound[1]) ** 2:
        problems.append(f"mu^2 {mu2} exceeds the bound {bound[0]}/{bound[1]}")


def _check_recovery(args, outdir, shape, problems):
    rec = json.loads((outdir / "recovery.json").read_text())
    lo, hi = args.recover_k.split("..")
    ks = list(range(int(lo), int(hi) + 1))
    if [rec["n"], rec["N"]] != shape[:2]:
        problems.append("recovery shape disagrees with the matrix")
    if (rec["k_values"] != ks or rec["trials"] != args.trials
            or rec["seed"] != args.seed or rec["algorithm"] != args.algorithm):
        problems.append("recovery.json disagrees with the job arguments")
    rates = rec["support_recovery_rate"]
    if sorted(rates) != sorted(str(k) for k in ks) or not all(
            0.0 <= v <= 1.0 for v in rates.values()):
        problems.append(f"bad support-recovery rates {rates}")


def check_job(job, outdir, rc, shape, golden_digests=None) -> list[str]:
    """Problems found with one job's artifacts; empty when it is correct.

    shape is the recorded [n, N, nnz]; golden_digests, when the seed was
    recorded, maps artifact name -> sha256.
    """
    outdir = Path(outdir)
    if rc != 0:
        return [f"exit code {rc}"]
    args = cli.build_parser().parse_args(pipeline_args(job, outdir))
    expected = ["matrix.agrip", "matrix.agrip.json"]
    if args.sign_scheme != "ones":
        expected += ["signed.agrip", "signed.agrip.json"]
    if args.analyze:
        expected.append("report.json")
    if args.recover_k:
        expected.append("recovery.json")
    digests = artifact_digests(outdir)
    if sorted(digests) != sorted(expected):
        return [f"artifacts {sorted(digests)} != {sorted(expected)}"]
    problems = []
    current = "signed.agrip" if "signed.agrip" in digests else "matrix.agrip"
    for name in ("matrix.agrip", current):
        if matrix_shape(outdir / name) != shape:
            problems.append(f"{name} shape {matrix_shape(outdir / name)} != {shape}")
    sidecar = json.loads((outdir / f"{current}.json").read_text())
    if args.analyze:
        _check_report(job, outdir, sidecar, shape, problems)
    if args.recover_k:
        _check_recovery(args, outdir, shape, problems)
    if golden_digests is not None and digests != golden_digests:
        changed = sorted(k for k in expected
                         if digests.get(k) != golden_digests.get(k))
        problems.append(f"digests differ from the golden record: {changed}")
    return problems
