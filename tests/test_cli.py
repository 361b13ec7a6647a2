import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agrip.cli import main
from agrip.fields import make_field
from agrip.constructions import devore
from agrip.matrix import read_sparse, write_sparse
from agrip.verification import brute_force_coherence
from tests.test_matrix import dense_to_matrix


def run_cli(*argv):
    return main(list(argv))


def test_construct_devore_matches_library(tmp_path):
    out = tmp_path / "d.agrip"
    assert run_cli("construct", "--family", "devore", "--field", "3",
                   "--r", "2", "--out", str(out)) == 0
    M = read_sparse(out)
    assert M == devore(make_field(3), 2)
    sidecar = json.loads((tmp_path / "d.agrip.json").read_text())
    assert sidecar["family"] == "devore"
    assert sidecar["n"] == 9 and sidecar["N"] == 9
    manifest = json.loads((tmp_path / "d.agrip.manifest.json").read_text())
    assert manifest["subcommand"] == "construct"
    assert str(out) in manifest["outputs"]


def test_missing_required_family_argument_exits_1(tmp_path, capsys):
    code = run_cli("construct", "--family", "devore", "--field", "3",
                   "--out", str(tmp_path / "x.agrip"))
    assert code == 1


@pytest.mark.parametrize("missing", ["--e", "--rr"])
def test_toric_case_2_without_e_or_rr_exits_1(tmp_path, capsys, missing):
    given = {"--e": "1", "--rr": "1"}
    del given[missing]
    family = ["--family", "toric", "--field", "5", "--case", "2", "--d", "1",
              *[v for item in given.items() for v in item]]
    assert run_cli("construct", *family, "--out", str(tmp_path / "t.agrip")) == 1
    assert run_cli("pipeline", *family, "--out-dir", str(tmp_path / "p")) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.count(f"agrip: error: family 'toric' requires {missing}\n") == 2


def test_missing_flag_exits_1(tmp_path):
    assert run_cli("construct", "--family", "devore", "--field", "3") == 1


def test_composite_field_exits_2(tmp_path):
    code = run_cli("construct", "--family", "devore", "--field", "4",
                   "--r", "2", "--out", str(tmp_path / "x.agrip"))
    assert code == 2


def test_cap_exceeded_exits_3(tmp_path):
    code = run_cli("construct", "--family", "planecurve", "--field", "5",
                   "--r", "3", "--out", str(tmp_path / "x.agrip"))
    assert code == 3


_CONSTRUCT_EACH_FIELD = """
import sys
from agrip.cli import main
print([main(["construct", "--family", "devore", "--field", field, "--r", "2",
             "--out", sys.argv[1]]) for field in sys.argv[2:]])
"""


def test_oversized_fields_exit_3_before_any_work(tmp_path):
    import os
    import subprocess

    import agrip

    # in a child process with a timeout, so that a field whose primality
    # test or order p^s runs before the cap check fails the test, not hangs it
    src = os.path.dirname(os.path.dirname(agrip.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CONSTRUCT_EACH_FIELD,
                           str(tmp_path / "d.agrip"),
                           "1000000000000000003", "3^30000000"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.stdout.splitlines()[-1] == "[3, 3]", done.stderr
    assert not (tmp_path / "d.agrip").exists()


_SCIPY_FREE_RUN = """
import json, sys
import agrip
import agrip.cli
import agrip.matrix as mx

paths = set()  # the Gram paths a step takes: dense tiles or function space
for name in ("_gather_columns", "_function_space_scan"):
    real = getattr(mx, name)
    setattr(mx, name, lambda *args, real=real, name=name:
            paths.add(name) or real(*args))
out, steps = sys.argv[1], [("import", "scipy.sparse" in sys.modules)]


def run(*argv):
    paths.clear()
    code = agrip.cli.main([a.replace("@", out + "/") for a in argv])
    steps.append((argv[0], code, "scipy.sparse" in sys.modules, sorted(paths)))


run("construct", "--family", "devore", "--field", "7", "--r", "2",
    "--out", "@d.agrip")
run("sign", "--scheme", "balanced", "--in", "@d.agrip", "--design",
    "@d.agrip.json", "--out", "@b.agrip")
run("verify", "--check", "coherence", "--in", "@d.agrip")
run("analyze", "--in", "@b.agrip", "--out", "@b.json")
run("construct", "--family", "devore", "--field", "2^4", "--r", "3",
    "--out", "@e.agrip")
run("sign", "--scheme", "random:0", "--in", "@e.agrip", "--design",
    "@e.agrip.json", "--out", "@r.agrip")
run("analyze", "--in", "@r.agrip", "--out", "@r.json")
run("recover", "--matrix", "@d.agrip", "--k", "1..2", "--trials", "20",
    "--seed", "5", "--out", "@rec.json")
print(json.dumps(steps))
"""


def test_only_recovery_imports_scipy(tmp_path):
    """In one fresh process, importing agrip and running construct, sign,
    verify and analyze (a function-space and a dense-tile input) leave
    scipy.sparse unloaded; recover loads it."""
    import os
    import subprocess

    import agrip

    src = os.path.dirname(os.path.dirname(agrip.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        ["import", False],
        ["construct", 0, False, []],
        ["sign", 0, False, []],
        ["verify", 0, False, ["_gather_columns"]],  # dense tiles
        ["analyze", 0, False, ["_function_space_scan"]],
        ["construct", 0, False, []],
        ["sign", 0, False, []],
        ["analyze", 0, False, ["_gather_columns"]],  # dense tiles
        ["recover", 0, True, []],
    ]
    report = json.loads((tmp_path / "rec.json").read_text())
    assert report["support_recovery_rate"] == {"1": 1.0, "2": 1.0}


def test_analyze_devore(tmp_path, capsys):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "3", "--r", "2",
            "--out", str(out))
    report_path = tmp_path / "report.json"
    assert run_cli("analyze", "--in", str(out), "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["mu"] == {"num": 1, "den": 3, "decimal": "0.333333333333"}
    assert report["strong_coherence"]["cond1"] is False


def test_analyze_identity_strong_coherent(tmp_path, capsys):
    from tests.test_matrix import identity_matrix
    path = tmp_path / "id.agrip"
    write_sparse(identity_matrix(3), path)
    assert run_cli("analyze", "--in", str(path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"]["num"] == 0
    assert report["orthonormal"] is True
    assert report["sparsity_bound"] == 3
    assert report["strong_coherence"]["cond1"] is True
    assert report["strong_coherence"]["cond2"] is True


def test_analyze_prime_squared_norms_near_2_24(tmp_path, capsys):
    """Squared norms 4096^2 + 11^2 and 4103^2 + 8^2 are the primes
    16 777 337 and 16 834 673: mu is 16 805 888 / sqrt(pq), and neither pq
    nor its square may be trial-divided."""
    path = tmp_path / "primes.agrip"
    path.write_text("AGRIP-SPARSE 1 3 3 6\n0 0 4096\n0 1 11\n1 0 4103\n"
                    "1 2 8\n2 1 1\n2 2 1\n")
    start = time.perf_counter()
    assert run_cli("analyze", "--in", str(path)) == 0
    assert time.perf_counter() - start < 2
    mu = json.loads(capsys.readouterr().out)["mu"]
    pq = 16_777_337 * 16_834_673
    assert mu["squared"] == {"num": 16_805_888 ** 2, "den": pq}
    assert mu["surd_terms"] == [{"radicand": pq, "num": 16_805_888,
                                 "den": pq}]
    assert mu["decimal"] == "0.999994493105"


def test_analyze_truncated_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.agrip"
    bad.write_text("AGRIP-SPARSE 1 3 3 5\n0 0 1\n1 0 1\n")
    assert run_cli("analyze", "--in", str(bad)) == 2
    err = capsys.readouterr().err
    assert "line" in err


def _devore_files(tmp_path):
    out = tmp_path / "m.agrip"
    assert run_cli("construct", "--family", "devore", "--field", "3", "--r",
                   "2", "--out", str(out)) == 0
    return out, tmp_path / "m.agrip.json"


def _truncated_sidecar(tmp_path):
    out, sidecar = _devore_files(tmp_path)
    sidecar.write_text(sidecar.read_text()[:40])
    return ["analyze", "--in", str(out)]


def _sidecar_without_r(tmp_path):
    _, sidecar = _devore_files(tmp_path)
    doc = json.loads(sidecar.read_text())
    del doc["params"]["r"]
    sidecar.write_text(json.dumps(doc))
    return ["verify", "--check", "diff-trick", "--design", str(sidecar)]


def _manifest_not_json(tmp_path):
    manifest = tmp_path / "x.manifest.json"
    manifest.write_text("not json\n")
    return ["replay", "--manifest", str(manifest)]


@pytest.mark.parametrize("setup", [
    _truncated_sidecar, _sidecar_without_r, _manifest_not_json,
    lambda tmp_path: ["analyze", "--in", str(tmp_path)],
], ids=["truncated-sidecar", "sidecar-without-r", "manifest-not-json",
        "directory"])
def test_malformed_json_and_unusable_paths_exit_2(tmp_path, capsys, setup):
    argv = setup(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("agrip: error: "), err


def _write_manifest_doc(tmp_path, doc):
    manifest = tmp_path / "x.manifest.json"
    manifest.write_text(json.dumps(doc))
    return ["replay", "--manifest", str(manifest)]


def _sign_scheme_string(tmp_path):
    out, sidecar = _devore_files(tmp_path)
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                   "sign_scheme": "balanced"}))
    return ["analyze", "--in", str(out)]


# one small run of each writing command; "@" stands for the run directory
_RECORDED_RUNS = {
    "construct": ["construct", "--family", "devore", "--field", "3", "--r",
                  "2", "--out", "@d.agrip"],
    "sign": ["sign", "--scheme", "random:1", "--in", "@d.agrip",
             "--design", "@d.agrip.json", "--out", "@s.agrip"],
    "analyze": ["analyze", "--in", "@s.agrip", "--out", "@a.json"],
    "recover": ["recover", "--matrix", "@d.agrip", "--k", "1..2",
                "--trials", "5", "--seed", "1", "--out", "@r.json"],
    "pipeline": ["pipeline", "--family", "devore", "--field", "3", "--r",
                 "2", "--sign-scheme", "balanced", "--analyze",
                 "--recover-k", "1..2", "--trials", "5", "--out-dir", "@p"],
}


def _record(rundir, *runs):
    """Run each argv of runs, in order, in rundir ("@" stands for it); the
    path of the manifest each writes (its output is its last argument)."""
    manifests = []
    for run in runs:
        argv = [a.replace("@", f"{rundir}/") for a in run]
        assert run_cli(*argv) == 0
        manifests.append(Path(f"{argv[-1]}/pipeline.manifest.json"
                              if argv[0] == "pipeline"
                              else f"{argv[-1]}.manifest.json"))
    return manifests


def _record_all(rundir):
    """Run every _RECORDED_RUNS command in rundir; kind -> manifest path."""
    return dict(zip(_RECORDED_RUNS, _record(rundir, *_RECORDED_RUNS.values())))


def _replay_changed(*runs, **changes):
    """A setup: write @tall.agrip (four rows, two columns, no sidecar), run
    runs, then replay the last one's manifest with its arguments changed
    (a name it lacks is added)."""
    def setup(tmp_path):
        write_sparse(dense_to_matrix(np.array([[1, 0], [1, 1], [0, 1],
                                               [1, 1]])),
                     tmp_path / "tall.agrip")
        doc = json.loads(_record(tmp_path, *runs)[-1].read_text())
        doc["arguments"].update(changes)
        return _write_manifest_doc(tmp_path, doc)
    return setup


@pytest.mark.parametrize("setup", [
    lambda tmp_path: _write_manifest_doc(tmp_path, {"arguments": {},
                                                    "outputs": {}}),
    lambda tmp_path: _write_manifest_doc(tmp_path, {
        "subcommand": "analyze", "arguments": {}, "outputs": {}}),
    _sign_scheme_string,
    _replay_changed(["analyze", "--in", "@tall.agrip", "--out", "@a.json"],
                    pair_cap="many"),
    _replay_changed(["construct", "--family", "consta-poles", "--field",
                     "2^3", "--poles", "0,1", "--points", "2,3,7", "--out",
                     "@c.agrip"], field=7),
    _replay_changed(["recover", "--matrix", "@tall.agrip", "--k", "1..2",
                     "--trials", "5", "--out", "@r.json"], k=7),
    _replay_changed(_RECORDED_RUNS["construct"], _RECORDED_RUNS["sign"],
                    scheme=None),
    _replay_changed(_RECORDED_RUNS["pipeline"], analyze="yes"),
    _replay_changed(_RECORDED_RUNS["construct"], r=None),
    _replay_changed(_RECORDED_RUNS["construct"], bogus=1),
    _replay_changed(_RECORDED_RUNS["construct"], out="a\u0000b"),
    _replay_changed(_RECORDED_RUNS["construct"], _RECORDED_RUNS["sign"],
                    _RECORDED_RUNS["analyze"], infile="a\u0000b"),
], ids=["manifest-without-subcommand", "manifest-without-arguments",
        "sidecar-sign-scheme-string", "pair-cap-many", "field-7", "k-7",
        "scheme-null", "analyze-yes", "r-null", "extra-argument", "out-nul",
        "infile-nul"])
def test_ill_typed_manifests_and_sidecars_exit_2(tmp_path, capsys, setup):
    argv = setup(tmp_path)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("agrip: error: "), err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == files  # nothing written first


@pytest.mark.parametrize("value,message", [
    (1 << 32, "overflows the exact int64 Gram scan"),
    (-(1 << 63), "overflows the exact int64 Gram scan"),
    (1 << 63, f"line 2: entry {1 << 63} is outside int64"),
    (1 << 70, f"line 2: entry {1 << 70} is outside int64"),
], ids=["2^32", "-2^63", "2^63", "2^70"])
def test_analyze_rejects_entries_outside_the_exact_range(tmp_path, capsys,
                                                         value, message):
    path = tmp_path / "big.agrip"
    path.write_text(f"AGRIP-SPARSE 1 2 2 3\n0 0 {value}\n1 0 1\n1 1 1\n")
    assert run_cli("analyze", "--in", str(path)) == 2
    assert message in capsys.readouterr().err


def test_sign_balanced_round_trip(tmp_path):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "5", "--r", "2",
            "--out", str(out))
    signed = tmp_path / "b.agrip"
    assert run_cli("sign", "--scheme", "balanced", "--in", str(out),
                   "--design", str(tmp_path / "d.agrip.json"),
                   "--out", str(signed)) == 0
    Mb = read_sparse(signed)
    vals = np.concatenate([Mb.column(j)[1] for j in range(Mb.N)])
    assert set(np.unique(vals)) <= {-1, 1}
    sidecar = json.loads((tmp_path / "b.agrip.json").read_text())
    assert sidecar["sign_scheme"]["kind"] == "balanced"


def test_sign_rejects_a_matrix_its_design_sidecar_does_not_describe(
        tmp_path, capsys):
    for r in ("2", "3"):
        run_cli("construct", "--family", "devore", "--field", "5", "--r", r,
                "--out", str(tmp_path / f"r{r}.agrip"))
    for scheme in ("balanced", "random:1"):
        out = tmp_path / "s.agrip"
        assert run_cli("sign", "--scheme", scheme, "--in",
                       str(tmp_path / "r3.agrip"), "--design",
                       str(tmp_path / "r2.agrip.json"), "--out", str(out)) == 2
        assert "is 25 x 125" in capsys.readouterr().err
        assert not out.exists()


def test_sign_balanced_rejects_an_input_that_is_not_the_unsigned_matrix(
        tmp_path, capsys):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "5", "--r", "2",
            "--out", str(out))
    design = str(tmp_path / "d.agrip.json")
    signed = tmp_path / "s.agrip"
    assert run_cli("sign", "--scheme", "random:1", "--in", str(out),
                   "--design", design, "--out", str(signed)) == 0
    assert run_cli("sign", "--scheme", "balanced", "--in", str(signed),
                   "--design", design,
                   "--out", str(tmp_path / "b.agrip")) == 2
    assert "is not the unsigned matrix" in capsys.readouterr().err
    assert not (tmp_path / "b.agrip").exists()


def test_sign_ones_rejects_a_signed_input(tmp_path, capsys):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "3", "--r", "2",
            "--out", str(out))
    signed = tmp_path / "r.agrip"
    assert run_cli("sign", "--scheme", "random:5", "--in", str(out),
                   "--design", str(out) + ".json", "--out", str(signed)) == 0
    capsys.readouterr()
    ones = tmp_path / "o.agrip"
    assert run_cli("sign", "--scheme", "ones", "--in", str(signed),
                   "--design", str(signed) + ".json", "--out", str(ones)) == 2
    assert "is not a 0/1 matrix" in capsys.readouterr().err
    assert not ones.exists()
    assert run_cli("sign", "--scheme", "ones", "--in", str(out),
                   "--design", str(out) + ".json", "--out", str(ones)) == 0
    assert ones.read_bytes() == out.read_bytes()


def test_sign_random_reproducible(tmp_path):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "3", "--r", "2",
            "--out", str(out))
    s1, s2 = tmp_path / "s1.agrip", tmp_path / "s2.agrip"
    for s in (s1, s2):
        assert run_cli("sign", "--scheme", "random:99", "--in", str(out),
                       "--design", str(tmp_path / "d.agrip.json"),
                       "--out", str(s)) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_verify_coherence_jsonl(tmp_path, capsys):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "3", "--r", "2",
            "--out", str(out))
    assert run_cli("verify", "--check", "coherence", "--in", str(out)) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["agree"] is True
    assert line["oracle_value"] == {"num": 1, "den": 3}


def test_verify_coherence_prime_squared_norms_near_2_40(tmp_path, capsys):
    """Squared norms 1048576^2 + 25^2 and 1048583^2 + 40^2 are primes near
    2^40; the oracle must not trial-divide their product."""
    path = tmp_path / "primes.agrip"
    path.write_text("AGRIP-SPARSE 1 3 3 6\n0 0 1048576\n0 1 25\n"
                    "1 0 1048583\n1 2 40\n2 1 1\n2 2 1\n")
    start = time.perf_counter()
    assert run_cli("verify", "--check", "coherence", "--in", str(path)) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["agree"] is True
    assert run_cli("analyze", "--in", str(path)) == 0
    mu = json.loads(capsys.readouterr().out)["mu"]["squared"]
    pq = 1_099_511_628_401 * 1_099_526_309_489
    assert mu == {"num": (1_048_576 * 1_048_583) ** 2, "den": pq}
    oracle = brute_force_coherence(read_sparse(path))
    assert oracle.squared() == Fraction(mu["num"], mu["den"])


def test_verify_diff_trick(tmp_path, capsys):
    out = tmp_path / "m.agrip"
    run_cli("construct", "--family", "projspace", "--field", "3", "--dim", "2",
            "--r", "1", "--out", str(out))
    assert run_cli("verify", "--check", "diff-trick",
                   "--design", str(tmp_path / "m.agrip.json")) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["agree"] is True


def test_verify_diff_trick_cross_checks_above_the_pair_cap(tmp_path, capsys):
    """N = 13^4 = 28561 lies above the pairwise scan's cap; the row-0
    function-space scan of the evaluation matrix is the fast side."""
    out = tmp_path / "d.agrip"
    assert run_cli("construct", "--family", "devore", "--field", "13",
                   "--r", "4", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--check", "diff-trick",
                   "--design", str(tmp_path / "d.agrip.json")) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["oracle_value"] == {"num": 3, "den": 13}
    assert line["agree"] is True


def test_verify_fermat_rejects_t_zero(capsys):
    assert run_cli("verify", "--check", "fermat", "--field", "2^2",
                   "--t", "0") == 2
    assert "need 1 <= t < q + 1, got t=0" in capsys.readouterr().err


def test_verify_fermat_refuses_a_large_field_with_exit_3(capsys,
                                                        monkeypatch):
    import tracemalloc
    import agrip.verification

    def enumerate_points(field):
        raise AssertionError("P^3 enumerated before the cap was checked")
    monkeypatch.setattr(agrip.verification, "fermat_surface_points",
                        enumerate_points)
    tracemalloc.start()
    try:
        code = run_cli("verify", "--check", "fermat", "--field", "2^8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "section-scan cap" in capsys.readouterr().err
    assert peak < 4 << 20


def test_parser_is_built_once_and_parses_independent_namespaces(tmp_path,
                                                                capsys):
    from agrip import __version__
    from agrip.cli import build_parser

    assert build_parser() is build_parser()
    verify = build_parser().parse_args(
        ["verify", "--check", "curves", "--field", "3", "--r", "2"])
    analyze = build_parser().parse_args(["analyze", "--in", "x.agrip"])
    assert (verify.subcommand, verify.check, verify.r) == ("verify", "curves", 2)
    assert analyze.subcommand == "analyze" and analyze.infile == "x.agrip"
    assert not hasattr(analyze, "check") and not hasattr(verify, "omega_mode")
    # consecutive main calls with different subcommands
    out = tmp_path / "d.agrip"
    assert run_cli("verify", "--check", "curves", "--field", "3",
                   "--r", "2") == 0
    assert run_cli("construct", "--family", "devore", "--field", "3",
                   "--r", "2", "--out", str(out)) == 0
    assert run_cli("analyze", "--in", str(out)) == 0
    capsys.readouterr()
    assert run_cli("--version") == 0
    assert capsys.readouterr().out.strip() == __version__
    assert run_cli("analyze") == 1
    assert "the following arguments are required: --in" in (
        capsys.readouterr().err)
    assert run_cli("verify", "--check", "curves", "--field", "3",
                   "--r", "2") == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])[
        "oracle_value"] == 468


def test_verify_curves_and_fermat(capsys):
    assert run_cli("verify", "--check", "curves", "--field", "3", "--r", "2") == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert lines[0]["oracle_value"] == 468
    assert run_cli("verify", "--check", "fermat", "--field", "2^2") == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["oracle_value"] == 9 and line["fast_value"] == 3
    assert line["agree"] is False  # min exceeds the bound; not an equality check


def test_recover_cli(tmp_path):
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "7", "--r", "2",
            "--out", str(out))
    rep = tmp_path / "rec.json"
    assert run_cli("recover", "--matrix", str(out), "--k", "1..2",
                   "--trials", "20", "--seed", "5", "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert report["support_recovery_rate"]["1"] == 1.0
    assert report["support_recovery_rate"]["2"] == 1.0


@pytest.mark.parametrize("flag, value, message", [
    ("--trials", "-2", "trials must be a nonnegative integer"),
    ("--k", "0..1", "sparsity 0 is outside 1..2"),
    ("--k", "3", "sparsity 3 is outside 1..2"),  # 2 columns, 4 rows
    ("--sigma", "nan", "sigma must be a finite nonnegative number"),
    ("--sigma", "-0.1", "sigma must be a finite nonnegative number"),
])
def test_recover_rejects_bad_arguments_with_exit_2(tmp_path, capsys, flag,
                                                   value, message):
    matrix = tmp_path / "tall.agrip"
    write_sparse(dense_to_matrix(np.array([[1, 0], [1, 1], [0, 1], [1, 1]])),
                 matrix)
    out = tmp_path / "rec.json"
    argv = {"--k": "1..2", "--trials": "5", "--sigma": "0.0", flag: value}
    assert run_cli("recover", "--matrix", str(matrix),
                   *[v for item in argv.items() for v in item],
                   "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_recover_rejects_squared_norms_that_overflow_with_exit_2(tmp_path,
                                                                capsys):
    matrix = tmp_path / "big.agrip"
    matrix.write_text("AGRIP-SPARSE 1 3 3 3\n0 0 4294967296\n1 1 1\n2 2 1\n")
    out = tmp_path / "rec.json"
    assert run_cli("recover", "--matrix", str(matrix), "--k", "1",
                   "--trials", "5", "--out", str(out)) == 2
    assert "overflows the int64 squared norms" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_recover_rejects_a_bad_sweep_with_exit_2(tmp_path, capsys):
    assert run_cli("pipeline", "--family", "devore", "--field", "3", "--r", "2",
                   "--recover-k", "0..1", "--out-dir", str(tmp_path)) == 2
    assert "sparsity 0 is outside 1..9" in capsys.readouterr().err
    assert not (tmp_path / "recovery.json").exists()


def test_pipeline_and_replay_byte_identical(tmp_path):
    outdir = tmp_path / "run1"
    assert run_cli("pipeline", "--family", "devore", "--field", "3", "--r", "2",
                   "--sign-scheme", "balanced", "--analyze",
                   "--recover-k", "1..2", "--trials", "10",
                   "--seed", "3", "--out-dir", str(outdir)) == 0
    manifest = json.loads((outdir / "pipeline.manifest.json").read_text())
    assert set(manifest["outputs"])
    replay_dir = tmp_path / "run2"
    assert run_cli("replay", "--manifest", str(outdir / "pipeline.manifest.json"),
                   "--out-dir", str(replay_dir)) == 0
    for name in ("matrix.agrip", "signed.agrip", "report.json", "recovery.json"):
        assert (outdir / name).read_bytes() == (replay_dir / name).read_bytes()


def test_pipeline_stages_reuse_memory_and_match_the_commands(tmp_path,
                                                            monkeypatch):
    import agrip.matrix

    def no_read(*args, **kwargs):
        raise AssertionError("pipeline read back a file it wrote")

    outdir = tmp_path / "run"
    with monkeypatch.context() as patch:
        patch.setattr(agrip.matrix, "read_sparse", no_read)
        assert run_cli("pipeline", "--family", "devore", "--field", "5",
                       "--r", "2", "--sign-scheme", "random:4", "--analyze",
                       "--recover-k", "1..2", "--trials", "10", "--seed", "3",
                       "--out-dir", str(outdir)) == 0
    # the same stages as separate commands, each reading its input file
    matrix = outdir / "matrix.agrip"
    signed, report, recovery = (tmp_path / name for name in
                                ("s.agrip", "report.json", "recovery.json"))
    assert run_cli("sign", "--scheme", "random:4", "--in", str(matrix),
                   "--design", str(matrix) + ".json", "--out", str(signed)) == 0
    assert signed.read_bytes() == (outdir / "signed.agrip").read_bytes()
    signed = outdir / "signed.agrip"
    assert run_cli("analyze", "--in", str(signed), "--out", str(report)) == 0
    assert report.read_bytes() == (outdir / "report.json").read_bytes()
    assert run_cli("recover", "--matrix", str(signed), "--k", "1..2",
                   "--trials", "10", "--seed", "3", "--out", str(recovery)) == 0
    assert recovery.read_bytes() == (outdir / "recovery.json").read_bytes()


def test_construct_toric_case2_flags(tmp_path):
    out = tmp_path / "t2.agrip"
    assert run_cli("construct", "--family", "toric", "--field", "5",
                   "--case", "2", "--d", "1", "--e", "1", "--rr", "1",
                   "--out", str(out)) == 0
    M = read_sparse(out)
    assert (M.n, M.N) == (80, 5 ** 5)


def test_field_descriptor_with_modulus(tmp_path):
    out = tmp_path / "f9.agrip"
    assert run_cli("construct", "--family", "devore", "--field", "3^2/1,0,1",
                   "--r", "2", "--out", str(out)) == 0
    sidecar = json.loads((tmp_path / "f9.agrip.json").read_text())
    assert sidecar["field"] == "3^2/1,0,1"


def test_replay_detects_tampering(tmp_path, capsys):
    out = tmp_path / "m.agrip"
    run_cli("construct", "--family", "devore", "--field", "3", "--r", "2",
            "--out", str(out))
    manifest_path = tmp_path / "m.agrip.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    victim = str(out)
    manifest["outputs"][victim] = "0" * 64  # falsify the recorded digest
    manifest_path.write_text(json.dumps(manifest))
    assert run_cli("replay", "--manifest", str(manifest_path)) == 2
    assert "digest mismatch" in capsys.readouterr().err


def test_replay_construct_manifest(tmp_path):
    out = tmp_path / "a" / "m.agrip"
    out.parent.mkdir()
    run_cli("construct", "--family", "devore", "--field", "5", "--r", "2",
            "--out", str(out))
    replay_dir = tmp_path / "b"
    assert run_cli("replay", "--manifest", str(tmp_path / "a" / "m.agrip.manifest.json"),
                   "--out-dir", str(replay_dir)) == 0
    assert (replay_dir / "m.agrip").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("kind", list(_RECORDED_RUNS))
def test_replay_is_byte_identical_in_place_and_under_out_dir(tmp_path, kind):
    manifest = _record_all(tmp_path)[kind]
    recorded = {Path(p): Path(p).read_bytes()
                for p in json.loads(manifest.read_text())["outputs"]}
    replay_dir = tmp_path / "replay"
    assert run_cli("replay", "--manifest", str(manifest)) == 0
    assert run_cli("replay", "--manifest", str(manifest),
                   "--out-dir", str(replay_dir)) == 0
    for path, data in recorded.items():
        assert path.read_bytes() == data
        assert (replay_dir / path.name).read_bytes() == data


_JSON_VALUES = ["many", 7, -1, 1.5, True, None, [], {}]


def test_mutated_manifests_replay_with_exit_0_2_or_3(tmp_path, monkeypatch):
    """One argument of a recorded manifest dropped, added or replaced by a
    JSON value of another type: replay ends in exit 0, 2 or 3, never in an
    exception out of main."""
    # a mutated output path such as 7 is relative: keep it in tmp_path
    monkeypatch.chdir(tmp_path)
    docs = {kind: json.loads(m.read_text())
            for kind, m in _record_all(tmp_path).items()}
    names = sorted({n for doc in docs.values() for n in doc["arguments"]})

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(docs)),
           name=st.sampled_from(names + ["bogus"]),
           value=st.sampled_from(["drop"] + _JSON_VALUES))
    def replay(kind, name, value):
        doc = json.loads(json.dumps(docs[kind]))
        if value == "drop":
            doc["arguments"].pop(name, None)
        else:
            doc["arguments"][name] = value
        argv = _write_manifest_doc(tmp_path, doc)
        assert main(argv + ["--out-dir", str(tmp_path / "replay")]) in (0, 2, 3)

    replay()


def test_pipeline_balanced_devore_reproduces_certification_facts(tmp_path):
    outdir = tmp_path / "bal"
    assert run_cli("pipeline", "--family", "devore", "--field", "5", "--r", "2",
                   "--sign-scheme", "balanced", "--analyze",
                   "--out-dir", str(outdir)) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["mu"] == {"num": 1, "den": 5, "decimal": "0.2"}
    assert report["omega_signed"]["num"] == 1
    assert report["omega_signed"]["den"] == 30
    assert report["strong_coherence"]["cond1"] is False
    cert = report["strong_coherence_certificate"]
    assert cert["condition_a"] is True
    assert cert["sufficient_ok"] is False  # condition b fails at q = 5
    assert cert["ground_truth"]["cond1"] is False


def test_point_outside_the_field_exits_2(tmp_path, capsys):
    # every CLI point arrives as a string; each must be range-checked
    for field, poles, points in [("5", "0,1", "2,3,9"), ("2^3", "0,1", "2,3,11"),
                                 ("5", "0,1", "2,x"), ("5", "0,-1", "2,3")]:
        out = tmp_path / "a.agrip"
        assert run_cli("construct", "--family", "consta-poles", "--field", field,
                       "--poles", poles, "--points", points,
                       "--out", str(out)) == 2
        assert not out.exists()
    assert run_cli("construct", "--family", "consta-point", "--field", "5",
                   "--t", "2", "--points", "0,5", "--out", str(out)) == 2
    assert "agrip: error: point" in capsys.readouterr().err


def test_malformed_field_and_numbers_exit_2(tmp_path, capsys):
    for field in ("5^x", "x", "2^2/1,y,1"):
        assert run_cli("construct", "--family", "devore", "--field", field,
                       "--r", "2", "--out", str(tmp_path / "d.agrip")) == 2
    assert "malformed field descriptor" in capsys.readouterr().err
    out = tmp_path / "d.agrip"
    run_cli("construct", "--family", "devore", "--field", "3", "--r", "2",
            "--out", str(out))
    assert run_cli("recover", "--matrix", str(out), "--k", "1..x",
                   "--trials", "2", "--out", str(tmp_path / "r.json")) == 2
    # a sign scheme is checked before the pipeline writes anything
    family = {"devore": ["--field", "3", "--r", "2"],
              "consta-point": ["--field", "5", "--t", "2", "--points", "0,1,2"]}
    for name, scheme in [("devore", "bogus"), ("devore", "random:x"),
                         ("devore", ""), ("consta-point", "balanced")]:
        assert run_cli("pipeline", "--family", name, *family[name],
                       "--sign-scheme", scheme,
                       "--out-dir", str(tmp_path / "p")) == 2
        assert not (tmp_path / "p").exists(), (name, scheme)
    err = capsys.readouterr().err
    assert "unknown sign scheme ''" in err
    assert "no evaluation design for family 'consta-point'" in err


def test_balanced_certificate_reuses_report_numbers(tmp_path, monkeypatch):
    import agrip.matrix

    calls = []
    for name in ("_gram_scan", "_function_space_scan"):
        real = getattr(agrip.matrix, name)
        monkeypatch.setattr(agrip.matrix, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    outdir = tmp_path / "bal"
    assert run_cli("pipeline", "--family", "devore", "--field", "5", "--r", "2",
                   "--sign-scheme", "balanced", "--analyze",
                   "--out-dir", str(outdir)) == 0
    assert len(calls) == 1
    report = json.loads((outdir / "report.json").read_text())
    cert = report["strong_coherence_certificate"]
    assert cert["mu"] == report["mu"]
    assert cert["omega_signed"] == report["omega_signed"]


def test_pair_cap_bounds_only_the_pairwise_scan(tmp_path):
    # balanced devore F_5 r=2 (N = 25) and F_4 r=2 (N = 16) are reported
    # from their function space
    for field in ("5", "2^2"):
        reports = []
        for cap in ("10", "20000"):
            outdir = tmp_path / f"bal-{field}-{cap}"
            assert run_cli("pipeline", "--family", "devore", "--field", field,
                           "--r", "2", "--sign-scheme", "balanced", "--analyze",
                           "--pair-cap", cap, "--out-dir", str(outdir)) == 0
            reports.append((outdir / "report.json").read_bytes())
        assert reports[0] == reports[1]
    # random signs do not factor, so that matrix still needs the pair scan
    assert run_cli("pipeline", "--family", "devore", "--field", "5", "--r", "2",
                   "--sign-scheme", "random:1", "--analyze", "--pair-cap", "10",
                   "--out-dir", str(tmp_path / "random")) == 3


@pytest.mark.parametrize("flag, value, message", [
    ("--recover-k", "0..1", "sparsity 0 is outside 1..9"),
    ("--recover-k", "1..10", "sparsity 10 is outside 1..9"),
    ("--recover-k", "1..x", "sparsity 'x' is not an integer"),
    ("--trials", "-1", "trials must be a nonnegative integer"),
    ("--sigma", "nan", "sigma must be a finite nonnegative number"),
    ("--sigma", "-0.1", "sigma must be a finite nonnegative number"),
])
def test_pipeline_checks_recovery_arguments_before_writing(tmp_path, capsys,
                                                           flag, value,
                                                           message):
    outdir = tmp_path / "out"
    argv = {"--recover-k": "1..2", "--trials": "5", "--sigma": "0.0",
            flag: value}
    assert run_cli("pipeline", "--family", "devore", "--field", "3", "--r", "2",
                   "--analyze", *[v for item in argv.items() for v in item],
                   "--out-dir", str(outdir)) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_tampered_function_space_file_takes_the_pairwise_scan(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    import agrip.matrix
    from agrip.matrix import MeasurementMatrix, coherence_report

    calls = []
    real = agrip.matrix._gram_scan

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(agrip.matrix, "_gram_scan", counting)
    built = tmp_path / "d.agrip"
    assert run_cli("construct", "--family", "devore", "--field", "5",
                   "--r", "3", "--out", str(built)) == 0
    signed = tmp_path / "s.agrip"
    assert run_cli("sign", "--scheme", "balanced", "--in", str(built),
                   "--design", str(built) + ".json", "--out", str(signed)) == 0
    assert run_cli("analyze", "--in", str(signed)) == 0
    capsys.readouterr()
    assert calls == []
    # flip the sign of one entry and keep the sidecar as it was
    M = read_sparse(signed)
    data = M.data.copy()
    data[M.indptr[7] + 2] *= -1
    tampered = MeasurementMatrix(M.n, M.N, M.indptr, M.indices, data)
    write_sparse(tampered, signed)
    assert run_cli("analyze", "--in", str(signed)) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    expected = coherence_report(tampered).to_dict()
    for key in ("mu", "omega_signed", "omega_absolute", "strong_coherence"):
        assert report[key] == expected[key]
