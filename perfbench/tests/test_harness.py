"""Self-checks of the benchmark harness; the repository's own suite skips them.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_threads()
run._import_agrip()

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _jobs(workload, seed, *names):
    picked = [j for j in jobs.workload_jobs(workload, seed) if j.name in names]
    assert len(picked) == len(names)
    return picked


def _run(job_list, workdir, tracer=None):
    """job name -> (outdir, artifact digests); every job must exit 0."""
    _, results = run.run_pass(job_list, Path(workdir), tracer)
    assert [rc for _, _, rc, *_ in results] == [0] * len(job_list)
    return {job.name: (outdir, checks.artifact_digests(outdir))
            for job, outdir, *_ in results}


def _snapshot():
    """(module, attribute[, class attribute]) -> value over agrip's namespaces."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "agrip" and not name.startswith("agrip."):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def test_traced_and_untraced_runs_write_identical_artifacts(tmp_path):
    job_list = _jobs("analyze-uniform", 0, "projspace-F7-n1-r3-balanced",
                     "devore-F16-r3-random")
    job_list += _jobs("build-recover", 0, "devore-F13-r3-ost")
    plain = _run(job_list, tmp_path / "plain")
    with spans.Tracer() as tracer:
        traced = _run(job_list, tmp_path / "traced", tracer)
    assert {k: d for k, (_, d) in plain.items()} == \
        {k: d for k, (_, d) in traced.items()}
    totals = tracer.layer_totals()
    assert totals["cli"]["calls"] == len(job_list)
    assert totals["matrix.coherence"]["calls"] > 0
    assert tracer.counts["recovery.trial"] == 6 * 100


def test_tracer_patches_aliases_and_restores_every_original():
    before = _snapshot()
    with spans.Tracer() as tracer:
        during = _snapshot()
    after = _snapshot()
    assert tracer.missing == []
    patched = {k for k in before if during[k] is not before[k]}
    for key in [("agrip.matrix", "coherence"), ("agrip.signs", "coherence"),
                ("agrip.signs", "average_coherence"), ("agrip.cli", "main"),
                ("agrip.matrix", "leq_reciprocal_log"),
                ("agrip.exact", "SurdSum", "__lt__"),
                ("agrip.fields", "FieldSpec", "np_mul")]:
        assert key in patched, key
    assert [k for k in before if after[k] is not before[k]] == []


def test_second_seed_changes_digests_but_not_shapes(tmp_path):
    golden = checks.load_golden()
    for workload, name in (("analyze-mixed", "consta-poles-F7-3p-5e"),
                           ("build-recover", "devore-F13-r3-ost")):
        runs = {}
        for seed in (0, 1):
            (outdir, digests), = _run(_jobs(workload, seed, name),
                                      tmp_path / f"{workload}-{seed}").values()
            runs[seed] = (checks.matrix_shape(outdir / "matrix.agrip"), digests)
        assert runs[0][0] == runs[1][0] == golden["shapes"][workload][name]
        assert runs[0][1] != runs[1][1]
        assert runs[0][1] == golden["digests"][workload]["0"][name]


def test_gate_rejects_changed_artifacts(tmp_path):
    golden = checks.load_golden()
    shapes = golden["shapes"]["analyze-uniform"]
    job, = _jobs("analyze-uniform", 0, "devore-F13-r3-ones")
    (outdir, _), = _run([job], tmp_path).values()
    recorded = golden["digests"]["analyze-uniform"]["0"][job.name]
    assert checks.check_job(job, outdir, 0, shapes[job.name], recorded) == []

    report_path = outdir / "report.json"
    report = json.loads(report_path.read_text())
    report["mu"]["num"] += 1
    report_path.write_text(json.dumps(report))
    # unrecorded seed: the difference-trick oracle still catches it
    problems = checks.check_job(job, outdir, 0, shapes[job.name])
    assert any("difference-trick" in p for p in problems)
    problems = checks.check_job(job, outdir, 0, shapes[job.name], recorded)
    assert any("report.json" in p for p in problems)
    assert checks.check_job(job, outdir, 2, shapes[job.name]) == ["exit code 2"]


def test_every_workload_seed_moves_some_job_arguments():
    for workload in jobs.WORKLOADS:
        a = jobs.workload_jobs(workload, 0)
        b = jobs.workload_jobs(workload, 1)
        assert [j.name for j in a] == [j.name for j in b]
        assert any(x.argv != y.argv for x, y in zip(a, b))


def test_metric_names_match_benchmark_json(tmp_path, capsys):
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert per_layer == run.PER_LAYER
    with spans.Tracer() as tracer:
        _run(_jobs("analyze-uniform", 0, "devore-F8-r3-balanced"), tmp_path,
             tracer)
    metrics = run.layer_metrics(tracer, 1.0, 1.0)
    assert [(k, v["unit"]) for k, v in metrics.items()] == per_layer

    assert run.main(["--workload", "analyze-mixed", "--seed", "0",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                          "analyze-uniform", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tier1_suite_collects_nothing_from_the_benchmark():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "pytest", "--collect-only",
                          "-q", "--continue-on-collection-errors"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert "tests/test_acceptance.py" in out.stdout
    assert "perfbench" not in out.stdout
