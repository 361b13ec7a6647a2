"""Record the golden artifact digests and matrix shapes into golden.json.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_golden.py --seeds 0-9

Each seed's job lists run once per workload; the sha256 of every artifact
is stored under the seed.  The (n, N, nnz) of each job's matrix is stored
once per workload, and recording stops if a seed changes it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from jobs import WORKLOADS, workload_jobs


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seed_range, required=True,
                   help='seed range, e.g. "0-9"')
    args = p.parse_args(argv)
    run.pin_threads()
    run._import_agrip()
    import checks

    golden = (checks.load_golden() if checks.GOLDEN_PATH.exists()
              else {"shapes": {}, "digests": {}})
    run.OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        shapes = golden["shapes"].setdefault(workload, {})
        digests = golden["digests"].setdefault(workload, {})
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT)
            try:
                _, results = run.run_pass(workload_jobs(workload, seed),
                                             Path(workdir))
                record = {}
                for job, outdir, rc, *_ in results:
                    shape = checks.matrix_shape(outdir / "matrix.agrip")
                    if shapes.setdefault(job.name, shape) != shape:
                        raise SystemExit(f"{job.name}: seed {seed} changed "
                                         f"the shape to {shape}")
                    problems = checks.check_job(job, outdir, rc, shape)
                    if problems:
                        raise SystemExit(f"{job.name}: {problems}")
                    record[job.name] = checks.artifact_digests(outdir)
                digests[str(seed)] = record
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
