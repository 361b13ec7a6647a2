"""Command-line surface: construct, sign, analyze, verify, recover, pipeline.

Conventions:

* data goes to files (or stdout for verify); diagnostics go to stderr;
* exit codes: 0 success, 1 usage, 2 precondition/data error, 3 cap exceeded;
* every writing command emits a manifest (<out>.manifest.json) holding the
  resolved arguments, seeds, tool version and sha256 digests of inputs and
  outputs; `agrip replay` re-runs a manifest through the command line's
  parser (a bad argument exits 2) and verifies byte-identity;
* a matrix file <out> is accompanied by a sidecar <out>.json carrying the
  construction metadata needed to rebuild its design (the `sign` and
  `analyze` commands read it back; unknown keys are rejected).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import AgripError, PreconditionError, UsageError
from .fields import parse_descriptor
from . import constructions as cons
from . import matrix as mx
from . import recovery as rec
from . import signs as sg
from . import verification as ver

_SIDECAR_KEYS = {"format", "family", "params", "field", "n", "N",
                 "sign_scheme", "column_support", "bound_on_zeros",
                 "tuple_count", "class_count", "surface_points",
                 "coherence_bound"}
_MANIFEST_KEYS = {"format", "tool_version", "subcommand", "arguments",
                  "seeds", "inputs", "outputs"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _dump_json(obj, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_keys(obj, allowed, what):
    unknown = set(obj) - allowed
    if unknown:
        raise PreconditionError(
            f"unknown keys {sorted(unknown)} in {what} (strict schema)")


def _write_manifest(subcommand, args_dict, inputs, outputs, manifest_path):
    manifest = {
        "format": "agrip-manifest/1",
        "tool_version": __version__,
        "subcommand": subcommand,
        "arguments": args_dict,
        "seeds": [v for k, v in sorted(args_dict.items()) if k == "seed"
                  and v is not None],
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    _dump_json(manifest, manifest_path)
    return manifest


def _sidecar_for(matrix_path) -> str:
    return str(matrix_path) + ".json"


def _manifest_for(path) -> str:
    return str(path) + ".manifest.json"


def _load_json_object(path, what) -> dict:
    """The JSON object in the file path; PreconditionError if it is not one."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise PreconditionError(f"{what} {path} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise PreconditionError(f"{what} {path} is not a JSON object")
    return obj


def _load_sidecar(path) -> dict:
    sidecar = _load_json_object(path, "sidecar")
    _check_keys(sidecar, _SIDECAR_KEYS, f"sidecar {path}")
    if not isinstance(sidecar.get("sign_scheme"), (dict, type(None))):
        raise PreconditionError(f"sidecar {path}: sign_scheme is not an object")
    return sidecar


def _sidecar_design(sidecar):
    """The evaluation design a sidecar (or matrix metadata) names."""
    try:
        return cons.build_design(sidecar["family"],
                                 parse_descriptor(sidecar["field"]),
                                 sidecar["params"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        named = {k: sidecar.get(k) for k in ("family", "field", "params")}
        raise PreconditionError(f"sidecar {named} does not name a design "
                                f"({type(exc).__name__}: {exc})") from None


# -- construct ----------------------------------------------------------------


def _build_matrix(args):
    """(M, design): the matrix the family arguments name and its evaluation
    design, None for the families without one."""
    field = parse_descriptor(args.field)
    family = args.family
    if family == "consta-poles":
        _require(args, "poles", "points")
        return cons.construction_a_simple_poles(
            field, _parse_points(args.poles), _parse_points(args.points)), None
    if family == "consta-point":
        _require(args, "t", "points")
        return cons.construction_a_single_point(
            field, args.t, _parse_points(args.points)), None
    if family == "planecurve":
        _require(args, "r")
        return cons.plane_curve_matrix(field, args.r), None
    if family == "fermat":
        return cons.fermat_hyperplane_matrix(field), None
    if family == "devore":
        _require(args, "r")
        design = cons.build_design("devore", field, {"r": args.r})
    elif family == "projspace":
        _require(args, "dim", "r")
        design = cons.projective_space_design(field, args.dim, args.r)
    elif family == "ruled":
        _require(args, "d1", "d2")
        design = cons.ruled_surface_design(field, args.d1, args.d2)
    else:  # toric, the last of the parser's choices
        _require(args, "case", "d", *(("e", "rr") if args.case == 2 else ()))
        design = cons.toric_design(field, args.case, args.d, args.e, args.rr)
    return cons.evaluation_matrix(design), design


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(
            f"family {args.family!r} requires --{', --'.join(missing)}")


def _parse_points(text):
    return [p.strip() for p in text.split(",") if p.strip() != ""]


def _matrix_sidecar(M) -> dict:
    return {"format": "agrip-sidecar/1", "n": M.n, "N": M.N,
            **{k: v for k, v in M.meta.items() if k in _SIDECAR_KEYS}}


def _write_matrix(M, sidecar, out) -> list:
    """Write M to out and sidecar beside it; the two paths."""
    mx.write_sparse(M, out)
    _dump_json(sidecar, _sidecar_for(out))
    return [out, Path(_sidecar_for(out))]


def cmd_construct(args) -> int:
    M, _ = _build_matrix(args)
    out = Path(args.out)
    _write_manifest("construct", _args_dict(args), [],
                    _write_matrix(M, _matrix_sidecar(M), out),
                    _manifest_for(out))
    print(f"wrote {out} ({M.n} x {M.N}, nnz {M.nnz})", file=sys.stderr)
    return 0


# -- sign ----------------------------------------------------------------------


def _parse_scheme(text):
    """"ones", "balanced", or the seed of "random:SEED"."""
    if text in ("ones", "balanced"):
        return text
    if text.startswith("random:"):
        return _parse_int(text.split(":", 1)[1], "random-sign seed")
    raise PreconditionError(f"unknown sign scheme {text!r}")


def _sign(M, scheme, design, sidecar):
    """M signed by a _parse_scheme result ("balanced" by M's evaluation
    design), and sidecar with the scheme's entry."""
    if scheme == "ones":
        return M, {**sidecar, "sign_scheme": {"kind": "all_ones"}}
    signed = (sg.balanced_matrix(design) if scheme == "balanced"
              else sg.randomize_signs(M, scheme))
    return signed, {**sidecar, "sign_scheme": signed.meta["sign_scheme"]}


def cmd_sign(args) -> int:
    scheme = _parse_scheme(args.scheme)
    sidecar = _load_sidecar(args.design)
    M = mx.read_sparse(args.infile, meta={k: sidecar.get(k) for k in
                                          ("family", "params", "field")})
    if (sidecar.get("n"), sidecar.get("N")) != (M.n, M.N):
        raise PreconditionError(
            f"{args.infile} is {M.n} x {M.N}, but {args.design} describes a "
            f"{sidecar.get('n')} x {sidecar.get('N')} matrix")
    design = None
    if scheme == "balanced":
        design = _sidecar_design(sidecar)
        if M != cons.evaluation_matrix(design):
            raise PreconditionError(f"{args.infile} is not the unsigned matrix "
                                    f"of the design {args.design} describes")
    out = Path(args.out)
    _write_manifest("sign", _args_dict(args), [args.infile, args.design],
                    _write_matrix(*_sign(M, scheme, design, sidecar), out),
                    _manifest_for(out))
    print(f"wrote {out}", file=sys.stderr)
    return 0


# -- analyze ---------------------------------------------------------------------

_ANALYZE_KEYS = ("family", "params", "field", "sign_scheme")
_FUNCTION_SPACE_FAMILIES = ("devore", "projspace", "ruled", "toric")


def _analysis(M, args, design) -> dict:
    """The analyze payload: M's report, its sign scheme and, for balanced
    designs, the certificate; M.meta holds the sidecar's _ANALYZE_KEYS and
    design is the evaluation design they name, or None."""
    report = mx.coherence_report(M, args.log_base, args.omega_mode,
                                 args.pair_cap, design=design)
    payload = report.to_dict()
    if M.meta.get("sign_scheme") is not None:
        payload["sign_scheme"] = M.meta["sign_scheme"]
        if design is not None and M.meta["sign_scheme"]["kind"] == "balanced":
            payload["strong_coherence_certificate"] = (
                sg.certify_strong_coherence(design, report).to_dict())
    return payload


def cmd_analyze(args) -> int:
    meta, design = {}, None
    sidecar_path = _sidecar_for(args.infile)
    if os.path.exists(sidecar_path):
        sidecar = _load_sidecar(sidecar_path)
        meta = {k: sidecar.get(k) for k in _ANALYZE_KEYS}
        # only an unsigned or balanced function-space matrix uses its design
        if (meta["family"] in _FUNCTION_SPACE_FAMILIES
                and (meta["sign_scheme"] or {}).get("kind")
                in ("all_ones", "balanced")):
            design = _sidecar_design(meta)
    payload = _analysis(mx.read_sparse(args.infile, meta=meta), args, design)
    if args.out:
        _dump_json(payload, args.out)
        _write_manifest("analyze", _args_dict(args), [args.infile],
                        [args.out], _manifest_for(args.out))
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = []
    if args.check == "coherence":
        if not args.infile:
            raise UsageError("--check coherence needs --in")
        M = mx.read_sparse(args.infile)
        oracle = ver.brute_force_coherence(M)
        fast = mx.coherence(M)
        results.append(ver.OracleResult("coherence", args.infile, oracle, fast))
    elif args.check == "diff-trick":
        if not args.design:
            raise UsageError("--check diff-trick needs --design")
        design = _sidecar_design(_load_sidecar(args.design))
        oracle = ver.coherence_via_differences(design)
        fast = None
        if design.num_columns <= cons.MATERIALIZE_CAP:
            fast = mx.coherence_report(cons.evaluation_matrix(design),
                                       design=design).mu
        results.append(ver.OracleResult("coherence_via_differences",
                                        args.design, oracle, fast))
    elif args.check == "rip":
        if not args.infile or args.k is None:
            raise UsageError("--check rip needs --in and --k")
        M = mx.read_sparse(args.infile)
        delta = ver.brute_force_rip_delta(M, args.k)
        results.append(ver.OracleResult(f"delta_{args.k}", args.infile, delta))
    elif args.check == "curves":
        if not args.field or args.r is None:
            raise UsageError("--check curves needs --field and --r")
        census = cons.plane_curve_census(parse_descriptor(args.field), args.r)
        results.append(ver.OracleResult(
            "smooth_curve_tuples", f"q={census.q},r={census.r}",
            census.tuple_count,
            census.lower_bound if not census.bound_vacuous else None))
        results.append(ver.OracleResult(
            "smooth_curve_classes", f"q={census.q},r={census.r}",
            census.class_count))
    elif args.check == "fermat":
        if not args.field:
            raise UsageError("--check fermat needs --field")
        report = ver.fermat_section_counts(parse_descriptor(args.field),
                                           t=1 if args.t is None else args.t)
        results.append(ver.OracleResult(
            "fermat_min_section", f"q={report.q},t={report.t}",
            report.min_count, report.lower_bound))
    for r in results:
        json.dump(r.to_dict(), sys.stdout, sort_keys=True)
        print()
    return 0


# -- recover --------------------------------------------------------------------


def _parse_int(text, what) -> int:
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"{what} {text!r} is not an integer") from None


def _parse_k_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(_parse_int(lo, "sparsity"),
                          _parse_int(hi, "sparsity") + 1))
    return [_parse_int(k, "sparsity") for k in text.split(",")]


def cmd_recover(args) -> int:
    M = mx.read_sparse(args.matrix)
    report = rec.run_experiment(M, _parse_k_range(args.k), args.trials,
                                sigma=args.sigma, seed=args.seed,
                                algorithm=args.algorithm)
    _dump_json(report.to_dict(), args.out)
    _write_manifest("recover", _args_dict(args), [args.matrix], [args.out],
                    _manifest_for(args.out))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


# -- pipeline ---------------------------------------------------------------------


def _with_meta(M, meta):
    """M's arrays under other metadata."""
    return mx.MeasurementMatrix._unchecked(M.n, M.N, M.indptr, M.indices,
                                           M.data, meta=meta)


def cmd_pipeline(args) -> int:
    # the sign scheme and the recovery arguments are checked before anything
    # is built or written, the sweep's range as soon as the matrix exists
    scheme = _parse_scheme(args.sign_scheme)
    if scheme == "balanced" and args.family not in _FUNCTION_SPACE_FAMILIES:
        raise PreconditionError(f"no evaluation design for family "
                                f"{args.family!r}")
    if args.recover_k:
        k_values = _parse_k_range(args.recover_k)
        rec.check_experiment(args.trials, args.sigma, args.seed, args.algorithm)
    outdir = Path(args.out_dir)
    M, design = _build_matrix(args)
    if args.recover_k:
        k_values = rec.check_sweep(M, k_values)
    sidecar = _matrix_sidecar(M)
    Mc, signed_sidecar = _sign(M, scheme, design, sidecar)  # before any write
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts = _write_matrix(M, sidecar, outdir / "matrix.agrip")
    if scheme != "ones":
        sidecar = signed_sidecar
        artifacts += _write_matrix(Mc, sidecar, outdir / "signed.agrip")

    # the later stages see the matrix with the metadata a read-back of the
    # last file would give it: its sidecar's keys for analyze, none for recover
    if args.analyze:
        report_path = outdir / "report.json"
        payload = _analysis(_with_meta(Mc, {k: sidecar.get(k)
                                            for k in _ANALYZE_KEYS}), args,
                            design)
        _dump_json(payload, report_path)
        artifacts.append(report_path)

    if args.recover_k:
        recover_path = outdir / "recovery.json"
        report = rec.run_experiment(_with_meta(Mc, {}), k_values, args.trials,
                                    sigma=args.sigma, seed=args.seed,
                                    algorithm=args.algorithm)
        _dump_json(report.to_dict(), recover_path)
        artifacts.append(recover_path)

    manifest_path = outdir / "pipeline.manifest.json"
    _write_manifest("pipeline", _args_dict(args), [], artifacts, manifest_path)
    print(f"pipeline artifacts in {outdir}", file=sys.stderr)
    return 0


# -- replay -----------------------------------------------------------------------


def cmd_replay(args) -> int:
    manifest = _load_json_object(args.manifest, "manifest")
    _check_keys(manifest, _MANIFEST_KEYS, f"manifest {args.manifest}")
    sub, stored = manifest.get("subcommand"), manifest.get("arguments")
    if sub not in ("construct", "sign", "analyze", "recover", "pipeline"):
        raise PreconditionError(f"manifest subcommand {sub!r} cannot be replayed")
    actions = build_parser().commands[sub]._actions[1:]  # after --help
    names = {a.dest for a in actions} | {"subcommand"}
    if not (isinstance(stored, dict) and set(stored) == names
            and isinstance(manifest.get("outputs"), dict)):
        raise PreconditionError(f"manifest {args.manifest} needs an outputs "
                                f"object and exactly the arguments {sorted(names)}")
    argv = [sub]  # --flag=value, so that a value like "-1" is not an option
    for a in actions:
        value, flag = stored[a.dest], a.option_strings[0]
        if a.nargs == 0 and isinstance(value, bool):  # --analyze
            argv += [flag] if value else []
        elif value is not None:
            argv.append(f"{flag}={value}")
    if any("\0" in token for token in argv):  # no command line carries one
        raise PreconditionError(f"manifest {args.manifest}: NUL in an argument")
    mapping = {old: old for old in manifest["outputs"]}
    try:
        replayed = build_parser().parse_args(argv)
        if args.out_dir:
            # re-root every output path into the replay directory
            outdir = Path(args.out_dir)
            mapping = {old: str(outdir / Path(old).name) for old in mapping}
            if sub == "pipeline":
                replayed.out_dir = str(outdir)
            elif replayed.out in mapping:
                replayed.out = mapping[replayed.out]
            outdir.mkdir(parents=True, exist_ok=True)
        replayed.func(replayed)
    except UsageError as exc:
        raise PreconditionError(f"manifest {args.manifest}: {exc}") from None
    mismatches = []
    for old, digest in manifest["outputs"].items():
        new = mapping[old]
        actual = _sha256(new)
        if actual != digest:
            mismatches.append((new, digest, actual))
    if mismatches:
        for path, want, got in mismatches:
            print(f"digest mismatch for {path}: recorded {want}, got {got}",
                  file=sys.stderr)
        return 2
    print("replay verified: all output digests match", file=sys.stderr)
    return 0


# -- parser ------------------------------------------------------------------------


def _args_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


@functools.cache
def build_parser() -> _Parser:
    """The agrip parser, built on first use and shared by later calls.

    parse_args returns a new namespace each time; the subcommand functions
    are bound when the parser is built."""
    parser = _Parser(prog="agrip",
                     description="deterministic measurement matrices from "
                                 "finite geometry, with exact verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_family_options(p):
        p.add_argument("--family", required=True,
                       choices=["devore", "consta-poles", "consta-point",
                                "planecurve", "fermat", "projspace", "ruled",
                                "toric"])
        p.add_argument("--field", required=True,
                       help='field descriptor: "p", "p^s" or "p^s/c0,c1,..."')
        p.add_argument("--r", type=int, help="degree (devore/planecurve/projspace)")
        p.add_argument("--t", type=int, help="pole order (consta-point)")
        p.add_argument("--poles", help="comma list of pole points (consta-poles)")
        p.add_argument("--points", help="comma list of evaluation points")
        p.add_argument("--dim", type=int, help="ambient dimension (projspace)")
        p.add_argument("--d1", type=int, help="first bidegree (ruled)")
        p.add_argument("--d2", type=int, help="second bidegree (ruled)")
        p.add_argument("--case", type=int, choices=[1, 2, 3], help="toric case")
        p.add_argument("--d", type=int, help="toric degree")
        p.add_argument("--e", type=int, help="toric case-2 parameter e")
        p.add_argument("--rr", type=int, help="toric case-2 parameter r")

    def add_report_options(p):
        p.add_argument("--log-base", default="natural",
                       choices=["natural", "base2", "base10"])
        p.add_argument("--omega-mode", default="signed",
                       choices=["signed", "absolute"])
        p.add_argument("--pair-cap", type=int, default=mx.DEFAULT_PAIR_CAP)

    p = sub.add_parser("construct", help="build a matrix family instance")
    add_family_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("sign", help="apply a sign scheme to a binary matrix")
    p.add_argument("--scheme", required=True,
                   help="ones | random:SEED | balanced")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--design", required=True, help="design sidecar JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("analyze", help="exact coherence report")
    p.add_argument("--in", dest="infile", required=True)
    add_report_options(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="independent brute-force oracles")
    p.add_argument("--check", required=True,
                   choices=["coherence", "diff-trick", "rip", "curves", "fermat"])
    p.add_argument("--in", dest="infile")
    p.add_argument("--design")
    p.add_argument("--field")
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("recover", help="seeded sparse-recovery experiments")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", required=True, help='sweep, e.g. "1..4" or "1,2,3"')
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", default="omp", choices=["omp", "ost"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("pipeline", help="construct -> sign -> analyze -> recover")
    add_family_options(p)
    p.add_argument("--sign-scheme", default="ones",
                   help="ones | random:SEED | balanced")
    p.add_argument("--analyze", action="store_true")
    add_report_options(p)
    p.add_argument("--recover-k", help='recovery sweep, e.g. "1..3"')
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", default="omp", choices=["omp", "ost"])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("replay", help="re-run a manifest and verify digests")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_replay)

    parser.commands = sub.choices  # name -> subcommand parser, for replay
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        code = exc.code
        return code if isinstance(code, int) else 1
    except UsageError as exc:
        print(f"{exc.usage}agrip: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except AgripError as exc:
        print(f"agrip: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"agrip: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
