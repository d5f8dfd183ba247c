"""Command-line front end.

Exit codes: 0 pass, 1 property/validation failure, 2 I/O or usage error,
3 parse error, 4 resource bound.  A numeric option below its least value
(`MINIMUMS`) is a usage error; one past a resource cap, such as a
`--proof-depth` above `proofs.MAX_PROOF_DEPTH` (200) or a `--model-size`
above `entailment.MAX_MODEL_SIZE` (7), is exit 4.  `interpolate
--distributive` takes `--proof-depth` (default 8) and refuses
`--cand-depth` and `--model-size`, as it refuses `--axioms` (exit 3).  The
WPML_BUDGET environment variable overrides the exhaustive-sweep budget;
a value that is not a non-negative integer is a parse error (exit 3)
before any command runs.  All JSON output is key-sorted, so identical
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from . import __version__
from .amalgam import check_supamal_claim, superamalgamate
from .correspondence import AXIOMS, correspondence_check
from .duality import fil_l, round_trip_iso
from .errors import (
    FormulaSyntaxError,
    InvalidBudget,
    ResourceBound,
    SizeCap,
    WpmlError,
    resolve_budget,
)
from .formulas import is_modality_free, parse_formula, pretty
from .generators import (
    sample_lframe,
    sample_modal_lattice,
    sample_modal_lframe,
    sample_vformation,
)
from .interpolation import (
    InterpolationProblem,
    craig_interpolant,
    distributive_fragment_interpolant,
)
from .lattice import with_identity_modalities
from .lframe import ModalLFrame, fil_f, fil_f_lattice
from .serialize import (
    PayloadError,
    dumps,
    frame_from_json,
    frame_to_json,
    lattice_to_json,
    load_artifact,
    proof_to_json,
    unwrap,
    vformation_to_json,
    wrap,
)
from .sweeps import FUZZ_TARGETS, run_fuzz

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4

# The least value of each numeric option; a smaller one is a usage error
# (exit 2, as argparse's own), a larger one past a resource cap exit 4.
MINIMUMS = {"proof_depth": 0, "cand_depth": 0, "model_size": 1, "size": 1, "count": 1}


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load(path: str, expect: Optional[str] = None):
    """The (kind, artifact) of the JSON file at `path`.  A malformed
    payload, or a kind other than `expect`, is exit 3 and an invalid
    artifact exit 1, each with its line on stderr."""
    obj = _read_json(path)
    try:
        kind, _ = unwrap(obj)
        if expect not in (None, kind):
            raise PayloadError(f"expected a {expect}, found {kind!r}")
        return load_artifact(obj)
    except PayloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except WpmlError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)


def _emit(obj: dict, out_path) -> None:
    text = dumps(obj)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_IO)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    kind, _ = _load(args.path)
    print(f"valid {kind}")
    return EXIT_PASS


def cmd_dualize(args) -> int:
    kind, artifact = _load(args.path)
    direction = args.direction
    if direction == "auto":
        direction = (
            "algebra-to-space" if kind in ("lattice", "modal_lattice") else "space-to-algebra"
        )
    if direction == "algebra-to-space":
        if kind not in ("lattice", "modal_lattice"):
            print("error: algebra-to-space needs a (modal) lattice", file=sys.stderr)
            return EXIT_PARSE
        # a bounded lattice dualizes as the modal lattice with identity modalities
        if kind == "lattice":
            artifact = with_identity_modalities(artifact)
        space = fil_l(artifact)
        frame = space.frame.base if kind == "lattice" else space.frame
        payload = frame_to_json(frame, provenance=space.provenance)
        result = wrap(payload["kind"], payload)
        if args.round_trip:
            if frame_from_json(payload) != frame:
                print("round trip failed: reimport differs", file=sys.stderr)
                return EXIT_FAIL
            round_trip_iso(artifact)  # raises on failure
            result["round_trip"] = {"isomorphic": True}
        _emit(result, args.out)
        return EXIT_PASS
    if kind == "modal_lframe":
        lat = fil_f(artifact)
        _emit(wrap("modal_lattice", lattice_to_json(lat)), args.out)
    elif kind == "lframe":
        lat = fil_f_lattice(artifact)
        _emit(wrap("lattice", lattice_to_json(lat)), args.out)
    else:
        print("error: space-to-algebra needs an L-frame", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_PASS


def cmd_amalgamate(args) -> int:
    _, v = _load(args.vformation, "vformation")
    res = superamalgamate(v)
    claim_problems = check_supamal_claim(res.pb)
    report = {
        "verdict": res.report.verdict,
        "commutes": res.report.commutes,
        "p1_injective": res.report.p1_injective,
        "p2_injective": res.report.p2_injective,
        "embeddings_are_filters": res.report.p1_filters_ok and res.report.p2_filters_ok,
        "pullback_points": [list(p) for p in res.pb.points],
        "witnesses": [
            {"a": a, "b": b, "c": c} for (a, b), c in res.report.witnesses
        ],
        "missing_witnesses": [list(t) for t in res.report.missing],
        "claim_checks": claim_problems,
    }
    _emit(wrap("amalgam_report", report), args.out)
    ok = res.report.verdict == "pass" and not claim_problems
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_correspond(args) -> int:
    _, artifact = _load(args.frame)
    if not isinstance(artifact, ModalLFrame):
        print("error: correspond needs a modal_lframe", file=sys.stderr)
        return EXIT_PARSE
    if args.axiom not in AXIOMS:
        print(f"error: unknown axiom {args.axiom!r}", file=sys.stderr)
        return EXIT_PARSE
    rep = correspondence_check(artifact, args.axiom)
    report = {
        "axiom": rep.axiom,
        "condition": rep.condition,
        "condition_holds": rep.condition_holds,
        "condition_witness": list(rep.condition_witness)
        if rep.condition_witness
        else None,
        "pairs": [{"pair": s, "valid": ok} for s, ok in rep.pair_results],
        "tight": rep.tight,
        "space_condition_failures": [
            [name, list(w)] for name, w in rep.space_condition_failures
        ],
        "sound": rep.sound,
    }
    _emit(wrap("correspondence_report", report), args.out)
    return EXIT_FAIL if rep.problems() else EXIT_PASS


def cmd_interpolate(args) -> int:
    try:
        phi = parse_formula(args.phi)
        psi = parse_formula(args.psi)
    except FormulaSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    tags = tuple(t for t in args.axioms.split(",") if t) if args.axioms else ()
    unknown = [t for t in tags if t not in AXIOMS]
    if unknown:
        print(f"error: unknown axiom {unknown[0]!r}", file=sys.stderr)
        return EXIT_PARSE
    given = vars(args)  # holds a number option only when it was given
    if args.distributive:
        if tags:
            print("error: --distributive takes no axioms", file=sys.stderr)
            return EXIT_PARSE
        if not (is_modality_free(phi) and is_modality_free(psi)):
            print("error: --distributive takes modality-free formulas", file=sys.stderr)
            return EXIT_PARSE
        for dest in ("cand_depth", "model_size"):
            if dest in given:
                option = "--" + dest.replace("_", "-")
                print(f"error: --distributive takes no {option}", file=sys.stderr)
                return EXIT_PARSE
        depth = {"proof_depth": given["proof_depth"]} if "proof_depth" in given else {}
        res = distributive_fragment_interpolant(phi, psi, **depth)
    else:
        prob = InterpolationProblem(
            phi,
            psi,
            tags,
            proof_depth=given.get("proof_depth", InterpolationProblem.proof_depth),
            cand_size=given.get("cand_depth", InterpolationProblem.cand_size),
            model_size=given.get("model_size", InterpolationProblem.model_size),
        )
        res = craig_interpolant(prob)
    report: dict = {"verdict": res.verdict, "phi": pretty(phi), "psi": pretty(psi)}
    if res.verdict == "interpolant":
        report["interpolant"] = pretty(res.interpolant)
        report["proof_left"] = proof_to_json(res.proof_left)
        report["proof_right"] = proof_to_json(res.proof_right)
    elif res.verdict == "no-entailment":
        cm = res.countermodel
        if cm.kind == "frame":
            report["countermodel"] = {
                "kind": "frame",
                "frame": frame_to_json(cm.structure),
                "valuation": {k: hex(m) for k, m in sorted(cm.valuation.items())},
            }
        else:
            report["countermodel"] = {
                "kind": "algebra",
                "lattice": lattice_to_json(cm.structure),
                "valuation": dict(sorted(cm.valuation.items())),
            }
    else:
        report["diagnostics"] = res.diagnostics
    _emit(wrap("interpolation_report", report), args.out)
    return EXIT_PASS if res.verdict != "unknown" else EXIT_RESOURCE


def cmd_fuzz(args) -> int:
    start = time.monotonic()
    report = run_fuzz(args.target, args.seed, args.count)
    if args.timings:
        report["elapsed_seconds"] = round(time.monotonic() - start, 3)
    _emit(wrap("fuzz_report", report), args.out)
    return EXIT_PASS if report["ok"] else EXIT_FAIL


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "lattice":
        frame = sample_lframe(rng, args.size)
        _emit(wrap("lattice", lattice_to_json(fil_f_lattice(frame))), args.out)
    elif args.kind == "modal_lattice":
        lat = sample_modal_lattice(rng, args.size)
        _emit(wrap("modal_lattice", lattice_to_json(lat)), args.out)
    elif args.kind == "modal_lframe":
        frame = sample_modal_lframe(rng, args.size)
        _emit(wrap("modal_lframe", frame_to_json(frame)), args.out)
    elif args.kind == "vformation":
        v = sample_vformation(rng, max_l=args.size)
        _emit(wrap("vformation", vformation_to_json(v)), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpml",
        description="Finite-model workbench for weak positive modal logic",
    )
    parser.add_argument("--version", action="version", version=f"wpml {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a JSON artifact")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dualize", help="dualize a lattice or frame")
    p.add_argument("path")
    p.add_argument(
        "--direction",
        choices=("auto", "algebra-to-space", "space-to-algebra"),
        default="auto",
    )
    p.add_argument("--round-trip", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("amalgamate", help="run the dual pullback construction")
    p.add_argument("--vformation", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("correspond", help="frame-condition / axiom report")
    p.add_argument("--frame", required=True)
    p.add_argument("--axiom", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("interpolate", help="search for a Craig interpolant")
    p.add_argument("phi")
    p.add_argument("psi")
    p.add_argument("--axioms", default="")
    # absent unless given, so that --distributive can tell its own default
    # depth from a chosen one and refuse the options it has no use for
    for option in ("--proof-depth", "--cand-depth", "--model-size"):
        p.add_argument(option, type=int, default=argparse.SUPPRESS)
    p.add_argument("--distributive", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("fuzz", help="run a seeded theorem sweep")
    p.add_argument("target", choices=sorted(FUZZ_TARGETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("generate", help="generate a seeded random artifact")
    p.add_argument(
        "kind", choices=("lattice", "modal_lattice", "modal_lframe", "vformation")
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, least in MINIMUMS.items():
        if getattr(args, dest, least) < least:
            option = "--" + dest.replace("_", "-")
            print(f"error: {option} must be at least {least}", file=sys.stderr)
            return EXIT_IO
    try:
        resolve_budget()
    except InvalidBudget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO
    except ResourceBound as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SizeCap as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except WpmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
