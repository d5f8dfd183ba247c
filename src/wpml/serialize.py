"""JSON envelope and codecs for all artifact kinds.

Every artifact is wrapped as {"format": "wpml/1", "kind": ..., "payload":
{...}}; ids in payloads refer to positions in the `elements` array.
Loaders re-validate structures, so a deserialized object is as trusted
as a freshly constructed one; an interpolation report's loader re-checks
its interpolant's proofs (see `interpolation_report_from_json`).
"""

from __future__ import annotations

import json
from typing import Any

from .amalgam import VFormation, validate_vformation
from .correspondence import AXIOMS
from .entailment import MAX_MODEL_SIZE, gamma_pairs
from .errors import FormulaSyntaxError, WpmlError
from .formulas import ConsequencePair, letters, parse_formula, parse_pair, pretty
from .interpolation import DISTRIBUTIVITY, CounterModel, InterpolationResult
from .lattice import (
    FiniteLattice,
    FiniteModalLattice,
    LatticeMorphism,
    check_modal_identities,
    validate_lattice,
    validate_morphism,
)
from .lframe import (
    FrameViolation,
    LFrame,
    ModalLFrame,
    validate_lframe,
    validate_modal_lframe,
)
from .proofs import MAX_PROOF_DEPTH, Proof, check_proof

FORMAT = "wpml/1"


class PayloadError(WpmlError):
    """Malformed artifact payload."""


def wrap(kind: str, payload: dict) -> dict:
    return {"format": FORMAT, "kind": kind, "payload": payload}


def unwrap(obj: dict) -> tuple[str, dict]:
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise PayloadError(f"not a {FORMAT} envelope")
    kind = obj.get("kind")
    payload = obj.get("payload")
    if not isinstance(kind, str) or not isinstance(payload, dict):
        raise PayloadError("envelope needs string 'kind' and object 'payload'")
    if payload.get("kind", kind) != kind:
        raise PayloadError("payload kind disagrees with envelope kind")
    return kind, payload


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- lattices ----------------------------------------------------------------

def lattice_to_json(lat: FiniteLattice) -> dict:
    modal = isinstance(lat, FiniteModalLattice)
    out = {
        "kind": "modal_lattice" if modal else "lattice",
        "elements": list(lat.elements),
        "leq": [[1 if v else 0 for v in row] for row in lat.leq],
        "bot": lat.bot,
        "top": lat.top,
    }
    if modal:
        out["box"] = list(lat.box)
        out["diamond"] = list(lat.diamond)
    return out


def lattice_from_json(payload: dict) -> FiniteLattice:
    """Shape and range checks raise PayloadError; a well-formed payload
    that is not a (modal) lattice raises the validator's WpmlError."""
    leq, bot, top, elements = _fields(
        payload, "lattice", "leq", "bot", "top", "elements"
    )
    if not isinstance(leq, list) or not all(
        isinstance(row, list) and len(row) == len(leq) and all(_is_bit(x) for x in row)
        for row in leq
    ):
        raise PayloadError("lattice leq must be a square list of lists of 0/1")
    n = len(leq)
    if not isinstance(elements, list) or len(elements) != n:
        raise PayloadError(f"lattice elements must be a list of {n} names")
    bot, top = _element_id(bot, "lattice bot", n), _element_id(top, "lattice top", n)
    base = validate_lattice(leq, bot, top, elements)
    if _modal(payload, "modal_lattice", "box"):
        box, diamond = _fields(payload, "modal lattice", "box", "diamond")
        box = _element_ids(box, "lattice box", n)
        diamond = _element_ids(diamond, "lattice diamond", n)
        modal = FiniteModalLattice.over(base, box, diamond)
        violations = check_modal_identities(modal)
        if violations:
            v = violations[0]
            raise WpmlError(
                f"modal identity violated: {v.identity} at {v.witness}"
            )
        return modal
    return base


def _fields(payload, what: str, *keys) -> list:
    """The values of `keys` in the payload object."""
    if not isinstance(payload, dict):
        raise PayloadError(f"{what} payload must be an object")
    try:
        return [payload[key] for key in keys]
    except KeyError as exc:
        raise PayloadError(f"{what} payload missing {exc}")


def _modal(payload: dict, modal_kind: str, modal_key: str) -> bool:
    """Whether the payload is of the modal kind: its kind says so, or it
    has no kind and has the modal key."""
    kind = payload.get("kind")
    return kind == modal_kind if kind is not None else modal_key in payload


def _is_bit(x) -> bool:
    return type(x) in (int, bool) and x in (0, 1)


def _element_id(v, what: str, n: int) -> int:
    if type(v) is not int or not 0 <= v < n:
        raise PayloadError(f"{what} must be an element id below {n}, got {v!r}")
    return v


def _element_ids(values, what: str, n: int, length=None) -> tuple[int, ...]:
    """A list of `length` (default n) element ids below n."""
    length = n if length is None else length
    if not isinstance(values, list) or len(values) != length:
        raise PayloadError(f"{what} must be a list of {length} element ids")
    return tuple(_element_id(v, what, n) for v in values)


# --- frames ------------------------------------------------------------------

def frame_to_json(frame: LFrame | ModalLFrame, provenance=None) -> dict:
    modal = isinstance(frame, ModalLFrame)
    base = frame.base if modal else frame
    out = {
        "kind": "modal_lframe" if modal else "lframe",
        "elements": list(base.elements),
        "meet": [list(row) for row in base.meet],
        "one": base.one,
    }
    if modal:
        out["R"] = [list(p) for p in frame.pairs]
    if provenance is not None:
        out["provenance"] = [hex(m) for m in provenance]
    return out


def frame_from_json(payload: dict) -> LFrame | ModalLFrame:
    """Shape and range checks raise PayloadError, as in `lattice_from_json`;
    a well-formed payload that is not a (modal) L-frame raises the
    validator's WpmlError."""
    elements, meet, one = _fields(payload, "frame", "elements", "meet", "one")
    if not isinstance(elements, list):
        raise PayloadError("frame elements must be a list of names")
    n = len(elements)
    if not isinstance(meet, list) or len(meet) != n:
        raise PayloadError(f"frame meet must be a list of {n} rows")
    table = [_element_ids(row, "frame meet", n) for row in meet]
    base = validate_lframe(elements, table, _element_id(one, "frame one", n))
    if _modal(payload, "modal_lframe", "R"):
        rel = payload.get("R", [])
        if not isinstance(rel, list):
            raise PayloadError("frame R must be a list of [x, y] pairs")
        pairs = [_element_ids(p, "frame R", n, 2) for p in rel]
        out = validate_modal_lframe(base, pairs)
        if isinstance(out, FrameViolation):
            raise WpmlError(
                f"modal L-frame condition ({out.condition}) violated at {out.witness}"
            )
        return out
    return base


# --- morphisms and spans -------------------------------------------------------

def morphism_to_json(h: LatticeMorphism, dom_name: str, cod_name: str) -> dict:
    return {"dom": dom_name, "cod": cod_name, "map": list(h.map)}


def vformation_to_json(v: VFormation) -> dict:
    return {
        "kind": "vformation",
        "K": lattice_to_json(v.k),
        "L1": lattice_to_json(v.l1),
        "L2": lattice_to_json(v.l2),
        "h1": morphism_to_json(v.h1, "K", "L1"),
        "h2": morphism_to_json(v.h2, "K", "L2"),
    }


def vformation_from_json(payload: dict) -> VFormation:
    k, l1, l2 = map(lattice_from_json, _fields(payload, "vformation", "K", "L1", "L2"))
    for name, lat in (("K", k), ("L1", l1), ("L2", l2)):
        if not isinstance(lat, FiniteModalLattice):
            raise PayloadError(f"{name} must be a modal_lattice")
    structures = {"K": k, "L1": l1, "L2": l2}
    hs = []
    for name in ("h1", "h2"):
        entry = payload.get(name)
        if not isinstance(entry, dict):
            raise PayloadError(f"vformation {name} must be an object")
        ends = [entry.get("dom"), entry.get("cod")]
        if not all(isinstance(e, str) and e in structures for e in ends):
            raise PayloadError(f"{name} dom and cod must each be K, L1 or L2")
        dom, cod = (structures[e] for e in ends)
        fmap = _element_ids(entry.get("map"), f"{name} map", cod.n, dom.n)
        h = LatticeMorphism(dom, cod, fmap, True)
        validate_morphism(h)
        hs.append(h)
    v = VFormation(k, l1, l2, hs[0], hs[1])
    validate_vformation(v)
    return v


# --- proofs ------------------------------------------------------------------

def proof_to_json(p: Proof) -> dict:
    out = {
        "rule": p.rule,
        "conclusion": pretty(p.conclusion),
        "premises": [proof_to_json(q) for q in p.premises],
    }
    if p.subst:
        out["subst"] = {name: pretty(f) for name, f in p.subst}
    return out


def proof_from_json(obj: dict) -> Proof:
    """Shape errors raise PayloadError, as in the other loaders, and so
    does nesting deeper than `MAX_PROOF_DEPTH` levels, before any recursion
    past it; a conclusion or substituted formula that does not parse
    raises FormulaSyntaxError.  The proof is not checked (see `check_proof`)."""
    return _proof_node(obj, MAX_PROOF_DEPTH)


def _proof_node(obj: dict, room: int) -> Proof:
    """The proof node `obj`, whose subtree may span at most `room` levels."""
    if room <= 0:
        raise PayloadError(f"proof nested deeper than {MAX_PROOF_DEPTH} levels")
    rule, conclusion = _fields(obj, "proof node", "rule", "conclusion")
    premises, subst = obj.get("premises", []), obj.get("subst", {})
    if not isinstance(rule, str) or not isinstance(conclusion, str):
        raise PayloadError("proof node rule and conclusion must be strings")
    if not isinstance(premises, list):
        raise PayloadError("proof node premises must be a list of nodes")
    if not isinstance(subst, dict) or not all(
        isinstance(name, str) and isinstance(text, str) for name, text in subst.items()
    ):
        raise PayloadError("proof node subst must map letters to formulas")
    return Proof(
        rule,
        parse_pair(conclusion),
        tuple(_proof_node(p, room - 1) for p in premises),
        tuple(sorted((name, parse_formula(text)) for name, text in subst.items())),
    )


# --- interpolation reports ----------------------------------------------------

def interpolation_report_to_json(
    res: InterpolationResult,
    phi,
    psi,
    *,
    axioms,
    proof_depth: int,
    model_size,
) -> dict:
    """The report of `res` for phi |- psi, with the bounds it was found
    within: the axiom tags, the proof depth and the model size.  A
    `model_size` of None marks the distributive fragment, with no axiom
    tags: its axiom is distributivity and its countermodels are
    two-element lattices."""
    report: dict = {
        "verdict": res.verdict,
        "phi": pretty(phi),
        "psi": pretty(psi),
        "axioms": list(axioms),
        "proof_depth": proof_depth,
        "model_size": model_size,
    }
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
    return report


def interpolation_report_from_json(payload: dict) -> InterpolationResult:
    """The report's result, re-checked by the oracles alone, with no
    search.  An interpolant's two proofs are read by `proof_from_json`
    and must conclude phi |- chi and chi |- psi, check (`check_proof`)
    under the report's axioms (distributivity for the distributive
    fragment) with height at most its proof depth, and chi's letters
    must be shared; else WpmlError.  A report with a null model size is
    of the distributive fragment.  A countermodel's structure is
    validated by its loader, but whether it refutes the goal is not
    re-checked.  Shape errors, unknown axiom tags, out-of-range bounds
    and text that does not parse raise PayloadError."""
    verdict, phi, psi, axioms, depth, model_size = _fields(
        payload,
        "interpolation report",
        "verdict",
        "phi",
        "psi",
        "axioms",
        "proof_depth",
        "model_size",
    )
    if not isinstance(axioms, list) or not all(
        isinstance(tag, str) and tag in AXIOMS for tag in axioms
    ):
        raise PayloadError(f"report axioms must be a list of tags of {list(AXIOMS)}")
    if type(depth) is not int or not 0 <= depth <= MAX_PROOF_DEPTH:
        raise PayloadError(f"report proof_depth must be in 0..{MAX_PROOF_DEPTH}")
    distributive = model_size is None
    if distributive and axioms:
        raise PayloadError("a distributive report (null model_size) takes no axioms")
    if not distributive and (type(model_size) is not int or not 1 <= model_size <= MAX_MODEL_SIZE):
        raise PayloadError(f"report model_size must be in 1..{MAX_MODEL_SIZE}")
    phi, psi = _formula(phi, "phi"), _formula(psi, "psi")
    if verdict == "interpolant":
        chi, left, right = _fields(
            payload, "interpolant report", "interpolant", "proof_left", "proof_right"
        )
        chi = _formula(chi, "interpolant")
        gamma = DISTRIBUTIVITY if distributive else gamma_pairs(axioms)
        left = _checked_proof(left, ConsequencePair(phi, chi), gamma, depth)
        right = _checked_proof(right, ConsequencePair(chi, psi), gamma, depth)
        if not letters(chi) <= letters(phi) & letters(psi):
            raise WpmlError(f"interpolant {pretty(chi)} has a letter not shared")
        return InterpolationResult(verdict, chi, left, right)
    if verdict == "no-entailment":
        (cm,) = _fields(payload, "no-entailment report", "countermodel")
        kind, valuation = _fields(cm, "countermodel", "kind", "valuation")
        if kind not in ("frame", "algebra") or not isinstance(valuation, dict):
            raise PayloadError("countermodel must be a frame or an algebra, valued")
        if kind == "frame":
            structure = frame_from_json(_fields(cm, "countermodel", "frame")[0])
        else:
            structure = lattice_from_json(_fields(cm, "countermodel", "lattice")[0])
        return InterpolationResult(
            verdict, countermodel=CounterModel(kind, structure, valuation)
        )
    if verdict == "unknown":
        (diagnostics,) = _fields(payload, "unknown report", "diagnostics")
        if not isinstance(diagnostics, dict):
            raise PayloadError("report diagnostics must be an object")
        return InterpolationResult(verdict, diagnostics=diagnostics)
    raise PayloadError(f"unknown report verdict {verdict!r}")


def _formula(text, what: str):
    """The formula `text` parses to; PayloadError where it does not."""
    if not isinstance(text, str):
        raise PayloadError(f"report {what} must be a formula string")
    try:
        return parse_formula(text)
    except FormulaSyntaxError as exc:
        raise PayloadError(f"report {what}: {exc}")


def _checked_proof(blob, goal: ConsequencePair, gamma, depth: int) -> Proof:
    """The proof `blob` holds, which must conclude `goal` and check under
    gamma with height at most `depth` (else WpmlError); PayloadError
    where it does not load."""
    try:
        proof = proof_from_json(blob)
    except FormulaSyntaxError as exc:
        raise PayloadError(f"proof of {pretty(goal)}: {exc}")
    if proof.conclusion != goal:
        raise WpmlError(f"proof of {pretty(goal)} concludes {pretty(proof.conclusion)}")
    bad = check_proof(proof, gamma)
    if bad is not None:
        raise WpmlError(f"proof of {pretty(goal)} does not check: {bad}")
    if proof.height() > depth:
        raise WpmlError(f"proof of {pretty(goal)} is taller than {depth}")
    return proof


LOADERS = {
    "lattice": lattice_from_json,
    "modal_lattice": lattice_from_json,
    "lframe": frame_from_json,
    "modal_lframe": frame_from_json,
    "vformation": vformation_from_json,
    "interpolation_report": interpolation_report_from_json,
}


def load_artifact(obj: dict):
    kind, payload = unwrap(obj)
    if kind not in LOADERS:
        raise PayloadError(f"no loader for kind {kind!r}")
    # the envelope's kind is the payload's, also where the payload omits it
    return kind, LOADERS[kind]({**payload, "kind": kind})
