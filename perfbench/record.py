"""Record the expected answers the benchmark checks against.

Run from the repository root on the commit whose answers are the
reference (the numbers in data/ come from the seed commit):

    python3 perfbench/record.py [golden|countermodel|sweeps ...]

It rewrites perfbench/data/<workload>.json.  Only answers and the sweep
pools' cost ranks are stored; a later commit must reproduce the answers
byte for byte, so re-recording is only for a deliberate change of the
workloads.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "tests"))

from wpml import catalog, entailment, formulas, interpolation  # noqa: E402
from wpml.correspondence import CONDITION_TAGS  # noqa: E402

from test_acceptance import golden_corpus  # noqa: E402  (criterion 9's corpus)
from workloads import report_digest, sweep_call  # noqa: E402

# Six axiom problems take 6.6-24 s each on a 2-core x86 box, more than a
# pass can hold; the seventh slow one (T, 3-5 s) stays in the pass.
GOLDEN_OUT_OF_PASS = {
    ("[](p & s) & q", "[][]p v r", ("4",)),
    ("p & q", "[]<>p v r", ("B",)),
    ("<>[]p & q", "p v r", ("B",)),
    ("(p & s) & q", "[]<>p v r", ("B",)),
    ("<>p & (q & s)", "[]<>p v r", ("5",)),
    ("<>[](p1 & p2) & q", "[]<>(p1 & p2) v r", (".2",)),
}

# (pair, tags, family, renamed copies per pass).  Axiom-tagged pairs are
# ones whose proof search is short next to their frame search, so proof
# search stays a small share of this workload.
COUNTERMODEL = [
    ("[]p & <>q |- <>(p & q)", ("T",), "modal-distribution", 1),
    ("<>(p v q) |- <>p v <>q", ("T",), "modal-distribution", 1),
    ("p & (q v r) |- (p & q) v (p & r)", (), "lattice-law", 1),
    ("(p v q) & (p v r) |- p v (q & r)", (), "lattice-law", 1),
    ("(p v q) & r |- p v (q & r)", (), "lattice-law", 1),
    ("(p v q) & r |- p v (q & r)", ("5",), "lattice-law", 1),
    ("(p v q) & r |- p v (q & r)", ("B",), "lattice-law", 1),
    ("[](p v q) |- []p v []q", (), "modal-distribution", 4),
    ("<>(p v q) |- <>p v <>q", (), "modal-distribution", 4),
    ("<>p & <>q |- <>(p & q)", (), "modal-distribution", 4),
    ("[](p v q) |- []p v <>q", (), "modal-distribution", 4),
]
MODEL_SIZE = 5

# Each stratum holds SWEEP_PASSES instances, so no instance repeats within
# a run of up to SWEEP_PASSES passes (80-140 passes fit a 25 s run on a
# 2-core x86 box): a cache keyed on sweep inputs gets no hits that fresh
# `wpml fuzz` seeds would not give it.
SWEEP_PASSES = 200
SWEEP_PER_PASS = {
    "superamalgamation": 20,
    "correspondence": 20,
    "duality": 20,
    "jonsson": 20,
    **{f"closure:{c}": 4 for c in CONDITION_TAGS},
}
SWEEP_MAX_LATTICE = 6  # the jonsson sampler draws lattices of size <= 6


def _write(name: str, data: dict) -> None:
    path = HERE / "data" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    # eight "subseed:digest" entries of a sweep pool per line
    text = re.sub(
        r'(?:\n\s+"\d+:[0-9a-f]+",?){1,8}',
        lambda m: "\n    " + " ".join(m.group(0).split()),
        text,
    )
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def record_golden() -> None:
    problems = []
    for phi, psi, tags in golden_corpus():
        prob = interpolation.InterpolationProblem(
            formulas.parse_formula(phi), formulas.parse_formula(psi), tags
        )
        start = time.perf_counter()
        res = interpolation.craig_interpolant(prob)
        seconds = time.perf_counter() - start
        if res.verdict != "interpolant":
            raise SystemExit(f"{phi} |- {psi}: verdict {res.verdict}")
        problems.append(
            {
                "phi": phi,
                "psi": psi,
                "tags": list(tags),
                "interpolant": str(res.interpolant),
                "in_pass": (phi, psi, tags) not in GOLDEN_OUT_OF_PASS,
                "recorded_seconds": round(seconds, 3),
            }
        )
        print(f"{seconds:7.3f}s {phi} |- {psi} {tags}: {res.interpolant}")
    _write("golden", {"problems": problems})


def record_countermodel() -> None:
    templates = []
    for text, tags, family, copies in COUNTERMODEL:
        start = time.perf_counter()
        res = entailment.decide_entailment(
            tags, formulas.parse_pair(text), model_size=MODEL_SIZE
        )
        seconds = time.perf_counter() - start
        size = res.frame.n if res.refuted else None
        if not (res.verdict == "unknown" or (res.refuted and size >= MODEL_SIZE - 1)):
            raise SystemExit(f"{text} {tags}: {res.verdict} at size {size}")
        templates.append(
            {
                "pair": text,
                "tags": list(tags),
                "family": family,
                "copies": copies,
                "verdict": res.verdict,
                "size": size,
                "recorded_seconds": round(seconds, 3),
            }
        )
        print(f"{seconds:7.3f}s {text} {tags}: {res.verdict} {size}")
    _write("countermodel", {"model_size": MODEL_SIZE, "templates": templates})


def record_sweeps() -> None:
    for n in range(1, SWEEP_MAX_LATTICE + 1):
        catalog.all_lattices(n)
    variants = {}
    for variant, per_pass in SWEEP_PER_PASS.items():
        rows = []
        pool = per_pass * SWEEP_PASSES
        for subseed in range(pool):
            thunk = sweep_call(variant, subseed)
            times, digests = [], set()
            for _ in range(3):
                start = time.perf_counter()
                rep = thunk()
                times.append(time.perf_counter() - start)
                if not rep["ok"]:
                    raise SystemExit(f"{variant} seed {subseed} failed")
                digests.add(report_digest(rep))
            if len(digests) != 1:
                raise SystemExit(f"{variant} seed {subseed} is not deterministic")
            rows.append((statistics.median(times), subseed, digests.pop()))
        rows.sort()
        variants[variant] = {
            "per_pass": per_pass,
            "ranked": [f"{subseed}:{digest}" for _, subseed, digest in rows],
        }
        print(f"{variant}: {sum(t for t, _, _ in rows):.2f}s over {pool}", flush=True)
    _write(
        "sweeps",
        {"max_lattice": SWEEP_MAX_LATTICE, "passes": SWEEP_PASSES, "variants": variants},
    )


RECORDERS = {
    "golden": record_golden,
    "countermodel": record_countermodel,
    "sweeps": record_sweeps,
}

if __name__ == "__main__":
    for name in sys.argv[1:] or RECORDERS:
        RECORDERS[name]()
