"""Write tests/data/golden_bounds.json: frozen exact reports to compare
refactors against.

For every connected graph of order 2..6 and for the Petersen, Moebius-Kantor,
Paley(13) and Clebsch graphs it records graph6, beta, betaE, betaM, the
betaM witness, the N2 witness and the seven lower bounds of
bounds_report(G, compute_exact=True).  Regenerate only on purpose:

    PYTHONPATH=src python tests/make_golden.py
"""
from __future__ import annotations

import json
from pathlib import Path

from mixdim.bounds import bounds_report
from mixdim.families import connected_graphs_of_order, encode_graph6, generate_named

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_bounds.json"

NAMED = (
    ("Petersen", ("gen_petersen", 5, 2)),
    ("Mobius-Kantor", ("gen_petersen", 8, 3)),
    ("Paley(13)", ("paley", 13)),
    ("Clebsch", ("clebsch",)),
)

BOUND_FIELDS = ("l1", "l2", "l3", "l4", "n1", "n2", "n3")


def golden_graphs():
    """(label, graph) for every graph the golden file covers, in file order."""
    for k in range(2, 7):
        for g in connected_graphs_of_order(k):
            yield encode_graph6(g), g
    for label, (name, *params) in NAMED:
        yield label, generate_named(name, *params)


def record(label, g) -> dict:
    rep = bounds_report(g, compute_exact=True)
    out = {
        "label": label,
        "graph6": encode_graph6(g),
        "beta": rep.beta,
        "beta_e": rep.beta_e,
        "beta_m": rep.beta_m,
        "beta_m_witness": list(rep.beta_m_witness),
        "n2_witness": list(rep.n2_witness),
    }
    out.update({f: getattr(rep, f) for f in BOUND_FIELDS})
    return out


def main() -> None:
    rows = [record(label, g) for label, g in golden_graphs()]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with GOLDEN_PATH.open("w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r) for r in rows))
        fh.write("\n]\n")
    print(f"wrote {len(rows)} records to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
