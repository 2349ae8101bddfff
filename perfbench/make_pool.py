"""Generate perfbench/oracle_pool.json, the graphs and expected counts of the
oracle-random workload.

Each pool graph is a G(n, 0.22) sample with no twins, minimum code size
k* = 8 and at most 15 000 codes of size 9, for n = 28..32.  The cap keeps the
oracle's candidate arrays, and with them its peak memory, about the same for
every graph.  For k = 7, 8, 9 the file holds the number of size-k codes and a
digest of the code set.  The counts are computed three ways and
must agree: the benchmark's own hitting-set counter, sbgkit's oracle, and, at
k = 7 and 8, sbgkit's solver enumeration (its cost grows with the number of
models, which rules it out at k = 9 with up to 15 000 codes).  The digest is of
the oracle's set; at k = 8 it is compared with the solver's set as well.

Run from the repository root (about ten minutes on one core):

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sbgkit  # noqa: E402

from hitting import code_clauses, count_codes, mask_digest, random_twin_free  # noqa: E402

EDGE_P = 0.22
KSTAR = 8
SIZES = range(28, 33)
PER_SIZE = 4
MAX_CODES = 15_000  # of size k* + 1


def pool_graph(n: int, index: int) -> dict:
    rng = random.Random(f"oracle-pool/{n}/{index}")
    while True:
        edges = random_twin_free(rng, n, EDGE_P)
        clauses = code_clauses(n, edges)
        if count_codes(clauses, n, KSTAR - 1) or not count_codes(clauses, n, KSTAR):
            continue
        own = {k: count_codes(clauses, n, k) for k in (KSTAR - 1, KSTAR, KSTAR + 1)}
        if own[KSTAR + 1] <= MAX_CODES:
            break
    g = sbgkit.Graph(n, edges)
    levels = {}
    for k in own:
        count, sols = sbgkit.count_ics(g, k, collect=True)
        if count != own[k] or len(sols) != own[k]:
            raise SystemExit(f"n={n} #{index} k={k}: oracle {count} vs counter {own[k]}")
        if k <= KSTAR:
            enum = sbgkit.enumerate_all(sbgkit.encode_ics(g, k, exact=True))
            if sorted(a.code_mask() for a in enum) != sorted(sols):
                raise SystemExit(f"n={n} #{index} k={k}: solver and oracle sets differ")
        levels[str(k)] = {"count": count, "digest": mask_digest(sols)}
        print(f"n={n} #{index} k={k}: {count} codes", flush=True)
    return {"n": n, "edges": edges, "kstar": KSTAR, "levels": levels}


def main() -> None:
    pool = [pool_graph(n, i) for n in SIZES for i in range(PER_SIZE)]
    out = HERE / "oracle_pool.json"
    out.write_text(json.dumps({"edge_p": EDGE_P, "graphs": pool}, separators=(",", ":")) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
