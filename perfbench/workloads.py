"""The three workloads: inputs from a seed, the timed task, and output checks.

Each workload has make_inputs(seed, tmp) (set-up, untimed), certify(inputs)
(the timed task, which calls sbgkit's public functions through module
attributes so that a traced pass can intercept them) and check(inputs,
results, checks), which judges every result of the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import sbgkit
import sbgkit.cli

import hitting

HERE = Path(__file__).resolve().parent


class Checks:
    """Output checks of one run: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


# -- sbg-reproduce --------------------------------------------------------------


class SbgReproduce:
    """`sbgkit reproduce` in process, the command users run.  The SBG is fixed,
    so the seed changes nothing."""

    def make_inputs(self, seed: int, tmp: Path) -> Path:
        return tmp / "reproduce_report.json"

    def certify(self, report: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = sbgkit.cli.main(["reproduce", "--report", str(report)])
        return rc, report.read_text()

    def check(self, report: Path, results, checks: Checks) -> None:
        for i, (rc, text) in enumerate(results):
            checks.expect(f"reproduce #{i} exit code 0", rc == 0)
            entries = json.loads(text)
            checks.expect(f"reproduce #{i} report lists checks", len(entries) > 0)
            for e in entries:
                checks.expect(f"reproduce #{i} {e['check']}", e["pass"] is True)
            checks.expect(f"reproduce #{i} report repeats", text == results[0][1])


# -- oracle-random --------------------------------------------------------------


def _relabel(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


class OracleRandom:
    """count_ics at k*-1, k*, k*+1 on one twin-free graph of each size 28..32.

    The seed picks each graph from the pool in oracle_pool.json and relabels
    its nodes at random, so the expected counts are known for every seed.
    """

    def __init__(self):
        self.pool = json.loads((HERE / "oracle_pool.json").read_text())["graphs"]

    def make_inputs(self, seed: int, tmp: Path) -> list[dict]:
        rng = random.Random(f"oracle-random/{seed}")
        inputs = []
        for n in sorted({g["n"] for g in self.pool}):
            entry = rng.choice([g for g in self.pool if g["n"] == n])
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in entry["edges"]]
            inputs.append({"graph": sbgkit.Graph(n, edges), "perm": perm, "entry": entry})
        return inputs

    def certify(self, inputs):
        # Largest scans first, so the peak RSS is set on an unfragmented heap.
        out = []
        for item in sorted(inputs, key=lambda item: -item["graph"].n):
            k0 = item["entry"]["kstar"]
            for k in (k0 + 1, k0, k0 - 1):
                out.append((item, k, sbgkit.count_ics(item["graph"], k, collect=True)))
        return out

    def check(self, inputs, results, checks: Checks) -> None:
        first = results[0]
        for item, k, (count, sols) in first:
            g, entry = item["graph"], item["entry"]
            tag = f"n={g.n} k={k}"
            want = entry["levels"][str(k)]
            checks.expect(f"{tag} count matches the pool", count == want["count"])
            checks.expect(f"{tag} one code per count", len(sols) == count)
            checks.expect(
                f"{tag} every code is an identifying code of size k",
                all(m.bit_count() == k and sbgkit.is_ics(g, m) for m in sols),
            )
            inverse = [0] * g.n
            for old, new in enumerate(item["perm"]):
                inverse[new] = old
            checks.expect(
                f"{tag} code set matches the pool",
                hitting.mask_digest(_relabel(m, inverse) for m in sols) == want["digest"],
            )
        for i, res in enumerate(results[1:], start=1):
            checks.expect(
                f"oracle iteration {i} repeats the first",
                [(c, s) for _, _, (c, s) in res] == [(c, s) for _, _, (c, s) in first],
            )


# -- proof-replay ---------------------------------------------------------------


class ProofReplay:
    """parse_opb + parse_proof + verify of refutations of budget k*-1.

    Graphs have 16..20 nodes.  The benchmark's own DFS refuter writes each
    proof.  The verifier rebuilds its propagation engine for every u step, so
    its work grows as W = u*M + u*u/2 for u steps over M input constraints;
    only proofs with W in a fixed window are kept, which makes the task cost
    about the same for every seed.
    """

    PROOFS = 10
    WORK_WINDOW = (50_000, 90_000)

    def make_inputs(self, seed: int, tmp: Path) -> list[dict]:
        rng = random.Random(f"proof-replay/{seed}")
        items = []
        while len(items) < self.PROOFS:
            n = rng.randint(16, 20)
            edges = hitting.random_twin_free(rng, n, 0.25)
            # Find k* with the graph's own clauses; 2^b - 1 < n rules out size b.
            graph_clauses = [(c, 0) for c in hitting.code_clauses(n, edges)]
            everyone = (1 << n) - 1
            budget = n.bit_length() - 1
            prefixes = hitting.refute(graph_clauses, [(everyone, budget)])
            while (more := hitting.refute(graph_clauses, [(everyone, budget + 1)])) is not None:
                budget, prefixes = budget + 1, more
            if not self._in_window(len(graph_clauses) + 1, prefixes):
                continue
            f = sbgkit.encode_ics(sbgkit.Graph(n, edges), budget)
            clauses, at_most = hitting.formula_constraints(f)
            prefixes = hitting.refute(clauses, at_most)
            m, u = len(f.constraints), len(prefixes)
            if not self._in_window(m, prefixes):
                continue
            step, clause = hitting.late_mutation(clauses, at_most, prefixes)
            mutated, bad_line = hitting.mutated_proof_text(m, prefixes, step, clause)
            items.append({
                "opb": sbgkit.write_opb(f),
                "proof": hitting.proof_text(m, prefixes),
                "claim": m + u,
                "steps": m + u + 2,
                "mutated": mutated,
                "bad_line": bad_line,
            })
        return items

    def _in_window(self, m: int, prefixes) -> bool:
        u = len(prefixes)
        return self.WORK_WINDOW[0] <= u * m + u * u // 2 <= self.WORK_WINDOW[1]

    def certify(self, items):
        out = []
        for item in items:
            f = sbgkit.parse_opb(item["opb"])
            v = sbgkit.verify(f, sbgkit.parse_proof(item["proof"]))
            out.append((v.contradiction_id, v.steps_checked))
        return out

    def check(self, items, results, checks: Checks) -> None:
        for i, res in enumerate(results):
            for j, (item, (claim, steps)) in enumerate(zip(items, res)):
                checks.expect(f"proof {j} #{i} accepted with its claim", claim == item["claim"])
                checks.expect(f"proof {j} #{i} checks every step", steps == item["steps"])
        for j, item in enumerate(items):
            f = sbgkit.parse_opb(item["opb"])
            try:
                sbgkit.verify(f, sbgkit.parse_proof(item["mutated"]))
                rejected = False
            except sbgkit.VerifyError as exc:
                rejected = exc.line_no == item["bad_line"]
            checks.expect(f"proof {j} mutated at line {item['bad_line']} is rejected there", rejected)


WORKLOADS = {
    "sbg-reproduce": SbgReproduce,
    "oracle-random": OracleRandom,
    "proof-replay": ProofReplay,
}
