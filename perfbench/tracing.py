"""Span recording around calls into sbgkit's layers, from outside the program.

A traced pass replaces layer functions by recorders, in the namespaces that
call them: the package namespace (the benchmark's own calls), ``sbgkit.cli``
and ``sbgkit.proof``, which import layer functions by name.  Spans stay in
memory; per-layer metrics are computed from them when the pass ends.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import sbgkit
import sbgkit.cli
import sbgkit.proof


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    args: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_time(self, s: Span) -> float:
        """Duration minus the part of it covered by direct children."""
        return s.duration - sum(c.duration for c in self.spans if c.parent == s.id)

    def total(self, name: str, root: Span | None = None) -> float:
        return sum(s.duration for s in self.named(name, root))

    def named(self, name: str, root: Span | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (root is None or self._under(s, root))]

    def _under(self, s: Span, root: Span) -> bool:
        while s.parent is not None:
            if s.parent == root.id:
                return True
            s = self.spans[s.parent]
        return False

    def count(self, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans)


# -- what each layer call records ---------------------------------------------


def _budget_of(f) -> int | None:
    """The size budget of an encode_ics formula: its all-negated constraint."""
    for c in f.constraints:
        if c.terms and c.degree > 1 and all(lit.negated for _, lit in c.terms):
            return len(c.terms) - c.degree
    return None


def _on_solve(s, args, kwargs, res):
    s.counts.update(
        decisions=res.stats.decisions,
        propagations=res.stats.propagations,
        conflicts=res.stats.conflicts,
    )
    s.name = f"solve.budget{_budget_of(args[0])}"
    s.args = args


def _on_count_ics(s, args, kwargs, res):
    g, k = args[0], args[1]
    s.counts.update(k=k, subsets=math.comb(g.n, k))


def _on_encode(s, args, kwargs, res):
    s.counts["constraints"] = len(res.constraints)


def _on_opb_text(key):
    def record(s, args, kwargs, res):
        s.counts["opb_bytes"] = len(res if key == "out" else args[0])
    return record


def _on_parse_proof(s, args, kwargs, res):
    s.counts["rup_steps"] = sum(step.kind == "rup" for step in res)


def _on_verify(s, args, kwargs, res):
    s.counts["steps"] = res.steps_checked


# (namespace attribute, span name, recorder of counts, measure allocations)
LAYER_CALLS = [
    ("build_sbg", "graph.build", None, False),
    ("Graph", "graph.build", None, False),
    ("is_ics", "ics.is_ics", None, False),
    ("encode_ics", "encode.encode", _on_encode, False),
    ("write_opb", "encode.write_opb", _on_opb_text("out"), False),
    ("parse_opb", "encode.parse_opb", _on_opb_text("in"), False),
    ("count_ics", "oracle.count", _on_count_ics, True),
    ("classify_solutions", "oracle.classify", None, False),
    ("solve", "solve.solve", _on_solve, False),
    ("enumerate_all", "solve.enumerate", None, False),
    ("propagates_to_conflict", "solve.rup", None, False),
    ("parse_proof", "proof.parse", _on_parse_proof, False),
    ("verify", "proof.verify", _on_verify, False),
    ("main", "cli.reproduce", None, False),
]
NAMESPACES = (sbgkit, sbgkit.cli, sbgkit.proof)


def _recorder(tracer: Tracer, fn, name: str, on_result, track_alloc: bool):
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            if track_alloc:
                tracemalloc.start()
            try:
                res = fn(*args, **kwargs)
            finally:
                if track_alloc:
                    s.counts["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if on_result is not None:
                on_result(s, args, kwargs, res)
            return res

    return traced


@contextmanager
def traced_layers(tracer: Tracer):
    """Swap every layer function for a recorder while the block runs."""
    saved = []
    try:
        for ns in NAMESPACES:
            for attr, name, on_result, track_alloc in LAYER_CALLS:
                fn = getattr(ns, attr, None)
                if fn is None:
                    continue
                saved.append((ns, attr, fn))
                setattr(ns, attr, _recorder(tracer, fn, name, on_result, track_alloc))
        yield tracer
    finally:
        for ns, attr, fn in reversed(saved):
            setattr(ns, attr, fn)


def layer_metrics(tracer: Tracer, certify: Span) -> dict[str, float]:
    """Per-layer figures over the whole traced pass (set-up and certify).

    Shares are taken inside the certify span only.
    """
    t = tracer.total
    c = tracer.count
    solve_s = sum(s.duration for s in tracer.spans if s.name.startswith("solve.budget"))
    decisions, propagations = c("decisions"), c("propagations")
    verify_s = t("proof.verify")
    count_s = t("oracle.count")
    steps = c("steps")
    subsets = c("subsets")
    cli_spans = tracer.named("cli.reproduce")
    certify_s = certify.duration
    solve_names = {s.name for s in tracer.spans if s.name.startswith("solve.")}

    def in_certify(*names):
        return sum(tracer.total(n, certify) for n in names)

    def oracle_at(k):
        return sum(s.duration for s in tracer.named("oracle.count") if s.counts["k"] == k)

    return {
        "solve.budget9_s": t("solve.budget9"),
        "solve.budget10_s": t("solve.budget10"),
        "solve.enumerate_s": t("solve.enumerate"),
        "solve.decisions": decisions,
        "solve.propagations": propagations,
        "solve.conflicts": c("conflicts"),
        "solve.propagations_per_s": propagations / solve_s if solve_s else 0.0,
        "solve.props_per_decision": propagations / decisions if decisions else 0.0,
        "solve.rup_s": t("solve.rup"),
        "solve.rup_calls": len(tracer.named("solve.rup")),
        "solve.share": in_certify(*solve_names) / certify_s,
        "proof.parse_s": t("proof.parse"),
        "proof.verify_s": verify_s,
        "proof.verify_self_s": sum(tracer.self_time(s) for s in tracer.named("proof.verify")),
        "proof.steps": steps,
        "proof.rup_steps": c("rup_steps"),
        "proof.steps_per_s": steps / verify_s if verify_s else 0.0,
        "proof.verify_share": in_certify("proof.verify") / certify_s,
        "oracle.k8_s": oracle_at(8),
        "oracle.k9_s": oracle_at(9),
        "oracle.k10_s": oracle_at(10),
        "oracle.count_s": count_s,
        "oracle.subsets": subsets,
        "oracle.subsets_per_s": subsets / count_s if count_s else 0.0,
        "oracle.peak_alloc_mib": max(
            (s.counts["peak_alloc"] for s in tracer.named("oracle.count")), default=0
        ) / 2**20,
        "oracle.classify_s": t("oracle.classify"),
        "oracle.share": in_certify("oracle.count") / certify_s,
        "encode.encode_s": t("encode.encode"),
        "encode.constraints": c("constraints"),
        "encode.write_opb_s": t("encode.write_opb"),
        "encode.parse_opb_s": t("encode.parse_opb"),
        "encode.opb_bytes": c("opb_bytes"),
        "graph.build_s": t("graph.build"),
        "ics.is_ics_s": t("ics.is_ics"),
        "ics.is_ics_calls": len(tracer.named("ics.is_ics")),
        "cli.reproduce_s": sum(s.duration for s in cli_spans),
        "cli.self_s": sum(tracer.self_time(s) for s in cli_spans),
        "trace.certify_s": certify_s,
    }
