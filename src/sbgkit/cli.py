"""Command-line front end: sbgkit <subcommand>.

Exit codes: 0 success (for `verify`: proof accepted), 1 failed check,
rejected proof, unreadable file or, for `oracle` and `reproduce`, no numpy,
2 malformed input, 3 solver resource limit.  Every error is reported as one
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

from . import fixtures
from .graph import Graph, GraphError, build_sbg, bits, is_sbg, parse_edge_list, write_edge_list
from .ics import classify_solutions, color_table, is_ics, motif_class_sets, signatures
from .encode import (
    Assignment,
    EncodeError,
    OpbError,
    _TooLong,
    _read_literal,
    encode_ics,
    parse_opb,
    write_opb,
)
from .oracle import OracleError, count_ics
from .proof import ProofParseError, VerifyError, parse_proof, verify
from .solve import SolveError, SolveLimitReached, enumerate_all, solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _witness_line(a: Assignment) -> str:
    return "v " + " ".join(
        f"x{var}" if a.value(var) else f"-x{var}" for var in a.assigned_vars()
    )


def _solution_json(a: Assignment, names: tuple[str, ...] | None) -> str:
    obj = {names[var - 1] if names else f"x{var}": a.value(var) for var in a.assigned_vars()}
    return json.dumps(obj, sort_keys=True)


def _cmd_build_sbg(args) -> int:
    g = build_sbg()
    text = write_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({g.n} nodes, {g.edge_count} edges)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check_ics(args) -> int:
    g = _load_graph(args.graph)
    code = g.parse_node_set(args.set)
    sigs = signatures(g, code)
    for v, sig in enumerate(sigs):
        members = ",".join(g.node_name(u) for u in bits(sig)) or "-"
        print(f"{g.node_name(v)}: {{{members}}}")
    verdict = is_ics(g, code)
    print(f"identifying code: {'yes' if verdict else 'no'}")
    return EXIT_OK


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    injected = g.parse_node_set(args.inject)
    for name, cell in color_table(g, injected):
        print(f"{name}: {cell}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    g = _load_graph(args.graph)
    f = encode_ics(g, args.budget, exact=args.exact)
    Path(args.out).write_text(write_opb(f))
    print(f"wrote {args.out}: {len(f.constraints)} constraints over {f.num_vars} variables")
    return EXIT_OK


def _cmd_solve(args) -> int:
    res = solve(parse_opb(Path(args.opb).read_text()))
    st = res.stats
    print(
        f"c decisions={st.decisions} propagations={st.propagations} "
        f"conflicts={st.conflicts} bound_conflicts={st.bound_conflicts} "
        f"bound_fixings={st.bound_fixings}"
    )
    if res.is_sat:
        print("s SATISFIABLE")
        print(_witness_line(res.witness))
    else:
        print("s UNSATISFIABLE")
    return EXIT_OK


def _parse_projection(f, selector: str | None) -> list[int] | None:
    if selector is None:
        return None
    want = [s.strip() for s in selector.split(",") if s.strip()]
    out = []
    for token in want:
        try:
            lit = _read_literal(token)
        except _TooLong as exc:
            raise EncodeError(f"projection variable: {exc}") from None
        if lit and not lit.negated:
            out.append(lit.var)
        elif f.names and token in f.names:
            out.append(f.names.index(token) + 1)
        else:
            raise EncodeError(f"unknown projection variable {token!r}")
    return out


def _cmd_enumerate(args) -> int:
    f = parse_opb(Path(args.opb).read_text())
    sols = enumerate_all(f, _parse_projection(f, args.project))
    print(f"c {len(sols)} solutions")
    lines = []
    for a in sols:
        print(_witness_line(a))
        lines.append(_solution_json(a, f.names))
    if args.solutions:
        Path(args.solutions).write_text("\n".join(lines) + ("\n" if lines else ""))
        print(f"c wrote {args.solutions}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    f = parse_opb(Path(args.opb).read_text())
    outcome = verify(f, parse_proof(Path(args.proof).read_text()))
    print(f"c {outcome.steps_checked} steps checked")
    print(f"s VERIFIED (contradiction id {outcome.contradiction_id})")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    if args.classify and not is_sbg(g):
        print("error: --classify applies to the soccer ball graph only", file=sys.stderr)
        return EXIT_FAIL
    count, sols = count_ics(g, args.k, collect=args.list or args.classify)
    print(f"c {count} identifying codes of size {args.k}")
    if args.list:
        for mask in sols:
            print(",".join(sorted(g.node_name(v) for v in bits(mask))))
    if args.classify:
        hist = classify_solutions(sols)
        for family in sorted(hist.counts):
            print(f"class {family}: {hist.counts[family]}")
        print(f"unmatched: {len(hist.unmatched)}")
    return EXIT_OK


# -- the full reproduction pipeline ---------------------------------------------


def _once(thunk):
    """A thunk that runs *thunk* on its first call and then repeats its
    outcome: the value, or the SolveLimitReached it raised."""

    @cache
    def outcome():
        try:
            return thunk(), None
        except SolveLimitReached as exc:
            return None, exc

    def run():
        value, exc = outcome()
        if exc is not None:
            raise exc
        return value

    return run


def _reproduce_checks() -> list[tuple]:
    """The checks in report order: (name, expected, thunk computing the actual value).

    Thunks look layers up by their global names here, so a tracer can swap them.
    A value several checks read is computed once, and so is a node limit it hits.
    """
    g = build_sbg()
    degs = sorted(g.degree(v) for v in range(g.n))
    class_i = next(m for m in motif_class_sets() if m.family == "I")
    f9 = _once(lambda: encode_ics(g, 9))
    oracle10 = _once(lambda: count_ics(g, 10, collect=True))
    enum = _once(lambda: enumerate_all(encode_ics(g, 10, exact=True)))
    hist = _once(lambda: classify_solutions(oracle10()[1]))
    return [
        ("sbg node count", 32, lambda: g.n),
        ("sbg edge count", 90, lambda: g.edge_count),
        ("sbg degree histogram", {5: 12, 6: 20},
         lambda: {d: degs.count(d) for d in sorted(set(degs))}),
        ("ring injection is an identifying code", True, lambda: is_ics(g, class_i.members)),
        ("budget-9 encoding size", 273, lambda: len(f9().constraints)),
        ("exhaustive count at size 8", 0, lambda: count_ics(g, 8)[0]),
        ("exhaustive count at size 9", 0, lambda: count_ics(g, 9)[0]),
        ("solver at budget 9", "UNSAT", lambda: solve(f9()).status),
        ("solver at budget 10", "SAT", lambda: solve(encode_ics(g, 10)).status),
        ("exhaustive count at size 10", 26, lambda: oracle10()[0]),
        ("solver enumeration count", 26, lambda: len(enum())),
        ("solver and oracle agree on the solution set", True,
         lambda: sorted(a.code_mask() for a in enum()) == sorted(oracle10()[1])),
        ("class histogram", {"I": 1, "II": 10, "III": 10, "IV": 5}, lambda: hist().counts),
        ("unclassified solutions", 0, lambda: len(hist().unmatched)),
        ("refutation fixture verifies", True, lambda: verify(
            parse_opb(fixtures.EXAMPLE_UNSAT_OPB), parse_proof(fixtures.EXAMPLE_UNSAT_PROOF)
        ).contradiction_id == 14),
    ]


def _cmd_reproduce(args) -> int:
    t0 = time.time()
    checks: list[dict] = []
    for name, expected, thunk in _reproduce_checks():
        try:
            actual = thunk()
        except SolveLimitReached:
            actual = "inconclusive (node limit)"
        except (ProofParseError, VerifyError) as exc:
            actual = f"rejected: {exc}"
        ok = expected == actual
        checks.append(
            {"check": name, "expected": repr(expected), "actual": repr(actual), "pass": ok}
        )
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: expected {expected}, got {actual}")

    report_path = Path(args.report)
    report_path.write_text(json.dumps(checks, indent=2) + "\n")
    ok = all(c["pass"] for c in checks)
    print(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
          f"({sum(c['pass'] for c in checks)}/{len(checks)}, {time.time() - t0:.1f}s); "
          f"report: {report_path}")
    return EXIT_OK if ok else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="sbgkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-sbg", help="write the soccer ball graph edge list")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(fn=_cmd_build_sbg)

    p = sub.add_parser("check-ics", help="print signatures and the code verdict")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", required=True, help="comma-separated node names")
    p.set_defaults(fn=_cmd_check_ics)

    p = sub.add_parser("color", help="seepage coloring table in star notation")
    p.add_argument("--graph", required=True)
    p.add_argument("--inject", required=True, help="comma-separated node names")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("encode", help="encode the code-size decision as OPB")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="force the size up to the budget too")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("solve", help="decide satisfiability of an OPB file")
    p.add_argument("opb")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("enumerate", help="enumerate all solutions of an OPB file")
    p.add_argument("opb")
    p.add_argument("--project", help="comma-separated variable names to project onto")
    p.add_argument("--solutions", help="write solutions as JSON lines to this path")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="check a cutting-planes refutation proof")
    p.add_argument("opb")
    p.add_argument("proof")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive identifying-code count")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list", action="store_true", help="print each code found")
    p.add_argument("--classify", action="store_true", help="histogram by SBG family")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("reproduce", help="run the whole certification pipeline")
    p.add_argument("--report", default="reproduce_report.json")
    p.set_defaults(fn=_cmd_reproduce)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SolveLimitReached as exc:
        print(f"s UNKNOWN ({exc})")
        return EXIT_LIMIT
    except (
        GraphError, OpbError, ProofParseError, EncodeError, OracleError, UnicodeDecodeError
    ) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerifyError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (SolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        # only the oracle needs numpy, and it imports it on its first call
        print(f"error: sbgkit {args.command} needs numpy, which is not installed",
              file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
