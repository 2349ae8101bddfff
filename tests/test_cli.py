import json
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from reference import example_graph
from sbgkit.cli import main
from sbgkit.encode import PBFormula, parse_opb
from sbgkit.fixtures import EXAMPLE_UNSAT_OPB, EXAMPLE_UNSAT_PROOF
from sbgkit.graph import build_sbg, write_edge_list
from sbgkit.ics import motif_class_sets
from sbgkit.proof import VerifyError
from sbgkit.solve import SolveLimitReached, SolveStats, _Search, enumerate_all, solve


@pytest.fixture()
def sbg_file(tmp_path):
    path = tmp_path / "sbg.txt"
    assert main(["build-sbg", "--out", str(path)]) == 0
    return path


def test_build_sbg_writes_edge_list_and_names(tmp_path, capsys):
    out = tmp_path / "edges.txt"
    assert main(["build-sbg", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len([l for l in lines if " " in l and not l.startswith("#")]) == 90
    # the node declarations up front are the name table, in id order
    assert lines[1] == "P1_1" and lines[32] == "P6_1"
    assert [p.name for p in tmp_path.iterdir()] == ["edges.txt"]


def test_build_sbg_writes_to_stdout(capsys):
    assert main(["build-sbg"]) == 0
    assert capsys.readouterr().out == write_edge_list(build_sbg())


def test_check_ics(sbg_file, capsys):
    ring = ",".join([f"H2_{j}" for j in range(1, 6)] + [f"H5_{j}" for j in range(1, 6)])
    assert main(["check-ics", "--graph", str(sbg_file), "--set", ring]) == 0
    out = capsys.readouterr().out
    assert "identifying code: yes" in out
    assert "P1_1: {H2_1,H2_2,H2_3,H2_4,H2_5}" in out


def test_color_star_notation(sbg_file, capsys):
    ring = ",".join([f"H2_{j}" for j in range(1, 6)] + [f"H5_{j}" for j in range(1, 6)])
    assert main(["color", "--graph", str(sbg_file), "--inject", ring]) == 0
    out = capsys.readouterr().out
    assert "P1_1: ABCDE" in out
    assert "H2_1: A*BE" in out


def test_encode_reports_273(sbg_file, tmp_path, capsys):
    opb = tmp_path / "sbg9.opb"
    assert main([
        "encode", "--graph", str(sbg_file), "--budget", "9", "--out", str(opb),
    ]) == 0
    assert "273 constraints" in capsys.readouterr().out
    lines = opb.read_text().splitlines()
    assert lines[0] == "* #variable= 32 #constraint= 273"
    assert lines[1] == "* name x1 P1_1" and lines[32] == "* name x32 P6_1"


def test_solve_and_enumerate_small(tmp_path, capsys):
    opb = tmp_path / "tiny.opb"
    opb.write_text("* #variable= 2 #constraint= 1\n+1 x1 +1 x2 >= 1 ;\n")
    assert main(["solve", str(opb)]) == 0
    assert "s SATISFIABLE" in capsys.readouterr().out
    sols = tmp_path / "sols.jsonl"
    assert main(["enumerate", str(opb), "--solutions", str(sols)]) == 0
    out = capsys.readouterr().out
    assert "c 3 solutions" in out
    records = [json.loads(line) for line in sols.read_text().splitlines()]
    assert len(records) == 3
    assert {"x1": 1, "x2": 0} in records


def test_witness_lines_list_the_assigned_variables(tmp_path, capsys):
    opb = tmp_path / "w.opb"
    opb.write_text("* #variable= 3 #constraint= 2\n+1 x1 >= 1 ;\n+1 ~x2 >= 1 ;\n")
    assert main(["solve", str(opb)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["s SATISFIABLE", "v x1 -x2 -x3"]
    assert main(["enumerate", str(opb), "--project", "x3,x2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["c 2 solutions", "v -x2 x3", "v -x2 -x3"]
    # a formula over no variables is satisfied by the empty witness
    opb.write_text("* #variable= 0 #constraint= 0\n")
    assert main(["solve", str(opb)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["s SATISFIABLE", "v "]


@pytest.mark.parametrize("command,message", [
    ("solve", "witness fails recheck"),
    ("enumerate", "model fails recheck"),
    ("enumerate", "duplicate projected model"),
])
def test_internal_errors_exit_1(tmp_path, monkeypatch, capsys, command, message):
    opb = tmp_path / "tiny.opb"
    opb.write_text("* #variable= 2 #constraint= 1\n+1 x1 +1 x2 >= 1 ;\n")
    if message == "duplicate projected model":
        monkeypatch.setattr(_Search, "search", lambda self, *args, **kw: iter([[1, 0]] * 2))
    else:
        monkeypatch.setattr(PBFormula, "satisfied_by", lambda self, a: False)
    assert main([command, str(opb)]) == 1
    assert capsys.readouterr().err == f"error: internal error: {message}\n"


def test_only_a_missing_numpy_is_reported(monkeypatch, capsys):
    def missing(name):
        def fn(args):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return fn

    monkeypatch.setattr("sbgkit.cli._cmd_color", missing("numpy"))
    assert main(["color", "--graph", "g.txt", "--inject", "a"]) == 1
    assert capsys.readouterr().err == "error: sbgkit color needs numpy, which is not installed\n"
    monkeypatch.setattr("sbgkit.cli._cmd_color", missing("other"))
    with pytest.raises(ModuleNotFoundError, match="other"):
        main(["color", "--graph", "g.txt", "--inject", "a"])


def test_solve_unsat(tmp_path, capsys):
    opb = tmp_path / "unsat.opb"
    opb.write_text(EXAMPLE_UNSAT_OPB)
    assert main(["solve", str(opb)]) == 0
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_solve_reports_search_statistics(tmp_path, capsys):
    opb = tmp_path / "unsat.opb"
    opb.write_text(EXAMPLE_UNSAT_OPB)
    stats = solve(parse_opb(EXAMPLE_UNSAT_OPB)).stats
    assert main(["solve", str(opb)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"c decisions={stats.decisions} propagations={stats.propagations} "
        f"conflicts={stats.conflicts} bound_conflicts={stats.bound_conflicts} "
        f"bound_fixings={stats.bound_fixings}",
        "s UNSATISFIABLE",
    ]


def test_readme_shows_the_solve_line_of_budget_9(sbg_file, tmp_path, capsys):
    # README's example is the `c` line `sbgkit solve` prints for sbg9.opb
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    shown = [line for line in readme.splitlines() if line.startswith("c decisions=")]
    opb = tmp_path / "sbg9.opb"
    assert main(["encode", "--graph", str(sbg_file), "--budget", "9", "--out", str(opb)]) == 0
    capsys.readouterr()
    assert main(["solve", str(opb)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [*shown, "s UNSATISFIABLE"]


def test_enumerate_projection_flag(tmp_path, capsys):
    opb = tmp_path / "tiny.opb"
    opb.write_text("* #variable= 2 #constraint= 1\n+1 x1 >= 1 ;\n")
    assert main(["enumerate", str(opb), "--project", "x1"]) == 0
    assert "c 1 solutions" in capsys.readouterr().out


def test_enumerate_projects_onto_node_names(tmp_path, capsys):
    # on the path a-b-c-d every code of size <= 4 holds b and c; projected
    # onto the end nodes by name, the codes give the three (a, d) patterns
    gpath = tmp_path / "path.txt"
    gpath.write_text("a\nb\nc\nd\na b\nb c\nc d\n")
    opb = tmp_path / "path.opb"
    assert main(["encode", "--graph", str(gpath), "--budget", "4", "--out", str(opb)]) == 0
    capsys.readouterr()
    by_index = tmp_path / "by_index.jsonl"
    assert main(["enumerate", str(opb), "--project", "x1,x4", "--solutions", str(by_index)]) == 0
    shown = capsys.readouterr().out.replace(str(by_index), "PATH")
    by_name = tmp_path / "by_name.jsonl"
    assert main(["enumerate", str(opb), "--project", "a, d", "--solutions", str(by_name)]) == 0
    assert capsys.readouterr().out.replace(str(by_name), "PATH") == shown
    assert shown.splitlines()[0] == "c 3 solutions"
    assert [json.loads(line) for line in by_name.read_text().splitlines()] == [
        {"a": 1, "d": 1}, {"a": 1, "d": 0}, {"a": 0, "d": 1},
    ]


@pytest.mark.parametrize("token", ["x01", "x0"])
def test_enumerate_projection_reads_ids_as_opb_does(tmp_path, capsys, token):
    # no OPB file or proof can name x01 or x0, so neither names a projection variable
    opb = tmp_path / "tiny.opb"
    opb.write_text("* #variable= 2 #constraint= 1\n+1 x1 >= 1 ;\n")
    assert main(["enumerate", str(opb), "--project", token]) == 2
    assert capsys.readouterr().err == f"malformed input: unknown projection variable {token!r}\n"


@pytest.mark.parametrize("command,layer,fn", [
    ("solve", "solve", solve),
    ("enumerate", "enumerate_all", enumerate_all),
])
def test_node_limit_exits_3(sbg_file, tmp_path, monkeypatch, capsys, command, layer, fn):
    opb = tmp_path / "sbg9.opb"
    assert main(["encode", "--graph", str(sbg_file), "--budget", "9", "--out", str(opb)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(f"sbgkit.cli.{layer}", partial(fn, node_limit=1))
    assert main([command, str(opb)]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines() == ["s UNKNOWN (node limit 1 reached (inconclusive))"]
    assert err == ""


def test_verify_exit_codes(tmp_path):
    opb = tmp_path / "ex.opb"
    proof = tmp_path / "ex.pbp"
    opb.write_text(EXAMPLE_UNSAT_OPB)
    proof.write_text(EXAMPLE_UNSAT_PROOF)
    assert main(["verify", str(opb), str(proof)]) == 0

    broken = tmp_path / "broken.pbp"
    broken.write_text(EXAMPLE_UNSAT_PROOF.replace("c 14 0", "c 2 0"))
    assert main(["verify", str(opb), str(broken)]) == 1

    garbled = tmp_path / "garbled.pbp"
    garbled.write_text(EXAMPLE_UNSAT_PROOF.replace("l 5", "zz 5"))
    assert main(["verify", str(opb), str(garbled)]) == 2

    bad_opb = tmp_path / "bad.opb"
    bad_opb.write_text("* #variable= 1 #constraint= 1\n+1 x1 >= 1\n")
    assert main(["verify", str(bad_opb), str(proof)]) == 2


def test_verify_reports_steps_checked(tmp_path, capsys):
    opb = tmp_path / "ex.opb"
    proof = tmp_path / "ex.pbp"
    opb.write_text(EXAMPLE_UNSAT_OPB)
    proof.write_text(EXAMPLE_UNSAT_PROOF)
    assert main(["verify", str(opb), str(proof)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "c 16 steps checked",
        "s VERIFIED (contradiction id 14)",
    ]


def test_oracle_small_graph(tmp_path, capsys):
    gpath = tmp_path / "path.txt"
    gpath.write_text("a\nb\nc\na b\nb c\n")
    assert main(["oracle", "--graph", str(gpath), "--k", "2", "--list"]) == 0
    out = capsys.readouterr().out
    assert "c 1 identifying codes of size 2" in out
    assert "a,c" in out


def test_oracle_classify_requires_sbg(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("sbgkit.cli.count_ics", lambda *a, **kw: calls.append(a) or (0, []))
    gpath = tmp_path / "path.txt"
    gpath.write_text("a b\n")
    assert main(["oracle", "--graph", str(gpath), "--k", "1", "--classify"]) == 1
    out, err = capsys.readouterr()
    assert calls == []
    assert out == ""
    assert len(err.splitlines()) == 1


def test_oracle_classifies_the_sbg_codes_of_size_10(sbg_file, capsys):
    assert main(["oracle", "--graph", str(sbg_file), "--k", "10", "--classify"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "c 26 identifying codes of size 10",
        "class I: 1",
        "class II: 10",
        "class III: 10",
        "class IV: 5",
        "unmatched: 0",
    ]


def test_missing_graph_file_is_reported(capsys):
    assert main(["check-ics", "--graph", "/nonexistent", "--set", "a"]) == 1


def test_the_module_runs_as_a_script_with_main_s_exit_code(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sbgkit.cli", "solve", "missing.opb"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("error: ") and len(run.stderr.splitlines()) == 1


# -- every failure is one stderr line and a documented exit code -----------------

PROOF_HEADER = "pseudo-Boolean proof version 1.0\n"
SMALL_GRAPH = "a\nb\nc\na b\nb c\n"

REPROS = [
    # (name, files written to tmp_path, argv, exit code)
    (
        "derived constraint wider than the formula",
        {"p.pbp": PROOF_HEADER + "l 1\np 1 x999 + 0\nu +1 x1 >= 1 ;\n"},
        ["verify", "ex.opb", "p.pbp"],
        1,
    ),
    ("x0 in OPB", {"x0.opb": "* #variable= 1 #constraint= 1\n+1 x0 >= 1 ;\n"},
     ["solve", "x0.opb"], 2),
    ("x0 in a u step", {"p.pbp": PROOF_HEADER + "u +1 x0 >= 1 ;\n"},
     ["verify", "ex.opb", "p.pbp"], 2),
    ("x0 in a p step", {"p.pbp": PROOF_HEADER + "p x0 0\n"},
     ["verify", "ex.opb", "p.pbp"], 2),
    ("zero c id", {"p.pbp": PROOF_HEADER + "l 1\nc 0 0\n"},
     ["verify", "ex.opb", "p.pbp"], 2),
    ("signed p id", {"p.pbp": PROOF_HEADER + "l 1\np +1 0\n"},
     ["verify", "ex.opb", "p.pbp"], 2),
    ("signed p multiplier", {"p.pbp": PROOF_HEADER + "l 1\np 1 +2 * 0\n"},
     ["verify", "ex.opb", "p.pbp"], 2),
    ("signed p divisor", {"p.pbp": PROOF_HEADER + "l 1\np 1 -2 d 0\n"},
     ["verify", "ex.opb", "p.pbp"], 2),
    ("zero p divisor", {"p.pbp": PROOF_HEADER + "l 1\np 1 0 d 0\n"},
     ["verify", "ex.opb", "p.pbp"], 1),
    ("negative budget", {"g.txt": SMALL_GRAPH},
     ["encode", "--graph", "g.txt", "--budget", "-1", "--out", "o.opb"], 2),
    ("oracle k beyond n", {"g.txt": SMALL_GRAPH}, ["oracle", "--graph", "g.txt", "--k", "99"], 2),
    ("unknown node name", {"g.txt": SMALL_GRAPH},
     ["check-ics", "--graph", "g.txt", "--set", "NOPE"], 2),
    ("oracle over 64 nodes", {"g.txt": "".join(f"n{i}\n" for i in range(70))},
     ["oracle", "--graph", "g.txt", "--k", "2"], 2),
    ("projection out of range", {}, ["enumerate", "ex.opb", "--project", "x9"], 2),
    ("projection repeats a variable", {}, ["enumerate", "ex.opb", "--project", "x1,x1"], 2),
    ("OPB that is not UTF-8", {"bin.opb": b"\xff\xfe"}, ["solve", "bin.opb"], 2),
]

# decimal integers past Python's integer-string limit (4300 digits)
BIG = "9" * 5000
OPB_HEADER = "* #variable= 1 #constraint= 1\n"
REPROS += [
    (f"over-long {where}", {"big.opb": text}, ["solve", "big.opb"], 2)
    for where, text in [
        ("OPB degree", OPB_HEADER + f"+1 x1 >= {BIG} ;\n"),
        ("OPB coefficient", OPB_HEADER + f"+{BIG} x1 >= 1 ;\n"),
        ("OPB variable id", OPB_HEADER + f"+1 x{BIG} >= 1 ;\n"),
        ("OPB variable count", f"* #variable= {BIG} #constraint= 1\n+1 x1 >= 1 ;\n"),
        ("OPB name line", OPB_HEADER + f"* name x{BIG} a\n+1 x1 >= 1 ;\n"),
    ]
] + [
    (f"over-long {where}", {"p.pbp": PROOF_HEADER + text}, ["verify", "ex.opb", "p.pbp"], 2)
    for where, text in [
        ("l index", f"l {BIG}\n"),
        ("c id", f"l 1\nc {BIG} 0\n"),
        ("p constraint id", f"p {BIG} 0\n"),
        ("p multiplier", f"l 1\np 1 {BIG} * 0\n"),
        ("p literal", f"p x{BIG} 0\n"),
        ("u degree", f"u +1 x1 >= {BIG} ;\n"),
    ]
] + [("over-long projection id", {}, ["enumerate", "ex.opb", "--project", f"x{BIG}"], 2)]

# Unicode digits outside ASCII 0-9, which int() reads as numbers; each input
# is valid, and the proof checks, with the digits made ASCII
REPROS += [
    (f"non-ASCII digit in {where}", {"u.opb": text}, ["solve", "u.opb"], 2)
    for where, text in [
        ("OPB coefficient", OPB_HEADER + "+٢ x1 >= 1 ;\n"),
        ("OPB degree", OPB_HEADER + "+1 x1 >= ١ ;\n"),
        ("OPB variable id", "* #variable= 10 #constraint= 1\n+1 x1٠ >= 1 ;\n"),
        ("OPB variable count", "* #variable= ١ #constraint= 1\n+1 x1 >= 1 ;\n"),
    ]
] + [
    (f"non-ASCII digit in {where}", {"p.pbp": EXAMPLE_UNSAT_PROOF.replace(old, new)},
     ["verify", "ex.opb", "p.pbp"], 2)
    for where, old, new in [
        ("l index", "l 1\n", "l ١\n"),
        ("c id", "c 14 0", "c ١٤ 0"),
        ("u degree", "u >= 0 ;", "u >= ٠ ;"),
        ("p constraint id", "p 7 10 + 0", "p ٧ 10 + 0"),
    ]
] + [("non-ASCII digit in projection id", {}, ["enumerate", "ex.opb", "--project", "x١"], 2)]


@pytest.mark.parametrize("name,files,argv,code", REPROS, ids=[r[0] for r in REPROS])
def test_bad_input_exits_cleanly(tmp_path, monkeypatch, capsys, name, files, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ex.opb").write_text(EXAMPLE_UNSAT_OPB)
    for fname, data in files.items():
        (tmp_path / fname).write_bytes(data if isinstance(data, bytes) else data.encode())
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err


# -- malformed-input corpus --------------------------------------------------------

VOCAB = ["x0", "~x", "-1", "0", "=", "<", ";", "d", "*", "+", "zz", ""]
CASES_PER_KIND = 200


def _mutate(rng, text):
    """Apply one or two random line or token mutations to *text*."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.choice(("delete", "duplicate", "swap", "truncate", "replace"))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(VOCAB)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


HUBS = "v1,v2,v3,v4"
CORPUS = {
    # kind: (valid text, file name, the subcommands that read it)
    "opb": (EXAMPLE_UNSAT_OPB, "ex.opb", [
        ["solve", "ex.opb"],
        ["enumerate", "ex.opb"],
        ["verify", "ex.opb", "ex.pbp"],
    ]),
    "proof": (EXAMPLE_UNSAT_PROOF, "ex.pbp", [["verify", "ex.opb", "ex.pbp"]]),
    "graph": (write_edge_list(example_graph()), "g.txt", [
        ["check-ics", "--graph", "g.txt", "--set", HUBS],
        ["color", "--graph", "g.txt", "--inject", HUBS],
        ["encode", "--graph", "g.txt", "--budget", "4", "--out", "g.opb"],
        ["oracle", "--graph", "g.txt", "--k", "4"],
    ]),
}


@pytest.mark.parametrize("kind", sorted(CORPUS))
def test_malformed_input_corpus(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ex.opb").write_text(EXAMPLE_UNSAT_OPB)
    (tmp_path / "ex.pbp").write_text(EXAMPLE_UNSAT_PROOF)
    valid, fname, commands = CORPUS[kind]
    rng = random.Random(f"corpus/{kind}")
    codes = set()
    for case in range(CASES_PER_KIND):
        text = _mutate(rng, valid)
        (tmp_path / fname).write_text(text)
        for argv in commands:
            code = main(argv)
            err = capsys.readouterr().err
            context = f"case {case} {argv}:\n{text}\nstderr: {err}"
            assert code in (0, 1, 2, 3), context
            assert len(err.splitlines()) <= 1, context
            assert "Traceback" not in err, context
            codes.add(code)
    # the corpus must reach the error paths, not only mutations that stay valid
    assert codes - {0}, codes


# -- reproduce, with the three slow layers replaced by fakes ------------------------

REPRODUCE_CHECKS = [
    "sbg node count",
    "sbg edge count",
    "sbg degree histogram",
    "ring injection is an identifying code",
    "budget-9 encoding size",
    "exhaustive count at size 8",
    "exhaustive count at size 9",
    "solver at budget 9",
    "solver at budget 10",
    "exhaustive count at size 10",
    "solver enumeration count",
    "solver and oracle agree on the solution set",
    "class histogram",
    "unclassified solutions",
    "refutation fixture verifies",
]


@pytest.fixture()
def fast_layers(tmp_path, monkeypatch):
    """Fakes for count_ics, solve and enumerate_all that give the known SBG answers."""
    codes = sorted(m.members for m in motif_class_sets())

    def count_ics(g, k, collect=False):
        sols = codes if k == 10 else []
        return len(sols), (list(sols) if collect else None)

    def solve(f):
        # the all-negated budget constraint of a size-k formula has degree n - k
        budget = next(len(c.terms) - c.degree for c in f.constraints if c.degree > 1)
        return SimpleNamespace(status="UNSAT" if budget < 10 else "SAT")

    def enumerate_all(f):
        return [SimpleNamespace(code_mask=lambda m=m: m) for m in reversed(codes)]

    monkeypatch.setattr("sbgkit.cli.count_ics", count_ics)
    monkeypatch.setattr("sbgkit.cli.solve", solve)
    monkeypatch.setattr("sbgkit.cli.enumerate_all", enumerate_all)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _reproduce(path):
    code = main(["reproduce", "--report", str(path)])
    return code, json.loads(path.read_text())


def test_reproduce_passes_every_check_in_order(fast_layers, capsys):
    code, report = _reproduce(fast_layers / "r.json")
    assert code == 0
    assert [c["check"] for c in report] == REPRODUCE_CHECKS
    assert all(c["pass"] for c in report)
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(":")[0] for l in lines[:-1]] == [f"[PASS] {n}" for n in REPRODUCE_CHECKS]
    assert lines[-1].startswith("all checks passed (15/15, ")


def test_reproduce_report_repeats_byte_for_byte(fast_layers):
    _reproduce(fast_layers / "a.json")
    _reproduce(fast_layers / "b.json")
    assert (fast_layers / "a.json").read_bytes() == (fast_layers / "b.json").read_bytes()


@pytest.mark.parametrize("layer,rows", [
    ("solve", ["solver at budget 9", "solver at budget 10"]),
    ("enumerate_all", ["solver enumeration count", "solver and oracle agree on the solution set"]),
])
def test_reproduce_records_node_limit_and_runs_on(fast_layers, monkeypatch, layer, rows):
    calls = []

    def limited(*args, **kwargs):
        calls.append(args)
        raise SolveLimitReached(7, SolveStats())

    monkeypatch.setattr(f"sbgkit.cli.{layer}", limited)
    code, report = _reproduce(fast_layers / "r.json")
    assert code == 1
    assert [c["check"] for c in report] == REPRODUCE_CHECKS
    assert [c["check"] for c in report if not c["pass"]] == rows
    assert {c["actual"] for c in report if not c["pass"]} == {"'inconclusive (node limit)'"}
    # each formula is searched once, even when two rows read the outcome
    assert len(calls) == {"solve": 2, "enumerate_all": 1}[layer]


def test_reproduce_records_a_rejected_proof(fast_layers, monkeypatch):
    def rejecting(f, steps):
        raise VerifyError(9, "rup", "no conflict")

    monkeypatch.setattr("sbgkit.cli.verify", rejecting)
    code, report = _reproduce(fast_layers / "r.json")
    assert code == 1
    assert report[-1] == {
        "check": "refutation fixture verifies",
        "expected": "True",
        "actual": "'rejected: line 9: rup: no conflict'",
        "pass": False,
    }
    assert all(c["pass"] for c in report[:-1])
