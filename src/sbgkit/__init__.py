"""Identifying codes on the soccer ball graph.

Builds the 32-node soccer ball graph, checks and colors identifying code
sets, encodes the decision problem as pseudo-Boolean constraints in OPB
format, decides and enumerates solutions with a complete solver, certifies
the headline counts by exhaustive search, and verifies cutting-planes
refutation proofs.
"""

from .graph import (
    Graph,
    GraphError,
    bits,
    build_sbg,
    mask_of,
    parse_edge_list,
    sbg_node,
    write_edge_list,
)
from .ics import (
    ClassHistogram,
    MotifSet,
    classify_solutions,
    color_table,
    is_ics,
    motif_class_sets,
    signatures,
)
from .encode import (
    Assignment,
    EncodeError,
    LinearConstraint,
    Literal,
    OpbError,
    PBFormula,
    blocking_constraint,
    encode_ics,
    evaluate,
    neg,
    normalize,
    parse_opb,
    pos,
    write_opb,
)
from .solve import (
    SolveLimitReached,
    SolveResult,
    enumerate_all,
    solve,
)
from .proof import (
    ProofParseError,
    ProofStep,
    Verification,
    VerifyError,
    add,
    axiom_literal,
    divide,
    multiply,
    parse_proof,
    saturate,
    verify,
)
from .oracle import count_ics, min_ics_size

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ClassHistogram",
    "EncodeError",
    "Graph",
    "GraphError",
    "LinearConstraint",
    "Literal",
    "MotifSet",
    "OpbError",
    "PBFormula",
    "ProofParseError",
    "ProofStep",
    "SolveLimitReached",
    "SolveResult",
    "Verification",
    "VerifyError",
    "add",
    "axiom_literal",
    "bits",
    "blocking_constraint",
    "build_sbg",
    "classify_solutions",
    "color_table",
    "count_ics",
    "divide",
    "encode_ics",
    "enumerate_all",
    "evaluate",
    "is_ics",
    "mask_of",
    "min_ics_size",
    "motif_class_sets",
    "multiply",
    "neg",
    "normalize",
    "parse_edge_list",
    "parse_opb",
    "parse_proof",
    "pos",
    "saturate",
    "sbg_node",
    "signatures",
    "solve",
    "verify",
    "write_edge_list",
    "write_opb",
]
