"""Pseudo-Boolean data model, the identifying-code decision encoding, and
bit-exact OPB read/write.

Normal form used throughout: every constraint is ``sum of a_i * lit_i >= d``
with strictly positive integer coefficients over literals (a variable or its
negation), at most one term per variable.  The degree may be <= 0, in which
case the constraint is trivially satisfied; a constraint with no terms and
positive degree is unsatisfiable by itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .graph import Graph, bits


class EncodeError(ValueError):
    """Invalid constraint construction or use."""


class PartialAssignmentError(EncodeError):
    """A total assignment was required but some variable is unassigned."""


class OpbError(ValueError):
    """Malformed OPB text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True, order=True)
class Literal:
    """A Boolean variable (1-based id) or its negation."""

    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise EncodeError(f"variable ids are 1-based, got {self.var}")

    def __invert__(self) -> Literal:
        return Literal(self.var, not self.negated)

    def __str__(self) -> str:
        return f"~x{self.var}" if self.negated else f"x{self.var}"


def pos(var: int) -> Literal:
    return Literal(var)


def neg(var: int) -> Literal:
    return Literal(var, True)


# Literals are frozen, so one object can stand for every equal literal.
_LITERAL_CACHE_SIZE = 1 << 14
_literal = lru_cache(maxsize=_LITERAL_CACHE_SIZE)(Literal)


@dataclass(frozen=True)
class LinearConstraint:
    """A normalized >=-constraint: positive coefficients over literals."""

    terms: tuple[tuple[int, Literal], ...]
    degree: int

    def __post_init__(self):
        seen = set()
        for coef, lit in self.terms:
            if coef <= 0:
                raise EncodeError(f"normalized coefficients are positive, got {coef}")
            if lit.var in seen:
                raise EncodeError(f"variable x{lit.var} appears twice")
            seen.add(lit.var)

    @property
    def trivially_true(self) -> bool:
        return self.degree <= 0

    @property
    def contradiction(self) -> bool:
        return not self.terms and self.degree >= 1

    def support(self) -> tuple[int, ...]:
        return tuple(coef_lit[1].var for coef_lit in self.terms)

    def max_var(self) -> int:
        return max((lit.var for _, lit in self.terms), default=0)

    def signed_items(self) -> tuple[list[tuple[int, int]], int]:
        """Signed-coefficient view ``(list of (coef, var), rhs)``.

        Rewrites each negated term via ``~x = 1 - x`` so that the constraint
        reads as an inequality over plain variables; used for OPB output and
        for constraint arithmetic.
        """
        items = []
        rhs = self.degree
        for coef, lit in self.terms:
            if lit.negated:
                items.append((-coef, lit.var))
                rhs -= coef
            else:
                items.append((coef, lit.var))
        return items, rhs

    def __str__(self) -> str:
        lhs = " ".join(f"+{coef} {lit}" for coef, lit in self.terms)
        return f"{lhs + ' ' if lhs else ''}>= {self.degree}"


def from_signed(signed: Mapping[int, int], rhs: int) -> LinearConstraint:
    """Normalize a signed-coefficient inequality ``sum c_v x_v >= rhs``.

    The terms' literals are interned: equal literals are one shared object.
    """
    out = []
    degree = rhs
    for var in sorted(signed):
        c = signed[var]
        if c > 0:
            out.append((c, _literal(var, False)))
        elif c < 0:
            out.append((-c, _literal(var, True)))
            degree -= c
    return LinearConstraint(tuple(out), degree)


_RELATIONS = frozenset(("=", "<=", ">=", "<", ">"))


def normalize(
    terms: Iterable[tuple[int, Literal]], relation: str, rhs: int
) -> tuple[LinearConstraint, ...]:
    """Rewrite a raw constraint with any relation into normalized >=-form.

    Strict relations shift the degree by one, <= flips signs, and equality
    splits into a pair of opposite inequalities.  Zero-coefficient terms are
    dropped; the result may be trivially true (degree <= 0).  The constraint
    parser sums its terms straight from the tokens and shares the relation
    step with this function.
    """
    if relation not in _RELATIONS:
        raise EncodeError(f"unknown relation {relation!r}")
    signed: dict[int, int] = {}
    base = rhs
    for coef, lit in terms:
        if lit.negated:
            signed[lit.var] = signed.get(lit.var, 0) - coef
            base -= coef
        else:
            signed[lit.var] = signed.get(lit.var, 0) + coef
    return _relate(signed, relation, base)


def _relate(
    signed: dict[int, int], relation: str, rhs: int
) -> tuple[LinearConstraint, ...]:
    """Normalized >=-form of ``sum signed[v] * x_v <relation> rhs``."""
    if relation == ">":
        relation, rhs = ">=", rhs + 1
    elif relation == "<":
        relation, rhs = "<=", rhs - 1
    if relation == ">=":
        return (from_signed(signed, rhs),)
    flipped = {v: -c for v, c in signed.items()}
    if relation == "<=":
        return (from_signed(flipped, -rhs),)
    return (from_signed(signed, rhs), from_signed(flipped, -rhs))


# -- assignments --------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """A total or partial 0/1 assignment to variables ``1..num_vars``."""

    num_vars: int
    values: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.values) != self.num_vars:
            raise EncodeError("values length must equal num_vars")
        for v in self.values:
            if v not in (0, 1, None):
                raise EncodeError(f"assignment values are 0/1/None, got {v!r}")

    @classmethod
    def total(cls, values: Sequence[int]) -> Assignment:
        return cls(len(values), tuple(values))

    def value(self, var: int) -> int | None:
        if not 1 <= var <= self.num_vars:
            raise EncodeError(f"variable x{var} out of range")
        return self.values[var - 1]

    def true_vars(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.values) if v == 1)

    def assigned_vars(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.values) if v is not None)

    def restrict(self, variables: Iterable[int]) -> Assignment:
        keep = set(variables)
        vals = tuple(
            v if (i + 1) in keep else None for i, v in enumerate(self.values)
        )
        return Assignment(self.num_vars, vals)

    def code_mask(self) -> int:
        """Node bitmask under the canonical var i+1 <-> node i correspondence."""
        return sum(1 << (var - 1) for var in self.true_vars())


def evaluate(c: LinearConstraint, a: Assignment) -> bool:
    """Truth of *c* under *a*; every supporting variable must be assigned."""
    total = 0
    for coef, lit in c.terms:
        v = a.value(lit.var)
        if v is None:
            raise PartialAssignmentError(f"x{lit.var} is unassigned")
        if v == (0 if lit.negated else 1):
            total += coef
    return total >= c.degree


# -- formulas ------------------------------------------------------------------


@dataclass(frozen=True)
class PBFormula:
    """An ordered set of normalized constraints over variables ``1..num_vars``.

    ``names`` optionally attaches a display name to each variable (the node
    name table for encoded graphs).
    """

    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        for c in self.constraints:
            if c.max_var() > self.num_vars:
                raise EncodeError(
                    f"constraint references x{c.max_var()} beyond num_vars={self.num_vars}"
                )
        if self.names is not None and len(self.names) != self.num_vars:
            raise EncodeError("names length must equal num_vars")

    def satisfied_by(self, a: Assignment) -> bool:
        return all(evaluate(c, a) for c in self.constraints)


def encode_ics(g: Graph, budget: int, exact: bool = False) -> PBFormula:
    """Encode "g has an identifying code set of size <= budget" as PB constraints.

    Variable ``x(i+1)`` is 1 iff node ``i`` is in the code.  Three groups:

    * one at-least-one constraint per node over its closed neighborhood
      (every node must receive a color);
    * one constraint per unordered pair of distinct nodes at distance <= 2,
      requiring a code member in their distinguishing set (all signatures
      distinct; farther pairs are separated for free once dominated);
    * the budget, normalized to >=-form.

    With ``exact`` the size is additionally forced up to the budget, which
    makes enumeration of exactly-budget-sized codes explicit.

    A pair of true twins (identical closed neighborhoods) has an empty
    distinguishing set and yields an unsatisfiable empty constraint, kept on
    purpose rather than silently dropped.
    """
    if budget < 0:
        raise EncodeError(f"budget must be nonnegative, got {budget}")
    n = g.n
    cons: list[LinearConstraint] = []
    for v in range(n):
        cons.append(
            LinearConstraint(
                tuple((1, pos(u + 1)) for u in bits(g.closed_neighborhood(v))), 1
            )
        )
    two_hop = [g.closed_two_neighborhood(v) for v in range(n)]
    for u in range(n):
        for v in bits(two_hop[u] >> (u + 1) << (u + 1)):
            ds = g.distinguishing_set(u, v)
            cons.append(
                LinearConstraint(tuple((1, pos(w + 1)) for w in bits(ds)), 1)
            )
    cons.extend(normalize([(1, pos(v + 1)) for v in range(n)], "<=", budget))
    if exact:
        cons.extend(normalize([(1, pos(v + 1)) for v in range(n)], ">=", budget))
    return PBFormula(n, tuple(cons), g.names())


def blocking_constraint(
    a: Assignment, variables: Iterable[int] | None = None
) -> LinearConstraint:
    """Constraint satisfied by exactly the assignments that differ from *a*.

    Some variable must flip: negated literals for a's true variables, plain
    literals for its false ones.  Restricting to *variables* blocks only the
    projection of *a* onto them.
    """
    vars_ = tuple(variables) if variables is not None else a.assigned_vars()
    terms = []
    for var in vars_:
        v = a.value(var)
        if v is None:
            raise PartialAssignmentError(f"x{var} is unassigned")
        terms.append((1, neg(var) if v == 1 else pos(var)))
    return LinearConstraint(tuple(terms), 1)


# -- OPB text format -----------------------------------------------------------
#
# Header "* #variable= N #constraint= M", optional "* name xK NAME" comment
# lines carrying the variable name table, then one constraint per line in
# signed-coefficient form, e.g. "+1 x1 -2 x7 >= 0 ;".  The same constraint
# parser reads proof ``u`` steps.  It sums signed coefficients straight from
# the tokens and converts each distinct token once: the two token readers
# below remember their last few thousand tokens, and the variable reader
# returns interned literals.


# Numbers are ASCII digits only: re.ASCII keeps \d from matching other
# Unicode digits, which int() would accept.
_HEADER_RE = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*(\d+)\s*$", re.ASCII)
_VAR_RE = re.compile(r"(~?)x([1-9]\d*)$", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+$", re.ASCII)
_TOKEN_CACHE_SIZE = 1 << 12


def _is_digits(text: str) -> bool:
    """True iff *text* is a nonempty run of ASCII digits ``0-9``."""
    return text.isascii() and text.isdecimal()


class _TooLong(ValueError):
    """An integer token past Python's integer-string limit (4300 digits by
    default); the message counts the characters of its digit string."""


def _to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise _TooLong(f"integer of {len(digits)} characters is too long") from None


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _read_int(token: str) -> int | None:
    """The value of a signed integer token such as ``+3``, or None if *token*
    is not one; raises _TooLong."""
    return _to_int(token) if _INT_RE.match(token) else None


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _read_literal(token: str) -> Literal | None:
    """The interned literal of a token ``x7`` or ``~x7``, or None if *token*
    is not one; raises _TooLong."""
    m = _VAR_RE.match(token)
    return _literal(_to_int(m.group(2)), bool(m.group(1))) if m else None


def write_opb(f: PBFormula) -> str:
    """Render a formula as OPB text; parse_opb inverts this bit-exactly."""
    lines = [f"* #variable= {f.num_vars} #constraint= {len(f.constraints)}"]
    if f.names is not None:
        lines.extend(
            f"* name x{i + 1} {name}" for i, name in enumerate(f.names)
        )
    for c in f.constraints:
        items, rhs = c.signed_items()
        parts = [f"{coef:+d} x{var}" for coef, var in items]
        parts.append(f">= {rhs} ;")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_constraint_tokens(
    tokens: Sequence[str], line_no: int, *, allow_equality: bool = False
) -> tuple[LinearConstraint, ...]:
    """Parse one OPB constraint body (without the trailing ';') in one pass.

    The terms' signed coefficients and the degree are summed as the tokens
    are read (a ``~x`` term subtracts its coefficient from the degree) and
    handed to the relation step that normalize uses, so the result equals
    ``normalize`` of the written terms.
    """
    k = len(tokens) - 2
    # the one well-formed shape, a single relation just before the degree,
    # skips the scan; every other shape is scanned for the error it raises
    if not (
        k >= 0 and tokens[k] in _RELATIONS and tokens[-1] not in _RELATIONS
        and _RELATIONS.isdisjoint(tokens[:k])
    ):
        rel_positions = [i for i, t in enumerate(tokens) if t in _RELATIONS]
        if len(rel_positions) != 1:
            raise OpbError(line_no, "expected exactly one relational operator")
        k = rel_positions[0]
    relation = tokens[k]
    if relation not in (">=", "="):
        raise OpbError(line_no, f"unsupported relation {relation!r}")
    if relation == "=" and not allow_equality:
        raise OpbError(line_no, "equality not allowed here")
    if k + 2 != len(tokens):
        raise OpbError(line_no, "expected a single integer degree after the relation")
    signed: dict[int, int] = {}
    try:
        rhs = _read_int(tokens[k + 1])
        if rhs is None:
            raise OpbError(line_no, f"bad degree {tokens[k + 1]!r}")
        if k % 2 != 0:
            raise OpbError(line_no, "terms must alternate coefficient and variable")
        for i in range(0, k, 2):
            coef = _read_int(tokens[i])
            if coef is None:
                raise OpbError(line_no, f"bad coefficient {tokens[i]!r}")
            lit = _read_literal(tokens[i + 1])
            if lit is None:
                raise OpbError(line_no, f"bad variable token {tokens[i + 1]!r}")
            var = lit.var
            if lit.negated:
                signed[var] = signed.get(var, 0) - coef
                rhs -= coef
            else:
                signed[var] = signed.get(var, 0) + coef
    except _TooLong as exc:
        raise OpbError(line_no, str(exc)) from None
    return _relate(signed, relation, rhs)


def parse_opb(text: str) -> PBFormula:
    """Parse OPB text into a normalized formula.

    The declared variable and constraint counts are checked; unknown tokens,
    a missing terminating ';' and out-of-range variables are reported with
    their line number.
    """
    num_vars = None
    declared = None
    lines_parsed = 0
    names: dict[int, str] = {}
    cons: list[LinearConstraint] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("*"):
            try:
                m = _HEADER_RE.match(line)
                if m and num_vars is None:
                    num_vars = _to_int(m.group(1))
                    declared = _to_int(m.group(2))
                    continue
                parts = line.split()
                if len(parts) == 4 and parts[1] == "name":
                    vm = _VAR_RE.match(parts[2])
                    if vm and not vm.group(1):
                        names[_to_int(vm.group(2))] = parts[3]
            except _TooLong as exc:
                raise OpbError(line_no, str(exc)) from None
            continue
        if num_vars is None:
            raise OpbError(line_no, "constraint before the OPB header")
        tokens = line.split()
        if tokens[-1] != ";":
            raise OpbError(line_no, "missing terminating ';'")
        parsed = parse_constraint_tokens(tokens[:-1], line_no, allow_equality=True)
        for c in parsed:
            if c.max_var() > num_vars:
                raise OpbError(
                    line_no, f"variable x{c.max_var()} exceeds declared count {num_vars}"
                )
        cons.extend(parsed)
        lines_parsed += 1
    if num_vars is None:
        raise OpbError(1, "missing OPB header")
    if declared != lines_parsed:
        raise OpbError(
            1, f"header declares {declared} constraints but {lines_parsed} parsed"
        )
    name_table = None
    if names:
        if set(names) != set(range(1, num_vars + 1)):
            raise OpbError(1, "incomplete variable name table")
        name_table = tuple(names[i] for i in range(1, num_vars + 1))
    return PBFormula(num_vars, tuple(cons), name_table)
