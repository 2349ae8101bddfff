"""Cutting-planes derivation rules and a verifier for refutation proofs.

The proof format is the version-1.0 text format: after the exact header line
``pseudo-Boolean proof version 1.0``, each line is one step:

* ``u <constraint> ;``   assert a constraint checked by reverse propagation,
* ``l <k>``              load the k-th constraint of the input formula,
* ``p <tokens> 0``       derive a constraint in reverse Polish notation,
* ``c <id> 0``           claim that constraint <id> is a contradiction.

Every step that produces a constraint (u, l, p) is stored under the next
sequential id starting at 1.  RPN tokens: a constraint id pushes a copy of
that constraint; ``x7``/``~x7`` pushes the literal axiom ``lit >= 0``; ``+``
pops two constraints and pushes their sum; ``<int> *`` and ``<int> d``
multiply/divide the top by a positive integer written as unsigned digits;
``s`` saturates the top.
Deletion directives and the richer redundance-style rules of newer formats
are recognized and rejected loudly, never skipped.

The verifier is a route of its own and imports only the data model and OPB
parsing from encode.  Its RupChecker checks ``u`` steps on literal bitmasks
of its own, sharing no code with the solver's search engine in solve.  It
indexes each ``u`` step once, for its check and its storage.  A check
propagates the newest constraint first: the latest stored steps, which in a
DFS refutation are the children whose clauses conflict.  Propagation
reaches the same fixpoint, or a conflict, in any order, so the order
changes the work and never the verdict.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, NamedTuple, Sequence

from .encode import (
    LinearConstraint,
    Literal,
    PBFormula,
    normalize,
    parse_constraint_tokens,
    OpbError,
    _TooLong,
    _is_digits,
    _read_int,
    _read_literal,
    _to_int,
)

PROOF_HEADER = "pseudo-Boolean proof version 1.0"

_UNSUPPORTED = {
    "f", "d", "del", "red", "rup", "dom", "sol", "soli", "solx",
    "o", "v", "a", "e", "ea", "i", "j", "w", "#", "strengthen",
}


class ProofParseError(ValueError):
    """Malformed proof text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class VerifyError(ValueError):
    """A proof step failed to check; carries the step's line number."""

    def __init__(self, line_no: int, rule: str, message: str):
        super().__init__(f"line {line_no}: {rule}: {message}")
        self.line_no = line_no
        self.rule = rule


# -- derivation rules ----------------------------------------------------------


def axiom_literal(lit: Literal) -> LinearConstraint:
    """The literal axiom ``lit >= 0`` (covers both bounds via negation)."""
    return LinearConstraint(((1, lit),), 0)


def add(c1: LinearConstraint, c2: LinearConstraint) -> LinearConstraint:
    """Sum of two constraints with opposite-literal cancellation."""
    return normalize(c1.terms + c2.terms, ">=", c1.degree + c2.degree)[0]


def multiply(c: LinearConstraint, alpha: int) -> LinearConstraint:
    """Scale all coefficients and the degree by a positive integer."""
    if alpha <= 0:
        raise ValueError(f"multiplier must be positive, got {alpha}")
    return LinearConstraint(
        tuple((coef * alpha, lit) for coef, lit in c.terms), c.degree * alpha
    )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def divide(c: LinearConstraint, alpha: int) -> LinearConstraint:
    """Divide coefficients and degree by alpha, rounding up.

    Sound only on the normalized form (all coefficients positive), which the
    constraint type guarantees.
    """
    if alpha <= 0:
        raise ValueError(f"divisor must be positive, got {alpha}")
    return LinearConstraint(
        tuple((_ceil_div(coef, alpha), lit) for coef, lit in c.terms),
        _ceil_div(c.degree, alpha),
    )


def saturate(c: LinearConstraint) -> LinearConstraint:
    """Cap every coefficient at the degree (at zero for degenerate degrees)."""
    cap = max(c.degree, 0)
    return LinearConstraint(
        tuple((min(coef, cap), lit) for coef, lit in c.terms if min(coef, cap) > 0),
        c.degree,
    )


# -- proof steps ---------------------------------------------------------------


class ProofStep(NamedTuple):
    kind: str  # "header" | "load" | "rup" | "polish" | "contradiction"
    line_no: int
    # load: formula constraint number; rup: the constraint; polish: the typed
    # RPN ops; contradiction: the claimed id; header: None
    arg: object = None


def _parse_polish(tokens: Sequence[str], line_no: int) -> tuple[tuple[str, object], ...]:
    """Typed RPN ops for a ``p`` body, with the stack discipline checked.

    Ops are ``("id", cid)``, ``("lit", Literal)``, ``("+", None)``,
    ``("s", None)`` and ``("*", k)``/``("d", k)``.  Like an id, k is
    unsigned digits; k = 0 parses and is rejected at replay.
    Repeated-variable products (nonlinear terms) cannot be expressed in this
    grammar at all, so the idempotence axiom never comes into play.
    """
    ops: list[tuple[str, object]] = []
    depth = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        lookahead = tokens[i + 1] if i + 1 < len(tokens) else None
        value = _read_int(tok)
        if value is not None and lookahead in ("*", "d"):
            if depth < 1:
                raise ProofParseError(line_no, f"'{lookahead}' with empty stack")
            if not _is_digits(tok):
                name = "multiplier" if lookahead == "*" else "divisor"
                raise ProofParseError(line_no, f"bad {name} {tok!r}")
            ops.append((lookahead, value))
            i += 2
            continue
        if tok == "+":
            if depth < 2:
                raise ProofParseError(line_no, "'+' needs two stack entries")
            depth -= 1
            ops.append(("+", None))
        elif tok == "s":
            if depth < 1:
                raise ProofParseError(line_no, "'s' with empty stack")
            ops.append(("s", None))
        elif tok == "*" or tok == "d":
            raise ProofParseError(line_no, f"'{tok}' without preceding integer")
        elif value is not None:
            if not _is_digits(tok) or value < 1:
                raise ProofParseError(line_no, f"bad constraint id {tok!r}")
            depth += 1
            ops.append(("id", value))
        elif lit := _read_literal(tok):
            depth += 1
            ops.append(("lit", lit))
        else:
            raise ProofParseError(line_no, f"unknown token {tok!r}")
        i += 1
    if depth != 1:
        raise ProofParseError(
            line_no, f"derivation leaves {depth} stack entries, expected 1"
        )
    return tuple(ops)


def parse_proof(text: str) -> list[ProofStep]:
    """Parse proof text into steps, validating syntax eagerly."""
    steps: list[ProofStep] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        if not steps:
            if line != PROOF_HEADER:
                raise ProofParseError(line_no, f"expected header {PROOF_HEADER!r}")
            steps.append(ProofStep("header", line_no))
            continue
        try:
            steps.append(_parse_step(line, line_no))
        except _TooLong as exc:
            raise ProofParseError(line_no, str(exc)) from None
    if not steps:
        raise ProofParseError(1, "empty proof: missing header")
    return steps


def _parse_step(line: str, line_no: int) -> ProofStep:
    """The step of a proof line after the header; an integer past Python's
    integer-string limit raises _TooLong."""
    directive, *tail = line.split(maxsplit=1)
    rest = tail[0] if tail else ""
    if directive == "u":
        tokens = rest.split()
        if not tokens or tokens[-1] != ";":
            raise ProofParseError(line_no, "'u' constraint must end with ';'")
        try:
            parsed = parse_constraint_tokens(tokens[:-1], line_no)
        except OpbError as exc:
            raise ProofParseError(line_no, f"bad 'u' constraint: {exc.message}") from None
        return ProofStep("rup", line_no, parsed[0])
    if directive == "l":
        index = _to_int(rest) if _is_digits(rest) else 0
        if index < 1:
            raise ProofParseError(line_no, f"'l' expects a 1-based index, got {rest!r}")
        return ProofStep("load", line_no, index)
    if directive == "p":
        tokens = rest.split()
        if not tokens or tokens[-1] != "0":
            raise ProofParseError(line_no, "'p' derivation must end with 0")
        return ProofStep("polish", line_no, _parse_polish(tokens[:-1], line_no))
    if directive == "c":
        parts = rest.split()
        if len(parts) != 2 or parts[1] != "0" or not _is_digits(parts[0]):
            raise ProofParseError(line_no, "'c' expects '<id> 0'")
        index = _to_int(parts[0])
        if index < 1:
            raise ProofParseError(line_no, f"'c' expects a 1-based id, got {parts[0]!r}")
        return ProofStep("contradiction", line_no, index)
    if directive in _UNSUPPORTED:
        raise ProofParseError(
            line_no, f"unsupported rule {directive!r} (outside the verified subset)"
        )
    raise ProofParseError(line_no, f"unknown directive {directive!r}")


# -- reverse unit propagation --------------------------------------------------


class RupChecker:
    """Reverse-unit-propagation checks against a growing set of constraints.

    The i-th variable the checker meets gets literal bits ``2 * i`` (plain)
    and ``2 * i + 1`` (negated), so a proof that names ``x4000000000`` costs
    two bits, not a mask as wide as the id.  A constraint is indexed once,
    as its degree and ``[(coef, literal mask)]``, largest coefficient first,
    and bit ``ci`` of a constraint mask stands for constraint ``ci``.  The
    stored constraints are held at their root propagation fixpoint as two
    ints: the false literals and the constraints that one true literal
    satisfies alone.  A check fires the assumption at that snapshot,
    propagates and throws the result away, so there is no trail and no
    undo, and a check costs only the constraints it touches.  The assumption
    is attached only when that first firing forces some of its literals and
    leaves others free; with none free, as for the negation of a clause, it
    can never fire again.  Pending constraints are taken newest first, so
    the latest steps of the proof run first.  Its verdict equals that of
    the tests' reference, ``root_fixpoint`` in tests/reference.py, which
    rescans the stored constraints plus the assumption.
    """

    def __init__(self) -> None:
        self._bit: dict[int, int] = {}  # variable -> bit of its plain literal
        self._cons: list[tuple[int, list[tuple[int, int]]]] = []  # (degree, groups)
        self._occ: list[int] = []  # per literal: the constraints containing it
        self._sat_by: list[int] = []  # per literal: the constraints it satisfies alone
        self._even = 0  # the plain literals
        self._false = self._sat = 0  # the root fixpoint
        # Once the stored constraints conflict, every assumption is refuted:
        # a fresh propagation over more constraints still reaches a conflict.
        self._conflict = False

    def store(self, c: LinearConstraint) -> None:
        """Keep *c* for every later check."""
        if not (self._conflict or c.trivially_true):
            self._store(c.degree, self._index(c))

    def derive(self, c: LinearConstraint) -> bool:
        """True iff propagation refutes the stored constraints plus the
        negation of *c*; then *c* is stored.  The negation is the groups of
        *c* with each literal bit swapped, which the tests hold to
        ``negation_of`` in tests/reference.py.  A failed check leaves the
        new variables of *c* numbered; they occur in no stored constraint,
        so they change no later verdict."""
        groups = self._index(c)
        even = self._even
        negation = [(coef, (m & even) << 1 | m >> 1 & even) for coef, m in groups]
        size = sum(coef * m.bit_count() for coef, m in groups)
        refuted = self._conflict or self._refutes(size - c.degree + 1, negation)
        if refuted and not (self._conflict or c.trivially_true):
            self._store(c.degree, groups)
        return refuted

    def _index(self, c: LinearConstraint) -> list[tuple[int, int]]:
        """The coefficient groups of *c*, giving its new variables bits."""
        groups: dict[int, int] = {}
        for coef, lit in c.terms:
            b = self._bit.get(lit.var)
            if b is None:
                b = self._bit[lit.var] = len(self._occ)
                self._even |= 1 << b
                self._occ += (0, 0)
                self._sat_by += (0, 0)
            groups[coef] = groups.get(coef, 0) | 1 << b + lit.negated
        return sorted(groups.items(), reverse=True)

    def _flip(self, degree: int, groups: list[tuple[int, int]], bit: int) -> None:
        """Attach constraint *bit* to its literals, or detach it."""
        occ, sat_by = self._occ, self._sat_by
        for coef, m in groups:
            while m:
                low = m & -m
                m ^= low
                l = low.bit_length() - 1
                occ[l] ^= bit
                if coef >= degree:
                    sat_by[l] ^= bit

    def _store(self, degree: int, groups: list[tuple[int, int]]) -> None:
        """Attach (degree, groups) for good and move the snapshot to its fixpoint."""
        bit = 1 << len(self._cons)
        self._flip(degree, groups, bit)
        self._cons.append((degree, groups))
        fixpoint = self._propagate(self._false, self._sat, 0, bit)
        if fixpoint is None:
            self._conflict = True
        else:
            self._false, self._sat = fixpoint

    def _refutes(self, degree: int, groups: list[tuple[int, int]]) -> bool:
        """The check: first firing at the snapshot, then propagation."""
        false, even = self._false, self._even
        slack = -degree
        for coef, m in groups:
            slack += coef * (m & ~false).bit_count()
        if slack < 0:
            return True
        free = ~(false | (false & even) << 1 | false >> 1 & even)
        forced = left = 0
        for coef, m in groups:
            if coef > slack:
                forced |= m & free
            else:
                left |= m & free
        # forcing nothing leaves the snapshot, a fixpoint, as it is; with no
        # literal left free, it can never fire again and need not be attached
        if not (forced and left):
            return self._propagate(false, self._sat, forced, 0) is None
        bit = 1 << len(self._cons)
        self._flip(degree, groups, bit)
        self._cons.append((degree, groups))
        refuted = self._propagate(false, self._sat, forced, 0) is None
        self._cons.pop()
        self._flip(degree, groups, bit)
        return refuted

    def _propagate(self, false: int, sat: int, forced: int, todo: int) -> tuple[int, int] | None:
        """Make the free literals in *forced* true, then propagate them and
        the constraints in *todo* to fixpoint from *false*, *sat*.

        Returns the fixpoint's ``(false, sat)``, or None on a conflict.  The
        constraints in *sat* are skipped: one true literal with coef >= degree
        leaves slack >= every coefficient that is not false, so such a
        constraint can neither conflict nor force.  The highest pending index
        goes first.  The order cannot change the result: a literal that a
        constraint forces stays forced as more literals become false, so
        every order forces only literals of the same least fixpoint and ends
        either there or at a constraint in conflict there.
        """
        cons, occ, sat_by = self._cons, self._occ, self._sat_by
        even = self._even
        while True:
            if forced:
                false |= (forced & even) << 1 | forced >> 1 & even
                while forced:
                    low = forced & -forced
                    forced ^= low
                    l = low.bit_length() - 1
                    todo |= occ[l ^ 1]
                    sat |= sat_by[l]
                todo &= ~sat
            if not todo:
                return false, sat
            ci = todo.bit_length() - 1
            todo ^= 1 << ci
            degree, groups = cons[ci]
            open_ = ~false
            slack = -degree
            for coef, m in groups:
                slack += coef * (m & open_).bit_count()
            if slack < 0:
                return None
            if slack >= groups[0][0]:
                continue
            for coef, m in groups:
                if coef <= slack:
                    break
                forced |= m
            true = (false & even) << 1 | false >> 1 & even
            forced &= ~(false | true)


# -- verification --------------------------------------------------------------


class Verification(NamedTuple):
    """Successful verification: the claimed contradiction, the number of
    steps checked, and every stored constraint by id."""

    contradiction_id: int
    steps_checked: int
    constraints: dict[int, LinearConstraint]


def _fetch(constraints: dict[int, LinearConstraint], cid: int, line_no: int) -> LinearConstraint:
    c = constraints.get(cid)
    if c is None:
        raise VerifyError(line_no, "reference", f"constraint id {cid} is not assigned")
    return c


def _replay_polish(
    ops: Sequence[tuple[str, object]], constraints: dict[int, LinearConstraint], line_no: int
) -> LinearConstraint:
    stack: list[LinearConstraint] = []
    for op, arg in ops:
        if op == "id":
            stack.append(_fetch(constraints, arg, line_no))
        elif op == "lit":
            stack.append(axiom_literal(arg))
        elif op == "+":
            b = stack.pop()
            stack.append(add(stack.pop(), b))
        elif op == "s":
            stack.append(saturate(stack.pop()))
        else:
            try:
                stack.append((multiply if op == "*" else divide)(stack.pop(), arg))
            except ValueError as exc:
                raise VerifyError(line_no, op, str(exc)) from None
    return stack[0]


def verify(f: PBFormula, steps: Iterable[ProofStep]) -> Verification:
    """Replay *steps* against *f*; raise VerifyError on the first bad step.

    ``u`` steps are checked by reverse propagation: the negated constraint
    is added to everything derived so far and counting propagation must run
    into a conflict, checked by ``RupChecker.derive`` on one checker for the
    whole proof, which indexes the step once for the check and its storage.
    The final claim succeeds only when the referenced constraint normalizes
    to ``0 >= d`` with d >= 1.
    """
    constraints: dict[int, LinearConstraint] = {}
    ids = count(1)
    rup = RupChecker()
    contradiction: int | None = None
    checked = 0
    last_line = 1

    def store(c: LinearConstraint) -> None:
        constraints[next(ids)] = c
        rup.store(c)

    for kind, line_no, arg in steps:
        checked += 1
        last_line = line_no
        if kind == "header":
            continue
        if kind == "load":
            if not 1 <= arg <= len(f.constraints):
                raise VerifyError(
                    line_no, "l", f"input constraint {arg} out of range 1..{len(f.constraints)}"
                )
            store(f.constraints[arg - 1])
        elif kind == "rup":
            if not rup.derive(arg):
                raise VerifyError(
                    line_no, "u", f"propagation does not refute the negation of '{arg}'"
                )
            constraints[next(ids)] = arg
        elif kind == "polish":
            store(_replay_polish(arg, constraints, line_no))
        elif kind == "contradiction":
            c = _fetch(constraints, arg, line_no)
            if not c.contradiction:
                raise VerifyError(line_no, "c", f"constraint {arg} is '{c}', not a contradiction")
            contradiction = arg
        else:  # pragma: no cover - parse_proof never emits other kinds
            raise VerifyError(line_no, kind, "unknown step kind")
    if contradiction is None:
        raise VerifyError(last_line, "c", "proof ends without a contradiction claim")
    return Verification(contradiction, checked, constraints)
