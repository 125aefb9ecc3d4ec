"""Instance generators, the system text format, and report rendering.

The text format is line oriented: statements are separated by ';' or
newlines, '#' starts a comment. Header statements p=, vars=, order= must
appear before the first polynomial. A polynomial is an optional sign, then
terms joined by '+' or '-'; a term is factors, juxtaposed or joined by '*';
a factor is ASCII digits, or a variable with an optional '^' exponent; spaces
may separate any two of these tokens. Example:

    p=101; vars=x,y; order=grevlex;
    x^2 + y;
    y^2 + x;
    x*y;
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

from .errors import DimensionError, DomainError, GenerationError, ParseError
from .invariants import DegreeReport, degree_of_regularity
from .rings import (
    GREVLEX,
    MAX_DEGREE,
    MAX_VARS,
    Polynomial,
    PolySystem,
    Ring,
    TermOrder,
    _check_int,
    check_modulus,
)

_RESERVED = {"p", "vars", "order"}
MAX_RANDOM_MONOMIALS = 10**6  # largest candidate monomial list gen_random builds


def gen_fk(k: int, p: int = 101) -> PolySystem:
    """The two-variable family {x^k + y, y^k + x, x*y} over GF(p), k >= 2."""
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"the family needs k >= 2, got {k}")
    ring = Ring(p, ("x", "y"))
    return PolySystem(
        ring,
        [
            Polynomial(ring, {(k, 0): 1, (0, 1): 1}),
            Polynomial(ring, {(0, k): 1, (1, 0): 1}),
            Polynomial(ring, {(1, 1): 1}),
        ],
    )


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for a random system: same spec, same output.

    Monomials of degree <= the per-polynomial bound are included with
    independent probability `density`; included monomials get a uniform
    nonzero coefficient; zero draws are resampled. With require_hypothesis
    set, whole systems are rejection-sampled until the maximum degree stays
    at or below a finite regularity degree, up to retry_limit extra attempts;
    a d_reg walk past the closure's row cap raises its CapExceeded.
    A spec whose C(n + max bound, n) candidate monomials exceed
    MAX_RANDOM_MONOMIALS is refused, and so is a density at which a
    polynomial of the smallest bound takes more draws than that, on average,
    to come out nonzero.
    """

    seed: int
    n: int
    k: int
    deg_bounds: tuple[int, ...]
    density: float = 1.0
    p: int = 101
    require_hypothesis: bool = False
    retry_limit: int = 200

    def __post_init__(self):
        for field in ("seed", "n", "k", "retry_limit"):
            _check_int(getattr(self, field), field)
        for b in self.deg_bounds:
            _check_int(b, "degree bound")
        if not 1 <= self.n <= MAX_VARS:
            raise DomainError(f"need 1..{MAX_VARS} variables, got {self.n}")
        if self.k < 1:
            raise DomainError("need at least one polynomial")
        if len(self.deg_bounds) != self.k:
            raise DomainError(f"need {self.k} degree bounds, got {len(self.deg_bounds)}")
        if any(b < 1 for b in self.deg_bounds):
            raise DomainError("degree bounds must be at least 1")
        if not 0 < self.density <= 1:
            raise DomainError(f"density must lie in (0, 1], got {self.density}")
        if self.retry_limit < 0:
            raise DomainError("retry limit must be non-negative")
        count = math.comb(self.n + max(self.deg_bounds), self.n)
        if count > MAX_RANDOM_MONOMIALS:
            raise DomainError(
                f"{count} candidate monomials exceed the limit of {MAX_RANDOM_MONOMIALS}"
            )
        if self.density < 1:
            # P(nonzero draw) = 1 - (1 - density)^N, without rounding 1 - density to 1
            b = min(self.deg_bounds)
            nonzero = -math.expm1(math.comb(self.n + b, self.n) * math.log1p(-self.density))
            if nonzero * MAX_RANDOM_MONOMIALS < 1:
                raise DomainError(
                    f"density {self.density} is too small: a polynomial of degree bound {b} "
                    f"would take more than {MAX_RANDOM_MONOMIALS} draws on average to be nonzero"
                )


def _random_poly(ring: Ring, rng: random.Random, bound: int, density: float) -> Polynomial:
    # draws follow the monomials of degree <= bound, descending under grevlex
    pack = ring.packing(GREVLEX)
    mons = sorted((m for d in range(bound + 1) for m in pack.monomials(d)), reverse=True)
    p = ring.p
    while True:
        terms = {}
        for m in mons:
            if rng.random() < density:
                terms[m] = rng.randrange(1, p)
        if terms:
            return Polynomial._raw(ring, terms)


def gen_random(spec: RandomSpec) -> PolySystem:
    ring = Ring(spec.p, nvars=spec.n)
    rng = random.Random(spec.seed)
    attempts = spec.retry_limit + 1 if spec.require_hypothesis else 1
    for _ in range(attempts):
        system = PolySystem(
            ring, [_random_poly(ring, rng, b, spec.density) for b in spec.deg_bounds]
        )
        if not spec.require_hypothesis:
            return system
        d = degree_of_regularity(system)
        if isinstance(d, int) and system.max_degree() <= d:
            return system
    raise GenerationError(
        f"no system satisfied the degree hypothesis within {spec.retry_limit} retries"
    )


@dataclass
class SystemFile:
    """A parsed system file: ring, term order, and the polynomial family."""

    ring: Ring
    order: TermOrder
    system: PolySystem


# a factor: an optional '*', then digits or a variable with an optional exponent
_FACTOR_RE = re.compile(r"\s*(\*?)\s*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)(?:\s*(\^)\s*([0-9]*))?)")
_NEXT_RE = re.compile(r"\s*(\S?)")  # the next character that is not a space
_BAD_CHAR_RE = re.compile(r"[^\sA-Za-z0-9_^*+\-]")


def _parse_poly(ring: Ring, stmt: str, line: int, col: int) -> Polynomial:
    """The polynomial `stmt` states, read in one left-to-right scan. An error
    names the column of its token; a character outside the grammar's alphabet
    is reported before any other error in the statement."""

    def fail(msg, pos):
        bad = _BAD_CHAR_RE.search(stmt)
        if bad:
            msg, pos = f"unexpected character {bad.group()!r}", bad.start()
        raise ParseError(msg, line, col + pos)

    terms = []
    pos, sign = (1, -1 if stmt[0] == "-" else 1) if stmt[0] in "+-" else (0, 1)
    while True:  # one term per pass, then the sign or end after it
        coeff, exps, saw_factor = sign, [0] * ring.nvars, False
        while m := _FACTOR_RE.match(stmt, pos):
            star, digits, name, caret, exp = m.groups()
            if star and not saw_factor:
                fail("'*' needs a left factor", m.start(1))
            if digits:
                try:
                    coeff *= int(digits)
                except ValueError:  # past the interpreter's limit on digits
                    fail(f"coefficient with {len(digits)} digits is too long", m.start(2))
            else:
                if name not in ring.names:
                    fail(f"unknown variable {name!r}", m.start(3))
                if caret and not exp:  # at the token after '^', else at the variable
                    at_end = m.end() == len(stmt)
                    fail("'^' needs an integer exponent", m.start(3) if at_end else m.end())
                # one digit past MAX_DEGREE's significant digits is enough to exceed it
                e = int(exp.lstrip("0")[: len(str(MAX_DEGREE)) + 1] or 0) if exp else 1
                if e > MAX_DEGREE:
                    fail(f"exponent above the largest supported degree {MAX_DEGREE}", m.start(5))
                exps[ring.names.index(name)] += e
                if sum(exps) > MAX_DEGREE:
                    fail(f"term degree above the largest supported degree {MAX_DEGREE}", m.start(3))
            pos, saw_factor = m.end(), True
        nxt = _NEXT_RE.match(stmt, pos)
        ch, at = nxt.group(1), nxt.start(1)
        if ch == "*" and saw_factor:
            after = _NEXT_RE.match(stmt, at + 1)
            if not after.group(1):
                fail("dangling '*'", len(stmt))
            fail(f"expected a factor, got {after.group(1)!r}", after.start(1))
        if ch not in ("", "+", "-"):
            fail("'*' needs a left factor" if ch == "*" else f"expected a factor, got {ch!r}", at)
        if not saw_factor:
            fail("empty term", at)
        terms.append((tuple(exps), coeff))
        if not ch:
            return ring.poly(terms)
        pos, sign = at + 1, -1 if ch == "-" else 1


def _split_statements(text: str):
    """Yield (statement, line, col) with comments stripped; 1-based positions."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        col = 1
        for piece in body.split(";"):
            if piece.strip():
                lead = len(piece) - len(piece.lstrip())
                yield piece.strip(), lineno, col + lead
            col += len(piece) + 1


_HEADER_RE = re.compile(r"^(p|vars|order)\s*=\s*(.*)$")


def parse_system(text: str) -> SystemFile:
    header: dict[str, tuple[str, int, int]] = {}
    exprs: list[tuple[str, int, int]] = []
    for stmt, line, col in _split_statements(text):
        m = _HEADER_RE.match(stmt)
        if m:
            if exprs:
                raise ParseError("header assignments must precede polynomials", line, col)
            key = m.group(1)
            if key in header:
                raise ParseError(f"duplicate {key!r} assignment", line, col)
            header[key] = (m.group(2).strip(), line, col)
        else:
            exprs.append((stmt, line, col))

    if "p" not in header:
        raise ParseError("missing field modulus (p=...)", 1, 1)
    if "vars" not in header:
        raise ParseError("missing variable list (vars=...)", 1, 1)

    p_text, p_line, p_col = header["p"]
    if not (p_text.isascii() and p_text.isdigit()):
        raise ParseError(f"field modulus must be an integer, got {p_text!r}", p_line, p_col)
    names_text, v_line, v_col = header["vars"]
    names = tuple(s.strip() for s in names_text.split(","))
    for name in names:
        if name in _RESERVED:
            raise ParseError(f"variable name {name!r} is reserved", v_line, v_col)
    try:
        p = check_modulus(int(p_text))
    except ValueError:  # past the interpreter's limit on digits
        msg = f"field modulus with {len(p_text)} digits is too large"
        raise ParseError(msg, p_line, p_col) from None
    except DomainError as exc:
        raise ParseError(str(exc), p_line, p_col) from None
    try:
        ring = Ring(p, names)
    except (DimensionError, DomainError) as exc:  # bad, repeated or too many names
        raise ParseError(str(exc), v_line, v_col) from None

    if "order" in header:
        o_text, o_line, o_col = header["order"]
        try:
            order = TermOrder(o_text)
        except DomainError as exc:
            raise ParseError(str(exc), o_line, o_col) from None
    else:
        order = GREVLEX

    if not exprs:
        raise ParseError("no polynomials given", 1, 1)
    polys = []
    for stmt, line, col in exprs:
        f = _parse_poly(ring, stmt, line, col)
        if f.is_zero:
            raise ParseError("polynomial is zero", line, col)
        polys.append(f)
    return SystemFile(ring=ring, order=order, system=PolySystem(ring, polys))


def render_system(sf: SystemFile) -> str:
    lines = [f"p={sf.ring.p}; vars={','.join(sf.ring.names)}; order={sf.order.kind};"]
    lines.extend(f"{f.render(sf.order)};" for f in sf.system)
    return "\n".join(lines) + "\n"


def render_report(report: DegreeReport) -> str:
    """Stable JSON rendering of a DegreeReport."""
    return json.dumps(report.to_json(), indent=2)
