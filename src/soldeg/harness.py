"""Instance generators, the system text format, and report rendering.

The text format is line oriented: statements are separated by ';' or
newlines, '#' starts a comment. Header statements p=, vars=, order= must
appear before the first polynomial. Example:

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

from .errors import DomainError, GenerationError, ParseError
from .invariants import DegreeReport, degree_of_regularity
from .rings import (
    GREVLEX,
    MAX_DEGREE,
    Polynomial,
    PolySystem,
    Ring,
    TermOrder,
)

_RESERVED = {"p", "vars", "order"}
MAX_RANDOM_MONOMIALS = 10**6  # largest candidate monomial list gen_random builds


def gen_fk(k: int, p: int = 101) -> PolySystem:
    """The two-variable family {x^k + y, y^k + x, x*y} over GF(p), k >= 2."""
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"the family needs k >= 2, got {k}")
    ring = Ring(p, ("x", "y"))
    xk = ring.monomial(k, 0)
    yk = ring.monomial(0, k)
    x = ring.monomial(1, 0)
    y = ring.monomial(0, 1)
    xy = ring.monomial(1, 1)
    return PolySystem(
        ring,
        [
            Polynomial(ring, {xk: 1, y: 1}),
            Polynomial(ring, {yk: 1, x: 1}),
            Polynomial(ring, {xy: 1}),
        ],
    )


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for a random system: same spec, same output.

    Monomials of degree <= the per-polynomial bound are included with
    independent probability `density`; included monomials get a uniform
    nonzero coefficient; zero draws are resampled. With require_hypothesis
    set, whole systems are rejection-sampled until the maximum degree stays
    at or below a finite regularity degree, up to retry_limit extra attempts.
    A spec whose C(n + max bound, n) candidate monomials exceed
    MAX_RANDOM_MONOMIALS is refused.
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
        count = math.comb(self.n + max(self.deg_bounds), self.n) if self.n > 0 else 0
        if count > MAX_RANDOM_MONOMIALS:
            raise DomainError(
                f"{count} candidate monomials exceed the limit of {MAX_RANDOM_MONOMIALS}"
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


_TOKEN_RE = re.compile(r"\s+|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^*+\-])")


def _tokenize(text: str, line: int, col0: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col0 + pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), col0 + m.start()))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, ring: Ring, tokens, line: int, end_col: int):
        self.ring = ring
        self.tokens = tokens
        self.line = line
        self.end_col = end_col
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def error(self, msg, tok=None):
        col = tok[2] if tok else self.end_col
        raise ParseError(msg, self.line, col)

    def parse(self) -> Polynomial:
        terms: list[tuple[tuple[int, ...], int]] = []
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            sign = -1 if tok[1] == "-" else 1
            self.i += 1
        while True:
            terms.append(self.parse_term(sign))
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                sign = -1 if tok[1] == "-" else 1
                self.i += 1
            else:
                self.error(f"expected '+' or '-', got {tok[1]!r}", tok)
        return self.ring.poly(terms)

    def parse_term(self, sign: int) -> tuple[tuple[int, ...], int]:
        coeff = sign
        exps = [0] * self.ring.nvars
        saw_factor = False
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "op" and tok[1] in "+-"):
                break
            if tok[0] == "op" and tok[1] == "*":
                if not saw_factor:
                    self.error("'*' needs a left factor", tok)
                self.i += 1
                tok = self.peek()
                if tok is None:
                    self.error("dangling '*'")
            coeff, exps = self.parse_factor(coeff, exps)
            saw_factor = True
        if not saw_factor:
            self.error("empty term", self.peek())
        return tuple(exps), coeff

    def parse_factor(self, coeff, exps):
        tok = self.peek()
        if tok is None:
            self.error("expected a factor")
        kind, text, col = tok
        if kind == "int":
            try:
                value = int(text)
            except ValueError:  # past the interpreter's limit on digits
                self.error(f"coefficient with {len(text)} digits is too long", tok)
            self.i += 1
            return coeff * value, exps
        if kind == "name":
            if text not in self.ring.names:
                self.error(f"unknown variable {text!r}", tok)
            self.i += 1
            e = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.i += 1
                etok = self.peek()
                if etok is None or etok[0] != "int":
                    self.error("'^' needs an integer exponent", etok or tok)
                digits = etok[1].lstrip("0") or "0"
                if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                    self.error(f"exponent above the largest supported degree {MAX_DEGREE}", etok)
                e = int(digits)
                self.i += 1
            idx = self.ring.names.index(text)
            exps = list(exps)
            exps[idx] += e
            if sum(exps) > MAX_DEGREE:
                self.error(f"term degree above the largest supported degree {MAX_DEGREE}", tok)
            return coeff, exps
        self.error(f"expected a factor, got {text!r}", tok)


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
        ring = Ring(int(p_text), names)
    except ValueError:  # past the interpreter's limit on digits
        msg = f"field modulus with {len(p_text)} digits is too large"
        raise ParseError(msg, p_line, p_col) from None
    except DomainError as exc:
        raise ParseError(str(exc), p_line, p_col) from None

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
        tokens = _tokenize(stmt, line, col)
        f = _ExprParser(ring, tokens, line, col + len(stmt)).parse()
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
