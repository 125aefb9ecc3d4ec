"""Ground truth for ideal computations: Buchberger with full reduction,
normal forms, bounded ideal dimension counts, and `mutantxl_gb`, which reads
the reduced basis off the closure V(F, d_reg + 1) and must reproduce the
Buchberger output exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, DomainError, InconsistencyError, PreconditionError
from .rings import (
    GREVLEX,
    Monomial,
    Polynomial,
    PolySystem,
    TermOrder,
    enumerate_monomials,
)
from .vspace import VSpaceBasis, v_space_closure

DEFAULT_MAX_PAIRS = 200_000


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis; with reduced=True it is the unique reduced basis:
    monic elements, pairwise non-dividing leading terms, fully inter-reduced,
    sorted by descending leading monomial."""

    polys: tuple[Polynomial, ...]
    order: TermOrder
    reduced: bool = True

    @property
    def max_degree(self) -> int:
        return max(g._degree for g in self.polys)

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0]._degree == 0

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial(self.order) for g in self.polys]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]


def _nf(f: Polynomial, divisors: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Full multivariate division remainder of f by monic divisors.

    No term of the result is divisible by any divisor's leading monomial;
    the degree never grows because the order is degree-compatible.
    """
    ring = f.ring
    p = ring.p
    key = order.key
    pairs = [(g.leading_monomial(order), g.terms) for g in divisors]
    work = dict(f.terms)
    rem: dict[Monomial, int] = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, terms in pairs:
            if lm.divides(m):
                q = m / lm
                for mm, cc in terms.items():
                    if mm is lm or mm == lm:
                        continue
                    qm = mm * q
                    v = (work.get(qm, 0) - c * cc) % p
                    if v:
                        work[qm] = v
                    else:
                        del work[qm]
                break
        else:
            rem[m] = c
    return Polynomial._raw(ring, rem)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by a reduced basis; zero iff f is in the ideal."""
    return _nf(f, G.polys, G.order)


def _spoly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf = f.leading_monomial(order)
    lg = g.leading_monomial(order)
    l = lf.lcm(lg)
    # both inputs monic
    return f.mul_monomial(l / lf) - g.mul_monomial(l / lg)


def _minimalize(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Keep only polynomials whose leading monomial no other kept one divides."""
    ranked = sorted(polys, key=lambda f: order.key(f.leading_monomial(order)))
    kept: list[Polynomial] = []
    kept_lms: list[Monomial] = []
    for f in ranked:
        lm = f.leading_monomial(order)
        if not any(l.divides(lm) for l in kept_lms):
            kept.append(f)
            kept_lms.append(lm)
    return kept


def _interreduce(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Tail-reduce each element against the others until stable.

    Assumes pairwise non-dividing leading monomials, so leading terms survive.
    """
    polys = [f.monic(order) for f in polys]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1 :]
            r = _nf(polys[i], others, order)
            if r.terms != polys[i].terms:
                polys[i] = r.monic(order)
                changed = True
    return polys


def _sorted_basis(polys: list[Polynomial], order: TermOrder) -> tuple[Polynomial, ...]:
    return tuple(
        sorted(polys, key=lambda f: order.key(f.leading_monomial(order)), reverse=True)
    )


def _unit_basis(ring, order: TermOrder) -> GroebnerBasis:
    return GroebnerBasis((ring.one(),), order, reduced=True)


def _check_buchberger(G: GroebnerBasis):
    polys = G.polys
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not _nf(_spoly(polys[i], polys[j], G.order), polys, G.order).is_zero:
                raise InconsistencyError("S-polynomial does not reduce to zero")


def buchberger_reduced(
    F, order: TermOrder = GREVLEX, *, max_pairs: int = DEFAULT_MAX_PAIRS, check: bool = True
) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal generated by F.

    Pairs are processed lowest lcm degree first (normal strategy) and
    coprime leading terms are skipped (product criterion). With check=True
    the Buchberger criterion is re-verified on the result.
    """
    polys = list(F)
    if not polys:
        raise DomainError("cannot take a basis of an empty family")
    ring = polys[0].ring
    G = [f.monic(order) for f in polys if not f.is_zero]
    if not G:
        raise DomainError("cannot take a basis of all-zero generators")
    if any(f._degree == 0 for f in G):
        return _unit_basis(ring, order)

    key = order.key
    heap: list = []

    def push_pairs(upto: int, j: int):
        lj = G[j].leading_monomial(order)
        for i in range(upto):
            li = G[i].leading_monomial(order)
            l = li.lcm(lj)
            if l.degree == li.degree + lj.degree:
                continue  # coprime leading monomials: S-pair reduces to zero
            heapq.heappush(heap, (l.degree, key(l), i, j))

    for j in range(1, len(G)):
        push_pairs(j, j)

    pops = 0
    while heap:
        pops += 1
        if pops > max_pairs:
            raise CapExceeded(
                f"Buchberger exceeded {max_pairs} S-pairs", details={"basis_size": len(G)}
            )
        _, _, i, j = heapq.heappop(heap)
        r = _nf(_spoly(G[i], G[j], order), G, order)
        if r.is_zero:
            continue
        if r._degree == 0:
            return _unit_basis(ring, order)
        G.append(r.monic(order))
        push_pairs(len(G) - 1, len(G) - 1)

    result = GroebnerBasis(
        _sorted_basis(_interreduce(_minimalize(G, order), order), order),
        order,
        reduced=True,
    )
    if check:
        _check_buchberger(result)
    return result


def gbd(F, order: TermOrder = GREVLEX) -> int:
    """Maximum degree appearing in the reduced Groebner basis."""
    return buchberger_reduced(F, order).max_degree


def ideal_dim_le(G: GroebnerBasis, e: int) -> int:
    """Number of monomials of degree <= e divisible by some leading monomial.

    For a degree-compatible order this equals the dimension of the space of
    ideal elements of degree <= e.
    """
    if e < 0:
        return 0
    n = G.polys[0].ring.nvars
    lms = G.leading_monomials()
    return sum(
        1
        for m in enumerate_monomials(n, e, "at_most", G.order)
        if any(l.divides(m) for l in lms)
    )


def mutantxl_gb(F: PolySystem, order: TermOrder = GREVLEX) -> tuple[GroebnerBasis, VSpaceBasis]:
    """Groebner basis read off the closure V(F, d_reg + 1).

    Requires max deg(F) <= d_reg(F) < infinity (PreconditionError otherwise;
    interreduce_tops can repair many violating systems). Under that
    hypothesis the closure, which multiplies every adopted row below the
    bound, mutants included, by each variable (MutantXL), contains the
    reduced basis; it is extracted from
    the rows whose leading monomials minimally generate the pivot ideal.
    Returns the basis and the closure: its `d` is the degree bound and its
    `stats` the work counters.
    """
    from .invariants import degree_of_regularity  # deferred: avoids an import cycle

    d_reg = degree_of_regularity(F)
    if not isinstance(d_reg, int):
        raise PreconditionError(
            "mutant elimination needs a finite regularity degree; "
            "interreduce the system first (interreduce_tops)"
        )
    if F.max_degree() > d_reg:
        raise PreconditionError(
            f"mutant elimination needs max deg(F) <= {d_reg}; "
            "interreduce the system first (interreduce_tops)"
        )
    V = v_space_closure(F, d_reg + 1, order)
    minimal = _minimalize(V.rows, order)
    result = GroebnerBasis(
        _sorted_basis(_interreduce(minimal, order), order), order, reduced=True
    )
    return result, V
