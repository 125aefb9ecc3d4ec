"""Degree-bounded spans of a polynomial family and their fixed-point closure.

V(F, d) is the smallest linear space that contains every member of F of
degree <= d and is closed under multiplication by monomials while the
product stays within degree d. The closure is computed with a worklist:
seed with all bounded monomial multiples of the inputs, then whenever a
new pivot row of degree < d appears (a "mutant" when its degree fell below
the degree it was generated at), enqueue all of its bounded multiples.
Processing order is ascending in (degree, term order), which makes logs and
counters reproducible; the resulting basis is canonical regardless.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import (
    CapExceeded,
    DomainError,
    InconsistencyError,
    PreconditionError,
)
from .linalg import RowBasis
from .rings import (
    GREVLEX,
    Monomial,
    Polynomial,
    PolySystem,
    TermOrder,
    enumerate_monomials,
    render_monomial,
)

DEFAULT_MAX_ROWS = 200_000


@dataclass
class ClosureStats:
    """Counters recorded while building one closure."""

    insertions: int = 0
    adoptions: int = 0
    field_mults: int = 0
    closure_passes: int = 0  # pivot rows whose bounded multiples were enqueued


@dataclass
class VSpaceBasis:
    """Reduced echelon basis of V(F, d) plus its generation log and counters.

    The log holds one (source id, multiplier) pair per adopted row, in
    adoption order: sources "f<i>" are input polynomials, "r<j>" previously
    adopted rows.
    """

    d: int
    basis: RowBasis
    log: list[tuple[str, Monomial]] = field(default_factory=list)
    stats: ClosureStats = field(default_factory=ClosureStats)

    def span_dim(self) -> int:
        return self.basis.span_dim()

    def span_contains(self, f: Polynomial) -> bool:
        return self.basis.span_contains(f)

    @property
    def rows(self) -> list[Polynomial]:
        return self.basis.rows


def _ascending_multipliers(n, max_deg, order, include_unit):
    if max_deg < 0:
        return []
    mons = enumerate_monomials(n, max_deg, "at_most", order)
    mons.reverse()
    return mons if include_unit else mons[1:]


def _seed_products(F: PolySystem, d: int, order: TermOrder):
    n = F.ring.nvars
    for i, f in enumerate(F):
        if f._degree > d:
            continue  # inputs above the bound are excluded, not truncated
        for m in _ascending_multipliers(n, d - f._degree, order, include_unit=True):
            yield i, m, f.mul_monomial(m)


def macaulay_generators(F: PolySystem, d: int, order: TermOrder = GREVLEX) -> list[Polynomial]:
    """All products m*f with f in F, deg(f) <= d, and deg(m*f) <= d (m = 1 included)."""
    if d < 0:
        raise DomainError("degree bound must be non-negative")
    return [prod for _, _, prod in _seed_products(F, d, order)]


def v_space_closure(
    F: PolySystem,
    d: int,
    order: TermOrder = GREVLEX,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
    trace=None,
) -> VSpaceBasis:
    """Compute the reduced echelon basis of V(F, d) by worklist closure.

    `trace`, when given, is a writable text stream receiving one
    tab-separated line per adopted row: degree, pivot, source id, multiplier.
    Raises CapExceeded (carrying partial stats) past `max_rows` rows.
    """
    if d < 1:
        raise DomainError("closure degree must be at least 1")
    ring = F.ring
    names = ring.names
    basis = RowBasis(ring, order)
    stats = ClosureStats()
    log: list[tuple[str, Monomial]] = []
    heap: list = []  # (degree, pivot key, serial, row id, snapshot)
    serial = 0

    def adopt(residual: Polynomial, source: str, multiplier: Monomial):
        nonlocal serial
        row_id = f"r{stats.adoptions}"
        stats.adoptions += 1
        log.append((source, multiplier))
        if trace is not None:
            trace.write(
                f"{residual._degree}\t{render_monomial(residual.leading_monomial(order), names)}"
                f"\t{source}\t{render_monomial(multiplier, names)}\n"
            )
        if basis.span_dim() > max_rows:
            stats.field_mults = basis.mult_count
            raise CapExceeded(f"closure exceeded {max_rows} rows", stats=stats)
        if residual._degree < d:
            heapq.heappush(
                heap,
                (residual._degree, order.key(residual.leading_monomial(order)), serial, row_id, residual),
            )
            serial += 1

    for i, m, prod in _seed_products(F, d, order):
        stats.insertions += 1
        residual = basis.insert_reduce(prod)
        if residual:
            adopt(residual, f"f{i}", m)

    n = ring.nvars
    while heap:
        _, _, _, row_id, g = heapq.heappop(heap)
        stats.closure_passes += 1
        for m in _ascending_multipliers(n, d - g._degree, order, include_unit=False):
            stats.insertions += 1
            residual = basis.insert_reduce(g.mul_monomial(m))
            if residual:
                adopt(residual, row_id, m)

    stats.field_mults = basis.mult_count
    return VSpaceBasis(d=d, basis=basis, log=log, stats=stats)


@dataclass
class TopRepSet:
    """One representative per monic monomial of the regularity degree.

    Each value p satisfies p.top() == key (a single monic term) and lies in
    V(F, d).
    """

    d: int
    reps: dict[Monomial, Polynomial]

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, m: Monomial) -> Polynomial:
        return self.reps[m]

    def __contains__(self, m: Monomial) -> bool:
        return m in self.reps

    def items(self):
        return self.reps.items()


def construct_top_representatives(
    F: PolySystem, d_reg: int, order: TermOrder = GREVLEX
) -> TopRepSet:
    """For every monic monomial m of degree d_reg, build p in V(F, d_reg)
    with top part exactly m.

    Echelonizes the products m*f of degree exactly d_reg. When their top
    parts span the degree-d_reg slice, every monomial of that degree is a
    pivot, and since reduced tails hold no pivot, its row is that monomial
    plus lower-degree terms. The rows are canonical, so the result does not
    depend on the order of F. Refuses when max deg(F) exceeds d_reg; a
    monomial that is no pivot raises InconsistencyError (the given
    regularity degree was wrong).
    """
    if not isinstance(d_reg, int) or d_reg < 1:
        raise DomainError(f"regularity degree must be a positive int, got {d_reg!r}")
    if F.max_degree() > d_reg:
        raise PreconditionError(
            "construct_top_representatives needs max deg(F) <= regularity degree; "
            "interreduce the system first"
        )
    ring = F.ring
    n = ring.nvars
    basis = RowBasis(ring, order)
    for f in F:
        for m in enumerate_monomials(n, d_reg - f._degree, "exactly", order):
            basis.insert_reduce(f.mul_monomial(m))
    rows = {row.leading_monomial(order): row for row in basis.rows if row._degree == d_reg}
    reps: dict[Monomial, Polynomial] = {}
    for target in enumerate_monomials(n, d_reg, "exactly", order):
        rep = rows.get(target)
        if rep is None:
            raise InconsistencyError(
                f"monomial {render_monomial(target, ring.names)} has no degree-{d_reg} "
                "representation; the supplied regularity degree looks wrong"
            )
        if rep.top().terms != {target: 1}:
            raise InconsistencyError(
                f"row of {render_monomial(target, ring.names)} has a different top part"
            )
        reps[target] = rep
    return TopRepSet(d=d_reg, reps=reps)


def reduce_against_tops(f: Polynomial, reps: TopRepSet):
    """Cancel the whole top part of f with representatives.

    Returns (coeffs, remainder) with f == remainder + sum(coeffs[m] * reps[m])
    and deg(remainder) < reps.d. Purely syntactic: f need not lie in any span.
    """
    if f.is_zero or f._degree != reps.d:
        raise DomainError(f"expected a polynomial of degree exactly {reps.d}")
    coeffs: dict[Monomial, int] = {}
    remainder = f
    for m, c in f.top().terms.items():
        coeffs[m] = c
        remainder = remainder - reps[m].scaled(c)
    return coeffs, remainder


def interreduce_tops(F: PolySystem, order: TermOrder = GREVLEX) -> PolySystem:
    """Cancel divisible leading terms until no leading term divides another.

    Whenever LT(f_i) = m * LT(f_j) for i != j, replace f_i by
    f_i - c*m*f_j (c matching the leading coefficients); zero results are
    dropped. The first applicable pair in ascending (i, j) scan order is
    taken, which makes the result deterministic. The generated ideal is
    unchanged and no intermediate degree ever exceeds max deg(F).
    """
    polys = list(F)
    inv = F.ring.field.inv
    restart = True
    while restart:
        restart = False
        for i, fi in enumerate(polys):
            lm_i = fi.leading_monomial(order)
            for j, fj in enumerate(polys):
                if i == j:
                    continue
                lm_j = fj.leading_monomial(order)
                if not lm_j.divides(lm_i):
                    continue
                c = fi.terms[lm_i] * inv(fj.terms[lm_j])
                replacement = fi - fj.mul_monomial(lm_i / lm_j, c)
                if replacement.is_zero:
                    del polys[i]
                else:
                    polys[i] = replacement
                restart = True
                break
            if restart:
                break
    if not polys:
        raise InconsistencyError("interreduction emptied a system of nonzero polynomials")
    return PolySystem(F.ring, [f.monic(order) for f in polys])
