"""Degree-bounded spans of a polynomial family and their fixed-point closure.

V(F, d) is the smallest linear space that contains every member of F of
degree <= d and is closed under multiplication by monomials, or equivalently
by single variables, while the product stays within degree d. The closure
climbs to V(F, d) in rungs e = 0..d in one basis, so V(F, e - 1) lies in
the basis when rung e starts and rung e leaves V(F, e). Each rung is a FIFO
worklist (the variable-only step of MutantXL): re-queue the rows of degree
e - 1 left from the rung before, insert the inputs of degree e, then
multiply every row of degree < e (a "mutant" when its degree fell below the
product it came from) by the variables from its start index on. A row from
x_a*g starts at x_a when deg(x_a*g) < e, or when it has the rung's own
degree and so waits for the next rung, since x_i*x_a*g = x_a*(x_i*g) for
i < a was already produced (the MutantXL and Matrix-F5 rule); every other
row starts at x_1. Each skipped product already lies in the span (proof at
v_space_closure), so adoption order, traces and rows are those of the
climb that multiplies by every variable. A product that hits no pivot is
stored as it is, with no reduction (RowBasis._insert_product). A monomial
row, whose stored tail is empty, gives a product that is its lead alone,
passed on as an empty tail with no term map built: on fk nearly every
product is one. The rung loop adopts each row itself, with one call per
product, the one to RowBasis._insert_product that stores it, and formats
a trace line only when tracing. The basis keeps dim V(F, e) of every rung
in `dims`. The rungs come from _climb, the only code that multiplies rows
by variables: v_space_closure runs it to d, and a report reads the rungs
of one climb of F and of one of its top parts (invariants), since a climb
through rung e holds V(F, e), row for row and line for line of its trace,
whatever degree it climbs on to. The climb also records the pivots that
no other pivot may divide (VSpaceBasis.candidates), so the minimal pivots,
and the reduced Groebner basis when a rung holds it, are read off a rung
without a pass over its rows. Adoption order makes traces and counters
reproducible; the resulting basis is canonical regardless. Every span the
library hands out is such a closure, returned as its own echelon basis (a
VSpaceBasis is a RowBasis).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    DomainError,
    InconsistencyError,
    PreconditionError,
)
from .linalg import RowBasis
from .rings import (
    GREVLEX,
    Packing,
    Polynomial,
    PolySystem,
    Ring,
    TermOrder,
    _check_cap,
    _check_int,
    _render_exps,
)

DEFAULT_MAX_ROWS = 200_000


@dataclass
class ClosureStats:
    """Counters recorded while building one closure."""

    insertions: int = 0
    adoptions: int = 0
    field_mults: int = 0
    # adopted rows of degree < d, each multiplied by the variables from its
    # start index on (see v_space_closure)
    closure_passes: int = 0


class VSpaceBasis(RowBasis):
    """Echelon basis of V(F, d), read in reduced form, plus the degree bound
    `d`, the counters of its closure, `dims[e]` = dim V(F, e) for every
    rung e <= d of its climb, and the climb's `candidates`: the pivots of
    the inputs' rows and of the products' rows whose lead is not the
    product's own lead (pivot + x), in adoption order. Every other pivot is
    a variable times a pivot, so the candidates hold every pivot that no
    other pivot divides."""

    __slots__ = ("d", "stats", "dims", "candidates", "_minimal", "_seen")

    def __init__(self, ring: Ring, order: TermOrder, d: int):
        super().__init__(ring, order)
        self.d = d
        self.stats = ClosureStats()
        self.dims: list[int] = []
        self.candidates: list[int] = []
        self._minimal: dict[int, int] = {}  # minimal pivot -> guard key (see _minimal_pivots)
        self._seen = 0  # the candidates _minimal has taken in

    def _minimal_pivots(self) -> dict[int, int]:
        """The pivots that no other pivot divides, the minimal generators of
        the pivot set, each mapped to g - s*pivot (guard g, sign s): pivot m
        divides a monomial k iff (s*k + g - s*m) keeps every guard bit
        (rings.Packing.divides). Kept from the candidates recorded since the
        last call: a candidate that a minimal pivot divides never becomes
        minimal, since pivots are never removed; any other joins and drops
        the minimal pivots it divides."""
        pack, minimal = self._pack, self._minimal
        s, g = pack.sign, pack.guard
        for c in self.candidates[self._seen:]:
            sc = s * c
            if any((sc + gm) & g == g for gm in minimal.values()):
                continue
            gc = g - sc
            for m in [m for m, gm in minimal.items() if (g - gm + gc) & g == g]:
                del minimal[m]
            minimal[c] = gc
        self._seen = len(self.candidates)
        return minimal

    def _minimal_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot, row) of the reduced echelon form at each minimal pivot,
        by descending pivot; each row is a packed term map, pivot included,
        built anew. For a closure V(F, d) these rows are the reduced basis
        of the ideal whenever it lies in V(F, d) (see invariants._scan)."""
        tails = self._tails
        return [(m, {**self._reduce_terms(dict(tails[m])), m: 1})
                for m in sorted(self._minimal_pivots(), reverse=True)]


def v_space_closure(
    F: PolySystem,
    d: int,
    order: TermOrder = GREVLEX,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
    trace=None,
) -> VSpaceBasis:
    """Compute the reduced echelon basis of V(F, d) by climbing rungs e = 0..d.

    Rung e re-queues, in adoption order, the rows of degree e - 1 that rung
    e - 1 adopted, inserts the members of F of degree e, and then multiplies
    each row of degree < e, in FIFO order, by every variable from its start
    index on. That is the basis's stored row, used without a copy, since
    stored rows never change. A product x*r leads with x times r's pivot,
    coefficient 1, so when none of its monomials is a pivot it is stored as
    it is, the residual a reduction would return. When rung e ends, dims[e]
    is the basis's dimension. Multiplying by every variable would make rung
    e end at V(F, e): every row of degree < e has then been popped, at rung
    e or before, and under a degree-compatible order an element of degree
    < e of the span is a combination of rows of degree < e, since the basis
    stores each row as adopted and its reduced form only subtracts rows
    with smaller pivots (see linalg.RowBasis).

    Start indices. A row s adopted at rung e from the product x_a*g starts
    at a when deg(x_a*g) < e, or when deg s = e, so that s is re-queued at
    rung e + 1; either way deg g <= e' - 2 at the rung e' that pops s.
    Inputs, and rows of degree < e from products of degree e (mutants),
    start at 0. Every skipped product x_i*s, i < a, already lies in the span
    when s is popped, so skipping it changes neither the basis nor the
    adoption sequence. By induction over pop order, assume every product
    x_j*r of every row r popped before s is in the span once r's pass ends.
    Write x_a*g = s + R and x_i*g = t + T, where R and T are combinations
    of basis rows, those subtracted at insertion, and t is the residual
    (zero when x_i*g reduced to zero, or was skipped and so lay in the span
    by induction). The rows in R and T have degree <= deg(x_a*g) <= e' - 1
    and were adopted before s. So was t, if nonzero: it was adopted from
    x_i*g, which came before x_a*g in g's pass (i < a, fixed variable order).
    Every row of degree <= e' - 1 adopted before s is popped before s: a
    row of degree < e' - 1 at an earlier rung, and a row of degree e' - 1,
    adopted at rung e' - 1 or e', at rung e' ahead of s, since rung e' pops
    the re-queued rows first and then its own, each in adoption order. Then
    x_i*s = x_a*t + x_a*T - x_i*R is a sum of products of rows popped
    before s, all of degree <= e' and in the span.

    `trace`, when given, is a writable text stream receiving one
    tab-separated line per adopted row: degree, pivot, source id ("f<i>" an
    input, multiplier 1; "r<j>" the j-th adopted row), multiplier.
    Raises CapExceeded (carrying partial stats) past `max_rows` rows, and
    DomainError, before any work, unless d is an int (not a bool) from 1 to
    MAX_DEGREE and `max_rows` an int (not a bool) of at least 1.
    """
    _check_cap(max_rows, "max_rows")
    _check_int(d, "closure degree")
    if d < 1:
        raise DomainError("closure degree must be at least 1")
    Packing.check(d)  # no product formed below exceeds degree d
    *_, basis = _climb(F, d, order, max_rows=max_rows,
                       trace=None if trace is None else trace.write)
    return basis


def _climb(F: PolySystem, d: int, order: TermOrder, *, max_rows: int, trace):
    """The rungs of v_space_closure(F, d), d <= MAX_DEGREE: yields its one
    basis after each rung e = 0..d, holding V(F, e) with dims[e] set.
    The basis only grows, so the row adopted last has index len(tails) - 1
    and the basis size is the adoption count that the cap bounds. Closed
    early, it still writes its counters.

    The rung loop adopts inline, with no call per adopted row: the row
    goes to `queue` when its degree is below the rung's, to start from its
    start index, else to `tops`, to start from its multiplier's index at
    the next rung; then the cap is tested. A trace line is formatted only
    when tracing: `trace`, when not None, is called with each line, which
    ends in a newline. Each product costs one call,
    RowBasis._insert_product, which stores it, and each adopted product one
    comparison, which records its pivot in `candidates` unless it is the
    product's own lead; the variables are enumerated once per closure."""
    ring = F.ring
    basis = VSpaceBasis(ring, order, d)
    pack = basis._pack
    insert_product = basis._insert_product
    tails, dims, stats, candidates = basis._tails, basis.dims, basis.stats, basis.candidates
    insertions = passes = 0
    # the (index, variable) pairs from each start index on, enumerated once
    indexed = tuple(enumerate(pack.variables))
    from_start = [indexed[s:] for s in range(len(indexed))]
    # (row index, pivot, stored tail, start index) of each adopted row to
    # multiply: in the queue below the rung's degree, in `tops` at it
    queue: deque[tuple[int, int, dict[int, int], int]] = deque()
    tops: deque[tuple[int, int, dict[int, int], int]] = deque()
    step = 1 << pack.deg_shift  # degree_floor(e + 1) - degree_floor(e)
    below_e = pack.degree_floor(-1)  # keys of degree < e lie below it (rung 0 pops no row)
    # (degree, index, input) of the inputs of degree <= d by falling degree, so
    # each rung pops its own off the end; inputs above the bound are excluded,
    # not truncated
    inputs = sorted([(f._degree, i, f) for i, f in enumerate(F.polys) if f._degree <= d],
                    reverse=True)
    try:
        for e in range(d + 1):
            below_e_minus_1, below_e = below_e, below_e + step
            queue, tops = tops, queue  # the rows of degree e - 1 in adoption order; tops empty
            while inputs and inputs[-1][0] == e:
                _, i, f = inputs.pop()
                insertions += 1
                pivot = basis._insert(dict(f._packed(pack)))
                if pivot is not None:
                    row = len(tails) - 1
                    candidates.append(pivot)
                    if trace is not None:
                        trace(_trace_line(pack, ring.names, pivot, f"f{i}", "1"))
                    (queue if pivot < below_e else tops).append((row, pivot, tails[pivot], 0))
                    if row >= max_rows:
                        raise _row_cap(max_rows, stats)
            while queue:
                source, pivot, tail, start = queue.popleft()
                passes += 1
                # products of degree < e pass their multiplier's index on as a start
                below = pivot < below_e_minus_1
                for a, x in from_start[start]:
                    insertions += 1
                    # x keeps the term order, so the product leads with pivot + x;
                    # a monomial row's product is its lead alone, with no map to build
                    product = pivot + x
                    lead = insert_product(product, {k + x: c for k, c in tail.items()}
                                          if tail else {})
                    if lead is not None:
                        row = len(tails) - 1
                        if lead != product:  # else a variable times a pivot: never minimal
                            candidates.append(lead)
                        if trace is not None:
                            trace(_trace_line(pack, ring.names, lead, f"r{source}", ring.names[a]))
                        if lead < below_e:
                            queue.append((row, lead, tails[lead], a if below else 0))
                        else:
                            tops.append((row, lead, tails[lead], a))
                        if row >= max_rows:
                            raise _row_cap(max_rows, stats)
            dims.append(len(tails))
            yield basis
    finally:  # the counters, also those CapExceeded carries
        stats.insertions, stats.adoptions = insertions, len(tails)
        stats.closure_passes, stats.field_mults = passes, basis.mult_count


def _trace_line(pack, names, pivot, source, multiplier):
    """The trace line of the row just adopted at `pivot`."""
    return (f"{pack.degree(pivot)}\t{_render_exps(pack.decode(pivot), names)}"
            f"\t{source}\t{multiplier}\n")


def _row_cap(max_rows, stats):
    """The CapExceeded of a climb past `max_rows` rows, carrying its
    counters, which the climb writes as the error leaves it."""
    return CapExceeded(f"closure exceeded {max_rows} rows", stats=stats)


def construct_top_representatives(
    F: PolySystem, d_reg: int, order: TermOrder = GREVLEX
) -> dict[tuple[int, ...], Polynomial]:
    """For every monic monomial m of degree d_reg, build p in V(F, d_reg)
    with top part exactly m; returns the map from m's exponent tuple to p.

    Reads the rows of v_space_closure(F, d_reg). V(F, d_reg) holds every
    product m*f of degree d_reg, so when their top parts fill the degree-d_reg
    slice, every monomial of that degree is a pivot, and that is the only
    check: V(F, d_reg) has no term above d_reg and reduced tails hold no
    pivot, so its row is that monomial plus lower-degree terms. The rows
    are canonical, so the result does not depend on the order of F. Refuses
    when max deg(F) exceeds d_reg; InconsistencyError names the largest
    monomial that is no pivot (the given regularity degree was wrong).
    """
    if not isinstance(d_reg, int) or isinstance(d_reg, bool) or d_reg < 1:
        raise DomainError(f"regularity degree must be a positive int, got {d_reg!r}")
    if F.max_degree() > d_reg:
        raise PreconditionError(
            "construct_top_representatives needs max deg(F) <= regularity degree; "
            "interreduce the system first"
        )
    ring = F.ring
    pack = ring.packing(order)
    rows = dict(v_space_closure(F, d_reg, order)._rows())
    reps: dict[tuple[int, ...], Polynomial] = {}
    # largest first, so the keys run down the term order and a miss names the largest one
    for target in sorted(pack.monomials(d_reg), reverse=True):
        row = rows.get(target)
        if row is None:
            raise InconsistencyError(
                f"monomial {_render_exps(pack.decode(target), ring.names)} has no "
                f"degree-{d_reg} representation; the supplied regularity degree looks wrong"
            )
        reps[pack.decode(target)] = Polynomial._from_packed(ring, pack, row)
    return reps


def reduce_against_tops(f: Polynomial, reps: dict[tuple[int, ...], Polynomial]):
    """Cancel the whole top part of f with the degree-d representatives
    that construct_top_representatives returns.

    Returns (coeffs, remainder) with f == remainder + sum(coeffs[m] * reps[m])
    over exponent tuples m, and deg(remainder) < d. Purely syntactic: f need
    not lie in any span.
    """
    if not reps:
        raise DomainError("no top representatives to reduce against")
    d = sum(next(iter(reps)))
    if f.is_zero or f._degree != d:
        raise DomainError(f"expected a polynomial of degree exactly {d}")
    coeffs: dict[tuple[int, ...], int] = {}
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
    unchanged and no intermediate degree ever exceeds max deg(F). Leading
    monomials are compared as packed keys under `order`.
    """
    polys = list(F)
    p = F.ring.p
    pack = F.ring.packing(order)
    while True:
        leads = [f._lead(order)[1:] for f in polys]  # (packed lm, lc)
        pair = next(
            ((i, j) for i, (li, _) in enumerate(leads) for j, (lj, _) in enumerate(leads)
             if i != j and pack.divides(lj, li)),
            None,
        )
        if pair is None:
            break
        i, j = pair
        (li, ci), (lj, cj) = leads[i], leads[j]
        replacement = polys[i] - polys[j].mul_monomial(pack.decode(li - lj), ci * pow(cj, -1, p))
        if replacement.is_zero:
            del polys[i]
        else:
            polys[i] = replacement
    return PolySystem(F.ring, [f.monic(order) for f in polys])
