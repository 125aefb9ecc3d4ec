"""Regularity, solving, and last fall degrees, with machine-checked
certificates for every bound that relates them.

All four invariants are exact integers (the regularity degree may be an
InfiniteDegree marker carrying its cap, one past the Macaulay bound).
verify_bounds computes everything once: one scan gives the reduced
Groebner basis G, sd, and Lfd from the rung dimensions of its last
closure, and one rule turns each bound into a certificate with lhs, rhs,
and a pass/fail/skipped verdict. Every closure a report reads is a rung of
one climb (_rungs): the d_reg walk climbs the tops, and the scan climbs F
to sd and reads G off the rung where it first lies, so a report builds no
v_space_closure and, uncapped, runs no Buchberger. Past sd the identity
certificate reads dim V(F, d_reg + 1) off G, so only a traced report, to
write that closure's trace, or one whose scan was capped climbs F past
sd. Resource caps never produce wrong numbers: a capped computation turns
the certificates that need it into skips with a "cap:" reason.
mutantxl_gb reads the reduced Groebner basis off the closure at
d_reg + 1, which contains it when max deg(F) <= d_reg, as the scan reads
it off a rung.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice, product
from typing import Union

from .errors import CapExceeded, DomainError, PreconditionError
from .groebner import (GroebnerBasis, _is_basis, _nf, buchberger_reduced, ideal_dim_le,
                       ideal_dims)
from .rings import GREVLEX, MAX_DEGREE, Packing, Polynomial, PolySystem, TermOrder, _check_cap
from .vspace import DEFAULT_MAX_ROWS, VSpaceBasis, _climb, v_space_closure

LFD_RATIONALE = (
    "falls cannot occur past the solving degree: once the reduced basis lies in "
    "the degree-e span, degree-compatible division keeps every reduction of a "
    "bounded ideal element inside degree e"
)


@dataclass(frozen=True)
class InfiniteDegree:
    """Marker for an infinite regularity degree, with its cap: Macaulay + 1."""

    cap: int

    def __repr__(self):
        return f"+infinity(cap={self.cap})"


DegreeValue = Union[int, InfiniteDegree]


def _macaulay_degrees(F: PolySystem) -> list[int]:
    """The m = min(n, k) largest input degrees, largest first."""
    return sorted(F.degrees(), reverse=True)[: min(F.ring.nvars, len(F))]


def _macaulay_bound(F: PolySystem) -> int:
    """d_1 + ... + d_m - m + 2 over the m = min(n, k) largest input degrees."""
    degs = _macaulay_degrees(F)
    return sum(degs) - len(degs) + 2


def _rational_common_zero(F: PolySystem) -> bool:
    """Whether one of the first DEFAULT_MAX_ROWS points of P^{n-1}(GF(p)),
    scaled so that its first nonzero coordinate is 1, zeroes the top part of
    every member of F."""
    p, n = F.ring.p, F.ring.nvars
    # each top term as its coefficient and the (variable, exponent) pairs it holds
    tops = [[(c, [(v, e) for v, e in enumerate(m) if e]) for m, c in f.top().terms.items()]
            for f in F]
    points = ((0,) * j + (1,) + rest
              for j in range(n) for rest in product(range(p), repeat=n - j - 1))
    return any(
        all(sum(c * math.prod(pow(P[v], e, p) for v, e in m) for c, m in top) % p == 0
            for top in tops)
        for P in islice(points, DEFAULT_MAX_ROWS)
    )


def _rungs(F: PolySystem, order: TermOrder, trace=None):
    """The rung reader of one climb of F: at(e) climbs to rung e and returns
    the climb's one basis, whose dims[e] = dim V(F, e) and which holds
    V(F, e) itself while no later rung has been read. A climb through rung
    e holds V(F, e) with the rows, counters and trace of
    v_space_closure(F, d) (see vspace._climb), so at(e) writes to `trace`
    the climb's first dims[e] lines: the lines that closure would write;
    at(e, write=False) writes none, and a later at(e) still can. Once the
    row cap has stopped the climb, at(e) for every later rung writes every
    line the climb wrote, as the capped closure would, and raises that same
    CapExceeded. Past MAX_DEGREE it raises DomainError. A report reads
    rungs 1..sd of F silently and then writes the blocks of rungs
    max(1, Gbd)..sd, and reads rung d_reg + 1 past sd only when the scan
    was capped or, to write its trace block, when tracing (verify_bounds);
    the d_reg walk reads the rungs of the tops."""
    lines: list[str] = []
    climb = _climb(F, MAX_DEGREE, order, max_rows=DEFAULT_MAX_ROWS,
                   trace=None if trace is None else lines.append)
    V, capped = next(climb), None  # rung 0 holds at most one row, so no cap stops it

    def at(e: int, write: bool = True) -> VSpaceBasis:
        nonlocal capped
        Packing.check(e)
        try:
            while capped is None and len(V.dims) <= e:
                next(climb)
        except CapExceeded as exc:
            capped = exc
        if write and trace is not None:
            trace.write("".join(lines[: V.dims[e]] if e < len(V.dims) else lines))
        if e >= len(V.dims):
            raise capped
        return V

    return at


def degree_of_regularity(F: PolySystem) -> DegreeValue:
    """Smallest d at which the degree-d slice spanned by bounded multiples of
    the input top parts fills the whole degree-d space; InfiniteDegree(cap)
    when none does, cap = Macaulay bound + 1.

    InfiniteDegree is a proof, not a give-up. The slices are those of the
    ideal I generated by the top parts, and their dimensions do not change
    under field extension, so the arguments below hold over GF(2) and GF(3)
    too. With k < n forms all of positive degree, I is proper and has height
    <= k < n (Krull's height theorem), so no slice ever fills and the scan is
    skipped; a constant member makes I the whole ring, and the scan finds
    d_reg = 1. If a point P of P^{n-1}(GF(p)) with P_i != 0 zeroes every
    top, every element of slice d vanishes at P and x_i^d does not, so no
    slice fills and the scan is skipped too. The point e_i is such a zero
    when no top holds the pure power x_i^deg f; the (p^n - 1)/(p - 1) points
    are searched only when they number no more than the monomials of degree
    cap - 2, the last slice the scan would build, and then only the first
    DEFAULT_MAX_ROWS of them, so the search tries no more points than the
    walk may adopt rows; a zero among them is still a proof.
    With k >= n, a slice fills at some degree only if I is primary to the
    irrelevant ideal or the whole ring, and then (Lazard, 1983) it fills by
    degree (d_1 - 1) + ... + (d_n - 1) + 1 over the n largest degrees, two
    below the cap; the scan stops there. With k = n forms all of positive
    degree, a filled slice makes them a regular sequence, whose Hilbert
    series (1 - t^d_1)...(1 - t^d_n)/(1 - t)^n ends at degree Lazard's - 1,
    so d_reg is Lazard's degree or infinite: past MAX_DEGREE either answer
    ends in a DomainError, raised before the walk climbs a rung.

    The walk reads the rungs of one climb of the tops (_rungs) under
    grevlex, so it shares the closure's row cap: past it, a CapExceeded
    names the walk. The tops are homogeneous, so each product of a top by a
    monomial is too, and V(tops, e) is the direct sum of the slices of
    degree <= e: slice e has dimension dims[e] - dims[e - 1]. Past rung
    MAX_DEGREE with no slice filled, the walk raises the DomainError of
    degree MAX_DEGREE + 1.
    """
    cap = _macaulay_bound(F) + 1  # one degree of slack past the Macaulay bound
    n = F.ring.nvars
    if len(F) < n and min(F.degrees()) > 0:
        return InfiniteDegree(cap)
    pack = F.ring.packing(GREVLEX)  # the polynomials' own keys
    if any(all(f._degree * x not in f._t for f in F) for x in pack.variables):
        return InfiniteDegree(cap)  # a coordinate point zeroes every top
    p = F.ring.p
    if (p**n - 1) // (p - 1) <= math.comb(cap + n - 3, n - 1) and _rational_common_zero(F):
        return InfiniteDegree(cap)
    if len(F) == n and min(F.degrees()) > 0 and cap - 2 > MAX_DEGREE:
        raise DomainError(f"d_reg is Lazard's degree {cap - 2} or infinite, and {cap - 2} "
                          f"exceeds the largest supported degree {MAX_DEGREE}")
    at = _rungs(PolySystem(F.ring, [f.top() for f in F]), GREVLEX)
    try:
        for e in range(1, max(1, cap - 2) + 1):  # up to Lazard's degree, two below the cap
            dims = at(e).dims  # rung 0, which constant tops fill, is climbed and not read
            if dims[e] - dims[e - 1] == math.comb(e + n - 1, e):
                return e
    except CapExceeded as exc:
        raise CapExceeded(f"d_reg walk: {exc}", stats=exc.stats, details=exc.details) from None
    return InfiniteDegree(cap)


def mutantxl_gb(F: PolySystem, order: TermOrder = GREVLEX) -> tuple[GroebnerBasis, VSpaceBasis]:
    """Groebner basis read off the closure V(F, d_reg + 1).

    Requires max deg(F) <= d_reg(F) < infinity (PreconditionError otherwise;
    interreduce_tops can repair many violating systems). Under that
    hypothesis the closure, which multiplies every adopted row below the
    bound, mutants included, by each variable (MutantXL), contains the
    reduced basis; it is read off as the sd scan reads it off a rung
    (VSpaceBasis._minimal_rows): the fully reduced rows at the pivots that
    no other pivot divides.
    Returns the basis and the closure: its `d` is the degree bound and its
    `stats` the work counters.
    """
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
    return _basis(F.ring, order, V._minimal_rows()), V


def _basis(ring, order: TermOrder, rows: list) -> GroebnerBasis:
    """The basis of the packed rows, given by descending pivot."""
    pack = ring.packing(order)
    return GroebnerBasis(tuple(Polynomial._from_packed(ring, pack, t) for _, t in rows), order)


def _scan_cap(cap: int | None) -> int:
    """The last rung the sd scan reads: `cap`, checked, or MAX_DEGREE."""
    if cap is None:
        return MAX_DEGREE
    _check_cap(cap, "cap")
    return cap


def _scan(F, order, last, at) -> tuple[GroebnerBasis, int, int, list[int], list[int]]:
    """(G, sd, Lfd, ideal, dims) read off the rungs e = 1, 2, ... of one
    climb of F through its unread reader `at` (_rungs). Rung e gives G_e,
    the fully reduced rows of V(F, e) whose pivots minimally generate its
    pivot set (VSpaceBasis._minimal_rows). The first e at which every input
    of degree > e reduces to zero mod G_e and every S-pair of G_e of lcm
    degree > e passes the basis check (groebner._is_basis with low=e) is
    sd, and G_e is G: the test passes exactly when G lies in V(F, e) (proof
    at verify_bounds). A rung is rejected at once when the leading
    monomial of some input above e has no minimal pivot dividing it. The
    rungs are read silently; once G is known, `at` writes the trace blocks
    of rungs max(1, Gbd)..sd, the closures v_space_closure would build at
    those degrees. Past rung `last` (_scan_cap) CapExceeded carries the
    scanned span dimensions. For e = 0..sd, `dims[e]` = dim V(F, e), and
    `ideal[e]` counts the ideal's elements of degree <= e, in one pass.
    Lfd is one past the last e <= sd with dims[e] < ideal[e], found walking
    down from sd, so it reads no further rung.
    """
    pack, p = F.ring.packing(order), F.ring.p
    s, g = pack.sign, pack.guard
    # (degree, s * leading monomial, terms) of each input, keyed once
    inputs = [(f._degree, s * max(t := f._packed(pack)), t) for f in F]
    partial: dict[int, int] = {}
    for sd in range(1, last + 1):
        V = at(sd, write=False)
        partial[sd] = V.dims[sd]
        above = [(slm, t) for deg, slm, t in inputs if deg > sd]
        minimal = V._minimal_pivots().values()
        if any(all((slm + gm) & g != g for gm in minimal) for slm, _ in above):
            continue
        rows = V._minimal_rows()
        if (all(not _nf(t, rows, pack, p) for _, t in above)
                and _is_basis(rows, pack, p, low=sd)):
            break
    else:
        raise CapExceeded(f"solving degree exceeds cap {last}", details={"partial_dims": partial})
    G = _basis(F.ring, order, rows)
    for d in range(max(1, G.max_degree), sd + 1):
        at(d)  # writes the trace block of rung d
    ideal, dims = ideal_dims(G, sd), V.dims[: sd + 1]  # a later rung read extends V.dims
    # going down, the first fall is the last one
    lfd = 1 + next((e for e in range(sd, 0, -1) if dims[e] < ideal[e]), 0)
    return G, sd, lfd, ideal, dims


def solving_degree(F: PolySystem, order: TermOrder = GREVLEX, cap: int | None = None) -> int:
    """Smallest d whose degree-d span contains the reduced Groebner basis."""
    return _scan(F, order, _scan_cap(cap), _rungs(F, order))[1]


def last_fall_degree(F: PolySystem, order: TermOrder = GREVLEX, cap: int | None = None) -> int:
    """Minimal d such that every ideal element f lies in the span at degree
    max(d, deg f). Computed by comparing span dimensions against the ideal's
    bounded dimensions, walking down from the solving degree and stopping
    at the last fall."""
    return _scan(F, order, _scan_cap(cap), _rungs(F, order))[2]


@dataclass
class Certificate:
    """One verified bound: lhs/rhs values and a pass/fail/skipped verdict."""

    id: str
    lhs: object
    rhs: object
    verdict: str  # "pass" | "fail" | "skipped"
    reason: str | None = None


@dataclass
class DegreeReport:
    """All computed invariants for one system plus the bound certificates."""

    d_reg: DegreeValue | None
    gbd: int | None
    sd: int | None
    lfd: int | None
    order: TermOrder
    hypothesis: dict[str, bool]
    certificates: list[Certificate]
    system: dict

    @property
    def all_pass(self) -> bool:
        return all(c.verdict != "fail" for c in self.certificates)

    @property
    def any_capped(self) -> bool:
        return any(
            c.verdict == "skipped" and (c.reason or "").startswith("cap")
            for c in self.certificates
        )

    def to_json(self) -> dict:
        d_reg = self.d_reg
        if isinstance(d_reg, InfiniteDegree):
            d_reg = {"infinite": True, "cap": d_reg.cap}
        return {
            "d_reg": d_reg,
            "gbd": self.gbd,
            "sd": self.sd,
            "lfd": self.lfd,
            "order": self.order.kind,
            "hypothesis": dict(self.hypothesis),
            # the fields in order; dataclasses.asdict costs ~20x more per report
            "certificates": [dict(vars(c)) for c in self.certificates],
            "system": dict(self.system),
            "lfd_rationale": LFD_RATIONALE,
        }


INF = "+inf"
MACAULAY_CONSTANT = (
    "hypothesis fails: a constant is among the min(n, k) largest degrees; "
    "Lazard's bound needs forms of positive degree"
)
TRIVIAL = "regularity degree infinite; bound trivial"


def verify_bounds(
    F: PolySystem,
    order: TermOrder = GREVLEX,
    *,
    cap: int | None = None,
    trace=None,
) -> DegreeReport:
    """Compute d_reg, Gbd, sd, and Lfd, then certify every bound.

    `cap` bounds the solving-degree scan: it reads rungs 1..cap (default
    MAX_DEGREE; the climb's row cap comes first on a large input). No
    bound of the scan comes from d_reg, so the upper bounds below can
    fail, never skip, when sd exceeds them. A cap that is not an int (a
    bool is not one) or lies below 1 is a DomainError, raised before any
    work. `cap` does not bound the d_reg walk; the walk shares the
    closure's row cap (see degree_of_regularity), and past it d_reg is
    None, the hypothesis unknown (None) and every certificate that reads
    d_reg a `cap:` skip; Gbd, sd and Lfd are still computed. A cap that
    stops the sd scan likewise names itself in the skip of every
    certificate that needs sd or Lfd. Then, and only then, Buchberger
    (groebner.buchberger_reduced, checked) gives G and Gbd; a cap that
    stops it too is named for Gbd, sd and Lfd alike. The scan reads the
    rungs of one climb of F (_rungs): V(F, e) at e = 1..sd. Lfd, and the
    identity certificate when d_reg + 1 <= sd, read the rung dimensions of
    V(F, sd). Past sd the identity reads dim V(F, d_reg + 1) off G (proof
    below), so an untraced report climbs F no further than sd; only when a
    cap stopped the scan, leaving sd unknown, does the identity continue
    the climb to d_reg + 1 and compare. `trace` receives, for each
    closure the report reads, the lines v_space_closure(F, d, trace=trace)
    would write, as if built from scratch: V(F, d) at d = max(1, Gbd)..sd
    (or, after a capped scan, from max(1, Gbd) to the cap), written once
    G is known. A traced report with d_reg + 1 > sd also reads rung
    d_reg + 1, only to write that closure's block: the report does not
    depend on it, and a row cap hit there changes nothing but leaves the
    lines the climb wrote.

    G and sd come off the climb (_scan). At rung e, G_e is the set of
    fully reduced rows of V(F, e) at its minimal pivots, those that no
    other pivot divides. The scan accepts the first e at which every input
    of degree > e reduces to zero mod G_e and every S-pair of G_e of lcm
    degree > e passes the basis check (groebner._is_basis, low=e), and
    reports e as sd and G_e as G. Write I for the ideal of F and I_{<=e}
    for its elements of degree <= e. Four facts give the proof:
      - V(F, e) is closed under multiplication by variables up to degree
        e: for a row r at pivot m and deg(u*m) <= e, u*r lies in V(F, e)
        and leads with u*m. So its pivots are exactly the multiples of
        LM(G_e) of degree <= e. No term of V(F, e) lies above degree e, so
        a fully reduced tail, which holds no pivot, holds no multiple of
        LM(G_e): G_e is monic, minimal and reduced.
      - An element of V(F, e) reduces to zero mod G_e: each multiple of
        G_e its division subtracts lies in V(F, e) (the order is
        degree-compatible), so the remainder does too, and a nonzero one
        would lead with a pivot, a multiple of LM(G_e), which no term of a
        remainder is. That covers each S-pair of lcm degree <= e and each
        input of degree <= e, which the test leaves out.
      - When G lies in V(F, e), V(F, e) = I_{<=e}. V(F, e) holds every u*g
        of degree <= e; every f in I_{<=e} has a standard representation
        by G, a sum of multiples h*g with lm(h*g) <= lm(f) (Becker and
        Weispfenning, Groebner Bases, Thm 5.64), each of degree <= deg f
        <= e under a degree-compatible order, so f lies in V(F, e); and
        V(F, e) lies in I_{<=e} always.
      - The test passes iff G lies in V(F, e). If it passes, every S-pair
        of G_e reduces to zero (the second fact for the low ones), so G_e
        is a Groebner basis of the ideal it generates; that ideal lies in
        I and holds every input, so it is I, and G_e, reduced, is G, which
        thus lies in V(F, e). If G lies in V(F, e), the pivots of V(F, e)
        = I_{<=e} are the leading monomials of I up to degree e, which
        LM(G), all of degree <= e, minimally generate; the fully reduced
        row at LM(g) is g, since g minus that row lies in V(F, e) and
        holds no pivot. So G_e = G, a Groebner basis of I: the pairs pass
        and the inputs reduce to zero.
    So the first accepted rung is the first e >= 1 with G in V(F, e), sd
    itself (no e < Gbd holds G), and G_e is the reduced basis. The minimal
    pivots are kept as the climb goes (VSpaceBasis._minimal_pivots) from
    the pivots it records as candidates: an input's, and a product's whose
    lead is not the product's own lead pivot + x; any other pivot is a
    variable times a pivot. A rung is rejected at once when some input
    above e has a leading monomial that no minimal pivot divides.

    Past sd the dimension identity holds by proof: for d > sd, G lies in
    V(F, sd) and so in V(F, d), and the third fact gives V(F, d) =
    I_{<=d}. So dim V(F, d_reg + 1) is ideal_dim_le(G, d_reg + 1), the
    count the certificate compares it with; the same standard-
    representation argument gives the paper's sd <= d_reg + 1. The
    acceptance tests still build V(F, d_reg + 1) from scratch and
    compare, as an independent check.

    Certificates (in report order):
      sd_le_dreg_plus_1        sd <= d_reg + 1, needs max deg(F) <= d_reg
      gbd_le_dreg              Gbd <= d_reg
      sd_eq_max_lfd_gbd        sd == max(Lfd, Gbd)
      sd_generalized_bound     sd <= max(d_reg + 1, max deg(F))
      lfd_upper_bound          Lfd <= max(d_reg + 1, max deg(F))
      sd_macaulay_bound        sd <= d_1 + ... + d_m - m + 2 over the
                               m = min(n, k) largest input degrees, needs
                               finite d_reg (which forces k >= n unless F
                               has a constant member: k < n forms never fill
                               a degree slice) and those m degrees positive
      vspace_dim_identity      dim V(F, d_reg+1) == dim of ideal elements
                               of degree <= d_reg + 1, needs the hypothesis;
                               a cap skip when d_reg + 1 > MAX_DEGREE
    """
    last = _scan_cap(cap)
    ring = F.ring
    maxdeg = F.max_degree()
    cap_notes: dict[str, str] = {}
    try:
        d_reg = degree_of_regularity(F)
    except CapExceeded as exc:
        d_reg, cap_notes["d_reg"] = None, str(exc)
    finite = isinstance(d_reg, int)
    hypothesis = {  # None: unknown past the walk's cap
        "d_reg_finite": None if d_reg is None else finite,
        "max_deg_le_d_reg": None if d_reg is None else (maxdeg <= d_reg) if finite else True,
        "satisfied": finite and maxdeg <= d_reg,
    }

    G = gbd_v = sd = lfd = None
    ideal, dims = [], []
    at = _rungs(F, order, trace)  # the one climb of F; past sd only identity() reads it
    try:
        try:
            G, sd, lfd, ideal, dims = _scan(F, order, last, at)
        except CapExceeded:  # G is unknown, and so is Gbd, where the trace starts
            G = buchberger_reduced(F, order)
            for d in range(max(1, G.max_degree), last + 1):
                at(d)  # writes rung d's block; from the rung the row cap stopped on, raises it
            raise CapExceeded(f"solving degree exceeds cap {last}") from None
    except CapExceeded as exc:  # every value the capped phase leaves unknown names its cap
        cap_notes.update(dict.fromkeys(("gbd", "sd", "lfd") if G is None else ("sd", "lfd"),
                                       str(exc)))
    if G is not None:
        gbd_v = G.max_degree
    values = {"d_reg": d_reg, "gbd": gbd_v, "sd": sd, "lfd": lfd}

    def certify(cid, needs, bound, *, before=None, trivial=False, after=None, equal=False):
        """One certificate; the first rule that applies decides: a capped
        d_reg in `needs`, the `before` skip, another capped value in `needs`,
        the +inf pass of a `trivial` bound under an infinite d_reg, the
        `after` skip, else comparing the (lhs, rhs) that bound() returns."""

        def skipped(reason):
            return Certificate(cid, None, None, "skipped", reason)

        if d_reg is None and "d_reg" in needs:  # the other rules read d_reg
            return skipped(f"cap: {cap_notes['d_reg']}")
        if before:
            return skipped(before)
        for name in needs:
            if values[name] is None:
                return skipped(f"cap: {cap_notes[name]}")
        if trivial and not finite:
            return Certificate(cid, values[needs[0]], INF, "pass", TRIVIAL)
        if after:
            return skipped(after)
        try:
            lhs, rhs = bound()
        except CapExceeded as exc:
            return skipped(f"cap: {exc}")
        ok = lhs == rhs if equal else lhs <= rhs
        return Certificate(cid, lhs, rhs, "pass" if ok else "fail")

    def identity():
        d = d_reg + 1
        if d > MAX_DEGREE:
            raise CapExceeded(f"degree {d} exceeds the largest supported degree {MAX_DEGREE}")
        if d < len(dims):  # d <= sd: the scan's rungs hold dim V(F, d)
            return dims[d], ideal[d]
        if sd is None:  # the scan was capped: its climb goes on to rung d
            return at(d).dims[d], ideal_dim_le(G, d)
        if trace is not None:  # only to write V(F, d)'s trace block; its cap changes nothing
            with suppress(CapExceeded):
                at(d)
        n = ideal_dim_le(G, d)  # d > sd: V(F, d) = I_{<=d} (see the docstring)
        return n, n

    certs = [
        certify("sd_le_dreg_plus_1", ("sd", "d_reg"), lambda: (sd, d_reg + 1), trivial=True,
                after=None if hypothesis["max_deg_le_d_reg"]
                else f"hypothesis fails: max deg {maxdeg} > d_reg {d_reg}"),
        certify("gbd_le_dreg", ("gbd", "d_reg"), lambda: (gbd_v, d_reg), trivial=True),
        certify("sd_eq_max_lfd_gbd", ("sd", "lfd", "gbd"), lambda: (sd, max(lfd, gbd_v)),
                equal=True),
        certify("sd_generalized_bound", ("sd", "d_reg"), lambda: (sd, max(d_reg + 1, maxdeg)),
                trivial=True),
        certify("lfd_upper_bound", ("lfd", "d_reg"), lambda: (lfd, max(d_reg + 1, maxdeg)),
                trivial=True),
        certify("sd_macaulay_bound", ("sd", "d_reg"), lambda: (sd, _macaulay_bound(F)),
                before="regularity degree infinite" if not finite
                else None if min(_macaulay_degrees(F)) > 0 else MACAULAY_CONSTANT),
        certify("vspace_dim_identity", ("gbd", "d_reg"), identity, equal=True,
                before=None if hypothesis["satisfied"]
                else "hypothesis fails: needs finite d_reg and max deg <= d_reg"),
    ]

    system = {
        "p": ring.p,
        "vars": list(ring.names),
        "k": len(F),
        "degrees": list(F.degrees()),
        "max_deg": maxdeg,
    }
    return DegreeReport(
        d_reg=d_reg,
        gbd=gbd_v,
        sd=sd,
        lfd=lfd,
        order=order,
        hypothesis=hypothesis,
        certificates=certs,
        system=system,
    )
