"""Ground truth for ideal computations: Buchberger with full reduction,
normal forms, bounded ideal dimension counts, and `mutantxl_gb`, which reads
the reduced basis off the closure V(F, d_reg + 1) and must reproduce the
Buchberger output exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import CapExceeded, DomainError, InconsistencyError, PreconditionError
from .rings import GREVLEX, Packing, Polynomial, PolySystem, TermOrder
from .vspace import VSpaceBasis, v_space_closure

DEFAULT_MAX_PAIRS = 200_000


@dataclass(frozen=True)
class GroebnerBasis:
    """The unique reduced Groebner basis of an ideal: monic elements,
    pairwise non-dividing leading terms, fully inter-reduced, sorted by
    descending leading monomial."""

    polys: tuple[Polynomial, ...]
    order: TermOrder

    @property
    def max_degree(self) -> int:
        return max(g._degree for g in self.polys)

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0]._degree == 0

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]


# Inside this module a monic polynomial is a pair (leading monomial, terms),
# both packed under the order's packing (see rings.Packing).


def _monic(terms: dict[int, int], p: int) -> tuple[int, dict[int, int]]:
    lead = max(terms)
    lc = terms[lead]
    if lc != 1:
        inv = pow(lc, -1, p)
        terms = {m: c * inv % p for m, c in terms.items()}
    return lead, terms


def _nf(terms: dict[int, int], divisors, pack: Packing, p: int) -> dict[int, int]:
    """Full multivariate division remainder of `terms` by monic divisors.

    No term of the result is divisible by any divisor's leading monomial;
    the degree never grows because the order is degree-compatible.
    """
    s, g = pack.sign, pack.guard
    # lm divides m iff (s*m + g - s*lm) keeps every guard bit (Packing.divides)
    divs = [(g - s * lm, lm, t) for lm, t in divisors]
    work = dict(terms)
    rem: dict[int, int] = {}
    while work:
        m = max(work)
        c = work.pop(m)
        sm = s * m
        for glm, lm, t in divs:
            if (sm + glm) & g == g:
                q = m - lm
                for mm, cc in t.items():
                    if mm == lm:
                        continue
                    qm = mm + q
                    v = (work.get(qm, 0) - c * cc) % p
                    if v:
                        work[qm] = v
                    else:
                        del work[qm]
                break
        else:
            rem[m] = c
    return rem


def _spoly(f, g, pack: Packing, p: int) -> dict[int, int]:
    (lf, tf), (lg, tg) = f, g
    l = pack.lcm(lf, lg)
    pack.check(pack.degree(l))  # the S-polynomial has degree deg(l)
    qf, qg = l - lf, l - lg
    res = {m + qf: c for m, c in tf.items()}
    for m, c in tg.items():
        m += qg
        v = (res.get(m, 0) - c) % p
        if v:
            res[m] = v
        else:
            del res[m]
    return res


def _minimalize(polys: list, pack: Packing) -> list:
    """Keep only polynomials whose leading monomial no other kept one divides."""
    kept: list = []
    for f in sorted(polys, key=lambda f: f[0]):
        if not any(pack.divides(l, f[0]) for l, _ in kept):
            kept.append(f)
    return kept


def _interreduce(polys: list, pack: Packing, p: int) -> list:
    """Tail-reduce each monic element against the others, in place.

    Assumes pairwise non-dividing leading monomials in ascending order (as
    _minimalize leaves them). A tail term of element i lies below lm_i, so
    no later element's leading monomial, which lies above lm_i, divides it:
    reducing against the earlier elements alone is enough, and they are
    already final. None of their leading monomials divides lm_i, so the
    leading term survives with coefficient 1 and the element stays monic.
    """
    for i in range(len(polys)):
        polys[i] = (polys[i][0], _nf(polys[i][1], polys[:i], pack, p))
    return polys


def _reduced_basis(ring, polys: list, order: TermOrder, check: bool = False) -> GroebnerBasis:
    """The reduced basis of a Groebner basis given as monic pairs, sorted by
    descending leading monomial; with check=True the Buchberger criterion
    is re-verified on it.

    The check skips pairs with coprime leading monomials. Their
    S-polynomials reduce to zero by Buchberger's first (product) criterion,
    so the basis is a Groebner basis iff every other S-polynomial leaves
    remainder zero, and the pruned check rejects exactly when the full one
    does (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    Ch. 2 §10, Thm 9).
    """
    pack, p = ring.packing(order), ring.p
    reduced = _interreduce(_minimalize(polys, pack), pack, p)
    reduced.sort(key=lambda f: f[0], reverse=True)
    if check:
        for i, (li, _) in enumerate(reduced):
            for j in range(i + 1, len(reduced)):
                lj = reduced[j][0]
                if pack.lcm(li, lj) == li + lj:
                    continue  # coprime leading monomials: product criterion
                if _nf(_spoly(reduced[i], reduced[j], pack, p), reduced, pack, p):
                    raise InconsistencyError("S-polynomial does not reduce to zero")
    polys = tuple(Polynomial._from_packed(ring, pack, t) for _, t in reduced)
    return GroebnerBasis(polys, order)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by a reduced basis; zero iff f is in the ideal."""
    ring = f.ring
    pack = ring.packing(G.order)
    divisors = [(max(t), t) for t in (g._packed(pack) for g in G.polys)]
    return Polynomial._from_packed(ring, pack, _nf(f._packed(pack), divisors, pack, ring.p))


def _unit_basis(ring, order: TermOrder) -> GroebnerBasis:
    return GroebnerBasis((ring.one(),), order)


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
    polys = [f for f in polys if not f.is_zero]
    if not polys:
        raise DomainError("cannot take a basis of all-zero generators")
    if any(f._degree == 0 for f in polys):
        return _unit_basis(ring, order)

    pack, p = ring.packing(order), ring.p
    G = [_monic(f._packed(pack), p) for f in polys]
    heap: list = []

    def push_pairs(upto: int, j: int):
        lj = G[j][0]
        for i in range(upto):
            li = G[i][0]
            l = pack.lcm(li, lj)
            if l == li + lj:
                continue  # coprime leading monomials: S-pair reduces to zero
            heapq.heappush(heap, (l, i, j))  # packed order: lcm degree first

    for j in range(1, len(G)):
        push_pairs(j, j)

    pops = 0
    while heap:
        pops += 1
        if pops > max_pairs:
            raise CapExceeded(
                f"Buchberger exceeded {max_pairs} S-pairs", details={"basis_size": len(G)}
            )
        _, i, j = heapq.heappop(heap)
        r = _nf(_spoly(G[i], G[j], pack, p), G, pack, p)
        if not r:
            continue
        if pack.degree(max(r)) == 0:
            return _unit_basis(ring, order)
        G.append(_monic(r, p))
        push_pairs(len(G) - 1, len(G) - 1)

    return _reduced_basis(ring, G, order, check)


def gbd(F, order: TermOrder = GREVLEX) -> int:
    """Maximum degree appearing in the reduced Groebner basis."""
    return buchberger_reduced(F, order).max_degree


def ideal_dims(G: GroebnerBasis, e: int) -> list[int]:
    """[ideal_dim_le(G, d) for d in range(e + 1)], from one pass over the
    packed monomials of degree <= e, each tested against the leading
    monomials of at most its degree."""
    pack = G.polys[0].ring.packing(G.order)
    s, g = pack.sign, pack.guard
    lms = [f._lead(G.order)[1] for f in G.polys]
    dims, count = [], 0
    for d in range(e + 1):
        # lm divides m iff (s*m + g - s*lm) keeps every guard bit
        glms = [g - s * lm for lm in lms if pack.degree(lm) <= d]
        for m in pack.monomials(d) if glms else ():
            sm = s * m
            for glm in glms:
                if (sm + glm) & g == g:
                    count += 1
                    break
        dims.append(count)
    return dims


def ideal_dim_le(G: GroebnerBasis, e: int) -> int:
    """Number of monomials of degree <= e divisible by some leading monomial.

    For a degree-compatible order this equals the dimension of the space of
    ideal elements of degree <= e.
    """
    return ideal_dims(G, e)[-1] if e >= 0 else 0


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
    return _reduced_basis(F.ring, V.basis._rows(), order), V
