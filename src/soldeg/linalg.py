"""Exact reduced echelon bases over GF(p), with monomial-indexed columns.

A RowBasis is kept fully reduced at all times: each pivot monomial occurs in
exactly one row (with coefficient 1) and in no other row's tail. Because
tails can therefore never reintroduce a pivot, fully reducing an incoming
polynomial is a single pass over the pivots it touches, in any order.
Columns are packed monomials (see rings.Packing) under the basis's order.
"""

from __future__ import annotations

import bisect

from .errors import DimensionError
from .rings import GREVLEX, Polynomial, Ring, TermOrder


class RowBasis:
    """Canonical reduced echelon basis of a span of polynomials.

    Single-writer: mutate the rows through insert_reduce only. Reads
    (reduce, span_contains, rows, span_dim) leave the rows unchanged, but
    reduce and span_contains add to mult_count, so concurrent readers race
    on that counter. The final row set depends only on the span, not on
    insertion order.

    Rows are held as pivot -> tail maps, the pivots also in an ascending
    list. A tail lies below its pivot, so when a new row is adopted only the
    rows with larger pivots can hold the new pivot; back-reduction scans
    those alone, from the new pivot's bisect position.
    """

    __slots__ = ("ring", "order", "_pack", "_pivots", "_tails", "mult_count")

    def __init__(self, ring: Ring, order: TermOrder = GREVLEX):
        self.ring = ring
        self.order = order
        self._pack = ring.packing(order)
        self._pivots: list[int] = []  # ascending
        self._tails: dict[int, dict[int, int]] = {}  # pivot coefficient implicitly 1
        self.mult_count = 0  # field multiplications performed so far

    def _encode(self, f: Polynomial) -> dict[int, int]:
        """A fresh copy of f's terms, keyed under this basis's packing."""
        if f.ring != self.ring:
            raise DimensionError(
                f"polynomial ring {f.ring!r} differs from basis ring {self.ring!r}"
            )
        return dict(f._packed(self._pack))

    def _reduce_terms(self, work: dict[int, int]) -> dict[int, int]:
        """Eliminate every pivot monomial from `work` in place."""
        tails = self._tails
        hits = work.keys() & tails.keys()
        if not hits:
            return work
        p = self.ring.p
        for pm in hits:
            c = work.pop(pm)
            tail = tails[pm]
            self.mult_count += len(tail)
            for m, rc in tail.items():
                v = (work.get(m, 0) - c * rc) % p
                if v:
                    work[m] = v
                else:
                    del work[m]
        return work

    def _insert(self, work: dict[int, int]) -> dict[int, int]:
        """insert_reduce on packed terms, which it consumes: the monic
        residual as a new map, empty when `work` lay in the span."""
        work = self._reduce_terms(work)
        if not work:
            return work
        p = self.ring.p
        pivot = max(work)
        c = work.pop(pivot)
        if c != 1:
            inv = pow(c, -1, p)
            self.mult_count += len(work)
            work = {m: v * inv % p for m, v in work.items()}
        pivots, tails = self._pivots, self._tails
        at = bisect.bisect(pivots, pivot)
        for pm in pivots[at:]:
            tail = tails[pm]
            rc = tail.pop(pivot, None)
            if rc is None:
                continue
            self.mult_count += len(work)
            for m, nc in work.items():
                v = (tail.get(m, 0) - rc * nc) % p
                if v:
                    tail[m] = v
                else:
                    del tail[m]
        pivots.insert(at, pivot)
        tails[pivot] = work
        residual = dict(work)
        residual[pivot] = 1
        return residual

    def reduce(self, f: Polynomial) -> Polynomial:
        """Full reduction of f against the basis; the basis is unchanged."""
        return Polynomial._from_packed(self.ring, self._pack, self._reduce_terms(self._encode(f)))

    def insert_reduce(self, f: Polynomial) -> Polynomial:
        """Reduce f fully, then adopt the residual as a new monic row.

        Returns the monic residual (zero if f was already in the span). On
        adoption, the stored rows are back-reduced against the new row, so
        the basis stays canonically reduced.
        """
        return Polynomial._from_packed(self.ring, self._pack, self._insert(self._encode(f)))

    def span_contains(self, f: Polynomial) -> bool:
        return not self._reduce_terms(self._encode(f))

    def _contains(self, terms: dict[int, int]) -> bool:
        """span_contains on terms keyed under this basis's packing, which it
        leaves unchanged."""
        return not self._reduce_terms(dict(terms))

    def span_dim(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(self._pack.decode, self._pivots))

    def _rows(self) -> list[dict[int, int]]:
        """Rows as packed term maps (pivot included), by descending pivot."""
        out = []
        for pm in reversed(self._pivots):
            terms = dict(self._tails[pm])
            terms[pm] = 1
            out.append(terms)
        return out

    @property
    def rows(self) -> list[Polynomial]:
        """Rows as polynomials, sorted by descending pivot."""
        return [Polynomial._from_packed(self.ring, self._pack, t) for t in self._rows()]

    def __repr__(self):
        return f"RowBasis(dim={len(self._pivots)}, order={self.order.kind})"
