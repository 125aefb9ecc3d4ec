"""Regularity, solving, and last fall degrees, with machine-checked
certificates for every bound that relates them.

All four invariants are exact integers (the regularity degree may be an
InfiniteDegree marker carrying the degree its scan stopped at, one past the
Macaulay bound). verify_bounds computes everything once: one scan over
shared closures gives sd and Lfd, and one rule turns each bound into a
certificate with lhs, rhs, and a pass/fail/skipped verdict. Resource caps
never produce wrong numbers: a capped computation turns the certificates
that need it into skips with a "cap:" reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import CapExceeded, DomainError
from .groebner import buchberger_reduced, ideal_dim_le
from .rings import GREVLEX, PolySystem, TermOrder
from .vspace import VSpaceBasis, degree_slice, v_space_closure

LFD_RATIONALE = (
    "falls cannot occur past the solving degree: once the reduced basis lies in "
    "the degree-e span, degree-compatible division keeps every reduction of a "
    "bounded ideal element inside degree e"
)


@dataclass(frozen=True)
class InfiniteDegree:
    """Marker for an infinite regularity degree; remembers the last degree
    scanned (one past the Macaulay bound)."""

    cap: int

    def __repr__(self):
        return f"+infinity(cap={self.cap})"


DegreeValue = Union[int, InfiniteDegree]


def _macaulay_bound(F: PolySystem) -> int:
    """d_1 + ... + d_m - m + 2 over the m = min(n, k) largest input degrees."""
    m = min(F.ring.nvars, len(F))
    degs = sorted(F.degrees(), reverse=True)[:m]
    return sum(degs) - m + 2


def degree_of_regularity(F: PolySystem) -> DegreeValue:
    """Smallest d at which the degree-d slice spanned by bounded multiples of
    the input top parts fills the whole degree-d space; InfiniteDegree(cap)
    when no d up to cap = Macaulay bound + 1 works."""
    cap = _macaulay_bound(F) + 1  # one degree of slack past the Macaulay bound
    n = F.ring.nvars
    tops = PolySystem(F.ring, [f.top() for f in F])
    for d in range(1, cap + 1):
        if degree_slice(tops, d, GREVLEX).span_dim() == math.comb(d + n - 1, d):
            return d
    return InfiniteDegree(cap)


def _scan(F, order, G, d_reg, cap, closures, trace=None) -> tuple[int, int]:
    """(sd, Lfd) from the closures V(F, d), kept in `closures` by degree.

    sd is the first d >= max(1, Gbd) whose span contains G; past `cap`
    (default: derived from d_reg) CapExceeded carries the scanned span
    dimensions. Lfd is one past the last e <= sd whose span is smaller than
    the ideal's elements of degree <= e. Only the sd scan's closures are
    traced.
    """
    if cap is None:
        if isinstance(d_reg, int):
            cap = max(d_reg + 1, F.max_degree())
        else:
            # no finite regularity degree: fall back to the Macaulay bound,
            # stretched to keep the scan non-empty
            cap = max(_macaulay_bound(F), G.max_degree)

    def closure(d, traced):
        if d not in closures:
            closures[d] = v_space_closure(F, d, order, trace=trace if traced else None)
        return closures[d]

    partial: dict[int, int] = {}
    for sd in range(max(1, G.max_degree), cap + 1):
        V = closure(sd, traced=True)
        partial[sd] = V.span_dim()
        if all(V.span_contains(g) for g in G.polys):
            break
    else:
        raise CapExceeded(f"solving degree exceeds cap {cap}", details={"partial_dims": partial})
    # V(F, e) lies in V(F, sd) for e <= sd, so these closures fit the row cap
    lfd = 1 + max(
        (e for e in range(1, sd + 1)
         if closure(e, traced=False).span_dim() < ideal_dim_le(G, e)),
        default=0,
    )
    return sd, lfd


def solving_degree(F: PolySystem, order: TermOrder = GREVLEX, cap: int | None = None) -> int:
    """Smallest d whose degree-d span contains the reduced Groebner basis."""
    G = buchberger_reduced(F, order)
    return _scan(F, order, G, degree_of_regularity(F), cap, {})[0]


def last_fall_degree(F: PolySystem, order: TermOrder = GREVLEX, cap: int | None = None) -> int:
    """Minimal d such that every ideal element f lies in the span at degree
    max(d, deg f). Computed by comparing span dimensions against the ideal's
    bounded dimensions for every degree up to the solving degree."""
    G = buchberger_reduced(F, order)
    return _scan(F, order, G, degree_of_regularity(F), cap, {})[1]


@dataclass
class Certificate:
    """One verified bound: lhs/rhs values and a pass/fail/skipped verdict."""

    id: str
    lhs: object
    rhs: object
    verdict: str  # "pass" | "fail" | "skipped"
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "reason": self.reason,
        }


@dataclass
class DegreeReport:
    """All computed invariants for one system plus the bound certificates."""

    d_reg: DegreeValue
    gbd: int | None
    sd: int | None
    lfd: int | None
    order: TermOrder
    hypothesis: dict[str, bool]
    certificates: list[Certificate]
    system: dict
    lfd_rationale: str = LFD_RATIONALE

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
        d_reg = (
            self.d_reg
            if isinstance(self.d_reg, int)
            else {"infinite": True, "cap": self.d_reg.cap}
        )
        return {
            "d_reg": d_reg,
            "gbd": self.gbd,
            "sd": self.sd,
            "lfd": self.lfd,
            "order": self.order.kind,
            "hypothesis": dict(self.hypothesis),
            "certificates": [c.to_json() for c in self.certificates],
            "system": dict(self.system),
            "lfd_rationale": self.lfd_rationale,
        }


INF = "+inf"
TRIVIAL = "regularity degree infinite; bound trivial"


def verify_bounds(
    F: PolySystem,
    order: TermOrder = GREVLEX,
    *,
    cap: int | None = None,
    trace=None,
) -> DegreeReport:
    """Compute d_reg, Gbd, sd, and Lfd, then certify every bound.

    `cap` bounds the solving-degree scan (default: max(d_reg + 1, max
    deg(F))); a cap below 1 is a DomainError. d_reg is always scanned up to
    one past the Macaulay bound. `trace` receives the lines of the sd-scan
    and identity closures (see v_space_closure).

    Certificates (in report order):
      sd_le_dreg_plus_1        sd <= d_reg + 1, needs max deg(F) <= d_reg
      gbd_le_dreg              Gbd <= d_reg
      sd_eq_max_lfd_gbd        sd == max(Lfd, Gbd)
      sd_generalized_bound     sd <= max(d_reg + 1, max deg(F))
      lfd_upper_bound          Lfd <= max(d_reg + 1, max deg(F))
      sd_macaulay_bound        sd <= d_1 + ... + d_n - n + 2 over the n largest
                               input degrees, needs finite d_reg (which
                               already forces k >= n: k < n top parts never
                               fill a degree slice)
      vspace_dim_identity      dim V(F, d_reg+1) == dim of ideal elements
                               of degree <= d_reg + 1, needs the hypothesis
    """
    if cap is not None and cap < 1:
        raise DomainError(f"cap must be at least 1, got {cap}")
    ring = F.ring
    maxdeg = F.max_degree()
    d_reg = degree_of_regularity(F)
    finite = isinstance(d_reg, int)
    hypothesis = {
        "d_reg_finite": finite,
        "max_deg_le_d_reg": (maxdeg <= d_reg) if finite else True,
        "satisfied": finite and maxdeg <= d_reg,
    }

    closures: dict[int, VSpaceBasis] = {}
    G = gbd_v = sd = lfd = None
    cap_notes: dict[str, str] = {}
    try:
        G = buchberger_reduced(F, order)
        gbd_v = G.max_degree
        sd, lfd = _scan(F, order, G, d_reg, cap, closures, trace)
    except CapExceeded as exc:
        cap_notes["gbd" if G is None else "sd"] = str(exc)
    values = {"gbd": gbd_v, "sd": sd, "lfd": lfd}

    def certify(cid, needs, bound, *, before=None, trivial=False, after=None, equal=False):
        """One certificate; the first rule that applies decides: the `before`
        skip, a capped value in `needs`, the +inf pass of a `trivial` bound
        under an infinite d_reg, the `after` skip, else comparing the
        (lhs, rhs) that bound() returns."""

        def skipped(reason):
            return Certificate(cid, None, None, "skipped", reason)

        if before:
            return skipped(before)
        for name in needs:
            if values[name] is None:
                return skipped(f"cap: {cap_notes.get(name, f'{name} unavailable')}")
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
        V = closures[d] if d in closures else v_space_closure(F, d, order, trace=trace)
        return V.span_dim(), ideal_dim_le(G, d)

    certs = [
        certify("sd_le_dreg_plus_1", ("sd",), lambda: (sd, d_reg + 1), trivial=True,
                after=None if hypothesis["max_deg_le_d_reg"]
                else f"hypothesis fails: max deg {maxdeg} > d_reg {d_reg}"),
        certify("gbd_le_dreg", ("gbd",), lambda: (gbd_v, d_reg), trivial=True),
        certify("sd_eq_max_lfd_gbd", ("sd", "lfd", "gbd"), lambda: (sd, max(lfd, gbd_v)),
                equal=True),
        certify("sd_generalized_bound", ("sd",), lambda: (sd, max(d_reg + 1, maxdeg)),
                trivial=True),
        certify("lfd_upper_bound", ("lfd",), lambda: (lfd, max(d_reg + 1, maxdeg)),
                trivial=True),
        certify("sd_macaulay_bound", ("sd",), lambda: (sd, _macaulay_bound(F)),
                before=None if finite else "regularity degree infinite"),
        certify("vspace_dim_identity", ("gbd",), identity, equal=True,
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
