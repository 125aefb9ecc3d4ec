"""Workload pools for the soldeg benchmark: seeded recipes, set-up, checks.

Every pool is a fixed list of slots. The workload seed draws only what does
not change the amount of work much (the prime, the random systems of a
fixed shape), so that run-to-run figures stay comparable across seeds. A
slot whose answers vary with the draw holds one fixed system instead.
Each slot keeps its term order fixed for the same reason: the same dense
system can cost 30x more under grlex than under grevlex.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Primes a seed may draw for the fk family. 2^31 - 1 is the largest modulus
# the library accepts; a fixed-width kernel would overflow.
PRIMES = (101, 32003, 65521, 2147483647)

# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = ("fk-ladder", "dense-quadrics")


@dataclass(frozen=True)
class Recipe:
    """How to make one pool system: `family` is fk or random."""

    name: str
    family: str
    arg: object  # (k, p) for fk, RandomSpec kwargs for random
    order: str
    closed: tuple | None  # closed-form (d_reg, gbd, sd, lfd), see check_report


@dataclass
class Item:
    recipe: Recipe
    sf: object  # soldeg SystemFile, parsed from the rendered system text


def recipes(workload: str, seed: int) -> list[Recipe]:
    """The workload's pool for `seed`; the same seed gives the same pool."""
    rng = random.Random(f"{workload}/{seed}")

    def fk(k):
        # With two variables grevlex and grlex give the same answers, but a
        # grevlex report costs about 15% more, so each slot keeps one order.
        # fk has almost no field arithmetic, so the prime barely moves its cost.
        order = "grevlex" if k % 4 == 0 else "grlex"
        return Recipe(f"fk{k}", "fk", (k, rng.choice(PRIMES)), order, (k, 1, k + 1, k + 1))

    def dense(name, order, n, degs, p=101, density=1.0, seed=None):
        if seed is None:
            seed = rng.randrange(2**31)
        spec = dict(seed=seed, n=n, k=len(degs), deg_bounds=degs, density=density, p=p)
        return Recipe(name, "random", spec, order, None)

    if workload == "fk-ladder":
        return [fk(k) for k in range(4, 21, 2)]
    if workload == "dense-quadrics":
        return [
            dense("n3-mixed-3-3-2", "grlex", 3, (3, 3, 2)),
            dense("n3-quadrics-p2^31-1", "grlex", 3, (2,) * 3, p=2147483647),
            dense("n3-mixed-3-2-2", "grevlex", 3, (3, 2, 2)),
            dense("n3-k4-cubics-overdetermined", "grlex", 3, (3,) * 4),
            dense("n4-k5-quadrics-p2^31-1", "grlex", 4, (2,) * 5, p=2147483647),
            dense("n4-k3-underdetermined", "grevlex", 4, (2,) * 3),
            # over GF(2) the answers vary from draw to draw (finite or infinite
            # d_reg, Gbd 0 to 7), so this slot is one fixed system: infinite
            # d_reg, Gbd 7, two skipped certificates. Its cost (about 0.5 s)
            # puts two systems above the three 0.2-s ones and two below, so
            # that op_p50_ref_s falls in the middle of their samples
            dense("n4-quadrics-p2", "grevlex", 4, (2,) * 3, p=2, density=0.4, seed=3),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(sl, recipe: Recipe, span=lambda name: nullcontext()) -> Item:
    """Generate the system, render it as a system file and parse it back,
    the way `soldeg gen ... > f; soldeg analyze f` would."""
    with span("harness.gen"):
        if recipe.family == "fk":
            F = sl.gen_fk(*recipe.arg)
        else:
            F = sl.gen_random(sl.RandomSpec(**recipe.arg))
    text = sl.render_system(sl.SystemFile(F.ring, sl.TermOrder(recipe.order), F))
    with span("harness.parse"):
        return Item(recipe, sl.parse_system(text))


def load_expected(workload: str, seed: int) -> list[str] | None:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


# --- the op and its checks -------------------------------------------------


def report_op(sl, item: Item) -> str:
    """One certified report, as `soldeg analyze --json` produces it."""
    sf = item.sf
    return sl.render_report(sl.verify_bounds(sf.system, sf.order))


def report_summary(doc: dict) -> str:
    d_reg = "inf" if isinstance(doc["d_reg"], dict) else doc["d_reg"]
    verdicts = "".join(c["verdict"][0] for c in doc["certificates"])
    return f"{d_reg} {doc['gbd']} {doc['sd']} {doc['lfd']} {verdicts}"


def check_report(doc: dict, recipe: Recipe, expected: str | None) -> str | None:
    """Why the report is wrong, or None when it is right."""
    for c in doc["certificates"]:
        if c["verdict"] == "fail":
            return f"certificate {c['id']} failed"
        if c["verdict"] == "skipped" and (c["reason"] or "").startswith("cap"):
            return f"certificate {c['id']} hit a cap: {c['reason']}"
    gbd, sd, lfd = doc["gbd"], doc["sd"], doc["lfd"]
    if None in (gbd, sd, lfd):
        return "an invariant is missing"
    if sd != max(lfd, gbd):
        return f"sd {sd} != max(lfd {lfd}, gbd {gbd})"
    if recipe.closed is not None and (doc["d_reg"], gbd, sd, lfd) != recipe.closed:
        got = (doc["d_reg"], gbd, sd, lfd)
        return f"(d_reg, gbd, sd, lfd) = {got}, closed form {recipe.closed}"
    if expected is not None and report_summary(doc) != expected:
        return f"report {report_summary(doc)!r}, expected {expected!r}"
    return None
