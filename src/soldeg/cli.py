"""Command line front end.

Subcommands: analyze, verify-bounds, gen fk|random, oracle-diff, sweep.
Exit codes: 0 all certificates pass, 1 any certificate fails (or the basis
read off the climb of F disagrees with Buchberger's), 2 usage or parse
errors, 3 a resource cap was exceeded before an answer was reached. The
caps are the library's constants (the closure's row cap, Buchberger's
pair cap, MAX_DEGREE); no flag sets one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import AlgebraError, CapExceeded, DomainError, GenerationError, ParseError
from .groebner import buchberger_reduced
from .harness import RandomSpec, SystemFile, gen_fk, gen_random, parse_system, render_system
from .invariants import DegreeReport, InfiniteDegree, _rungs, _scan, verify_bounds
from .rings import GREVLEX, MAX_DEGREE, TermOrder


def _read_text(path: str) -> str:
    """The UTF-8 text of a system file, or of stdin for '-'. An invalid byte
    is a ParseError at its line and column."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before it decode; lines split as the parser splits them
        lines = (data[: exc.start].decode("utf-8") + "\0").splitlines()
        msg = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise ParseError(msg, len(lines), len(lines[-1])) from None


def _order_from(args, sf: SystemFile) -> TermOrder:
    return TermOrder(args.order) if args.order else sf.order


def _report_exit_code(report: DegreeReport) -> int:
    if not report.all_pass:
        return 1
    if report.any_capped:
        return 3
    return 0


def _print_report_text(report: DegreeReport):
    info = report.system
    print(f"system: p={info['p']} vars={','.join(info['vars'])} k={info['k']} degrees={info['degrees']}")
    print(f"order: {report.order.kind}")
    d_reg = report.d_reg
    if isinstance(d_reg, InfiniteDegree):
        d_reg = f"infinite (cap {d_reg.cap})"
    print(f"d_reg: {d_reg}")
    print(f"gbd: {report.gbd}")
    print(f"sd: {report.sd}")
    print(f"lfd: {report.lfd}")
    hyp = {k: "unknown" if v is None else "yes" if v else "no"  # unknown past the walk's cap
           for k, v in report.hypothesis.items()}
    print(f"hypothesis: d_reg finite={hyp['d_reg_finite']}, "
          f"max deg <= d_reg={hyp['max_deg_le_d_reg']}")
    _print_certificates(report)


def _print_certificates(report: DegreeReport):
    print("certificates:")
    for c in report.certificates:
        line = f"  {c.verdict:7s} {c.id:24s}"
        if c.verdict != "skipped":
            line += f" lhs={c.lhs} rhs={c.rhs}"
        if c.reason:
            line += f" ({c.reason})"
        print(line)


def _analyze_common(args) -> int:
    sf = parse_system(_read_text(args.file))
    order = _order_from(args, sf)
    trace = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        report = verify_bounds(sf.system, order, trace=trace)
    finally:
        if trace is not None:
            trace.close()
    if args.json:
        doc = report.to_json()
        if args.certificates_only:
            doc = {"order": doc["order"], "certificates": doc["certificates"]}
        print(json.dumps(doc, indent=2))
    elif args.certificates_only:
        _print_certificates(report)
    else:
        _print_report_text(report)
    return _report_exit_code(report)


def _cmd_gen(args) -> int:
    order = TermOrder(args.order) if args.order else GREVLEX
    if args.kind == "fk":
        system = gen_fk(args.k, args.p)
    else:
        bounds = tuple(args.deg_bound)
        if len(bounds) == 1:
            bounds = bounds * args.k
        spec = RandomSpec(
            seed=args.seed,
            n=args.n,
            k=args.k,
            deg_bounds=bounds,
            density=args.density,
            p=args.p,
            require_hypothesis=args.require_hypothesis,
            retry_limit=args.retry_limit,
        )
        system = gen_random(spec)
    sys.stdout.write(render_system(SystemFile(system.ring, order, system)))
    return 0


def _cmd_oracle_diff(args) -> int:
    sf = parse_system(_read_text(args.file))
    order = _order_from(args, sf)
    at = _rungs(sf.system, order)  # the climb of F that a report reads G and sd off
    G, sd, _, _ = _scan(sf.system, order, at)
    stats = at(sd).stats  # the climb's counters through rung sd
    reference = buchberger_reduced(sf.system, order)
    same = G.polys == reference.polys
    n = sf.system.ring.nvars
    print(f"scan of the climb:  {[g.render(order) for g in G]}")
    print(f"buchberger:         {[g.render(order) for g in reference]}")
    print(
        f"stats: bound={sd} N={math.comb(n + sd, n)} insertions={stats.insertions} "
        f"adoptions={stats.adoptions} field_mults={stats.field_mults}"
    )
    print("agreement: " + ("yes" if same else "NO"))
    return 0 if same else 1


def _cmd_sweep(args) -> int:
    if args.start < 2 or args.stop < args.start:
        raise DomainError("need 2 <= --from <= --to")
    if args.stop > MAX_DEGREE:  # refused before the first report
        raise DomainError(f"--to is above the largest supported degree {MAX_DEGREE}")
    order = TermOrder(args.order or "grevlex")
    rows, codes = [], set()
    for k in range(args.start, args.stop + 1):
        report = verify_bounds(gen_fk(k, args.p), order)
        codes.add(_report_exit_code(report))
        row = {**report.to_json(), "k": k}
        rows.append(row)
        if args.json:
            continue
        if k == args.start:  # after the first report, so an input refused there prints nothing
            print("k   d_reg  gbd  sd  lfd  certificates")
        verdicts = [c["verdict"] for c in row["certificates"]]
        summary = f"{verdicts.count('pass')} pass, {verdicts.count('fail')} fail, {verdicts.count('skipped')} skipped"
        print(f"{row['k']:<3d} {row['d_reg']!s:6s} {row['gbd']!s:4s} {row['sd']!s:3s} "
              f"{row['lfd']!s:4s} {summary}", flush=True)  # each row as its report finishes
    if args.json:
        print(json.dumps(rows, indent=2))
    return 1 if 1 in codes else 3 if 3 in codes else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soldeg",
        description="Solving-degree analysis of polynomial systems over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analyze(name, summary, certificates_only):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=_analyze_common, certificates_only=certificates_only)
        p.add_argument("file", help="system file path, or '-' for stdin")
        p.add_argument("--order", choices=TermOrder.KINDS, help="override the file's term order")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--trace", default=None, help="write closure adoption trace to this path")

    add_analyze("analyze", "full invariant report with certificates", False)
    add_analyze("verify-bounds", "certificates only", True)

    gen = sub.add_parser("gen", help="emit a system file")
    gen.set_defaults(run=_cmd_gen)
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    fk = gen_sub.add_parser("fk", help="the optimal family {x^k+y, y^k+x, x*y}")
    fk.add_argument("--k", type=int, required=True)
    fk.add_argument("--p", type=int, default=101)
    fk.add_argument("--order", choices=TermOrder.KINDS, default=None)
    rnd = gen_sub.add_parser("random", help="seeded random system")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--k", type=int, required=True)
    rnd.add_argument("--deg-bound", type=int, nargs="+", required=True)
    rnd.add_argument("--density", type=float, default=1.0)
    rnd.add_argument("--p", type=int, default=101)
    rnd.add_argument("--require-hypothesis", action="store_true")
    rnd.add_argument("--retry-limit", type=int, default=200)
    rnd.add_argument("--order", choices=TermOrder.KINDS, default=None)

    diff = sub.add_parser("oracle-diff", help="compare the scan's Groebner basis with Buchberger's")
    diff.set_defaults(run=_cmd_oracle_diff)
    diff.add_argument("file")
    diff.add_argument("--order", choices=TermOrder.KINDS, default=None)

    sweep = sub.add_parser("sweep", help="regression table over a family")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("kind", choices=["fk"])
    sweep.add_argument("--from", dest="start", type=int, default=2)
    sweep.add_argument("--to", dest="stop", type=int, default=6)
    sweep.add_argument("--p", type=int, default=101)
    sweep.add_argument("--order", choices=TermOrder.KINDS, default=None)
    sweep.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DomainError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
