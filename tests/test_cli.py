import io
import itertools
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import cli
from soldeg.cli import main
from soldeg import gen_fk, render_system, PolySystem, SystemFile, GREVLEX, InconsistencyError


@pytest.fixture
def fk_file(tmp_path):
    F = gen_fk(2, 101)
    path = tmp_path / "f2.txt"
    path.write_text(render_system(SystemFile(F.ring, GREVLEX, F)))
    return str(path)


def test_analyze_json(fk_file, capsys):
    assert main(["analyze", fk_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sd"] == 3 and doc["d_reg"] == 2 and doc["order"] == "grevlex"
    assert all(c["verdict"] == "pass" for c in doc["certificates"])


def test_analyze_text_output(fk_file, capsys):
    assert main(["analyze", fk_file]) == 0
    out = capsys.readouterr().out
    assert "d_reg: 2" in out and "sd: 3" in out and "certificates:" in out


def test_analyze_order_override(fk_file, capsys):
    assert main(["analyze", fk_file, "--order", "grlex", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == "grlex"


def test_verify_bounds_json(fk_file, capsys):
    assert main(["verify-bounds", fk_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"order", "certificates"}
    assert len(doc["certificates"]) == 7


def test_verify_bounds_text(fk_file, capsys):
    assert main(["verify-bounds", fk_file]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "certificates:",
        "  pass    sd_le_dreg_plus_1        lhs=3 rhs=3",
        "  pass    gbd_le_dreg              lhs=1 rhs=2",
        "  pass    sd_eq_max_lfd_gbd        lhs=3 rhs=3",
        "  pass    sd_generalized_bound     lhs=3 rhs=3",
        "  pass    lfd_upper_bound          lhs=3 rhs=3",
        "  pass    sd_macaulay_bound        lhs=3 rhs=4",
        "  pass    vspace_dim_identity      lhs=9 rhs=9",
    ]


def test_gen_fk_roundtrips_through_analyze(tmp_path, capsys):
    assert main(["gen", "fk", "--k", "3", "--p", "101"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "f3.txt"
    path.write_text(text)
    assert main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_reg"] == 3 and doc["sd"] == 4


def test_gen_random_deterministic(capsys):
    args = ["gen", "random", "--seed", "5", "--n", "2", "--k", "3",
            "--deg-bound", "2", "--density", "0.8", "--p", "101"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_gen_random_impossible_constraint(capsys):
    args = ["gen", "random", "--seed", "1", "--n", "2", "--k", "1",
            "--deg-bound", "2", "--require-hypothesis", "--retry-limit", "0"]
    assert main(args) == 2
    assert "error" in capsys.readouterr().err


def test_gen_random_refuses_oversized_spec(capsys):
    args = ["gen", "random", "--seed", "1", "--n", "16", "--k", "1", "--deg-bound", "20"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "candidate monomials" in err


def test_gen_random_refuses_a_density_that_would_redraw_without_end(capsys):
    args = ["gen", "random", "--seed", "1", "--n", "1", "--k", "1", "--deg-bound", "1",
            "--density", "1e-300"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: density 1e-300 is too small") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "17", "-3"])
def test_gen_random_refuses_a_bad_variable_count(n, capsys):
    assert main(["gen", "random", "--seed", "1", "--n", n, "--k", "1", "--deg-bound", "2"]) == 2
    assert capsys.readouterr().err == f"error: need 1..16 variables, got {n}\n"


SEVENTEEN = ",".join(f"x{i}" for i in range(17))


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("p=101\nvars=x,x\nx", "line 2, column 1", "duplicate variable names in ('x', 'x')"),
        ("p=101; vars=x, 2y; x", "line 1, column 8", "bad variable name '2y'"),
        (f"p=101;\n  vars={SEVENTEEN}; x0", "line 2, column 3", "need 1..16 variables, got 17"),
    ],
    ids=["duplicate", "bad-name", "too-many"],
)
def test_variable_list_errors_point_at_the_list(text, where, message, tmp_path, capsys):
    path = tmp_path / "vars.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p=4; vars=x; x")
    assert main(["analyze", str(path)]) == 2
    assert "not prime" in capsys.readouterr().err


def _stdin(monkeypatch, data: bytes):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_is_a_parse_error(source, tmp_path, monkeypatch, capsys):
    # valid multi-byte characters before the bad byte count as one column each
    data = "p=101; vars=x,y;\n# r\u00e9sum\u00e9\nx^2+y; \u00b5".encode() + b"\xff; x*y\n"
    path = tmp_path / "latin.txt"
    path.write_bytes(data)
    _stdin(monkeypatch, data)
    assert main(["analyze", str(path) if source == "file" else "-"]) == 2
    assert capsys.readouterr().err == "error: line 3, column 9: invalid UTF-8 byte 0xff\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p=101; vars=x; " + "7" * 5000 + "*x + 1", "column 16: coefficient with 5000 digits"),
        ("p=" + "7" * 5000 + "; vars=x; x", "column 1: field modulus with 5000 digits"),
        ("p=\u00b2; vars=x; x", "column 1: field modulus must be an integer"),
    ],
    ids=["long-coefficient", "long-modulus", "non-ascii-digit-modulus"],
)
def test_unconvertible_numbers_are_parse_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1, ") and message in err
    assert "Traceback" not in err


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/system.txt"]) == 2


@pytest.mark.parametrize("text", ["p=101; vars=x,y; 2; 3", "p=101; vars=x,y,z; x; 2; 3"])
def test_a_constant_among_the_largest_degrees_skips_the_macaulay_bound(text, tmp_path, capsys):
    # Lazard's bound needs forms of positive degree; over degrees (0, 0) the
    # Macaulay bound is 0 while sd is 1, which is no counterexample
    path = tmp_path / "constants.txt"
    path.write_text(text)
    assert main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d_reg"], doc["gbd"], doc["sd"], doc["lfd"]) == (1, 0, 1, 1)
    verdicts = {c["id"]: (c["verdict"], c["reason"]) for c in doc["certificates"]}
    verdict, reason = verdicts.pop("sd_macaulay_bound")
    assert verdict == "skipped" and reason.startswith("hypothesis fails: a constant")
    assert all(verdict == "pass" for verdict, _ in verdicts.values())


def test_a_failing_certificate_exits_1(tmp_path, monkeypatch, capsys):
    # one below fk(3)'s true d_reg 3: sd = 4 then breaks max(d_reg + 1, max deg) = 3
    from soldeg import invariants

    real = invariants._regularity  # the one route to d_reg, read off F's climb or walked
    monkeypatch.setattr(invariants, "_regularity", lambda *args: real(*args) - 1)
    path = tmp_path / "f3.txt"
    F = gen_fk(3, 101)
    path.write_text(render_system(SystemFile(F.ring, GREVLEX, F)))
    assert main(["analyze", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "d_reg: 2" in lines and "sd: 4" in lines
    assert "  fail    sd_generalized_bound     lhs=4 rhs=3" in lines
    assert "  fail    lfd_upper_bound          lhs=4 rhs=3" in lines


def test_a_report_at_the_largest_supported_degree_prints_and_exits_3(tmp_path, capsys):
    # d_reg = 32767, so the identity closure at 32768 cannot be formed
    path = tmp_path / "top.txt"
    path.write_text("p=2; vars=x; x^32767")
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == ""
    assert "d_reg: 32767" in lines and "sd: 32767" in lines and "lfd: 1" in lines
    assert ("  skipped vspace_dim_identity      "
            "(cap: degree 32768 exceeds the largest supported degree 32767)") in lines


@pytest.mark.parametrize("command", ["analyze", "verify-bounds"])
def test_a_report_whose_scan_passes_the_largest_supported_degree_exits_3(
        command, tmp_path, monkeypatch, capsys):
    # fk(3) has sd = 4; with MAX_DEGREE lowered to 3 the scan stops at its
    # own cap, so sd and Lfd are printed as unknown and their bounds skip
    from soldeg import invariants

    monkeypatch.setattr(invariants, "MAX_DEGREE", 3)
    path = tmp_path / "f3.txt"
    F = gen_fk(3, 101)
    path.write_text(render_system(SystemFile(F.ring, GREVLEX, F)))
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == ""
    assert "  pass    gbd_le_dreg              lhs=1 rhs=3" in lines
    assert ("  skipped sd_le_dreg_plus_1        "
            "(cap: solving degree exceeds cap 3)") in lines
    if command == "analyze":
        assert "d_reg: 3" in lines and "sd: None" in lines and "lfd: None" in lines


@pytest.mark.parametrize("argv", [["analyze", "FILE"], ["verify-bounds", "FILE"], ["sweep", "fk"]],
                         ids=lambda argv: argv[0])
def test_no_subcommand_takes_a_cap_flag(argv, fk_file, capsys):
    # the sd scan stops only at constant limits: argparse refuses the flag
    with pytest.raises(SystemExit) as exc:
        main([fk_file if a == "FILE" else a for a in argv] + ["--cap", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 2" in capsys.readouterr().err


def test_an_internal_error_is_one_line_and_exit_2(fk_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise InconsistencyError("cross-check failed")

    monkeypatch.setattr("soldeg.cli.verify_bounds", fail)
    assert main(["analyze", fk_file]) == 2
    err = capsys.readouterr().err
    assert err == "internal error: cross-check failed\n"
    assert "Traceback" not in err


def test_oracle_diff(fk_file, capsys):
    assert main(["oracle-diff", fk_file]) == 0
    out = capsys.readouterr().out
    assert "agreement: yes" in out
    assert "stats: bound=3 N=10 insertions=" in out
    assert " adoptions=" in out and " field_mults=" in out
    # the counters of the climb left open at rung sd, written as each rung ends
    insertions, adoptions = re.search(r" insertions=(\d+) adoptions=(\d+) ", out).groups()
    assert int(insertions) > 0 and int(adoptions) > 0


def test_oracle_diff_reports_a_disagreement(fk_file, capsys, monkeypatch):
    buchberger = cli.buchberger_reduced
    # the basis of the first input alone, which the whole family's basis is not
    monkeypatch.setattr(cli, "buchberger_reduced",
                        lambda F, order: buchberger(PolySystem(F.ring, F.polys[:1]), order))
    assert main(["oracle-diff", fk_file]) == 1
    assert "agreement: NO" in capsys.readouterr().out.splitlines()


def test_a_capped_oracle_diff_is_one_line_and_exit_3(fk_file, monkeypatch, capsys):
    from soldeg import vspace

    # the one row cap: the climb of F that the scan reads passes 3 rows
    # before it reaches sd = 3
    monkeypatch.setattr(vspace, "DEFAULT_MAX_ROWS", 3)
    assert main(["oracle-diff", fk_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closure exceeded 3 rows\n"


def test_oracle_diff_precondition(tmp_path, capsys):
    """Inputs outside the hypothesis max deg F <= d_reg < infinity are
    compared too: an infinite d_reg, a max degree above d_reg, and a d_reg
    walk that would pass the row cap, which no oracle-diff runs."""
    path = tmp_path / "in.txt"
    for text, order in itertools.product(("p=101; vars=x,y; x*y", "p=101; vars=x,y; x; y; x^5",
                                          "p=101; vars=x,y,z; x^45; y^45; z^45"),
                                         ("grevlex", "grlex")):
        path.write_text(text)
        assert main(["oracle-diff", str(path), "--order", order]) == 0, (text, order)
        assert "agreement: yes" in capsys.readouterr().out.splitlines(), (text, order)


def test_trace_file(fk_file, tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    assert main(["analyze", fk_file, "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 4 for line in lines)


def test_sweep_table(capsys):
    assert main(["sweep", "fk", "--from", "2", "--to", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("k")
    assert [row.split()[0] for row in out[1:]] == ["2", "3", "4"]


def test_sweep_json(capsys):
    assert main(["sweep", "fk", "--from", "2", "--to", "5", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in rows] == [2, 3, 4, 5]
    assert [r["sd"] for r in rows] == [3, 4, 5, 6]


def test_sweep_exits_3_when_a_scan_passes_the_largest_supported_degree(monkeypatch, capsys):
    # k = 2 needs sd = 3 and passes; k = 3 needs sd = 4, past MAX_DEGREE
    # lowered to 3, so its row prints with sd unknown and the sweep exits 3
    from soldeg import invariants

    monkeypatch.setattr(invariants, "MAX_DEGREE", 3)
    assert main(["sweep", "fk", "--from", "2", "--to", "3"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert [row.split()[:5] for row in out[1:]] == [
        ["2", "2", "1", "3", "3"], ["3", "3", "1", "None", "None"]]


def test_sweep_refuses_a_reversed_range(capsys):
    assert main(["sweep", "fk", "--from", "5", "--to", "3"]) == 2
    assert capsys.readouterr().err == "error: need 2 <= --from <= --to\n"


def test_sweep_refuses_a_degree_above_the_largest_up_front(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "verify_bounds", lambda *args, **kwargs: calls.append(args))
    assert main(["sweep", "fk", "--to", "1000000000"]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: --to is above")


def test_sweep_prints_each_row_as_its_report_finishes(monkeypatch, capsys):
    printed = []
    report = cli.verify_bounds

    def recording(*args, **kwargs):
        printed.append(capsys.readouterr().out)
        return report(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_bounds", recording)
    assert main(["sweep", "fk", "--from", "2", "--to", "4"]) == 0
    printed.append(capsys.readouterr().out)
    # nothing before the first report; the header with the first row; then a row per report
    assert [out.count("\n") for out in printed] == [0, 2, 1, 1]
    assert printed[1].startswith("k ") and printed[3].startswith("4 ")


def test_a_sweep_refused_at_its_first_report_prints_no_table(capsys):
    assert main(["sweep", "fk", "--from", "2", "--to", "3", "--p", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_stdin_input(capsys, monkeypatch):
    _stdin(monkeypatch, b"p=101; vars=x,y; x^2+y; y^2+x; x*y")
    assert main(["analyze", "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sd"] == 3


# headers, good (repeated, so that many texts parse) and bad; pieces of
# polynomial text: the grammar's alphabet, exponents and digit runs past the
# limits, and characters the grammar does not have
_MODULI = ["p=101;"] * 4 + ["p=2; order=grlex;", "p=4;", "p=\u0661\u0660\u0661;", ""]
_VARS = ["vars=x,y;"] * 5 + ["vars=x,x;", "vars=;", f"vars={SEVENTEEN};"]
_PIECES = ["x ", "y ", "x^2 ", "y^3", "2", " + ", " - ", "*", "x*y", ";", "\n", "x^2 + y;",
           "2*x*y - y;"] * 5 + [
    "z", "xy", "_", "0", "07", "1" * 50, "9" * 4400, "^", "^ 3", "^40000", "^000032768",
    "+", "-", " ", "\t", "\u00b2", "\u0661", "\u00e9", "\0", "#", "p=101",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.sampled_from(_MODULI),
    names=st.sampled_from(_VARS),
    body=st.lists(st.sampled_from(_PIECES), max_size=8),
)
def test_any_system_text_ends_in_an_exit_code_with_a_position(p, names, body):
    text = f"{p} {names}\n" + "".join(body)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["analyze", str(path)])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "internal error" not in err
    where = re.match(r"error: line (\d+), column (\d+): ", err)
    if where:
        lines = text.splitlines()
        line, col = int(where.group(1)), int(where.group(2))
        assert 1 <= line <= len(lines)
        assert 1 <= col <= len(lines[line - 1]) + 1
