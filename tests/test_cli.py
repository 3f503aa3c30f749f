"""The command-line front end: verbs, formats, determinism, exit codes."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monoideal.cli import VISIBLE_VERBS, main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mono_char2_file(capsys):
    code, out, _ = run(
        capsys, "mono", "--in", FIXTURES / "char2.ideal", "--ideal", "I", "--method", "gb"
    )
    assert code == 0
    assert "x*y*z^2" in out
    assert "method gb" in out


def test_mono_field_override(capsys):
    code, out, _ = run(
        capsys,
        "mono", "--in", FIXTURES / "cubes.ideal", "--ideal", "I", "--field", "2",
        "--format", "records",
    )
    assert code == 0
    assert "x*y*z^2" in out.splitlines()


def test_mono_methods_agree(capsys):
    outs = []
    for method in ("gb", "puv", "oracle"):
        code, out, _ = run(
            capsys,
            "mono", "--in", FIXTURES / "soclepair.ideal", "--ideal", "I",
            "--method", method, "--format", "records",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_runs_are_byte_identical(capsys):
    args = ("compare", "--in", FIXTURES / "linearform.ideal", "--ideal", "I")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_upper(capsys):
    code, out, _ = run(
        capsys, "upper", "--in", FIXTURES / "soclepair.ideal", "--ideal", "I",
        "--format", "records",
    )
    assert code == 0
    lines = out.splitlines()
    assert "x" in lines and "y*z" in lines


def test_betti_table(capsys):
    code, out, _ = run(capsys, "betti", "--in", FIXTURES / "linearform.ideal", "--ideal", "M")
    assert code == 0
    tokens = [line.split() for line in out.splitlines()]
    assert tokens[1] == ["total:", "1", "10", "15", "6"]


def test_betti_records(capsys):
    code, out, _ = run(
        capsys, "betti", "--in", FIXTURES / "gor.ideal", "--ideal", "M",
        "--format", "records",
    )
    assert code == 0
    assert out.splitlines() == ["0 0 1", "1 2 1", "1 3 1", "2 5 1"]


def test_compare_reports_verdicts(capsys):
    code, out, _ = run(capsys, "compare", "--in", FIXTURES / "linearform.ideal", "--ideal", "I")
    assert code == 0
    assert "regularity equal: yes" in out
    assert "top-Betti implication holds: yes" in out
    assert "level (ideal): no" in out
    assert "level (monomial subideal): yes" in out


def test_witness_gorenstein(capsys):
    code, out, _ = run(capsys, "witness", "--in", FIXTURES / "gor.ideal", "--ideal", "M")
    assert code == 0
    assert "none" in out
    assert "Gorenstein: yes" in out
    assert "no non-monomial ideal" in out


def test_witness_with_classes(capsys):
    code, out, _ = run(capsys, "witness", "--in", FIXTURES / "soclepair.ideal", "--ideal", "N")
    assert code == 0
    assert "degree 2" in out
    assert "Gorenstein: no" in out
    assert "exists" in out


def test_witness_requires_monomial_ideal(capsys):
    code, _, err = run(capsys, "witness", "--in", FIXTURES / "soclepair.ideal", "--ideal", "I")
    assert code == 2
    assert "monomials" in err


def test_charscan(capsys):
    code, out, _ = run(
        capsys, "charscan", "--in", FIXTURES / "cubes.ideal", "--ideal", "I",
        "--primes", "2,3,5",
    )
    assert code == 0
    assert "QQ:" in out and "F2:" in out
    assert "x*y*z^2: only over F2" in out


def test_charscan_records(capsys):
    code, out, _ = run(
        capsys, "charscan", "--in", FIXTURES / "cubes.ideal", "--ideal", "I",
        "--primes", "2", "--no-qq", "--format", "records",
    )
    assert code == 0
    lines = out.splitlines()
    assert "F2 x*y*z^2" in lines
    assert all(line.split()[0] in ("F2", "diff") for line in lines)


def test_compare_records(capsys):
    code, out, _ = run(
        capsys, "compare", "--in", FIXTURES / "gor.ideal", "--ideal", "M",
        "--format", "records",
    )
    assert code == 0
    lines = out.splitlines()
    assert "mono x^2" in lines and "mono y^3" in lines
    assert "betti_ideal 0 0 1" in lines
    assert "regularity_equal yes" in lines
    assert "top_betti_implication yes" in lines


def test_oracle_verb(capsys):
    code, out, _ = run(
        capsys, "oracle", "--in", FIXTURES / "quadrics.ideal", "--ideal", "I",
        "--format", "records",
    )
    assert code == 0
    assert out.splitlines() == ["x^3", "x^2*y", "x*y^2", "y^3"]  # grevlex order


def test_oracle_ceiling_env(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "line.ideal"
    bad.write_text("ring QQ[x,y]; I = ideal(x);")
    monkeypatch.setenv("MONO_DEGREE_CEILING", "6")
    code, _, err = run(capsys, "oracle", "--in", bad, "--ideal", "I")
    assert code == 2
    assert "ceiling 6" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring ZZ/4[x];")
    code, _, err = run(capsys, "mono", "--in", bad, "--ideal", "I")
    assert code == 1
    assert "prime" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("# only a comment\n", "line 2, column 1: input contains no ring declaration"),
        ("ring QQ[x];\nring QQ[y];\n", "line 2, column 1: duplicate ring declaration"),
        ("ring RR[x];\n", "line 1, column 6: unknown coefficient field 'RR'"),
    ],
    ids=["no-ring", "two-rings", "unknown-field"],
)
def test_ring_declaration_errors(capsys, tmp_path, text, message):
    f = tmp_path / "bad.ideal"
    f.write_text(text)
    assert run(capsys, "mono", "--in", f, "--ideal", "I") == (1, "", f"error: {message}\n")


def test_non_decimal_digit_exit_code(capsys, tmp_path):
    f = tmp_path / "superscript.ideal"
    f.write_text("ring QQ[x,y];\nI = ideal(x^², y);", encoding="utf-8")
    code, out, err = run(capsys, "mono", "--in", f, "--ideal", "I")
    assert (code, out) == (1, "")
    assert err == "error: line 2, column 13: unexpected character '²'\n"


# Edits draw no ASCII digit, so no exponent or characteristic can grow except
# by joining two digit runs ("x^2*y^3" less "*y^" reads x^23); such texts
# are skipped, since a large exponent only makes a run slow.
_EDIT_CHARS = "xyzwabc+-*^()[],;=/# \t\n²\xa0\f"


@st.composite
def _edited_fixture(draw):
    """(text, name): a fixture with 1 to 3 one-character deletions,
    insertions or replacements, and the first ideal name of the original."""
    path = draw(st.sampled_from(sorted(FIXTURES.glob("*.ideal"))))
    text = original = path.read_text()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("delete", "insert", "replace")))
        ch = draw(st.sampled_from(_EDIT_CHARS))
        if kind == "insert":
            text = text[:at] + ch + text[at:]
        elif at < len(text):
            text = text[:at] + ("" if kind == "delete" else ch) + text[at + 1 :]
    assume(_largest_number(text) <= _largest_number(original))
    name = re.search(r"(\w+)\s*=\s*ideal", original).group(1)
    return text, name


def _largest_number(text):
    return max(map(int, re.findall("[0-9]+", text)), default=0)


def test_edited_input_keeps_the_exit_code_contract(capsys, tmp_path):
    # Malformed input must end in a documented exit code with at most one
    # line on stderr, never a traceback.
    f = tmp_path / "edited.ideal"

    @settings(max_examples=100, deadline=None)
    @given(
        _edited_fixture(),
        st.sampled_from(VISIBLE_VERBS),
        st.sampled_from(("text", "records")),
    )
    def inner(edited, verb, fmt):
        text, name = edited
        f.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, verb, "--in", f, "--ideal", name, "--format", fmt)
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ")
        if code == 3:
            assert err.startswith("internal error: ")

    inner()


@pytest.mark.parametrize(
    "body, col",
    [("(" * 5000 + "x" + ")" * 5000, 111), ("- " * 5000 + "x", 213)],
    ids=["parentheses", "unary-minus"],
)
def test_deep_nesting_exit_code(capsys, tmp_path, body, col):
    deep = tmp_path / "deep.ideal"
    deep.write_text(f"ring QQ[x];\nI = ideal({body});")
    code, out, err = run(capsys, "mono", "--in", deep, "--ideal", "I")
    assert code == 1
    assert out == ""
    assert err == f"error: line 2, column {col}: expression nested more than 100 deep\n"


@pytest.mark.parametrize("field", ["abc", "4", ""])
def test_bad_field_flag_exit_code(capsys, field):
    code, out, err = run(
        capsys, "mono", "--in", FIXTURES / "gor.ideal", "--ideal", "M", "--field", field
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --field expects QQ or a prime below 2^31, got {field!r}\n"


def test_bad_field_flag_is_reported_before_a_bad_input_path(capsys, tmp_path):
    code, out, err = run(
        capsys, "betti", "--in", tmp_path / "nope.ideal", "--ideal", "M", "--field", "abc"
    )
    assert (code, out) == (1, "")
    assert err == "error: --field expects QQ or a prime below 2^31, got 'abc'\n"


@pytest.mark.parametrize("primes", ["a,b", "4", "-3", "2147483659", "0", "2,x"])
def test_bad_primes_flag_exit_code(capsys, primes):
    code, out, err = run(
        capsys, "charscan", "--in", FIXTURES / "cubes.ideal", "--ideal", "I",
        "--primes", primes,
    )
    assert code == 1
    assert out == ""
    assert err == (
        f"error: --primes expects comma-separated primes below 2^31, got {primes!r}\n"
    )


@pytest.mark.parametrize("verb", ["betti", "compare", "witness"])
@pytest.mark.parametrize("degree", ["-3", "abc"])
def test_bad_max_degree_flag_exit_code(capsys, verb, degree):
    code, out, err = run(
        capsys, verb, "--in", FIXTURES / "gor.ideal", "--ideal", "M",
        "--max-degree", degree,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --max-degree expects a nonnegative integer, got {degree!r}\n"


@pytest.mark.parametrize("verb", ["oracle", "mono"])
@pytest.mark.parametrize("ceiling", ["-3", "abc"])
def test_bad_ceiling_flag_exit_code(capsys, verb, ceiling):
    code, out, err = run(
        capsys, verb, "--in", FIXTURES / "gor.ideal", "--ideal", "M",
        "--ceiling", ceiling,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --ceiling expects a nonnegative integer, got {ceiling!r}\n"


@pytest.mark.parametrize("ceiling", ["-3", "abc"])
def test_bad_ceiling_env_exit_code(capsys, monkeypatch, ceiling):
    monkeypatch.setenv("MONO_DEGREE_CEILING", ceiling)
    code, out, err = run(capsys, "oracle", "--in", FIXTURES / "gor.ideal", "--ideal", "M")
    assert code == 1
    assert out == ""
    assert err == (
        f"error: MONO_DEGREE_CEILING expects a nonnegative integer, got {ceiling!r}\n"
    )


def test_huge_witness_max_degree_changes_nothing(capsys):
    args = ("witness", "--in", FIXTURES / "soclepair.ideal", "--ideal", "N",
            "--format", "records")
    code, out, _ = run(capsys, *args, "--max-degree", 100000000)
    assert code == 0
    assert out == run(capsys, *args)[1]
    assert "class 2 x^2 y^2" in out.splitlines()


CUT_NOTE = (
    "note: --max-degree {} cuts the Betti table; "
    "entries of higher degree were not computed\n"
)


def test_huge_max_degree_changes_nothing(capsys):
    args = ("betti", "--in", FIXTURES / "gor.ideal", "--ideal", "M", "--format", "records")
    code, out, err = run(capsys, *args, "--max-degree", 100000000)
    assert (code, err) == (0, "")
    assert run(capsys, *args)[1:] == (out, "")
    # x^2, y^3 in two variables: top = 3, so caps from top + n = 5 up agree,
    # and only a lower cap cuts the table
    for cap in (5, 6):
        assert run(capsys, *args, "--max-degree", cap)[1:] == (out, "")
    _, cut, err = run(capsys, *args, "--max-degree", 4)
    assert cut != out and err == CUT_NOTE.format(4)


@pytest.mark.parametrize("verb", ["betti", "compare"])
@pytest.mark.parametrize("fmt", ["text", "records"])
def test_cut_table_says_so_on_stderr(capsys, verb, fmt):
    """nonartinian.ideal has beta_(2,3) = 2 and D = 3: a cap of 2 cuts its
    table (exit 0, one stderr line, beta_(2,3) missing), a cap of 3 does not."""
    args = (verb, "--in", FIXTURES / "nonartinian.ideal", "--ideal", "I", "--format", fmt)
    code, out, err = run(capsys, *args, "--max-degree", 2)
    assert (code, err) == (0, CUT_NOTE.format(2))
    code, full, err = run(capsys, *args, "--max-degree", 3)
    assert (code, err) == (0, "")
    if fmt == "records" and verb == "betti":
        assert out.splitlines() == ["0 0 1", "1 2 3"]
        assert full.splitlines() == ["0 0 1", "1 2 3", "2 3 2"]
    assert out != full


WITNESS_NOTE = (
    "note: --max-degree {} cuts the witness search; "
    "standard monomials of higher degree were not searched\n"
)


@pytest.mark.parametrize(
    "fixture, name, cap, cut",
    [
        # N's Hilbert function is [1, 3, 6, 3, 1]: caps below 4 cut the search
        *(("soclepair.ideal", "N", cap, True) for cap in (1, 2, 3)),
        *(("soclepair.ideal", "N", cap, False) for cap in (4, 100000000, None)),
        # x^2, y^3: the top standard monomial x*y^2 has degree 3
        ("gor.ideal", "M", 2, True),
        ("gor.ideal", "M", 3, False),
    ],
)
def test_cut_witness_search_says_so_on_stderr(capsys, fixture, name, cap, cut):
    args = ("witness", "--in", FIXTURES / fixture, "--ideal", name, "--format", "records")
    capped = () if cap is None else ("--max-degree", cap)
    code, out, err = run(capsys, *args, *capped)
    assert (code, err) == (0, WITNESS_NOTE.format(cap) if cut else "")
    full = run(capsys, *args)[1]
    # the cap only drops classes, the verdicts stay
    assert set(out.splitlines()) <= set(full.splitlines())
    assert out.splitlines()[-2:] == full.splitlines()[-2:]


def test_compare_non_artinian_with_bound(capsys):
    args = ("compare", "--in", FIXTURES / "nonartinian.ideal", "--ideal", "I")
    code, _, err = run(capsys, *args)
    assert code == 2
    assert "degree bound" in err
    code, out, _ = run(capsys, *args, "--max-degree", 6, "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("mono ")] == ["mono x*z", "mono y*z"]
    assert [ln for ln in lines if ln.startswith("betti_")] == [
        "betti_ideal 0 0 1", "betti_ideal 1 2 3", "betti_ideal 2 3 2",
        "betti_mono 0 0 1", "betti_mono 1 2 2", "betti_mono 2 3 1",
    ]


def test_unknown_ideal_exit_code(capsys):
    code, _, err = run(capsys, "mono", "--in", FIXTURES / "gor.ideal", "--ideal", "Q")
    assert code == 1
    assert "no ideal named" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "mono", "--in", tmp_path / "nope.ideal", "--ideal", "I")
    assert code == 1


@pytest.mark.parametrize("verb", ["mono", "charscan"])
def test_directory_as_input_exit_code(capsys, tmp_path, verb):
    code, out, err = run(capsys, verb, "--in", tmp_path, "--ideal", "I")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["mono", "charscan"])
def test_non_utf8_input_exit_code(capsys, tmp_path, verb):
    f = tmp_path / "latin1.ideal"
    f.write_bytes("# café\nring QQ[x]; I = ideal(x);\n".encode("latin-1"))
    code, out, err = run(capsys, verb, "--in", f, "--ideal", "I")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "codec can't decode" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_witness_unit_ideal_exit_code(capsys, tmp_path, fmt):
    f = tmp_path / "unit.ideal"
    f.write_text("ring QQ[x,y]; I = ideal(1);")
    outcomes = [
        run(capsys, verb, "--in", f, "--ideal", "I", "--format", fmt)
        for verb in ("witness", "betti")
    ]
    assert outcomes == [(2, "", "error: the quotient by the unit ideal is zero\n")] * 2


def test_precondition_exit_code(capsys, tmp_path):
    f = tmp_path / "line.ideal"
    f.write_text("ring QQ[x,y]; I = ideal(x);")
    code, _, err = run(capsys, "betti", "--in", f, "--ideal", "I")
    assert code == 2
    assert "degree bound" in err


def test_internal_disagreement_exit_code(capsys, monkeypatch):
    from monoideal import InternalCheckError
    from monoideal import cli as cli_mod

    def boom(*a, **k):
        raise InternalCheckError("methods disagree")

    monkeypatch.setattr(cli_mod, "mono_via_gb", boom)
    code, _, err = run(capsys, "mono", "--in", FIXTURES / "gor.ideal", "--ideal", "M")
    assert code == 3
    assert "internal error" in err


def test_reused_parser_matches_fresh_runs(capsys):
    from monoideal import cli as cli_mod

    calls = [
        ("mono", "--in", FIXTURES / "soclepair.ideal", "--ideal", "I", "--method", "oracle"),
        ("mono", "--in", FIXTURES / "soclepair.ideal", "--ideal", "I"),
        ("charscan", "--in", FIXTURES / "cubes.ideal", "--ideal", "I", "--no-qq",
         "--format", "records"),
        ("charscan", "--in", FIXTURES / "cubes.ideal", "--ideal", "I"),
        ("betti", "--in", FIXTURES / "gor.ideal", "--ideal", "M", "--field", "abc"),
        ("betti", "--in", FIXTURES / "gor.ideal", "--ideal", "M", "--format", "records"),
        ("oracle", "--in", FIXTURES / "quadrics.ideal", "--ideal", "I", "--ceiling", "x"),
        ("oracle", "--in", FIXTURES / "quadrics.ideal", "--ideal", "I"),
    ]
    fresh = []
    for argv in calls:
        cli_mod._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in calls + calls[::-1]]
    assert cli_mod._parser.cache_info().currsize == 1
    assert reused == fresh + fresh[::-1]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 1, 0, 1, 0]


def test_selftest_verb(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "5", "--instances", "2")
    assert code == 0
    assert "2 instances" in out
    assert "ok" in out


@pytest.mark.parametrize("instances", ["-1", "0", "x"])
def test_bad_selftest_instances_exit_code(capsys, instances):
    code, out, err = run(capsys, "selftest", "--seed", "1", "--instances", instances)
    assert code == 1
    assert out == ""
    assert err == f"error: --instances expects a positive integer, got {instances!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("selftest",), "the following arguments are required: --seed"),
        (("mono", "--ideal", "I"), "the following arguments are required: --in"),
        (("selftest", "--seed", "x"), "argument --seed: invalid int value: 'x'"),
        (("frobnicate",), "invalid choice: 'frobnicate'"),
    ],
    ids=["missing-seed", "missing-in", "non-integer-seed", "unknown-verb"],
)
def test_usage_error_exit_code(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_unknown_verb_lists_only_visible_verbs(capsys):
    code, out, err = run(capsys, "frob")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "invalid choice: 'frob'" in err
    assert "selftest" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: monoideal" in capsys.readouterr().out


# the shared flags each verb takes, and a value every taker accepts on gor.ideal
SHARED_FLAGS = {"--field": "3", "--max-degree": "8", "--ceiling": "5"}
VERB_FLAGS = {
    "mono": {"--field", "--ceiling"},
    "upper": {"--field"},
    "betti": {"--field", "--max-degree"},
    "compare": {"--field", "--max-degree"},
    "witness": {"--field", "--max-degree"},
    "charscan": set(),
    "oracle": {"--field", "--ceiling"},
}


def test_verb_flags_cover_the_visible_verbs():
    assert tuple(VERB_FLAGS) == VISIBLE_VERBS


@pytest.mark.parametrize("flag", sorted(SHARED_FLAGS))
@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_each_verb_takes_exactly_its_shared_flags(capsys, verb, flag):
    value = SHARED_FLAGS[flag]
    argv = (verb, "--in", FIXTURES / "gor.ideal", "--ideal", "M", flag, value)
    code, out, err = run(capsys, *argv)
    if flag in VERB_FLAGS[verb]:
        assert (code, err) == (0, "")
        assert out
    else:
        assert (code, out, err) == (1, "", f"error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize("verb", VISIBLE_VERBS)
def test_help_shows_the_shared_flag_help_lines(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    field = "  --field FIELD         override the coefficient field (QQ or a prime)"
    ceiling = "  --ceiling CEILING     degree ceiling for searches"
    assert (field in lines) == ("--field" in VERB_FLAGS[verb])
    assert (ceiling in lines) == ("--ceiling" in VERB_FLAGS[verb])


def test_selftest_hidden_from_help():
    from monoideal.cli import build_parser

    assert "selftest" not in build_parser().format_help()


# ---------------------------------------------------------------- contract paths


@pytest.mark.parametrize("verb", ["mono", "upper"])
def test_zero_ideal_prints_zero(capsys, tmp_path, verb):
    f = tmp_path / "zero.ideal"
    f.write_text("ring QQ[x,y];\nI = ideal(0);\n")
    code, out, err = run(capsys, verb, "--in", f, "--ideal", "I", "--format", "records")
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run(capsys, verb, "--in", f, "--ideal", "I")
    assert (code, out.splitlines()[-1], err) == (0, "  0", "")


def test_witness_requires_an_artinian_ideal(capsys, tmp_path):
    f = tmp_path / "nonartinian.ideal"
    f.write_text("ring QQ[x,y];\nI = ideal(x^2, x*y);\n")
    assert run(capsys, "witness", "--in", f, "--ideal", "I") == (
        2, "", "error: witness search requires an Artinian monomial ideal\n"
    )


def test_charscan_with_no_fields(capsys):
    argv = ("charscan", "--in", FIXTURES / "cubes.ideal", "--ideal", "I", "--no-qq")
    assert run(capsys, *argv, "--primes", ",") == (2, "", "error: no fields requested\n")


def _module_cli(*argv):
    """Run ``python -m monoideal.cli`` on this checkout's sources."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "monoideal.cli", *map(str, argv)],
        capture_output=True, env=env, check=False,
    )


def test_module_entry_point_exit_codes(tmp_path):
    missing = _module_cli("mono", "--in", tmp_path / "nope.ideal", "--ideal", "I")
    assert missing.returncode == 1
    assert missing.stdout == b""
    assert missing.stderr.startswith(b"error: ") and missing.stderr.count(b"\n") == 1
    ok = _module_cli(
        "mono", "--in", FIXTURES / "char2.ideal", "--ideal", "I",
        "--format", "text", "--method", "gb",
    )
    golden = json.loads((FIXTURES / "golden.json").read_text())
    assert (ok.returncode, ok.stderr) == (0, b"")
    assert {"exit": 0, "sha256": hashlib.sha256(ok.stdout).hexdigest()} == golden[
        "mono --method gb char2.ideal:I text"
    ]


def test_module_entry_point_runs_selftest():
    # argv None: main reads sys.argv and hands selftest to its own parser
    ok = _module_cli("selftest", "--seed", 1, "--instances", 1)
    assert (ok.returncode, ok.stdout, ok.stderr) == (
        0, b"selftest: 1 instances, 17 checks, ok\n", b""
    )
