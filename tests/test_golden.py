"""Golden CLI output: exit code and stdout sha256 of every visible verb on
every fixture ideal, in both output formats.

The recorded values live in ``fixtures/golden.json``.  A change that is meant
to alter output rewrites them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import re
import sys

import pytest

from monoideal.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden.json"

VERBS = (
    ("mono", "--method", "gb"),
    ("mono", "--method", "puv"),
    ("mono", "--method", "oracle"),
    ("upper",),
    ("betti", "--max-degree", "8"),
    ("betti", "--max-degree", "8", "--field", "3"),
    ("betti", "--field", "2"),
    ("compare", "--max-degree", "8"),
    ("witness",),
    ("charscan",),
    ("oracle",),
    ("charscan", "--no-qq", "--primes", "2,7"),
    ("oracle", "--ceiling", "3"),
    ("mono", "--method", "puv", "--field", "3"),
    ("upper", "--field", "2"),
    ("betti",),
    ("compare",),
)


def _ideals():
    for path in sorted(FIXTURES.glob("*.ideal")):
        for name in re.findall(r"^\s*(\w+)\s*=\s*ideal", path.read_text(), re.M):
            yield path.name, name


def _cases():
    return {
        f"{' '.join(verb)} {fixture}:{ideal} {fmt}": (verb, fixture, ideal, fmt)
        for fixture, ideal in _ideals()
        for verb in VERBS
        for fmt in ("text", "records")
    }


CASES = _cases()


def _run(verb, fixture, ideal, fmt):
    argv = [verb[0], "--in", str(FIXTURES / fixture), "--ideal", ideal,
            "--format", fmt, *verb[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert _run(*CASES[case]) == _golden()[case]


if __name__ == "__main__":
    golden = {case: _run(*CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
