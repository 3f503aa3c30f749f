"""Reference checks for benchmark outputs; they run outside the timed region.

Each reference comes from a route other than the one being timed:
- saturation (`mono --method gb`) is compared with the `oracle` route;
- membership (`oracle`) is compared with the `gb` route;
- betti tables are checked against the Euler characteristic given by the
  Hilbert function of the initial ideal and, for monomial input, against
  the minimal generators (column 1) and the socle (column n) computed by
  `monomial`.
On the default seed every output must also match its recorded sha256 digest.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

REFERENCE_VERB = {
    "saturation": ("oracle", "--format", "records"),
    "membership": ("mono", "--method", "gb", "--format", "records"),
}


def digest(out):
    return hashlib.sha256(out.encode()).hexdigest()


def recorded_digests(workload, seed):
    """Digests recorded for this workload, or None off the recorded seed."""
    data = json.loads(DIGESTS.read_text())
    if data["seed"] != seed:
        return None
    return data["workloads"][workload]


def _table(out):
    table = {}
    for line in out.splitlines():
        i, j, v = (int(x) for x in line.split())
        table[(i, j)] = v
    return table


def _betti_expectations(inst):
    """(Euler characteristic by degree, column-1 and column-n entries or None)."""
    from monoideal.monomial import MonomialIdeal
    from monoideal.parse import parse_source

    ring, ideals = parse_source(inst.text)
    n = ring.n
    initial = MonomialIdeal(ring, ideals["I"].leading_exponents())
    hf = initial.hilbert_function()
    euler = {}
    for d, h in enumerate(hf):
        for k in range(n + 1):
            euler[d + k] = euler.get(d + k, 0) + h * (-1) ** k * comb(n, k)
    if inst.monomial is None:
        return euler, None
    M = MonomialIdeal(ring, inst.monomial)
    ends = {}
    for g in M.min_gens:
        ends[(1, sum(g))] = ends.get((1, sum(g)), 0) + 1
    for s in M.socle_monomials():
        ends[(n, sum(s) + n)] = ends.get((n, sum(s) + n), 0) + 1
    return euler, ends


def _betti_problem(inst, expect, out):
    euler, ends = expect
    try:
        table = _table(out)
    except ValueError:
        return "malformed Betti records"
    if any(v <= 0 or not 0 <= i <= inst.n for (i, _), v in table.items()):
        return "Betti entry out of range"
    alt = {}
    for (i, j), v in table.items():
        alt[j] = alt.get(j, 0) + (-1) ** i * v
    if {j: v for j, v in alt.items() if v} != {j: v for j, v in euler.items() if v}:
        return "Euler characteristic differs from the Hilbert function"
    if ends is not None:
        got = {k: v for k, v in table.items() if k[0] in (1, inst.n)}
        if got != ends:
            return "end columns differ from minimal generators and socle"
    return None


class Checker:
    """Verdicts on (exit code, stdout) pairs of one batch."""

    def __init__(self, workload, batch, argvs, run, digests=None):
        """``run(argv)`` returns (exit code, stdout) of one CLI invocation;
        ``digests``, when given, are the recorded sha256 of each stdout."""
        self.batch = batch
        self.digests = digests
        if workload in REFERENCE_VERB:
            verb = REFERENCE_VERB[workload]
            self.expected = []
            for argv in argvs:
                rc, out = run(list(verb) + argv[argv.index("--in") :])
                self.expected.append(out if rc == 0 else None)
        else:
            self.expected = [_betti_expectations(inst) for inst in batch]
        self._seen = {}

    def problem(self, k, rc, out):
        """None when instance k's output is right, else the reason."""
        key = (k, rc, out)
        if key not in self._seen:
            self._seen[key] = self._problem(k, rc, out)
        return self._seen[key]

    def _problem(self, k, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        if self.digests is not None and digest(out) != self.digests[k]:
            return "stdout differs from the recorded digest"
        expect = self.expected[k]
        if isinstance(expect, tuple):
            return _betti_problem(self.batch[k], expect, out)
        if expect is None:
            return "reference route failed"
        if out != expect:
            return "stdout differs from the reference route"
        return None
