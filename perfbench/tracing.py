"""Outside-in layer trace: wrappers patched over monoideal's layer entry points.

Every wrapper is installed on the module attribute (or class attribute) that
its caller looks up at call time, so the program's own files stay untouched.
A wrapper records a span (name, start, end, parent span, instance id) and
bumps counters; nothing is installed unless a traced pass asks for it, and
``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children.  Functions in ``poly``, ``fields`` and ``orders`` are not wrapped:
their time lands in the self time of the layer that called them.
"""

from __future__ import annotations

from array import array
from time import perf_counter

# Per-layer metrics reported by a traced run, in report order:
# name -> (unit, better).  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "groebner.buchberger.self_s": ("s", "lower"),
    "groebner.update.s": ("s", "lower"),
    "groebner.update.calls": ("count", "lower"),
    "groebner.pairs.created": ("count", "lower"),
    "groebner.pairs.pruned": ("count", "higher"),
    "groebner.spoly.calls": ("count", "lower"),
    "groebner.nf_spair.calls": ("count", "lower"),
    "groebner.nf_spair.s": ("s", "lower"),
    "groebner.nf_spair.zero_ratio": ("ratio", "lower"),
    "groebner.nf_member.calls": ("count", "lower"),
    "groebner.nf_member.s": ("s", "lower"),
    "groebner.basis.cache_hit_ratio": ("ratio", "higher"),
    "groebner.basis.builds": ("count", "lower"),
    "groebner.autoreduce.s": ("s", "lower"),
    "groebner.basis.size": ("count", "lower"),
    "groebner.basis.terms": ("count", "lower"),
    "groebner.coeff_bits.max": ("bits", "lower"),
    "linalg.rank.calls": ("count", "lower"),
    "linalg.rank.qq_s": ("s", "lower"),
    "linalg.rank.gfp_s": ("s", "lower"),
    "linalg.rank.entries": ("count", "lower"),
    "linalg.rank.nonzero_ratio": ("ratio", "lower"),
    "betti.assembly.self_s": ("s", "lower"),
    "monomial.s": ("s", "lower"),
    "engine.route.self_s": ("s", "lower"),
    "engine.verify.calls": ("count", "higher"),
    "engine.verify.s": ("s", "lower"),
    "parse.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# MonomialIdeal methods on the timed paths (constructor, Artinian data,
# standard monomials); their nested calls count once, in the outermost span.
_MONOMIAL_METHODS = (
    "__init__",
    "sorted_gens",
    "is_artinian",
    "power_gap",
    "standard_monomials",
)

_NF_BY_PARENT = {
    "groebner.buchberger": "groebner.nf_spair",
    "groebner.contains": "groebner.nf_member",
    "groebner.autoreduce": "groebner.nf_autoreduce",
}


class Tracer:
    """Spans and counters of one traced pass, held in memory.

    Span k has name ``names[k]``, runs from ``start[k]`` to ``end[k]``
    (perf_counter seconds), was opened inside span ``parent[k]`` (-1 for a
    root) and belongs to batch instance ``inst[k]``.
    """

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.inst = array("l")
        self.counts = {}
        self.instance = -1
        self._stack = []  # indices of the open spans

    def _open(self, name):
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.names))
        self.names.append(name)
        self.inst.append(self.instance)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def _close(self):
        self.end[self._stack.pop()] = perf_counter()

    def parent_name(self):
        return self.names[self._stack[-1]] if self._stack else None

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced


def install(tracer):
    """Patch every layer entry point; returns a function that undoes it."""
    from monoideal import betti, cli, engine, groebner, monomial

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    span = tracer.span
    bump = tracer.bump

    patch(cli, "parse_source", span("parse", cli.parse_source))
    patch(cli, "mono_via_gb", span("engine.route", cli.mono_via_gb))
    patch(cli, "mono_oracle", span("engine.route", cli.mono_oracle))

    verify = span("engine.verify", engine._verify_members)

    def verify_members(*args):
        bump("engine.verify.calls")
        return verify(*args)

    patch(engine, "_verify_members", verify_members)
    patch(betti, "graded_betti", span("betti.assembly", betti.graded_betti))

    rank_qq = span("linalg.rank.qq", betti.rank)
    rank_gfp = span("linalg.rank.gfp", betti.rank)

    def traced_rank(rows, field):
        bump("linalg.rank.calls")
        if rows and rows[0]:
            bump("linalg.rank.entries", len(rows) * len(rows[0]))
            bump("linalg.rank.nonzero", sum(1 for r in rows for v in r if v))
        return (rank_gfp if field.characteristic else rank_qq)(rows, field)

    patch(betti, "rank", traced_rank)

    for attr in _MONOMIAL_METHODS:
        patch(
            monomial.MonomialIdeal,
            attr,
            span("monomial", monomial.MonomialIdeal.__dict__[attr]),
        )

    basis = span("groebner.basis", groebner.Ideal._basis)

    def traced_basis(ideal, order=None):
        before = len(ideal._cache)
        out = basis(ideal, order)
        bump("groebner.basis.calls")
        if len(ideal._cache) == before:
            bump("groebner.basis.hits")
        return out

    patch(groebner.Ideal, "_basis", traced_basis)
    patch(
        groebner.Ideal,
        "contains",
        span("groebner.contains", groebner.Ideal.contains),
    )

    buchberger = span("groebner.buchberger", groebner._buchberger)

    def traced_buchberger(dicts, order, char, p):
        out = buchberger(dicts, order, char, p)
        bump("groebner.basis.builds")
        bump("groebner.basis.size", len(out))
        bump("groebner.basis.terms", sum(len(b.coeffs) for b in out))
        if char == 0:
            bits = max(
                (abs(c).bit_length() for b in out for c in b.coeffs.values()),
                default=0,
            )
            tracer.counts["groebner.coeff_bits.max"] = max(
                bits, tracer.counts.get("groebner.coeff_bits.max", 0)
            )
        return out

    patch(groebner, "_buchberger", traced_buchberger)

    update = span("groebner.update", groebner._update)

    def traced_update(G, P, f, order):
        m, before = len(G), len(P)
        G, retained = update(G, P, f, order)
        bump("groebner.update.calls")
        bump("groebner.pairs.created", m)
        bump("groebner.pairs.pruned", before + m - len(retained))
        return G, retained

    patch(groebner, "_update", traced_update)

    spoly = groebner._spoly

    def traced_spoly(*args):
        bump("groebner.spoly.calls")
        return spoly(*args)

    patch(groebner, "_spoly", traced_spoly)

    nf_spans = {
        name: span(name, groebner._nf)
        for name in set(_NF_BY_PARENT.values()) | {"groebner.nf_other"}
    }

    def traced_nf(*args):
        name = _NF_BY_PARENT.get(tracer.parent_name(), "groebner.nf_other")
        r, lam = nf_spans[name](*args)
        bump(name + ".calls")
        if not r:
            bump(name + ".zero")
        return r, lam

    patch(groebner, "_nf", traced_nf)
    patch(
        groebner,
        "_autoreduce",
        span("groebner.autoreduce", groebner._autoreduce),
    )

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def span_times(tracer):
    """name -> [inclusive seconds, self seconds].  A span nested directly in
    one of the same name adds only to the outer one's inclusive time."""
    names, start, end, parent = tracer.names, tracer.start, tracer.end, tracer.parent
    child = [0.0] * len(names)
    for k, p in enumerate(parent):
        if p >= 0:
            child[p] += end[k] - start[k]
    out = {}
    for k, name in enumerate(names):
        dur = end[k] - start[k]
        acc = out.setdefault(name, [0.0, 0.0])
        p = parent[k]
        if p < 0 or names[p] != name:
            acc[0] += dur
        acc[1] += dur - child[k]
    return out


def layer_metrics(tracer):
    """The LAYER_METRICS values of one traced pass, except the overhead."""
    t = span_times(tracer)
    counts = tracer.counts

    def incl(name):
        return t.get(name, (0.0, 0.0))[0]

    def self_(name):
        return t.get(name, (0.0, 0.0))[1]

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return c(num) / c(den) if c(den) else 0.0

    return {
        "groebner.buchberger.self_s": self_("groebner.buchberger"),
        "groebner.update.s": incl("groebner.update"),
        "groebner.update.calls": c("groebner.update.calls"),
        "groebner.pairs.created": c("groebner.pairs.created"),
        "groebner.pairs.pruned": c("groebner.pairs.pruned"),
        "groebner.spoly.calls": c("groebner.spoly.calls"),
        "groebner.nf_spair.calls": c("groebner.nf_spair.calls"),
        "groebner.nf_spair.s": incl("groebner.nf_spair"),
        "groebner.nf_spair.zero_ratio": ratio(
            "groebner.nf_spair.zero", "groebner.nf_spair.calls"
        ),
        "groebner.nf_member.calls": c("groebner.nf_member.calls"),
        "groebner.nf_member.s": incl("groebner.nf_member"),
        "groebner.basis.cache_hit_ratio": ratio(
            "groebner.basis.hits", "groebner.basis.calls"
        ),
        "groebner.basis.builds": c("groebner.basis.builds"),
        "groebner.autoreduce.s": incl("groebner.autoreduce"),
        "groebner.basis.size": c("groebner.basis.size"),
        "groebner.basis.terms": c("groebner.basis.terms"),
        "groebner.coeff_bits.max": c("groebner.coeff_bits.max"),
        "linalg.rank.calls": c("linalg.rank.calls"),
        "linalg.rank.qq_s": incl("linalg.rank.qq"),
        "linalg.rank.gfp_s": incl("linalg.rank.gfp"),
        "linalg.rank.entries": c("linalg.rank.entries"),
        "linalg.rank.nonzero_ratio": ratio(
            "linalg.rank.nonzero", "linalg.rank.entries"
        ),
        "betti.assembly.self_s": self_("betti.assembly"),
        "monomial.s": incl("monomial"),
        "engine.route.self_s": self_("engine.route"),
        "engine.verify.calls": c("engine.verify.calls"),
        "engine.verify.s": incl("engine.verify"),
        "parse.s": incl("parse"),
        "cli.self_s": self_("cli"),
    }
