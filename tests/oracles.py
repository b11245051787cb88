"""Independent reference implementations used as test oracles.

Everything here is deliberately written without reusing the production
closure or query-evaluation code paths: closures are naive full-scan
fixpoints and the SPARQL evaluator follows the classical three-valued
definitions directly.  `assert_normal_form` runs the production
`saturate_fast` and checks its result against conditions that need no
reference result.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from anrdf.anql import algebra as alg
from anrdf.domains import AnnotationValue, Domain
from anrdf.domains.compound import Pair, saturate_fast
from anrdf.errors import SaturationBoundError
from anrdf.model import DOM, RANGE, SC, SP, TYPE, AnnotatedGraph, Term, Triple, iri
from anrdf.syntax import format_term

# -- crisp rho-df closure ------------------------------------------------------


def crisp_closure(triples: Iterable[Triple]) -> set[Triple]:
    """Naive fixpoint of the classical rules 2-5 on plain triples."""
    out = set(triples)
    changed = True
    while changed:
        changed = False
        fresh: set[Triple] = set()
        sp_edges = [(t.subject, t.object) for t in out if t.predicate == SP]
        sc_edges = [(t.subject, t.object) for t in out if t.predicate == SC]
        dom_edges = [(t.subject, t.object) for t in out if t.predicate == DOM]
        range_edges = [(t.subject, t.object) for t in out if t.predicate == RANGE]
        for (a, b), (c, d) in itertools.product(sp_edges, sp_edges):
            if b == c:
                fresh.add(Triple(a, SP, d))
        for a, b in sp_edges:
            for t in out:
                if t.predicate == a and b.kind != "literal":
                    fresh.add(Triple(t.subject, b, t.object))
        for (a, b), (c, d) in itertools.product(sc_edges, sc_edges):
            if b == c:
                fresh.add(Triple(a, SC, d))
        for a, b in sc_edges:
            for t in out:
                if t.predicate == TYPE and t.object == a:
                    fresh.add(Triple(t.subject, TYPE, b))
        for p, c in dom_edges:
            for t in out:
                if t.predicate == p:
                    fresh.add(Triple(t.subject, TYPE, c))
        for p, c in range_edges:
            for t in out:
                if t.predicate == p:
                    fresh.add(Triple(t.object, TYPE, c))
        for a, b in dom_edges:
            for d, a2 in sp_edges:
                if a2 == a:
                    for t in out:
                        if t.predicate == d:
                            fresh.add(Triple(t.subject, TYPE, b))
        for a, b in range_edges:
            for d, a2 in sp_edges:
                if a2 == a:
                    for t in out:
                        if t.predicate == d:
                            fresh.add(Triple(t.object, TYPE, b))
        if not fresh <= out:
            out |= fresh
            changed = True
    return out


def minimal_witnesses(triples: Sequence[Triple]) -> dict[Triple, set[frozenset[int]]]:
    """For each triple of the crisp closure of `triples`, the minimal sets
    of input positions whose crisp closure contains it, by brute force
    over every subset.  The closure is monotone, so a subset is minimal
    iff dropping any one of its members loses the triple."""
    closures = {
        frozenset(subset): crisp_closure({triples[i] for i in subset})
        for size in range(len(triples) + 1)
        for subset in itertools.combinations(range(len(triples)), size)
    }
    out: dict[Triple, set[frozenset[int]]] = {}
    for subset, closed in closures.items():
        for t in closed:
            if all(t not in closures[subset - {i}] for i in subset):
                out.setdefault(t, set()).add(subset)
    return out


# -- annotated entailment and brute-force closure -----------------------------


def entails(graph: AnnotatedGraph, t: Triple, value: AnnotationValue) -> bool:
    """True iff `graph` stores for t an annotation that subsumes `value`;
    bottom is entailed by every graph."""
    if value.is_bottom:
        return True
    stored = graph.get(t)
    return stored is not None and value.leq(stored)


def brute_force_closure(graph: AnnotatedGraph) -> dict[Triple, AnnotationValue]:
    """Apply every annotated rule to every statement combination until
    nothing changes; no agenda, no subsumption shortcuts."""
    store: dict[Triple, AnnotationValue] = {t: v for t, v in graph.statements()}

    def merge(t: Triple, v: AnnotationValue) -> bool:
        if v.is_bottom:
            return False
        old = store.get(t)
        new = v if old is None else old.join(v)
        if old is not None and new == old:
            return False
        store[t] = new
        return True

    changed = True
    while changed:
        changed = False
        items = list(store.items())
        for (t1, v1) in items:
            for (t2, v2) in items:
                v12 = v1.meet(v2)
                if t1.predicate == SP and t2.predicate == SP and t1.object == t2.subject:
                    changed |= merge(Triple(t1.subject, SP, t2.object), v12)
                if (
                    t1.predicate == SP
                    and t2.predicate == t1.subject
                    and t1.object.kind != "literal"
                ):
                    changed |= merge(Triple(t2.subject, t1.object, t2.object), v12)
                if t1.predicate == SC and t2.predicate == SC and t1.object == t2.subject:
                    changed |= merge(Triple(t1.subject, SC, t2.object), v12)
                if t1.predicate == SC and t2.predicate == TYPE and t2.object == t1.subject:
                    changed |= merge(Triple(t2.subject, TYPE, t1.object), v12)
                if t1.predicate == DOM and t2.predicate == t1.subject:
                    changed |= merge(Triple(t2.subject, TYPE, t1.object), v12)
                if t1.predicate == RANGE and t2.predicate == t1.subject:
                    changed |= merge(Triple(t2.object, TYPE, t1.object), v12)
                if t2.predicate != SP or t2.object != t1.subject:
                    continue
                # The three-premise rules, with t2 as (D sp A) of t1's A.
                for (t3, v3) in items:
                    if t3.predicate != t2.subject:
                        continue
                    if t1.predicate == DOM:
                        changed |= merge(Triple(t3.subject, TYPE, t1.object), v12.meet(v3))
                    if t1.predicate == RANGE:
                        changed |= merge(Triple(t3.object, TYPE, t1.object), v12.meet(v3))
    return store


# -- compound saturation -------------------------------------------------------

NAIVE_SATURATE_BOUND = 4


def saturate_naive(
    d1: Domain,
    d2: Domain,
    pairs: Iterable[Pair],
    bound: int = NAIVE_SATURATE_BOUND,
) -> set[Pair]:
    """Literal saturation: one entry per subset X of the powerset of the
    input, for each of the two fold orientations.  Doubly exponential;
    refuses inputs larger than `bound` pairs."""
    items = list(pairs)
    n = len(items)
    if n > bound:
        raise SaturationBoundError(
            f"naive saturation limited to {bound} pairs, got {n}"
        )
    m = 1 << n  # number of subsets J
    meet1 = [d1.top_payload] * m
    join1 = [d1.bottom_payload] * m
    join2 = [d2.bottom_payload] * m
    meet2 = [d2.top_payload] * m
    for mask in range(1, m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        x, y = items[low]
        meet1[mask] = d1.meet_payload(meet1[rest], x)
        join1[mask] = d1.join_payload(join1[rest], x)
        join2[mask] = d2.join_payload(join2[rest], y)
        meet2[mask] = d2.meet_payload(meet2[rest], y)
    # X ranges over sets of subsets; fold incrementally over X's low member.
    out: set[Pair] = set()
    line1 = [(d1.bottom_payload, d2.top_payload)] * (1 << m)
    line2 = [(d1.top_payload, d2.bottom_payload)] * (1 << m)
    for xmask in range(1 << m):
        if xmask:
            low = (xmask & -xmask).bit_length() - 1
            rest = xmask & (xmask - 1)
            a1, b1 = line1[rest]
            line1[xmask] = (
                d1.join_payload(a1, meet1[low]),
                d2.meet_payload(b1, join2[low]),
            )
            a2, b2 = line2[rest]
            line2[xmask] = (
                d1.meet_payload(a2, join1[low]),
                d2.join_payload(b2, meet2[low]),
            )
        out.add(line1[xmask])
        out.add(line2[xmask])
    return out


def reduce_pairs(d1: Domain, d2: Domain, pairs: Iterable[Pair]) -> set[Pair]:
    """Drop pairs with a bottom component and pairs dominated by a
    distinct pair in both components."""
    bot1, bot2 = d1.bottom_payload, d2.bottom_payload
    live = {p for p in pairs if p[0] != bot1 and p[1] != bot2}
    return {
        p
        for p in live
        if not any(
            q != p
            and d1.leq_payload(p[0], q[0])
            and d2.leq_payload(p[1], q[1])
            for q in live
        )
    }


class Recording(Domain):
    """A component domain that logs the operands of one payload kernel."""

    def __init__(self, inner: Domain, kernel: str):
        self.inner, self.kernel, self.calls = inner, kernel, []
        self.name, self.is_lattice = inner.name, inner.is_lattice
        self.bottom_payload, self.top_payload = inner.bottom_payload, inner.top_payload

    def _call(self, kernel, a, b):
        if kernel == self.kernel:
            self.calls.append((a, b))
        return getattr(self.inner, kernel)(a, b)

    def join_payload(self, a, b):
        return self._call("join_payload", a, b)

    def meet_payload(self, a, b):
        return self._call("meet_payload", a, b)

    def leq_payload(self, a, b):
        return self.inner.leq_payload(a, b)

    def format_payload(self, payload):
        return self.inner.format_payload(payload)

    def validate_payload(self, payload):
        return self.inner.validate_payload(payload)

    def sort_key(self, payload):
        return self.inner.sort_key(payload)


def combinations(rec1: Recording, rec2: Recording) -> list[tuple[Pair, Pair]]:
    """The popped pair and the earlier member of the front of every
    combination, in order, from a D1 meet log and a D2 join log."""
    assert len(rec1.calls) == len(rec2.calls)
    return [((x, y), (u, v)) for (x, u), (y, v) in zip(rec1.calls, rec2.calls)]


def assert_normal_form(d1: Domain, d2: Domain, raw, closed) -> int:
    """Run `saturate_fast(d1, d2, raw, closed)` and assert conditions
    (a)-(d) of `TestNormalFormWithoutOracle` (`test_compound.py`, which
    proves that they make the result the normal form) on its result;
    return the result's size."""
    bot1, bot2 = d1.bottom_payload, d2.bottom_payload
    rec1, rec2 = Recording(d1, "meet_payload"), Recording(d2, "join_payload")
    result = saturate_fast(rec1, rec2, raw, closed=closed)

    def low(e, f):
        return d1.meet_payload(e[0], f[0]), d2.join_payload(e[1], f[1])

    def high(e, f):
        return d1.join_payload(e[0], f[0]), d2.meet_payload(e[1], f[1])

    def below(d, r):
        return d1.leq_payload(d[0], r[0]) and d2.leq_payload(d[1], r[1])

    def covered(d):
        return d[0] == bot1 or d[1] == bot2 or any(below(d, r) for r in result)

    members = sorted(result, key=repr)
    for r in members:  # (a)
        assert r[0] != bot1 and r[1] != bot2, r
        assert not any(below(r, s) for s in members if s != r), r
    for d in [*raw, *closed]:  # (b)
        assert covered(d), d
    for i, r in enumerate(members):  # (c)
        for s in members[i:]:
            assert covered(low(r, s)) and covered(high(r, s)), (r, s)
    known = {*raw, *closed}  # (d)
    for p, q in combinations(rec1, rec2):
        assert p in known and q in known, (p, q)
        known.update((low(p, q), high(p, q)))
    assert result <= known
    return len(result)


# -- provenance truth tables ---------------------------------------------------


def dnf_implies_by_truth_table(a, b) -> bool:
    """Exhaustive implication check for monotone DNFs over few atoms."""
    atoms = sorted({atom for clause in a for atom in clause} | {
        atom for clause in b for atom in clause
    })

    def holds(dnf, assignment) -> bool:
        return any(all(assignment[atom] for atom in clause) for clause in dnf)

    for bits in itertools.product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, bits))
        if holds(a, assignment) and not holds(b, assignment):
            return False
    return True


# -- classical SPARQL evaluation ----------------------------------------------

Mapping = dict[str, Term]


def _compatible(a: Mapping, b: Mapping) -> bool:
    return all(a[k] == b[k] for k in a.keys() & b.keys())


def _bgp_eval(triples: Iterable[Triple], patterns) -> list[Mapping]:
    rows: list[Mapping] = [{}]
    for tp in patterns:
        next_rows = []
        for row in rows:
            for t in sorted(triples):
                binding = dict(row)
                ok = True
                for slot, term in (
                    (tp.subject, t.subject),
                    (tp.predicate, t.predicate),
                    (tp.object, t.object),
                ):
                    if isinstance(slot, alg.Var):
                        if binding.get(slot.name, term) != term:
                            ok = False
                            break
                        binding[slot.name] = term
                    elif slot != term:
                        ok = False
                        break
                if ok:
                    next_rows.append(binding)
        rows = next_rows
    return rows


def _filter_value(expr: alg.FilterExpr, row: Mapping) -> str:
    if isinstance(expr, alg.Bound):
        return "true" if expr.var.name in row else "false"
    if isinstance(expr, alg.IsKind):
        operand = expr.operand
        if isinstance(operand, alg.Var):
            if operand.name not in row:
                return "error"
            operand = row[operand.name]
        return "true" if isinstance(operand, Term) and operand.kind == expr.kind else "false"
    if isinstance(expr, alg.Eq):
        values = []
        for operand in (expr.left, expr.right):
            if isinstance(operand, alg.Var):
                if operand.name not in row:
                    return "error"
                values.append(row[operand.name])
            else:
                values.append(operand)
        return "true" if values[0] == values[1] else "false"
    if isinstance(expr, alg.Not):
        inner = _filter_value(expr.inner, row)
        if inner == "error":
            return "error"
        return "false" if inner == "true" else "true"
    if isinstance(expr, alg.Or):
        left, right = _filter_value(expr.left, row), _filter_value(expr.right, row)
        if "true" in (left, right):
            return "true"
        if "error" in (left, right):
            return "error"
        return "false"
    if isinstance(expr, alg.And):
        left, right = _filter_value(expr.left, row), _filter_value(expr.right, row)
        if "false" in (left, right):
            return "false"
        if "error" in (left, right):
            return "error"
        return "true"
    raise TypeError(f"oracle cannot evaluate {expr!r}")


def sparql_eval(triples: Iterable[Triple], pattern: alg.Pattern) -> list[Mapping]:
    """Classical evaluation of an annotation-free AND/UNION/OPTIONAL/FILTER
    pattern over a plain graph."""
    if isinstance(pattern, alg.Bap):
        return _bgp_eval(triples, pattern.patterns)
    if isinstance(pattern, alg.Join):
        left = sparql_eval(triples, pattern.left)
        right = sparql_eval(triples, pattern.right)
        return [
            {**a, **b} for a in left for b in right if _compatible(a, b)
        ]
    if isinstance(pattern, alg.Union):
        return sparql_eval(triples, pattern.left) + sparql_eval(triples, pattern.right)
    if isinstance(pattern, alg.Filter):
        return [
            row
            for row in sparql_eval(triples, pattern.pattern)
            if _filter_value(pattern.expr, row) == "true"
        ]
    if isinstance(pattern, alg.Optional):
        left_rows = sparql_eval(triples, pattern.left)
        right_rows = sparql_eval(triples, pattern.right)
        out = []
        for row in left_rows:
            compatible = [r for r in right_rows if _compatible(row, r)]
            merged_true = []
            all_false = True
            for other in compatible:
                merged = {**row, **other}
                verdict = (
                    "true"
                    if pattern.filter is None
                    else _filter_value(pattern.filter, merged)
                )
                if verdict == "true":
                    merged_true.append(merged)
                if verdict != "false":
                    all_false = False
            out.extend(merged_true)
            if not compatible:
                out.append(row)
            elif not merged_true and all_false:
                out.append(row)
        return out
    raise TypeError(f"oracle cannot evaluate {pattern!r}")


# -- the exx2 OPTIONAL query ---------------------------------------------------


def exx2_oracle(closed: AnnotatedGraph) -> list[dict]:
    """The answers of `data/queries/exx2.anql` on `closed`, by a literal
    transcription of the three OPTIONAL cases, independent of the
    engine's operator code.  The right side shares no annotation
    variable with the left, so case (2) never keeps a bare row."""
    left = [
        {"p": t.subject, "l": v}
        for t, v in closed.statements()
        if t.predicate == TYPE and t.object == iri("ebayEmp")
    ]
    right = [
        {"p": t.subject, "c": t.object, "l2": v}
        for t, v in closed.statements()
        if t.predicate == iri("hasCar")
    ]
    out = []
    for l_row in left:
        compat = [r for r in right if r["p"] == l_row["p"]]
        verdicts = []
        for r_row in compat:
            merged = {**l_row, **r_row}
            verdicts.append(merged["l2"].leq(merged["l"]))
            if verdicts[-1]:
                out.append({k: merged[k] for k in ("p", "l", "c")})
        if not compat or not any(verdicts):
            out.append(dict(l_row))
    return out


# -- maximal answers -----------------------------------------------------------


def _subsumed(big: dict, small: dict) -> bool:
    """`small` is a distinct row with `big`'s keys and term values whose
    every annotation is below `big`'s in the same domain."""
    if small == big or small.keys() != big.keys():
        return False
    for key, vs in small.items():
        vb = big[key]
        if isinstance(vs, AnnotationValue) and isinstance(vb, AnnotationValue):
            if vs.domain.name != vb.domain.name or not vs.leq(vb):
                return False
        elif vs != vb:
            return False
    return True


def prune_maximal_pairwise(rows: list[dict]) -> list[dict]:
    """Keep the rows no other row subsumes, comparing every pair; input
    order and duplicates are kept."""
    return [s for s in rows if not any(_subsumed(other, s) for other in rows)]


# -- statement lines -----------------------------------------------------------


def format_statement(t: Triple, value: AnnotationValue | None) -> str:
    """The line `serialize_graph` writes for one statement, with each term
    and the value formatted afresh."""
    spo = " ".join(format_term(x) for x in t)
    return f"{spo} ." if value is None else f"({spo}) : {value.serialize()} ."


# -- random generators ---------------------------------------------------------


def individual(i: int) -> Term:
    """Individual `i` of the random graphs and patterns: `a<i>` for even
    and `z<i>` for odd `i`.  They sort on both sides of every class
    `c<j>` and property `p<j>`, and `closure` starts its agenda in sorted
    order, so input data triples reach the rules both before and after
    the schema triples they meet."""
    return iri(f"z{i}" if i % 2 else f"a{i}")


def random_crisp_graph(
    rng: random.Random, max_triples: int = 30, vocabulary: int = 1
) -> list[Triple]:
    """Up to `max_triples` random rho-df and data triples, distinct and in
    the order they were drawn, which does not depend on how terms are
    named.  `vocabulary` multiplies the number of properties, classes and
    individuals, so larger graphs do not saturate the closure."""
    properties = [iri(f"p{i}") for i in range(4 * vocabulary)]
    classes = [iri(f"c{i}") for i in range(4 * vocabulary)]
    individuals = [individual(i) for i in range(6 * vocabulary)]
    out: dict[Triple, None] = {}
    for _ in range(rng.randint(1, max_triples)):
        shape = rng.randrange(6)
        if shape == 0:
            t = Triple(rng.choice(properties), SP, rng.choice(properties))
        elif shape == 1:
            t = Triple(rng.choice(classes), SC, rng.choice(classes))
        elif shape == 2:
            t = Triple(rng.choice(individuals), TYPE, rng.choice(classes))
        elif shape == 3:
            t = Triple(rng.choice(properties), DOM, rng.choice(classes))
        elif shape == 4:
            t = Triple(rng.choice(properties), RANGE, rng.choice(classes))
        else:
            t = Triple(
                rng.choice(individuals), rng.choice(properties), rng.choice(individuals)
            )
        out[t] = None
    return list(out)


def top_annotated(triples: Iterable[Triple], domain: Domain) -> AnnotatedGraph:
    graph = AnnotatedGraph(domain)
    top = domain.top
    for t in triples:
        graph.insert(t, top)
    return graph


_VARS = [alg.Var(name) for name in "xyzuv"]


def random_triple_pattern(
    rng: random.Random, anchors: Sequence[Triple] = ()
) -> alg.TriplePattern:
    """A pattern over the constants `individual(0)`-`individual(5)` and
    `p0`-`p3`; with `anchors`, a pattern made from one of these triples
    instead, so that patterns of several triples can match together.
    Either way each position becomes a variable with probability 0.6."""
    terms = [individual(i) for i in range(6)] + [iri(f"p{i}") for i in range(4)]

    def slot(pool):
        return rng.choice(_VARS) if rng.random() < 0.6 else rng.choice(pool)

    if anchors:
        t = rng.choice(anchors)
        return alg.TriplePattern(
            slot([t.subject]), slot([t.predicate]), slot([t.object]), None
        )
    return alg.TriplePattern(
        slot(terms), slot([iri(f"p{i}") for i in range(4)]), slot(terms), None
    )


def random_filter_expr(rng: random.Random, depth: int = 2) -> alg.FilterExpr:
    if depth > 0 and rng.random() < 0.4:
        shape = rng.randrange(3)
        if shape == 0:
            return alg.Not(random_filter_expr(rng, depth - 1))
        left = random_filter_expr(rng, depth - 1)
        right = random_filter_expr(rng, depth - 1)
        return alg.Or(left, right) if shape == 1 else alg.And(left, right)
    shape = rng.randrange(4)
    var = rng.choice(_VARS)
    if shape == 0:
        return alg.Bound(var)
    if shape == 1:
        return alg.IsKind("iri", var)
    if shape == 2:
        return alg.Eq(var, rng.choice(_VARS))
    return alg.Eq(var, individual(rng.randrange(6)))


def random_pattern(
    rng: random.Random, depth: int = 3, anchors: Sequence[Triple] = ()
) -> alg.Pattern:
    """A random pattern tree; `anchors` is passed to every
    `random_triple_pattern`."""
    if depth == 0 or rng.random() < 0.4:
        return alg.Bap(
            tuple(
                random_triple_pattern(rng, anchors) for _ in range(rng.randint(1, 3))
            )
        )

    def sub() -> alg.Pattern:
        return random_pattern(rng, depth - 1, anchors)

    shape = rng.randrange(4)
    if shape == 0:
        return alg.Join(sub(), sub())
    if shape == 1:
        return alg.Union(sub(), sub())
    if shape == 2:
        guard = random_filter_expr(rng) if rng.random() < 0.5 else None
        return alg.Optional(sub(), sub(), guard)
    return alg.Filter(sub(), random_filter_expr(rng))
