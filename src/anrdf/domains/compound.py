"""Compound annotation domains built from two primitive domains.

A compound value is a finite set of pairs <x, y> (x from D1, y from D2)
whose meaning is the function mapping each z in L1 to the least upper
bound of `meet2-fold of the y's over J` across all subsets J of the pair
set whose joined x's dominate z.  Such functions are quasihomomorphisms:
they flip join and meet into bounds in the second domain and are antitone.

Distinct pair sets can denote the same function, so values are kept in a
canonical normal form computed by saturation (adding every pair derivable
with the component operations) followed by reduction (dropping pairs
dominated componentwise and pairs with a bottom component).  The textbook
saturation enumerates subsets of the powerset of the input and is doubly
exponential; a size-capped copy of it is the test oracle.  `normalise`
instead closes the set under the two pairwise combinators

    <a, b>, <c, d>  ->  <a meet1 c, b join2 d>
    <a, b>, <c, d>  ->  <a join1 c, b meet2 d>

while maintaining a dominance antichain free of bottom components.  That
antichain is already reduced, and it is the same normal form as the
textbook construction's on every input the oracle can handle.  A value
is that antichain as a frozenset of pairs, with no order of its own;
`format_payload` prints the pairs ordered by their D1 literal, then
their D2 literal.

A join does not start from scratch.  Both operands are normal forms, so
each is closed: any combination of two of its members is dominated by a
member of it.  The join therefore seeds the antichain with the larger
operand as already closed and queues only the smaller operand's pairs,
so no combination inside the larger operand is formed again.  This is
sound for the same reason the pruning is: when a member of the closed
operand is later dropped, the pair that dominates it also dominates
every combination it dominated, because dominance is transitive, and
that pair is queued.  Meets, parsing and validation cross or read raw
pairs and go through `normalise`.

A value is a frozenset, which iterates in hash order, so a join and
validation hand the kernel each operand's pairs sorted by their
components' `sort_key`s, and parsing hands it a literal's pairs in the
order they are written.  A component's `sort_key` tells its canonical
values apart (it is the number itself, or ends in the literal text), so
the order, and with it the work and whether the step cap is reached,
follows the values alone.  A meet needs no order, because the crossing
of two normal forms a and b is closed.  Take crossed pairs
<x1 meet1 x2, y1 meet2 y2> and <x1' meet1 x2', y1' meet2 y2'> with
<x1, y1>, <x1', y1'> in a and <x2, y2>, <x2', y2'> in b.  Their first
combination is under the crossing of <x1 meet1 x1', y1 join2 y1'> with
<x2 meet1 x2', y2 join2 y2'>: meet2 is monotone, so
(y1 meet2 y2) join2 (y1' meet2 y2') <= (y1 join2 y1') meet2 (y2 join2 y2').
Their second is under the crossing of <x1 join1 x1', y1 meet2 y1'> with
<x2 join1 x2', y2 meet2 y2'>: in any lattice
(x1 meet1 x2) join1 (x1' meet1 x2') <= (x1 join1 x1') meet1 (x2 join1 x2'),
and meet2 is associative and commutative.  a and b are closed, so those
two pairs lie under members of a and of b, and by monotonicity each
combination lies under a crossed pair.  So the saturation keeps no
derived pair: it combines each two members of the result once, and its
work, cap included, does not depend on the order of the crossing.

The saturation loop is semi-naive (Bancilhon and Ramakrishnan, SIGMOD
1986): each pair of members is combined once, by whichever of the two
is processed later.  The front is one insertion-ordered dict that the
closed operand enters first; every pair that enters it later is queued,
and the queue is first in, first out.  So the members that entered the
front before a popped pair are the closed operand and the pairs already
popped, and the popped pair is combined only with those still in the
front: never with itself (both combinators applied to <x, y> and
<x, y> give pairs under <x, y>) nor with a member that entered after
it, which meets the popped pair when its own turn comes.  So each
unordered pair of surviving members is combined at most once, and
never a derived pair with its parents or sibling.  The work follows
the order in which `pairs` and `closed` are iterated and nothing else.
The pruning argument carries over: a dropped member's dominator entered
the front after it, so it meets every member the dropped one met or
would have met, by whichever of the two is popped later.

The lattice laws decide the combinations a derived pair skips.  Combining
a popped p = <a, b> with an earlier member q = <c, d> derives the
siblings low = <a meet1 c, b join2 d> and high = <a join1 c, b meet2 d>,
and each is queued tagged with p, q and its sibling, with which it is not
combined when it is popped.  Each such combination gives a pair equal to
one of p, low, high (or q, by symmetry) or under one of them:

    low with p:     <a meet1 c, b join2 d> = low,  <a, (b join2 d) meet2 b> <= p
    high with p:    <a, b> = p,                    <a join1 c, (b meet2 d) meet2 b> <= high
    low with high:  <a meet1 c, b join2 d> = low,  <a join1 c, (b join2 d) meet2 (b meet2 d)> <= high

The first components use only that D1 is a lattice: meet1 and join1 are
idempotent, commutative and associative, absorption gives
(a meet1 c) join1 a = a and (a join1 c) meet1 a = a, and
a meet1 c <= a join1 c.  The second use that join2 is idempotent,
commutative and associative, that the D2 order is the one join2
induces, and that meet2 is commutative and bounded (y meet2 w <= y, the
"meet bounded" law that criterion 09 checks for every D2), so
b meet2 d <= b <= b join2 d.  The argument uses no distributivity, so it
covers `fuzzy:product` and `fuzzy:lukasiewicz` too.  Now every pair that
has been offered or has seeded the front stays equal to or under a
member of the front: `offer` keeps a pair only when no member equals or
dominates it, a member leaves only for a pair that dominates it, and
dominance is transitive.  p, q and both siblings are such pairs, so
`offer` would drop both results of a skipped combination and change
nothing: the loop ends with the same front as one that forms every
combination, having formed fewer.  A sibling that was in the front
before the combination derived it keeps its own tag, but it entered
earlier, so only the derived pair could combine the two, and its tag
skips that.

The order needs no join.  For normal forms a and b, a <= b (that is,
a join b == b) iff every pair of a lies componentwise under some pair of
b, which `CompoundDomain.leq_payload` tests directly.

  (<=) Both combinators are monotone in each argument, so every
  combination that uses a pair of a is dominated by the same
  combination with that pair's dominator in b.  By induction every pair
  derivable from a and b together lies under one derivable from b
  alone, so the maximal pairs of the closure of a and b are those of b,
  which are b itself because b is a normal form.
  (=>) `saturate_fast` drops an offered pair with no bottom component
  (a normal form has none) only when a member of the antichain equals
  or dominates it, and a member leaves the antichain only when a pair
  that dominates it enters.  Dominance is transitive, so every pair of
  a ends under a member of the result, and the result is b.

The argument uses only monotone combinators and the component orders
induced by their joins (criterion 09 checks both); it does not use
distributivity, so it covers `fuzzy:product` as well.

Normalisation is only sound when D1 is a lattice (meet1 must be the
greatest lower bound), which is enforced when the domain is constructed.

A compound satisfies every semiring law of `anrdf.domains.base` except
one when meet2 is not idempotent (`fuzzy:product`,
`fuzzy:lukasiewicz`): meet then distributes over join only up to the
inequality

    (a meet b) join (a meet c)  <=  a meet (b join c)

Witness (product t-norm): with a = {<{[0,1],[4,5]}, 0.5>},
b = {<{[0,1]}, 1>} and c = {<{[4,5]}, 1>}, the right side is a itself,
0.5 over the union, while the left side normalises to
{<{[0,1],[4,5]}, 0.25>, <{[0,1]}, 0.5>, <{[4,5]}, 0.5>}: re-joining the
two halves with the second combinator above multiplies the shared
degree in twice, so only 0.25 is certified over the union.  With an
idempotent meet2 (`boolean`, `fuzzy:min`, `provenance`) the equality
holds.
"""

from __future__ import annotations

import random
from itertools import takewhile
from typing import Any, Iterable

from ..errors import AnnotationSyntaxError, NotALatticeError, SaturationBoundError
from .axioms import AxiomReport
from .base import Domain, split_top_level

Pair = tuple[Any, Any]

# The most combination results one saturation may form; a combination
# that the lattice laws decide forms none and counts no step.
_FAST_SATURATE_CAP = 200_000


def evaluate(d1: Domain, d2: Domain, pairs: Iterable[Pair], z: Any) -> Any:
    """Apply the function denoted by `pairs` to the D1 value `z`.

    Returns bottom of D2 when no subset of the pairs covers `z`.
    """
    if not d1.is_lattice:
        raise NotALatticeError(f"{d1.name} is not a lattice")
    items = list(pairs)
    n = len(items)
    # Incremental subset folds over bitmasks: joins of x's, meets of y's.
    join1 = [d1.bottom_payload] * (1 << n)
    meet2 = [d2.top_payload] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        join1[mask] = d1.join_payload(join1[rest], items[low][0])
        meet2[mask] = d2.meet_payload(meet2[rest], items[low][1])
    result = d2.bottom_payload
    for mask in range(1 << n):
        if d1.leq_payload(z, join1[mask]):
            result = d2.join_payload(result, meet2[mask])
    return result


def saturate_fast(
    d1: Domain, d2: Domain, pairs: Iterable[Pair], closed: Iterable[Pair] = ()
) -> frozenset[Pair]:
    """Fixpoint closure under the two pairwise combinators, pruned to a
    dominance antichain at every step.

    Dominated pairs can only generate dominated pairs (both combinators
    are monotone in each argument), so pruning preserves the maximal
    elements of the full closure.  `closed` must be a bottom-free
    antichain closed under the combinators (a normal form): it seeds the
    antichain, and only `pairs` are queued (see the module docstring).
    The loop is semi-naive over the front in the order its members
    entered: pairs leave the queue in the order they joined it, and a
    popped pair meets only the members that entered the front before
    it, so each unordered pair of surviving members is combined at most
    once and no pair with itself.  Each member carries the pairs it is
    never combined with: for a pair that a combination derived, its two
    parents and its sibling, whose combinations with it the lattice
    laws decide (module docstring).  A step is one combination result
    that is formed; combinations skipped that way form none and count
    no step.
    """
    bot1, bot2 = d1.bottom_payload, d2.bottom_payload
    meet1, join1, leq1 = d1.meet_payload, d1.join_payload, d1.leq_payload
    meet2, join2, leq2 = d2.meet_payload, d2.join_payload, d2.leq_payload

    # The antichain in the order its members entered, each mapped to the
    # pairs it is not combined with.
    front: dict[Pair, tuple[Pair, ...]] = dict.fromkeys(closed, ())
    queue: list[Pair] = []

    def offer(r: Pair, skip: tuple[Pair, ...]) -> None:
        # Keep `r` unless it has a bottom component or a member of the
        # front equals or dominates it; then drop the members it dominates.
        x, y = r
        if x == bot1 or y == bot2 or r in front:
            return
        for u, v in front:
            if leq1(x, u) and leq2(y, v):
                return
        for q in [q for q in front if leq1(q[0], x) and leq2(q[1], y)]:
            del front[q]
        front[r] = skip
        queue.append(r)

    for p in pairs:
        offer(p, ())
    steps = 0
    for p in queue:  # first in, first out: it also reads the pairs offered below
        skip = front.get(p)
        if skip is None:
            continue  # pruned while waiting
        x, y = p
        for q in [q for q in takewhile(lambda m: m is not p, front) if q not in skip]:
            u, v = q
            low = (meet1(x, u), join2(y, v))
            high = (join1(x, u), meet2(y, v))
            for r, sibling in ((low, high), (high, low)):
                steps += 1
                if steps > _FAST_SATURATE_CAP:
                    raise SaturationBoundError(
                        f"compound saturation exceeded its cap of {_FAST_SATURATE_CAP} steps"
                    )
                offer(r, (p, q, sibling))
    return frozenset(front)


def normalise(d1: Domain, d2: Domain, pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Canonical representative of the pair set, preserving its function."""
    if not d1.is_lattice:
        raise NotALatticeError(f"{d1.name} is not a lattice")
    return saturate_fast(d1, d2, pairs)


def generated_sublattice(d1: Domain, xs: Iterable[Any]) -> set[Any]:
    """Close `xs` (plus bottom and top) under join and meet of D1.

    The function denoted by a pair set is determined by its restriction
    to this finite set, which justifies the finite canonicity checks.
    """
    values = set(xs) | {d1.bottom_payload, d1.top_payload}
    while True:
        fresh = set()
        for a in values:
            for b in values:
                for c in (d1.join_payload(a, b), d1.meet_payload(a, b)):
                    if c not in values:
                        fresh.add(c)
        if not fresh:
            return values
        values |= fresh


class CompoundDomain(Domain):
    """Annotation domain of normalised pair sets over (D1, D2)."""

    bottom_payload = frozenset()

    def __init__(self, d1: Domain, d2: Domain):
        if not d1.is_lattice:
            raise NotALatticeError(
                f"compound domains need a lattice first component; "
                f"{d1.name} does not satisfy the greatest-lower-bound law "
                f"(use temporal, fuzzy:min, boolean, or provenance)"
            )
        self.d1 = d1
        self.d2 = d2
        self.name = f"compound({d1.name},{d2.name})"
        self.is_lattice = False
        # Distributivity holds exactly when meet2 is idempotent, which
        # under the semiring laws is when it is the greatest lower bound.
        self.meet_distributes = d2.is_lattice
        self.top_payload = frozenset({(d1.top_payload, d2.top_payload)})

    def _in_order(self, pairs: Iterable[Pair]) -> list[Pair]:
        # Canonical pairs, in an order that does not follow the hash seed.
        key1, key2 = self.d1.sort_key, self.d2.sort_key
        return sorted(pairs, key=lambda p: (key1(p[0]), key2(p[1])))

    def join_payload(self, a, b):
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        return saturate_fast(self.d1, self.d2, self._in_order(small), self._in_order(large))

    def leq_payload(self, a, b):
        # Componentwise cover; the module docstring proves it is the
        # join-induced order.
        leq1, leq2 = self.d1.leq_payload, self.d2.leq_payload
        return all(any(leq1(x, u) and leq2(y, v) for u, v in b) for x, y in a)

    def meet_payload(self, a, b):
        # The crossing is closed (module docstring), so its work does
        # not follow the order of `a` and `b`.
        crossed = [
            (self.d1.meet_payload(x1, x2), self.d2.meet_payload(y1, y2))
            for (x1, y1) in a
            for (x2, y2) in b
        ]
        return normalise(self.d1, self.d2, crossed)

    def parse_payload(self, text: str):
        s = text.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise AnnotationSyntaxError(f"compound literal must be {{...}}: {text!r}")
        body = s[1:-1].strip()
        pairs = []
        for chunk in split_top_level(body):
            inner = chunk.strip()
            if not (inner.startswith("<") and inner.endswith(">")):
                raise AnnotationSyntaxError(f"compound pair must be <...>: {chunk!r}")
            components = split_top_level(inner[1:-1])
            if len(components) < 2:
                raise AnnotationSyntaxError(f"compound pair needs two components: {inner}")
            left, right = components[0].strip(), ",".join(components[1:]).strip()
            pairs.append((self.d1.parse_payload(left), self.d2.parse_payload(right)))
        return normalise(self.d1, self.d2, pairs)

    def format_payload(self, payload) -> str:
        rendered = sorted(
            (self.d1.format_payload(x), self.d2.format_payload(y)) for x, y in payload
        )
        return "{" + ",".join(f"<{x},{y}>" for x, y in rendered) + "}"

    def validate_payload(self, payload):
        pairs = self._in_order(
            (self.d1.validate_payload(x), self.d2.validate_payload(y))
            for x, y in payload
        )
        return normalise(self.d1, self.d2, pairs)

    def random_payload(self, rng):
        pairs = [
            (self.d1.random_payload(rng), self.d2.random_payload(rng))
            for _ in range(rng.randint(0, 2))
        ]
        return normalise(self.d1, self.d2, pairs)

    def sort_key(self, payload) -> tuple:
        return (len(payload), self.format_payload(payload))


def quasihomomorphism_suite(
    domain: CompoundDomain, trials: int = 100, seed: int = 0
) -> AxiomReport:
    """Property checks specific to compound domains: the two
    quasihomomorphism bounds, antitonicity, and soundness/idempotence of
    normalisation on sampled pair sets."""
    d1, d2 = domain.d1, domain.d2
    rng = random.Random(seed)
    report = AxiomReport(domain=domain.name, seed=seed, exhaustive=False)

    def sample_raw() -> list[Pair]:
        return [
            (d1.random_payload(rng), d2.random_payload(rng))
            for _ in range(rng.randint(1, 3))
        ]

    def check_quasi() -> str | None:
        pairs = sample_raw()
        z1, z2 = d1.random_payload(rng), d1.random_payload(rng)
        fz1 = evaluate(d1, d2, pairs, z1)
        fz2 = evaluate(d1, d2, pairs, z2)
        fj = evaluate(d1, d2, pairs, d1.join_payload(z1, z2))
        fm = evaluate(d1, d2, pairs, d1.meet_payload(z1, z2))
        if not d2.leq_payload(d2.meet_payload(fz1, fz2), fj):
            return f"join bound fails on {pairs} at {z1}, {z2}"
        if not d2.leq_payload(d2.join_payload(fz1, fz2), fm):
            return f"meet bound fails on {pairs} at {z1}, {z2}"
        return None

    def check_antitone() -> str | None:
        pairs = sample_raw()
        z1 = d1.random_payload(rng)
        z2 = d1.join_payload(z1, d1.random_payload(rng))  # z1 <= z2
        if not d2.leq_payload(
            evaluate(d1, d2, pairs, z2), evaluate(d1, d2, pairs, z1)
        ):
            return f"antitone fails on {pairs} at {z1} <= {z2}"
        return None

    def check_sound() -> str | None:
        pairs = sample_raw()
        normal = normalise(d1, d2, pairs)
        probe = list(generated_sublattice(d1, [x for x, _ in pairs]))
        probe.append(d1.random_payload(rng))
        for z in probe:
            if evaluate(d1, d2, pairs, z) != evaluate(d1, d2, normal, z):
                return f"normalise changes the function of {pairs} at {z}"
        return None

    def check_idempotent() -> str | None:
        pairs = sample_raw()
        normal = normalise(d1, d2, pairs)
        if normalise(d1, d2, normal) != normal:
            return f"normalise not idempotent on {pairs}"
        return None

    for name, check in (
        ("quasihomomorphism bounds", check_quasi),
        ("antitone", check_antitone),
        ("normalisation preserves the function", check_sound),
        ("normalisation idempotent", check_idempotent),
    ):
        report.record(name, (check() for _ in range(trials)))
    return report
