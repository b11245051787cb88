"""AnQL query parser.

    SELECT ?p ?l ?c WHERE {
        (?p type ebayEmp):?l
        OPTIONAL{(?p hasCar ?c):?l}
    }

Patterns inside WHERE combine left to right: runs of triple patterns
form a basic annotated pattern, groups join with AND (or with UNION when
written `{...} UNION {...}`), OPTIONAL attaches to everything parsed so
far, FILTER/ASSIGN/GROUPBY wrap it, ORDERBY and LIMIT sort or cut it
(each a `SubSelect` with no projection, so `ORDERBY ?v LIMIT n` is two
nodes), and a sub-SELECT joins it, as a group does.  A FILTER written
last inside an OPTIONAL group becomes the optional's guard expression,
which may mention variables of the outer pattern.

Terms are read by the scanner shared with the data format
(`anrdf.syntax.lexer`), plus `?var`; blank nodes are data-only.
Keywords are case-insensitive; structural dots between statements are
optional.  Filter expressions support BOUND/isIRI/isBLANK/isLITERAL,
`=`, `!=`, the domain order `<=`, `!`, `&&`, `||`, and registered
built-in tests; a built-in function (`length`, `maxlength`, `join`,
`meet`) yields a value, not a truth value, so as a condition it is a
`ParseError` at its name.  In a filter, a `(` opens a group unless a
`?variable` or annotation literal followed by `<=`, `=` or `!=` starts
there (`_comparison_ahead`), as in the provenance `(a ^ b) <= ?l`.
The operands of a run of `&&`, or of `||`, join in a balanced tree, so
a long run adds few levels to the pattern (`algebra`'s depth rule);
both operators are associative in the three-valued filter logic, and a
run of `!` folds by its parity, since `!` maps error to error.  A query
is its outermost SELECT, one `SubSelect` node that applies the query's
ORDERBY and LIMIT itself, so it is one level over its pattern: a node
of the pattern that reaches `algebra.MAX_DEPTH` is refused where it is
built, as a `ParseError` at the construct that built it (`_build`), and
groups and a filter's `(`, which need build no node, nest at most
`MAX_DEPTH` levels in the text: the opening that crosses it is a
`ParseError`.

GROUPBY's rules are checked here, before evaluation, as the built-in
calls are, and each is a `ParseError` at its position: no aggregate
argument may be a grouping key, and no aggregate target may be a
variable the grouped pattern can bind (`algebra.bindings`).

Every annotation constant is read one way.  A label is `?var` or a
literal of the query's domain, read as the data format reads one
(`annotation_literal`) and parsed by the domain, so a query can name
every stored value.  Labels stand after `(s p o):`, on both sides of
`<=`, and as every argument of a registered built-in (`length`,
`maxlength`, `join`, `meet`, the type probes and the Allen relations),
because all of these take annotation values.  The operands of `=`,
`!=`, isIRI, isBLANK and isLITERAL, and the single operand of an
identity ASSIGN or aggregate, are read as a `?var`, a number, a
bracketed annotation literal, `true`/`false` or a term.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..domains import Domain, get_domain
from ..errors import AnnotationSyntaxError, AnrdfError, ParseError
from ..model import IRI, LITERAL, SKOLEM
from ..rational import parse_scalar
from ..anql import algebra as alg
from ..anql.builtins import ARITY, FUNCTIONS, TESTS
from .lexer import NAME_RE, Scanner

_AGGREGATES = {"sum", "avg", "max", "min", "count", "join", "meet"}
# The term-kind tests and the kind of term each accepts.
_KINDS = {"isiri": IRI, "isblank": SKOLEM, "isliteral": LITERAL}
# Operators that wrap everything parsed so far in their group.
_WRAPPERS = ("optional", "filter", "assign", "groupby", "orderby", "limit")

_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")
_INT_RE = re.compile(r"\d+")
_NUMBER_RE = re.compile(r"[+-]?\d+(\.\d+)?(/\d+)?")


class _Scanner(Scanner):
    def __init__(self, text: str, domain: Domain):
        super().__init__(text)
        self.domain = domain
        self.depth = 0  # the groups and `(` open here; the reader of each closes it

    def open(self, token: str) -> bool:
        """`take` the opening `token` of one more nesting level; a level
        past `alg.MAX_DEPTH` is an error at the token."""
        if not self.take(token):
            return False
        if self.depth == alg.MAX_DEPTH:
            self.pos -= len(token)
            raise self.error(f"query nested deeper than {alg.MAX_DEPTH} levels")
        self.depth += 1
        return True

    def keyword(self) -> str | None:
        """Peek the next bare word, lowercased, without consuming."""
        self.skip_ws()
        m = NAME_RE.match(self.text, self.pos)
        if m and not self.text.startswith(":", m.end()):
            return m.group(0).lower()
        return None

    def take_keyword(self, word: str) -> bool:
        if self.keyword() == word:
            self.pos += len(word)  # `NAME_RE` is ASCII: lowercasing keeps the length
            return True
        return False

    def var(self) -> alg.Var:
        self.skip_ws()
        m = _VAR_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected ?variable")
        self.pos = m.end()
        return alg.Var(m.group(1))

    # -- terms and annotation labels ----------------------------------------

    def term(self) -> alg.TermSlot:
        if self.peek() == "?":
            return self.var()
        term = self.ground_term()
        if term is None:
            raise self.error("expected a term")
        return term

    def annotation(self):
        """Read an annotation literal and parse it in the query's domain;
        a literal the domain rejects is reported at its first character."""
        self.skip_ws()
        start = self.pos
        text = self.annotation_literal()
        try:
            return self.domain.parse(text)
        except AnnotationSyntaxError as exc:
            self.pos = start
            raise self.error(str(exc)) from None

    def label(self) -> alg.AnnotationLabel:
        """A `?var` or an annotation literal of the query's domain."""
        return self.var() if self.peek() == "?" else self.annotation()

    # -- operands in filters / assignments ------------------------------------

    def operand(self) -> alg.Operand:
        ch = self.peek()
        if not ch:
            raise self.error("expected an operand")
        if ch == "?":
            return self.var()
        if ch in "{[(":
            return self.annotation()
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            try:
                number = parse_scalar(m.group(0))
            except ValueError as exc:
                raise self.error(str(exc)) from None
            self.pos = m.end()
            return Fraction(number)
        word = self.keyword()
        if word in ("true", "false"):
            # A boolean annotation literal where the domain has one,
            # otherwise a plain IRI term.
            try:
                value = self.domain.parse(word)
            except AnnotationSyntaxError:
                return self.term()
            self.take_keyword(word)
            return value
        return self.term()


def parse_query(text: str, domain: Domain | str) -> alg.SubSelect:
    if isinstance(domain, str):
        domain = get_domain(domain)
    sc = _Scanner(text, domain)
    while sc.peek() == "@":
        if not sc.directive("prefix"):
            raise sc.error("unknown prologue directive")
        sc.prefix_directive()
        sc.expect(".")
    if not sc.take_keyword("select"):
        raise sc.error("query must start with SELECT")
    select, pattern = _parse_select(sc)
    # Each modifier at most once, in either order.
    modifiers: dict[str, alg.Var | int] = {}
    while not sc.at_end():
        word = sc.keyword()
        if word not in ("orderby", "limit"):
            raise sc.error("expected ORDERBY, LIMIT, or end of query")
        if word in modifiers:
            raise sc.error(f"a query has at most one {word.upper()}")
        sc.take_keyword(word)
        modifiers[word] = sc.var() if word == "orderby" else _parse_int(sc)
    # `_build` kept every node of `pattern` below `MAX_DEPTH`, so the query fits.
    return alg.SubSelect(select, pattern, modifiers.get("orderby"), modifiers.get("limit"))


def _parse_select(sc: _Scanner) -> tuple[tuple[alg.Var, ...], alg.Pattern]:
    """The projected variables and the group of a query or a sub-SELECT,
    read after the SELECT keyword."""
    variables = []
    while sc.peek() == "?":
        variables.append(sc.var())
    if not variables:
        raise sc.error("SELECT needs at least one variable")
    sc.take_keyword("where")
    return tuple(variables), _parse_group(sc)


def _parse_int(sc: _Scanner) -> int:
    sc.skip_ws()
    m = _INT_RE.match(sc.text, sc.pos)
    if not m:
        raise sc.error("expected an integer")
    sc.pos = m.end()
    return int(m.group(0))


def _parse_group(sc: _Scanner) -> alg.Pattern:
    if not sc.open("{"):
        raise sc.error("expected '{'")
    acc: alg.Pattern | None = None
    bap: list[alg.TriplePattern] = []
    bap_start = 0

    def join(start: int, sub: alg.Pattern) -> None:
        # `sub`, which starts at `start`, joined to what precedes it.
        nonlocal acc
        acc = sub if acc is None else _build(sc, start, alg.Join, acc, sub)

    def flush() -> None:
        nonlocal bap
        if bap:
            join(bap_start, alg.Bap(tuple(bap)))
            bap = []

    while True:
        if sc.take("}"):
            break
        if sc.at_end():
            raise sc.error("unterminated group")
        word = sc.keyword()
        ch = sc.peek()
        start = sc.pos
        if ch == "{":
            flush()
            sub = _parse_group(sc)
            while sc.keyword() == "union":
                union = sc.pos
                sc.take_keyword("union")
                sub = _build(sc, union, alg.Union, sub, _parse_group(sc))
            join(start, sub)
        elif word in _WRAPPERS:
            flush()
            acc = _parse_wrapper(sc, word, alg.Bap(()) if acc is None else acc)
        elif word == "select":
            flush()
            sc.take_keyword("select")
            join(start, _build(sc, start, alg.SubSelect, *_parse_select(sc)))
        else:
            if not bap:
                bap_start = start
            bap.append(_parse_triple_pattern(sc))
            sc.take(".")
    flush()
    if acc is None:
        raise sc.error("empty group")
    sc.depth -= 1
    return acc


def _build(sc: _Scanner, start: int, make, *args):
    """`make(*args)`, a node of the construct that starts at `start`.  A
    node that reaches `MAX_DEPTH` is a `ParseError` there: every node
    sits under the query's SELECT, which would then be past the bound."""
    try:
        built = make(*args)
        if built.depth >= alg.MAX_DEPTH:
            raise AnrdfError(f"query nested deeper than {alg.MAX_DEPTH} levels")
    except ParseError:
        raise
    except AnrdfError as exc:
        sc.pos = start
        raise sc.error(str(exc)) from None
    return built


def _parse_wrapper(sc: _Scanner, word: str, acc: alg.Pattern) -> alg.Pattern:
    """The operator `word`, whose keyword is next, applied to the pattern `acc`."""
    start = sc.pos
    sc.take_keyword(word)
    if word == "optional":
        inner = _parse_group(sc)
        if isinstance(inner, alg.Filter):
            return _build(sc, start, alg.Optional, acc, inner.pattern, inner.expr)
        return _build(sc, start, alg.Optional, acc, inner, None)
    if word == "filter":
        sc.expect("(")
        expr = _build(sc, start, _parse_filter_expr, sc)
        sc.expect(")")
        return _build(sc, start, alg.Filter, acc, expr)
    if word == "assign":
        sc.skip_ws()
        call = sc.pos
        fn, args = _parse_call_or_operand(sc)
        if not sc.take_keyword("as"):
            raise sc.error("ASSIGN needs 'AS ?var'")
        target = sc.var()
        _reject_test(sc, fn, call, f"ASSIGN cannot bind it to ?{target.name}")
        return _build(sc, start, alg.Assign, acc, fn, args, target)
    if word == "groupby":
        sc.expect("(")
        keys = []
        while sc.peek() == "?":
            keys.append(sc.var())
            sc.take(",")
        sc.expect(")")
        bound = acc.bindings.can
        aggregates = []
        while sc.keyword() in _AGGREGATES:
            aggregates.append(_parse_aggregate(sc, keys, bound))
        return _build(sc, start, alg.GroupBy, acc, tuple(keys), tuple(aggregates))
    # ORDERBY and LIMIT sort or cut `acc` without projecting it.  Not
    # onto `acc.bindings.can`: `rewrite_defaults` labels bare triple
    # patterns after parsing, and such a projection would drop the labels.
    if word == "orderby":
        return _build(sc, start, alg.SubSelect, None, acc, sc.var())
    return _build(sc, start, alg.SubSelect, None, acc, None, _parse_int(sc))


def _parse_triple_pattern(sc: _Scanner) -> alg.TriplePattern:
    bracketed = sc.take("(")
    s, p, o = sc.term(), sc.term(), sc.term()
    if not bracketed:
        return alg.TriplePattern(s, p, o, None)
    sc.expect(")")
    if not sc.take(":"):
        raise sc.error(
            "expected ':' after (s p o); a triple pattern is "
            "(s p o):label or a bare s p o"
        )
    return alg.TriplePattern(s, p, o, sc.label())


def _parse_aggregate(
    sc: _Scanner, keys: list[alg.Var], bound: frozenset[str]
) -> alg.Aggregate:
    """One aggregate of a GROUPBY with grouping `keys` over a pattern whose
    rows can bind the variables named in `bound`.  An argument that is a
    key is reported at the argument, and a target in `bound` at the
    target."""
    op = sc.keyword()
    sc.take_keyword(op)
    sc.expect("(")
    sc.skip_ws()
    start = sc.pos
    fn, args = _parse_call_or_operand(sc)
    sc.expect(")")
    if not sc.take_keyword("as"):
        raise sc.error("aggregates need 'AS ?var'")
    sc.skip_ws()
    at = sc.pos
    target = sc.var()
    _reject_test(sc, fn, start, f"{op.upper()} cannot aggregate it into ?{target.name}")
    for arg in args:
        if arg in keys:
            sc.pos = start
            raise sc.error(f"aggregate argument ?{arg.name} is a grouping key")
    if target.name in bound:
        sc.pos = at
        raise sc.error(f"aggregate target ?{target.name} already occurs in the pattern")
    return alg.Aggregate(op=op.upper(), fn=fn, args=args, target=target)


def _reject_test(sc: _Scanner, fn: str, start: int, use: str) -> None:
    """Reject the built-in test `fn`, called at `start`, as the function of
    ASSIGN or of an aggregate: a test yields a truth value, which no
    answer cell holds and no aggregate reads as data."""
    if fn in TESTS:
        sc.pos = start
        raise sc.error(f"{fn} is a test, not a function: {use}")


def _call_name(sc: _Scanner) -> str | None:
    """The name of a call `name(...)` starting here, if one does."""
    sc.skip_ws()
    m = NAME_RE.match(sc.text, sc.pos)
    if m and sc.text.startswith("(", m.end()):
        return m.group(0)
    return None


def _parse_call_args(sc: _Scanner, name: str) -> tuple[alg.Operand, ...]:
    """Read the call whose name `_call_name` just returned.  The name must
    be a registered built-in and the number of arguments must fit its
    parameters (`ARITY`); either error is reported at the name."""
    start = sc.pos
    if name not in ARITY:
        raise sc.error(f"unknown built-in {name!r}")
    sc.pos += len(name)
    sc.expect("(")
    args = []
    if sc.peek() != ")":
        args.append(sc.label())
        while sc.take(","):
            args.append(sc.label())
    sc.expect(")")
    fewest, most = ARITY[name]
    if not fewest <= len(args) <= most:
        sc.pos = start
        wanted = f"at least {fewest}" if most > fewest else f"{fewest}"
        noun = "argument" if fewest == 1 else "arguments"
        raise sc.error(f"{name} takes {wanted} {noun}, not {len(args)}")
    return tuple(args)


def _parse_call_or_operand(sc: _Scanner) -> tuple[str, tuple[alg.Operand, ...]]:
    """Either `name(arg, ...)` for a registered built-in, or a single
    operand (identity function)."""
    name = _call_name(sc)
    if name is None:
        return "", (sc.operand(),)
    return name, _parse_call_args(sc, name)


def _parse_filter_expr(sc: _Scanner) -> alg.FilterExpr:
    """`||` over `&&` over operands, each a primary after any `!`s.  The
    loops stay in this frame, so a nested `(` costs the parser two frames,
    this and `_parse_filter_primary`."""
    disjuncts: list[alg.FilterExpr] = []
    conjuncts: list[alg.FilterExpr] = []
    while True:
        negations = 0
        while sc.take("!"):
            if sc.peek() == "=":
                raise sc.error("unexpected '!='")
            negations += 1
        operand = _parse_filter_primary(sc)
        if negations % 2:
            operand = alg.Not(operand)
        conjuncts.append(operand)
        if sc.take("&&"):
            continue
        disjuncts.append(_balanced(alg.And, conjuncts))
        conjuncts = []
        if not sc.take("||"):
            return _balanced(alg.Or, disjuncts)


def _balanced(op: type, operands: list[alg.FilterExpr]) -> alg.FilterExpr:
    """`operands` joined by `op` (`And` or `Or`) in a balanced tree, the
    left half first; up to three operands it nests to the left."""
    if len(operands) == 1:
        return operands[0]
    half = (len(operands) + 1) // 2
    return op(_balanced(op, operands[:half]), _balanced(op, operands[half:]))


def _parse_filter_primary(sc: _Scanner) -> alg.FilterExpr:
    word = sc.keyword()
    if word == "bound":
        sc.take_keyword("bound")
        sc.expect("(")
        var = sc.var()
        sc.expect(")")
        return alg.Bound(var)
    if word in _KINDS:
        sc.take_keyword(word)
        sc.expect("(")
        operand = sc.operand()
        sc.expect(")")
        return alg.IsKind(_KINDS[word], operand)
    name = _call_name(sc)
    if name is not None:
        start = sc.pos
        call = alg.BuiltinCall(name, _parse_call_args(sc, name))
        if name in FUNCTIONS:
            sc.pos = start
            raise sc.error(
                f"{name} is a function, not a test: FILTER cannot read it as a condition"
            )
        return call
    ahead = _comparison_ahead(sc)
    if ahead is None and sc.open("("):
        inner = _parse_filter_expr(sc)
        sc.expect(")")
        sc.depth -= 1
        return inner
    return _parse_comparison(sc, ahead)


def _parse_comparison(sc: _Scanner, ahead: str | None) -> alg.FilterExpr:
    """`label <= label`, `operand = operand` or `operand != operand`,
    where `ahead` is what `_comparison_ahead` returned here."""
    if ahead == "<=":
        left = sc.label()
        sc.expect("<=")
        return alg.AnnLeq(left, sc.label())
    start = sc.pos
    operand = sc.operand()
    sc.skip_ws()
    if sc.text.startswith("<=", sc.pos):
        sc.pos = start
        raise sc.error("expected an annotation literal")
    if sc.take("!="):
        return alg.Not(alg.Eq(operand, sc.operand()))
    if sc.take("="):
        return alg.Eq(operand, sc.operand())
    raise sc.error("expected a comparison operator")


def _comparison_ahead(sc: _Scanner) -> str | None:
    """The comparison operator (`<=`, `!=` or `=`) after the `?var` or
    annotation literal that starts here, or None; reads the operand's
    extent without parsing it in the domain and without moving `sc`."""
    start = sc.pos
    try:
        if sc.peek() == "?":
            sc.var()
        else:
            sc.annotation_literal()
        sc.skip_ws()
        return next((op for op in ("<=", "!=", "=") if sc.text.startswith(op, sc.pos)), None)
    except ParseError:
        return None
    finally:
        sc.pos = start
