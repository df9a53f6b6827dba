"""Coverage checking against the two versions of ``_uncovered`` before it.

Both are kept here verbatim but for their names.
``_uncovered_enumerated`` split a ``nat`` column into zero and successor
once per unit of its largest numeral.  ``_uncovered_points`` split it into
zero and successor while a ``(1+ ...)`` pattern was left, then took each
numeral as a point.  ``check_comprehensive`` must give the same result
with today's ``_uncovered`` as with the points version, exactly, on drawn
two-column definitions over ``nat``, ``list`` and ``any``.  Against the
enumeration, on ``nat`` and ``nat list`` columns with small numerals so
that it stays cheap, it must agree but for where a verdict the guards
leave open says they may all fail.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqthink import admissibility
from eqthink.admissibility import (
    _DEFAULT_WITNESS,
    _int_marks,
    _Row,
    _subst,
    _translate,
    check_comprehensive,
    guards_exhaustive,
    match_value,
)
from eqthink.evaluator import DefEnv
from eqthink.syntax import NIL_LIT, App, DefEquations, IntLit, Term, Var, parse_program
from eqthink.values import NIL, Pair, Symbol, Value

# -- the replaced code, verbatim but for the names --------------------------


# Before numerals became points.


def _uncovered_enumerated(
    rows: list[_Row],
    doms: list[str],
    cols: list[Var],
    prov: DefEnv,
    atoms: frozenset[str] = frozenset(),
) -> tuple[list[Value], list[str]] | None:
    """A value vector no row covers, with the labels of the guarded rows
    that reach it, or None if the rows cover every vector.

    ``cols`` holds one fresh variable per column.  A variable pattern is
    bound to its column's variable, and each constructor case substitutes
    the case for that variable in the guards, so a case reached only by
    guarded rows is covered when their instantiated guards are exhaustive.
    Sub-patterns of a cons are not analyzed further (the cons case is
    credited to any cons row).
    """
    if not doms:
        if any(guard is None for _, guard, _ in rows):
            return None
        if rows and guards_exhaustive([guard for _, guard, _ in rows], prov, atoms):
            return None
        return [], [label for _, _, label in rows]
    dom, col = doms[0], cols[0]
    rows = [
        ([col, *pats[1:]], _subst(guard, {pats[0].name: col}), label)
        if isinstance(pats[0], Var)
        else (pats, guard, label)
        for pats, guard, label in rows
    ]

    def prepend(value: Value, found):
        return None if found is None else ([value] + found[0], found[1])

    def split(term: Term, covers) -> list[_Row]:
        """The rows whose pattern covers the case col = term, column dropped."""
        return [
            (pats[1:], _subst(guard, {col.name: term}), label)
            for pats, guard, label in rows
            if pats[0] == col or covers(pats[0])
        ]

    if all(pats[0] == col for pats, _, _ in rows):
        w = _uncovered_enumerated([(pats[1:], g, lab) for pats, g, lab in rows], doms[1:], cols[1:], prov, atoms)
        return prepend(_DEFAULT_WITNESS[dom], w)

    if dom == "nat":
        w = _uncovered_enumerated(split(IntLit(0), lambda p: p == IntLit(0)), doms[1:], cols[1:], prov, atoms)
        if w is not None:
            return prepend(0, w)
        pred = Var(col.name + "'")
        succ = App("1+", (pred,))
        succ_rows = []
        for pats, guard, label in rows:
            p = pats[0]
            if p == col:
                p = pred
            elif isinstance(p, App) and p.op == "1+":
                p = p.args[0]
            elif isinstance(p, IntLit) and p.value >= 1:
                p = IntLit(p.value - 1)
            else:
                continue
            succ_rows.append(([p, *pats[1:]], _subst(guard, {col.name: succ}), label))
        w = _uncovered_enumerated(succ_rows, doms, [pred, *cols[1:]], prov, atoms)
        if w is not None:
            return [w[0][0] + 1] + w[0][1:], w[1]
        return None

    w = _uncovered_enumerated(split(NIL_LIT, lambda p: p == NIL_LIT), doms[1:], cols[1:], prov, atoms)
    if w is not None:
        return prepend(NIL, w)
    head, tail = Var(col.name + "h"), Var(col.name + "t")
    cell = App("cons", (head, tail))
    cons_rows = []
    for pats, guard, label in rows:
        p = pats[0]
        if p == col:
            binding = {col.name: cell}
        elif isinstance(p, App) and p.op == "cons":
            binding = {q.name: v for q, v in zip(p.args, (head, tail)) if isinstance(q, Var)}
        else:
            continue
        cons_rows.append((pats[1:], _subst(guard, binding), label))
    w = _uncovered_enumerated(cons_rows, doms[1:], cols[1:], prov, atoms)
    if w is not None:
        return prepend(Pair(0, NIL), w)
    if dom == "list":
        return None

    # dom == "any": probe the integers around every numeral the column
    # mentions (exact for the patterns, since they are linear), then a
    # fresh symbol.  A guard knows the column only as an atom other than nil.
    marks = {0}
    for pats, _, _ in rows:
        marks.update(_int_marks(pats[0]))
    atoms = atoms | {col.name}
    for v in [*sorted(m + d for m in marks for d in (-2, -1, 0, 1, 2)), Symbol("a")]:
        covering = [(pats[1:], g, lab) for pats, g, lab in rows if match_value(pats[0], v, {})]
        w = _uncovered_enumerated(covering, doms[1:], cols[1:], prov, atoms)
        if w is not None:
            return prepend(v, w)
    return None


# Before the nat column was one pass.
def _uncovered_points(
    rows: list[_Row],
    doms: list[str],
    cols: list[Var],
    prov: DefEnv,
    atoms: frozenset[str] = frozenset(),
) -> tuple[list[Value], list[str]] | None:
    """A value vector no row covers, with the labels of the guarded rows
    that reach it, or None if the rows cover every vector.

    ``cols`` holds one fresh variable per column.  A variable pattern is
    bound to its column's variable, and each constructor case substitutes
    the case for that variable in the guards, so a case reached only by
    guarded rows is covered when their instantiated guards are exhaustive.
    Sub-patterns of a cons are not analyzed further (the cons case is
    credited to any cons row).
    """
    if not doms:
        if any(guard is None for _, guard, _ in rows):
            return None
        if rows and guards_exhaustive([guard for _, guard, _ in rows], prov, atoms):
            return None
        return [], [label for _, _, label in rows]
    dom, col = doms[0], cols[0]
    rows = [
        ([col, *pats[1:]], _subst(guard, {pats[0].name: col}), label)
        if isinstance(pats[0], Var)
        else (pats, guard, label)
        for pats, guard, label in rows
    ]

    def prepend(value: Value, found):
        return None if found is None else ([value] + found[0], found[1])

    def split(term: Term, covers) -> list[_Row]:
        """The rows whose pattern covers the case col = term, column dropped."""
        return [
            (pats[1:], _subst(guard, {col.name: term}), label)
            for pats, guard, label in rows
            if pats[0] == col or covers(pats[0])
        ]

    if all(pats[0] == col for pats, _, _ in rows):
        w = _uncovered_points([(pats[1:], g, lab) for pats, g, lab in rows], doms[1:], cols[1:], prov, atoms)
        return prepend(_DEFAULT_WITNESS[dom], w)

    if dom == "nat":
        firsts = [pats[0] for pats, _, _ in rows]
        if not any(isinstance(p, App) and p.op == "1+" for p in firsts):
            # Only numerals and the column are left.  Each numeral is a point,
            # and so is the least other n below the tail, one past the largest
            # numeral; every other n is one case, the column left unknown.
            numerals = {p.value for p in firsts if isinstance(p, IntLit) and p.value >= 0}
            tail = max(numerals, default=0) + 1
            least = min(set(range(len(numerals) + 1)) - numerals)
            for n in sorted(numerals | {least} if least < tail else numerals):
                w = _uncovered_points(split(IntLit(n), lambda p: p == IntLit(n)), doms[1:], cols[1:], prov, atoms)
                if w is not None:
                    return prepend(n, w)
            rest = [(pats[1:], g, lab) for pats, g, lab in rows if pats[0] == col]
            return prepend(tail, _uncovered_points(rest, doms[1:], cols[1:], prov, atoms))
        w = _uncovered_points(split(IntLit(0), lambda p: p == IntLit(0)), doms[1:], cols[1:], prov, atoms)
        if w is not None:
            return prepend(0, w)
        pred = Var(col.name + "'")
        succ = App("1+", (pred,))
        succ_rows = []
        for pats, guard, label in rows:
            p = pats[0]
            if p == col:
                p = pred
            elif isinstance(p, App) and p.op == "1+":
                p = p.args[0]
            elif isinstance(p, IntLit) and p.value >= 1:
                p = IntLit(p.value - 1)
            else:
                continue
            succ_rows.append(([p, *pats[1:]], _subst(guard, {col.name: succ}), label))
        w = _uncovered_points(succ_rows, doms, [pred, *cols[1:]], prov, atoms)
        if w is not None:
            return [w[0][0] + 1] + w[0][1:], w[1]
        return None

    w = _uncovered_points(split(NIL_LIT, lambda p: p == NIL_LIT), doms[1:], cols[1:], prov, atoms)
    if w is not None:
        return prepend(NIL, w)
    head, tail = Var(col.name + "h"), Var(col.name + "t")
    cell = App("cons", (head, tail))
    cons_rows = []
    for pats, guard, label in rows:
        p = pats[0]
        if p == col:
            binding = {col.name: cell}
        elif isinstance(p, App) and p.op == "cons":
            binding = {q.name: v for q, v in zip(p.args, (head, tail)) if isinstance(q, Var)}
        else:
            continue
        cons_rows.append((pats[1:], _subst(guard, binding), label))
    w = _uncovered_points(cons_rows, doms[1:], cols[1:], prov, atoms)
    if w is not None:
        return prepend(Pair(0, NIL), w)
    if dom == "list":
        return None

    # dom == "any": probe the integers around every numeral the column
    # mentions (exact for the patterns, since they are linear), then a
    # fresh symbol.  A guard knows the column only as an atom other than nil.
    marks = {0}
    for pats, _, _ in rows:
        marks.update(_int_marks(pats[0]))
    atoms = atoms | {col.name}
    for v in [*sorted(m + d for m in marks for d in (-2, -1, 0, 1, 2)), Symbol("a")]:
        covering = [(pats[1:], g, lab) for pats, g, lab in rows if match_value(pats[0], v, {})]
        w = _uncovered_points(covering, doms[1:], cols[1:], prov, atoms)
        if w is not None:
            return prepend(v, w)
    return None


# -- drawn definitions ---------------------------------------------------------

_HELPER = "(defun small (n) :trust (< n 3))"
_NUMERALS = st.integers(0, 6).map(str)
_NAT_PATTERNS = st.one_of(
    st.just("x"),
    _NUMERALS,
    st.tuples(st.integers(1, 2), st.one_of(st.just("x"), _NUMERALS)).map(
        lambda t: "(1+ " * t[0] + t[1] + ")" * t[0]
    ),
)
_LIST_PATTERNS = st.sampled_from(["ys", "nil", "(cons h tl)"])
_RELATIONS = ["<", "<=", "=", ">", ">="]


@st.composite
def _guard(draw, names: list[str]):
    operand = st.sampled_from([*names, "0", "2", "5"])
    atom = st.one_of(
        st.tuples(st.sampled_from(_RELATIONS), operand, operand).map(lambda t: "({} {} {})".format(*t)),
        operand.map(lambda v: f"(zp {v})"),
        st.tuples(operand, st.sampled_from([*names, "nil", "3"])).map(lambda t: "(equal {} {})".format(*t)),
        operand.map(lambda v: f"(consp {v})"),
        operand.map(lambda v: f"(small {v})"),
    )
    first = draw(atom)
    how = draw(st.sampled_from(["", "not", "and", "or"]))
    if how == "not":
        return f"(not {first})"
    if how:
        return f"({how} {first} {draw(atom)})"
    return first


@st.composite
def _definitions(draw):
    domains = draw(st.sampled_from([("nat",), ("nat", "list")]))
    lines = []
    for i in range(draw(st.integers(1, 4))):
        patterns = [draw(_NAT_PATTERNS)]
        if len(domains) == 2:
            patterns.append(draw(_LIST_PATTERNS))
        names = [n for n in ("x", "ys", "h", "tl") if any(n in p.strip("()").split() for p in patterns)]
        guard = draw(st.one_of(st.just(None), _guard(names)))
        when = f" :when {guard}" if guard else ""
        lines.append(f"(e{i} (f {' '.join(patterns)}) {i}{when})")
    params = " ".join("ab"[: len(domains)])
    return domains, f"(sig f ({' '.join(domains)})) (defeqs f ({params}) {' '.join(lines)})"


def _comprehensive(d: DefEquations, prov: DefEnv, domains, uncovered):
    kept = admissibility._uncovered
    admissibility._uncovered = uncovered
    try:
        return check_comprehensive(d, prov, domains).to_json()
    finally:
        admissibility._uncovered = kept


def _open_point(result: dict) -> str | None:
    """The trials' part of a verdict the guards left open at some point."""
    _, sep, after = result.get("detail", "").partition(" may all fail at ")
    return after.partition("; ")[2] if sep and result["verdict"] == "TestedOnly" else None


# Where the guard decision leaves both a number between numerals and a
# larger numeral open, the enumeration named the number, the first it
# reached, and the points name the numeral; trials judge both alike.
@example((("nat", "list"), "(sig f (nat list)) (defeqs f (a b) (e0 (f 4 ys) 0 :when (not (zp ys)))"
                           " (e1 (f x ys) 1 :when (or (small x) (>= 2 ys))))"))
@example((("nat", "list"), "(sig f (nat list)) (defeqs f (a b) (e0 (f x ys) 0 :when (or (small ys) (small x)))"
                           " (e1 (f (1+ 4) (cons h tl)) 1 :when (or (zp h) (zp 5))) (e2 (f (1+ 5) nil) 2))"))
@settings(max_examples=150)
@given(_definitions())
def test_numerals_as_points_cover_as_the_enumeration_did(case):
    domains, text = case
    helper, _, d = parse_program(f"{_HELPER} {text}")
    prov = DefEnv()
    prov.define(helper)
    prov.define(_translate(d))
    new = _comprehensive(d, prov, domains, admissibility._uncovered)
    old = _comprehensive(d, prov, domains, _uncovered_enumerated)
    assert new == old or _open_point(new) == _open_point(old) is not None, text


# -- drawn two-column definitions ----------------------------------------------

_BIG = str(10**23)
# Each column's pattern names, so that a row's patterns share none.
_COLUMN_NAMES = (("x", "h", "tl"), ("y", "g", "tg"))


def _column_patterns(var: str, head: str, tail: str):
    core = st.one_of(st.just(var), st.integers(0, 9).map(str), st.just(_BIG), st.just("nil"))
    # The bare variable twice over, so that more definitions come near to
    # covering their domains and their guards decide.
    return st.one_of(
        st.just(var),
        st.just(var),
        st.tuples(st.integers(0, 3), core).map(lambda t: "(1+ " * t[0] + t[1] + ")" * t[0]),
        st.just(f"(cons {head} {tail})"),
    )


@st.composite
def _mixed_definitions(draw):
    domains = tuple(draw(st.sampled_from(["nat", "list", "any"])) for _ in range(2))
    lines = []
    for i in range(draw(st.integers(1, 4))):
        patterns = [draw(_column_patterns(*names)) for names in _COLUMN_NAMES]
        words = " ".join(patterns).replace("(", " ").replace(")", " ").split()
        names = [n for ns in _COLUMN_NAMES for n in ns if n in words]
        guard = draw(st.one_of(st.just(None), _guard(names)))
        when = f" :when {guard}" if guard else ""
        lines.append(f"(e{i} (f {' '.join(patterns)}) {i}{when})")
    return domains, f"(sig f ({' '.join(domains)})) (defeqs f (a b) {' '.join(lines)})"


# Drawn definitions seldom reach these: guards that trials cannot refute
# leave the witness in the verdict, and it tells the cases apart.  At the
# deepest wrap, variables alone (a = 1), a pattern that matches no number
# beside them (a = 2), and variables under different numbers of wraps.
_OPEN = "(e1 (f (1+ x) y) 1 :when (< x 5)) (e2 (f (1+ x) y) 2 :when (> x 2))"


@example((("nat", "any"), f"(sig f (nat any)) (defeqs f (a b) (e0 (f 0 y) 0) {_OPEN})"))
@example((("nat", "any"), f"(sig f (nat any)) (defeqs f (a b) (e0 (f 0 y) 0) (e3 (f (1+ nil) y) 3) {_OPEN})"))
@example((("nat", "any"), "(sig f (nat any)) (defeqs f (a b) (e0 (f x y) 0 :when (< x 5))"
                          " (e1 (f (1+ x) y) 1 :when (>= (1+ x) 5)))"))
@settings(max_examples=500)
@given(_mixed_definitions())
def test_one_pass_nat_columns_cover_exactly_as_the_points_did(case):
    domains, text = case
    helper, _, d = parse_program(f"{_HELPER} {text}")
    prov = DefEnv()
    prov.define(helper)
    prov.define(_translate(d))
    new = _comprehensive(d, prov, domains, admissibility._uncovered)
    assert new == _comprehensive(d, prov, domains, _uncovered_points), text
