"""Coverage of nat columns against the enumeration it replaced.

``_uncovered`` is kept here verbatim from before numerals became points.
It split a ``nat`` column into zero and successor once per unit of its
largest numeral.  On drawn definitions over ``nat`` and ``nat list``
columns, with small numerals so that the old enumeration stays cheap,
``check_comprehensive`` must give the same result with either, but for
where a verdict the guards leave open says they may all fail.
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

# -- the replaced code, verbatim ----------------------------------------------


def _uncovered(
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
        w = _uncovered([(pats[1:], g, lab) for pats, g, lab in rows], doms[1:], cols[1:], prov, atoms)
        return prepend(_DEFAULT_WITNESS[dom], w)

    if dom == "nat":
        w = _uncovered(split(IntLit(0), lambda p: p == IntLit(0)), doms[1:], cols[1:], prov, atoms)
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
        w = _uncovered(succ_rows, doms, [pred, *cols[1:]], prov, atoms)
        if w is not None:
            return [w[0][0] + 1] + w[0][1:], w[1]
        return None

    w = _uncovered(split(NIL_LIT, lambda p: p == NIL_LIT), doms[1:], cols[1:], prov, atoms)
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
    w = _uncovered(cons_rows, doms[1:], cols[1:], prov, atoms)
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
        w = _uncovered(covering, doms[1:], cols[1:], prov, atoms)
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
    old = _comprehensive(d, prov, domains, _uncovered)
    assert new == old or _open_point(new) == _open_point(old) is not None, text
