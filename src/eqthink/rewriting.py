"""First-order matching, positions, and the labeled rule database.

Rules are equations oriented left-to-right as stored, applicable in
either direction.  The database starts from the core Boolean axioms plus
the cons selector laws, carries a handful of derived Boolean lemmas that
later proofs cite, and grows as definitions are admitted and proofs are
accepted.
"""

from __future__ import annotations

from .errors import DuplicateDefinition, UnknownLabel
from .records import Record, set_field
from .syntax import (
    App,
    DefEquations,
    IntLit,
    SymLit,
    Term,
    Var,
    parse_term,
    term_vars,
)

RESERVED_LABELS = ("cons", "arith", "ind-hyp")


def match(
    pattern: Term,
    target: Term,
    rigid: frozenset[str] = frozenset(),
    bindings: dict[str, Term] | None = None,
) -> dict[str, Term] | None:
    """First-order match: a substitution sending pattern to target.

    Nonlinear patterns require equal subterms.  Rigid variables stand for
    themselves and match nothing else (used for induction variables).
    """
    if bindings is None:
        bindings = {}
    if isinstance(pattern, Var):
        if pattern.name in rigid:
            return bindings if target == pattern else None
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = target
            return bindings
        return bindings if bound == target else None
    if isinstance(pattern, (IntLit, SymLit)):
        return bindings if target == pattern else None
    if not isinstance(target, App) or target.op != pattern.op:
        return None
    if len(target.args) != len(pattern.args):
        return None
    for p, t in zip(pattern.args, target.args):
        if match(p, t, rigid, bindings) is None:
            return None
    return bindings


Path = tuple[int, ...]


def positions(t: Term) -> list[tuple[Path, Term]]:
    """All subterm positions, preorder; the root is the empty path."""
    out: list[tuple[Path, Term]] = []

    def walk(s: Term, path: Path) -> None:
        out.append((path, s))
        if isinstance(s, App):
            for i, a in enumerate(s.args):
                walk(a, path + (i,))

    walk(t, ())
    return out


def subterm_at(t: Term, path: Path) -> Term | None:
    for i in path:
        if not isinstance(t, App) or i >= len(t.args):
            return None
        t = t.args[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    i, rest = path[0], path[1:]
    args = list(t.args)
    args[i] = replace_at(args[i], rest, new)
    return App(t.op, tuple(args), loc=t.loc)


class RewriteRule(Record):
    __slots__ = _fields = ("label", "lhs", "rhs", "condition", "rigid")

    def __init__(
        self,
        label: str,
        lhs: Term,
        rhs: Term,
        condition: Term | None = None,
        rigid: frozenset[str] = frozenset(),
    ):
        set_field(self, "label", label)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "condition", condition)
        set_field(self, "rigid", rigid)

    def oriented(self, reverse: bool) -> tuple[Term, Term]:
        return (self.rhs, self.lhs) if reverse else (self.lhs, self.rhs)


def _rule(label: str, lhs: str, rhs: str, condition: str | None = None) -> RewriteRule:
    return RewriteRule(
        label,
        parse_term(lhs),
        parse_term(rhs),
        parse_term(condition) if condition else None,
    )


# The ten core disjunction/negation/implication axioms, the two cons
# selector laws, and derived lemmas that downstream proofs cite freely.
CORE_AXIOMS: tuple[RewriteRule, ...] = (
    _rule("or-identity", "(or x nil)", "x"),
    _rule("or-null", "(or x t)", "t"),
    _rule("or-commutative", "(or x y)", "(or y x)"),
    _rule("or-associative", "(or x (or y z))", "(or (or x y) z)"),
    _rule("or-distributive", "(or x (and y z))", "(and (or x y) (or x z))"),
    _rule("implication", "(implies x y)", "(or (not x) y)"),
    _rule("or-demorgan", "(not (or x y))", "(and (not x) (not y))"),
    _rule("or-idempotent", "(or x x)", "x"),
    _rule("self-implication", "(implies x x)", "t"),
    _rule("double-negation", "(not (not x))", "x"),
    _rule("fst-id", "(first (cons x xs))", "x"),
    _rule("rst-id", "(rest (cons x xs))", "xs"),
)

DERIVED_LEMMAS: tuple[RewriteRule, ...] = (
    _rule("and-null", "(and x nil)", "nil"),
    _rule("and-identity", "(and x t)", "x"),
    _rule("and-commutative", "(and x y)", "(and y x)"),
    _rule("not-true", "(not t)", "nil"),
    _rule("not-false", "(not nil)", "t"),
    _rule("xor-def", "(xor x y)", "(or (and x (not y)) (and (not x) y))"),
    _rule("nand-def", "(nand x y)", "(not (and x y))"),
    _rule("nor-def", "(nor x y)", "(not (or x y))"),
)


class RuleDatabase:
    """Labeled rules: axioms, definitional equations, accepted lemmas.

    Immutable during a proof check; lemmas are appended between checks.
    """

    def __init__(self):
        self.rules: dict[str, RewriteRule] = {}

    @classmethod
    def axioms(cls) -> "RuleDatabase":
        db = cls()
        for rule in CORE_AXIOMS + DERIVED_LEMMAS:
            db._insert(rule)
        return db

    def _insert(self, rule: RewriteRule) -> None:
        if rule.label in RESERVED_LABELS:
            raise DuplicateDefinition(f"label {rule.label} is reserved")
        if rule.label in self.rules:
            raise DuplicateDefinition(f"rule label {rule.label} already defined")
        extra = term_vars(rule.rhs) - term_vars(rule.lhs)
        if rule.condition is not None:
            extra |= term_vars(rule.condition) - term_vars(rule.lhs)
        if extra:
            raise DuplicateDefinition(
                f"rule {rule.label} binds {', '.join(sorted(extra))} only on the right"
            )
        self.rules[rule.label] = rule

    def add_definitional(self, d: DefEquations) -> None:
        """Each equation of an admitted definition becomes a rule."""
        for eq in d.equations:
            lhs = App(d.name, eq.patterns)
            self._insert(RewriteRule(eq.label, lhs, eq.rhs, eq.guard))

    def add_lemma(self, rule: RewriteRule) -> None:
        self._insert(rule)

    def resolve(self, label: str) -> RewriteRule:
        rule = self.rules.get(label)
        if rule is None:
            raise UnknownLabel(f"no rule labeled {label}")
        return rule

    def unconditional(self) -> list[RewriteRule]:
        return [r for r in self.rules.values() if r.condition is None]
