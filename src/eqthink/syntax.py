"""Surface syntax for the mini-language: terms, patterns, top-level forms.

The language is a small s-expression dialect read from ``.lx`` files.
``;`` starts a comment that runs to end of line.  List literals like
``'(1 2 3)`` are pure sugar and desugar at parse time to nested ``cons``
applications ending in ``nil``.  Successor patterns are written ``(1+ n)``.

Top-level forms:

    (sig NAME (DOMAIN ...))          ; DOMAIN is nat, list, or any
    (measure NAME TERM)
    (defeqs NAME (PARAM ...) (LABEL (NAME PAT ...) RHS [:when GUARD]) ...)
    (defun NAME (PARAM ...) [:trust] BODY)
    (defproperty NAME [:trials N] (VAR :value GEN ...) CLAIM)
    (defproof NAME :goal TERM :method METHOD (:chain ...) | (:base ...) (:step ...))

Proof chains are a first term followed by steps of the form
``(TERM :by LABEL [:dir <-] [:at (I J ...)])``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import (
    BadArity,
    DuplicateDefinition,
    NOWHERE,
    SourceLocation,
    UnbalancedParens,
    UnexpectedToken,
)
from .records import Record, set_field

# Arity of every primitive operator. `if` is a special form but its arity
# is fixed here too so the parser can reject malformed applications early.
PRIMITIVE_ARITY = {
    "cons": 2,
    "first": 1,
    "rest": 1,
    "consp": 1,
    "equal": 2,
    "=": 2,
    "<": 2,
    "<=": 2,
    ">": 2,
    ">=": 2,
    "+": 2,
    "-": 2,
    "*": 2,
    "1+": 1,
    "1-": 1,
    "zp": 1,
    "not": 1,
    "and": 2,
    "or": 2,
    "implies": 2,
    "xor": 2,
    "nand": 2,
    "nor": 2,
    "before": 2,
    "if": 3,
}

DOMAINS = ("nat", "list", "any")

_INT_RE = re.compile(r"-?[0-9]+\Z")
_TOKEN_RE = re.compile(r"""(?P<ws>\s+)|(?P<comment>;[^\n]*)|(?P<punct>[()'])|(?P<atom>[^()'\s;]+)""")


# ---------------------------------------------------------------------------
# Terms


class Term(Record):
    """Base class for term AST nodes."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "loc")
    _fields = ("name",)

    def __init__(self, name: str, loc: SourceLocation = NOWHERE):
        set_field(self, "name", name)
        set_field(self, "loc", loc)


class IntLit(Term):
    __slots__ = ("value", "loc")
    _fields = ("value",)

    def __init__(self, value: int, loc: SourceLocation = NOWHERE):
        set_field(self, "value", value)
        set_field(self, "loc", loc)


class SymLit(Term):
    __slots__ = ("name", "loc")
    _fields = ("name",)

    def __init__(self, name: str, loc: SourceLocation = NOWHERE):
        set_field(self, "name", name)
        set_field(self, "loc", loc)


class App(Term):
    # shape is the term as a flat tuple, kept by evaluator._shape on first use.
    __slots__ = ("op", "args", "loc", "shape")
    _fields = ("op", "args")

    def __init__(self, op: str, args: tuple[Term, ...], loc: SourceLocation = NOWHERE):
        set_field(self, "op", op)
        set_field(self, "args", args)
        set_field(self, "loc", loc)


NIL_LIT = SymLit("nil")
T_LIT = SymLit("t")


# ---------------------------------------------------------------------------
# Top-level forms


class Equation(Record):
    __slots__ = ("label", "patterns", "rhs", "guard", "loc")
    _fields = ("label", "patterns", "rhs", "guard")

    def __init__(
        self,
        label: str,
        patterns: tuple[Term, ...],
        rhs: Term,
        guard: Term | None = None,
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "label", label)
        set_field(self, "patterns", patterns)
        set_field(self, "rhs", rhs)
        set_field(self, "guard", guard)
        set_field(self, "loc", loc)


class DefEquations(Record):
    __slots__ = ("name", "params", "equations", "loc")
    _fields = ("name", "params", "equations")

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        equations: tuple[Equation, ...],
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "name", name)
        set_field(self, "params", params)
        set_field(self, "equations", equations)
        set_field(self, "loc", loc)


class RawDefun(Record):
    __slots__ = ("name", "params", "body", "trusted", "loc")
    _fields = ("name", "params", "body", "trusted")

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        body: Term,
        trusted: bool = False,
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "name", name)
        set_field(self, "params", params)
        set_field(self, "body", body)
        set_field(self, "trusted", trusted)
        set_field(self, "loc", loc)


class Property(Record):
    __slots__ = ("name", "binders", "claim", "trials", "loc")
    _fields = ("name", "binders", "claim", "trials")

    def __init__(
        self,
        name: str,
        binders: tuple[tuple[str, Term], ...],
        claim: Term,
        trials: int | None = None,
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "name", name)
        set_field(self, "binders", binders)
        set_field(self, "claim", claim)
        set_field(self, "trials", trials)
        set_field(self, "loc", loc)


class ProofStep(Record):
    __slots__ = ("term", "label", "reverse", "position", "loc")
    _fields = ("term", "label", "reverse", "position")

    def __init__(
        self,
        term: Term,
        label: str,
        reverse: bool = False,
        position: tuple[int, ...] | None = None,
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "term", term)
        set_field(self, "label", label)
        set_field(self, "reverse", reverse)
        set_field(self, "position", position)
        set_field(self, "loc", loc)


class Chain(Record):
    __slots__ = ("kind", "first", "steps", "loc")
    _fields = ("kind", "first", "steps")

    def __init__(
        self,
        kind: str,  # "chain", "base", or "step"
        first: Term,
        steps: tuple[ProofStep, ...],
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "kind", kind)
        set_field(self, "first", first)
        set_field(self, "steps", steps)
        set_field(self, "loc", loc)


class ProofScript(Record):
    __slots__ = ("name", "hypothesis", "lhs", "rhs", "method", "chains", "loc")
    _fields = ("name", "hypothesis", "lhs", "rhs", "method", "chains")

    def __init__(
        self,
        name: str,
        hypothesis: Term | None,
        lhs: Term,
        rhs: Term,
        method: tuple,  # ("equational",) or ("induction", "list"|"nat", var)
        chains: tuple[Chain, ...],
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "name", name)
        set_field(self, "hypothesis", hypothesis)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "method", method)
        set_field(self, "chains", chains)
        set_field(self, "loc", loc)


class Directive(Record):
    __slots__ = ("kind", "name", "payload", "loc")
    _fields = ("kind", "name", "payload")

    def __init__(
        self,
        kind: str,  # "sig" or "measure"
        name: str,
        payload: object,  # tuple of domain names, or a measure Term
        loc: SourceLocation = NOWHERE,
    ):
        set_field(self, "kind", kind)
        set_field(self, "name", name)
        set_field(self, "payload", payload)
        set_field(self, "loc", loc)


TopForm = DefEquations | RawDefun | Property | ProofScript | Directive


# ---------------------------------------------------------------------------
# Tokenizer


class Token(Record):
    __slots__ = _fields = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: SourceLocation):
        set_field(self, "kind", kind)  # "(", ")", "'", "atom"
        set_field(self, "text", text)
        set_field(self, "loc", loc)


def tokenize(text: str, file: str = "<string>") -> list[Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            loc = SourceLocation(file, line, pos - line_start + 1)
            raise UnexpectedToken(f"cannot read character {text[pos]!r}", loc)
        if m.lastgroup in ("ws", "comment"):
            chunk = m.group()
            nl = chunk.count("\n")
            if nl:
                line += nl
                line_start = m.start() + chunk.rfind("\n") + 1
        else:
            loc = SourceLocation(file, line, m.start() - line_start + 1)
            kind = m.group() if m.lastgroup == "punct" else "atom"
            tokens.append(Token(kind, m.group(), loc))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Reader


class _Reader:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> Token:
        if self.eof():
            last = self.tokens[-1].loc if self.tokens else SourceLocation(self.file)
            raise UnbalancedParens("unexpected end of input", last)
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise UnexpectedToken(f"expected {kind!r}, found {tok.text!r}", tok.loc)
        return self.next()

    # -- terms --------------------------------------------------------------

    def read_term(self) -> Term:
        tok = self.next()
        if tok.kind == "atom":
            return self._atom_term(tok)
        if tok.kind == "'":
            return self._read_quoted()
        if tok.kind == "(":
            return self._read_app(tok)
        raise UnbalancedParens("unmatched ')'", tok.loc)

    def _atom_term(self, tok: Token) -> Term:
        text = tok.text
        if _INT_RE.match(text):
            return IntLit(int(text), loc=tok.loc)
        if text.startswith(":"):
            raise UnexpectedToken(f"keyword {text} is not a term", tok.loc)
        if text == "t":
            return SymLit("t", loc=tok.loc)
        if text == "nil":
            return SymLit("nil", loc=tok.loc)
        return Var(text, loc=tok.loc)

    def _read_quoted(self) -> Term:
        tok = self.next()
        if tok.kind == "atom":
            if _INT_RE.match(tok.text):
                return IntLit(int(tok.text), loc=tok.loc)
            if tok.text.startswith(":"):
                raise UnexpectedToken(f"cannot quote keyword {tok.text}", tok.loc)
            return SymLit(tok.text, loc=tok.loc)
        if tok.kind == "(":
            items = []
            while self.peek().kind != ")":
                items.append(self._read_quoted_datum())
            close = self.next()
            out: Term = SymLit("nil", loc=close.loc)
            for item in reversed(items):
                out = App("cons", (item, out), loc=item.loc)
            return out
        raise UnexpectedToken("expected a datum after quote", tok.loc)

    def _read_quoted_datum(self) -> Term:
        tok = self.peek()
        if tok.kind == "'":
            raise UnexpectedToken("quote is not allowed inside quoted data", tok.loc)
        return self._read_quoted()

    def _read_app(self, open_tok: Token) -> Term:
        op_tok = self.peek()
        if op_tok.kind != "atom" or _INT_RE.match(op_tok.text) or op_tok.text.startswith(":"):
            raise UnexpectedToken("operator must be an identifier", op_tok.loc)
        self.next()
        args = []
        while self.peek().kind != ")":
            args.append(self.read_term())
        self.next()
        op = op_tok.text
        want = PRIMITIVE_ARITY.get(op)
        if want is not None and len(args) != want:
            raise BadArity(f"{op} takes {want} argument(s), got {len(args)}", open_tok.loc)
        return App(op, tuple(args), loc=open_tok.loc)

    # -- patterns -----------------------------------------------------------

    def read_pattern(self) -> Term:
        """A pattern is read as the term it denotes: a variable, a numeral,
        nil, (cons P P) or (1+ P)."""
        tok = self.next()
        if tok.kind == "atom":
            text = tok.text
            if text == "t" or text.startswith(":"):
                raise UnexpectedToken(f"{text} is not a pattern", tok.loc)
            return self._atom_term(tok)
        if tok.kind == "(":
            head = self.expect("atom")
            if head.text not in ("cons", "1+"):
                raise UnexpectedToken(f"{head.text} is not a pattern constructor", head.loc)
            args = tuple(self.read_pattern() for _ in range(PRIMITIVE_ARITY[head.text]))
            self.expect(")")
            return App(head.text, args, loc=tok.loc)
        raise UnexpectedToken("expected a pattern", tok.loc)

    # -- help ---------------------------------------------------------------

    def read_name_list(self) -> tuple[tuple[str, ...], SourceLocation]:
        open_tok = self.expect("(")
        names = []
        while self.peek().kind != ")":
            tok = self.expect("atom")
            if _INT_RE.match(tok.text) or tok.text.startswith(":") or tok.text in ("t", "nil"):
                raise UnexpectedToken(f"expected an identifier, found {tok.text!r}", tok.loc)
            names.append(tok.text)
        self.next()
        return tuple(names), open_tok.loc

    def at_keyword(self, word: str) -> bool:
        if self.eof():
            return False
        tok = self.tokens[self.pos]
        return tok.kind == "atom" and tok.text == word


# ---------------------------------------------------------------------------
# Subterms and free variables


def subterms(*terms: Term | None) -> Iterator[Term]:
    """Every node of the terms in preorder, left to right; None is skipped."""
    stack = [t for t in reversed(terms) if t is not None]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack.extend(reversed(t.args))


def term_vars(t: Term) -> set[str]:
    return {node.name for node in subterms(t) if isinstance(node, Var)}


def pattern_vars(p: Term) -> list[str]:
    """Variables of a pattern, in left-to-right order (with repeats)."""
    return [node.name for node in subterms(p) if isinstance(node, Var)]


def substitute(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace free variables by terms (the language has no binders).

    Postorder with an explicit stack: an application is rebuilt, keeping
    its location, once its arguments are on ``done``."""
    done: list[Term] = []
    stack: list[Term | tuple[App]] = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            app = node[0]
            start = len(done) - len(app.args)
            args = tuple(done[start:])
            del done[start:]
            done.append(App(app.op, args, loc=app.loc))
        elif isinstance(node, App):
            stack.append((node,))
            stack.extend(reversed(node.args))
        elif isinstance(node, Var):
            done.append(mapping.get(node.name, node))
        else:
            done.append(node)
    return done[0]


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term) -> str:
    parts: list[str] = []
    _print_term(t, parts)
    return "".join(parts)


def _print_term(t: Term, parts: list[str]) -> None:
    if isinstance(t, Var):
        parts.append(t.name)
    elif isinstance(t, IntLit):
        parts.append(str(t.value))
    elif isinstance(t, SymLit):
        parts.append(t.name if t.name in ("t", "nil") else "'" + t.name)
    else:
        parts.append("(" + t.op)
        for a in t.args:
            parts.append(" ")
            _print_term(a, parts)
        parts.append(")")


def print_defun(d: RawDefun) -> str:
    params = " ".join(d.params)
    trust = " :trust" if d.trusted else ""
    return f"(defun {d.name} ({params}){trust} {print_term(d.body)})"


# ---------------------------------------------------------------------------
# Entry points


def parse_term(text: str, file: str = "<string>") -> Term:
    """Parse a single term; trailing input is an error."""
    reader = _Reader(tokenize(text, file), file)
    term = reader.read_term()
    if not reader.eof():
        tok = reader.peek()
        raise UnexpectedToken(f"trailing input {tok.text!r}", tok.loc)
    return term


def parse_program(text: str, file: str = "<string>") -> list[TopForm]:
    reader = _Reader(tokenize(text, file), file)
    forms: list[TopForm] = []
    seen_defs: set[str] = set()
    seen_other: set[tuple[str, str]] = set()
    while not reader.eof():
        form = _read_top_form(reader)
        if isinstance(form, (DefEquations, RawDefun)):
            if form.name in seen_defs or form.name in PRIMITIVE_ARITY:
                raise DuplicateDefinition(f"{form.name} is already defined", form.loc)
            seen_defs.add(form.name)
        else:
            tag = form.kind if isinstance(form, Directive) else type(form).__name__
            key = (tag, form.name)
            if key in seen_other:
                raise DuplicateDefinition(f"duplicate {tag} for {form.name}", form.loc)
            seen_other.add(key)
        forms.append(form)
    return forms


def parse_file(path) -> list[TopForm]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read(), file=str(path))


def _read_top_form(reader: _Reader) -> TopForm:
    open_tok = reader.expect("(")
    head = reader.expect("atom")
    if head.text == "defeqs":
        return _read_defeqs(reader, open_tok)
    if head.text == "defun":
        return _read_defun(reader, open_tok)
    if head.text == "defproperty":
        return _read_property(reader, open_tok)
    if head.text == "defproof":
        return _read_proof(reader, open_tok)
    if head.text == "sig":
        return _read_sig(reader, open_tok)
    if head.text == "measure":
        return _read_measure(reader, open_tok)
    raise UnexpectedToken(f"unknown top-level form {head.text!r}", head.loc)


def _read_def_name(reader: _Reader) -> str:
    tok = reader.expect("atom")
    if _INT_RE.match(tok.text) or tok.text.startswith(":") or tok.text in ("t", "nil"):
        raise UnexpectedToken(f"{tok.text!r} cannot name a definition", tok.loc)
    return tok.text


def _read_defeqs(reader: _Reader, open_tok: Token) -> DefEquations:
    name = _read_def_name(reader)
    params, _ = reader.read_name_list()
    if len(set(params)) != len(params):
        raise DuplicateDefinition(f"repeated parameter in {name}", open_tok.loc)
    equations = []
    labels: set[str] = set()
    while reader.peek().kind != ")":
        equations.append(_read_equation(reader, name, params, labels))
    reader.next()
    if not equations:
        raise UnexpectedToken(f"{name} has no equations", open_tok.loc)
    return DefEquations(name, params, tuple(equations), loc=open_tok.loc)


def _read_equation(reader: _Reader, name: str, params: tuple[str, ...], labels: set[str]) -> Equation:
    open_tok = reader.expect("(")
    label_tok = reader.expect("atom")
    label = label_tok.text
    if label in labels:
        raise DuplicateDefinition(f"duplicate equation label {label}", label_tok.loc)
    labels.add(label)
    lhs_open = reader.expect("(")
    head = reader.expect("atom")
    if head.text != name:
        raise UnexpectedToken(f"equation head must be {name}, found {head.text}", head.loc)
    patterns = []
    while reader.peek().kind != ")":
        patterns.append(reader.read_pattern())
    reader.next()
    if len(patterns) != len(params):
        raise BadArity(
            f"{label}: {name} takes {len(params)} pattern(s), got {len(patterns)}", lhs_open.loc
        )
    seen: set[str] = set()
    for p in patterns:
        for v in pattern_vars(p):
            if v in seen:
                raise DuplicateDefinition(f"{label}: variable {v} occurs twice in patterns", open_tok.loc)
            seen.add(v)
    rhs = reader.read_term()
    guard = None
    if reader.at_keyword(":when"):
        reader.next()
        guard = reader.read_term()
    reader.expect(")")
    for t, what in ((rhs, "right-hand side"), (guard, "guard")):
        if t is None:
            continue
        loose = term_vars(t) - seen
        if loose:
            raise UnexpectedToken(
                f"{label}: {what} uses unbound variable(s) {', '.join(sorted(loose))}", open_tok.loc
            )
    return Equation(label, tuple(patterns), rhs, guard, loc=open_tok.loc)


def _read_defun(reader: _Reader, open_tok: Token) -> RawDefun:
    name = _read_def_name(reader)
    params, _ = reader.read_name_list()
    if len(set(params)) != len(params):
        raise DuplicateDefinition(f"repeated parameter in {name}", open_tok.loc)
    trusted = False
    if reader.at_keyword(":trust"):
        reader.next()
        trusted = True
    body = reader.read_term()
    reader.expect(")")
    loose = term_vars(body) - set(params)
    if loose:
        raise UnexpectedToken(
            f"{name}: body uses unbound variable(s) {', '.join(sorted(loose))}", open_tok.loc
        )
    return RawDefun(name, params, body, trusted, loc=open_tok.loc)


def _read_property(reader: _Reader, open_tok: Token) -> Property:
    name = _read_def_name(reader)
    trials = None
    if reader.at_keyword(":trials"):
        reader.next()
        tok = reader.expect("atom")
        if not tok.text.isdigit() or int(tok.text) < 1:
            raise UnexpectedToken(":trials takes a positive integer", tok.loc)
        trials = int(tok.text)
    reader.expect("(")
    binders = []
    bound: set[str] = set()
    while reader.peek().kind != ")":
        var_tok = reader.expect("atom")
        var = var_tok.text
        if _INT_RE.match(var) or var.startswith(":") or var in ("t", "nil"):
            raise UnexpectedToken(f"{var!r} cannot be a property variable", var_tok.loc)
        if var in bound:
            raise DuplicateDefinition(f"variable {var} bound twice", var_tok.loc)
        bound.add(var)
        kw = reader.expect("atom")
        if kw.text != ":value":
            raise UnexpectedToken(f"expected :value, found {kw.text!r}", kw.loc)
        binders.append((var, reader.read_term()))
    reader.next()
    claim = reader.read_term()
    reader.expect(")")
    loose = term_vars(claim) - bound
    if loose:
        raise UnexpectedToken(
            f"{name}: claim uses unbound variable(s) {', '.join(sorted(loose))}", open_tok.loc
        )
    return Property(name, tuple(binders), claim, trials, loc=open_tok.loc)


def _read_sig(reader: _Reader, open_tok: Token) -> Directive:
    name = _read_def_name(reader)
    domains, loc = reader.read_name_list()
    for d in domains:
        if d not in DOMAINS:
            raise UnexpectedToken(f"unknown domain {d!r} (expected nat, list, or any)", loc)
    reader.expect(")")
    return Directive("sig", name, domains, loc=open_tok.loc)


def _read_measure(reader: _Reader, open_tok: Token) -> Directive:
    name = _read_def_name(reader)
    term = reader.read_term()
    reader.expect(")")
    return Directive("measure", name, term, loc=open_tok.loc)


def _read_proof(reader: _Reader, open_tok: Token) -> ProofScript:
    name = _read_def_name(reader)
    hypothesis = lhs = rhs = None
    method = None
    chains: list[Chain] = []
    while reader.peek().kind != ")":
        if reader.at_keyword(":goal"):
            reader.next()
            goal = reader.read_term()
            hypothesis, lhs, rhs = _split_goal(goal)
            continue
        if reader.at_keyword(":method"):
            reader.next()
            method = _read_method(reader)
            continue
        chains.append(_read_chain(reader))
    reader.next()
    if lhs is None or method is None:
        raise UnexpectedToken(f"proof {name} needs both :goal and :method", open_tok.loc)
    kinds = [c.kind for c in chains]
    if method[0] == "equational":
        if kinds != ["chain"]:
            raise UnexpectedToken(f"proof {name}: equational proofs take one (:chain ...)", open_tok.loc)
    else:
        if kinds != ["base", "step"]:
            raise UnexpectedToken(
                f"proof {name}: induction proofs take (:base ...) then (:step ...)", open_tok.loc
            )
        goalvars = term_vars(lhs) | term_vars(rhs)
        if hypothesis is not None:
            goalvars |= term_vars(hypothesis)
        if method[2] not in goalvars:
            raise UnexpectedToken(
                f"proof {name}: induction variable {method[2]} not free in the goal", open_tok.loc
            )
    return ProofScript(name, hypothesis, lhs, rhs, method, tuple(chains), loc=open_tok.loc)


def _split_goal(goal: Term) -> tuple[Term | None, Term, Term]:
    if isinstance(goal, App) and goal.op == "implies":
        hyp, concl = goal.args
        if not (isinstance(concl, App) and concl.op == "equal"):
            raise UnexpectedToken("goal must be (equal L R) or (implies H (equal L R))", goal.loc)
        return hyp, concl.args[0], concl.args[1]
    if isinstance(goal, App) and goal.op == "equal":
        return None, goal.args[0], goal.args[1]
    raise UnexpectedToken("goal must be (equal L R) or (implies H (equal L R))", goal.loc)


def _read_method(reader: _Reader) -> tuple:
    tok = reader.next()
    if tok.kind == "atom" and tok.text == "equational":
        return ("equational",)
    if tok.kind == "(":
        word = reader.expect("atom")
        if word.text != "induction":
            raise UnexpectedToken(f"unknown method {word.text!r}", word.loc)
        scheme = reader.expect("atom")
        if scheme.text not in ("list", "nat"):
            raise UnexpectedToken("induction scheme must be list or nat", scheme.loc)
        var = reader.expect("atom")
        reader.expect(")")
        return ("induction", scheme.text, var.text)
    raise UnexpectedToken("method must be equational or (induction SCHEME VAR)", tok.loc)


def _read_chain(reader: _Reader) -> Chain:
    open_tok = reader.expect("(")
    kw = reader.expect("atom")
    if kw.text not in (":chain", ":base", ":step"):
        raise UnexpectedToken(f"expected :chain, :base, or :step, found {kw.text!r}", kw.loc)
    kind = kw.text[1:]
    first = reader.read_term()
    steps = []
    while reader.peek().kind != ")":
        steps.append(_read_proof_step(reader))
    reader.next()
    return Chain(kind, first, tuple(steps), loc=open_tok.loc)


def _read_proof_step(reader: _Reader) -> ProofStep:
    open_tok = reader.expect("(")
    term = reader.read_term()
    kw = reader.expect("atom")
    if kw.text != ":by":
        raise UnexpectedToken(f"proof step needs :by LABEL, found {kw.text!r}", kw.loc)
    label = reader.expect("atom").text
    reverse = False
    position = None
    while reader.peek().kind != ")":
        opt = reader.expect("atom")
        if opt.text == ":dir":
            arrow = reader.expect("atom")
            if arrow.text == "<-":
                reverse = True
            elif arrow.text != "->":
                raise UnexpectedToken(":dir takes -> or <-", arrow.loc)
        elif opt.text == ":at":
            reader.expect("(")
            path = []
            while reader.peek().kind != ")":
                num = reader.expect("atom")
                if not num.text.isdigit():
                    raise UnexpectedToken(":at takes argument indexes", num.loc)
                path.append(int(num.text))
            reader.next()
            position = tuple(path)
        else:
            raise UnexpectedToken(f"unknown step option {opt.text!r}", opt.loc)
    reader.next()
    return ProofStep(term, label, reverse, position, loc=open_tok.loc)
