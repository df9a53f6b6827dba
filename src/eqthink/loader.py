"""Load programs form by form into a shared session.

Processing order is source order: signatures and measures announce the
next definition's domains and termination argument, equation groups run
the admissibility checks before their compiled form joins the
environment, trusted defuns bypass the checks explicitly, and proofs
run against the rule database as it stands at that point in the file.

``Session.load_form`` returns what the form gives its caller to check:
the ``AdmissibilityReport`` of an equation group, the ``Property`` itself
(run it with ``Session.run_property``) or the ``ProofOutcome`` of a proof.
Directives and trusted defuns return ``None``, and ``load_forms`` and
``load_file`` keep only the results that are not ``None``.

``Session.env`` is replaced at each admission by the environment the
checks ran in, which already holds the compiled defun and its size fact.
A rejected definition leaves ``Session.env`` as it was.
"""

from __future__ import annotations

from .admissibility import AdmissibilityReport, admit
from .errors import DuplicateDefinition, NotAdmitted
from .evaluator import DefEnv
from .prover import ProofOutcome, check_proof
from .properties import DEFAULT_TRIALS, Property, PropertyReport, run_property
from .records import Record
from .rewriting import RuleDatabase
from .syntax import (
    DefEquations,
    Directive,
    ProofScript,
    RawDefun,
    Term,
    TopForm,
    parse_file,
)

# What a checked form hands back to its caller.
LoadResult = AdmissibilityReport | Property | ProofOutcome


class Session(Record):
    # The one mutable record: loading replaces env.
    __slots__ = _fields = ("env", "rules", "seed", "sigs", "measures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        env: DefEnv | None = None,
        rules: RuleDatabase | None = None,
        seed: int = 0,
        sigs: dict[str, tuple[str, ...]] | None = None,
        measures: dict[str, Term] | None = None,
    ):
        self.env = DefEnv() if env is None else env
        self.rules = RuleDatabase.axioms() if rules is None else rules
        self.seed = seed
        self.sigs = {} if sigs is None else sigs
        self.measures = {} if measures is None else measures

    # -- loading ------------------------------------------------------------

    def load_form(self, form: TopForm) -> LoadResult | None:
        if isinstance(form, Directive):
            store = self.sigs if form.kind == "sig" else self.measures
            if form.name in store:
                raise DuplicateDefinition(
                    f"{form.kind} for {form.name} given twice", form.loc
                )
            store[form.name] = form.payload
            return None
        if isinstance(form, DefEquations):
            report = admit(
                form,
                self.env,
                domains=self.sigs.get(form.name),
                measure=self.measures.get(form.name),
                seed=self.seed,
            )
            if report.admitted:
                self.env = report.env
                self.rules.add_definitional(form)
            return report
        if isinstance(form, RawDefun):
            if not form.trusted:
                raise NotAdmitted(
                    f"{form.name}: plain defun skips the admissibility checks; "
                    "write defeqs or mark it :trust",
                    form.loc,
                )
            self.env.define(form)
            return None
        if isinstance(form, Property):
            return form
        if isinstance(form, ProofScript):
            return check_proof(form, self.rules, self.env)
        raise TypeError(f"unknown top form {form!r}")

    def load_forms(self, forms: list[TopForm]) -> list[LoadResult]:
        results = [self.load_form(form) for form in forms]
        return [r for r in results if r is not None]

    def load_file(self, path) -> list[LoadResult]:
        return self.load_forms(parse_file(path))

    # -- running ------------------------------------------------------------

    def run_property(self, p: Property, trials: int | None = None) -> PropertyReport:
        if trials is not None:
            p = Property(p.name, p.binders, p.claim, trials, p.loc)
        outcome = run_property(p, self.seed, self.env)
        ran = p.trials if p.trials is not None else DEFAULT_TRIALS
        return PropertyReport(p.name, outcome, self.seed, ran)
