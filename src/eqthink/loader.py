"""Load programs form by form into a shared session.

Processing order is source order: signatures and measures announce the
next definition's domains and termination argument, equation groups run
the admissibility checks before their compiled form joins the
environment, trusted defuns bypass the checks explicitly, and proofs
run against the rule database as it stands at that point in the file.

``Session.env`` is replaced at each admission by the environment the
checks ran in, which already holds the compiled defun and its size fact.
A rejected definition leaves ``Session.env`` as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .admissibility import AdmissibilityReport, admit
from .errors import DuplicateDefinition, NotAdmitted
from .evaluator import DefEnv
from .prover import ProofOutcome, check_proof
from .properties import (
    DEFAULT_TRIALS,
    Counterexample,
    Pass,
    Property,
    PropertyReport,
    run_property,
)
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
from .values import print_value


@dataclass(frozen=True)
class FormResult:
    kind: str  # defeqs | defun | property | proof
    name: str
    detail: object


@dataclass
class Session:
    env: DefEnv = field(default_factory=DefEnv)
    rules: RuleDatabase = None  # type: ignore[assignment]
    seed: int = 0
    sigs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    measures: dict[str, Term] = field(default_factory=dict)
    admissibility: dict[str, AdmissibilityReport] = field(default_factory=dict)
    properties: list[Property] = field(default_factory=list)
    proofs: list[ProofOutcome] = field(default_factory=list)

    def __post_init__(self):
        if self.rules is None:
            self.rules = RuleDatabase.axioms()

    # -- loading ------------------------------------------------------------

    def load_form(self, form: TopForm) -> FormResult | None:
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
            self.admissibility[form.name] = report
            if report.admitted:
                self.env = report.env
                self.rules.add_definitional(form)
            return FormResult("defeqs", form.name, report)
        if isinstance(form, RawDefun):
            if not form.trusted:
                raise NotAdmitted(
                    f"{form.name}: plain defun skips the admissibility checks; "
                    "write defeqs or mark it :trust",
                    form.loc,
                )
            self.env.define(form)
            return FormResult("defun", form.name, None)
        if isinstance(form, Property):
            self.properties.append(form)
            return FormResult("property", form.name, form)
        if isinstance(form, ProofScript):
            outcome = check_proof(form, self.rules, self.env)
            self.proofs.append(outcome)
            return FormResult("proof", form.name, outcome)
        raise TypeError(f"unknown top form {form!r}")

    def load_forms(self, forms: list[TopForm]) -> list[FormResult]:
        out = []
        for form in forms:
            result = self.load_form(form)
            if result is not None:
                out.append(result)
        return out

    def load_file(self, path) -> list[FormResult]:
        return self.load_forms(parse_file(path))

    # -- running ------------------------------------------------------------

    def run_property(
        self, p: Property, seed: int | None = None, trials: int | None = None
    ) -> PropertyReport:
        if trials is not None:
            p = replace(p, trials=trials)
        use_seed = self.seed if seed is None else seed
        outcome = run_property(p, use_seed, self.env)
        ran = p.trials if p.trials is not None else DEFAULT_TRIALS
        return PropertyReport(p.name, outcome, use_seed, ran)


def property_report_json(r: PropertyReport) -> dict:
    out: dict = {"name": r.name, "seed": r.seed, "trials": r.trials}
    if isinstance(r.outcome, Pass):
        out["outcome"] = "Pass"
        out["vacuous"] = r.outcome.vacuous
    elif isinstance(r.outcome, Counterexample):
        out["outcome"] = "Counterexample"
        out["trial"] = r.outcome.trial_index
        out["bindings"] = {
            k: print_value(v) for k, v in sorted(r.outcome.bindings.items())
        }
    else:
        out["outcome"] = type(r.outcome).__name__
    return out
