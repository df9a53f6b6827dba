"""``check``, ``test`` and ``prove`` against the three commands they replaced.

``_describe_admissibility``, ``cmd_check``, ``cmd_test``, ``cmd_prove`` and
``loader.property_report_json`` are kept here verbatim: each command wrote
its own lines and report.  The one table-driven ``cmd_files`` must return
the same ``(code, report, lines)``, or raise the same error, for the same
arguments.
"""

from pathlib import Path

import pytest

from eqthink import cli
from eqthink.admissibility import AdmissibilityReport
from eqthink.cli import EXIT_OK, EXIT_VERDICT, CommandResult, _load_session, corpus_root
from eqthink.properties import Pass, PropertyReport
from eqthink.prover import ProofOutcome
from eqthink.syntax import Property
from eqthink.values import print_value

# -- the replaced code, verbatim ----------------------------------------------


def property_report_json(r: PropertyReport) -> dict:
    out: dict = {"name": r.name, "seed": r.seed, "trials": r.trials}
    if isinstance(r.outcome, Pass):
        out["outcome"] = "Pass"
        out["vacuous"] = r.outcome.vacuous
    else:  # run_property returns a Pass or a Counterexample
        out["outcome"] = "Counterexample"
        out["trial"] = r.outcome.trial_index
        out["bindings"] = {
            k: print_value(v) for k, v in sorted(r.outcome.bindings.items())
        }
    return out


def _describe_admissibility(rep) -> list[str]:
    """One summary line, then one line per failed check (an admitted
    definition has none)."""
    summary = ", ".join(f"{k} {v}" for k, v in rep.verdicts().items())
    lines = [f"{rep.name}: {'admitted' if rep.admitted else 'rejected'} ({summary})"]
    for key in ("consistent", "comprehensive", "constructive"):
        res = getattr(rep, key)
        if res.verdict == "Failed":
            witness = f" [witness: {res.witness}]" if res.witness else ""
            lines.append(f"  {key}: {res.detail}{witness}")
    return lines


def cmd_check(args) -> CommandResult:
    _, results = _load_session(args.files, args.seed)
    reports = [r for r in results if isinstance(r, AdmissibilityReport)]
    admitted = sum(1 for r in reports if r.admitted)
    report = {
        "inputs": list(args.files),
        "seed": args.seed,
        "definitions": [r.to_json() for r in reports],
    }
    lines = [line for rep in reports for line in _describe_admissibility(rep)]
    lines.append(f"{admitted} of {len(reports)} definitions admitted")
    return (EXIT_OK if admitted == len(reports) else EXIT_VERDICT), report, lines


def cmd_test(args) -> CommandResult:
    session, results = _load_session(args.files, args.seed)
    reports = [
        session.run_property(p, trials=args.trials) for p in results if isinstance(p, Property)
    ]
    lines = []
    for r in reports:
        if isinstance(r.outcome, Pass):
            extra = f", {r.outcome.vacuous} vacuous" if r.outcome.vacuous else ""
            lines.append(f"{r.name}: pass ({r.outcome.trials_run} trials{extra})")
        else:
            bind = ", ".join(
                f"{k} = {print_value(v)}" for k, v in sorted(r.outcome.bindings.items())
            )
            lines.append(f"{r.name}: counterexample at trial {r.outcome.trial_index}: {bind}")
    passed = sum(1 for r in reports if isinstance(r.outcome, Pass))
    lines.append(f"{passed} of {len(reports)} properties passed")
    report = {
        "inputs": list(args.files),
        "seed": args.seed,
        "properties": [property_report_json(r) for r in reports],
    }
    return (EXIT_OK if passed == len(reports) else EXIT_VERDICT), report, lines


def cmd_prove(args) -> CommandResult:
    _, results = _load_session(args.files, args.seed)
    outcomes = [o for o in results if isinstance(o, ProofOutcome)]
    lines = [
        f"{o.name}: Accepted"
        if o.accepted
        else f"{o.name}: rejected at {o.case} step {o.step_index}: {o.reason}"
        for o in outcomes
    ]
    accepted = sum(1 for o in outcomes if o.accepted)
    lines.append(f"{accepted} of {len(outcomes)} proofs accepted")
    report = {
        "inputs": list(args.files),
        "seed": args.seed,
        "proofs": [o.to_json() for o in outcomes],
    }
    return (EXIT_OK if accepted == len(outcomes) else EXIT_VERDICT), report, lines


# -- the comparison -----------------------------------------------------------

OLD = {"check": cmd_check, "test": cmd_test, "prove": cmd_prove}


def _glob(sub: str) -> list[str]:
    return [str(p) for p in sorted((corpus_root() / sub).glob("*.lx"))]


FILE_SETS = {
    "corpus": _glob("defs") + _glob("proofs"),
    **{f"negative-{Path(p).stem}": [p] for p in _glob("negative")},
    "undecided": [str(Path(__file__).parent / "fixtures" / "undecided_guards.lx")],
}
ARGVS = [("check",), ("test",), ("test", "--trials", "3"), ("prove",)]


def _outcome(fn, args):
    try:
        return fn(args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("files", sorted(FILE_SETS))
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_file_commands_return_what_the_old_commands_returned(argv, files, seed):
    args = cli.build_parser().parse_args([*argv, *FILE_SETS[files], "--seed", str(seed)])
    new = _outcome(args.fn, args)
    old = _outcome(OLD[argv[0]], args)
    assert new == old
    assert isinstance(new[0], int)  # every run got as far as a verdict
