"""Batch command-line interface.

Every subcommand reads files, prints human text (or a versioned JSON
report with --json), and exits 0 on success, 1 on any verdict failure,
2 on usage or parse errors.  Reports never include wall-clock times, so
identical inputs and seed give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import circuits, cost, mapreduce
from .errors import BadDamping, BadWidth, EqError, ParseError
from .evaluator import eval_counting
from .loader import Session, property_report_json
from .properties import Counterexample, Pass
from .syntax import parse_term
from .values import Symbol, from_json as value_from_json, print_value, to_json as value_to_json

SCHEMA = 1

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    text = os.environ.get("EQTHINK_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"EQTHINK_SEED must be an integer, got {text!r}") from None


def corpus_root() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _print_json(report: dict) -> None:
    report["schema"] = SCHEMA
    print(_dump(report))


def _load_session(paths: list[str], seed: int) -> tuple[Session, list]:
    session = Session(seed=seed)
    results = []
    for path in paths:
        results.extend(session.load_file(path))
    return session, results


# ---------------------------------------------------------------------------
# check / test / prove / eval


def _describe_admissibility(rep) -> list[str]:
    lines = []
    verdicts = rep.verdicts()
    summary = ", ".join(f"{k} {v}" for k, v in verdicts.items())
    if rep.admitted:
        lines.append(f"{rep.name}: admitted ({summary})")
    else:
        lines.append(f"{rep.name}: rejected ({summary})")
        for key, res in (
            ("consistent", rep.consistent),
            ("comprehensive", rep.comprehensive),
            ("constructive", rep.constructive),
        ):
            if res.verdict == "Failed":
                witness = f" [witness: {res.witness}]" if res.witness else ""
                lines.append(f"  {key}: {res.detail}{witness}")
    return lines


def cmd_check(args) -> int:
    session, results = _load_session(args.files, args.seed)
    reports = [r.detail for r in results if r.kind == "defeqs"]
    code = EXIT_OK if all(r.admitted for r in reports) else EXIT_VERDICT
    if args.json:
        _print_json(
            {
                "command": "check",
                "inputs": list(args.files),
                "seed": args.seed,
                "definitions": [r.to_json() for r in reports],
                "exit": code,
            },
        )
    else:
        for rep in reports:
            for line in _describe_admissibility(rep):
                print(line)
        admitted = sum(1 for r in reports if r.admitted)
        print(f"{admitted} of {len(reports)} definitions admitted")
    return code


def cmd_test(args) -> int:
    session, results = _load_session(args.files, args.seed)
    reports = [
        session.run_property(r.detail, trials=args.trials)
        for r in results
        if r.kind == "property"
    ]
    failures = [r for r in reports if isinstance(r.outcome, Counterexample)]
    code = EXIT_OK if not failures else EXIT_VERDICT
    if args.json:
        _print_json(
            {
                "command": "test",
                "inputs": list(args.files),
                "seed": args.seed,
                "properties": [property_report_json(r) for r in reports],
                "exit": code,
            },
        )
    else:
        for r in reports:
            if isinstance(r.outcome, Pass):
                extra = f", {r.outcome.vacuous} vacuous" if r.outcome.vacuous else ""
                print(f"{r.name}: pass ({r.outcome.trials_run} trials{extra})")
            else:
                bind = ", ".join(
                    f"{k} = {print_value(v)}" for k, v in sorted(r.outcome.bindings.items())
                )
                print(f"{r.name}: counterexample at trial {r.outcome.trial_index}: {bind}")
        print(f"{len(reports) - len(failures)} of {len(reports)} properties passed")
    return code


def cmd_prove(args) -> int:
    session, results = _load_session(args.files, args.seed)
    outcomes = [r.detail for r in results if r.kind == "proof"]
    code = EXIT_OK if all(o.accepted for o in outcomes) else EXIT_VERDICT
    if args.json:
        _print_json(
            {
                "command": "prove",
                "inputs": list(args.files),
                "seed": args.seed,
                "proofs": [o.to_json() for o in outcomes],
                "exit": code,
            },
        )
    else:
        for o in outcomes:
            if o.accepted:
                print(f"{o.name}: Accepted")
            else:
                where = f"{o.case} step {o.step_index}" if o.case else "?"
                print(f"{o.name}: rejected at {where}: {o.reason}")
        accepted = sum(1 for o in outcomes if o.accepted)
        print(f"{accepted} of {len(outcomes)} proofs accepted")
    return code


def cmd_eval(args) -> int:
    session, _ = _load_session(args.files, args.seed)
    term = parse_term(args.expr)
    value, count = eval_counting(term, {}, session.env)
    if args.json:
        _print_json(
            {
                "command": "eval",
                "inputs": list(args.files),
                "expr": args.expr,
                "value": print_value(value),
                "json_value": value_to_json(value),
                "steps": count.total,
                "per_operator": count.per_operator,
                "exit": EXIT_OK,
            },
        )
    else:
        print(print_value(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# steps


def cmd_steps(args) -> int:
    paths = args.defs if args.defs else sorted((corpus_root() / "defs").glob("*.lx"))
    session, _ = _load_session([str(p) for p in paths], args.seed)
    if args.worst_case:
        measured = cost.measure_steps(
            args.op, cost.reverse_sorted_list, args.sizes, args.seed, session.env, samples=1
        )
    else:
        measured = cost.measure_steps(
            args.op, cost.random_list, args.sizes, args.seed, session.env, samples=args.samples
        )
    report = cost.check_bound(measured, args.candidate, args.window)
    code = EXIT_OK if report.consistent else EXIT_VERDICT
    if args.json:
        payload = report.to_json()
        payload.update(
            {"command": "steps", "op": args.op, "seed": args.seed, "exit": code}
        )
        _print_json(payload)
    else:
        sys.stdout.write(cost.emit_csv(report))
        print(
            f"{report.verdict}: {args.op} vs {args.candidate} "
            f"(c in [{report.c_lo:.4f}, {report.c_hi:.4f}], window {report.window})"
        )
    return code


# ---------------------------------------------------------------------------
# circuit


def _load_netlist(path: str) -> circuits.Netlist:
    with open(path) as fh:
        return circuits.Netlist.from_json(json.load(fh))


def _emit_netlist(args, net: circuits.Netlist) -> None:
    if getattr(args, "dot", False):
        print(net.to_dot())
    else:
        print(_dump(net.to_json()))


def cmd_circuit(args) -> int:
    if args.verb == "build":
        _emit_netlist(args, circuits.formula_to_circuit(parse_term(args.expr)))
        return EXIT_OK
    if args.verb == "adder":
        _emit_netlist(args, circuits.ripple_carry(args.width))
        return EXIT_OK
    if args.verb == "basis":
        _emit_netlist(args, circuits.to_basis(_load_netlist(args.file), args.to))
        return EXIT_OK
    if args.verb == "sim":
        net = _load_netlist(args.file)
        assignment = {}
        for part in args.assign.replace(",", " ").split():
            name, _, bit = part.partition("=")
            assignment[name] = int(bit)
        bits = circuits.simulate(net, assignment)
        if args.json:
            _print_json({"command": "circuit sim", "outputs": bits, "exit": EXIT_OK})
        else:
            print(" ".join(str(b) for b in bits))
        return EXIT_OK
    # equiv
    result = circuits.exhaustive_equiv(_load_netlist(args.left), _load_netlist(args.right))
    code = EXIT_OK if result.equivalent else EXIT_VERDICT
    if args.json:
        payload = result.to_json()
        payload.update({"command": "circuit equiv", "exit": code})
        _print_json(payload)
    elif result.equivalent:
        print("Equivalent")
    else:
        bind = " ".join(f"{k}={v}" for k, v in sorted(result.witness.items()))
        print(f"Differ at {bind}")
    return code


# ---------------------------------------------------------------------------
# mr


def cmd_mr(args) -> int:
    if args.job == "grep" and not args.pattern:
        print("mr grep requires --pattern", file=sys.stderr)
        return EXIT_USAGE
    with open(args.input) as fh:
        data = json.load(fh)
    pairs = [(value_from_json(k), value_from_json(v)) for k, v in data]
    if args.job == "pagerank":
        ranks = mapreduce.pagerank(pairs, args.iterations, Fraction(args.damping))
        out = [(node, rank) for node, rank in ranks]
    else:
        session, _ = _load_session(
            [str(p) for p in sorted((corpus_root() / "defs").glob("*.lx"))], args.seed
        )
        if args.job == "wordcount":
            out = mapreduce.job_wordcount(pairs, session.env)
        elif args.job == "grep":
            out = mapreduce.job_grep(Symbol(args.pattern), pairs, session.env)
        else:
            out = mapreduce.invert_links(pairs, session.env)
    rendered = [
        [value_to_json(k), str(v) if isinstance(v, Fraction) else value_to_json(v)]
        for k, v in out
    ]
    if args.json:
        _print_json(
            {
                "command": f"mr {args.job}",
                "input": args.input,
                "pairs": rendered,
                "exit": EXIT_OK,
            },
        )
    else:
        for k, v in out:
            shown = f"{v} ({float(v):.6f})" if isinstance(v, Fraction) else print_value(v)
            print(f"{print_value(k)}\t{shown}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ci


def _file_report(name: str, results, session: Session) -> dict:
    report: dict = {"file": name}
    defs = [r.detail.to_json() for r in results if r.kind == "defeqs"]
    proofs = [r.detail.to_json() for r in results if r.kind == "proof"]
    props = [
        property_report_json(session.run_property(r.detail))
        for r in results
        if r.kind == "property"
    ]
    if defs:
        report["definitions"] = defs
    if proofs:
        report["proofs"] = proofs
    if props:
        report["properties"] = props
    return report


def cmd_ci(args) -> int:
    root = Path(args.dir) if args.dir else corpus_root()
    session = Session(seed=args.seed)
    file_reports: list[dict] = []
    problems: list[str] = []

    for sub in ("defs", "proofs"):
        for path in sorted((root / sub).glob("*.lx")):
            name = f"{sub}/{path.name}"
            results = session.load_file(path)
            file_reports.append(_file_report(name, results, session))
            for r in results:
                if r.kind == "defeqs" and not r.detail.admitted:
                    problems.append(f"{name}: {r.name} not admitted")
                if r.kind == "proof" and not r.detail.accepted:
                    problems.append(f"{name}: proof {r.name} rejected")

    for path in sorted((root / "negative").glob("*.lx")):
        name = f"negative/{path.name}"
        neg = Session(seed=args.seed)
        results = neg.load_file(path)
        file_reports.append(_file_report(name, results, neg))
        if all(r.detail.admitted for r in results if r.kind == "defeqs"):
            problems.append(f"{name}: expected a rejection, everything was admitted")

    golden_dir = root / "golden"
    mismatches: list[str] = []
    for report in file_reports:
        stem = Path(report["file"]).stem
        text = _dump(report) + "\n"
        gpath = golden_dir / f"{stem}.json"
        if args.update_golden:
            golden_dir.mkdir(parents=True, exist_ok=True)
            gpath.write_text(text)
        elif not gpath.exists():
            mismatches.append(f"{report['file']}: no golden file {gpath.name}")
        elif gpath.read_text() != text:
            mismatches.append(f"{report['file']}: differs from golden {gpath.name}")

    code = EXIT_OK if not problems and not mismatches else EXIT_VERDICT
    if args.json:
        _print_json(
            {
                "command": "ci",
                "seed": args.seed,
                "files": file_reports,
                "problems": problems,
                "golden_mismatches": mismatches,
                "exit": code,
            },
        )
    else:
        for report in file_reports:
            print(f"{report['file']}: loaded")
        for p in problems:
            print(f"problem: {p}")
        for m in mismatches:
            print(f"golden: {m}")
        verdict = "ok" if code == EXIT_OK else "FAILED"
        print(
            f"ci {verdict}: {len(file_reports)} files, "
            f"{len(problems)} problems, {len(mismatches)} golden mismatches"
        )
    return code


# ---------------------------------------------------------------------------
# argument wiring


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _sizes(text: str) -> list[int]:
    """Input sizes: a comma-separated list of distinct positive integers,
    enough of them to judge growth."""
    sizes = [_positive_int(part) for part in text.split(",")]
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"must be distinct, got {text!r}")
    if len(sizes) < cost.MIN_SIZES:
        raise argparse.ArgumentTypeError(
            f"need at least {cost.MIN_SIZES} sizes to judge growth, got {text!r}"
        )
    return sizes


def _window(text: str) -> float:
    """A growth window bounds a max/min ratio, so it is finite and at least 1."""
    window = float(text)
    if not (math.isfinite(window) and window >= 1):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 1, got {text!r}")
    return window


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--seed", type=int, default=None, help="random seed (default: $EQTHINK_SEED or 0)"
    )

    parser = argparse.ArgumentParser(
        prog="eqthink", description="Equation-defined programs: check, test, prove, measure."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="run admissibility checks")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("files", nargs="*")
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("test", parents=[common], help="run properties")
    p.add_argument("files", nargs="+")
    p.add_argument("--trials", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("prove", parents=[common], help="check proof scripts")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("steps", parents=[common], help="measure step growth")
    p.add_argument("op")
    p.add_argument(
        "--sizes", type=_sizes, required=True, help="comma-separated distinct input sizes"
    )
    p.add_argument("--worst-case", action="store_true")
    p.add_argument("--candidate", choices=sorted(cost.CANDIDATES), default="nlogn")
    p.add_argument("--window", type=_window, default=cost.DEFAULT_WINDOW)
    p.add_argument("--samples", type=_positive_int, default=cost.MEASURE_SAMPLES)
    p.add_argument("--defs", nargs="*", help="definition files (default: bundled corpus)")
    p.set_defaults(fn=cmd_steps)

    p = sub.add_parser("circuit", parents=[common], help="netlist tools")
    verbs = p.add_subparsers(dest="verb", required=True)
    v = verbs.add_parser("build", parents=[common])
    v.add_argument("expr")
    v.add_argument("--dot", action="store_true")
    v = verbs.add_parser("sim", parents=[common])
    v.add_argument("file")
    v.add_argument("--assign", required=True, help="e.g. x=1,y=0")
    v = verbs.add_parser("equiv", parents=[common])
    v.add_argument("left")
    v.add_argument("right")
    v = verbs.add_parser("basis", parents=[common])
    v.add_argument("file")
    v.add_argument("--to", choices=circuits.BASES, required=True)
    v.add_argument("--dot", action="store_true")
    v = verbs.add_parser("adder", parents=[common])
    v.add_argument("width", type=int)
    v.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_circuit)

    p = sub.add_parser("mr", parents=[common], help="run a mapreduce job")
    p.add_argument("job", choices=["wordcount", "grep", "invert", "pagerank"])
    p.add_argument("input", help="JSON array of [key, value] pairs")
    p.add_argument("--pattern")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--damping", default="0.85")
    p.set_defaults(fn=cmd_mr)

    p = sub.add_parser("ci", parents=[common], help="run a corpus against golden files")
    p.add_argument("dir", nargs="?")
    p.add_argument("--update-golden", action="store_true")
    p.set_defaults(fn=cmd_ci)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.fn(args)
    except (ParseError, BadWidth, BadDamping) as exc:
        # BadWidth and BadDamping only ever judge a command's arguments.
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except EqError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERDICT
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("input nested too deeply for the interpreter's recursion limit", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
