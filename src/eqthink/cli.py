"""Batch command-line interface.

Every subcommand reads files and returns ``(code, report, lines)``: its
exit code, its JSON report and its human text, one string a line.
``main`` alone prints.  With --json it stamps the report with ``schema``,
``command`` and ``exit`` and dumps it; otherwise it prints the lines.
``check``, ``test`` and ``prove`` are one command, ``cmd_files``, read off
the table ``FILE_COMMANDS``; each checked result renders its own lines and
JSON, and ``ci`` reads the same table for its per-file reports.
``circuit build|basis|adder`` return no report: their netlist JSON or dot
text is their output in both modes.

Exit codes are 0 on success, 1 on any verdict failure, 2 on usage or
parse errors.  Reports never include wall-clock times, so identical
inputs and seed give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import circuits, cost
from .admissibility import AdmissibilityReport
from .errors import (
    BadArity, BadDamping, CircuitError, EqError, ParseError, UnboundVariable, UnknownOperator,
)
from .evaluator import eval_counting
from .loader import Session
from .prover import ProofOutcome
from .syntax import Property, parse_term
from .values import Symbol, from_json as value_from_json, print_value, to_json as value_to_json

SCHEMA = 1

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2

# What a command hands to main: its exit code, its JSON report (None when
# its text is its only output) and its text, one string a line.
CommandResult = tuple[int, dict | None, list[str]]


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


def _load_session(paths: list[str], seed: int) -> tuple[Session, list]:
    session = Session(seed=seed)
    results = []
    for path in paths:
        results.extend(session.load_file(path))
    return session, results


# ---------------------------------------------------------------------------
# check / test / prove / eval


# What check, test and prove each report: the kind of load result they
# read, the report key, and the attribute that says one result passed.
FILE_COMMANDS = {
    "check": (AdmissibilityReport, "definitions", "admitted"),
    "test": (Property, "properties", "passed"),
    "prove": (ProofOutcome, "proofs", "accepted"),
}


def _checked(results, kind, session: Session, trials: int | None = None) -> list:
    """The results of one kind, with each property run into its report."""
    items = [r for r in results if isinstance(r, kind)]
    if kind is Property:
        return [session.run_property(p, trials=trials) for p in items]
    return items


def cmd_files(args) -> CommandResult:
    kind, key, verdict = FILE_COMMANDS[args.command]
    session, results = _load_session(args.files, args.seed)
    reports = _checked(results, kind, session, getattr(args, "trials", None))
    passed = sum(1 for r in reports if getattr(r, verdict))
    lines = [line for r in reports for line in r.lines()]
    lines.append(f"{passed} of {len(reports)} {key} {verdict}")
    report = {"inputs": list(args.files), "seed": args.seed, key: [r.to_json() for r in reports]}
    return (EXIT_OK if passed == len(reports) else EXIT_VERDICT), report, lines


def cmd_eval(args) -> CommandResult:
    session, _ = _load_session(args.files, args.seed)
    try:
        value, count = eval_counting(parse_term(args.expr), {}, session.env)
    except (UnknownOperator, UnboundVariable) as exc:
        # Raised by the check that runs before the term is translated.
        raise ValueError(str(exc)) from None
    shown = print_value(value)
    report = {
        "inputs": list(args.files),
        "expr": args.expr,
        "value": shown,
        "json_value": value_to_json(value),
        "steps": count.total,
        "per_operator": count.per_operator,
        "self_steps": count.self_steps,
    }
    return EXIT_OK, report, [shown]


# ---------------------------------------------------------------------------
# steps


def cmd_steps(args) -> CommandResult:
    paths = args.defs if args.defs else sorted((corpus_root() / "defs").glob("*.lx"))
    session, _ = _load_session([str(p) for p in paths], args.seed)
    arity = session.env.arity(args.op)
    if arity is None:
        raise ValueError(str(UnknownOperator(f"unknown operator {args.op}")))
    if arity != 1:
        raise ValueError(str(BadArity(f"{args.op} takes {arity} argument(s), got 1")))
    if args.worst_case:
        gen, samples = cost.reverse_sorted_list, 1
    else:
        gen, samples = cost.random_list, args.samples
    measured = cost.measure_steps(args.op, gen, args.sizes, args.seed, session.env, samples)
    bound = cost.check_bound(measured, args.candidate, args.window)
    report = {**bound.to_json(), "op": args.op, "seed": args.seed}
    lines = cost.emit_csv(bound).splitlines()
    lines.append(
        f"{bound.verdict}: {args.op} vs {args.candidate} "
        f"(c in [{bound.c_lo:.4f}, {bound.c_hi:.4f}], window {bound.window})"
    )
    return (EXIT_OK if bound.consistent else EXIT_VERDICT), report, lines


# ---------------------------------------------------------------------------
# circuit


def _load_netlist(path: str) -> circuits.Netlist:
    with open(path) as fh:
        return circuits.Netlist.from_json(json.load(fh))


def cmd_circuit(args) -> CommandResult:
    if args.verb == "sim":
        net = _load_netlist(args.file)
        for port in net.inputs:
            if port not in args.assign:
                raise ValueError(f"--assign gives no value for port {port}")
        for name in args.assign:
            if name not in net.inputs:
                raise ValueError(f"--assign names {name}, which is not a port of {args.file}")
        bits = circuits.simulate(net, args.assign)
        return EXIT_OK, {"outputs": bits}, [" ".join(str(b) for b in bits)]
    if args.verb == "equiv":
        result = circuits.exhaustive_equiv(_load_netlist(args.left), _load_netlist(args.right))
        if result.equivalent:
            return EXIT_OK, result.to_json(), ["Equivalent"]
        bind = " ".join(f"{k}={v}" for k, v in sorted(result.witness.items()))
        return EXIT_VERDICT, result.to_json(), [f"Differ at {bind}"]
    if args.verb == "build":
        net = circuits.formula_to_circuit(parse_term(args.expr))
    elif args.verb == "adder":
        net = circuits.ripple_carry(args.width)
    else:  # basis
        net = circuits.to_basis(_load_netlist(args.file), args.to)
    # The netlist is the whole output, with or without --json.
    return EXIT_OK, None, [net.to_dot() if args.dot else _dump(net.to_json())]


# ---------------------------------------------------------------------------
# mr


def cmd_mr(args) -> CommandResult:
    from fractions import Fraction

    from . import mapreduce

    if args.job == "grep" and not args.pattern:
        raise ValueError("mr grep requires --pattern")
    with open(args.input) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(isinstance(p, list) and len(p) == 2 for p in data):
        raise ValueError(f"{args.input}: mr input must be a JSON array of [key, value] pairs")
    # Checked here, not in the jobs, so library callers pay no per-call check.
    if args.job in ("wordcount", "grep") and not all(
        isinstance(v, list) and all(isinstance(w, str) for w in v) for _, v in data
    ):
        raise ValueError(f"{args.input}: mr {args.job} values must be arrays of words")
    if args.job == "invert" and not all(isinstance(v, list) for _, v in data):
        raise ValueError(f"{args.input}: mr invert values must be arrays of link targets")
    pairs = [(value_from_json(k), value_from_json(v)) for k, v in data]
    if args.job == "pagerank":
        try:
            damping = Fraction(args.damping)
        except ZeroDivisionError:
            raise ValueError(f"damping {args.damping} divides by zero") from None
        out = mapreduce.pagerank(pairs, args.iterations, damping)
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
    lines = [
        f"{print_value(k)}\t"
        + (f"{v} ({float(v):.6f})" if isinstance(v, Fraction) else print_value(v))
        for k, v in out
    ]
    return EXIT_OK, {"input": args.input, "pairs": rendered}, lines


# ---------------------------------------------------------------------------
# ci


def _file_report(name: str, results, session: Session) -> dict:
    report: dict = {"file": name}
    for kind, key, _ in FILE_COMMANDS.values():
        items = [r.to_json() for r in _checked(results, kind, session)]
        if items:
            report[key] = items
    return report


def cmd_ci(args) -> CommandResult:
    root = Path(args.dir) if args.dir else corpus_root()
    sources = {sub: sorted((root / sub).glob("*.lx")) for sub in ("defs", "proofs", "negative")}
    if not any(sources.values()):
        # A pass over nothing would claim evidence that was never gathered.
        if root.is_dir():
            message = f"ci: {root} has no .lx file under defs/, proofs/ or negative/"
        else:
            message = f"ci: no corpus directory {root}"
        report = {"seed": args.seed, "files": [], "problems": [message], "golden_mismatches": []}
        return EXIT_USAGE, report, [message]
    session = Session(seed=args.seed)
    file_reports: list[dict] = []
    problems: list[str] = []

    for sub in ("defs", "proofs"):
        for path in sources[sub]:
            name = f"{sub}/{path.name}"
            results = session.load_file(path)
            file_reports.append(_file_report(name, results, session))
            for r in results:
                if isinstance(r, AdmissibilityReport) and not r.admitted:
                    problems.append(f"{name}: {r.name} not admitted")
                if isinstance(r, ProofOutcome) and not r.accepted:
                    problems.append(f"{name}: proof {r.name} rejected")

    for path in sources["negative"]:
        name = f"negative/{path.name}"
        neg = Session(seed=args.seed)
        results = neg.load_file(path)
        file_reports.append(_file_report(name, results, neg))
        if all(r.admitted for r in results if isinstance(r, AdmissibilityReport)):
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
    lines = [f"{report['file']}: loaded" for report in file_reports]
    lines += [f"problem: {p}" for p in problems]
    lines += [f"golden: {m}" for m in mismatches]
    lines.append(
        f"ci {'ok' if code == EXIT_OK else 'FAILED'}: {len(file_reports)} files, "
        f"{len(problems)} problems, {len(mismatches)} golden mismatches"
    )
    report = {
        "seed": args.seed,
        "files": file_reports,
        "problems": problems,
        "golden_mismatches": mismatches,
    }
    return code, report, lines


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


def _assignment(text: str) -> dict[str, int]:
    """Input bits: comma- or space-separated name=0 or name=1, each name once."""
    bits: dict[str, int] = {}
    for part in text.replace(",", " ").split():
        name, eq, bit = part.partition("=")
        if not (name and eq and bit in ("0", "1")):
            raise argparse.ArgumentTypeError(f"expected name=0 or name=1, got {part!r}")
        if name in bits:
            raise argparse.ArgumentTypeError(f"port {name} is assigned twice")
        bits[name] = int(bit)
    return bits


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
    p.set_defaults(fn=cmd_files)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("files", nargs="*")
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("test", parents=[common], help="run properties")
    p.add_argument("files", nargs="+")
    p.add_argument("--trials", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_files)

    p = sub.add_parser("prove", parents=[common], help="check proof scripts")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_files)

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

    # --json and --seed belong to the verbs alone: given before the verb
    # too, the verb's default would overwrite the value.
    p = sub.add_parser("circuit", help="netlist tools")
    verbs = p.add_subparsers(dest="verb", required=True)
    v = verbs.add_parser("build", parents=[common])
    v.add_argument("expr")
    v.add_argument("--dot", action="store_true")
    v = verbs.add_parser("sim", parents=[common])
    v.add_argument("file")
    v.add_argument("--assign", type=_assignment, required=True, help="e.g. x=1,y=0")
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
    # Integers have any length and print in full: lift CPython's limit on
    # int-text conversion for the command, restoring the caller's on exit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        code, report, lines = args.fn(args)
        if args.json and report is not None:
            name = [args.command, getattr(args, "verb", None) or getattr(args, "job", None)]
            report.update(schema=SCHEMA, command=" ".join(filter(None, name)), exit=code)
            lines = [_dump(report)]
    except (ParseError, CircuitError, BadDamping) as exc:
        # Loading a file raises neither: a circuit error or a bad damping
        # only ever judges a command's arguments or the netlists it names.
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except EqError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERDICT
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("input nested too deeply for the interpreter's recursion limit", file=sys.stderr)
        return EXIT_USAGE
    # A usage error's text is a diagnostic; its JSON report is still output.
    out = sys.stderr if code == EXIT_USAGE and not args.json else sys.stdout
    try:
        for line in lines:
            print(line, file=out)
        out.flush()
    except BrokenPipeError:
        # The reader stopped early (say, head): the output was still made,
        # so the code stands.  What is left in the buffer goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
