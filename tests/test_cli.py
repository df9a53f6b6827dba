"""Command-line behavior: exit codes, JSON report shape, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from eqthink import circuits, cli, cost
from eqthink.cli import corpus_root, main
from eqthink.syntax import parse_term

CORPUS = corpus_root()
LISTS = str(CORPUS / "defs" / "00_lists.lx")
SORTING = str(CORPUS / "defs" / "10_sorting.lx")
APPEND_PROOF = str(CORPUS / "proofs" / "60_append.lx")
CLASH = str(CORPUS / "negative" / "clash.lx")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_check_admitted_definitions(capsys):
    code, out, _ = run(capsys, "check", LISTS)
    assert code == 0
    assert "4 of 4 definitions admitted" in out


def test_check_rejection_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "check", CLASH)
    assert code == 1
    assert "witness: n = 0" in out


def test_check_json_report(capsys):
    code, report = run_json(capsys, "check", LISTS)
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "check"
    assert report["seed"] == 0
    assert "elapsed" not in report
    assert [d["name"] for d in report["definitions"]] == [
        "append", "len", "prefix", "true-listp",
    ]


def test_eval_prints_value(capsys):
    code, out, _ = run(
        capsys, "eval", LISTS, "-e", "(append (cons 1 nil) (cons 2 nil))"
    )
    assert code == 0 and out.strip() == "'(1 2)"


def test_eval_json_reports_step_counts(capsys):
    code, report = run_json(capsys, "eval", "-e", "(+ 1 2)")
    assert code == 0 and report["value"] == "3"
    assert report["steps"] == 1
    assert report["per_operator"] == {"+": 1}
    assert report["self_steps"] == {"(term)": 1}


def test_eval_json_reports_self_steps_per_operator(capsys):
    code, report = run_json(capsys, "eval", LISTS, "-e", "(len (append (cons 1 nil) (cons 2 nil)))")
    assert code == 0 and report["value"] == "2"
    assert sum(report["self_steps"].values()) == report["steps"]
    assert set(report["self_steps"]) == {"(term)", "append", "len"}
    assert report["self_steps"]["(term)"] == 4


def test_eval_prints_list_holding_improper_pair(capsys):
    code, out, _ = run(capsys, "eval", "-e", "(cons (cons 1 2) nil)")
    assert code == 0 and out.strip() == "(cons (cons 1 2) nil)"


def test_eval_error_exit_codes(capsys, tmp_path):
    assert run(capsys, "eval", "-e", "(undefined-op 1)")[0] == 2
    assert run(capsys, "eval", "-e", "(cons 1")[0] == 2
    # An unknown name in a loaded file is still the file's failure.
    bad = tmp_path / "bad.lx"
    bad.write_text("(defun bad (x) :trust (nosuch x))\n")
    assert run(capsys, "eval", str(bad), "-e", "(bad 1)")[0] == 1


def test_parse_error_in_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.lx"
    bad.write_text("(defeqs broken\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "UnbalancedParens" in err


def test_deeply_nested_input_exits_two_without_traceback(tmp_path):
    src = tmp_path / "big.lx"
    nest = "(" * 5000 + ")" * 5000
    src.write_text(f"(sig big (any)) (defeqs big (x) (b0 (big x) '{nest}))")
    out = subprocess.run(
        [sys.executable, "-m", "eqthink.cli", "check", str(src)],
        capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("depth", [5000, 20000])
def test_deep_file_exits_two_after_a_definition_too(tmp_path, depth):
    # Defining an operator leaves the recursion limit as it was, so a deep
    # file is refused after another file's defun as it is alone.
    first = tmp_path / "id.lx"
    first.write_text("(defun id (x) :trust x)")
    deep = tmp_path / "deep.lx"
    nest = "'" + "(" * depth + ")" * depth
    deep.write_text(f"(sig g (nat)) (defeqs g (n) (g0 (g 0) {nest}) (g1 (g n) {nest}))")
    for files in ([deep], [first, deep]):
        out = subprocess.run(
            [sys.executable, "-m", "eqthink.cli", "check", *map(str, files)],
            capture_output=True, text=True,
        )
        assert out.returncode == 2, (files, out.stderr)
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1


def test_long_quoted_list_in_defeqs_is_admitted_and_evaluates(tmp_path):
    # Each command runs in a fresh interpreter, at the default recursion
    # limit until evaluation raises it.
    src = tmp_path / "big.lx"
    items = " ".join(str(i) for i in range(5000))
    src.write_text(f"(sig big (any)) (defeqs big (x) (b0 (big x) '({items})))")
    check = subprocess.run(
        [sys.executable, "-m", "eqthink.cli", "check", str(src)],
        capture_output=True, text=True,
    )
    assert check.returncode == 0, check.stderr
    assert check.stdout.splitlines()[-1] == "1 of 1 definitions admitted"
    evaluated = subprocess.run(
        [sys.executable, "-m", "eqthink.cli", "eval", str(src), "-e", "(big 0)"],
        capture_output=True, text=True,
    )
    assert evaluated.returncode == 0, evaluated.stderr
    assert evaluated.stdout == f"'({items})\n"


_MAIN_REPORTING_MAXRSS = (
    "import resource, sys\n"
    "from eqthink.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_large_literal_folds_to_one_constant(tmp_path):
    # A 100,000-element quoted list is one ground term: it translates to a
    # single constant, while its 100,000 cons steps are still counted.
    src = tmp_path / "big.lx"
    items = " ".join(str(i) for i in range(100_000))
    src.write_text(f"(defun big () :trust '({items}))")
    out = subprocess.run(
        [sys.executable, "-c", _MAIN_REPORTING_MAXRSS, "eval", "--json", LISTS, str(src),
         "-e", "(len (big))"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["json_value"] == 100_000
    assert report["steps"] == 800_004
    assert report["per_operator"] == {
        "1+": 100_000, "big": 1, "cons": 100_000, "consp": 100_000, "equal": 100_001,
        "if": 200_001, "len": 100_001, "rest": 100_000,
    }
    maxrss_mb = int(out.stderr.split()[-1]) / 1024  # Linux reports kilobytes
    assert maxrss_mb < 240


def test_integers_longer_than_the_conversion_limit_print_in_full(tmp_path, capsys):
    # CPython refuses to convert an int of more than 4300 digits to or from
    # text unless the limit is lifted; main lifts it for the command only.
    src = tmp_path / "pow2.lx"
    src.write_text("(defun pow2 (n acc) :trust (if (zp n) acc (pow2 (- n 1) (* 2 acc))))")
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "eval", str(src), "-e", "(pow2 15000 1)")
    assert (code, err) == (0, "")
    # The test runs under the limit, so it reads the digits as text.
    assert len(out) == 4517 and out[:-1].isdigit()
    assert int(out[-21:-1]) == pow(2, 15000, 10**20)
    code, out, err = run(capsys, "eval", str(src), "-e", "(pow2 15000 1)", "--json")
    report = json.loads(out, parse_int=str)
    assert (code, err) == (0, "")
    assert report["value"] == report["json_value"] and len(report["value"]) == 4516
    literal = "9" * 5000
    assert run(capsys, "eval", "-e", literal) == (0, f"{literal}\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_missing_file_exits_two(capsys):
    assert run(capsys, "check", "no-such-file.lx")[0] == 2


def test_test_subcommand_counterexample_exit(capsys):
    code, out, _ = run(capsys, "test", LISTS, "--trials", "20")
    assert code == 1  # the unguarded any-object claim fails by design
    assert "counterexample" in out
    assert "5 of 6 properties passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("test", LISTS, "--trials", "0"),
        ("test", LISTS, "--trials", "-5"),
        ("steps", "merge-sort", "--sizes", "16,32,64,128", "--samples", "0"),
        ("steps", "merge-sort", "--sizes", "16,32,64,128", "--samples", "-1"),
    ],
)
def test_trials_and_samples_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["-1", "0.5", "nan", "inf"])
def test_steps_window_must_be_finite_and_at_least_one(capsys, window):
    with pytest.raises(SystemExit) as exc:
        main(["steps", "merge-sort", "--sizes", "4,8,16,32", "--window", window])
    assert exc.value.code == 2
    assert "must be a finite number >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes, message",
    [
        # Negative sizes were measured as empty lists and printed as rows.
        ("-1,-2,-3,4,8,16,32", "must be a positive integer, got '-1'"),
        # A repeated size was dropped, leaving too few to judge growth.
        ("4,8,16,16", "must be distinct, got '4,8,16,16'"),
        # A non-integer reached int() unchecked.
        ("4,x", "must be a positive integer, got 'x'"),
    ],
)
def test_steps_sizes_must_be_distinct_positive_integers(capsys, sizes, message):
    with pytest.raises(SystemExit) as exc:
        main(["steps", "merge-sort", f"--sizes={sizes}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == f"eqthink steps: error: argument --sizes: {message}"


def test_steps_refuses_too_few_sizes_before_measuring(capsys, monkeypatch):
    # Refused before the corpus loads or any size is measured.
    measured = []
    monkeypatch.setattr(cost, "measure_steps", lambda *args, **kw: measured.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["steps", "insertion-sort", "--worst-case", "--sizes", "512,1024,2048"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and measured == []
    assert err.splitlines()[-1] == (
        "eqthink steps: error: argument --sizes: "
        "need at least 4 sizes to judge growth, got '512,1024,2048'"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # An unknown operator exited 1, the code of a failed growth verdict.
        (("steps", "nosuch", "--sizes", "4,8,16,32"),
         "UnknownOperator: unknown operator nosuch"),
        (("steps", "append", "--sizes", "4,8,16,32"),
         "BadArity: append takes 2 argument(s), got 1"),
        # Unknown names in a -e term exited 1, a malformed one 2.
        (("eval", "-e", "(foo 1)"), "<string>:1:1: UnknownOperator: unknown operator foo"),
        (("eval", "-e", "(+ x 1)"), "<string>:1:4: UnboundVariable: variable x is not bound"),
        (("eval", "-e", "(if 1 2)"), "<string>:1:1: BadArity: if takes 3 argument(s), got 2"),
    ],
)
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_names_in_command_line_terms_are_usage_errors(capsys, monkeypatch, argv, message, mode):
    measured = []
    monkeypatch.setattr(cost, "measure_steps", lambda *args, **kw: measured.append(args))
    code, out, err = run(capsys, *argv, *mode)
    assert (code, out, measured) == (2, "", [])
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("circuit", "adder", "0"), "BadWidth: adder width must be at least 1, got 0"),
        (("circuit", "adder", "-3"), "BadWidth: adder width must be at least 1, got -3"),
        (
            ("mr", "pagerank", "{graph}", "--iterations", "-1"),
            "BadDamping: iterations must be nonnegative, got -1",
        ),
        (
            ("mr", "pagerank", "{graph}", "--damping", "2"),
            "BadDamping: damping must lie strictly between 0 and 1, got 2",
        ),
        (("mr", "pagerank", "{graph}", "--damping", "1/0"), "damping 1/0 divides by zero"),
        (
            ("circuit", "build", "(and x 1)"),
            "<string>:1:8: NonBooleanOperator: integer literals are not boolean formulas",
        ),
        (
            ("circuit", "equiv", "{xy}", "{xz}"),
            "PortMismatch: port names differ: ['x', 'y'] vs ['x', 'z']",
        ),
        (("circuit", "equiv", "{wide}", "{wide}"), "TooManyInputs: 21 inputs exceed the 20-input limit"),
        (
            ("circuit", "basis", "{closed}", "--to", "nand"),
            "CircuitError: nand basis needs at least one input to build constants",
        ),
    ],
)
def test_out_of_range_command_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    # A circuit error or a bad damping only ever judges what the command
    # line names, so no verdict failed.
    files = {
        "graph": [["a", ["b"]], ["b", ["a"]]],
        "xy": circuits.formula_to_circuit(parse_term("(and x y)")).to_json(),
        "xz": circuits.formula_to_circuit(parse_term("(and x z)")).to_json(),
        "wide": circuits.Netlist([f"x{i}" for i in range(21)], [], [0]).to_json(),
        "closed": circuits.formula_to_circuit(parse_term("t")).to_json(),
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_test_seed_changes_draws_deterministically(capsys):
    _, first = run_json(capsys, "test", LISTS, "--seed", "9")
    _, second = run_json(capsys, "test", LISTS, "--seed", "9")
    assert first == second
    _, third = run_json(capsys, "test", LISTS, "--seed", "10")
    assert third != first


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("EQTHINK_SEED", "123")
    _, report = run_json(capsys, "check", LISTS)
    assert report["seed"] == 123


def test_bad_seed_env_is_a_usage_error():
    out = subprocess.run(
        [sys.executable, "-m", "eqthink.cli", "check", LISTS],
        capture_output=True, text=True, env={**os.environ, "EQTHINK_SEED": "x"},
    )
    assert out.returncode == 2
    assert out.stderr == "EQTHINK_SEED must be an integer, got 'x'\n"


def test_prove_subcommand(capsys):
    code, out, _ = run(capsys, "prove", LISTS, APPEND_PROOF)
    assert code == 0 and "app-assoc: Accepted" in out


def test_prove_rejection(tmp_path, capsys):
    script = tmp_path / "wrong.lx"
    script.write_text(
        "(defproof wrong :goal (equal (or x nil) nil)\n"
        "  :method equational (:chain (or x nil) (nil :by or-identity)))\n"
    )
    code, out, _ = run(capsys, "prove", str(script))
    assert code == 1 and "rejected at chain step 1" in out


def test_steps_csv_and_verdict(capsys):
    code, out, _ = run(capsys, "steps", "merge-sort", "--sizes", "16,32,64,128")
    assert code == 0
    assert out.startswith("size,steps,candidate,c\n")
    assert "Consistent: merge-sort vs nlogn" in out


def test_steps_wrong_candidate_fails(capsys):
    code, out, _ = run(
        capsys, "steps", "insertion-sort", "--sizes", "16,32,64,128",
        "--worst-case", "--candidate", "nlogn",
    )
    assert code == 1 and "Inconsistent" in out


def test_circuit_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "circuit", "build", "(and (or x y) y)")
    assert code == 0
    left = tmp_path / "left.json"
    left.write_text(out)

    code, out, _ = run(capsys, "circuit", "basis", str(left), "--to", "nand")
    assert code == 0
    right = tmp_path / "right.json"
    right.write_text(out)
    assert all(g["kind"] == "NAND" for g in json.loads(out)["gates"])

    code, out, _ = run(capsys, "circuit", "equiv", str(left), str(right))
    assert code == 0 and out.strip() == "Equivalent"

    code, out, _ = run(capsys, "circuit", "sim", str(left), "--assign", "x=1,y=0")
    assert code == 0 and out.strip() == "0"


def test_circuit_equiv_difference(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "circuit", "build", "(and x y)")
    a.write_text(run(capsys, "circuit", "build", "(and x y)")[1])
    b.write_text(run(capsys, "circuit", "build", "(or x y)")[1])
    code, out, _ = run(capsys, "circuit", "equiv", str(a), str(b))
    assert code == 1 and "Differ at" in out


_NOT_AN_OBJECT = 'netlist JSON must be an object with "inputs", "gates" and "outputs"'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"inputs": ["a"]}', _NOT_AN_OBJECT),
        ("[1, 2]", _NOT_AN_OBJECT),
        (
            '{"inputs": ["a"], "gates": [{"kind": "NOT", "args": ["a"]}], "outputs": [1]}',
            "netlist gate args must be a list of node ids",
        ),
        (
            '{"inputs": ["a"], "gates": [{"kind": "NOT"}], "outputs": [1]}',
            "netlist gate args must be a list of node ids",
        ),
        (
            '{"inputs": [["a"]], "gates": [], "outputs": [0]}',
            "netlist inputs must be a list of port names",
        ),
        (
            '{"inputs": ["a", "a"], "gates": [], "outputs": [0]}',
            "duplicate input port name",
        ),
        (
            '{"inputs": ["a"], "gates": [{"kind": "MUX", "args": [0]}], "outputs": [1]}',
            "unknown gate kind MUX",
        ),
        (
            '{"inputs": ["a"], "gates": [{"kind": "NOT", "args": [0]}], "outputs": [2]}',
            "output references missing node 2",
        ),
        (
            '{"inputs": ["a"], "gates": [{"kind": "AND", "args": [0]}], "outputs": [1]}',
            "gate 1 (AND) has wrong arity",
        ),
        (
            '{"inputs": ["a"], "gates": [{"kind": "NOT", "args": [2]},'
            ' {"kind": "NOT", "args": [0]}], "outputs": [1]}',
            "gate 1 references node 2 ahead of it",
        ),
        ('{"inputs": ["a"], "gates": [], "outputs": []}', "netlist needs at least one output"),
    ],
    ids=[
        "no-gates",
        "array",
        "string-arg",
        "no-args",
        "list-port",
        "duplicate-port",
        "unknown-kind",
        "output-past-end",
        "arity",
        "forward-reference",
        "no-outputs",
    ],
)
def test_malformed_netlist_exits_two(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (
        ("sim", str(bad), "--assign", "a=1"),
        ("equiv", str(bad), str(bad)),
        ("basis", str(bad), "--to", "nand"),
    ):
        code, _, err = run(capsys, "circuit", *argv)
        assert code == 2 and err == message + "\n", argv


@pytest.mark.parametrize(
    "assign, message",
    [
        ("x=2,y=0", "argument --assign: expected name=0 or name=1, got 'x=2'"),
        ("x=1,y=q", "argument --assign: expected name=0 or name=1, got 'y=q'"),
        ("x=1,x=0,y=1", "argument --assign: port x is assigned twice"),
        ("x=1", "--assign gives no value for port y"),
        ("x=1,y=0,z=1", "--assign names z, which is not a port of {net}"),
    ],
    ids=["bit-2", "bit-q", "repeated", "missing", "unknown"],
)
def test_bad_circuit_sim_assignment_is_a_usage_error(tmp_path, capsys, assign, message):
    net = tmp_path / "and.json"
    net.write_text(run(capsys, "circuit", "build", "(and x y)")[1])
    try:
        code = main(["circuit", "sim", str(net), "--assign", assign])
    except SystemExit as exc:  # argparse refuses the value itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(message.format(net=net))


@pytest.mark.parametrize("option", [["--json"], ["--seed", "3"]], ids=" ".join)
def test_circuit_options_before_the_verb_are_refused(tmp_path, capsys, option):
    net = tmp_path / "and.json"
    net.write_text(run(capsys, "circuit", "build", "(and x y)")[1])
    with pytest.raises(SystemExit) as exc:
        main(["circuit", *option, "sim", str(net), "--assign", "x=1,y=1"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    code, report = run_json(capsys, "circuit", "sim", str(net), "--assign", "x=1,y=1")
    assert (code, report["outputs"]) == (0, [1])


def test_circuit_adder_and_dot(capsys):
    code, out, _ = run(capsys, "circuit", "adder", "2")
    assert code == 0 and json.loads(out)["inputs"] == ["x0", "x1", "y0", "y1", "cin"]
    code, out, _ = run(capsys, "circuit", "adder", "2", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_mr_wordcount(tmp_path, capsys):
    data = tmp_path / "docs.json"
    data.write_text('[[1, ["the", "cat"]], [2, ["the"]]]')
    code, out, _ = run(capsys, "mr", "wordcount", str(data))
    assert code == 0
    assert out.splitlines() == ["'cat\t1", "'the\t2"]


def test_mr_pagerank_exact(tmp_path, capsys):
    data = tmp_path / "graph.json"
    data.write_text('[["a", ["b"]], ["b", ["a"]]]')
    code, report = run_json(
        capsys, "mr", "pagerank", str(data), "--iterations", "10"
    )
    assert code == 0
    assert report["pairs"] == [["a", "1/2"], ["b", "1/2"]]


def test_mr_pagerank_loads_no_corpus(tmp_path, capsys, monkeypatch):
    def refuse(paths, seed):
        raise AssertionError("mr pagerank must not load the corpus")

    monkeypatch.setattr(cli, "_load_session", refuse)
    data = tmp_path / "graph.json"
    data.write_text('[["a", ["b"]], ["b", []]]')
    code, report = run_json(capsys, "mr", "pagerank", str(data), "--iterations", "1")
    assert code == 0
    assert [node for node, _ in report["pairs"]] == ["a", "b"]


def test_mr_grep_needs_pattern(tmp_path, capsys):
    data = tmp_path / "lines.json"
    data.write_text('[[1, ["the", "cat"]]]')
    assert run(capsys, "mr", "grep", str(data))[0] == 2
    code, out, _ = run(capsys, "mr", "grep", str(data), "--pattern", "cat")
    assert code == 0 and out.strip() == "1\t'(the cat)"


_MR_BAD_INPUTS = [
    ("wordcount", "5"),
    ("wordcount", "null"),
    ("wordcount", '{"ab": [1]}'),
    ("wordcount", '["xy"]'),
    ("wordcount", "[[1, 2, 3]]"),
    ("pagerank", '[[{"cons": 5}, []]]'),
    ("wordcount", '[[{"cons": "ab"}, ["the"]]]'),
    ("wordcount", '[[1, "the"]]'),
    ("wordcount", '[[1, ["the", 3, "cat"]]]'),
    ("grep", '[[1, "the"]]'),
    ("grep", '[[1, [["the"]]]]'),
    ("invert", '[["a", 5]]'),
]


@pytest.mark.parametrize(
    "job, data",
    _MR_BAD_INPUTS,
    ids=[data if job == "wordcount" else f"{job} {data}" for job, data in _MR_BAD_INPUTS],
)
def test_mr_input_must_be_pairs(tmp_path, capsys, job, data):
    path = tmp_path / "in.json"
    path.write_text(data)
    code, out, err = run(capsys, "mr", job, str(path), "--pattern", "the")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


def test_mr_empty_input_prints_nothing(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text("[]")
    assert run(capsys, "mr", "wordcount", str(path)) == (0, "", "")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_closed_stdout_keeps_the_exit_code(tmp_path, flags):
    """A reader that stops early (say, head) is no usage error."""
    src = tmp_path / "long.lx"
    src.write_text("(defun upto (n acc) :trust (if (equal n 0) acc (upto (- n 1) (cons n acc))))")
    proc = subprocess.Popen(
        [sys.executable, "-m", "eqthink.cli", "eval", *flags, str(src), "-e", "(upto 200000 nil)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_failed_write_to_stdout_exits_two():
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            [sys.executable, "-m", "eqthink.cli", "check", LISTS],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["[Errno 28] No space left on device"]


def test_ci_passes_on_bundled_corpus(capsys):
    code, out, _ = run(capsys, "ci")
    assert code == 0
    assert "ci ok" in out


def test_ci_json_byte_identical(capsys):
    code1, out1, _ = run(capsys, "ci", "--json")
    code2, out2, _ = run(capsys, "ci", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_ci_detects_golden_drift(tmp_path, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(CORPUS, work)
    code, out, _ = run(capsys, "ci", str(work))
    assert code == 0
    stale = work / "golden" / "00_lists.json"
    stale.write_text(stale.read_text().replace("Proved", "Maybe"))
    code, out, _ = run(capsys, "ci", str(work))
    assert code == 1 and "differs from golden" in out


@pytest.mark.parametrize("where", ["missing", "defs", "empty"])
def test_ci_with_nothing_to_check_is_a_usage_error(tmp_path, capsys, where):
    # The defs directory given in place of the corpus root holds .lx files,
    # but none under defs/, proofs/ or negative/.
    root = {"missing": tmp_path / "missing", "defs": CORPUS / "defs", "empty": tmp_path}[where]
    if where == "missing":
        message = f"ci: no corpus directory {root}"
    else:
        message = f"ci: {root} has no .lx file under defs/, proofs/ or negative/"
    code, out, err = run(capsys, "ci", str(root))
    assert (code, out, err) == (2, "", message + "\n")
    code, out, err = run(capsys, "ci", str(root), "--json")
    report = json.loads(out)
    assert code == report["exit"] == 2 and err == ""
    assert (report["files"], report["problems"]) == ([], [message])


def test_ci_update_golden_round_trip(tmp_path, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(CORPUS, work)
    shutil.rmtree(work / "golden")
    code, out, _ = run(capsys, "ci", str(work))
    assert code == 1 and "no golden file" in out
    assert run(capsys, "ci", str(work), "--update-golden")[0] == 0
    assert run(capsys, "ci", str(work))[0] == 0


JSON_CASES = [
    (("check", CLASH), "check"),
    (("test", LISTS, "--trials", "20"), "test"),
    (("prove", LISTS, APPEND_PROOF), "prove"),
    (("eval", LISTS, "-e", "(append '(1) '(2))"), "eval"),
    (("steps", "merge-sort", "--sizes", "8,16,32,64"), "steps"),
    (("circuit", "sim", "{and}", "--assign", "x=1,y=1"), "circuit sim"),
    (("circuit", "equiv", "{and}", "{or}"), "circuit equiv"),
    (("mr", "wordcount", "{docs}"), "mr wordcount"),
    (("mr", "grep", "{docs}", "--pattern", "cat"), "mr grep"),
    (("mr", "invert", "{links}"), "mr invert"),
    (("mr", "pagerank", "{links}", "--iterations", "3"), "mr pagerank"),
    (("ci",), "ci"),
]


@pytest.mark.parametrize("argv, command", JSON_CASES, ids=[c for _, c in JSON_CASES])
def test_every_json_report_comes_through_main(tmp_path, capsys, argv, command):
    files = {
        "and": circuits.formula_to_circuit(parse_term("(and x y)")).to_json(),
        "or": circuits.formula_to_circuit(parse_term("(or x y)")).to_json(),
        "docs": [[1, ["the", "cat"]], [2, ["the"]]],
        "links": [["a", ["b"]], ["b", ["a", "c"]], ["c", []]],
    }
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    argv = [arg.format(**paths) for arg in argv]
    code, out, _ = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert report["schema"] == 1 and report["command"] == command
    assert report["exit"] == code
    assert run(capsys, *argv)[0] == code


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "eqthink.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0 and "eqthink" in out.stdout


def _modules_added_by(module: str) -> set[str]:
    """The modules ``import <module>`` adds to a fresh interpreter."""
    probe = (
        "import sys; bare = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        f"import {module}; print(*sorted(set(sys.modules) - bare))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert module in added
    return added


def test_cli_import_adds_no_introspection_modules():
    # Start-up pays for none of these: nothing at import time needs them,
    # only mr needs mapreduce and fractions, and no command needs hashlib.
    added = _modules_added_by("eqthink.cli")
    unused = {"dataclasses", "inspect", "ast", "dis", "hashlib", "_hashlib", "fractions"}
    assert added.isdisjoint(unused | {"eqthink.mapreduce"}), sorted(added)


@pytest.mark.parametrize("module", ["eqthink.circuits", "eqthink.syntax", "eqthink.values"])
def test_lower_layers_import_no_admission_stack(module):
    # The package re-exports nothing, so a lower layer loads only itself
    # and what it imports.
    stack = {"eqthink.evaluator", "eqthink.admissibility", "eqthink.loader", "eqthink.prover"}
    added = _modules_added_by(module)
    assert added.isdisjoint(stack), sorted(added & stack)
