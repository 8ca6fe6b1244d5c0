"""Command-line front door.

Every library capability is reachable as a subcommand with stable,
scriptable output. Sets are passed as brace literals ("{0,2,3}") or in
gap notation ("(0 | 2, 1)"); output format is chosen by --format:
plain (default), spohn (sets rendered in gap notation), or json (one
JSON document per invocation on stdout).

Exit codes follow a pipeline-friendly convention:

    0   success; for scans, the expected predicate held
    1   a refuting witness was found (sum-dominant union in a
        progression scan, or a sub-8-element witness in minsize)
    2   search budget exceeded before the answer was certain
    64  usage error (unknown command, bad flags or argument shapes)
    65  data error (unparseable set text, empty-set operand, parameter
        outside its domain, invalid partition spec)
    74  the output or help could not be written (stdout on a full
        disk, say); one error line on stderr
    141 stdout was a pipe closed before the output was written (as
        `| head` does); nothing more is printed, as a process killed by
        SIGPIPE would end (128 + 13)

Flags sit where they are read: --format on the top parser and every
subcommand, --max-discard on `search largest`, and --threads on the five
`search` subcommands, which alone read the MSTD_THREADS fallback.

A process builds the parser of its own command only: when argv names a
command after nothing but --format tokens (`--format X` or
`--format=X`), the top parser gets that one leaf, and its group for a
grouped command. The same builder with no filter makes every leaf, and
it runs for everything else: help at the top or group level, an unknown
or misspelt command, an abbreviated flag before the command. A leaf is
built by the same code either way and the top usage names COMMAND, not
the choices, so usage, help and error text do not depend on the filter.

A process ends in main(), which flushes stdout and stderr and leaves by
os._exit with the exit code, skipping the interpreter's teardown of its
modules and the atexit handlers; an uncaught exception, or a profiler,
tracer or sys.monitoring tool (cProfile, trace, coverage) that writes its
results at exit, gets the normal exit instead. run() is the library
entry: it returns the code, or raises SystemExit on a usage error or
help, and never ends the process itself.
"""

import argparse
import os
import sys
from typing import Callable, NamedTuple

import mstd

from .core import (
    classify,
    diffset,
    format_gap_notation,
    format_set_literal,
    parse_gap_notation,
    parse_set_literal,
    sumset,
)
from .errors import BudgetExceededError, Error

EX_OK = 0
EX_WITNESS = 1
EX_BUDGET = 2
EX_USAGE = 64
EX_DATA = 65
EX_IOERR = 74
EX_PIPE = 141

ENV_THREADS = "MSTD_THREADS"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the convention here is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)

    # one invalid-choice message on every Python: argparse in later 3.12 and
    # 3.13 releases prints the choices without their quotes
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")

    # argparse drops a failed write of help; on stdout it fails as output does
    def _print_message(self, message, file=None):
        if file is not sys.stdout or not message:
            super()._print_message(message, file)
        elif (failed := _write(message)) is not None:
            raise SystemExit(failed)


def _parse_set_arg(text: str):
    s = text.strip()
    if s.startswith("("):
        return parse_gap_notation(s).to_intset()
    return parse_set_literal(s)


# ---------------------------------------------------------------------------
# renderers: (result, namespace, set formatter) -> (JSON document, plain text)


def _set_doc(a, ns, show):
    return list(a.elements), show(a)


def _scalar_doc(x, ns, show):
    return x, str(x)


def _verdict_doc(v, ns, show):
    text = f"applies=yes guarantee={v.guarantee}" if v.applies else "applies=no"
    return {"applies": v.applies, "guarantee": v.guarantee}, text


def _classify_doc(c, ns, show):
    return ({"kind": c.kind.value, "sum_card": c.sum_card,
             "diff_card": c.diff_card, "excess": c.excess},
            f"{c.kind.value} excess={c.excess}")


def _diffset_doc(res, ns, show):
    mags, card = res
    return ({"magnitudes": list(mags.elements), "cardinality": card},
            f"{show(mags)} cardinality={card}")


def _partition3_doc(res, ns, show):
    parts = {"a1": res.a1, "a2": res.a2, "s": res.s}
    doc = {"m": ns.m, "span": res.span}
    doc.update((name, list(p.elements)) for name, p in parts.items())
    return doc, "\n".join(f"{name}={show(p)}" for name, p in parts.items())


def _report_doc(report, ns, show):
    lines = [f"search={report.search} examined={report.examined} "
             f"witnesses={len(report.witnesses)}"]
    lines += [f"witness={show(w)}" for w in report.witnesses]
    return report.as_dict(elapsed_s=0.0), "\n".join(lines)


def _largest_doc(res, ns, show):
    # a BudgetExceededError renders its partial report
    result, report = ((None, res.report) if isinstance(res, BudgetExceededError)
                      else res)
    doc = report.as_dict(elapsed_s=0.0)
    doc["n_value"] = result.n_value if result else None
    if result is None:
        text = f"n={ns.n} N=unresolved examined={report.examined}"
    elif result.n_value is None:
        text = f"n={ns.n} N=absent"
    else:
        text = f"n={ns.n} N={result.n_value} witness={show(result.witness)}"
    return doc, text


def _feasibility_doc(feas, ns, show):
    parts = feas.witness or ()
    doc = {"search": "partition3", "params": {"r": ns.r},
           "examined": feas.examined,
           "witnesses": [list(p.elements) for p in parts],
           "elapsed_s": 0.0, "status": feas.status, "reason": feas.reason}
    reason = f" reason={feas.reason}" if feas.reason else ""
    lines = [f"r={ns.r} status={feas.status}{reason}"]
    lines += [f"{name}={show(p)}" for name, p in zip(("a1", "a2", "s"), parts)]
    return doc, "\n".join(lines)


# ---------------------------------------------------------------------------
# run callables and exit rules; lemmas, constructions and engines resolve
# through mstd at call time, which loads only the module a command runs, and
# tests patch them there


def _partition3(ns):
    if (ns.m1 is None) != (ns.m2 is None):
        print("error: --m1 and --m2 must be given together", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    spec = mstd.default_blocks(ns.m) if ns.m1 is None else mstd.Partition3Spec(
        ns.m, _parse_set_arg(ns.m1), _parse_set_arg(ns.m2))
    return mstd.partition3(spec)


def _any_witness(report):
    return EX_WITNESS if report.witnesses else EX_OK


def _small_witness(report):
    return EX_WITNESS if any(len(w) <= 7 for w in report.witnesses) else EX_OK


# ---------------------------------------------------------------------------
# the command table: one row per subcommand


class _Command(NamedTuple):
    words: str
    help: str
    args: str  # positionals: `set` and `text` stay strings, the rest are ints
    run: Callable
    render: Callable
    exit: Callable = lambda result: EX_OK
    flags: tuple = ()


_GROUPS = {"spohn": "gap-notation conversions", "lemma": "structural checks",
           "construct": "explicit set families", "search": "exhaustive scans"}

_FLAGS = {
    "--format": dict(choices=("plain", "json", "spohn"),
                     default=argparse.SUPPRESS,
                     help="output format (default: plain)"),
    "--threads": dict(type=int, metavar="T",
                      help=("worker processes for searches, at most; fewer "
                            "where a scan is too small to pay for a fork")),
    "--max-discard": dict(type=int, default=8, metavar="D", help=(
        "discard-level budget for `search largest` (default 8)")),
    "--m1": dict(metavar="SET"),
    "--m2": dict(metavar="SET"),
    "--exhaustive": dict(action="store_true",
                         help="run the complete search for r <= 26"),
}

_COMMANDS = (
    _Command("classify", "sum-dominant / balanced / difference-dominant",
             "set", lambda ns: classify(ns.set), _classify_doc),
    _Command("sumset", "compute A+A", "set",
             lambda ns: sumset(ns.set), _set_doc),
    _Command("diffset", "difference magnitudes and |A-A|", "set",
             lambda ns: diffset(ns.set), _diffset_doc),
    _Command("spohn parse", "gap notation to set", "text",
             lambda ns: parse_gap_notation(ns.text).to_intset(), _set_doc),
    _Command("spohn format", "set to gap notation", "set",
             lambda ns: format_gap_notation(ns.set), _scalar_doc),
    _Command("lemma ms1", "all gaps at most 2 implies not sum-dominant", "set",
             lambda ns: mstd.ms_condition1(ns.set), _verdict_doc),
    _Command("lemma ms2", "gaps in {1,m} with long outer unit runs", "set m",
             lambda ns: mstd.ms_condition2(ns.set, ns.m), _verdict_doc),
    _Command("lemma extend", "new sums when a point joins the set",
             "set point", lambda ns: mstd.new_sums_on_extend(ns.set, ns.point),
             _scalar_doc),
    _Command("construct kset", "{0,1,2,4} u {7..m} u {m+4,m+6,m+7}", "m",
             lambda ns: mstd.k_set(ns.m), _set_doc),
    _Command("construct nathanson", "three-progression family at parameter k",
             "k", lambda ns: mstd.nathanson_set(ns.k), _set_doc),
    _Command("construct ap", "arithmetic progression start/diff/length",
             "a d len", lambda ns: mstd.ap(ns.a, ns.d, ns.len), _set_doc),
    _Command("construct partition3",
             "three-part sum-dominant split of {1..124+m}", "m",
             _partition3, _partition3_doc, flags=("--m1", "--m2")),
    _Command("search largest", "largest sum-dominant subset of {0..n-1}", "n",
             lambda ns: mstd.largest_subset_scan(ns.n, ns.max_discard, ns.threads),
             _largest_doc, flags=("--threads", "--max-discard")),
    _Command("search minsize",
             "sum-dominant sets of size <= 8 up to a diameter", "diameter",
             lambda ns: mstd.min_size_scan(ns.diameter, ns.threads), _report_doc,
             _small_witness, ("--threads",)),
    _Command("search appairs", "same-difference progression pairs", "span diff",
             lambda ns: mstd.ap_pair_scan(ns.span, ns.diff, ns.threads),
             _report_doc, _any_witness, ("--threads",)),
    _Command("search twoap", "independent-difference progression pairs",
             "span diff", lambda ns: mstd.two_ap_general_scan(ns.span, ns.diff,
                                                              ns.threads),
             _report_doc, _any_witness, ("--threads",)),
    _Command("search partition3", "feasibility of a three-part split of {1..r}",
             "r", lambda ns: mstd.partition3_feasible(ns.r, ns.exhaustive, ns.threads),
             _feasibility_doc, flags=("--threads", "--exhaustive")),
)


def _build_parser(only: str | None = None) -> _Parser:
    # every command, or only the one whose words are `only`
    top = _Parser(prog="mstd",
                  description="sum-dominant set arithmetic, constructions, "
                              "and exhaustive searches")
    top.add_argument("--format", **_FLAGS["--format"])
    subs = {"": top.add_subparsers(dest="command", metavar="COMMAND",
                                   parser_class=_Parser, required=True)}
    for cmd in _COMMANDS:
        if only is not None and cmd.words != only:
            continue
        group, _, name = cmd.words.rpartition(" ")
        if group not in subs:
            g = subs[""].add_parser(group, help=_GROUPS[group])
            subs[group] = g.add_subparsers(dest="subcommand", metavar="SUB",
                                           parser_class=_Parser, required=True)
        p = subs[group].add_parser(name, help=cmd.help)
        for arg in cmd.args.split():
            p.add_argument(arg, type=str if arg in ("set", "text") else int)
        for flag in ("--format",) + cmd.flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(cmd=cmd)
    return top


def _named_command(argv: list[str]) -> str | None:
    # the words of the command argv names after nothing but --format tokens,
    # or None, for which the full parser runs
    i = 0
    while argv[i:] and (argv[i] == "--format" or argv[i].startswith("--format=")):
        i += 2 if argv[i] == "--format" else 1
    for cmd in _COMMANDS:
        words = cmd.words.split()
        if argv[i:i + len(words)] == words:
            return cmd.words
    return None


def _thread_count(value, parser) -> int:
    if value is None:
        raw = os.environ.get(ENV_THREADS, "1")
        try:
            value = int(raw)
        except ValueError:
            parser.error(f"{ENV_THREADS} is not an integer: {raw!r}")
    if value < 1:
        parser.error(f"--threads must be at least 1, got {value}")
    return value


def run(argv: list[str]) -> int:
    """Parse argv, run the subcommand, print its output; return the exit code."""
    parser = _build_parser(_named_command(argv))
    ns = parser.parse_args(argv)
    if "threads" in ns:
        ns.threads = _thread_count(ns.threads, parser)
    if getattr(ns, "max_discard", 0) < 0:
        parser.error(f"--max-discard must be nonnegative, got {ns.max_discard}")
    fmt = getattr(ns, "format", "plain")
    show = {"plain": format_set_literal, "spohn": format_gap_notation,
            "json": lambda a: ""}[fmt]  # JSON output prints no set as text
    try:
        if "set" in ns:
            ns.set = _parse_set_arg(ns.set)
        try:
            result = ns.cmd.run(ns)
        except BudgetExceededError as exc:
            result = exc
        doc, text = ns.cmd.render(result, ns, show)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    if fmt == "json":
        import json
        text = json.dumps(doc)
    if (failed := _write(text + "\n")) is not None:
        return failed
    if isinstance(result, BudgetExceededError):
        print(f"error: {result}", file=sys.stderr)
        return EX_BUDGET
    return ns.cmd.exit(result)


def _write(text: str) -> int | None:
    # text on stdout, or the exit code of a failed write; stdout then points
    # at devnull, where the interpreter's last flush of what is still
    # buffered goes quietly
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
        return None
    except BrokenPipeError:
        code = EX_PIPE
    except OSError as exc:
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        code = EX_IOERR
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return code


def _observed() -> bool:
    # a profiler, tracer or sys.monitoring tool (cProfile from Python 3.12,
    # coverage) that writes its results when the interpreter finalizes
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return bool(sys.gettrace() or sys.getprofile() or monitoring
                and any(map(monitoring.get_tool, range(6))))  # tool ids 0-5


def main() -> None:
    """Run the command sys.argv names and end the process with its exit code.

    An int exit code, returned by run() or raised in SystemExit (usage
    errors, --help), ends the process by os._exit once stdout and stderr
    are flushed: no atexit handler runs and the interpreter does not tear
    down its modules. Anything else raised, a SystemExit without an int
    code among it, takes the normal path (a traceback and exit 1), and so
    does every exit while a profiler, tracer or sys.monitoring tool is set.
    """
    try:
        code = run(sys.argv[1:])
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    if _observed():
        sys.exit(code)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
