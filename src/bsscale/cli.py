"""Command line surface.

Every command is parameterized by a global ``--group m,n`` flag and writes
deterministic text (default) or JSON to stdout; diagnostics and notices go
to stderr.  ``ball`` and ``omega-edges`` also write their graph as DOT with
``--dot PATH``.  Exit codes: 0 success, 1 usage error (including an
unwritable ``--dot`` path, and a stdout closed before the answer is
written), 2 word parse error (including an exponent too
large to expand), 3 domain error (bad parameters, size budget, graph
queries outside their domain, an answer past Python's int/str digit
limit), 4 selfcheck failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import bsscale

from .errors import BudgetError, DomainError, ParseError
from .params import DEFAULT_BUDGET, GroupParams
from .words import (
    equal_elements,
    format_syllables,
    parse_word,
    reduce_syllables,
    t_exponent,
    word_syllables,
)

_USAGE_EXIT = 1
_PARSE_EXIT = 2
_DOMAIN_EXIT = 3
_SELFCHECK_EXIT = 4


class _UsageError(Exception):
    """A malformed command line: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise _UsageError."""

    def error(self, message):  # argparse default exits 2; the contract says 1
        raise _UsageError(message)


def _int_at_least(low: int, name: str):
    """argparse type for a size or bound: an int >= low.  argparse names the
    type in its message, e.g. "invalid nonnegative value: '-1'"."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    convert.__name__ = name
    return convert


_nonnegative = _int_at_least(0, "nonnegative")  # budget, radius, levels, rho-max, dmax
_positive = _int_at_least(1, "positive")  # kmax


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse the global options and the command name, then the rest with
    that command's parser, the only one a run builds.  The command takes
    ``nargs=argparse.PARSER``, as argparse's own subparsers do."""
    top = _Parser(prog="bsscale", description=__doc__)
    top.add_argument("--group", metavar="M,N", help="group parameters, e.g. 2,3")
    top.add_argument("--output", choices=("text", "json"), default="text")
    top.add_argument(
        "--budget",
        type=_nonnegative,
        default=DEFAULT_BUDGET,
        help="budget for tree balls, graph listings, orbit-brute scans and moller --kmax",
    )
    top.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS)
    args, extra = top.parse_known_args(_glue_group(argv))
    name, *rest = args.command
    parser = _Parser(prog=f"bsscale {name}")
    for names, kwargs in _COMMANDS[name][1]:
        parser.add_argument(*names, **kwargs)
    args, more = parser.parse_known_args(rest, args)
    if extra or more:  # reported together, top level first, as by subparsers
        top.error(f"unrecognized arguments: {' '.join(extra + more)}")
    args.command = name
    return args


def _glue_group(argv: list[str]) -> list[str]:
    """argparse reads a value such as ``-1,2`` as an option, so
    ``--group -1,2`` is passed on as ``--group=-1,2``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--group" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--group={arg}"
        else:
            out.append(arg)
    return out


def _group_params(text: str | None) -> GroupParams:
    """The ``--group M,N`` value as GroupParams.  Raises _UsageError when it
    is missing or malformed, and DomainError for a zero parameter."""
    if not text:
        raise _UsageError("--group M,N is required for this command")
    try:
        m_str, n_str = text.split(",")
        m, n = int(m_str), int(n_str)
    except ValueError:
        raise _UsageError(f"cannot parse --group {text!r}: expected M,N") from None
    return GroupParams(m, n)


def _notice(p: GroupParams, args, err) -> None:
    if args.output != "text":
        return
    if p.discrete:
        print(f"notice: |m| = |n| = {abs(p.m)}: the completion is discrete", file=err)
    elif p.divisor_case:
        print(
            "notice: one parameter divides the other; "
            "structured graph geometry is unavailable",
            file=err,
        )


def _emit(args, out, text: str, payload: dict) -> None:
    if args.output == "json":
        import json

        text = json.dumps(payload)
    print(text, file=out)


def _text_value(v) -> str:
    """A JSON value as the text output writes it: lists space-separated,
    booleans lower case."""
    if isinstance(v, list):
        return " ".join(map(str, v))
    return str(v).lower() if isinstance(v, bool) else str(v)


def _write_dot(args, render) -> None:
    """Write ``render()`` to the ``--dot`` path, if one was given.  The text
    is computed before the file is opened, so an error writes no file."""
    if args.dot is None:
        return
    text = render()
    try:
        with open(args.dot, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --dot file: {exc}") from None


def _check_digits(base: int, exponent: int) -> None:
    """Raise run()'s digit-limit ValueError when base^exponent has more
    digits than Python's int/str limit, before an answer holding it is
    computed.  base^e has more than 4 limit bits, so more than limit
    digits, once e (bit_length - 1) > 4 limit: no larger power is formed."""
    limit = sys.get_int_max_str_digits()
    if base > 1 and limit:
        str(base ** min(exponent, 4 * limit // (base.bit_length() - 1) + 1))


def _check_walk(p: GroupParams, signs, k: int = 1) -> None:
    """``_check_digits`` on both factors of the trace of w^k, the node
    g (l/|n|)^a (l/|m|)^b that ``graph._walk`` of w's t signs gives, each
    on its own, so a node that fits the limit is never refused.  Every
    node answer is at least that trace, so it is checked before any step."""
    from .graph import _walk

    rho, low, high = _walk(signs, k)
    _check_digits(p.l_over_n, rho - low)
    _check_digits(p.l_over_m, high - rho)


def run(argv: list[str], out=None, err=None) -> int:
    """Dispatch a full command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # where argparse prints --help
            args = _parse(argv)
        return _dispatch(args, out, err)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return _USAGE_EXIT
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return _PARSE_EXIT
    except (BudgetError, DomainError) as exc:
        print(f"domain error: {exc}", file=err)
        return _DOMAIN_EXIT
    except ValueError as exc:  # Python's int/str digit limit is the output budget
        if "for integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"domain error: answer has more than {limit} digits", file=err)
        return _DOMAIN_EXIT


def _dispatch(args, out, err) -> int:
    handler, _, notice, group = _COMMANDS[args.command]
    p = _group_params(args.group) if group else None
    if notice:
        _notice(p, args, err)
    text, payload = handler(p, args)
    _emit(args, out, text, payload)
    return _SELFCHECK_EXIT if payload.get("failures") else 0


# name -> (handler, arguments, notice, group), in registration order, which
# is the command order of --help.  A handler maps (GroupParams, args) to
# its text and JSON outputs; ``arguments`` are the command's add_argument
# declarations.  ``notice`` marks commands whose answers route through
# discrete / divisor-case logic; text mode prints the case on stderr.
# ``group`` is False for the one command that needs no --group.  Handlers
# call the library through the package's lazy exports (``bsscale.scale``),
# so a process loads only the modules its command uses.
_COMMANDS: dict[str, tuple] = {}


def _arg(*names, **kwargs):
    """One add_argument declaration: its positional and keyword arguments."""
    return names, kwargs


_DOT = _arg("--dot", metavar="PATH", default=None)


def _command(name: str, *arguments, notice: bool = False, group: bool = True):
    def register(handler):
        _COMMANDS[name] = (handler, arguments, notice, group)
        return handler

    return register


@_command("reduce", _arg("word"))
def _reduce(p, args):
    word = format_syllables(*reduce_syllables(p, *word_syllables(parse_word(args.word))))
    return word or "e", {"word": word}


@_command("nf", _arg("word"))
def _nf(p, args):
    nf = bsscale.element_normal_form(p, parse_word(args.word))
    word = format_syllables(*nf.word_syllables())
    return word or "e", {**nf.as_dict(), "word": word}


@_command("rho", _arg("word"))
def _rho(p, args):
    rho = t_exponent(parse_word(args.word))
    return str(rho), {"rho": rho}


@_command("equal", _arg("word"), _arg("other"))
def _equal(p, args):
    res = equal_elements(p, parse_word(args.word), parse_word(args.other))
    return "true" if res else "false", {"equal": res}


@_command("scale", _arg("word"), notice=True)
def _scale(p, args):
    sv = bsscale.scale(p, parse_word(args.word))
    return str(sv.value), sv.as_dict()


@_command("modular", _arg("word"), notice=True)
def _modular(p, args):
    mv = bsscale.modular(p, parse_word(args.word))
    return f"{mv.numerator}/{mv.denominator}", mv.as_dict()


@_command("flat-rank", notice=True)
def _flat_rank(p, args):
    fr = bsscale.flat_rank(p)
    return str(fr), {"flat_rank": fr}


@_command("kernel", notice=True)
def _kernel(p, args):
    k = bsscale.pi_kernel(p)
    return str(k), {"kernel_exponent": k}


@_command("moller", _arg("--kmax", type=_positive, default=8), _arg("word"), notice=True)
def _moller(p, args):
    if args.kmax > args.budget:
        raise BudgetError(f"kmax {args.kmax} asks for more indices than the budget {args.budget}")
    from . import invariants

    word = parse_word(args.word)
    rho, signs = invariants._normalized(p, word)
    _check_walk(p, signs, args.kmax)  # the largest index, r_kmax, is the trace of z^kmax
    steps = args.kmax * len(signs)  # the steps _indices takes
    if steps > args.budget:
        raise BudgetError(f"kmax {args.kmax} asks for {steps} steps, over the budget {args.budget}")
    seq, stable = invariants._indices(p, rho, signs, args.kmax)
    target = bsscale.scale(p, word).value
    ratio = str(seq[-1] // seq[-2]) if len(seq) > 1 and seq[-1] % seq[-2] == 0 else "?"
    verdict = "OK" if stable else "DIAG ratios not stabilized at bound"
    return f"{' '.join(str(v) for v in seq)} | ratio {ratio} | scale {target} {verdict}", {
        "indices": [str(v) for v in seq],
        "ratio": ratio,
        "scale": str(target),
        "stable": stable,
    }


@_command(
    "trace",
    _arg("--start", type=int, default=1),
    _arg("--h", type=int, default=1),
    _arg("word"),
    notice=True,
)
def _trace(p, args):
    from . import graph

    labels = graph._trace_labels(p, parse_word(args.word), args.start, args.h)
    _check_walk(p, labels)  # the trace from 1 divides the one from start, h
    val = graph._fold(p, labels, args.start, args.h)
    return str(val), {"trace": str(val)}


@_command("omega-edges", _arg("--levels", type=_nonnegative, default=3), _DOT, notice=True)
def _omega_edges(p, args):
    from . import graph

    if not p.divisor_case and (args.levels + 1) * (args.levels + 2) // 2 > args.budget:
        raise BudgetError(
            f"levels {args.levels} graph has more nodes than the budget {args.budget}"
        )
    nodes = bsscale.nodes_through(p, args.levels)
    out_edges = graph._out_edges(p, nodes)
    _write_dot(args, lambda: graph._omega_dot(p, nodes, out_edges))
    edge_rows = [(x, "t" if eps > 0 else "t^-1", y) for x, y, eps in out_edges]
    return "\n".join(f"{x} {lab} {y}" for x, lab, y in edge_rows), {
        "nodes": [
            {"value": nd.value, "kind": nd.kind, "level": nd.level, "dist_left": nd.dist_left}
            for nd in nodes
        ],
        "edges": edge_rows,
    }


@_command("omega-dist", _arg("x", type=int), _arg("y", type=int), notice=True)
def _omega_dist(p, args):
    d = bsscale.shortest_path_len(p, args.x, args.y)
    return str(d), {"distance": d}


@_command("orbit", _arg("word"), notice=True)
def _orbit(p, args):
    from . import graph, invariants

    labels = invariants._coset_labels(p, parse_word(args.word))
    _check_walk(p, labels)
    val = graph._fold(p, labels, 1, 1)
    return str(val), {"orbit_order": str(val)}


@_command(
    "orbit-brute", _arg("--dmax", type=_nonnegative, default=None), _arg("word"), notice=True
)
def _orbit_brute(p, args):
    from .cosets import default_scan_bound

    word = parse_word(args.word)
    bound = default_scan_bound(p, word) if args.dmax is None else args.dmax
    val = bsscale.orbit_order_bruteforce(p, word, min(bound, args.budget))
    if val is None and bound > args.budget:
        raise BudgetError(f"scan passed the budget {args.budget}")
    return "none" if val is None else str(val), {"orbit_order": None if val is None else str(val)}


@_command(
    "ball",
    _arg("--radius", type=_nonnegative, required=True),
    _DOT,
)
def _ball(p, args):
    table = bsscale.enumerate_ball(p, args.radius, budget=args.budget)
    _write_dot(args, lambda: bsscale.export_dot(table))
    text = f"vertices {len(table.vertices)} edges {len(table.edges)} boundary {len(table.boundary)}"
    return text, table.as_dict()


@_command("census", _arg("--radius", type=_nonnegative, required=True), notice=True)
def _census(p, args):
    pairs = sorted(bsscale.orbit_census(p, args.radius, budget=args.budget).items())
    return " ".join(f"{order}:{count}" for order, count in pairs), {
        "census": [[order, count] for order, count in pairs]
    }


@_command("structure", _arg("word", nargs="?", default=None), notice=True)
def _structure(p, args):
    word = parse_word(args.word) if args.word is not None else None
    payload = bsscale.structure_report(p, word).as_dict()
    return "\n".join(f"{key}: {_text_value(v)}" for key, v in payload.items()), payload


@_command("matrix", _arg("word"))
def _matrix(p, args):
    word = parse_word(args.word)
    mat = bsscale.bs1n_matrix(p, word)
    neg, q, pos = bsscale.bs1n_normal_form(p, word)
    rows = [[str(mat.top_left), str(mat.top_right)], ["0", "1"]]
    return f"[[{rows[0][0]}, {rows[0][1]}], [0, 1]] | t^-{neg} a^{q} t^{pos}", {
        "matrix": rows,
        "p": neg,
        "q": q,
        "r": pos,
    }


@_command("scale-set", _arg("--rho-max", type=_nonnegative, required=True), notice=True)
def _scale_set(p, args):
    _check_digits(max(p.l_over_n, p.l_over_m), args.rho_max)  # the largest value
    values = sorted(bsscale.scale_value_set(p, args.rho_max))
    return " ".join(str(v) for v in values), {"values": [str(v) for v in values]}


@_command("selfcheck", _arg("--seed", type=int, default=0), group=False)
def _selfcheck(p, args):
    from . import selfcheck

    results = selfcheck.run_all(args.seed)
    failures = sum(1 for _, ok, _ in results if not ok)
    lines = [f"{'ok' if ok else 'FAIL'}: {name} ({detail})" for name, ok, detail in results]
    lines.append(f"{len(results) - failures}/{len(results)} suites passed")
    return "\n".join(lines), {
        "results": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results],
        "failures": failures,
    }


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed (e.g. by ``| head``): send the exit-time flush
        # to devnull, as the signal docs' "Note on SIGPIPE" does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _USAGE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    main()
