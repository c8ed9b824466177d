"""Command-line entry point: generate, measure, synthesize, verify, search.

Every subcommand prints a single JSON document on standard output, except
``gen`` and ``export-dot`` which emit automaton text or DOT when asked.
Exit codes: 0 on success, 1 when the queried property fails to hold (no
reset word, digraph not strongly connected, check came back false), 2 when
an input is refused — and nothing is printed to standard output on exit 2.

One error boundary, in :func:`main`: a ``ValueError`` (the library's
refusal, and the CLI's own usage checks) or an ``OSError`` (a path the
system refuses) is printed as ``synchrokit: error: <message>`` with exit 2.
Handlers catch an error only to do something else with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .core import Dfa, dfa_to_json_dict, format_dfa_text, load_dfa, loads_dfa
from .families import _STATE_LABEL_BASE, FAMILY_CODES, build_family, cb, f
from .monoid import _generates_and_full
from .pairgraph import (
    _dot,
    build_pair_digraph,
    diameter,
    pair_certificate,
    pair_digraph_dot,
    pair_distance,
    verify_certificate,
)
from .search import (
    SearchConfig,
    SearchMode,
    max_reset_threshold_exhaustive,
    random_pair_diameter_experiment,
    random_rt_experiment,
    record_to_json_dict,
    summarize_results,
)
from .sync import (
    Method,
    ResetResult,
    _resets,
    cb_reset_word,
    extension_reset_word,
    pairchase_reset_word,
    reset_threshold_exact,
)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _failed(payload: dict, message: str) -> int:
    """Print ``payload`` and ``message`` for a property that does not hold."""
    _print_json(payload)
    print(message, file=sys.stderr)
    return 1


def _workers(args: argparse.Namespace) -> int:
    """``--workers``, else ``SYNCHROKIT_WORKERS``, else 1; the census checks the value."""
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("SYNCHROKIT_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SYNCHROKIT_WORKERS must be an integer, got {raw!r}")


def _search_config(args: argparse.Namespace, mode: SearchMode) -> SearchConfig:
    return SearchConfig(n=args.n, mode=mode, trials=args.trials, seed=args.seed, output_path=args.out)


def _exact(d: Dfa) -> ResetResult | None:
    """The exact BFS's shortest reset word, checked; ``None`` if ``d`` does not synchronize."""
    result = reset_threshold_exact(d)
    if result is None:
        return None
    rt, word = result
    return ResetResult(word, rt, Method.EXACT_BFS, _resets(d, word))


def _build_family(family: str, n: int | None, k: int) -> Dfa:
    if n is None:
        raise ValueError("--family requires --n")
    return build_family(family, n, k if family == "cb" else None)


def _load_input(args: argparse.Namespace) -> Dfa:
    """One automaton from a positional path/stdin or ``--family``."""
    has_file = getattr(args, "input", None) is not None
    if has_file and args.family is not None:
        raise ValueError("give either an input file or --family, not both")
    if has_file:
        return loads_dfa(sys.stdin.read()) if args.input == "-" else load_dfa(args.input)
    if args.family is not None:
        return _build_family(args.family, args.n, getattr(args, "k", 1))
    raise ValueError("expected an input file (or '-') or --family/--n")


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?", help="automaton file (text or JSON), '-' for stdin")
    sub.add_argument("--family", choices=FAMILY_CODES, help="generate the input instead")
    sub.add_argument("--n", type=int, help="state count for --family")
    sub.add_argument("--k", type=int, default=1, help="second parameter of the cb family")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    d = _build_family(args.family, args.n, args.k)
    if args.format == "json":
        _write_output(json.dumps(dfa_to_json_dict(d), indent=2, sort_keys=True) + "\n", args.output)
    else:
        _write_output(format_dfa_text(d), args.output)
    return 0


def _cmd_rt(args: argparse.Namespace) -> int:
    d = _load_input(args)
    result = _exact(d)
    if result is None:
        payload = {"n": d.n, "synchronizing": False, "rt": None, "word": None}
        return _failed(payload, "automaton is not synchronizing")
    _print_json(
        {
            "n": d.n,
            "synchronizing": True,
            "rt": result.length,
            "word": list(result.word.names(d)),
            "method": result.method.value,
        }
    )
    return 0


def _cmd_word(args: argparse.Namespace) -> int:
    if args.method == "cb":
        if args.input is not None:
            raise ValueError("--method cb synthesizes from --n/--k, not from an input file")
        if args.family not in (None, "cb"):
            raise ValueError("--method cb works only with the cb family")
        if args.n is None:
            raise ValueError("--method cb requires --n (and optionally --k)")
        result = cb_reset_word(args.n, args.k)
        d = cb(args.n, args.k)
    else:
        d = _load_input(args)
        if args.method == "exact":
            result = _exact(d)
            if result is None:
                payload = {"n": d.n, "synchronizing": False, "word": None}
                return _failed(payload, "automaton is not synchronizing")
        else:
            synthesize = pairchase_reset_word if args.method == "pairchase" else extension_reset_word
            try:
                result = synthesize(d)
            except ValueError as exc:  # the automaton lacks the method's property
                return _failed({"n": d.n, "error": str(exc)}, str(exc))
    _print_json(
        {
            "n": d.n,
            "synchronizing": True,
            "length": result.length,
            "word": list(result.word.names(d)),
            "method": result.method.value,
            "verified": result.verified,
        }
    )
    return 0


def _cmd_monoid_check(args: argparse.Namespace) -> int:
    d = _load_input(args)
    perm_letters = d.permutation_letters()
    rank_letters = d.rank_n_minus_one_letters()
    names = d.letter_names()
    generates, full = _generates_and_full(d)
    _print_json(
        {
            "n": d.n,
            "permutation_letters": [names[i] for i in perm_letters],
            "rank_n_minus_one_letters": [names[i] for i in rank_letters],
            "permutations_generate_symmetric_group": generates,
            "full_transition_monoid": full,
        }
    )
    return 0 if full else 1


def _cmd_pair_diam(args: argparse.Namespace) -> int:
    if args.experiment is not None:
        if args.input is not None or args.family is not None:
            raise ValueError("--experiment takes no input file or --family")
        if args.n is None:
            raise ValueError("--experiment requires --n")
        mode = SearchMode.RANDOM if args.experiment == "random" else SearchMode.EXHAUSTIVE
        _print_json(random_pair_diameter_experiment(_search_config(args, mode)))
        return 0
    d = _load_input(args)
    p = build_pair_digraph(d)
    result = diameter(p)
    if not result.strongly_connected:
        payload = {
            "n": d.n,
            "vertices": p.num_vertices,
            "strongly_connected": False,
            "diameter": None,
            "unreachable": {"source": list(result.source), "target": list(result.target)},
        }
        return _failed(payload, "pair digraph is not strongly connected")
    _print_json(
        {
            "n": d.n,
            "vertices": p.num_vertices,
            "strongly_connected": True,
            "diameter": result.value,
            "source": list(result.source),
            "target": list(result.target),
            "word": list(result.word.names(d)),
            "argmax_count": len(result.argmax),
        }
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.family != "f":
        raise ValueError("certificates exist for the f family only")
    if args.n is None:
        raise ValueError("certify requires --n")
    cert = pair_certificate(args.n)
    p = build_pair_digraph(f(args.n))
    check = verify_certificate(p, cert)
    reached = pair_distance(p, cert.start, cert.target)
    bfs_distance = reached[0] if reached is not None else None
    payload = {
        "n": args.n,
        "valid": check.valid,
        "bound": cert.bound(),
        "bfs_distance": bfs_distance,
        "tight": check.valid and bfs_distance == cert.bound(),
        "start_pair": list(cert.start),
        "target_pair": list(cert.target),
    }
    if check.counterexample is not None:
        pair, letter, image = check.counterexample
        payload["counterexample"] = {"pair": list(pair), "letter": letter, "image": list(image)}
    _print_json(payload)
    return 0 if check.valid else 1


def _cmd_search(args: argparse.Namespace) -> int:
    if args.action == "summarize":
        if args.file is None:
            raise ValueError("search summarize needs a results file")
        _print_json(summarize_results(args.file))
        return 0
    if args.n is None or args.mode is None:
        raise ValueError("search needs --n and --mode")
    if args.mode == "exhaustive":
        max_rt, record = max_reset_threshold_exhaustive(
            args.n,
            workers=_workers(args),
            output_path=args.out,
            resume=not args.no_resume,
        )
        payload = {"n": args.n, "mode": "exhaustive", "max_rt": max_rt}
        payload["record"] = {
            key: value
            for key, value in record_to_json_dict(record).items()
            if key != "type"
        }
        _print_json(payload)
    else:
        _print_json(
            random_rt_experiment(
                _search_config(args, SearchMode.RANDOM),
                sample_nonperm=args.sample_nonperm,
                require_symmetric=not args.unconditioned,
            )
        )
    return 0


def _dfa_dot(d: Dfa, family: str | None) -> str:
    """DOT of ``d``, its states named as ``family`` names them, or numbered."""
    base = _STATE_LABEL_BASE.get(family)
    lines = ["digraph dfa {", "  rankdir=LR;"]
    for i in range(d.n):
        label = i if base is None else f"q{i + base}"
        lines.append(f'  {i} [label="{label}"];')
    rows = zip(*(t.images for _, t in d.letters))  # per state, its image under each letter
    return _dot(lines, rows, d.letter_names())


def _cmd_export_dot(args: argparse.Namespace) -> int:
    d = _load_input(args)
    if args.certificate and not args.pair_digraph:
        raise ValueError("--certificate only applies with --pair-digraph")
    if args.pair_digraph:
        values = None
        if args.certificate:
            if args.family != "f":
                raise ValueError("--certificate requires --family f")
            values = pair_certificate(args.n)
        text = pair_digraph_dot(build_pair_digraph(d), values)
    else:
        text = _dfa_dot(d, None if args.zero_based_labels else args.family)
    _write_output(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synchrokit",
        description="Synchronizing automata: families, reset words, monoid and diameter tools.",
    )
    parser.add_argument("--version", action="version", version=f"synchrokit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = commands.add_parser("gen", help="emit a benchmark family automaton")
    gen.add_argument("--family", choices=FAMILY_CODES, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.add_argument("-o", "--output", help="write here instead of stdout")
    gen.set_defaults(handler=_cmd_gen)

    rt = commands.add_parser("rt", help="exact reset threshold by subset BFS")
    _add_input_options(rt)
    rt.set_defaults(handler=_cmd_rt)

    word = commands.add_parser("word", help="synthesize a verified reset word")
    _add_input_options(word)
    word.add_argument(
        "--method",
        choices=("exact", "pairchase", "extension", "cb"),
        default="pairchase",
    )
    word.set_defaults(handler=_cmd_word)

    mon = commands.add_parser("monoid-check", help="full-transition-monoid test")
    _add_input_options(mon)
    mon.set_defaults(handler=_cmd_monoid_check)

    pd = commands.add_parser("pair-diam", help="pair-digraph diameter (one automaton or an experiment)")
    _add_input_options(pd)
    pd.add_argument("--experiment", choices=("random", "exhaustive"))
    pd.add_argument("--trials", type=int, default=100)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", help="JSON-lines output file for experiments")
    pd.set_defaults(handler=_cmd_pair_diam)

    cert = commands.add_parser("certify", help="verify the descent certificate and its tightness")
    cert.add_argument("--family", choices=FAMILY_CODES, required=True)
    cert.add_argument("--n", type=int)
    cert.set_defaults(handler=_cmd_certify)

    search = commands.add_parser("search", help="reset-threshold census and random experiments")
    search.add_argument("action", nargs="?", choices=("summarize",), help="'summarize' digests a results file")
    search.add_argument("file", nargs="?", help="results file for summarize")
    search.add_argument("--n", type=int)
    search.add_argument("--mode", choices=("exhaustive", "random"))
    search.add_argument("--trials", type=int, default=1000)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--workers", type=int, help="exhaustive census only; defaults to SYNCHROKIT_WORKERS or 1")
    search.add_argument("--out", help="JSON-lines journal / results file")
    search.add_argument("--no-resume", action="store_true", help="ignore an existing journal")
    search.add_argument("--sample-nonperm", action="store_true", help="sample the non-permutation letter too")
    search.add_argument(
        "--unconditioned",
        action="store_true",
        help="keep permutation pairs that do not generate the symmetric group",
    )
    search.set_defaults(handler=_cmd_search)

    dot = commands.add_parser("export-dot", help="DOT rendering of the automaton or its pair digraph")
    _add_input_options(dot)
    dot.add_argument("--pair-digraph", action="store_true")
    dot.add_argument("--certificate", action="store_true", help="annotate pairs with certificate values")
    dot.add_argument("--zero-based-labels", action="store_true")
    dot.add_argument("-o", "--output", help="write here instead of stdout")
    dot.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:  # a refused input, or a path the system refuses
        print(f"synchrokit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
