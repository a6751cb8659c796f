"""Command-line front end.  Line-oriented plain text, deterministic for
fixed inputs and seed.

Exit statuses: 0 success / preserving / pass, 1 usage or parse error,
2 anti-preserving, 3 violating or failed check, 4 precondition
violation (excluded surface, unguaranteed intersection query, ...).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import amalgam, auditor, goldman, linking, surface, words

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANTI = 2
EXIT_VIOLATING = 3
EXIT_PRECONDITION = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_surface(path: str) -> surface.SurfaceSymbol:
    return surface.parse_surface(Path(path).read_text())


def _class_arg(text: str, s: surface.SurfaceSymbol) -> words.CyclicClass:
    return words.canonical_cyclic(words.parse_word(text, rank=s.rank))


def _cmd_bracket(args) -> int:
    s = _load_surface(args.surface)
    result = goldman.bracket_classes(s, _class_arg(args.word1, s), _class_arg(args.word2, s))
    print(result)
    return EXIT_OK


def _cmd_intersect(args) -> int:
    s = _load_surface(args.surface)
    x, y = _class_arg(args.word1, s), _class_arg(args.word2, s)
    count = linking.intersection_number(s, x, y)
    if args.pairs:
        for i, j, sign in linking.linked_pairs(s, x, y):
            print(f"({i}, {j}, {sign:+d})")
    print(count)
    return EXIT_OK


def _cmd_selfint(args) -> int:
    s = _load_surface(args.surface)
    print(linking.self_intersection(s, _class_arg(args.word, s)))
    return EXIT_OK


def _cmd_boundary(args) -> int:
    s = _load_surface(args.surface)
    for cycle in surface.boundary_cycles(s):
        print(cycle)
    return EXIT_OK


def _cmd_classify(args) -> int:
    s = _load_surface(args.surface)
    g, b = surface.classify(s)
    print(f"genus {g}, boundary {b}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    s = _load_surface(args.surface)
    for cls in auditor.enumerate_classes(s, args.max_len, args.filter):
        print(cls)
    return EXIT_OK


def _report_verdict(report: auditor.AuditReport) -> int:
    print(f"verdict: {report.verdict}")
    print(f"pairs checked: {report.pairs_checked} ({report.sample_description})")
    if report.pairs_skipped:
        print(f"pairs skipped (outside guaranteed regime): {report.pairs_skipped}")
    for cert in report.certificates:
        print(f"certificate: {cert.x} {cert.y} pushed={cert.pushed} direct={cert.direct}")
    return {
        auditor.PRESERVING: EXIT_OK,
        auditor.ANTI_PRESERVING: EXIT_ANTI,
        auditor.VIOLATING: EXIT_VIOLATING,
    }[report.verdict]


def _cmd_audit(args) -> int:
    path = Path(args.map_file)
    m = auditor.parse_map_file(path.read_text(), path.parent)
    sample = None if args.sample is None else (args.sample, args.seed)
    if args.what == "bracket":
        report = auditor.audit_bracket(m, args.max_len, sample)
    else:
        mode = "zero_pattern" if args.mode == "zero" else "exact"
        report = auditor.audit_intersection(m, args.max_len, mode, sample)
    return _report_verdict(report)


def _cmd_fill_check(args) -> int:
    s = _load_surface(args.surface)
    system = [_class_arg(w, s) for w in args.system.split(",") if w]
    if not system:
        raise _UsageError("--system needs at least one word")
    report = auditor.fill_check(s, system, args.max_len)
    if report.passed:
        print(f"pass ({report.classes_checked} non-peripheral classes checked)")
        return EXIT_OK
    print(f"fail: counterexample {report.counterexample}")
    return EXIT_VIOLATING


def _cmd_amalgam(args) -> int:
    p = amalgam.AmalgamPresentation(
        args.rankA,
        args.rankB,
        words.parse_word(args.cA, rank=args.rankA),
        words.parse_word(args.cB, rank=args.rankB),
    )
    report = amalgam.lemma_sweep(
        p, args.max_letter, args.max_syllables, oracle_seed=args.seed
    )
    for shape in sorted(report.case_counts):
        print(f"case {shape}: {report.case_counts[shape]} instances")
    print(f"statement 1 instances: {report.instances_1}")
    print(f"statement 2 instances: {report.instances_2}")
    print(f"oracle cross-checks: {report.oracle_checked}")
    if report.passed:
        print("pass")
        return EXIT_OK
    print(f"fail: {report.failure}")
    return EXIT_VIOLATING


WORD_SYNTAX = (
    "Words: lowercase a..z are generators, uppercase A..Z their inverses, "
    "the empty string is the trivial class.  Output words are canonical: "
    "cyclically reduced, least rotation under a < A < b < B < ..."
)
SURFACE_FORMAT = (
    "Surface file: 'rank <n>' then 'order <2n germs counterclockwise>', "
    "e.g. 'rank 2' / 'order a b A B'.  '#' starts a comment."
)
MAP_FORMAT = (
    "Map file: 'source <surface-file>', 'target <surface-file>', one "
    "'map <generator> -> <word>' per source generator, optional "
    "'expect_equivalence'.  Paths are relative to the map file."
)
ELEMENT_FORMAT = (
    "Bracket output: '<coeff>*<word>' terms sorted by canonical word and "
    "joined by ' + ', e.g. '+1*ab' or '2*abAB + -1*ab'; the zero element "
    "prints as '0'."
)


def build_parser() -> _Parser:
    parser = _Parser(prog="curvebracket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bracket",
        help="Goldman bracket of two classes",
        epilog=f"{WORD_SYNTAX}\n{SURFACE_FORMAT}\n{ELEMENT_FORMAT}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("surface")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser(
        "intersect",
        help="geometric intersection number",
        epilog=f"{WORD_SYNTAX}\nBoth classes must be primitive with distinct "
        "primitive roots; with --pairs each linked pair prints as "
        "'(i, j, sign)' in (i, j) order before the count.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("surface")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--pairs", action="store_true", help="print each linked pair as (i, j, sign)")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("selfint", help="self-intersection number")
    p.add_argument("surface")
    p.add_argument("word")
    p.set_defaults(func=_cmd_selfint)

    p = sub.add_parser("boundary", help="boundary cycles of the symbol")
    p.add_argument("surface")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("classify", help="genus and boundary count")
    p.add_argument("surface")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="canonical classes up to a length bound")
    p.add_argument("surface")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--filter", choices=["all", "nonperipheral", "simple"], default="all")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "audit",
        help="audit a map against bracket or intersection data",
        epilog=f"{MAP_FORMAT}\nExit status: 0 preserving, 2 anti-preserving, "
        "3 violating.  Certificates print as 'certificate: <x> <y> "
        "pushed=<value> direct=<value>'.  Without --sample the audit is "
        "exhaustive over unordered class pairs up to the length bound.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("what", choices=["bracket", "intersection"])
    p.add_argument("map_file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--mode", choices=["zero", "exact"], default="zero")
    p.add_argument("--sample", type=int, default=None, help="random pair count (default: exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("fill-check", help="does a curve system fill the surface")
    p.add_argument("surface")
    p.add_argument("--system", required=True, help="comma-separated words")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_fill_check)

    p = sub.add_parser("amalgam", help="amalgamated free product checks")
    amalgam_sub = p.add_subparsers(dest="amalgam_command", required=True)
    q = amalgam_sub.add_parser("check-lemma", help="exhaustive bounded lemma sweep")
    q.add_argument("--rankA", type=int, default=2)
    q.add_argument("--rankB", type=int, default=2)
    q.add_argument("--cA", required=True, help="edge word in factor A (letters a, b, ...)")
    q.add_argument("--cB", required=True, help="edge word in factor B (letters a, b, ...)")
    q.add_argument("--max-letter", type=int, default=2)
    q.add_argument("--max-syllables", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_amalgam)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except surface.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except words.PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
