"""Command-line front end.

Subcommands: construct, nu-star, matching, count, bound, family-max,
convexity, verify, batch, gen-corpus.  Structured results go to stdout as
JSON (counts as decimal strings); diagnostics go to stderr.  Exit codes:
0 success/verified, 1 bound violated or counterexample found, 2 invalid
arguments, 3 I/O or format error (including a batch config that is not
UTF-8), 4 internal check failed (two independent routes disagreed, as in a
spot check, a witness re-derivation or a parity check; a bug, not a
verdict).  ``--jobs`` above the CPU count runs with the CPU count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .constructions import build_extremal, describe_extremal, family_max_count
from .corpus import default_corpus_path, read_graph6_stream, write_corpus
from .counting import count_motif, parse_motif
from .formulas import CONVEX_FAMILIES, ExtremalParams, verify_convexity
from .graphs import Graph6Error, to_graph6
from .matching import fractional_certificate, matching_number, nu_star_fast
from .verifier import THEOREMS, VerifySpec, verify_bound, verify_nonexistence, verify_specs


_JOBS_HELP = ("worker processes for a scan of 16 chunks or more (native n = 8); "
             "smaller scans run in process")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _graph6_source(args):
    """The --in argument as read_graph6_stream takes it: '-' is stdin, read
    like a file, as ASCII with undecodable bytes kept as surrogates."""
    if args.input != "-":
        return args.input
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(encoding="ascii", errors="surrogateescape")
    return sys.stdin


def _extremal_params(args) -> ExtremalParams:
    return ExtremalParams(args.n, args.s2, args.t, args.delta)


def cmd_construct(args) -> int:
    p = _extremal_params(args)
    g = build_extremal(p)
    print(to_graph6(g))
    if args.describe:
        _emit(describe_extremal(p))
    return 0


def cmd_nu_star(args) -> int:
    for _, g in read_graph6_stream(_graph6_source(args)):
        if args.certificate:
            cert = fractional_certificate(g)
            _emit({"doubled": cert.total_doubled,
                   "certificate": cert.to_json_dict()})
        else:
            _emit({"doubled": nu_star_fast(g).doubled})
    return 0


def cmd_matching(args) -> int:
    for _, g in read_graph6_stream(_graph6_source(args)):
        _emit({"nu": matching_number(g)})
    return 0


def cmd_count(args) -> int:
    motif = parse_motif(args.motif)
    for _, g in read_graph6_stream(_graph6_source(args)):
        _emit({"motif": str(motif), "count": str(count_motif(g, motif))})
    return 0


def cmd_bound(args) -> int:
    val = spec_from_mapping(_spec_entry(args)).bound()
    _emit({"theorem": args.theorem, "bound": str(val)})
    return 0


def cmd_family_max(args) -> int:
    p = _extremal_params(args)
    motif = parse_motif(args.motif)
    val = family_max_count(args.family, p, motif)
    _emit({"family": args.family, "motif": str(motif), "max": str(val)})
    return 0


def cmd_convexity(args) -> int:
    # an s2 end not given is not in args, so verify_convexity's default holds
    ends = {key: getattr(args, key) for key in ("s2_min", "s2_max") if key in args}
    report = verify_convexity(args.family, **ends)
    _emit(report.to_json_dict())
    return 0 if report.all_nonnegative else 1


SPEC_KEYS = {"theorem": str, "n": int, "s2": int, "delta": int, "motif": str,
             "delta_mode": str, "source": str, "corpus": str, "k": int, "d": int}


def _corpus_or_default(source: str | None, corpus: str | None, n: int) -> str | None:
    """The corpus a graph6-stream scan reads when none is named."""
    if source == "graph6-stream" and corpus is None:
        return str(default_corpus_path(n))
    return corpus


def spec_from_mapping(entry) -> VerifySpec:
    """A VerifySpec from a batch config entry or from parsed arguments.

    The keys are those of SPEC_KEYS, and a None value counts as absent.
    Unknown, missing and ill-typed keys raise ValueError, as does every
    combination VerifySpec rejects."""
    if not isinstance(entry, dict):
        raise ValueError(f"config entries must be objects, got {entry!r}")
    extra = set(entry) - set(SPEC_KEYS)
    if extra:
        raise ValueError(f"unknown config keys {sorted(extra)}")
    fields = {key: value for key, value in entry.items() if value is not None}
    for key in ("theorem", "n"):
        if key not in fields:
            raise ValueError(f"spec needs {key!r} in {entry!r}")
    for key, value in fields.items():
        kind = SPEC_KEYS[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
    if "motif" in fields:
        fields["motif"] = parse_motif(fields["motif"])
    fields["corpus"] = _corpus_or_default(fields.get("source"), fields.get("corpus"),
                                          fields["n"])
    return VerifySpec(**fields)


def _spec_entry(args) -> dict:
    """The spec keys among the parsed arguments, for spec_from_mapping."""
    return {key: getattr(args, key, None) for key in SPEC_KEYS}


def cmd_verify(args) -> int:
    if args.nonexistence:
        unread = [key for key in SPEC_KEYS if key not in ("n", "s2", "delta", "source", "corpus")
                  and getattr(args, key) is not None]
        if unread:
            flags = ", ".join("--" + key.replace("_", "-") for key in unread)
            raise ValueError(f"--nonexistence does not take {flags}")
        if args.s2 is None or args.delta is None:
            raise ValueError("--nonexistence needs --s2 and --delta")
        corpus = _corpus_or_default(args.source, args.corpus, args.n)
        report = verify_nonexistence(args.n, args.s2, args.delta,
                                     source=args.source or "native", corpus=corpus,
                                     jobs=args.jobs)
        _emit(report.to_json_dict())
        return 0 if report.verdict == "no-graphs" else 1
    if args.theorem is None:
        raise ValueError("verify needs --theorem (or --nonexistence)")
    report = verify_bound(spec_from_mapping(_spec_entry(args)), args.jobs)
    _emit(report.to_json_dict())
    return 0 if report.verdict != "bound-violated" else 1


def cmd_batch(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError("batch config must be a JSON array of verify specs")
    # validate everything up front; nothing runs if any spec is bad
    specs = [spec_from_mapping(e) for e in entries]
    for path in filter(None, (args.out, args.csv)):  # nor if a report has nowhere to go
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"no directory {Path(path).parent} for {path}")
    reports = verify_specs(specs, args.jobs)
    aggregated = {
        "reports": [r.to_json_dict() for r in reports],
        "all_exact": all(r.verdict == "exact-match" for r in reports),
        "violations": sum(r.verdict == "bound-violated" for r in reports),
    }
    text = json.dumps(aggregated, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["params", "bound", "observed", "verdict"])
            for r in reports:
                writer.writerow([
                    json.dumps(r.spec.to_json_dict(), sort_keys=True),
                    r.bound,
                    "" if r.observed_max is None else r.observed_max,
                    r.verdict,
                ])
    return 1 if any(r.verdict == "bound-violated" for r in reports) else 0


def cmd_gen_corpus(args) -> int:
    out = Path(args.out) if args.out else default_corpus_path(args.n)
    count = write_corpus(out, args.n)
    _emit({"n": args.n, "classes": count, "path": str(out)})
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fracmatch",
        description="exact fractional-matching extremal bounds toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--s2", type=int, required=True,
                       help="doubled fractional matching number 2s")
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("construct", help="build the extremal graph G(n, s, t)")
    add_params(p)
    p.add_argument("--describe", action="store_true",
                   help="also print part sizes and deletion list as JSON")
    p.set_defaults(func=cmd_construct)

    for name, func, extra in (
        ("nu-star", cmd_nu_star, None),
        ("matching", cmd_matching, None),
        ("count", cmd_count, "motif"),
    ):
        p = sub.add_parser(name, help=f"{name} of graph6 input")
        p.add_argument("--in", dest="input", default="-",
                       help="graph6 file or - for stdin")
        if extra:
            p.add_argument("--motif", required=True,
                           help="clique:L or biclique:R1,R2")
        if name == "nu-star":
            p.add_argument("--certificate", action="store_true",
                           help="include an optimal half-integral weighting")
        p.set_defaults(func=func)

    def add_question(p, theorem_required):
        p.add_argument("--theorem", required=theorem_required, choices=THEOREMS)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--s2", type=int, help="doubled fractional matching number 2s")
        p.add_argument("--delta", type=int, help="minimum degree")
        p.add_argument("--motif", help="clique:L or biclique:R1,R2")
        p.add_argument("--k", type=int, help="matching number (theorem 1.1)")
        p.add_argument("--d", type=int, help="maximum degree cap (theorem 1.2)")
        p.add_argument("--delta-mode", choices=["exact", "at-least"], help="default exact")

    p = sub.add_parser("bound", help="evaluate a theorem bound")
    add_question(p, theorem_required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("family-max", help="maximum motif count over F1/F2")
    p.add_argument("--family", required=True, choices=["F1", "F2"])
    add_params(p)
    p.add_argument("--motif", required=True)
    p.set_defaults(func=cmd_family_max)

    p = sub.add_parser("convexity", help="second-difference sweep")
    p.add_argument("--family", required=True, choices=CONVEX_FAMILIES)
    p.add_argument("--s2-min", type=int, default=argparse.SUPPRESS)
    p.add_argument("--s2-max", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("verify", help="exhaustive scan against a bound")
    add_question(p, theorem_required=False)
    p.add_argument("--source", choices=["native", "graph6-stream"], help="default native")
    p.add_argument("--corpus", help="graph6 corpus file for the stream source")
    p.add_argument("--jobs", type=_positive_int, help=_JOBS_HELP)
    p.add_argument("--nonexistence", action="store_true",
                   help="certify that no graph matches (delta beyond the feasible cap)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="run a JSON array of verify specs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="aggregated JSON report path (default stdout)")
    p.add_argument("--csv", help="CSV summary path")
    p.add_argument("--jobs", type=_positive_int, help=_JOBS_HELP)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("gen-corpus", help="generate a non-isomorphic graph6 corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output path (default corpus dir)")
    p.set_defaults(func=cmd_gen_corpus)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (Graph6Error, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
