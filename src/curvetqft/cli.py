"""Command-line interface.

Subcommands: matchings, module, class, glue, lift, verify.  Exit codes:
0 when all requested checks pass, 1 on a check failure, 2 on input
errors, 3 on an internal fault of the engine.
Machine-format output is byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fileio, verify
from .gluemaps import GluingError, attach_arc_datum, glue_map, glue_surfaces
from .liftsearch import (
    LiftError,
    replay_certificate,
    search_lift,
    standard_problem,
)
from .surfaces import (
    DividingSetError,
    SurfaceError,
    annulus,
    disk,
    enumerate_matchings,
    euler_grading,
    punctured_torus,
)
from .tqftcore import (
    DEFAULT_BOUND,
    BoundExceededError,
    build_module,
    class_of,
)


# Largest --n of the matchings command: C_8 = 1430 matchings.
MAX_MATCHINGS_N = 8


class UsageError(Exception):
    """A command-line value lies outside the range the command accepts."""


# Only named errors of the input count as input errors; any other
# exception is a fault of the engine and exits 3.
INPUT_ERRORS = (
    SurfaceError,
    DividingSetError,
    GluingError,
    LiftError,
    fileio.FormatError,
    BoundExceededError,
    FileNotFoundError,
    UsageError,
)


def render_matching(chords, num_slots: int) -> str:
    """ASCII chord diagram: endpoints on a line, arcs above."""
    heights = {}
    for chord in sorted(chords, key=lambda c: c[1] - c[0]):
        a, b = chord
        inner = [heights[c] for c in heights if a < c[0] and c[1] < b]
        heights[chord] = 1 + max(inner, default=0)
    width = 2 * num_slots - 1
    rows = []
    for level in range(max(heights.values(), default=0), 0, -1):
        row = [" "] * width
        for (a, b), h in heights.items():
            if h == level:
                row[2 * a] = "/"
                row[2 * b] = "\\"
                for x in range(2 * a + 1, 2 * b):
                    row[x] = "-"
            elif h < level:
                pass
            else:
                row[2 * a] = "|"
                row[2 * b] = "|"
        rows.append("".join(row).rstrip())
    labels = [" "] * width
    for i in range(num_slots):
        labels[2 * i] = str(i % 10)
    rows.append("".join(labels).rstrip())
    return "\n".join(rows)


def _surface_from_args(args) -> "MarkedSurface":
    chosen = [
        args.disk is not None,
        args.annulus is not None,
        args.punctured_torus is not None,
        getattr(args, "surface", None) is not None,
    ]
    if sum(chosen) != 1:
        raise SurfaceError(
            "choose exactly one of --disk, --annulus, --punctured-torus, --surface"
        )
    if args.disk is not None:
        return disk(args.disk)
    if args.annulus is not None:
        return annulus(*args.annulus)
    if args.punctured_torus is not None:
        return punctured_torus(args.punctured_torus)
    return fileio.surface_from_dict(fileio.surface_part(fileio.load_json(args.surface)))


def _add_surface_flags(parser, with_file=True):
    parser.add_argument("--disk", type=int, metavar="MARKS",
                        help="disk with the given number of marked points")
    parser.add_argument("--annulus", type=int, nargs=2, metavar=("A", "B"),
                        help="annulus with A and B marked points per circle")
    parser.add_argument("--punctured-torus", type=int, metavar="MARKS",
                        help="once-punctured torus with the given marks")
    if with_file:
        parser.add_argument("--surface", metavar="FILE",
                            help="surface (or dividing-set) JSON file")


def cmd_matchings(args) -> int:
    if not (1 <= args.n <= MAX_MATCHINGS_N):
        raise UsageError(f"--n must be between 1 and {MAX_MATCHINGS_N}")
    surface = disk(2 * args.n)
    matchings = enumerate_matchings(args.n)
    for k in matchings:
        if args.format == "machine":
            print(" ".join(f"{a}-{b}" for a, b in k.chords[0]))
        else:
            e = euler_grading(surface, k)
            print(render_matching(k.chords[0], 2 * args.n))
            print(f"grading {e:+d}")
            print()
    if args.format == "human":
        print(f"{len(matchings)} crossingless matchings on {2 * args.n} points")
    return 0


def cmd_module(args) -> int:
    surface = _surface_from_args(args)
    module = build_module(surface, args.bound)
    if args.format == "machine":
        print(json.dumps(fileio.module_to_dict(module), indent=2, sort_keys=True))
    else:
        graded = module.graded_ranks()
        pieces = ", ".join(
            f"e={e}:{graded[e]}" for e in sorted(graded, reverse=True)
        )
        print(f"rank {module.rank}; {pieces}")
        print(f"generators {len(module.generators)}; relations {len(module.relation_rows)}")
        for warning in module.warnings:
            print(f"warning: {warning}")
    if module.warnings and args.strict:
        return 1
    return 0


def cmd_class(args) -> int:
    data = fileio.load_json(args.k)
    if args.surface and isinstance(data, dict) and "surface" not in data:
        surface_data = fileio.surface_part(fileio.load_json(args.surface))
        data = {**data, "surface": surface_data}
    surface, k = fileio.dividing_set_from_dict(data)
    module = build_module(surface, args.bound)
    vector = class_of(module, k)
    bits = format(vector.coords, f"0{max(module.rank, 1)}b")[::-1]
    if args.format == "machine":
        print(json.dumps(
            {"grading": vector.grading, "zero": vector.is_zero, "coordinates": bits},
            sort_keys=True,
        ))
    else:
        if vector.is_zero:
            print(f"class 0 (grading of the underlying set {vector.grading:+d})")
        else:
            print(f"grading {vector.grading:+d}; coordinates {bits} "
                  f"over {module.rank} basis classes")
    return 0


def cmd_glue(args) -> int:
    if args.attach is not None:
        n, position = args.attach
        datum = attach_arc_datum(n, position)
    else:
        if not args.datum:
            raise GluingError("provide --datum FILE or --attach N J")
        datum = fileio.gluing_datum_from_dict(fileio.load_json(args.datum))
    info = glue_surfaces(datum)
    m_src = build_module(datum.source, args.bound)
    m_tgt = build_module(
        info.target, max(args.bound, info.seam_marks)
    )
    result = glue_map(info, m_src, m_tgt)
    if args.format == "machine":
        payload = {
            "source_rank": m_src.rank,
            "target_rank": m_tgt.rank,
            "columns": [
                format(c, f"0{max(m_tgt.rank, 1)}b")[::-1]
                for c in result.basis_columns
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"map from rank {m_src.rank} to rank {m_tgt.rank}")
        for pos, col in enumerate(result.basis_columns):
            bits = format(col, f"0{max(m_tgt.rank, 1)}b")[::-1]
            print(f"basis {pos} -> {bits}")
    return 0


def cmd_lift(args) -> int:
    if args.replay:
        certificate = fileio.certificate_from_dict(fileio.load_json(args.replay))
        ok = replay_certificate(certificate)
        print("certificate VALID" if ok else "certificate INVALID")
        return 0 if ok else 1
    problem = standard_problem(allow_signs=args.relaxed, search_box=args.box)
    result = search_lift(problem)
    print("FEASIBLE" if result.feasible else "INFEASIBLE")
    if result.feasible:
        for witness in result.witnesses[:4]:
            print(f"  witness b={witness['b']} d={witness['d']} "
                  f"phi2={witness['phi2']} phi3={witness['phi3']}")
    else:
        for step in result.certificate.get("steps", []):
            value = step.get("value") or step.get("kernel") or step.get("vector")
            print(f"  {step['step']}: {value} ({step['why']})")
    if args.out:
        fileio.dump_json(result.certificate, args.out)
        print(f"certificate written to {args.out}")
    # A feasible sign-free lift would contradict the model; surface it loudly.
    return 1 if (result.feasible and not args.relaxed) else 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} ({res.seconds:.1f}s)")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvetqft",
        description="Combinatorial TQFT-style invariants of dividing sets "
                    "on marked surfaces over GF(2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matchings", help="list crossingless matchings with gradings")
    p.add_argument("--n", type=int, required=True, help="number of chords")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(fn=cmd_matchings)

    p = sub.add_parser("module", help="build a module and report its ranks")
    _add_surface_flags(p)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--strict", action="store_true",
                   help="treat rank warnings as failures")
    p.set_defaults(fn=cmd_module)

    p = sub.add_parser("class", help="compute the class of a dividing set")
    p.add_argument("--k", required=True, metavar="FILE",
                   help="dividing-set JSON file")
    p.add_argument("--surface", metavar="FILE",
                   help="surface file when the dividing-set file has none")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("glue", help="compute a gluing map matrix")
    p.add_argument("--datum", metavar="FILE", help="gluing datum JSON file")
    p.add_argument("--attach", type=int, nargs=2, metavar=("N", "J"),
                   help="attach a 2-point disk at marks (J, J+1) of a 2N disk")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("lift", help="search for a sign-free integer lift")
    p.add_argument("--box", type=int, default=4, help="coordinate search box")
    p.add_argument("--relaxed", action="store_true",
                   help="allow either sign on image generators")
    p.add_argument("--out", metavar="FILE", help="write the certificate")
    p.add_argument("--replay", metavar="FILE",
                   help="re-verify a previously written certificate")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), default="all")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A fault of the engine, not of the input.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
