"""Command-line front end: batch computations over matroid JSON files.

Exit codes: 0 success (and positive check verdicts), 1 computation error,
2 negative check verdict or failed verification suite, 64 usage error.
Output is machine-parseable JSON on stdout; --pretty indents it (and
renders verification reports as text lines).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import catalog
from .branchwidth import (DP_BUDGET, BranchDecomposition, Tangle,
                          branch_width_certified, branch_width_exact,
                          rank_bounded_family, verify_tangle)
from .classes import (is_positroid_order, positroid_search,
                      presentation_matroid, verify_presentation)
from .connectivity import (flats_cover, tutte_connectivity,
                           vertical_connectivity)
from .core import Matroid, from_json_dict
from .errors import AxiomViolation, InvalidTangle, MatroidError
from .expansion import Presentation, deflate_with_map, expand, matroid_union
from .invariants import config_isomorphic, configuration, tutte_polynomial
from .verify import SUITE_NAMES, THEOREMS, _jsonable, run_suite, run_theorem


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse front end whose usage failures exit 64, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, "%s: error: %s\n" % (self.prog, message))


# Each global flag with its top-level default.  build_parser repeats the
# flags on every subcommand, default suppressed, so they may follow it too.
_GLOBALS = (
    ("--input", {"metavar": "FILE", "default": None,
                 "help": "matroid JSON file"}),
    ("--catalog", {"metavar": "NAME", "default": None,
                   "help": "built-in matroid (%s)" % ", ".join(
                       catalog.names())}),
    ("--pretty", {"action": "store_true", "default": False,
                  "help": "indent JSON; render reports as text"}),
    ("--seed", {"type": int, "metavar": "N", "default": 0,
                "help": "seed for randomized suites (default 0)"}),
    ("--threads", {"type": int, "metavar": "N", "default": 1,
                   "help": "accepted and ignored"}),
    ("--budget", {"metavar": "SPEC", "default": None,
                  "help": "exact:<n> lets exact branch-width do the 3^n split "
                          "pairs of a clone-free n-element matroid; "
                          "certify is accepted and ignored"}),
)


def _positive(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a positive integer, got %r"
                                     % text)


def build_parser() -> Parser:
    parser = Parser(
        prog="cycflats",
        description="Matroid workbench over the cyclic-flats "
                    "representation: Tutte polynomials, configurations, "
                    "connectivity, branch-width, expansions, positroid "
                    "orders, and transversal presentations.")
    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in _GLOBALS:
        parser.add_argument(flag, **kw)
        common.add_argument(flag, **dict(kw, default=argparse.SUPPRESS))
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=Parser)

    def add(name, help_text, handler, matroid=True, under=sub):
        p = under.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        if matroid:
            p.add_argument("matroid", nargs="?")
        return p

    add("validate", "check the cyclic-flat axioms on a matroid",
        cmd_validate)

    p = add("rank", "rank of a subset of the ground set", cmd_rank)
    p.add_argument("--set", dest="subset", required=True, metavar="ELEMS",
                   help="comma-separated element labels (empty for the "
                        "empty set)")

    add("tutte", "Tutte polynomial as a JSON term list", cmd_tutte)

    p = add("config", "configuration; 'config compare A B' tests "
                      "isomorphism", cmd_config, matroid=False)
    p.add_argument("args", nargs="*", metavar="ARG",
                   help="MATROID, or: compare MATROID MATROID")

    p = add("expand", "t-expansion with its block map", cmd_expand)
    p.add_argument("--t", type=_positive, required=True)

    p = add("deflate", "undo a t-expansion (error if the input is not one)",
            cmd_deflate)
    p.add_argument("--t", type=_positive, required=True)

    p = add("union", "matroid union of the listed matroids", cmd_union,
            matroid=False)
    p.add_argument("matroids", nargs="+", metavar="MATROID")

    add("tau", "Tutte connectivity with a witness separation", cmd_tau)
    add("kappa", "vertical connectivity with a witness separation",
        cmd_kappa)

    p = add("flats-cover", "search for proper flats covering all but "
                           "--slack elements", cmd_flats_cover)
    p.add_argument("--count", type=_positive, required=True)
    p.add_argument("--slack", type=int, default=0)

    p = add("bw", "branch-width: exact or two-sided certificate", cmd_bw)
    p.add_argument("--exact", action="store_true",
                   help="exact branch-width (the default mode)")
    p.add_argument("--certify", action="store_true",
                   help="verify --upper decomposition and --lower tangle")
    p.add_argument("--upper", metavar="FILE",
                   help="branch-decomposition JSON file")
    p.add_argument("--lower", metavar="SPEC",
                   help="tangle spec rank-lt:<c>:<k>")

    p = add("tangle", "tangle operations", None, matroid=False)
    tsub = p.add_subparsers(dest="tangle_command", required=True,
                            parser_class=Parser)
    p = add("verify", "check the tangle axioms", cmd_tangle_verify,
            under=tsub)
    p.add_argument("--family", required=True, metavar="SPEC",
                   help="member family spec rank-lt:<c>")
    p.add_argument("--order", type=_positive, required=True)

    p = add("positroid-check", "test one cyclic order for the "
                               "cyclic-interval property",
            cmd_positroid_check)
    p.add_argument("--order", required=True, metavar="ELEMS",
                   help="comma-separated permutation of the ground set")

    add("positroid-search", "search cyclic orders up to rotation and "
                            "reflection", cmd_positroid_search)

    p = add("presentation-verify", "does the given presentation present "
                                   "the matroid?", cmd_presentation_verify)
    p.add_argument("--sets", required=True, metavar="SETS",
                   help="presentation sets, '|'-separated comma lists, "
                        "e.g. \"1,2,3|4,5,6\"")

    p = add("verify", "run a named theorem check or verification suite",
            cmd_verify, matroid=False)
    p.add_argument("--theorem", choices=list(THEOREMS))
    p.add_argument("--suite", choices=list(SUITE_NAMES))
    p.add_argument("--matroid", dest="verify_matroid", metavar="MATROID",
                   help="instance for --theorem (catalog name or file)")
    p.add_argument("--t", type=_positive, default=2)
    p.add_argument("--trials", type=_positive, default=200)
    return parser


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as ex:
        raise UsageError("cannot read %s: %s" % (path, ex))
    return json.loads(text)


def _resolve(spec: Optional[str], args) -> Matroid:
    """The matroid of a command's one operand: a catalog name or file
    given as spec, --input FILE or --catalog NAME, and only one of
    them."""
    given = [text for text, value in (
        (repr(spec), spec), ("--input %s" % args.input, args.input),
        ("--catalog %s" % args.catalog, args.catalog)) if value]
    if len(given) > 1:
        raise UsageError("two sources for one matroid: %s"
                         % " and ".join(given))
    if args.input:
        return from_json_dict(_read_json(args.input))
    if args.catalog:
        name = args.catalog
        if name not in catalog.names():
            raise UsageError("unknown catalog entry %r; have %s"
                             % (name, ", ".join(catalog.names())))
        return catalog.get(name)
    if spec is not None:
        if spec in catalog.names():
            return catalog.get(spec)
        if Path(spec).exists():
            return from_json_dict(_read_json(spec))
        raise UsageError("%r is neither a catalog name nor a file" % spec)
    raise UsageError("no matroid given: pass a catalog name, a file path, "
                     "--input FILE, or --catalog NAME")


def _operands(specs: List[str], args, command: str) -> List[Matroid]:
    """The matroids of a command of several operands, each a catalog
    name or file; --input and --catalog name one matroid, so they are
    refused here."""
    if args.input or args.catalog:
        raise UsageError("%s takes its matroids as operands, not --input "
                         "or --catalog" % command)
    return [_resolve(spec, args) for spec in specs]


def _parse_labels(text: str) -> List[str]:
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


def _parse_budget(args) -> Optional[int]:
    """The exact budget n >= 1 of --budget exact:<n>; None without
    one.  certify is accepted and changes nothing."""
    raw = args.budget
    if raw is None or raw == "certify":
        return None
    if raw.startswith("exact:"):
        try:
            return _positive(raw.split(":", 1)[1])
        except argparse.ArgumentTypeError:
            pass
    raise UsageError("bad --budget %r: expected exact:<n> with n >= 1, "
                     "or certify" % raw)


def _mask_of(M: Matroid, labels: List[str]) -> int:
    try:
        return M.ground.mask_of(labels)
    except ValueError as ex:
        raise UsageError(str(ex))


def _parse_rank_lt(spec: str, parts: int) -> List[int]:
    pieces = spec.split(":")
    if len(pieces) != 1 + parts or pieces[0] != "rank-lt":
        raise UsageError("bad spec %r: expected rank-lt%s"
                         % (spec, ":<c>" * parts if parts == 1
                            else ":<c>:<k>"))
    try:
        return [_positive(x) for x in pieces[1:]]
    except argparse.ArgumentTypeError:
        raise UsageError("bad spec %r: the parameters must be positive "
                         "integers" % spec)


def _rank_tangle(M: Matroid, c: int, order: int) -> Tangle:
    """The tangle of the given order on {X : r(X) < c}; a bound c above
    r(M)+1 is a usage error."""
    try:
        return Tangle(order=order, members=rank_bounded_family(M, c))
    except ValueError as ex:
        raise UsageError(str(ex))


def cmd_validate(args) -> Tuple[int, object]:
    try:
        M = _resolve(args.matroid, args)
    except AxiomViolation as ex:
        return 2, {"valid": False, "violation": str(ex),
                   "witness": _jsonable(ex.witness)}
    return 0, {"valid": True, "matroid": M.to_json_dict()}


def cmd_rank(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    labels = _parse_labels(args.subset)
    mask = _mask_of(M, labels)
    return 0, {"set": labels, "rank": M.rank(mask)}


def cmd_tutte(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    return 0, tutte_polynomial(M).to_json_dict()


def cmd_config(args) -> Tuple[int, object]:
    if args.args[:1] == ["compare"]:
        if len(args.args) != 3:
            raise UsageError("config compare takes exactly two matroids")
        A, B = _operands(args.args[1:], args, "config compare")
        ok, mapping = config_isomorphic(configuration(A), configuration(B))
        witness = None
        if mapping is not None:
            witness = {str(i): j for i, j in sorted(mapping.items())}
        return (0 if ok else 2), {"isomorphic": ok, "witness": witness}
    if len(args.args) > 1:
        raise UsageError("config takes one matroid, or: compare A B")
    M = _resolve(args.args[0] if args.args else None, args)
    return 0, configuration(M).to_json_dict()


def cmd_expand(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    Mt, emap = expand(M, args.t)
    return 0, {"matroid": Mt.to_json_dict(), "map": emap.to_json_dict()}


def cmd_deflate(args) -> Tuple[int, object]:
    N = _resolve(args.matroid, args)
    D, emap = deflate_with_map(N, args.t)
    return 0, {"matroid": D.to_json_dict(), "map": emap.to_json_dict()}


def cmd_union(args) -> Tuple[int, object]:
    members = _operands(args.matroids, args, "union")
    return 0, matroid_union(members).to_json_dict()


def cmd_tau(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    return 0, tutte_connectivity(M).to_json_dict()


def cmd_kappa(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    return 0, vertical_connectivity(M).to_json_dict()


def cmd_flats_cover(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    try:
        found = flats_cover(M, args.count, args.slack)
    except ValueError as ex:
        raise UsageError(str(ex))
    return 0, {"found": found is not None,
               "flats": None if found is None
               else [list(f) for f in found]}


def cmd_bw(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    if args.certify:
        if args.exact:
            raise UsageError("--exact and --certify are mutually exclusive")
        if not args.upper or not args.lower:
            raise UsageError("--certify needs --upper FILE and "
                             "--lower rank-lt:<c>:<k>")
        D = BranchDecomposition.from_json_dict(_read_json(args.upper))
        c, k = _parse_rank_lt(args.lower, 2)
        try:
            cert = branch_width_certified(M, D, _rank_tangle(M, c, k))
        except InvalidTangle as ex:
            return 2, {"certified": False, "reason": str(ex)}
        return 0, cert.to_json_dict()
    cap = DP_BUDGET if args.exact_cap is None else args.exact_cap
    value, D = branch_width_exact(M, cap)
    return 0, {"value": value, "decomposition": D.to_json_dict()}


def cmd_tangle_verify(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    (c,) = _parse_rank_lt(args.family, 1)
    tangle = _rank_tangle(M, c, args.order)
    ok, witness = verify_tangle(M, tangle)
    return (0 if ok else 2), {"valid": ok, "order": args.order,
                              "family": tangle.members.describe(),
                              "witness": _jsonable(witness)}


def cmd_positroid_check(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    order = _parse_labels(args.order)
    try:
        ok, witness = is_positroid_order(M, order)
    except ValueError as ex:
        raise UsageError(str(ex))
    return (0 if ok else 2), {"positroid_order": ok,
                              "witness": _jsonable(witness)}


def cmd_positroid_search(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    order, checked = positroid_search(M)
    return 0, {"order": order, "classes_checked": checked}


def cmd_presentation_verify(args) -> Tuple[int, object]:
    M = _resolve(args.matroid, args)
    sets = [set(_parse_labels(part)) for part in args.sets.split("|")]
    try:
        P = Presentation.from_labels(sets, M.ground)
    except ValueError as ex:
        raise UsageError(str(ex))
    ok = verify_presentation(M, P)
    return (0 if ok else 2), {
        "presents": ok,
        "presented_rank": presentation_matroid(P).rank_total,
        "target_rank": M.rank_total}


def cmd_verify(args) -> Tuple[int, object]:
    if bool(args.theorem) == bool(args.suite):
        raise UsageError("verify needs exactly one of --theorem or --suite")
    if args.theorem:
        if not args.verify_matroid:
            raise UsageError("--theorem needs --matroid")
        M = _resolve(args.verify_matroid, args)
        report = run_theorem(args.theorem, M, args.verify_matroid, args.t)
    else:
        report = run_suite(args.suite, seed=args.seed, trials=args.trials,
                           exact_budget=args.exact_cap)
    code = 0 if report.passed else 2
    if args.pretty:
        return code, "\n".join(report.format_lines())
    return code, report.to_json_dict()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.exact_cap = _parse_budget(args)
        code, payload = args.handler(args)
    except UsageError as ex:
        print("cycflats: error: %s" % ex, file=sys.stderr)
        return 64
    except (MatroidError, ValueError) as ex:
        print("cycflats: %s: %s" % (type(ex).__name__, ex), file=sys.stderr)
        return 1
    except OSError as ex:
        print("cycflats: %s" % ex, file=sys.stderr)
        return 1
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2 if args.pretty else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
