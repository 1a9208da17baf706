"""Golden digests of the library's outputs on a seeded corpus.

A record is the sha256 of the canonical JSON (sorted keys, no spaces)
of one function's calls on one input, keyed ``function:input-id``.  A
call that raises a MatroidError (BudgetExceeded included) or a
ValueError gives the error's class and message instead of a result.
The inputs are the catalog at t = 1..3, and DRAWS `random_matroid` draws
(seed SEED, n <= 8) with their 2- and 3-expansions.  The functions are
branch_width_exact (value and tree), expand_decomposition,
caterpillar_decomposition, fan_decomposition, decomposition_width,
verify_tangle (verdict and witness, for every rank bound c in 1..r+1 at
orders c and c + 1, and a few explicit families), is_positroid_order and
positroid_search (order and classes checked).

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py           # rewrite
    PYTHONPATH=src python tests/golden/generate.py --check   # compare

--check regenerates every record and exits 1, naming each record that
differs, when the result is not byte for byte the committed file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from typing import Callable, Dict, Iterator, List, Tuple

from cycflats import (
    BranchDecomposition,
    MatroidError,
    Tangle,
    branch_width_exact,
    caterpillar_decomposition,
    decomposition_width,
    expand,
    expand_decomposition,
    fan_decomposition,
    is_positroid_order,
    positroid_search,
    random_matroid,
    rank_bounded_family,
    verify_tangle,
)
from cycflats import catalog

SEED = 5
DRAWS = 100
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "digests.json")

FUNCTIONS = ("branch_width_exact", "expand_decomposition",
             "caterpillar_decomposition", "fan_decomposition",
             "decomposition_width", "verify_tangle", "is_positroid_order",
             "positroid_search")


def _call(fn: Callable[[], object]) -> dict:
    """{"result": fn()}, or fn's error's class and message."""
    try:
        return {"result": fn()}
    except (MatroidError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _json(outcome: dict) -> dict:
    """The outcome with its decomposition in JSON form."""
    result = outcome.get("result")
    if isinstance(result, BranchDecomposition):
        return {"result": result.to_json_dict()}
    if isinstance(result, dict) and "tree" in result:
        return {"result": dict(result, tree=result["tree"].to_json_dict())}
    return outcome


def _bw(M):
    value, tree = branch_width_exact(M)
    return {"value": value, "tree": tree}


def _tangle(M, tangle):
    ok, witness = verify_tangle(M, tangle)
    return {"ok": ok, "witness": witness}


def _search(M):
    order, checked = positroid_search(M)
    return {"order": order, "checked": checked}


def _orders(M) -> Dict[str, List[str]]:
    labels = list(M.ground.labels)
    return {"ground": labels, "reversed": labels[::-1],
            "interleaved": labels[::2] + labels[1::2]}


def _bases() -> Iterator[Tuple[str, object]]:
    """(input id, matroid) of each base: the catalog, then the draws."""
    for name in catalog.names():
        yield name, catalog.get(name)
    rng = random.Random(SEED)
    for i in range(DRAWS):
        yield "draw%03d" % i, random_matroid(rng, 8)


def _explicit(M) -> Iterator[Tuple[str, Tangle]]:
    """A few explicit families, as masks: none, the sets of at most one
    element, and the sets of rank at most one."""
    n = M.ground.n
    small = (0,) + tuple(1 << i for i in range(n))
    low = tuple(x for x in range(1 << n) if M.rank(x) <= 1)
    yield "explicit:empty", Tangle(1, ())
    yield "explicit:empty", Tangle(2, ())
    yield "explicit:small", Tangle(2, small)
    yield "explicit:small", Tangle(3, small)
    yield "explicit:rank-le-1", Tangle(3, low)


def _matroid(key: str, M, bw: dict, trees: dict, explicit
             ) -> Iterator[Tuple[str, object]]:
    """The records of one input matroid: its exact width, the widths of
    `trees` on it, every rank-below family at orders c and c + 1 and the
    `explicit` families, the positroid search and three or four orders."""
    yield "branch_width_exact:" + key, _json(bw)
    yield ("decomposition_width:" + key,
           {name: _call(lambda: decomposition_width(M, tree))
            for name, tree in trees.items()})
    families = [("rank-lt:%d" % c, Tangle(k, rank_bounded_family(M, c)))
                for c in range(1, M.rank_total + 2) for k in (c, c + 1)]
    families += explicit
    yield ("verify_tangle:" + key,
           [[name, tangle.order, _call(lambda: _tangle(M, tangle))]
            for name, tangle in families])
    search = _call(lambda: _search(M))
    yield "positroid_search:" + key, search
    orders = _orders(M)
    if search.get("result", {}).get("order") is not None:
        orders["found"] = search["result"]["order"]
    yield ("is_positroid_order:" + key,
           {name: _call(lambda: is_positroid_order(M, order))
            for name, order in orders.items()})


def records() -> Iterator[Tuple[str, object]]:
    """(key, JSON-ready outcome) of every record of the corpus, in order.

    Each base and each of its 2- and 3-expansions gets one record per
    function; the base's caterpillar and exact tree are expanded with
    it, and their widths measured on the expansion."""
    for key, M in _bases():
        bw = _call(lambda: _bw(M))
        trees = {"caterpillar": caterpillar_decomposition(M.ground.labels)}
        if "result" in bw:
            trees["bw"] = bw["result"]["tree"]
        yield from _matroid(key, M, bw, trees, _explicit(M))
        for t in (2, 3):
            Mt, emap = expand(M, t)
            grown = {name: _call(lambda: expand_decomposition(tree, emap))
                     for name, tree in trees.items()}
            tkey = "%s^%d" % (key, t)
            yield ("expand_decomposition:" + tkey,
                   {name: _json(out) for name, out in grown.items()})
            wide = {"caterpillar":
                    caterpillar_decomposition(Mt.ground.labels)}
            wide.update(("expanded " + name, out["result"])
                        for name, out in grown.items() if "result" in out)
            yield from _matroid(tkey, Mt, _call(lambda: _bw(Mt)), wide, ())
    fig2_M = catalog.get("fig2_M")
    for t in (2, 3):
        Mt, emap = expand(fig2_M, t)
        out = _call(lambda: expand_decomposition(catalog.three_lines_tree(),
                                                 emap))
        yield "expand_decomposition:three_lines^%d" % t, _json(out)
        yield ("decomposition_width:three_lines^%d" % t,
               _call(lambda: decomposition_width(Mt, out["result"])))
    labels = [str(i) for i in range(1, 9)]
    for m in range(len(labels) + 1):
        yield ("caterpillar_decomposition:%d" % m,
               _json(_call(lambda: caterpillar_decomposition(labels[:m]))))
    for name, groups in (("1|1|1", [["a"], ["b"], ["c"]]),
                         ("2|1|3", [["1", "2"], ["3"], ["4", "5", "6"]]),
                         ("3|3|3", [["1", "2", "3"], ["4", "5", "6"],
                                    ["7", "8", "9"]]),
                         ("4|0|2|2", [["1", "2", "3", "4"], [], ["5", "6"],
                                      ["7", "8"]]),
                         ("2|2", [["1", "2"], ["3", "4"]])):
        yield ("fan_decomposition:" + name,
               _json(_call(lambda: fan_decomposition(groups))))


def digest(outcome: object) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for key, outcome in records():
        if key in out:
            raise ValueError("duplicate golden key %r" % key)
        out[key] = digest(outcome)
    return out


def dump(table: Dict[str, str]) -> str:
    return json.dumps(table, sort_keys=True, indent=0) + "\n"


def counts(table: Dict[str, str]) -> Dict[str, int]:
    """Records per function."""
    out = dict.fromkeys(FUNCTIONS, 0)
    for key in table:
        out[key.split(":", 1)[0]] += 1
    return out


def differences(want: Dict[str, str], have: Dict[str, str]) -> List[str]:
    """One line per record that is missing, extra or changed."""
    return (["missing %s" % k for k in sorted(set(want) - set(have))]
            + ["extra %s" % k for k in sorted(set(have) - set(want))]
            + ["changed %s" % k for k in sorted(set(want) & set(have))
               if want[k] != have[k]])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file, exit 1 on "
                        "a difference")
    check = parser.parse_args(argv).check
    table = digests()
    if not check:
        with open(PATH, "w") as fh:
            fh.write(dump(table))
        print(json.dumps(counts(table)))
        return 0
    with open(PATH) as fh:
        text = fh.read()
    bad = differences(json.loads(text), table)
    for line in bad:
        print(line)
    if bad or text != dump(table):
        print("golden digests differ from %s" % PATH, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
