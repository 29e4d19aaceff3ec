"""Seeded fuzz of the input documents, run through the command line.

Each case takes a shipped scenario, a comparison of two shipped scenarios, or
a plan file with the edge list of its graph, replaces one or two of its
leaves with an awkward value, and runs it through `cli.main` with
`simulate`, `simulate --full`, `sweep --vary c`, `compare` or
`spectrum --plan`. Every case must end in an exit code: 0, 2 (a refused
input, with no artifact written) or 3 (a diverged run). No exception may
escape, and no case may write outside its `--out` directory: a scenario
name is the stem of its artifact files.

The horizon is set to four record intervals before mutating, so a run that
is accepted takes a few steps. A size field (a node, branch or pin count, or
the edge list's `N`) takes every value, 2**40 and beyond included: a node
count whose dense N x N matrix numpy cannot describe is refused before
anything of that size is built. One kind of value is kept out, because the
program accepts it, as it should, and would then run long: one document
never has both its horizon `T` and its `record_every` mutated, as a huge
horizon with a record interval that divides it is a valid, long run.
"""

import json
import math
import random
from collections import Counter

from pinnet.cli import main
from pinnet.pinning import plan_to_dict
from pinnet.scenarios import FAMILIES, SCENARIOS

SEED, CASES = 20261020, 600
VALUES = (0, -1, 5e-324, 1e308, math.nan, math.inf, True, None, "x", "../x", "a/b", [],
          2**40, 2**64, 10**400)
COMMANDS = ("simulate", "simulate --full", "sweep --vary c", "compare", "spectrum --plan")


def _scenario(name: str) -> dict:
    d = SCENARIOS[name].to_dict()
    sim = d["sim"]
    sim["T"] = 4 * sim["h"] * sim["record_every"]
    return d


def _leaves(doc, path=()):
    """The path of every value in `doc` that is no nonempty list or object."""
    items = list(doc.items() if isinstance(doc, dict) else
                 enumerate(doc) if isinstance(doc, list) else ())
    if not items:
        yield path
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _field(path) -> str:
    """The name of the object field a leaf sits in: its last string key."""
    return next((key for key in reversed(path) if isinstance(key, str)), "")


def _mutate(doc: dict, rng: random.Random) -> tuple[dict, list]:
    """`doc`, changed in place at one or two leaves, and the (path, value) edits."""
    leaves = list(_leaves(doc))
    while True:
        paths = rng.sample(leaves, rng.choice((1, 2)))
        if {"T", "record_every"} - {_field(p) for p in paths}:
            break
    edits = []
    for path in paths:
        value = rng.choice(VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        edits.append((path, value))
    return doc, edits


def _document(command: str, rng: random.Random) -> dict:
    if command == "compare":
        family = rng.choice([f for f, names in FAMILIES.items() if len(names) > 1])
        return {"scenarios": [_scenario(name) for name in FAMILIES[family][:2]]}
    scenario = SCENARIOS[rng.choice(sorted(SCENARIOS))]
    if command == "spectrum --plan":
        g = scenario.topology.build()
        return {"edges": {"N": g.n_nodes, "pairs": [list(e) for e in sorted(g.edges)]},
                "plan": plan_to_dict(scenario.plan.build(g))}
    return _scenario(scenario.name)


def _argv(command: str, doc: dict, tmp) -> list:
    if command == "spectrum --plan":
        edges = doc["edges"]  # only its leaves change: N and the pairs' ends
        lines = [f"N {edges['N']}"] + [f"{i} {j}" for i, j in edges["pairs"]]
        (tmp / "graph.edges").write_text("\n".join(lines) + "\n")
        (tmp / "plan.json").write_text(json.dumps(doc["plan"]))
        return ["spectrum", "--edges", str(tmp / "graph.edges"), "--plan", str(tmp / "plan.json")]
    (tmp / "doc.json").write_text(json.dumps(doc))
    words = command.split()
    extra = ["--values", "2,6"] if words[0] == "sweep" else []
    return [words[0], str(tmp / "doc.json"), *words[1:], *extra, "--out", str(tmp / "out")]


def test_every_mutated_document_exits_0_2_or_3(tmp_path, capsys):
    rng = random.Random(SEED)
    failures, codes = [], Counter()
    for case in range(CASES):
        command = rng.choice(COMMANDS)
        doc, edits = _mutate(_document(command, rng), rng)
        tmp = tmp_path / str(case)
        tmp.mkdir()
        argv = _argv(command, doc, tmp)
        try:
            code = main(argv)
        except Exception as exc:  # every escape is a finding
            code = f"{type(exc).__name__}: {exc}"
        out = capsys.readouterr().out
        codes[code] += 1
        wrote = (tmp / "out").exists() or (command.startswith("spectrum") and out)
        strays = sorted({p.name for p in tmp.iterdir()} - {"doc.json", "graph.edges",
                                                             "plan.json", "out"})
        if code not in (0, 2, 3) or (code == 2 and wrote) or strays:
            failures.append(f"{command} with {edits}: {code}"
                            + (", wrote an artifact" if code == 2 and wrote else "")
                            + (f", wrote {strays} outside --out" if strays else ""))
    assert not failures, "\n".join(failures)
    # The cases reach both sides: accepted runs and refused documents.
    assert codes[0] > CASES // 40 and codes[2] > CASES // 2
