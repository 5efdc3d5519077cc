"""Mutated problem files at the CLI boundary: every run exits 0, 2, 3 or 4 and never raises."""

import copy
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import PROBLEMS, per_pair_doc, run_cli

DOCS = {
    "banach_scalar": json.loads((PROBLEMS / "banach_scalar.json").read_text()),
    "finite_ladder": json.loads((PROBLEMS / "finite_ladder.json").read_text()),
    "per_pair": per_pair_doc(),
}
VALUES = [5, "abc", [], {}, None, True, -1, 1e308, ["x"], [[1, "a"]]]
# keys of other kinds or sections, and one that belongs nowhere
FOREIGN = ["m", "labels", "positions", "entries", "weight", "B", "c", "table", "A1", "x0", "zz"]
COMMANDS = (["check"], ["solve", "--audit-gap", "3"], ["validate"])


def key_paths(node, prefix=()):
    """The path of every object key and list index under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    paths = list(key_paths(doc))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        objects = [()] + [p for p in paths if isinstance(at(doc, p), dict)]
        at(doc, draw(st.sampled_from(objects)))[draw(st.sampled_from(FOREIGN))] = draw(st.sampled_from(VALUES))
        return doc
    path = draw(st.sampled_from(paths))
    if action == "replace":
        at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(VALUES))
    else:
        del at(doc, path[:-1])[path[-1]]
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=mutants())
def test_mutated_problem_exits_with_a_status(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in COMMANDS:
        with np.errstate(all="ignore"):  # 1e308 entries overflow by design
            code, _ = run_cli([argv[0], str(path), "--output", "machine", *argv[1:]])
        assert code in (0, 2, 3, 4)
