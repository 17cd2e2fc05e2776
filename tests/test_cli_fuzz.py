"""Bounded fuzzing of the CLI contract.

Whatever the command line, tree files, coupling file, cost tensor file
and matching instance file, a run exits
with 0, 2, 3 or 4; a failed run says why on exactly one stderr line; and
a successful run writes a report that a second run reproduces byte for
byte.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeot import ValidationError, load_tree
from treeot.cli import run

_FLOATS = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from([0.0, -0.5, 1e300, float("nan"), float("inf")]),
)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=3), _FLOATS,
    st.lists(st.integers(-1, 1), max_size=2),
)


@st.composite
def tree_dict(draw, prefix, damages=("field", "drop", "doc"), horizon=None):
    """A tree document, valid by construction, and the damage then done
    to it: one of ``damages`` or none."""
    if horizon is None:
        horizon = draw(st.integers(1, 2))
    levels, parents, counter = [], [None], 0
    for _ in range(horizon):
        level = []
        for parent in parents:
            width = draw(st.integers(1, 2))
            for b in range(width):
                level.append({
                    "id": f"{prefix}{counter}",
                    "parent": parent,
                    "p": 1.0 / width,
                    "x": [draw(st.floats(-2.0, 2.0, allow_nan=False))],
                })
                counter += 1
        levels.append(level)
        parents = [node["id"] for node in level]
    doc = {"horizon": horizon, "levels": levels}
    damage = draw(st.sampled_from(["none"] * 4 + list(damages)))
    node = draw(st.sampled_from([n for level in levels for n in level]))
    if damage == "field":
        node[draw(st.sampled_from(["id", "parent", "p", "x"]))] = draw(_JUNK)
    elif damage == "drop":
        del node[draw(st.sampled_from(["id", "parent", "p", "x"]))]
    elif damage == "doc":
        doc[draw(st.sampled_from(["horizon", "levels"]))] = draw(_JUNK)
    return doc, damage


@st.composite
def tree_doc(draw, prefix):
    """A tree file: a tree document, perhaps damaged or cut short."""
    doc, damage = draw(tree_dict(prefix, ("field", "drop", "doc", "text")))
    text = json.dumps(doc)
    if damage == "text":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def product_coupling(trees) -> str:
    """The independent coupling of two tree files, or junk if one is invalid."""
    try:
        a, b = (load_tree(text) for text in trees)
    except ValidationError:
        return "{}"
    atoms = [
        {"leaves": [x, y], "w": float(p * q)}
        for x, p in zip(a.leaf_ids(), a.leaf_law())
        for y, q in zip(b.leaf_ids(), b.leaf_law())
    ]
    return json.dumps({"atoms": atoms})


@st.composite
def coupling_doc(draw):
    leaves = st.lists(st.sampled_from(["a0", "a1", "a2", "b0", "b1", "b2", "zz"]),
                      min_size=1, max_size=3)
    atom = st.fixed_dictionaries({"leaves": leaves, "w": _FLOATS})
    doc = draw(st.one_of(
        st.fixed_dictionaries({"atoms": st.lists(atom, max_size=4)}),
        st.fixed_dictionaries({"atoms": _JUNK}),
        _JUNK,
    ))
    return json.dumps(doc)


#: JSON power costs whose fields have the wrong type
_BAD_POWER_COSTS = ['{"kind": "power", "p": null}', '{"kind": "power", "weights": 5}']

_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--p"), st.sampled_from(["2", "1", "0", "-1", "0.5", "nan", "inf", "x", "1000"])),
        st.tuples(st.just("--cost"), st.sampled_from(
            ["lp_sum:2", "pairwise_power:1", "lp_sum:x", "tensor:missing.npy", "bogus", "",
             "lp_sum:1e308", *_BAD_POWER_COSTS])),
        st.tuples(st.just("--budget"), st.sampled_from(["1", "4", "0", "-3", "1000000", "z"])),
        st.tuples(st.just("--tol"), st.sampled_from(["1e-8", "0", "-1", "nan", "inf"])),
        st.tuples(st.just("--format"), st.sampled_from(["json", "text", "xml"])),
        st.tuples(st.just("--oracle")),
        st.tuples(st.sampled_from(["--unknown", "extra.json", "--"])),
    ),
    max_size=3,
)


@settings(max_examples=50, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(
        ["awdist", "mcot", "bary-bc", "verify-coupling", "nope"]
    ),
    trees=st.tuples(tree_doc("a"), tree_doc("b")),
    coupling=st.one_of(st.none(), coupling_doc()),
    options=_OPTIONS,
)
def test_cli_contract_under_fuzzing(command, trees, coupling, options):
    if coupling is None:
        coupling = product_coupling(trees)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in zip(("a.json", "b.json", "c.json"), (*trees, coupling)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        if command == "verify-coupling":
            argv = [command, paths[2], "--trees", *paths[:2]]
        else:
            argv = [command, *paths[:2]]
        argv += [token for option in options for token in option]
        code = _check_contract(argv, os.path.join(tmp, "report"))
        if "--tol" in argv and command != "verify-coupling":
            assert code == 2, argv  # only verify-coupling takes a tolerance


def _check_contract(argv, out):
    """Run ``argv`` twice: the exit code is in the contract, a failure
    says why on one stderr line, and a success reproduces its report.
    Returns the exit code."""

    def attempt():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([*argv, "--output", out])
        # a warning would print to stderr in a plain run
        return code, err.getvalue() + "".join(f"{w.message}\n" for w in caught)

    code, err = attempt()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code != 0:
        assert len(err.strip().splitlines()) == 1, (argv, err)
        return code
    assert err == ""
    with open(out, "rb") as fh:
        first = fh.read()
    assert attempt() == (0, "")
    with open(out, "rb") as fh:
        assert fh.read() == first
    return code


_POWER_COST = st.fixed_dictionaries({
    "kind": st.just("power"), "p": st.sampled_from([1, 2]),
    "weight": st.sampled_from([1.0, 0.5, 2.0]),
})
_SEPARABLE_COST = st.one_of(
    _POWER_COST,
    st.fixed_dictionaries({"kind": st.just("power"), "p": st.sampled_from([1, 2, 0.5, "x"]),
                           "weight": _FLOATS}),
    st.fixed_dictionaries({"kind": st.sampled_from(["matrix", "bogus"]), "tables": _JUNK}),
    _JUNK,
)

_MATCH_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--budget"), st.sampled_from(["1", "4", "0", "1000000", "z"])),
        st.tuples(st.just("--tol"), st.just("1e-8")),  # refused: match takes no tolerance
        st.tuples(st.just("--format"), st.sampled_from(["json", "text", "xml"])),
        st.tuples(st.sampled_from(["--oracle", "extra.json"])),
    ),
    max_size=2,
)


@st.composite
def matching_doc(draw):
    """A matching instance file: populations and tasks drawn like tree
    files, mostly of one horizon and undamaged; mostly power costs;
    perhaps a whole entry replaced by junk and the text cut short."""
    horizon = draw(st.integers(1, 2))
    damages = draw(st.sampled_from([(), (), ("field", "drop", "doc")]))
    cost = draw(st.sampled_from([_POWER_COST, _POWER_COST, _SEPARABLE_COST]))

    def tree(prefix):
        h = draw(st.sampled_from([horizon] * 5 + [3 - horizon]))
        return draw(tree_dict(prefix, damages, h))[0]

    doc = {
        "principal": {"tree": tree("p"), "utility": draw(cost)},
        "agents": [
            {"tree": tree(f"a{k}_"), "cost": draw(cost)}
            for k in range(draw(st.integers(0, 2)))
        ],
        "tasks": tree("y"),
    }
    if draw(st.integers(0, 4)) == 0:
        doc[draw(st.sampled_from(["principal", "agents", "tasks"]))] = draw(_JUNK)
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=40, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=matching_doc(), options=_MATCH_OPTIONS)
def test_match_contract_under_fuzzing(instance, options):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instance)
        argv = ["match", path, *(token for option in options for token in option)]
        code = _check_contract(argv, os.path.join(tmp, "report"))
        if "--tol" in argv:
            assert code == 2, argv


#: two trees of 4 leaves each, so a valid cost tensor has shape (4, 4)
_SQUARE_TREES = [
    json.dumps({"horizon": 2, "levels": [
        [{"id": f"{c}{k}", "parent": None, "p": 0.5, "x": [float(k)]} for k in range(2)],
        [{"id": f"{c}{k}{j}", "parent": f"{c}{k}", "p": 0.5, "x": [float(k - j)]}
         for k in range(2) for j in range(2)],
    ]})
    for c in "ab"
]
_SHAPES = st.sampled_from([(4, 4)] * 3 + [(), (16,), (4, 4, 1), (2, 2), (3, 4), (4, 3), (5, 5), (4, 5)])


@st.composite
def tensor_file(draw):
    """A cost tensor file: its name and bytes, as ``.npy`` or JSON, mostly
    numeric with a drawn shape, else non-numeric, ragged, of a non-real
    dtype, garbage or cut short."""
    kind = draw(st.sampled_from(["npy"] * 3 + ["json"] * 3 + [
        "non-numeric", "ragged", "object", "complex", "strings", "garbage", "truncated",
    ]))
    shape = draw(_SHAPES)
    size = int(np.prod(shape))
    values = np.array(draw(st.lists(_FLOATS, min_size=size, max_size=size))).reshape(shape)
    buffer = io.BytesIO()
    if kind in ("npy", "garbage", "truncated"):
        np.save(buffer, values)
        data = buffer.getvalue()
        if kind == "garbage":
            data = draw(st.binary(max_size=64))
        elif kind == "truncated":
            data = data[:draw(st.integers(0, len(data) - 1))]
        return "tensor.npy", data
    if kind in ("complex", "strings"):
        np.save(buffer, values.astype(complex if kind == "complex" else str))
        return "tensor.npy", buffer.getvalue()
    doc = values.tolist()
    if kind == "non-numeric":
        doc = [[draw(st.sampled_from(["x", None, "1", [], {}])), 1.0]] * 4
    elif kind == "ragged":
        doc = [[1.0, 2.0, 3.0, 4.0]] * 3 + [[1.0]]
    elif kind == "object":
        doc = draw(_JUNK) if draw(st.booleans()) else {"tensor": doc}
    return "tensor.json", json.dumps(doc).encode()


@settings(max_examples=40, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(tensor=st.one_of(tensor_file(), st.none()),
       oracle=st.sampled_from([[], ["--oracle"]]))
def test_tensor_cost_contract_under_fuzzing(tensor, oracle):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in zip(("a.json", "b.json"), _SQUARE_TREES):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        cost = os.path.join(tmp, "missing.npy")
        if tensor is not None:
            cost = os.path.join(tmp, tensor[0])
            with open(cost, "wb") as fh:
                fh.write(tensor[1])
        _check_contract(["mcot", *paths, "--cost", f"tensor:{cost}", *oracle],
                        os.path.join(tmp, "report"))


@pytest.mark.parametrize("spec", _BAD_POWER_COSTS)
@pytest.mark.parametrize("command", ["bary-bc", "bary-c", "bary-anticausal"])
def test_malformed_json_power_cost_is_a_validation_error(tmp_path, capsys, command, spec):
    paths = []
    for name, text in zip(("a.json", "b.json"), _SQUARE_TREES):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    tasks = [] if command == "bary-bc" else ["--tasks", paths[0]]
    assert run([command, *paths, *tasks, "--cost", spec]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "malformed cost" in err, err
