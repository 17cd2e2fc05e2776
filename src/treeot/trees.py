"""Finite filtered processes as scenario trees.

A scenario tree stores, per time step t in  {1, ..., T}, a list of nodes.
Every node carries a state vector x_t, the conditional transition
probability p = P(node | parent) (an unconditional probability at t = 1),
and a parent link into the previous level.  The canonical filtration is
the tree structure itself: a node at depth t *is* the path omega_{1:t}.

Conventions enforced at construction time:

* all stored probabilities are strictly positive (zero-probability
  branches must be pruned before building the tree),
* sibling probabilities sum to 1 within ``PROB_TOL_LOCAL``,
* every node below the horizon has at least one child, so the leaf-path
  probabilities sum to 1,
* node ids are unique strings and node order within a level is the file
  order; downstream tie-breaking is lexicographic in this order.

Probabilities are 64-bit floats.  An optional exact-rational mode accepts
``fractions.Fraction`` transition weights and then validates the sum
conditions exactly instead of within tolerance; solvers always consume
the float values.

Solvers read a tree through read-only arrays built once at construction,
indexed by level t = 0..T-1 (depth t+1) and by node index within the
level:

* ``parents[t]``  (n_t,) intp: parent index at depth t; 0, the root, at
  depth 1,
* ``probs[t]``    (n_t,) float: conditional probability P(node | parent),
* ``states[t]``   (n_t, d_t) float: the node states x,
* ``ancestors``   (n_leaves, T) intp: the node index at every depth of
  every leaf path.

The nodes (:class:`TreeNode`) remain the form for I/O and validation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import TreeFormatError, ValidationError

#: tolerance for local probability sums (per-node kernels)
PROB_TOL_LOCAL = 1e-12

#: largest n for which numpy's ``hermegauss(n)`` weights can be normalised:
#: measured with numpy 2.4, they are all 0 at n = 371 and NaN from 372 on
GAUSS_HERMITE_MAX_N = 370


@dataclass(frozen=True)
class TreeNode:
    """One node of a scenario tree level."""

    node_id: str
    parent: int | None          # index into the previous level, None at t=1
    prob: float                 # conditional transition probability
    value: np.ndarray           # state vector x_t, shape (d_t,)
    prob_exact: Fraction | None = None

    def __eq__(self, other) -> bool:  # value-based equality, arrays included
        if not isinstance(other, TreeNode):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and self.parent == other.parent
            and self.prob == other.prob
            and np.array_equal(self.value, other.value)
        )

    __hash__ = None


@dataclass(frozen=True)
class NodePath:
    """A path omega_{1:t}: node ids from depth 1 to depth t."""

    ids: tuple[str, ...]

    def __post_init__(self):
        if not self.ids:
            raise ValidationError("empty node path")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported probability vector over generic atoms."""

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if len(self.support) != w.shape[0]:
            raise ValidationError("support/weights length mismatch")
        try:
            distinct = len(set(self.support))
        except TypeError:  # unhashable atoms such as arrays
            distinct = len({repr(a) for a in self.support})
        if distinct != len(self.support):
            raise ValidationError("support atoms must be distinct")
        if not np.all(np.isfinite(w)):
            raise ValidationError("non-finite weight in distribution")
        if np.any(w < 0):
            raise ValidationError("negative weight in distribution")
        if abs(float(w.sum()) - 1.0) > PROB_TOL_LOCAL:
            raise ValidationError(
                f"weights sum to {float(w.sum())!r}, expected 1 within {PROB_TOL_LOCAL}"
            )


class ScenarioTree:
    """Immutable finite filtered process.

    Construct through :meth:`from_levels` or :func:`load_tree`; direct
    construction skips no validation either.  Instances are safe to share
    across concurrent solver workers.
    """

    def __init__(self, levels: Sequence[Sequence[TreeNode]], exact: bool = False):
        self._levels: tuple[tuple[TreeNode, ...], ...] = tuple(
            tuple(level) for level in levels
        )
        self.exact = bool(exact)
        self._validate()
        self._index()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_levels(cls, levels, exact: bool = False) -> "ScenarioTree":
        """Build a tree from per-level node specs.

        Each node spec is a mapping with keys ``id``, ``parent`` (id of
        the parent node, ``None`` at t=1), ``p`` and ``x``.  ``p`` may be
        a ``Fraction`` (or a string such as ``"1/3"``) when ``exact``.
        """
        built: list[list[TreeNode]] = []
        prev_ids: dict[str, int] = {}
        for t, level in enumerate(levels, start=1):
            nodes: list[TreeNode] = []
            ids_here: dict[str, int] = {}
            for k, spec in enumerate(level):
                try:
                    node_id = spec["id"]
                    parent_id = spec.get("parent")
                    p_raw = spec["p"]
                    x_raw = spec["x"]
                except (TypeError, KeyError) as exc:
                    raise TreeFormatError(
                        f"level {t}, node #{k}: missing field {exc}"
                    ) from None
                if not isinstance(node_id, str) or not node_id:
                    raise TreeFormatError(f"level {t}, node #{k}: id must be a nonempty string")
                p_exact = None
                try:
                    if exact and isinstance(p_raw, (Fraction, str)):
                        p_exact = Fraction(p_raw)
                        p = float(p_exact)
                    else:
                        p = float(p_raw)
                    value = np.asarray(x_raw, dtype=float).reshape(-1)
                except (TypeError, ValueError, ZeroDivisionError) as exc:
                    raise TreeFormatError(
                        f"level {t}, node {node_id!r}: p and x must be numbers ({exc})"
                    ) from None
                if t == 1:
                    if parent_id is not None:
                        raise TreeFormatError(
                            f"level 1, node {node_id!r}: parent must be null at t=1"
                        )
                    parent = None
                else:
                    if not isinstance(parent_id, str) or parent_id not in prev_ids:
                        raise TreeFormatError(
                            f"level {t}, node {node_id!r}: unknown parent {parent_id!r}"
                        )
                    parent = prev_ids[parent_id]
                nodes.append(TreeNode(node_id, parent, p, value, p_exact))
                ids_here[node_id] = k
            built.append(nodes)
            prev_ids = ids_here
        return cls(built, exact=exact)

    # -- validation -----------------------------------------------------

    def _validate(self):
        if not self._levels or any(not lvl for lvl in self._levels):
            raise ValidationError("tree must have at least one node per level")
        seen: set[str] = set()
        for t, level in enumerate(self._levels, start=1):
            dim = level[0].value.shape[0]
            for node in level:
                if node.node_id in seen:
                    raise ValidationError(f"duplicate node id {node.node_id!r}")
                seen.add(node.node_id)
                if node.value.shape != (dim,):
                    raise ValidationError(
                        f"level {t}, node {node.node_id!r}: state dimension "
                        f"{node.value.shape[0]} != {dim}"
                    )
                if not np.all(np.isfinite(node.value)):
                    raise ValidationError(
                        f"level {t}, node {node.node_id!r}: non-finite state value"
                    )
                if not (node.prob > 0.0) or not math.isfinite(node.prob):
                    raise ValidationError(
                        f"level {t}, node {node.node_id!r}: transition probability "
                        f"{node.prob!r} must be strictly positive"
                    )
                if node.prob > 1.0 + PROB_TOL_LOCAL:
                    raise ValidationError(
                        f"level {t}, node {node.node_id!r}: transition probability "
                        f"{node.prob!r} exceeds 1"
                    )
                if t == 1 and node.parent is not None:
                    raise ValidationError(
                        f"level 1, node {node.node_id!r}: must not have a parent"
                    )
                if t > 1 and node.parent is None:
                    raise ValidationError(
                        f"level {t}, node {node.node_id!r}: orphan node (no parent)"
                    )
        # kernel sums: level-1 weights form P_1, sibling groups form kernels
        self._check_group_sum(1, None, [n for n in self._levels[0]])
        for t in range(1, len(self._levels)):
            groups: dict[int, list[TreeNode]] = {}
            for node in self._levels[t]:
                groups.setdefault(node.parent, []).append(node)
            for parent_idx, parent in enumerate(self._levels[t - 1]):
                children = groups.get(parent_idx)
                if not children:
                    raise ValidationError(
                        f"level {t}, node {parent.node_id!r}: no children below the horizon"
                    )
                self._check_group_sum(t + 1, parent.node_id, children)

    def _check_group_sum(self, t: int, parent_id: str | None, nodes: list[TreeNode]):
        where = f"root distribution" if parent_id is None else f"children of {parent_id!r}"
        if self.exact and all(n.prob_exact is not None for n in nodes):
            total = sum(n.prob_exact for n in nodes)
            if total != 1:
                raise ValidationError(f"level {t}: {where} sum {total} != 1 (exact mode)")
            return
        total = float(sum(n.prob for n in nodes))
        if abs(total - 1.0) > PROB_TOL_LOCAL:
            raise ValidationError(f"level {t}: {where} sum {total!r}, expected 1")

    # -- derived structure ------------------------------------------------

    def _index(self):
        self._children: list[list[list[int]]] = []
        for t in range(len(self._levels) - 1):
            ch: list[list[int]] = [[] for _ in self._levels[t]]
            for j, node in enumerate(self._levels[t + 1]):
                ch[node.parent].append(j)
            self._children.append(ch)
        self._by_id: dict[str, tuple[int, int]] = {}
        for t, level in enumerate(self._levels):
            for k, node in enumerate(level):
                self._by_id[node.node_id] = (t, k)
        # the per-depth arrays of the module docstring
        self.parents = tuple(_frozen(np.array([n.parent or 0 for n in level], dtype=np.intp))
                             for level in self._levels)
        self.probs = tuple(_frozen(np.array([n.prob for n in level])) for level in self._levels)
        self.states = tuple(_frozen(np.array([n.value for n in level])) for level in self._levels)
        # leaf paths bottom-up; path probabilities top-down
        anc = [np.arange(self.n_leaves)]
        for parents in self.parents[:0:-1]:
            anc.insert(0, parents[anc[0]])
        self.ancestors = _frozen(np.stack(anc, axis=1))
        law = self.probs[0]
        for parents, probs in zip(self.parents[1:], self.probs[1:]):
            law = probs * law[parents]
        self._leaf_law = law

    # -- basic accessors --------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self._levels)

    @property
    def levels(self) -> tuple[tuple[TreeNode, ...], ...]:
        return self._levels

    def level_size(self, t: int) -> int:
        """Number of nodes at depth t (1-based)."""
        return len(self._levels[t - 1])

    def node(self, t: int, idx: int) -> TreeNode:
        return self._levels[t - 1][idx]

    def children(self, t: int, idx: int) -> list[int]:
        """Child indices (at depth t+1) of node ``idx`` at depth t."""
        return self._children[t - 1][idx]

    def locate(self, node_id: str) -> tuple[int, int]:
        """Return (depth, index-within-level), depth 1-based."""
        try:
            t, k = self._by_id[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id!r}") from None
        return t + 1, k

    def path_indices(self, t: int, idx: int) -> tuple[int, ...]:
        """Ancestor indices from depth 1 up to depth t for a node."""
        out = [idx]
        for s in range(t - 1, 0, -1):
            idx = self._levels[s][idx].parent
            out.append(idx)
        return tuple(reversed(out))

    def path_of(self, t: int, idx: int) -> NodePath:
        return NodePath(
            tuple(self._levels[s][k].node_id
                  for s, k in enumerate(self.path_indices(t, idx)))
        )

    def resolve_path(self, path: NodePath) -> tuple[int, ...]:
        """Validate parent links along ``path`` and return level indices."""
        indices = []
        for depth, node_id in enumerate(path.ids, start=1):
            t, k = self.locate(node_id)
            if t != depth:
                raise ValidationError(
                    f"node {node_id!r} has depth {t}, expected {depth} in path"
                )
            if depth > 1 and self._levels[depth - 1][k].parent != indices[-1]:
                raise ValidationError(
                    f"node {node_id!r} is not a child of {path.ids[depth - 2]!r}"
                )
            indices.append(k)
        return tuple(indices)

    # -- leaves and laws ----------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self._levels[-1])

    def leaf_law(self) -> np.ndarray:
        """Leaf-path probabilities, in leaf order."""
        return self._leaf_law.copy()

    def leaf_states(self) -> tuple[np.ndarray, ...]:
        """Per depth t = 1..T, the state x_t of every leaf path, in leaf
        order: an array of shape (n_leaves, d_t)."""
        return tuple(states[self.ancestors[:, t]] for t, states in enumerate(self.states))

    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(n.node_id for n in self._levels[-1])

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioTree):
            return NotImplemented
        return self._levels == other._levels

    __hash__ = None


# -- module operations ---------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def load_tree(serialized: bytes | str, exact: bool = False) -> ScenarioTree:
    """Parse and validate the JSON tree format.

    Format: ``{"horizon": T, "levels": [[{"id", "parent", "p", "x"}, ...], ...]}``
    with levels ordered by time and nodes in file order.
    """
    if isinstance(serialized, bytes):
        serialized = serialized.decode("utf-8")
    try:
        doc = json.loads(serialized)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or "horizon" not in doc or "levels" not in doc:
        raise TreeFormatError('document must contain "horizon" and "levels"')
    levels = doc["levels"]
    if not isinstance(levels, list) or not all(isinstance(lvl, list) for lvl in levels):
        raise TreeFormatError('"levels" must be a list of levels, each a list of nodes')
    horizon = doc["horizon"]
    if not isinstance(horizon, int) or horizon < 1:
        raise TreeFormatError(f'"horizon" must be a positive integer, got {horizon!r}')
    if len(levels) != horizon:
        raise TreeFormatError(
            f'"horizon" is {horizon} but {len(levels)} levels were given'
        )
    return ScenarioTree.from_levels(levels, exact=exact)


def dump_tree(tree: ScenarioTree) -> str:
    """Serialize to the canonical JSON form.

    Canonical-form input round-trips bit-identically through
    ``dump_tree(load_tree(...))``.
    """
    doc = {
        "horizon": tree.horizon,
        "levels": [
            [
                {
                    "id": node.node_id,
                    "parent": None if node.parent is None
                    else tree.levels[t - 1][node.parent].node_id,
                    "p": node.prob,
                    "x": [float(v) for v in node.value],
                }
                for node in level
            ]
            for t, level in enumerate(tree.levels)
        ],
    }
    return json.dumps(doc, indent=2)


def conditional_kernel(tree: ScenarioTree, path: NodePath) -> DiscreteDistribution:
    """Return P_{t+1, omega_{1:t}}: the one-step kernel below a path."""
    indices = tree.resolve_path(path)
    t = len(indices)
    if t >= tree.horizon:
        raise ValidationError(
            f"path ends at depth {t} = horizon; no conditional kernel exists"
        )
    children = tree.children(t, indices[-1])
    return DiscreteDistribution(
        support=tuple(tree.node(t + 1, j).node_id for j in children),
        weights=tree.probs[t][children],
    )


def path_value(tree: ScenarioTree, leaf: NodePath) -> tuple[np.ndarray, ...]:
    """State vectors (x_1, ..., x_T) along a full-depth path."""
    indices = tree.resolve_path(leaf)
    if len(indices) != tree.horizon:
        raise ValidationError(
            f"path has depth {len(indices)}, expected horizon {tree.horizon}"
        )
    return tuple(tree.node(s + 1, k).value for s, k in enumerate(indices))


def quantize_gauss_hermite(n: int) -> DiscreteDistribution:
    """n-point Gauss-Hermite quantization of the standard normal.

    Weighted polynomial moments match N(0,1) exactly up to order 2n-1.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > GAUSS_HERMITE_MAX_N:
        raise ValidationError(
            f"Gauss-Hermite quantization supports n <= {GAUSS_HERMITE_MAX_N}, got {n}: "
            "its normalised weights are non-finite past it"
        )
    if n == 1:
        return DiscreteDistribution(support=(0.0,), weights=np.array([1.0]))
    z, w = hermegauss(n)
    w = w / w.sum()
    return DiscreteDistribution(support=tuple(float(v) for v in z), weights=w)


def chain_tree(values: Iterable[Sequence[float]], prefix: str = "n") -> ScenarioTree:
    """Deterministic single-path tree through the given per-time values."""
    levels = []
    for t, x in enumerate(values, start=1):
        levels.append(
            [{"id": f"{prefix}{t}", "parent": None if t == 1 else f"{prefix}{t-1}",
              "p": 1.0, "x": list(x)}]
        )
    return ScenarioTree.from_levels(levels)
