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

A tree is read from its node specs straight into per-level fields,
indexed by level t = 0..T-1 (depth t+1) and by node index within the
level, and validated on them; the arrays are read-only:

* ``ids[t]``      tuple of str: the node ids, in file order,
* ``parents[t]``  (n_t,) intp: parent index at depth t; 0, the root, at
  depth 1,
* ``probs[t]``    (n_t,) float: conditional probability P(node | parent),
* ``states[t]``   (n_t, d_t) float: the node states x,
* ``ancestors``   (n_leaves, T) intp: the node index at every depth of
  every leaf path.

A law on a tree is a float array over its leaves, in leaf order, such as
:meth:`ScenarioTree.leaf_law`.
"""
from __future__ import annotations

import json
import math
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


class ScenarioTree:
    """Immutable finite filtered process.

    Construct through :meth:`from_levels` or :func:`load_tree`; both
    read per-level node specs into the arrays of the module docstring and
    validate them there.  Instances are safe to share across concurrent
    solver workers.
    """

    def __init__(self, levels, exact: bool = False):
        read = list(_read_levels(levels, exact))
        if not read or not all(ids for ids, *_ in read):
            raise ValidationError("tree must have at least one node per level")
        ids, parents, probs, states, fractions = zip(*read)
        self.ids, self.probs, self.states = ids, probs, states
        self._check_nodes()
        self.parents = tuple(_frozen(np.array(p, dtype=np.intp)) for p in parents)
        for a in self.probs + self.states:
            _frozen(a)
        self._check_sums(fractions)
        self._by_id = {node_id: (t, k) for t, level_ids in enumerate(self.ids)
                       for k, node_id in enumerate(level_ids)}
        # leaf paths bottom-up; path probabilities top-down
        anc = [np.arange(self.n_leaves)]
        for parents in self.parents[:0:-1]:
            anc.insert(0, parents[anc[0]])
        self.ancestors = _frozen(np.stack(anc, axis=1))
        law = self.probs[0]
        for parents, probs in zip(self.parents[1:], self.probs[1:]):
            law = probs * law[parents]
        self._leaf_law = law

    @classmethod
    def from_levels(cls, levels, exact: bool = False) -> "ScenarioTree":
        """Build a tree from per-level node specs.

        Each node spec is a mapping with keys ``id``, ``parent`` (id of
        the parent node, ``None`` at t=1), ``p`` and ``x``.  ``p`` may be
        a ``Fraction`` (or a string such as ``"1/3"``) when ``exact``.
        """
        return cls(levels, exact=exact)

    def _check_nodes(self):
        """Raise for the first node, in tree order, with a repeated id, a
        state of another dimension than its level's first, a non-finite
        state or a probability outside (0, 1 + ``PROB_TOL_LOCAL``]."""
        p = np.concatenate(self.probs)
        if (len(set().union(*self.ids)) == p.size
                and all(isinstance(x, np.ndarray) and np.isfinite(x).all() for x in self.states)
                and ((p > 0.0) & (p <= 1.0 + PROB_TOL_LOCAL)).all()):
            return
        seen: set[str] = set()
        for t, (names, p_t, x_t) in enumerate(zip(self.ids, self.probs, self.states), start=1):
            dim = len(x_t[0])
            for node_id, prob, value in zip(names, p_t.tolist(), x_t):
                where = f"level {t}, node {node_id!r}"
                if node_id in seen:
                    raise ValidationError(f"duplicate node id {node_id!r}")
                seen.add(node_id)
                if len(value) != dim:
                    raise ValidationError(f"{where}: state dimension {len(value)} != {dim}")
                if not np.all(np.isfinite(value)):
                    raise ValidationError(f"{where}: non-finite state value")
                if not (prob > 0.0) or not math.isfinite(prob):
                    raise ValidationError(
                        f"{where}: transition probability {prob!r} must be strictly positive")
                if prob > 1.0 + PROB_TOL_LOCAL:
                    raise ValidationError(f"{where}: transition probability {prob!r} exceeds 1")
        raise AssertionError("a node check failed on no node")

    def _check_sums(self, fractions: list):
        """Raise unless every node above the horizon has children and every
        sibling group, the roots included, sums to 1: added in level order
        in float arithmetic, or exactly where ``fractions[t]`` holds the
        whole group's probabilities."""
        for t, parents in enumerate(self.parents):
            totals = self.expect(t, np.ones(parents.size))
            bad = np.abs(totals - 1.0) > PROB_TOL_LOCAL  # a childless node's total is 0
            exact = {}
            if fractions[t] is not None:
                groups: dict[int, list] = {}
                for g, f in zip(parents.tolist(), fractions[t]):
                    groups.setdefault(g, []).append(f)
                exact = {g: sum(fs) for g, fs in groups.items() if None not in fs}
                for g, total in exact.items():
                    bad[g] = total != 1
            if not bad.any():
                continue
            g = int(np.argmax(bad))
            above = self.ids[t - 1][g] if t else None
            if g not in parents:
                raise ValidationError(f"level {t}, node {above!r}: no children below the horizon")
            where = f"children of {above!r}" if t else "root distribution"
            if g in exact:
                raise ValidationError(f"level {t + 1}: {where} sum {exact[g]} != 1 (exact mode)")
            raise ValidationError(f"level {t + 1}: {where} sum {float(totals[g])!r}, expected 1")

    # -- basic accessors --------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.ids)

    def level_size(self, t: int) -> int:
        """Number of nodes at depth t, 1 <= t <= T."""
        if not 1 <= t <= self.horizon:
            raise ValidationError(f"depth {t!r} outside 1..{self.horizon}")
        return len(self.ids[t - 1])

    def children(self, t: int, idx: int) -> np.ndarray:
        """Child indices (at depth t+1) of node ``idx`` at depth t, in level order."""
        return np.flatnonzero(self.parents[t] == idx)

    def expect(self, t: int, values: np.ndarray) -> np.ndarray:
        """E[values | depth t] along the last axis: for each node k at depth
        t (the root at t = 0), the sum of p_b * values[..., b] over its
        children b at depth t+1, added in level order.  One ``np.bincount``
        over (leading index, parent); memory is linear in ``values``."""
        values = np.asarray(values, dtype=float)
        parents, n = self.parents[t], len(self.ids[t - 1]) if t else 1
        lead = values.shape[:-1]
        keys = np.arange(math.prod(lead))[:, None] * n + parents
        return np.bincount(keys.ravel(), weights=(values * self.probs[t]).ravel(),
                           minlength=keys.shape[0] * n).reshape(lead + (n,))

    def locate(self, node_id: str) -> tuple[int, int]:
        """Return (depth, index-within-level), depth 1-based."""
        try:
            t, k = self._by_id[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id!r}") from None
        return t + 1, k

    # -- leaves and laws ----------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.ids[-1])

    def leaf_law(self) -> np.ndarray:
        """Leaf-path probabilities, in leaf order."""
        return self._leaf_law.copy()

    def leaf_states(self) -> tuple[np.ndarray, ...]:
        """Per depth t = 1..T, the state x_t of every leaf path, in leaf
        order: an array of shape (n_leaves, d_t)."""
        return tuple(states[self.ancestors[:, t]] for t, states in enumerate(self.states))

    def leaf_ids(self) -> tuple[str, ...]:
        return self.ids[-1]

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioTree):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(a, b) for a, b in zip(self.parents + self.probs + self.states,
                                                 other.parents + other.probs + other.states))

    __hash__ = None


def _read_levels(levels, exact: bool):
    """Per level t = 1..T, the node ids, parent indices (0 at t=1), float
    probabilities, states and exact probabilities (``None`` unless
    ``exact``).  The states are one (n, d) array, or one array per node
    when their lengths differ.  Raises :class:`TreeFormatError` for the
    first spec, in file order, that cannot be read."""
    above: dict = {}
    for t, level in enumerate(levels, start=1):
        level = list(level)
        try:
            ids = tuple([spec["id"] for spec in level])
            parent_ids = [spec.get("parent") for spec in level]
            p_raw = [spec["p"] for spec in level]
            x_raw = [spec["x"] for spec in level]
            fractions = None
            if exact:
                fractions = [Fraction(p) if isinstance(p, (Fraction, str)) else None
                             for p in p_raw]
                p_raw = [p if f is None else f for p, f in zip(p_raw, fractions)]
            probs = np.array([float(p) for p in p_raw])
            try:
                states = np.array(x_raw, dtype=float)
                states = states.reshape(len(level), states.size // len(level) if level else 0)
            except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
                states = [np.asarray(x, dtype=float).reshape(-1) for x in x_raw]
                if len({x.size for x in states}) == 1:
                    states = np.array(states)
            if t == 1:
                parents = [0 if p is None else None for p in parent_ids]
            else:
                parents = [above.get(p) for p in parent_ids]
            readable = None not in parents and all(isinstance(i, str) and i for i in ids)
        except (TypeError, KeyError, ValueError, ZeroDivisionError, OverflowError):
            readable = False
        if not readable:  # name the first spec that cannot be read
            for k, spec in enumerate(level):
                try:
                    node_id = spec["id"]
                    parent_id = spec.get("parent")
                    p_raw = spec["p"]
                    x_raw = spec["x"]
                except (TypeError, KeyError) as exc:
                    raise TreeFormatError(f"level {t}, node #{k}: missing field {exc}") from None
                if not isinstance(node_id, str) or not node_id:
                    raise TreeFormatError(f"level {t}, node #{k}: id must be a nonempty string")
                try:
                    exact_p = exact and isinstance(p_raw, (Fraction, str))
                    float(Fraction(p_raw) if exact_p else p_raw)
                    np.asarray(x_raw, dtype=float)
                except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                    raise TreeFormatError(
                        f"level {t}, node {node_id!r}: p and x must be numbers ({exc})"
                    ) from None
                if t == 1 and parent_id is not None:
                    raise TreeFormatError(
                        f"level 1, node {node_id!r}: parent must be null at t=1")
                if t > 1 and (not isinstance(parent_id, str) or parent_id not in above):
                    raise TreeFormatError(
                        f"level {t}, node {node_id!r}: unknown parent {parent_id!r}")
            raise AssertionError(f"level {t} failed to read but has no unreadable node")
        yield ids, parents, probs, states, fractions
        above = dict(zip(ids, range(len(ids))))


# -- module operations ---------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def join_ids(ids: Iterable[str], sep: str) -> str:
    """``ids`` joined by ``sep``, a character that each id, like ``\\``,
    escapes by ``\\``, so that distinct id sequences join apart."""
    return sep.join(i.replace("\\", "\\\\").replace(sep, "\\" + sep) for i in ids)


def load_tree(serialized: bytes | str) -> ScenarioTree:
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
    return ScenarioTree.from_levels(levels)


def tree_document(tree: ScenarioTree) -> dict:
    """The canonical JSON form as a dict, for callers that embed a tree
    in a larger document."""
    return {
        "horizon": tree.horizon,
        "levels": [
            [
                {"id": node_id, "parent": tree.ids[t - 1][parent] if t else None, "p": p, "x": x}
                for node_id, parent, p, x in zip(tree.ids[t], tree.parents[t].tolist(),
                                                 tree.probs[t].tolist(), tree.states[t].tolist())
            ]
            for t in range(tree.horizon)
        ],
    }


def dump_tree(tree: ScenarioTree) -> str:
    """Serialize to the canonical JSON form.

    Canonical-form input round-trips bit-identically through
    ``dump_tree(load_tree(...))``.
    """
    return json.dumps(tree_document(tree), indent=2)


def quantize_gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite quantization of the standard normal: the
    points in increasing order and their weights, which sum to 1.

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
        return np.zeros(1), np.ones(1)
    z, w = hermegauss(n)
    return z, w / w.sum()


def chain_tree(values: Iterable[Sequence[float]], prefix: str = "n") -> ScenarioTree:
    """Deterministic single-path tree through the given per-time values."""
    levels = []
    for t, x in enumerate(values, start=1):
        levels.append(
            [{"id": f"{prefix}{t}", "parent": None if t == 1 else f"{prefix}{t-1}",
              "p": 1.0, "x": list(x)}]
        )
    return ScenarioTree.from_levels(levels)
