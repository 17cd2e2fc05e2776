"""Every budget refusal of the package: one message form,
``"{what}: {count} {unit} exceed budget {budget}"``, raised before any
cost is evaluated."""
from __future__ import annotations

import numpy as np
import pytest

from treeot import BudgetExceededError
from treeot import barycenters as bary
from treeot import costs as cm
from treeot import lp as lp_mod
from treeot.barycenters import (
    anticausal_barycenter,
    causal_barycenter,
    causal_ot,
    counterexample_demo,
)
from treeot.matching import MatchingInstance, solve_matching
from treeot.multicausal import brute_force_mcot, causal_lp_rows, mc_dpp, multimarginal_ot
from treeot.randomgen import random_tree

# three horizon-2 trees, two children below every node: 4 leaves each
A, B, C = (random_tree(np.random.default_rng(4400), horizon=2, dim=1, min_branch=2,
                       max_branch=2, prefix=p) for p in "abc")


def _mc_dpp_block(cost, monkeypatch):
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", 3)  # every block is 2 x 2
    mc_dpp([A, B], cost)


def _multimarginal_ot(cost, monkeypatch):
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", 3)
    multimarginal_ot([[0.5, 0.5]] * 2, np.zeros((2, 2)))


def _causal_lp_rows(cost, monkeypatch):
    # process 0's rows at depth 1: one kept child below each of A's depth-1
    # nodes, times the 8 leaf tuples below B's first depth-1 node
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", 7)
    causal_lp_rows([A, B], (0, 1))


def _solve_matching(cost, monkeypatch):
    solve_matching(MatchingInstance(principal=A, utility=cost, agents=[B], agent_costs=[cost],
                                    tasks=C), tuple_budget=31)


CASES = {
    "mc_dpp-tuples": (lambda cost, _: mc_dpp([A, B], cost, tuple_budget=15),
                      "mc_dpp: 16 leaf tuples exceed budget 15"),
    "mc_dpp-block": (_mc_dpp_block, "mc_dpp: 4 block cells exceed budget 3"),
    "brute_force_mcot": (lambda cost, _: brute_force_mcot([A, B, C], cost, tuple_budget=63),
                         "multicausal LP: 64 leaf tuples exceed budget 63"),
    "causal_ot": (lambda cost, _: causal_ot(A, B, cost, tuple_budget=15),
                  "causal transport LP: 16 leaf tuples exceed budget 15"),
    "causal_barycenter": (
        lambda cost, _: causal_barycenter([A, B], C, [cost] * 2, tuple_budget=31),
        "causal barycenter LP: 32 leaf tuples exceed budget 31"),
    "anticausal_barycenter": (
        lambda cost, _: anticausal_barycenter([A, B], [cost] * 2, C, tuple_budget=31),
        "anticausal barycenter LP: 32 leaf tuples exceed budget 31"),
    "solve_matching": (_solve_matching, "causal barycenter LP: 32 leaf tuples exceed budget 31"),
    "counterexample_demo": (lambda cost, _: counterexample_demo(4, tuple_budget=15),
                            "counterexample: 16 leaf pairs exceed budget 15"),
    "multimarginal_ot": (_multimarginal_ot, "multimarginal_ot: 4 block cells exceed budget 3"),
    "causal_lp_rows": (_causal_lp_rows, "causality rows: 8 entries exceed budget 7"),
}


@pytest.mark.parametrize("site", CASES)
def test_every_refusal_has_one_form_and_comes_before_any_cost(monkeypatch, site):
    refuse, message = CASES[site]
    calls = []

    def counted(trees):
        calls.append(None)
        return cm.lp_sum(2.0)(trees)

    real = bary.SeparableCost.__call__

    def counted_separable(self, trees):
        calls.append(None)
        return real(self, trees)

    monkeypatch.setattr(bary.SeparableCost, "__call__", counted_separable)
    with pytest.raises(BudgetExceededError) as info:
        refuse(counted, monkeypatch)
    assert str(info.value) == message
    assert calls == []
