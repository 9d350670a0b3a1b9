"""Work done by the order and Jordan computations, counted in matrix products.

Counts are deterministic, so these guards do not depend on timing: the torus
order multiset walks each cyclic subgroup once (not every element to the
identity), and a repeated Jordan decomposition is served from the group's memo.
"""

import pytest

from dlperiods import matrixops
from dlperiods.dlchar import _element_order_multiset
from dlperiods.groups import Group, GroupSpec
from dlperiods.tori import TorusClass, instantiate


@pytest.fixture
def mat_mul_calls(monkeypatch):
    """A one-element list holding the number of matrixops.mat_mul calls so far."""
    calls = [0]
    original = matrixops.mat_mul

    def counting(ops, A, B):
        calls[0] += 1
        return original(ops, A, B)

    monkeypatch.setattr(matrixops, "mat_mul", counting)
    return calls


def test_order_multiset_walks_each_cyclic_subgroup_once(mat_mul_calls):
    t = instantiate(TorusClass("GL", 4, (4,)), GroupSpec("GL", 4, 3))  # the Coxeter torus, cyclic
    els = t.level(1).elements
    assert len(els) == 80
    mat_mul_calls[0] = 0
    _element_order_multiset(els, t.group.ops, cap=len(els) + 1)
    assert 0 < mat_mul_calls[0] <= 80


def test_repeated_jordan_makes_no_products(mat_mul_calls):
    G = Group(GroupSpec("GL", 4, 3))
    g = ((2, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1), (0, 0, 2, 0))  # neither semisimple nor unipotent
    s, u = G.jordan(g)
    assert s != G.identity and u != G.identity
    assert mat_mul_calls[0] > 0
    mat_mul_calls[0] = 0
    assert G.jordan(g) == (s, u)
    assert mat_mul_calls[0] == 0
