"""The finite abelian center: characteristic functions, points as maximal filters."""

import itertools

import numpy as np
import pytest

from stonework import center as ct
from stonework import hilbert_module as hm
from stonework import matrix_algebra as ma
from stonework.errors import NotProjection


def all_subset_projections(space):
    out = []
    for bits in itertools.product((0, 1), repeat=space.points):
        out.append(ct.CenterElement(space, np.array(bits, dtype=complex)))
    return out


def brute_force_maximal_filters(space):
    """Oracle: every filter of the finite subset algebra is the up-set of its
    minimum, and the maximal ones are the up-sets of the atoms. Enumerate all
    up-sets directly and keep those no other up-set strictly contains."""
    projections = all_subset_projections(space)
    nonzero = [p for p in projections if p.support_set()]
    upsets = []
    for p in nonzero:
        ups = frozenset(
            q.support_set() for q in nonzero if p.support_set() <= q.support_set()
        )
        upsets.append(ups)
    maximal = [
        u for u in upsets if not any(u < v for v in upsets)
    ]
    return set(maximal)


def test_char_fn_examples():
    space = ct.StoneSpace(3)
    assert np.array_equal(ct.char_fn(space, range(3)).values, np.ones(3))
    assert np.array_equal(ct.char_fn(space, []).values, np.zeros(3))
    assert np.array_equal(ct.char_fn(space, [0, 2]).values, np.array([1, 0, 1], dtype=complex))
    assert ct.char_fn(space, [0, 2]).is_projection()


def test_char_fn_rejects_bad_point():
    with pytest.raises(ValueError):
        ct.char_fn(ct.StoneSpace(2), [5])


def test_quasipoint_counts():
    assert len(ct.center_quasipoints(ct.StoneSpace(1))) == 1
    qs = ct.center_quasipoints(ct.StoneSpace(3))
    assert len(qs) == 3
    filters = [
        frozenset(
            p.support_set()
            for p in all_subset_projections(ct.StoneSpace(3))
            if p.support_set() and ct.center_membership(p, beta)
        )
        for beta in qs
    ]
    assert len(set(filters)) == 3


def test_quasipoints_match_brute_force_maximal_filters():
    for m in (1, 2, 3, 4):
        space = ct.StoneSpace(m)
        oracle = brute_force_maximal_filters(space)
        enumerated = set()
        for beta in ct.center_quasipoints(space):
            members = frozenset(
                p.support_set()
                for p in all_subset_projections(space)
                if p.support_set() and ct.center_membership(p, beta)
            )
            enumerated.add(members)
        assert enumerated == oracle


def test_membership_filter_properties_exhaustive():
    # the member set is meet-closed, upward closed, and maximal: any
    # non-member is annihilated by some member
    for m in (2, 3, 4):
        space = ct.StoneSpace(m)
        projections = all_subset_projections(space)
        for beta in ct.center_quasipoints(space):
            members = [p for p in projections if p.support_set() and ct.center_membership(p, beta)]
            member_sets = {p.support_set() for p in members}
            for p in members:
                for q in members:
                    assert p.support_set() & q.support_set() in member_sets
                for r in projections:
                    if p.support_set() <= r.support_set() and r.support_set():
                        assert r.support_set() in member_sets
            for q in projections:
                if not q.support_set() or q.support_set() in member_sets:
                    continue
                assert any(not (q.support_set() & p.support_set()) for p in members)


def test_filter_of_first_point_in_two_point_space():
    space = ct.StoneSpace(2)
    beta0 = ct.CenterQuasipoint(space, 0)
    assert ct.center_membership(ct.char_fn(space, [0]), beta0)
    assert not ct.center_membership(ct.char_fn(space, [1]), beta0)


def test_gelfand_eval_examples():
    space = ct.StoneSpace(2)
    assert ct.gelfand_eval(ct.unit(space), ct.CenterQuasipoint(space, 0)) == 1.0
    assert ct.gelfand_eval(ct.char_fn(space, [0]), ct.CenterQuasipoint(space, 1)) == 0.0
    alpha = ct.CenterElement(space, [3.0, 7.0])
    assert ct.gelfand_eval(alpha, ct.CenterQuasipoint(space, 1)) == 7.0


def test_center_element_on_the_left_acts_as_on_the_right(rng):
    # alpha * x leaves the product to x, so it is x * alpha bit for bit
    space = ct.StoneSpace(3)
    alpha = ct.CenterElement(space, rng.complex_normals(3))
    for x in (
        hm.ModuleElement(space, rng.complex_normals(3, 2)),
        ma.FiberedOperator(space, rng.complex_normals(3, 2, 2)),
    ):
        left, right = alpha * x, x * alpha
        assert type(left) is type(x)
        assert left.values.tobytes() == right.values.tobytes()


def test_membership_examples_and_errors():
    space = ct.StoneSpace(2)
    betas = ct.center_quasipoints(space)
    for beta in betas:
        assert ct.center_membership(ct.unit(space), beta)
        assert not ct.center_membership(ct.char_fn(space, []), beta)
    with pytest.raises(NotProjection):
        ct.center_membership(ct.CenterElement(space, [0.5, 1.0]), betas[0])

