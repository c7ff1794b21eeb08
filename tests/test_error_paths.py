"""The value types reject malformed values and operands over another space."""

import numpy as np
import pytest

from stonework import center as ct
from stonework import hilbert_module as hm
from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework import spectrum as sp
from stonework.errors import DimensionMismatch, NotProjection, StoneworkError

S2, S3 = ct.StoneSpace(2), ct.StoneSpace(3)
NAN = float("nan")
AT3 = ct.CenterQuasipoint(S3, 0)


def vec(space):
    return hm.ModuleElement(space, np.ones((space.points, 2)))


def op(space):
    return ma.FiberedOperator(space, np.zeros((space.points, 2, 2)))


def nodes(k, m=1, n=2, fill=0.0):
    return np.full((k, m, n, n), fill, dtype=complex)


CASES = {
    "module-element-shape": (
        lambda: hm.ModuleElement(S2, np.ones((2, 2, 2))),
        DimensionMismatch, r"expected shape \(2, n\), got \(2, 2, 2\)",
    ),
    "module-element-finite": (
        lambda: hm.ModuleElement(S2, [[NAN, 0], [0, 0]]),
        ValueError, "module element values must be finite",
    ),
    "module-element-scalar-space": (
        lambda: vec(S2) * ct.unit(S3),
        DimensionMismatch, "scalar lives over a different space",
    ),
    "submodule-empty": (
        lambda: hm.Submodule(()),
        ValueError, "a submodule needs at least one generator",
    ),
    "operator-shape": (
        lambda: ma.FiberedOperator(S2, np.zeros((2, 2, 3))),
        DimensionMismatch, r"expected shape \(2, n, n\), got \(2, 2, 3\)",
    ),
    "operator-finite": (
        lambda: ma.FiberedOperator(S2, [[[NAN]], [[0]]]),
        ValueError, "operator entries must be finite",
    ),
    "operator-operand-space": (
        lambda: op(S2) + op(S3),
        DimensionMismatch, "operators have different shapes",
    ),
    "operator-scalar-space": (
        lambda: op(S2) * ct.unit(S3),
        DimensionMismatch, "center element lives over a different space",
    ),
    "operator-apply-space": (
        lambda: op(S2).apply(vec(S3)),
        DimensionMismatch, "operator and module element have different shapes",
    ),
    "diagonal-sum-spaces": (
        lambda: ma.diagonal_sum_projection([ct.unit(S2), ct.unit(S3)]),
        DimensionMismatch, "coefficients live over different spaces",
    ),
    "center-element-shape": (
        lambda: ct.CenterElement(S2, [1, 2, 3]),
        DimensionMismatch, r"expected shape \(2,\), got \(3,\)",
    ),
    "center-element-finite": (
        lambda: ct.CenterElement(S2, [NAN, 0]),
        ValueError, "center element values must be finite",
    ),
    "center-point-index": (
        lambda: ct.CenterQuasipoint(S2, 2),
        ValueError, "point index 2 outside space of 2",
    ),
    "center-operand-space": (
        lambda: ct.unit(S2) + ct.unit(S3),
        DimensionMismatch, "center elements live over different spaces",
    ),
    "gelfand-eval-space": (
        lambda: ct.gelfand_eval(ct.unit(S2), AT3),
        DimensionMismatch, "element and quasipoint live over different spaces",
    ),
    "center-membership-space": (
        lambda: ct.center_membership(ct.unit(S2), AT3),
        DimensionMismatch, "projection and quasipoint live over different spaces",
    ),
    "orbit-witness-shapes": (
        lambda: sp.orbit_witness(sp.quasipoint(S2, 0, [1, 0]), sp.quasipoint(S3, 0, [1, 0])),
        DimensionMismatch, "quasipoints have different shapes",
    ),
    "germ-eval-space": (
        lambda: sp.germ_eval(vec(S2), AT3),
        DimensionMismatch, "element and quasipoint live over different spaces",
    ),
    "germ-submodule-space": (
        lambda: sp.germ_submodule(hm.Submodule((vec(S2),)), AT3),
        DimensionMismatch, "submodule and quasipoint live over different spaces",
    ),
    "meet-closure-empty": (
        lambda: lt.meet_closure([]),
        ValueError, "need at least one generator",
    ),
    "lattice-nodes-shape": (
        lambda: lt.FiniteLattice(np.zeros((2, 1, 2, 3))),
        DimensionMismatch, r"expected nodes of shape \(k, m, n, n\), got \(2, 1, 2, 3\)",
    ),
    "lattice-nodes-finite": (
        lambda: lt.FiniteLattice(nodes(2, fill=NAN)),
        ValueError, "node entries must be finite",
    ),
    "lattice-no-fibers": (
        lambda: lt.FiniteLattice(nodes(2, m=0)),
        ValueError, "a Stone space needs at least one point",
    ),
    "lattice-no-nodes": (
        lambda: lt.FiniteLattice(nodes(0)),
        StoneworkError, "lattice is missing its zero or unit element",
    ),
    # zero, one and an idempotent that is not Hermitian: its order is a lattice
    "lattice-node-not-projection": (
        lambda: lt.FiniteLattice(np.array([0 * np.eye(2), np.eye(2), [[1, 1], [0, 0]]])[:, None]),
        NotProjection, r"lattice node is not a fiberwise projection at eps=1e-09",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_types_reject_bad_input(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("value", [
    ct.unit(S2), vec(S2), op(S2), sp.quasipoint(S2, 0, [1, 0]),
], ids=lambda v: type(v).__name__)
def test_value_types_are_immutable(value):
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        value.space = S3
