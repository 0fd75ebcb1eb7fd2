"""Mesh, profile, and problem container invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finopt import DomainError, FinProblem
from finopt.mesh import Mesh, TemperatureField, ThicknessProfile


class TestMesh:
    def test_geometry(self):
        mesh = Mesh(8, 2.0)
        assert mesh.dx == 0.25
        assert mesh.n_nodes == 9
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 2.0
        assert np.allclose(np.diff(mesh.nodes), mesh.dx)
        # faces sit halfway between adjacent nodes
        assert np.array_equal(mesh.faces, 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:]))

    def test_node_weights_partition_the_length(self):
        mesh = Mesh(13, 0.7)
        w = mesh.node_weights
        assert w[0] == w[-1] == 0.5 * mesh.dx
        assert np.all(w[1:-1] == mesh.dx)
        assert np.isclose(np.sum(w), mesh.length, rtol=1e-14)

    def test_arrays_are_read_only(self):
        mesh = Mesh(5, 1.0)
        for arr in (mesh.nodes, mesh.faces, mesh.node_weights):
            with pytest.raises(ValueError):
                arr[0] = 99.0

    @pytest.mark.parametrize("n_cells", [0, 3, -2, 2.5])
    def test_rejects_too_coarse(self, n_cells):
        with pytest.raises(DomainError):
            Mesh(n_cells, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_length(self, length):
        with pytest.raises(DomainError):
            Mesh(10, length)


class TestThicknessProfile:
    def test_area_is_midpoint_rule(self):
        mesh = Mesh(4, 1.0)
        profile = ThicknessProfile(mesh, [1.0, 2.0, 3.0, 4.0])
        assert profile.area == pytest.approx(10.0 * 0.25, rel=1e-15)

    @given(value=st.floats(1e-6, 1e3), n=st.integers(4, 300))
    @settings(max_examples=50, deadline=None)
    def test_constant_profile_area(self, value, n):
        mesh = Mesh(n, 2.0)
        profile = ThicknessProfile.constant(mesh, value)
        assert profile.area == pytest.approx(value * mesh.length, rel=1e-12)

    def test_from_callable_applies_floor(self):
        mesh = Mesh(10, 1.0)
        profile = ThicknessProfile.from_callable(mesh, lambda x: x - 0.5, floor=0.01)
        assert np.min(profile.values) == 0.01
        assert profile.values[-1] == pytest.approx(0.95 - 0.5)

    def test_with_values_keeps_mesh(self):
        mesh = Mesh(6, 1.0)
        profile = ThicknessProfile.constant(mesh, 1.0)
        other = profile.with_values(np.full(6, 2.0))
        assert other.mesh is mesh
        assert np.all(other.values == 2.0)

    def test_rejects_negative_wrong_length_nonfinite(self):
        mesh = Mesh(4, 1.0)
        with pytest.raises(DomainError):
            ThicknessProfile(mesh, [1.0, -1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            ThicknessProfile(mesh, [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            ThicknessProfile(mesh, [1.0, np.nan, 1.0, 1.0])

    def test_values_read_only(self):
        profile = ThicknessProfile.constant(Mesh(4, 1.0), 1.0)
        with pytest.raises(ValueError):
            profile.values[0] = 5.0

    def test_writeable_input_is_copied(self):
        values = np.ones(4)
        profile = ThicknessProfile(Mesh(4, 1.0), values)
        values[0] = 5.0
        assert profile.values[0] == 1.0
        assert values.flags.writeable

    def test_read_only_owner_is_kept_and_views_are_copied(self):
        values = np.ones(8)
        values.flags.writeable = False
        assert ThicknessProfile(Mesh(8, 1.0), values).values is values
        # A read-only view may still change through its writeable base.
        base = np.ones(8)
        view = base[:4]
        view.flags.writeable = False
        profile = ThicknessProfile(Mesh(4, 1.0), view)
        base[0] = 5.0
        assert profile.values[0] == 1.0

    def test_read_only_owner_is_still_checked(self):
        values = np.array([1.0, -1.0, 1.0, 1.0])
        values.flags.writeable = False
        with pytest.raises(DomainError):
            ThicknessProfile(Mesh(4, 1.0), values)


class TestTemperatureField:
    def test_end_values(self):
        mesh = Mesh(4, 1.0)
        field = TemperatureField(mesh, [5.0, 4.0, 3.0, 2.0, 1.0])
        assert field.root_value == 5.0
        assert field.tip_value == 1.0

    def test_length_must_match_nodes(self):
        with pytest.raises(DomainError):
            TemperatureField(Mesh(4, 1.0), [1.0, 2.0, 3.0, 4.0])


class TestFinProblem:
    def test_valid_roundtrip(self):
        p = FinProblem(k=200, h=20.0, area=1.6e-4, q0=20)
        assert dataclasses.astuple(p) == (200.0, 20.0, 1.6e-4, 20.0)
        assert all(type(value) is float for value in dataclasses.astuple(p))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0.0},
            {"k": -1.0},
            {"h": 0.0},
            {"area": -1e-4},
            {"q0": -5.0},
            {"area": 0.0},
            {"k": float("nan")},
            {"h": float("inf")},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = {"k": 200.0, "h": 20.0, "area": 1.6e-4, "q0": 20.0}
        base.update(kwargs)
        with pytest.raises(DomainError):
            FinProblem(**base)

    def test_zero_q0_allowed(self):
        FinProblem(k=1.0, h=1.0, area=1.0, q0=0.0)
