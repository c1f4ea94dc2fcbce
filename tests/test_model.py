"""System model validation and vulnerability profiles."""

import numpy as np
import pytest

from cascade_lab import (
    JointPmf,
    SystemModel,
    VulnerabilityProfile,
    constant_profile,
    validate_model,
)
from cascade_lab.model import ProfileCoverageError

from conftest import TABLE_P1, symmetric_children_model


class TestVulnerabilityProfile:
    def test_power_law_values(self):
        phi = VulnerabilityProfile(kind="power-law", scale=1.0, exponent=0.5)
        assert phi(1) == 1.0
        assert phi(4) == pytest.approx(0.5)

    def test_clamping(self):
        phi = VulnerabilityProfile(kind="power-law", scale=2.0, exponent=0.5)
        assert phi(1) == 1.0  # 2.0 clamps
        assert phi.raw(1) == 1.0  # validation never flags a power law
        assert phi(16) == pytest.approx(0.5)

    @pytest.mark.parametrize("scale, expected", [(0.5, 1.0), (0.0, 0.0), (-0.5, 0.0)])
    def test_overflowing_power_saturates(self, scale, expected):
        """20 ** 400 overflows a double; phi saturates through the clamp,
        and a zero scale stays zero."""
        phi = VulnerabilityProfile(kind="power-law", scale=scale, exponent=-400.0)
        assert [phi(d) for d in (1, 20, 10**12)] == [min(1.0, max(0.0, scale)), expected, expected]
        assert phi.raw(20) == expected

    def test_table_lookup_and_coverage(self):
        phi = VulnerabilityProfile(kind="table", table={1: 1.7, 2: 0.4})
        assert phi(2) == pytest.approx(0.4)
        assert (phi(1), phi.raw(1)) == (1.0, 1.7)
        for evaluate in (phi, phi.raw):
            with pytest.raises(ProfileCoverageError):
                evaluate(3)
            with pytest.raises(ValueError, match="nonnegative"):
                evaluate(-1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            VulnerabilityProfile(kind="sigmoid")


class TestValidateModel:
    def test_example1_children_mode_is_valid(self, model_p1):
        assert validate_model(model_p1).ok

    def test_mass_sum_violation(self):
        bad = JointPmf(np.array([[1, 0], [1, 1]]), np.array([0.5, 0.4]))
        model = SystemModel(
            degree_dists=(bad, bad),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(), constant_profile()),
        )
        report = validate_model(model)
        assert "mass-sum" in report.codes()

    def test_infection_range_violation(self):
        ok = JointPmf.from_dict({(1, 0): 0.5, (1, 1): 0.5})
        model = SystemModel(
            degree_dists=(ok, ok),
            infection=[[np.nan, 0.0], [1.0, np.nan]],
            vulnerability=(constant_profile(), constant_profile()),
        )
        report = validate_model(model)
        assert "infection-range" in report.codes()
        assert any(v.where == "infection[0][1]" for v in report.violations)

    def test_degree_floor_violation(self):
        model = symmetric_children_model(TABLE_P1)
        floored = SystemModel(
            degree_dists=model.degree_dists,
            infection=model.infection,
            vulnerability=model.vulnerability,
            internal_degree_floor=True,
        )
        report = validate_model(floored)
        assert "degree-floor" in report.codes()
        assert validate_model(model).ok

    def test_phi_range_violation_from_table(self):
        ok = JointPmf.from_dict({(1, 0): 0.5, (2, 1): 0.5})
        bad_phi = VulnerabilityProfile(kind="table", table={1: 0.5, 2: 1.7})
        model = SystemModel(
            degree_dists=(ok, JointPmf.from_dict({(0, 1): 1.0})),
            infection=[[np.nan, 0.5], [0.5, np.nan]],
            vulnerability=(bad_phi, constant_profile()),
        )
        report = validate_model(model)
        assert "phi-range" in report.codes()

    def test_phi_coverage_gap_is_reported(self):
        ok = JointPmf.from_dict({(1, 0): 0.5, (3, 1): 0.5})
        sparse_phi = VulnerabilityProfile(kind="table", table={1: 0.5})
        model = SystemModel(
            degree_dists=(ok, JointPmf.from_dict({(0, 1): 1.0})),
            infection=[[np.nan, 0.5], [0.5, np.nan]],
            vulnerability=(sparse_phi, constant_profile()),
        )
        report = validate_model(model)
        assert "phi-range" in report.codes()

    def test_report_collects_everything(self):
        bad = JointPmf(np.array([[0, 0], [1, 1]]), np.array([0.5, 0.4]))
        model = SystemModel(
            degree_dists=(bad, bad),
            infection=[[np.nan, 0.0], [2.0, np.nan]],
            vulnerability=(constant_profile(), constant_profile()),
            internal_degree_floor=True,
        )
        report = validate_model(model)
        assert {"mass-sum", "infection-range", "degree-floor"} <= report.codes()
        assert len([v for v in report.violations if v.code == "mass-sum"]) == 2


class TestSystemModelStructure:
    def test_requires_two_systems(self):
        pmf = JointPmf.from_dict({(1,): 1.0})
        with pytest.raises(ValueError):
            SystemModel(
                degree_dists=(pmf,),
                infection=[[np.nan]],
                vulnerability=(constant_profile(),),
            )

    def test_mode_reflects_floor_flag(self, model_p1, analog_model):
        assert model_p1.mode == "children"
        assert analog_model.mode == "degree"

    def test_infection_diagonal_is_masked(self, analog_model):
        assert np.isnan(analog_model.infection[0, 0])
        assert analog_model.infection[0, 1] == 1.0
