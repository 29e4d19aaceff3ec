import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TMP_FILE_SETTINGS, mutated
from pinnet.errors import ContractViolationError, InvalidSizeError, PinnetError
from pinnet.pinning import (
    PinningPlan,
    cost,
    plan_by_degree,
    plan_explicit,
    plan_to_dict,
    pins_from_dict,
    read_plan,
    write_plan,
)
from pinnet.topology import cluster_stars, star


class TestPlanByDegree:
    def test_star_center(self):
        plan = plan_by_degree(star(9), "largest", 1, 300.0, 10.0)
        assert plan.pinned_nodes == (0,)
        assert cost(plan) == 3000.0

    def test_star_leaves(self):
        plan = plan_by_degree(star(9), "smallest", 8, 1.5, 10.0)
        assert plan.pinned_nodes == tuple(range(1, 9))
        assert cost(plan) == 120.0

    def test_full_pinning(self):
        plan = plan_by_degree(star(5), "largest", 5, 2.0, 1.0)
        assert plan.pinned_count == 5

    def test_count_out_of_range(self):
        with pytest.raises(ContractViolationError):
            plan_by_degree(star(5), "largest", 6, 1.0, 1.0)
        with pytest.raises(ContractViolationError):
            plan_by_degree(star(5), "largest", 0, 1.0, 1.0)

    @pytest.mark.parametrize("epsilon,c,message", [
        (0.0, 1.0, "epsilon must be finite and positive, got 0.0"),
        (-1.5, 1.0, "epsilon must be finite and positive, got -1.5"),
        (1.0, 0.0, "coupling strength must be finite and positive, got 0.0"),
        (1.0, -2.0, "coupling strength must be finite and positive, got -2.0"),
        # NaN passes `<= 0`: it must be refused by name, not as a bad plan.
        (math.nan, 1.0, "epsilon must be finite and positive, got nan"),
        (1.0, math.inf, "coupling strength must be finite and positive, got inf"),
    ], ids=["0.0-1.0-epsilon must be positive", "-1.5-1.0-epsilon must be positive",
            "1.0-0.0-coupling strength must be positive",
            "1.0--2.0-coupling strength must be positive",
            "nan-1.0-epsilon must be finite", "1.0-inf-coupling strength must be finite"])
    def test_nonpositive_gain_or_coupling(self, epsilon, c, message):
        with pytest.raises(ContractViolationError, match=f"^{message}$"):
            plan_by_degree(star(5), "largest", 1, epsilon, c)

    def test_tie_break_by_index(self):
        g = cluster_stars((2, 3, 4))  # leaves 3..11 all degree 1
        plan = plan_by_degree(g, "smallest", 3, 1.0, 1.0)
        assert plan.pinned_nodes == (3, 4, 5)
        assert plan == plan_by_degree(g, "smallest", 3, 1.0, 1.0)

    def test_largest_smallest_disjoint(self):
        g = cluster_stars((2, 3, 4))
        big = set(plan_by_degree(g, "largest", 3, 1.0, 1.0).pinned_nodes)
        small = set(plan_by_degree(g, "smallest", 3, 1.0, 1.0).pinned_nodes)
        assert big == {0, 1, 2}
        assert not big & small


class TestPlanExplicit:
    def test_mixed_set_cost(self):
        plan = plan_explicit(20, {i: 22.0 for i in [0, 1, 2, 17, 19]}, 6.0)
        assert cost(plan) == 660.0

    def test_empty_is_uncontrolled(self):
        plan = plan_explicit(7, {}, 3.0)
        assert plan.pinned_count == 0
        assert cost(plan) == 0.0

    def test_single_center(self):
        assert cost(plan_explicit(9, {0: 500.0}, 7.0)) == 3500.0

    def test_invalid_index(self):
        with pytest.raises(ContractViolationError):
            plan_explicit(5, {5: 1.0}, 1.0)

    def test_nonpositive_gain(self):
        with pytest.raises(ContractViolationError):
            plan_explicit(5, {2: 0.0}, 1.0)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -1.0])
    def test_gain_refused_naming_its_node(self, gain):
        with pytest.raises(ContractViolationError,
                           match=rf"^gain of pinned node 2 must be finite and positive, got {gain!r}$"):
            plan_explicit(5, {2: gain}, 1.0)


class TestPlanContract:
    @pytest.mark.parametrize("gains,c", [
        ((float("nan"), 0.0), 1.0),
        ((float("inf"), 0.0), 1.0),
        ((-1.0, 0.0), 1.0),
        ((1.0, 0.0), float("nan")),
        ((1.0, 0.0), float("inf")),
        ((1.0, 0.0), -1.0),
    ])
    def test_rejects_non_finite_or_negative(self, gains, c):
        with pytest.raises(ContractViolationError, match="finite and nonnegative"):
            PinningPlan(2, gains, c)

    def test_builders_reject_non_finite(self):
        with pytest.raises(ContractViolationError):
            plan_explicit(3, {1: float("nan")}, 1.0)
        with pytest.raises(ContractViolationError):
            plan_by_degree(star(4), "largest", 1, float("inf"), 1.0)
        with pytest.raises(ContractViolationError):
            plan_by_degree(star(4), "largest", 1, 1.0, float("nan"))


class TestCost:
    def test_shipped_cost_values(self):
        assert cost(PinningPlan(9, (0.0,) + (1.5,) * 8, 10.0)) == 120.0
        assert cost(PinningPlan(12, (0.0,) * 3 + (2.5,) * 9, 10.0)) == 225.0

    def test_zero_plan(self):
        assert cost(PinningPlan(4, (0.0,) * 4, 5.0)) == 0.0

    @pytest.mark.parametrize("gains,c", [
        ((1e308, 1e308), 1.0),  # the sum overflows inside fsum
        ((1e308, 0.0), 10.0),  # the sum is finite, its product with c is not
        ((1e308, 1e308), 0.0),  # 0 * inf
    ])
    def test_overflowing_cost_refused(self, gains, c):
        with pytest.raises(ContractViolationError, match=r"cost c \* sum\(gains\) overflows"):
            cost(PinningPlan(2, gains, c))

    def test_permutation_invariance(self, rng):
        gains = tuple(float(g) for g in rng.uniform(0, 5, 12))
        plan = PinningPlan(12, gains, 3.0)
        perm = rng.permutation(12)
        permuted = PinningPlan(12, tuple(gains[i] for i in perm), 3.0)
        assert cost(plan) == cost(permuted)

    def test_linearity(self, rng):
        gains = tuple(float(g) for g in rng.uniform(0, 5, 8))
        c = 2.5
        base = cost(PinningPlan(8, gains, c))
        for k in (2.0, 0.5, 7.0):
            scaled_c = cost(PinningPlan(8, gains, k * c))
            scaled_g = cost(PinningPlan(8, tuple(k * g for g in gains), c))
            assert scaled_c == pytest.approx(k * base, rel=1e-12)
            assert scaled_g == pytest.approx(k * base, rel=1e-12)


class TestPlanValidation:
    def test_node_count_numpy_cannot_describe_refused_at_once(self, tmp_path):
        too_large = f"N {2**40} is too large: the dense coupling matrix cannot be allocated"
        with pytest.raises(InvalidSizeError, match=re.escape(too_large)):
            plan_explicit(2**40, {}, 1.0)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2**40, "c": 1.0, "pins": []}))
        with pytest.raises(InvalidSizeError, match=re.escape(f"{path}: {too_large}")):
            read_plan(path)

    def test_negative_gain_rejected(self):
        with pytest.raises(ContractViolationError):
            PinningPlan(3, (0.0, -1.0, 0.0), 1.0)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ContractViolationError):
            PinningPlan(3, (0.0,) * 3, -1.0)

    def test_zero_coupling_allowed_for_baseline(self):
        plan = PinningPlan(3, (0.0,) * 3, 0.0)
        assert cost(plan) == 0.0

    def test_gain_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            PinningPlan(3, (0.0,) * 4, 1.0)


@st.composite
def plans(draw):
    n = draw(st.integers(1, 12))
    gain = st.floats(min_value=1e-6, max_value=1e6)
    gains = draw(st.dictionaries(st.integers(0, n - 1), gain, max_size=n))
    return plan_explicit(n, gains, draw(st.floats(min_value=0.0, max_value=1e3)))


class TestPlanJson:
    @TMP_FILE_SETTINGS
    @given(plan=plans())
    def test_round_trip(self, tmp_path, plan):
        n, c, gains = pins_from_dict(plan_to_dict(plan))
        assert plan_explicit(n, gains, c) == plan
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        assert read_plan(path) == plan

    @TMP_FILE_SETTINGS
    @given(doc=mutated(plan_to_dict(plan_explicit(4, {0: 3.0, 2: 1.5}, 2.0))))
    def test_malformed_plan_raises_pinnet_error(self, tmp_path, doc):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        try:
            read_plan(path)
        except PinnetError as exc:
            assert str(path) in str(exc)

    def test_dict_shape(self):
        d = plan_to_dict(plan_explicit(3, {1: 2.0}, 4.0))
        assert d == {"n": 3, "c": 4.0, "pins": [{"node": 1, "gain": 2.0}]}
