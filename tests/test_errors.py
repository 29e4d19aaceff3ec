import pytest

from pinnet.errors import (BoundaryCaseError, BoundUndefinedError, ContractViolationError,
                           InvalidSizeError, NumericalFailureError, RegionShapeError,
                           ScenarioDefinitionError, about)


def test_about_nests_outermost_first():
    with pytest.raises(ScenarioDefinitionError) as info:
        with about("cmp.json"), about("scenarios[1]"):
            raise ScenarioDefinitionError("unknown scenario 'fig99'")
    assert str(info.value) == "cmp.json: scenarios[1]: unknown scenario 'fig99'"


# Every PinnetError type the package raises (a DivergenceError is returned as a
# run's outcome, never raised), and OSError with a subclass of it.
@pytest.mark.parametrize("error", [
    InvalidSizeError, ContractViolationError, NumericalFailureError, BoundUndefinedError,
    BoundaryCaseError, RegionShapeError, ScenarioDefinitionError, OSError, FileNotFoundError,
])
def test_about_keeps_the_type_and_the_cause(error):
    original = error("bad input")
    with pytest.raises(error) as info:
        with about("doc.json"):
            raise original
    assert type(info.value) is error
    assert str(info.value) == "doc.json: bad input"
    assert info.value.__cause__ is original


@pytest.mark.parametrize("error", [KeyError, ValueError, ZeroDivisionError])
def test_about_passes_other_exceptions_through(error):
    original = error("untouched")
    with pytest.raises(error) as info:
        with about("doc.json"):
            raise original
    assert info.value is original
    assert info.value.args == ("untouched",)

