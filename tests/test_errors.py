"""Every library error carries its CLI exit code; validation errors are ValueErrors."""

import pytest

from roeclass import (
    INFINITE,
    BlockSpace,
    DepthExhausted,
    FiniteK0,
    FiniteMetricSpace,
    K0Class,
    MalformedInput,
    NotBlockDiagonal,
    NotEquivalent,
    NotProjection,
    PreconditionViolation,
    PropagationOperator,
    RoeclassError,
    SupernaturalNumber,
    Tower,
    TowerBijection,
    UnsupportedEntries,
    alpha_iterate,
    h_membership,
    interleave_towers,
    r_components,
    sn_divides,
    unit_divide,
)


@pytest.mark.parametrize("cls, code", [
    (MalformedInput, 2),
    (DepthExhausted, 3),
    (PreconditionViolation, 4),
    (NotEquivalent, 4),
    (NotBlockDiagonal, 4),
    (NotProjection, 4),
    (UnsupportedEntries, 4),
])
def test_exit_codes(cls, code):
    assert issubclass(cls, RoeclassError)
    assert cls.exit_code == code


def test_validation_errors_are_value_errors():
    assert issubclass(MalformedInput, ValueError)
    assert issubclass(PreconditionViolation, ValueError)
    assert not issubclass(DepthExhausted, ValueError)


T2 = Tower((), (2,))


@pytest.mark.parametrize("make", [
    lambda: Tower((0,), ()),
    lambda: Tower((True,), ()),
    lambda: SupernaturalNumber({4: 1}),
    lambda: BlockSpace(T2, True),
    lambda: FiniteMetricSpace(True, ((0,),)),
    lambda: FiniteMetricSpace(2, ((0, 1), (2, 0))),
    lambda: K0Class(T2, (), ()),
    lambda: K0Class(T2, (True,), (1,)),
    lambda: FiniteK0(True, 1),
    # a bool position would be written to JSON as true
    lambda: PropagationOperator(BlockSpace(T2, 1), {(True, 0): 1}),
], ids=["ratio", "bool_ratio", "prime", "bool_depth", "bool_size", "metric", "period", "entry",
        "bool_rank", "bool_position"])
def test_constructors_raise_malformed_input(make):
    with pytest.raises(MalformedInput):
        make()


@pytest.mark.parametrize("call", [
    lambda: T2.ratio(-1),
    lambda: T2.order(-1),
    lambda: BlockSpace(T2, 2).order(3),
    lambda: BlockSpace(T2, 2).distance(0, 4),
    lambda: r_components(BlockSpace(T2, 1).to_metric_space(), -1),
    lambda: K0Class(T2, (), (1,)).value(-1),
], ids=["ratio", "order", "level", "point", "radius", "index"])
def test_out_of_range_arguments_raise_precondition_violation(call):
    with pytest.raises(PreconditionViolation):
        call()


def test_finite_context_checked_after_entries():
    with pytest.raises(MalformedInput):
        K0Class(Tower((6,), ()), (None,), (1,))
    with pytest.raises(PreconditionViolation):
        K0Class(Tower((6,), ()), (1,), (1,))


@pytest.mark.parametrize("depth, levels, mapping", [
    (1, ((1.9, 1),), (0, 1)),
    (1, (("1", 1),), (0, 1)),
    (1, ((1, True),), (0, 1)),
    (True, ((1, 1),), (0, 1)),
    (1.0, ((1, 1),), (0, 1)),
    (1, ((1, 1),), (False, True)),
    (1, ((1, 1),), (0, 1.0)),
    (1, ((1, 1, 1),), (0, 1)),
    (1, (1,), (0, 1)),
], ids=["float_level", "str_level", "bool_level", "bool_depth", "float_depth",
        "bool_images", "float_image", "triple_level", "bare_level"])
def test_bijection_fields_must_be_ints(depth, levels, mapping):
    with pytest.raises(MalformedInput):
        TowerBijection(T2, T2, depth, levels, mapping)


LINE = FiniteMetricSpace(2, ((0, 1), (1, 0)))
UNIT = K0Class(T2, (), (1,))


@pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
@pytest.mark.parametrize("call", [
    lambda v: T2.order(v),
    lambda v: T2.ratio(v),
    lambda v: BlockSpace(T2, 2).order(v),
    lambda v: h_membership(T2, UNIT, v),
    lambda v: alpha_iterate(T2, v, UNIT),
    lambda v: unit_divide(T2, 2, v),
    lambda v: interleave_towers(T2, T2, v),
    lambda v: sn_divides(2, v, SupernaturalNumber({}, INFINITE)),
    lambda v: SupernaturalNumber({2: v}),
    lambda v: r_components(LINE, v),
], ids=["order", "ratio", "level", "h_membership", "alpha_iterate", "unit_divide",
        "interleave_depth", "sn_divides", "exponent", "radius"])
def test_integer_arguments_refuse_bools_and_floats(call, bad):
    with pytest.raises(MalformedInput, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: T2.order(-1), "level must be >= 0"),
    (lambda: BlockSpace(T2, 2).order(-1), "level -1 outside 0..2"),
    (lambda: h_membership(T2, UNIT, -1), "level must be an integer >= 0"),
    (lambda: alpha_iterate(T2, -1, UNIT), "level must be an integer >= 0"),
    (lambda: unit_divide(T2, 2, -1), "exponent must be an integer >= 0"),
    (lambda: interleave_towers(T2, T2, -1), "depth must be an integer >= 0"),
    (lambda: sn_divides(2, 0, SupernaturalNumber({}, INFINITE)),
     "exponent m must be an integer >= 1"),
    (lambda: r_components(LINE, -1), "R must be >= 0"),
], ids=["order", "level", "h_membership", "alpha_iterate", "unit_divide", "interleave_depth",
        "sn_divides", "radius"])
def test_negative_integer_arguments_keep_precondition_message(call, message):
    with pytest.raises(PreconditionViolation, match=message):
        call()
