"""Every library error carries its CLI exit code; validation errors are ValueErrors."""

from fractions import Fraction

import pytest

from roeclass import (
    INFINITE,
    BlockSpace,
    BlockTuple,
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
    build_back_and_forth,
    h_membership,
    interleave_towers,
    mvn_partial_isometry,
    r_components,
    sn_divides,
    transport_class,
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
    lambda: SupernaturalNumber({}, 2),
    lambda: BlockSpace(T2, True),
    lambda: BlockSpace(T2, -1),
    lambda: FiniteMetricSpace(True, ((0,),)),
    lambda: FiniteMetricSpace(0, ()),
    lambda: FiniteMetricSpace(2, ((0, 1),)),
    lambda: FiniteMetricSpace(2, ((0, 1), (2, 0))),
    lambda: K0Class(T2, (), ()),
    lambda: K0Class(T2, (True,), (1,)),
    lambda: FiniteK0(True, 1),
    lambda: FiniteK0(1, 0),
    # a bool position would be written to JSON as true
    lambda: PropagationOperator(BlockSpace(T2, 1), {(True, 0): 1}),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({},)),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({(1, 0): Fraction(1)}, {})),
    lambda: TowerBijection(T2, T2, 2, ((1, 1),), (0, 1)),
    lambda: TowerBijection(T2, T2, -1, (), (0,)),
], ids=["ratio", "bool_ratio", "prime", "default_exponent", "bool_depth", "negative_depth",
        "bool_size", "size", "shape", "metric", "period", "entry", "bool_rank", "unit_rank",
        "bool_position", "block_count", "block_entry", "levels_length", "bijection_depth"])
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
S1 = BlockSpace(T2, 1)
ONES = BlockTuple(S1, 0, ({(0, 0): Fraction(1)}, {(0, 0): Fraction(1)}))
IDENTITY = build_back_and_forth(T2, T2, 1)
COLLAPSE = TowerBijection(T2, T2, 1, ((1, 1),), (0, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: transport_class(IDENTITY, K0Class(Tower((), (3,)), (1,), (0,))),
     "class context does not match the map source"),
    (lambda: transport_class(COLLAPSE, K0Class(T2, (1, 1), (0,))),
     "map is not injective on the support"),
    (lambda: mvn_partial_isometry(ONES, BlockTuple(BlockSpace(T2, 2), 0, ({},) * 4)),
     "projections must share a space and level"),
    (lambda: mvn_partial_isometry(ONES, BlockTuple(S1, 1, ({(0, 0): Fraction(1)},))),
     "projections must share a space and level"),
], ids=["transport_context", "transport_injective", "mvn_space", "mvn_level"])
def test_mismatched_arguments_raise_precondition_violation(call, message):
    with pytest.raises(PreconditionViolation, match=message):
        call()


HUGE = 10**5000  # over the int/str digit limit: 16610 bits


@pytest.mark.parametrize("call, error, message", [
    (lambda: BlockSpace(T2, 2).distance(HUGE, 0), PreconditionViolation,
     "point <int of 16610 bits> outside 0..3"),
    (lambda: BlockSpace(T2, 20_000).distance(-HUGE, 0), PreconditionViolation,
     "point <-int of 16610 bits> outside 0..<int of 20000 bits>"),
    (lambda: BlockSpace(T2, 2).order(HUGE), PreconditionViolation,
     "level <int of 16610 bits> outside 0..2"),
    (lambda: PropagationOperator(S1, {(HUGE, 0): 1}), MalformedInput,
     "entry (<int of 16610 bits>, 0) outside the truncation"),
    (lambda: sn_divides(HUGE, 1, SupernaturalNumber({}, INFINITE)), PreconditionViolation,
     "<int of 16610 bits> is not prime"),
    (lambda: unit_divide(T2, 2, HUGE), PreconditionViolation,
     "[1]/2^<int of 16610 bits> needs a period of 2^<int of 16610 bits> entries, "
     "over the 2^20 limit"),
    (lambda: K0Class(T2, (Fraction(HUGE, 3),), (1,)), MalformedInput,
     "sequence entry must be an integer, got Fraction <Fraction over the int/str digit limit>"),
], ids=["point", "negative_point", "level", "entry", "sn_divides", "unit_divide", "fraction"])
def test_messages_never_convert_past_the_digit_limit(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("bad", [True, 1.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("call", [
    lambda v: T2.order(v),
    lambda v: T2.ratio(v),
    lambda v: UNIT.value(v),
    lambda v: BlockSpace(T2, 2).order(v),
    lambda v: h_membership(T2, UNIT, v),
    lambda v: alpha_iterate(T2, v, UNIT),
    lambda v: unit_divide(T2, 2, v),
    lambda v: interleave_towers(T2, T2, v),
    lambda v: sn_divides(2, v, SupernaturalNumber({}, INFINITE)),
    lambda v: SupernaturalNumber({2: v}),
    lambda v: r_components(LINE, v),
], ids=["order", "ratio", "value", "level", "h_membership", "alpha_iterate", "unit_divide",
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
