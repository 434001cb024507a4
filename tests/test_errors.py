"""Every library error carries its CLI exit code; validation errors are
ValueErrors; every size limit answers at its bound and refuses one step past
it; and the limits and input checks live in errors.py alone."""

import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import roeclass.errors
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
    asdim_zero_profile,
    block_decompose,
    build_back_and_forth,
    components,
    h_membership,
    interleave_towers,
    k0_add,
    k0_class_of_projection,
    k0_equal,
    k0_positive,
    k0_sub,
    mvn_partial_isometry,
    r_components,
    sn_divides,
    transport_class,
    unit_divide,
    verify_bijective_coarse_equivalence,
)
from roeclass.cli import _read_source
from roeclass.errors import LIMITS
from roeclass.serialize import bijection_from_obj, bijection_to_obj
from roeclass.supernatural import factorint

from conftest import set_limit_bits


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
    # keys that are not (row, column) pairs of integers, values that are not scalars
    lambda: PropagationOperator(BlockSpace(T2, 1), {(1, 2, 3): 1}),
    lambda: PropagationOperator(BlockSpace(T2, 1), {5: 1}),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({(1, 2, 3): 1}, {})),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({5: 1}, {})),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({(0.5, 0): 1}, {})),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({(0, 0): "x"}, {})),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ([], {})),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, (b for b in ({}, {}))),
    lambda: PropagationOperator(BlockSpace(T2, 1), {frozenset({1, 0}): 1}),
    lambda: BlockTuple(BlockSpace(T2, 1), 0, ({frozenset({1, 0}): 1}, {})),
    # arguments that are not containers at all: a sequence or a dict is wanted
    lambda: Tower(5, ()),
    lambda: Tower((), None),
    lambda: K0Class(T2, 5, (1,)),
    lambda: SupernaturalNumber(5),
    lambda: TowerBijection(T2, T2, 1, 5, (0, 1)),
    lambda: TowerBijection(T2, T2, 1, ((1, 1),), 5),
    lambda: PropagationOperator(BlockSpace(T2, 1), 5),
    lambda: PropagationOperator(BlockSpace(T2, 1), [((0, 0), 1)]),
    lambda: FiniteMetricSpace(2, 5),
    lambda: FiniteMetricSpace(2, (5, 5)),
], ids=["ratio", "bool_ratio", "prime", "default_exponent", "bool_depth", "negative_depth",
        "bool_size", "size", "shape", "metric", "period", "entry", "bool_rank", "unit_rank",
        "bool_position", "block_count", "block_entry", "levels_length", "bijection_depth",
        "triple_key", "int_key", "block_triple_key", "block_int_key", "block_float_key",
        "block_str_value", "block_list", "block_generator", "set_key", "block_set_key",
        "int_prefix", "none_tail", "int_k0_prefix", "int_exponents", "int_levels", "int_points",
        "int_entries", "list_entries", "int_distances", "int_distance_rows"])
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


TWO_POINTS = Tower((2,), ())


def period(q):
    """A K0 class over T2 whose primitive period has q entries."""
    return K0Class(T2, (), (1,) + (0,) * (q - 1))


def line(*points):
    return FiniteMetricSpace(len(points), tuple(tuple(abs(x - y) for y in points)
                                                for x in points))


def read_stdin(text):
    """What the command line reads of ``text`` given on stdin."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        return _read_source("-", [])
    finally:
        sys.stdin = stdin


def map_obj(points, flat=None):
    """The file of the identity on 0..points-1 over tail 2, or one with that
    shape holding ``flat`` as its map."""
    n = points.bit_length() - 1
    obj = bijection_to_obj(TowerBijection(T2, T2, 1, ((n, n),), runs=((0,), (0,), (points,))))
    return obj if flat is None else {**obj, "map": flat}


# row -> (bits to patch in, calls at the bound with what they answer, calls
# one step past it with the class and the message of their refusal)
BOUNDARY = {
    # an input is read one character past the bound, and refused before parsing
    "input bytes": (5, [
        (lambda: read_stdin("x" * 32), "x" * 32),
        # a character is at least a byte: 32 two-byte characters are read
        (lambda: read_stdin("é" * 32), "é" * 32),
    ], [
        (lambda: read_stdin("x" * 33), PreconditionViolation,
         "stdin is over the 2^5-byte limit for an input"),
    ]),
    "map points": (3, [
        (lambda: build_back_and_forth(T2, T2, 3).domain_size, 8),
        (lambda: bijection_from_obj(map_obj(8)).domain_size, 8),
        (lambda: len(bijection_from_obj(map_obj(8)).mapping), 8),
    ], [
        (lambda: build_back_and_forth(T2, T2, 4), PreconditionViolation,
         "a map of 16 points is over the 2^3 limit"),
        # a map file is refused on the length of its list, before any pair is read
        (lambda: bijection_from_obj(map_obj(8, ["x"] * 18)), PreconditionViolation,
         "a map of 9 points is over the 2^3 limit"),
        # a map given by runs is refused only when its points are read
        (lambda: TowerBijection(T2, T2, 1, ((4, 4),), runs=((0,), (0,), (16,))).mapping,
         PreconditionViolation, "a map of 16 points is over the 2^3 limit"),
        # and so is writing the file of one, which never reads its points
        (lambda: bijection_to_obj(TowerBijection(T2, T2, 1, ((4, 4),), runs=((0,), (0,), (16,)))),
         PreconditionViolation, "a map of 16 points is over the 2^3 limit"),
        # bits + 1 interleave steps already pass the limit
        (lambda: build_back_and_forth(T2, T2, 10**18), PreconditionViolation,
         "a map of 16 or more points is over the 2^3 limit"),
    ]),
    # the verifier reads the modulus first, so one check guards both
    "verify report rows": (3, [
        (lambda: len(TowerBijection(TWO_POINTS, TWO_POINTS, 1, ((7, 1),), (0, 1)).modulus), 8),
        (lambda: len(verify_bijective_coarse_equivalence(
            TowerBijection(TWO_POINTS, TWO_POINTS, 1, ((7, 1),), (0, 1))).levels), 8),
    ], [
        (lambda: TowerBijection(TWO_POINTS, TWO_POINTS, 1, ((8, 1),), (0, 1)).modulus,
         PreconditionViolation, "source level 8 would make a report of over 2^3 rows"),
        (lambda: verify_bijective_coarse_equivalence(
            TowerBijection(TWO_POINTS, TWO_POINTS, 1, ((8, 1),), (0, 1))),
         PreconditionViolation, "source level 8 would make a report of over 2^3 rows"),
    ]),
    # the witness of prefix [-m] over period [1] opens blocks of k_n > 3m
    # entries; a transported class runs to the image of its last entry; a
    # sum's period is the lcm of 2*3 and 2*2 entries, not their product;
    # the zero class takes no layout, and equality forms no sum
    "K0 layout": (3, [
        (lambda: len(k0_positive(K0Class(T2, (-2,), (1,)))[1].period), 8),
        (lambda: len(transport_class(TowerBijection(T2, T2, 1, ((1, 3),), (0, 7)),
                                     K0Class(T2, (0, 1), (0,))).prefix), 8),
        (lambda: len(k0_add(period(8), period(4)).period), 8),
        (lambda: k0_class_of_projection(
            block_decompose(PropagationOperator.zero(BlockSpace(T2, 4)), 4)).is_zero(), True),
        (lambda: k0_equal(period(6), period(4)), False),
    ], [
        (lambda: k0_positive(K0Class(T2, (-3,), (1,))), PreconditionViolation,
         "a K0 layout of 16 entries is over the 2^3 limit"),
        (lambda: transport_class(TowerBijection(T2, T2, 1, ((1, 4),), (0, 8)),
                                 K0Class(T2, (0, 1), (0,))), PreconditionViolation,
         "a K0 layout of 9 entries is over the 2^3 limit"),
        (lambda: k0_add(period(6), period(4)), PreconditionViolation,
         "a K0 layout of 12 entries is over the 2^3 limit"),
        (lambda: k0_sub(period(6), period(4)), PreconditionViolation,
         "a K0 layout of 12 entries is over the 2^3 limit"),
    ]),
    "unit-division period": (3, [
        (lambda: len(unit_divide(T2, 2, 3).period), 8),
    ], [
        (lambda: unit_divide(T2, 2, 4), PreconditionViolation,
         "[1]/2^4 needs a period of 2^4 entries, over the 2^3 limit"),
        # an exponent over the bits is refused before p^r is formed
        (lambda: unit_divide(T2, 2, 10**6), PreconditionViolation,
         "[1]/2^1000000 needs a period of 2^1000000 entries, over the 2^3 limit"),
    ]),
    "blocks of a split": (3, [
        (lambda: len(components(BlockSpace(T2, 3), 0)), 8),
        (lambda: len(block_decompose(PropagationOperator.zero(BlockSpace(T2, 3)), 0).blocks), 8),
    ], [
        (lambda: components(BlockSpace(T2, 4), 0), PreconditionViolation,
         "level 0 would split the space into over 2^3 blocks"),
        (lambda: block_decompose(PropagationOperator.zero(BlockSpace(T2, 4)), 0),
         PreconditionViolation, "level 0 would split the space into over 2^3 blocks"),
    ]),
    # judged from the ratios: each r among the first n adds r.bit_length() - 1
    # bits, 1 for a ratio of 2 or 3 (3^8 has 13 bits) and 4 for one of 17
    "block order": (3, [
        (lambda: BlockSpace(T2, 9).order(8), 256),
        (lambda: len(components(BlockSpace(T2, 8), 8)), 1),
        (lambda: len(block_decompose(PropagationOperator.zero(BlockSpace(T2, 9)), 8).blocks), 2),
        (lambda: BlockTuple(BlockSpace(Tower((), (3,)), 8), 8, ({},)).block_size, 3**8),
        (lambda: len(components(BlockSpace(Tower((17, 17, 2), ()), 3), 2)), 2),
    ], [
        (lambda: BlockSpace(T2, 9).order(9), PreconditionViolation,
         "level 9 would make a block order of over 2^3 bits"),
        (lambda: components(BlockSpace(T2, 9), 9), PreconditionViolation,
         "level 9 would make a block order of over 2^3 bits"),
        (lambda: block_decompose(PropagationOperator.zero(BlockSpace(T2, 9)), 9),
         PreconditionViolation, "level 9 would make a block order of over 2^3 bits"),
        (lambda: BlockTuple(BlockSpace(Tower((), (3,)), 9), 9, ({},)), PreconditionViolation,
         "level 9 would make a block order of over 2^3 bits"),
        (lambda: components(BlockSpace(Tower((17, 17, 2), ()), 3), 3), PreconditionViolation,
         "level 3 would make a block order of over 2^3 bits"),
        # a level a billion deep is refused before its order is formed
        (lambda: components(BlockSpace(T2, 10**9), 10**9 - 1), PreconditionViolation,
         "level 999999999 would make a block order of over 2^3 bits"),
    ]),
    "metric matrix": (4, [
        (lambda: len(BlockSpace(T2, 2).metric_matrix()), 4),
        (lambda: BlockSpace(T2, 2).to_metric_space().size, 4),
    ], [
        (lambda: BlockSpace(Tower((5,), ()), 1).metric_matrix(), PreconditionViolation,
         "a metric matrix would have over 2^4 entries"),
        (lambda: BlockSpace(T2, 3).to_metric_space(), PreconditionViolation,
         "a metric matrix would have over 2^4 entries"),
    ]),
    "asdim profile": (3, [
        (lambda: len(asdim_zero_profile(line(0, 7))), 8),
    ], [
        (lambda: asdim_zero_profile(line(0, 8)), PreconditionViolation,
         "an asdim profile of 9 entries is over the 2^3 limit"),
    ]),
    # 1021 and 1031 are primes of 10 and 11 bits, with no factor below 1000
    "prime size": (10, [
        (lambda: sn_divides(1021, 1, SupernaturalNumber({1021: 1})), True),
        (lambda: unit_divide(T2, 1021, 1), None),
    ], [
        (lambda: sn_divides(1031, 1, SupernaturalNumber({}, INFINITE)), PreconditionViolation,
         "1031 is over the 10-bit limit for a prime"),
        (lambda: unit_divide(T2, 1031, 1), PreconditionViolation,
         "1031 is over the 10-bit limit for a prime"),
        (lambda: SupernaturalNumber({1031: 1}), MalformedInput,
         "exponent key 1031 is over the 10-bit limit for a prime"),
        # what trial division leaves of a ratio, before any primality test
        (lambda: factorint(3 * 1000003), MalformedInput,
         "exponent key 1000003 is over the 10-bit limit for a prime"),
    ]),
}


class TestLimits:
    def test_every_row_has_a_boundary_case(self):
        assert list(BOUNDARY) == list(LIMITS)
        # a sum's period is a K0 layout: no command forms a sum any more
        assert "K0 sum period" not in LIMITS

    @pytest.mark.parametrize("row", list(LIMITS))
    def test_boundary(self, monkeypatch, row):
        bits, answers, refusals = BOUNDARY[row]
        set_limit_bits(monkeypatch, row, bits)
        for call, want in answers:
            assert call() == want
        for call, error, message in refusals:
            with pytest.raises(error) as caught:
                call()
            assert (type(caught.value), str(caught.value)) == (error, message)


def test_map_file_points_bounded_at_two_to_the_twenty():
    # one shared string object keeps a list of 2^21 entries cheap: at the
    # bound its pairs are read (and the repeated source refused), one point
    # past it the list is refused before any pair is read
    with pytest.raises(MalformedInput, match="^source point 0 assigned twice$"):
        bijection_from_obj(map_obj(2, ["0"] * (2 << 20)))
    with pytest.raises(PreconditionViolation) as caught:
        bijection_from_obj(map_obj(2, ["0"] * ((2 << 20) + 2)))
    assert str(caught.value) == "a map of 1048577 points is over the 2^20 limit"


# the package under test, whichever tree it was imported from
SRC = Path(roeclass.errors.__file__).parent
# what only errors.py may write: the limits' names, a refusal over a power
# of two or a bit count, and an import of an input check from supernatural
OUT_OF_HOME = re.compile(r"LIMIT_BITS|PRIME_BITS|2\^\{|-bit limit"
                         r"|from \.supernatural import (\([^)]*|[^\n]*)\b_(clip|checked_ints?)\b")


def test_limits_and_input_checks_live_in_errors():
    assert {"LIMIT_BITS", "_clip", "_checked_int", "_checked_ints"} <= set(
        re.findall(r"^(?:def )?(\w+)", (SRC / "errors.py").read_text(), re.M))
    found = {path.name: hits for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             if (hits := [m.group() for m in OUT_OF_HOME.finditer(path.read_text())])}
    assert found == {}
