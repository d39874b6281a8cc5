import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqarea
from seqarea.closedforms import mgon_area, polygonal_mgon_area, twice_signed_area
from seqarea.numerics import QuadElem
from seqarea.sequences import (
    BinetParams,
    FamilyKind,
    RecurrenceSpec,
    SequenceFamily,
    UnsupportedFamilyError,
    binet_eval,
    binet_params,
    family_term,
    polygonal_number,
    preset,
    term,
    terms,
)

BINET_FAMILIES = [
    SequenceFamily.fibonacci(),
    SequenceFamily.lucas(),
    SequenceFamily.pell(),
    SequenceFamily.pell_lucas(),
    SequenceFamily.generalized(2, 3),
    SequenceFamily.generalized(-1, 4),
]


class TestPresets:
    def test_fibonacci_prefix(self):
        spec = preset(SequenceFamily.fibonacci())
        assert [term(spec, n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_lucas_prefix(self):
        spec = preset(SequenceFamily.lucas())
        assert [term(spec, n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]

    def test_pell_prefix(self):
        spec = preset(SequenceFamily.pell())
        assert [term(spec, n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]

    def test_pell_lucas_prefix(self):
        spec = preset(SequenceFamily.pell_lucas())
        assert [term(spec, n) for n in range(7)] == [2, 2, 6, 14, 34, 82, 198]

    def test_jacobsthal_prefixes(self):
        j = preset(SequenceFamily.jacobsthal())
        jl = preset(SequenceFamily.jacobsthal_lucas())
        assert [term(j, n) for n in range(9)] == [0, 1, 1, 3, 5, 11, 21, 43, 85]
        assert [term(jl, n) for n in range(8)] == [2, 1, 5, 7, 17, 31, 65, 127]

    def test_perrin_prefix(self):
        spec = preset(SequenceFamily.perrin())
        assert [term(spec, n) for n in range(10)] == [3, 0, 2, 3, 2, 5, 5, 7, 10, 12]

    def test_tribonacci_prefix(self):
        spec = preset(SequenceFamily.tribonacci())
        assert [term(spec, n) for n in range(8)] == [0, 1, 1, 2, 4, 7, 13, 24]

    def test_padovan_default_and_override(self):
        assert [term(preset(SequenceFamily.padovan()), n) for n in range(9)] == [
            1, 1, 1, 2, 2, 3, 4, 5, 7,
        ]
        alt = SequenceFamily.padovan((1, 0, 0))
        assert [term(preset(alt), n) for n in range(9)] == [1, 0, 0, 1, 0, 1, 1, 1, 2]

    def test_generalized_starts_at_t_minus_s(self):
        spec = preset(SequenceFamily.generalized(2, 3))
        assert [term(spec, n) for n in range(6)] == [1, 2, 3, 5, 8, 13]

    @pytest.mark.parametrize("rank", [3, 7, 10**30])
    def test_polygonal_is_the_recurrence_of_x_minus_1_cubed(self, rank):
        spec = preset(SequenceFamily.polygonal(rank))
        assert spec == RecurrenceSpec((3, -3, 1), (0, 1, rank))
        # The engine against the figurate formula: across the small-index
        # table's edge and past the jump to a deep start.
        for start in (398, 99_998):
            assert terms(spec, start, 5) == [
                polygonal_number(rank, n) for n in range(start, start + 5)
            ]

    def test_custom_roundtrip(self):
        spec = RecurrenceSpec((3, -1), (1, 4), "demo")
        assert preset(SequenceFamily.custom(spec)) is spec

    @pytest.mark.parametrize(
        "family", [SequenceFamily.generalized(2, 3), SequenceFamily.padovan((1, 0, 0))],
        ids=lambda f: f.label,
    )
    def test_recurrence_built_once(self, family):
        assert preset(family) is preset(family)

    def test_family_value_ignores_its_recurrence(self):
        family = SequenceFamily.generalized(2, 3)
        copy = pickle.loads(pickle.dumps(family))
        assert copy == family and hash(copy) == hash(family)
        assert preset(copy) == preset(family)
        assert repr(family) == (
            "SequenceFamily(kind=<FamilyKind.GENERALIZED_FIBONACCI: 'generalized'>, "
            "s=2, t=3, rank=None, initial=None, spec=None)"
        )
        moved = SequenceFamily(family.kind, s=family.s, t=5)
        assert moved == SequenceFamily.generalized(2, 5)
        assert preset(moved).initial_terms == (3, 2)


class TestTerm:
    def test_known_values(self):
        assert term(preset(SequenceFamily.fibonacci()), 10) == 55
        assert term(preset(SequenceFamily.jacobsthal()), 5) == 11
        assert term(preset(SequenceFamily.pell()), 6) == 70

    def test_jacobsthal_matches_power_form(self):
        spec = preset(SequenceFamily.jacobsthal())
        for n in range(30):
            assert term(spec, n) == (2**n - (-1) ** n) // 3

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            term(preset(SequenceFamily.fibonacci()), -1)


class TestPolygonalNumber:
    def test_triangular(self):
        assert polygonal_number(3, 4) == 10
        assert [polygonal_number(3, n) for n in range(6)] == [0, 1, 3, 6, 10, 15]

    def test_square(self):
        assert polygonal_number(4, 5) == 25
        assert all(polygonal_number(4, n) == n * n for n in range(20))

    def test_hexagonal(self):
        assert polygonal_number(6, 3) == 15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            polygonal_number(2, 1)
        with pytest.raises(ValueError):
            polygonal_number(3, -1)

    @pytest.mark.parametrize("rank", range(3, 11))
    def test_second_difference_is_rank_minus_two(self, rank):
        for n in range(2, 51):
            first = polygonal_number(rank, n) - polygonal_number(rank, n - 1)
            prev = polygonal_number(rank, n - 1) - polygonal_number(rank, n - 2)
            assert first - prev == rank - 2


class TestFamilyTerm:
    def test_dispatches_polygonal(self):
        assert family_term(SequenceFamily.polygonal(3), 5) == 15

    def test_dispatches_recurrence(self):
        assert family_term(SequenceFamily.fibonacci(), 10) == 55


class TestBinetParams:
    def test_fibonacci_values(self):
        p = binet_params(SequenceFamily.fibonacci())
        inv_sqrt5 = QuadElem(0, Fraction(1, 5), 5)
        assert p.a == p.b == inv_sqrt5
        assert p.r == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)

    def test_lucas_values(self):
        p = binet_params(SequenceFamily.lucas())
        assert p.a == QuadElem(1, 0, 5)
        assert p.b == QuadElem(-1, 0, 5)

    def test_pell_values(self):
        p = binet_params(SequenceFamily.pell())
        assert p.a == p.b == QuadElem(0, Fraction(1, 4), 2)
        assert p.r == QuadElem(1, 1, 2)

    def test_pell_lucas_values(self):
        p = binet_params(SequenceFamily.pell_lucas())
        assert p.a == QuadElem(1, 0, 2)
        assert p.b == QuadElem(-1, 0, 2)
        assert p.r == QuadElem(1, 1, 2)

    def test_unsupported_kinds(self):
        for family in (
            SequenceFamily.jacobsthal(),
            SequenceFamily.jacobsthal_lucas(),
            SequenceFamily.tribonacci(),
            SequenceFamily.perrin(),
            SequenceFamily.padovan(),
            SequenceFamily.polygonal(5),
        ):
            with pytest.raises(UnsupportedFamilyError):
                binet_params(family)

    def test_generalized_matches_hand_derived_form(self):
        # a = (s + (t-s)/r)/sqrt(5) and b = (s + (s-t)*r)/sqrt(5), r the golden ratio
        r = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        inv_sqrt5 = QuadElem(0, Fraction(1, 5), 5)
        for s in range(-4, 5):
            for t in range(-4, 5):
                p = binet_params(SequenceFamily.generalized(s, t))
                assert p.r == r
                assert p.a == (s + (t - s) * r.inv()) * inv_sqrt5
                assert p.b == (s + (s - t) * r) * inv_sqrt5

    def test_custom_second_order_spec_gains_a_field_route(self):
        spec = RecurrenceSpec((3, 1), (0, 1), "3,1")
        p = binet_params(SequenceFamily.custom(spec))
        # x^2 - 3x - 1: r = (3 + sqrt(13))/2, a = b = 1/sqrt(13)
        assert p.r == QuadElem(Fraction(3, 2), Fraction(1, 2), 13)
        assert p.a == p.b == QuadElem(0, Fraction(1, 13), 13)

    @pytest.mark.parametrize("c1", [c for c in range(-6, 7) if c != 0])
    def test_custom_specs_match_recurrence(self, c1):
        # c1^2 + 4 = 5, 8, 13, 20, 29, 40: fields sqrt 5, 2, 13, 5, 29, 10
        for initial in ((0, 1), (2, c1), (-3, 7)):
            spec = RecurrenceSpec((c1, 1), initial, "c1")
            p = binet_params(SequenceFamily.custom(spec))
            for n in range(61):
                assert binet_eval(p, n) == term(spec, n), (c1, initial, n)

    def test_custom_specs_without_a_quadratic_form(self):
        for coefficients, initial in (
            ((0, 1), (1, 2)),  # roots 1 and -1 are rational
            ((3, 2), (0, 1)),  # c2 != 1
            ((3,), (1,)),
            ((1, 1, 1), (0, 1, 1)),
        ):
            spec = RecurrenceSpec(coefficients, initial, "x")
            with pytest.raises(UnsupportedFamilyError):
                binet_params(SequenceFamily.custom(spec))

    def test_mixed_radicand_rejected(self):
        with pytest.raises(ValueError):
            BinetParams(QuadElem(1, 0, 5), QuadElem(1, 0, 2), QuadElem(1, 1, 2))

    def test_root_of_another_norm_rejected(self):
        fib = binet_params(SequenceFamily.fibonacci())
        with pytest.raises(ValueError):
            BinetParams(fib.a, fib.b, QuadElem(3, 1, 5))  # norm 4
        assert BinetParams(fib.a, fib.b, fib.r.conjugate()).r.norm() == -1

    def test_zero_root_rejected(self):
        zero = QuadElem(0, 0, 5)
        one = QuadElem(1, 0, 5)
        with pytest.raises(ValueError):
            BinetParams(one, one, zero)

    def test_coefficient_product_identity(self):
        # a*b for the two-parameter family is (s^2 + s*t - t^2)/5 exactly
        for s in range(-5, 6):
            for t in range(-5, 6):
                p = binet_params(SequenceFamily.generalized(s, t))
                product = (p.a * p.b).to_rational()
                assert product == Fraction(s * s + s * t - t * t, 5)


NO_BINET_FORM = [
    SequenceFamily.jacobsthal(),
    SequenceFamily.jacobsthal_lucas(),
    SequenceFamily.tribonacci(),
    SequenceFamily.perrin(),
    SequenceFamily.padovan(),
    SequenceFamily.polygonal(5),
    SequenceFamily.custom(RecurrenceSpec((0, 1), (1, 2), "c1 = 0")),
    SequenceFamily.custom(RecurrenceSpec((3, 2), (0, 1), "c2 = 2")),
    SequenceFamily.custom(RecurrenceSpec((3, -1), (0, 1), "c2 = -1")),
]


class TestBinetParamsCache:
    def test_equal_families_share_one_object(self):
        assert binet_params(SequenceFamily.pell()) is binet_params(SequenceFamily.pell())
        assert binet_params(SequenceFamily.generalized(2, 5)) is binet_params(
            SequenceFamily.generalized(2, 5)
        )
        one = SequenceFamily.custom(RecurrenceSpec((3, 1), (0, 1), "one"))
        other = SequenceFamily.custom(RecurrenceSpec((3, 1), (0, 1), "other"))
        assert one.label != other.label
        assert binet_params(one) is binet_params(other)

    def test_cached_value_equals_a_fresh_derivation(self):
        families = [
            SequenceFamily.fibonacci(),
            SequenceFamily.lucas(),
            SequenceFamily.pell(),
            SequenceFamily.pell_lucas(),
        ]
        families += [
            SequenceFamily.generalized(s, t) for s in range(-6, 7) for t in range(-6, 7)
        ]
        families += [
            SequenceFamily.custom(RecurrenceSpec((c1, 1), initial, "c1"))
            for c1 in (*range(-6, 0), *range(1, 7))
            for initial in ((0, 1), (2, c1), (-3, 7))
        ]
        for family in families:
            cached = binet_params(family)
            assert binet_params(family) is cached, family.label
            assert cached == binet_params.__wrapped__(family), family.label

    @pytest.mark.parametrize("family", NO_BINET_FORM, ids=lambda f: f.label)
    def test_unsupported_family_raises_every_time_and_is_not_cached(self, family):
        size = binet_params.cache_info().currsize
        for _ in range(2):
            with pytest.raises(UnsupportedFamilyError, match=re.escape(family.label)):
                binet_params(family)
        assert binet_params.cache_info().currsize == size


class TestBinetEval:
    def test_fibonacci_anchors(self):
        p = binet_params(SequenceFamily.fibonacci())
        assert binet_eval(p, 0) == 0
        assert binet_eval(p, 7) == 13

    def test_generalized_start(self):
        p = binet_params(SequenceFamily.generalized(2, 3))
        assert binet_eval(p, 0) == 1

    @pytest.mark.parametrize("family", BINET_FAMILIES, ids=lambda f: f.label)
    def test_matches_recurrence(self, family):
        p = binet_params(family)
        spec = preset(family)
        for n in range(41):
            assert binet_eval(p, n) == term(spec, n)

    def test_negative_index_is_defined(self):
        p = binet_params(SequenceFamily.fibonacci())
        # f(-n) = (-1)^(n+1) * f(n) for this parameter choice
        for n in range(1, 10):
            sign = 1 if n % 2 == 1 else -1
            assert binet_eval(p, -n) == sign * binet_eval(p, n)

    @pytest.mark.parametrize("n", [Fraction(4), Fraction(5, 2), 2.0, "3"], ids=repr)
    def test_non_integer_index_raises_type_error(self, n):
        # An integer-valued Fraction too: the index is exact, like every other.
        with pytest.raises(TypeError, match="integer"):
            binet_eval(binet_params(SequenceFamily.fibonacci()), n)


class TestGeneralizedReductions:
    def test_unit_parameters_give_fibonacci(self):
        gen = preset(SequenceFamily.generalized(1, 1))
        fib = preset(SequenceFamily.fibonacci())
        for n in range(31):
            assert term(gen, n) == term(fib, n)


class TestValidation:
    def test_recurrence_spec_shape(self):
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            RecurrenceSpec((), ())
        with pytest.raises(ValueError, match="initial term list length must equal"):
            RecurrenceSpec((1, 1), (0,))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: polygonal_mgon_area(3.5, 1, 3),
            lambda: polygonal_mgon_area(3, 1.5, 3),
            lambda: polygonal_mgon_area(3, 1, Fraction(3)),
            lambda: twice_signed_area(SequenceFamily.pell(), 2.0, 1, 3),
            lambda: polygonal_number(3.5, 4),
            lambda: polygonal_number(3, 2.0),
            lambda: polygonal_number(3, Fraction(2)),
            lambda: terms(RecurrenceSpec((1.5, 1), (0, 1)), 0, 5),
            lambda: RecurrenceSpec((1, 1), (0, 1.0)),
            lambda: mgon_area(SequenceFamily.generalized(1.5, 2), 1, 3),
            lambda: SequenceFamily.generalized(1, Fraction(2)),
            lambda: SequenceFamily.padovan((1, 1, 1.0)),
            lambda: SequenceFamily.polygonal(5.0),
        ],
        ids=[
            "rank", "k", "m", "n", "figurate-rank", "figurate-n", "figurate-n-fraction",
            "coefficient", "initial-term",
            "s", "t", "padovan-initial", "family-rank",
        ],
    )
    def test_non_integer_parameters_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_family_parameter_checks(self):
        with pytest.raises(ValueError):
            SequenceFamily(FamilyKind.GENERALIZED_FIBONACCI, s=1)
        with pytest.raises(ValueError):
            SequenceFamily.polygonal(2)
        for initial in ((1, 1), ()):
            with pytest.raises(ValueError):
                SequenceFamily(FamilyKind.PADOVAN, initial=initial)
        with pytest.raises(ValueError):
            SequenceFamily(FamilyKind.CUSTOM)

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_stray_fields_rejected(self, kind):
        spec = RecurrenceSpec((2,), (1,))
        given = {"s": 3, "t": 4, "rank": 5, "initial": (9, 9, 9), "spec": spec}
        owners = {
            "s": FamilyKind.GENERALIZED_FIBONACCI,
            "t": FamilyKind.GENERALIZED_FIBONACCI,
            "rank": FamilyKind.POLYGONAL,
            "initial": FamilyKind.PADOVAN,
            "spec": FamilyKind.CUSTOM,
        }
        taken = {name: v for name, v in given.items() if owners[name] is kind}
        SequenceFamily(kind, **taken)
        for name, owner in owners.items():
            if owner is not kind:
                with pytest.raises(ValueError, match=f"'{name}' applies only"):
                    SequenceFamily(kind, **taken, **{name: given[name]})

    def test_padovan_default_applied_once(self):
        default = SequenceFamily(FamilyKind.PADOVAN)
        assert default.initial == (1, 1, 1)
        assert default == SequenceFamily.padovan() == SequenceFamily.padovan((1, 1, 1))
        assert preset(default).initial_terms == (1, 1, 1)
        assert SequenceFamily.padovan([1, 0, 0]).initial == (1, 0, 0)

    def test_label_is_not_part_of_the_recurrence(self):
        fib = preset(SequenceFamily.fibonacci())
        same = RecurrenceSpec((1, 1), (0, 1), "U")
        assert same == fib and hash(same) == hash(fib)

    @settings(max_examples=100, deadline=None)
    @given(
        coefficients=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=5),
        data=st.data(),
        labels=st.tuples(st.text(max_size=5), st.text(max_size=5)),
    )
    def test_stored_hash_follows_the_value(self, coefficients, data, labels):
        # The hash is taken once, at construction: equal values (whatever
        # their labels or input types) hash equal however they were made.
        initial = data.draw(
            st.lists(st.integers(-10**30, 10**30), min_size=len(coefficients),
                     max_size=len(coefficients))
        )
        spec = RecurrenceSpec(tuple(coefficients), tuple(initial), labels[0])
        same = RecurrenceSpec(coefficients, initial, labels[1])
        copy = pickle.loads(pickle.dumps(spec))
        for other in (same, copy):
            assert other == spec and hash(other) == hash(spec)
        moved = RecurrenceSpec(spec.coefficients, [v + 1 for v in initial], spec.label)
        built = RecurrenceSpec(coefficients, [v + 1 for v in initial])
        assert moved != spec and moved == built and hash(moved) == hash(built)
        assert repr(spec) == (
            f"RecurrenceSpec(coefficients={tuple(coefficients)!r}, "
            f"initial_terms={tuple(initial)!r}, label={labels[0]!r})"
        )

    def test_labels(self):
        assert SequenceFamily.fibonacci().label == "fibonacci"
        assert SequenceFamily.generalized(2, 3).label == "generalized(s=2,t=3)"
        assert SequenceFamily.polygonal(7).label == "polygonal(rank=7)"
        assert SequenceFamily.padovan().label == "padovan(initial=1,1,1)"


def _values():
    """One value of each class, a field of it, and an equal value built under
    another label (BinetParams has none: the same parameters derived from a
    relabelled recurrence)."""
    spec = RecurrenceSpec((3, -1), (1, 4), "demo")
    params = binet_params(SequenceFamily.fibonacci())
    relabelled_fibonacci = SequenceFamily.custom(RecurrenceSpec((1, 1), (0, 1), "U"))
    return [
        pytest.param(spec, "coefficients", RecurrenceSpec([3, -1], [1, 4], "other"),
                     id="RecurrenceSpec"),
        pytest.param(SequenceFamily.custom(spec), "kind",
                     SequenceFamily.custom(RecurrenceSpec((3, -1), (1, 4))),
                     id="SequenceFamily"),
        pytest.param(params, "r", binet_params(relabelled_fibonacci), id="BinetParams"),
    ]


class TestValueClasses:
    @pytest.mark.parametrize("value, field, relabelled", _values())
    def test_fields_cannot_be_assigned_or_deleted(self, value, field, relabelled):
        before = getattr(value, field)
        for name in (field, "extra"):
            with pytest.raises(AttributeError) as assigned:
                setattr(value, name, before)
            with pytest.raises(AttributeError) as deleted:
                delattr(value, name)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            assert str(deleted.value) == f"cannot delete field {name!r}"
        assert getattr(value, field) is before and not hasattr(value, "extra")

    @pytest.mark.parametrize("value, field, relabelled", _values())
    def test_equal_only_to_its_own_class(self, value, field, relabelled):
        fields = tuple(getattr(value, name) for name in type(value).__match_args__)
        for other in (fields, fields[:1], object(), None):
            assert value != other and not value == other
            assert value.__eq__(other) is NotImplemented

    @pytest.mark.parametrize("value, field, relabelled", _values())
    def test_label_is_not_part_of_the_value(self, value, field, relabelled):
        assert relabelled is not value
        assert relabelled == value and hash(relabelled) == hash(value)
        if hasattr(value, "label"):
            assert relabelled.label != value.label

    @pytest.mark.parametrize("value, field, relabelled", _values())
    def test_pickle_goes_through_the_constructor(self, value, field, relabelled):
        cls = type(value)
        args = tuple(getattr(value, name) for name in cls.__match_args__)
        assert value.__reduce__() == (cls, args)
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls and copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)

    def test_match_args(self):
        assert RecurrenceSpec.__match_args__ == (
            "coefficients", "initial_terms", "label"
        )
        assert SequenceFamily.__match_args__ == (
            "kind", "s", "t", "rank", "initial", "spec"
        )
        assert BinetParams.__match_args__ == ("a", "b", "r")
        match SequenceFamily.generalized(2, 3):
            case SequenceFamily(FamilyKind.GENERALIZED_FIBONACCI, s, t, None):
                assert (s, t) == (2, 3)
            case _:
                pytest.fail("the family did not match its own fields")

    def test_pickle_from_another_hash_seed_finds_the_key(self):
        # A family's hash mixes in its FamilyKind's, which hashes the member's
        # name: a str hash, different under each PYTHONHASHSEED.  A family
        # pickled in such a process must still be found as a key made here.
        families = [
            SequenceFamily.pell(), SequenceFamily.generalized(2, 3),
            SequenceFamily.polygonal(7), SequenceFamily.padovan((1, 0, 0)),
            SequenceFamily.custom(RecurrenceSpec((3, -1), (1, 4), "demo")),
        ]
        src = str(Path(seqarea.__file__).resolve().parents[1])
        code = (
            f"import pickle, sys; sys.path.insert(0, {src!r})\n"
            "families = pickle.load(sys.stdin.buffer)\n"
            "pickle.dump((families, list(map(hash, families))), sys.stdout.buffer)"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        result = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(families),
            capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed}, check=True,
        )
        copies, their_hashes = pickle.loads(result.stdout)
        assert their_hashes[0] != hash(families[0])  # the seeds did differ
        index = {family: i for i, family in enumerate(families)}
        assert [index[copy] for copy in copies] == list(range(len(families)))
        assert [preset(copy) for copy in copies] == list(map(preset, families))
