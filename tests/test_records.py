"""Record contract: every public record is a validated, immutable namedtuple."""

import copy
import importlib
import pickle
import pkgutil
from typing import NamedTuple

import pytest

import otto_rel
from otto_rel import (
    CycleParams,
    OperationalMode,
    OptimumReport,
    PerformanceRecord,
    PhaseMap,
    ReducedParams,
)
from otto_rel.core import EnergyBook, Scenario, StrokeProtocol, _Validated
from otto_rel.cubic import MonicCubic
from _scaffold import DerivativeReport

SC_TEXT = (
    "Scenario(compression=<StrokeProtocol.SUDDEN: 'sudden'>, "
    "expansion=<StrokeProtocol.ADIABATIC: 'adiabatic'>)"
)
HEATER, ENGINE = OperationalMode.HEATER, OperationalMode.ENGINE


class Case(NamedTuple):
    cls: type
    fields: dict  # a valid record, every field by keyword, in field order
    other: dict  # a valid override that changes the record's value
    text: str  # its repr
    errors: list  # (invalid override, ValueError message)


CASES = [
    Case(
        Scenario,
        dict(compression=StrokeProtocol.SUDDEN, expansion=StrokeProtocol.ADIABATIC),
        dict(expansion=StrokeProtocol.SUDDEN),
        SC_TEXT,
        [],
    ),
    Case(
        CycleParams,
        dict(v=0.5, beta_c=2.0, beta_h=1.0, omega_c=0.5, omega_h=1.0),
        dict(omega_h=2.0),
        "CycleParams(v=0.5, beta_c=2.0, beta_h=1.0, omega_c=0.5, omega_h=1.0)",
        [
            (dict(v=1.0), "velocity must lie in (0, 1), got 1.0"),
            (dict(beta_c=0.0), "beta_c must be positive, got 0.0"),
            (dict(beta_h=-1.0), "beta_h must be positive, got -1.0"),
            (dict(omega_c=0.0), "omega_c must be positive, got 0.0"),
            (
                dict(omega_h=0.25),
                "frequencies must satisfy omega_c <= omega_h, got omega_c=0.5, omega_h=0.25",
            ),
            # an infinite field would turn the exact corner energies into nan
            (dict(beta_c=float("inf")), "beta_c must be finite, got inf"),
            (dict(omega_h=float("inf")), "omega_h must be finite, got inf"),
        ],
    ),
    Case(
        EnergyBook,
        dict(h_a=1.0, h_b=2.0, h_c=3.0, h_d=4.0),
        dict(h_d=5.0),
        "EnergyBook(h_a=1.0, h_b=2.0, h_c=3.0, h_d=4.0)",
        [],
    ),
    Case(
        PerformanceRecord,
        dict(q_h=1.0, q_c=-0.5, w_ext=0.5),
        dict(q_c=-0.25),
        "PerformanceRecord(q_h=1.0, q_c=-0.5, w_ext=0.5)",
        [],
    ),
    Case(
        ReducedParams,
        dict(z=0.5, g=0.5),
        dict(g=0.25),
        "ReducedParams(z=0.5, g=0.5)",
        [
            (dict(z=2.0), "frequency ratio z must lie in (0, 1], got 2.0"),
            (dict(g=1.0), "reduced load g must lie in [0, 1), got 1.0"),
        ],
    ),
    Case(
        MonicCubic,
        dict(a2=1.0, a1=-2.0, a0=0.5),
        dict(a0=0.0),
        "MonicCubic(a2=1.0, a1=-2.0, a0=0.5)",
        [
            (dict(a2=float("inf")), "coefficient a2 must be finite, got inf"),
            (dict(a1=float("nan")), "coefficient a1 must be finite, got nan"),
            (dict(a0=float("-inf")), "coefficient a0 must be finite, got -inf"),
        ],
    ),
    Case(
        OptimumReport,
        dict(z_star=0.5, value_at_opt=0.125, eta_at_opt=0.25),
        dict(eta_at_opt=0.5),
        "OptimumReport(z_star=0.5, value_at_opt=0.125, eta_at_opt=0.25)",
        [(dict(z_star=1.0), "z_star must lie in (0, 1), got 1.0")],
    ),
    # the tests' derivative probe record (tests/_scaffold.py) keeps the same contract
    Case(
        DerivativeReport,
        dict(value=1.0, order=2.0, samples=(1.0, 1.0), converged=True),
        dict(converged=False),
        "DerivativeReport(value=1.0, order=2.0, samples=(1.0, 1.0), converged=True)",
        [],
    ),
    Case(
        PhaseMap,
        dict(v=0.5, axis=(0.25, 0.75), runs=(((0, HEATER), (1, ENGINE)), ((0, ENGINE),))),
        dict(runs=(((0, ENGINE),), ((0, ENGINE),))),
        "PhaseMap(v=0.5, axis=(0.25, 0.75), "
        "runs=(((0, <OperationalMode.HEATER: 'heater'>), (1, <OperationalMode.ENGINE: 'engine'>)), "
        "((0, <OperationalMode.ENGINE: 'engine'>),)))",
        [
            (dict(axis=(0.5,)), "runs column count must match axis length"),
            (
                dict(runs=(((1, ENGINE),), ((0, ENGINE),))),
                "each column's runs must start at 0 and inside axis",
            ),
            (
                dict(runs=(((0, ENGINE), (1, ENGINE)), ((0, ENGINE),))),
                "run starts must rise and adjacent modes differ",
            ),
        ],
    ),
]


def _error_ids():
    # record and field name an error; a repeated field adds its value when that
    # is a float (CycleParams-beta_c=inf), and pytest numbers the rest (runs0)
    for case in CASES:
        seen = set()
        for override, _ in case.errors:
            ((name, value),) = override.items()
            repeat = name in seen and isinstance(value, float)
            yield f"{case.cls.__name__}-{name}" + (f"={value}" if repeat else "")
            seen.add(name)


BY_NAME = pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
INVALID = pytest.mark.parametrize(
    "case, override, message",
    [(case, override, message) for case in CASES for override, message in case.errors],
    ids=list(_error_ids()),
)


def test_every_validated_record_is_covered():
    # from every module, so a record that is not exported is covered too
    modules = [
        importlib.import_module(f"otto_rel.{info.name}")
        for info in pkgutil.iter_modules(otto_rel.__path__)
    ]
    validated = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, _Validated) and obj is not _Validated
    }
    assert validated == {case.cls for case in CASES if case.errors}
    assert len(CASES) == 9


@BY_NAME
def test_keyword_and_positional_construction_agree(case):
    record = case.cls(**case.fields)
    assert record == case.cls(*case.fields.values())
    assert [getattr(record, name) for name in case.fields] == list(case.fields.values())
    assert repr(record) == case.text


def test_defaults():
    # the grid oracle's fixed resolution
    assert (otto_rel.oracle.GRID_POINTS, otto_rel.oracle.REFINE_TOL) == (2048, 1e-10)


@BY_NAME
def test_records_are_immutable(case):
    record = case.cls(**case.fields)
    name, value = next(iter(case.fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = value
    assert getattr(record, name) == value


@BY_NAME
def test_equality_and_hash_by_value(case):
    record = case.cls(**case.fields)
    twin = case.cls(**case.fields)
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert record != case.cls(**{**case.fields, **case.other})


@BY_NAME
def test_a_record_is_the_tuple_of_its_fields(case):
    # a decision, not an accident: records unpack and compare as plain tuples
    record = case.cls(**case.fields)
    values = tuple(case.fields.values())
    assert record == values and hash(record) == hash(values)
    assert tuple(record) == values
    assert record._fields == tuple(case.fields)


@BY_NAME
def test_copies_keep_type_and_value(case):
    record = case.cls(**case.fields)
    for copied in (
        record._replace(),
        case.cls._make(record),
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(copied) is case.cls and copied == record


@INVALID
def test_constructor_rejects_with_its_message(case, override, message):
    with pytest.raises(ValueError) as caught:
        case.cls(**{**case.fields, **override})
    assert str(caught.value) == message


@INVALID
def test_every_copy_path_is_validated(case, override, message):
    record = case.cls(**case.fields)
    values = tuple({**case.fields, **override}.values())
    # a tuple of invalid fields made behind the constructor's back, to
    # show that pickle and copy rebuild through it
    forged = tuple.__new__(case.cls, values)
    for rebuild in (
        lambda: record._replace(**override),
        lambda: case.cls._make(values),
        lambda: pickle.loads(pickle.dumps(forged)),
        lambda: copy.copy(forged),
    ):
        with pytest.raises(ValueError) as caught:
            rebuild()
        assert str(caught.value) == message
