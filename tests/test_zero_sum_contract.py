"""How every zero sum treats records it cannot use.

Two one-record tables exercise each consumer of zeta'(rho): an unrefined
record (zeta' = 0, refined_bits = 0) and a suspect one (|zeta'| below the
floor, flagged).  An entry in an expectation table is either the exception
the call raises or the value it returns.  A missing zeta' always means
"refine the table first" (DomainError), never a suspected multiple zero.
"""

import math

import pytest

from mrl.errors import DomainError, MultipleZeroFlag
from mrl.explicit import explicit_M_tau, zero_sum_term
from mrl.zeros import ZeroRecord, ZeroTable
from mrl.zerosums import (
    a_constant_report,
    im_constants,
    integral_M_explicit,
    inv_zeta_identity,
    j_lambda,
    swmh_report,
    zeta_eq_real_report,
)

GAMMA1 = 14.134725141734695

TABLES = {
    "unrefined": ZeroTable([ZeroRecord(gamma=GAMMA1)]),
    "suspect": ZeroTable(
        [ZeroRecord(gamma=GAMMA1, zeta_prime=1e-9, refined_bits=53, suspect=True)]
    ),
}


def _value(v):
    return v.value if hasattr(v, "value") else v


CONSUMERS = {
    "zero_sum_term": lambda t: zero_sum_term(10.0, 1.0, t, 100.0),
    "explicit_M_tau": lambda t: explicit_M_tau(10.0, 1.0, t, 100.0, 5).zero_sum,
    "a_constant_report": lambda t: a_constant_report(2.0, t, 100.0),
    "inv_zeta_identity": lambda t: inv_zeta_identity(2.0, t, 100.0),
    "zeta_eq_real_report": lambda t: zeta_eq_real_report(2.0, t, 100.0),
    "swmh_report": lambda t: swmh_report(1e3, t, 100.0),
    "integral_M_explicit": lambda t: integral_M_explicit(100.0, 0.5, t, 100.0),
    "j_lambda(-1)": lambda t: j_lambda(t, -1.0, 100.0),
    "j_lambda(0)": lambda t: j_lambda(t, 0.0, 100.0),
    "j_lambda(1)": lambda t: j_lambda(t, 1.0, 100.0),
    "im_constants": lambda t: im_constants(1.5, t, 100.0),
}

EXPECTED = {
    "unrefined": {
        **{name: DomainError for name in CONSUMERS},
        "j_lambda(0)": 1.0,
    },
    "suspect": {
        **{name: MultipleZeroFlag for name in CONSUMERS},
        "j_lambda(-1)": math.inf,
        "j_lambda(0)": 1.0,
        "j_lambda(1)": 1e-9**2.0,
        "im_constants": math.inf,
    },
}


@pytest.mark.parametrize("kind", sorted(TABLES))
@pytest.mark.parametrize("name", list(CONSUMERS))
def test_unusable_records(kind, name):
    want = EXPECTED[kind][name]
    if isinstance(want, type):
        with pytest.raises(want):
            CONSUMERS[name](TABLES[kind])
    else:
        assert _value(CONSUMERS[name](TABLES[kind])) == want
