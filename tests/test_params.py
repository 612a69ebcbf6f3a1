import pytest

from ringleader.core.params import (
    InvalidSizeError,
    ProtocolParams,
    make_params,
    require_drawable,
)
from ringleader.core.state import random_configuration


def test_minimum_ring():
    p = make_params(2)
    assert (p.psi, p.kappa_max, p.zeta) == (2, 64, 1)


def test_power_of_two():
    p = make_params(16)
    assert (p.psi, p.kappa_max, p.zeta) == (4, 128, 4)


def test_n100():
    p = make_params(100)
    assert (p.psi, p.kappa_max, p.zeta) == (7, 224, 15)
    assert 2**p.psi >= 100


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 17, 64, 100, 1000])
def test_invariants_hold(n):
    p = make_params(n)
    assert p.psi >= 2
    assert 2**p.psi >= n
    assert p.kappa_max >= 32 * p.psi
    assert p.zeta == -(-n // p.psi)


def test_psi_exact_beyond_float_precision():
    # a float log2 rounds 2**53 + 1 down to 53 and then fails 2**psi >= n
    assert make_params(2**53 + 1).psi == 54


def test_psi_is_smallest_legal():
    for n in range(3, 4097):
        psi = make_params(n).psi
        assert 2 ** (psi - 1) < n <= 2**psi, n


def test_rejects_tiny_ring():
    with pytest.raises(InvalidSizeError):
        make_params(1)
    with pytest.raises(InvalidSizeError):
        make_params(0)


def test_kappa_override_up_only():
    p = make_params(8, kappa_max=1000)
    assert p.kappa_max == 1000
    with pytest.raises(InvalidSizeError):
        make_params(8, kappa_max=10)


def test_rejects_undersized_knowledge():
    # psi failing 2**psi >= n has no defined semantics and is refused outright
    with pytest.raises(InvalidSizeError):
        ProtocolParams(n=100, psi=4, kappa_max=128)


@pytest.mark.parametrize(
    "args",
    [(16.0,), (True,), ("16",), (16, 200.5), (16, 256.0), (16, True)],
)
def test_make_params_rejects_non_int_sizes(args):
    with pytest.raises(InvalidSizeError, match="must be an int"):
        make_params(*args)


@pytest.mark.parametrize(
    "field, value", [("n", 8.0), ("psi", 3.0), ("kappa_max", 96.5)]
)
def test_params_reject_non_int_fields(field, value):
    fields = dict(n=8, psi=3, kappa_max=96)
    fields[field] = value
    with pytest.raises(InvalidSizeError, match=field):
        ProtocolParams(**fields)


def test_drawable_clock_ceiling_stops_below_int64_max():
    # the clock's kappa_max + 1 values must fit one int64 draw bound
    random_configuration(make_params(8, 2**63 - 2), 0)
    with pytest.raises(InvalidSizeError, match="random draw"):
        require_drawable(make_params(8, 2**63 - 1))
