"""The get-or-make rule every kept value follows."""

import time

import numpy as np
import pytest

from maxforms._kept import kept

from formutil import race


def test_racing_threads_all_get_the_value_stored_first():
    store = {}

    def make(i):
        time.sleep(0.001)  # every thread misses before any stores
        return [i]

    got = race(lambda i: kept(store, "key", make, i))
    assert all(value is store["key"] for value in got)


def test_a_kept_array_is_read_only():
    store = {}
    value = kept(store, "key", np.zeros, 3)
    assert value is store["key"] and not value.flags.writeable
    with pytest.raises(ValueError):
        value[0] = 1.0


def test_a_make_that_raises_stores_nothing():
    store = {}
    with pytest.raises(ZeroDivisionError):
        kept(store, "key", lambda: 1 / 0)
    assert store == {}
    assert kept(store, "key", lambda: 2) == 2


@pytest.mark.parametrize("falsy", [False, 0.0])
def test_falsy_values_are_kept(falsy):
    store, calls = {}, []

    def make():
        calls.append(1)
        return falsy

    assert [kept(store, "key", make) for _ in range(3)] == [falsy] * 3
    assert len(calls) == 1
