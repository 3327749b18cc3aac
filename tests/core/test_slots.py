"""Slot-pool semantics: the contract behind ``{%}``."""

import sys
import threading
import time

import pytest

from repro.core.slots import SlotPool
from repro.errors import OptionsError


def test_capacity_validation():
    with pytest.raises(OptionsError):
        SlotPool(0)


def test_slots_granted_lowest_first():
    pool = SlotPool(4)
    assert [pool.acquire() for _ in range(4)] == [1, 2, 3, 4]


def test_freed_slot_reused_lowest_first():
    pool = SlotPool(3)
    s1, s2, s3 = pool.acquire(), pool.acquire(), pool.acquire()
    pool.release(s2)
    pool.release(s1)
    assert pool.acquire() == 1
    assert pool.acquire() == 2


def test_nonblocking_acquire_returns_none_when_exhausted():
    pool = SlotPool(1)
    pool.acquire()
    assert pool.acquire() is None


def test_release_out_of_range():
    pool = SlotPool(2)
    with pytest.raises(OptionsError):
        pool.release(3)
    with pytest.raises(OptionsError):
        pool.release(0)


def test_double_release_detected():
    pool = SlotPool(2)
    s = pool.acquire()
    pool.release(s)
    with pytest.raises(OptionsError):
        pool.release(s)


def test_in_use_counter():
    pool = SlotPool(3)
    assert pool.in_use == 0
    a = pool.acquire()
    pool.acquire()
    assert pool.in_use == 2
    pool.release(a)
    assert pool.in_use == 1


def _grant_under(lock, pool):
    """A non-blocking grant taken under ``lock``, retried until one is free
    (the scheduler's shape: grants happen only under its run lock)."""
    while True:
        with lock:
            slot = pool.acquire()
        if slot is not None:
            return slot
        time.sleep(0)


def test_slot_numbers_never_exceed_capacity_under_contention():
    """With -j8, {%} must always be in 1..8 (GPU isolation relies on it)."""
    pool = SlotPool(8)
    seen = []
    lock = threading.Lock()

    def worker():
        for _ in range(50):
            s = _grant_under(lock, pool)
            with lock:
                seen.append(s)
                pool.release(s)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 16 * 50 and all(1 <= s <= 8 for s in seen)
    assert pool.in_use == 0


def test_full_pool_grants_freed_slot_after_release():
    pool = SlotPool(2)
    pool.acquire()
    held = pool.acquire()
    assert pool.acquire() is None
    pool.release(held)
    assert pool.acquire() == held
    assert pool.in_use == 2


def test_full_pool_acquire_returns_none_at_once():
    pool = SlotPool(1)
    pool.acquire()
    started = time.monotonic()
    assert pool.acquire() is None
    assert time.monotonic() - started < 0.5
    assert pool.in_use == 1


def test_nonblocking_miss_takes_nothing():
    pool = SlotPool(2)
    a, b = pool.acquire(), pool.acquire()
    assert pool.acquire() is None
    assert pool.in_use == 2
    pool.release(b)
    assert pool.acquire() == b
    pool.release(a)
    assert pool.acquire() == a
    assert pool.acquire() is None


def test_two_releases_grant_both_slots():
    pool = SlotPool(2)
    a, b = pool.acquire(), pool.acquire()
    pool.release(a)
    pool.release(b)
    assert sorted([pool.acquire(), pool.acquire()]) == [1, 2]
    assert pool.acquire() is None
    assert pool.in_use == 2


def test_no_slot_granted_twice_under_forced_switching():
    """Non-blocking grants under a lock on a small pool, with releases
    outside it: a slot is never held by two threads at once, and every
    thread finishes."""
    pool = SlotPool(3)
    grant_lock = threading.Lock()
    holders = {}
    clashes = []
    lock = threading.Lock()

    def worker(name):
        for _ in range(200):
            s = _grant_under(grant_lock, pool)
            with lock:
                if s in holders:
                    clashes.append(s)
                holders[s] = name
            with lock:
                del holders[s]
            pool.release(s)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert clashes == []
    assert pool.in_use == 0
