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
    assert pool.acquire(blocking=False) is None


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


def test_slot_numbers_never_exceed_capacity_under_contention():
    """With -j8, {%} must always be in 1..8 (GPU isolation relies on it)."""
    pool = SlotPool(8)
    seen = []
    lock = threading.Lock()

    def worker():
        for _ in range(50):
            s = pool.acquire()
            with lock:
                seen.append(s)
            pool.release(s)

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen and all(1 <= s <= 8 for s in seen)


def _acquire_in_thread(pool, got):
    thread = threading.Thread(target=lambda: got.append(pool.acquire()), daemon=True)
    thread.start()
    return thread


def test_blocking_acquire_parks_until_release():
    pool = SlotPool(2)
    pool.acquire()
    held = pool.acquire()
    got = []
    thread = _acquire_in_thread(pool, got)
    thread.join(timeout=0.05)
    assert thread.is_alive() and got == []  # parked on the full pool
    released_at = time.monotonic()
    pool.release(held)
    thread.join(timeout=1.0)
    assert not thread.is_alive()
    assert time.monotonic() - released_at < 1.0
    assert got == [held]
    assert pool.in_use == 2


def test_acquire_timeout_on_full_pool_returns_none():
    pool = SlotPool(1)
    pool.acquire()
    started = time.monotonic()
    assert pool.acquire(timeout=0.05) is None
    assert time.monotonic() - started >= 0.05
    assert pool.in_use == 1


def test_nonblocking_miss_takes_nothing():
    pool = SlotPool(2)
    a, b = pool.acquire(), pool.acquire()
    assert pool.acquire(blocking=False) is None
    assert pool.in_use == 2
    pool.release(b)
    assert pool.acquire(blocking=False) == b
    pool.release(a)
    assert pool.acquire(blocking=False) == a
    assert pool.acquire(blocking=False) is None


def test_two_waiters_two_releases_wake_both():
    pool = SlotPool(2)
    a, b = pool.acquire(), pool.acquire()
    got = []
    threads = [_acquire_in_thread(pool, got) for _ in range(2)]
    for thread in threads:
        thread.join(timeout=0.05)
    assert got == []
    pool.release(a)
    pool.release(b)
    for thread in threads:
        thread.join(timeout=1.0)
        assert not thread.is_alive()
    assert sorted(got) == [1, 2]
    assert pool.in_use == 2


def test_no_slot_granted_twice_under_forced_switching():
    """Blocking waiters on a small pool: a slot is never held by two
    threads at once, and every thread finishes (no lost wakeup)."""
    pool = SlotPool(3)
    holders = {}
    clashes = []
    lock = threading.Lock()

    def worker(name):
        for _ in range(200):
            s = pool.acquire(timeout=5.0)
            if s is None:
                clashes.append("timed out")
                return
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
