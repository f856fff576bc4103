"""The benchmark's inputs depend only on the seed.

    python3 -m pytest perfbench/tests
"""

import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _shape(op):
    """An operation without its seed-drawn sizes: what must not change scale."""
    if op[0] in ("lib", "cli"):  # a Kummer query: route and bit-length band of a
        return op[0], round(abs(op[1]).bit_length() / 20)
    return tuple(x for x in op if not isinstance(x, float))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert repr(wl.make_inputs(7)).encode() == repr(wl.make_inputs(7)).encode()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs_in_another_process(name):
    probe = os.path.join(BENCH, "probe.py")
    out = subprocess.run([sys.executable, probe, name, "7"], capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["ready", workloads.digest(workloads.WORKLOADS[name].make_inputs(7))]


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_inputs_at_the_same_scale(name):
    wl = workloads.WORKLOADS[name]
    a, b = wl.make_inputs(7), wl.make_inputs(8)
    assert repr(a) != repr(b)
    assert len(a) == len(b)
    for ops_a, ops_b in zip(a, b):
        assert sorted(map(_shape, ops_a)) == sorted(map(_shape, ops_b))
        for op_a, op_b in zip(sorted(ops_a, key=_shape), sorted(ops_b, key=_shape)):
            sizes_a = [x for x in op_a if isinstance(x, float)]
            sizes_b = [x for x in op_b if isinstance(x, float)]
            for x, y in zip(sizes_a, sizes_b):
                assert 1 / 1.03 < x / y < 1.03
