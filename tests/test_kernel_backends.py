"""The compiled kernel and the pure-Python kernel must agree bit for bit."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from residua import _kernel_py

_kernel_c = pytest.importorskip("residua._kernel_c")

BACKENDS = (_kernel_py, _kernel_c)


def _keyfn(key):
    # grevlex-flavoured module key: degree, reversed negated exps, position
    pos, exps = key
    return (sum(exps), tuple(-e for e in reversed(exps)), -pos)


def _random_terms(rng, nvars, nterms, npos=1):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            terms[(rng.randrange(npos), mono)] = c
    return terms


def test_exponent_ops_agree():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = tuple(rng.randint(0, 6) for _ in range(n))
        b = tuple(rng.randint(0, 6) for _ in range(n))
        assert _kernel_py.exp_add(a, b) == _kernel_c.exp_add(a, b)
        assert _kernel_py.exp_sub(a, b) == _kernel_c.exp_sub(a, b)
        assert _kernel_py.exp_lcm(a, b) == _kernel_c.exp_lcm(a, b)
        assert _kernel_py.exp_divides(a, b) == _kernel_c.exp_divides(a, b)


def test_leading_key_and_add_scaled_agree():
    rng = random.Random(23)
    for _ in range(100):
        src = _random_terms(rng, 3, rng.randint(0, 6), npos=2)
        dst1 = _random_terms(rng, 3, rng.randint(0, 6), npos=2)
        dst2 = dict(dst1)
        assert _kernel_py.leading_key(src, _keyfn) == _kernel_c.leading_key(src, _keyfn)
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        mono = tuple(rng.randint(0, 3) for _ in range(3))
        _kernel_py.add_scaled_inplace(dst1, src, coeff, mono)
        _kernel_c.add_scaled_inplace(dst2, src, coeff, mono)
        assert dst1 == dst2


def test_division_agrees_with_quotients():
    rng = random.Random(37)
    for _ in range(60):
        f = _random_terms(rng, 3, rng.randint(1, 8))
        divisors = []
        for _ in range(rng.randint(1, 3)):
            g = _random_terms(rng, 3, rng.randint(1, 4))
            lk = _kernel_py.leading_key(g, _keyfn)
            if lk is None:
                continue
            divisors.append((lk, g[lk], g))
        if not divisors:
            continue
        q1, r1 = _kernel_py.reduce_terms(f, divisors, _keyfn, True)
        q2, r2 = _kernel_c.reduce_terms(f, divisors, _keyfn, True)
        assert r1 == r2
        assert q1 == q2
        q1n, r1n = _kernel_py.reduce_terms(f, divisors, _keyfn, False)
        q2n, r2n = _kernel_c.reduce_terms(f, divisors, _keyfn, False)
        assert q1n is None and q2n is None and r1n == r2n == r1


def test_corpus_json_identical_across_backends():
    """End-to-end: the whole engine under either kernel emits the same bytes."""
    outs = {}
    for backend in ("py", "c"):
        env = dict(os.environ, RESIDUA_KERNEL=backend)
        proc = subprocess.run(
            [sys.executable, "-m", "residua.cli", "--corpus", "--json", "-"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs[backend] = proc.stdout
    assert outs["py"] == outs["c"]
    json.loads(outs["py"])  # well-formed
