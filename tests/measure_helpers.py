"""Fixture builders and the child-process runner shared by the tests."""

import os
import subprocess
import sys
from dataclasses import replace

import hyperlab
from hyperlab.measures import Measure1D, piece_from_family


def run_child(*args, timeout, input=None):
    """The finished ``python *args`` run in a fresh interpreter that imports
    hyperlab from the tree under test, with its text output captured."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(hyperlab.__file__)))
    return subprocess.run([sys.executable, *args], env=env, input=input,
                          capture_output=True, text=True, timeout=timeout)


def restrict(nu: Measure1D, a: float, b: float) -> Measure1D:
    """Restriction to [a, b); atoms at the right endpoint are dropped, and
    family pieces are rebuilt, which cuts their bin tables."""
    if not a < b:
        return Measure1D()
    atoms = tuple((x, w) for x, w in nu.atoms if a <= x < b)
    pieces = []
    for p in nu.pieces:
        lo, hi = max(p.a, a), min(p.b, b)
        if lo < hi:
            pieces.append(replace(p, a=lo, b=hi) if p.family is None else
                          piece_from_family(lo, hi, p.family, p.params,
                                            p.tv_bound))
    return Measure1D(atoms, tuple(pieces))
