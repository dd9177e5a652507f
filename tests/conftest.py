import os
import subprocess
import sys

import hypothesis
from hypothesis import strategies as st

import hypmix
from hypmix import stallings
from hypmix.freegroup import FreeContext, reduce_word
from hypmix.stallings import SubgroupAutomaton

hypothesis.settings.register_profile(
    "suite", derandomize=True, max_examples=60, deadline=None
)
hypothesis.settings.load_profile("suite")

F2 = FreeContext(2)
F3 = FreeContext(3)
A, B = (1,), (2,)


def sub(*texts):
    """The subgroup of F2 generated by the words spelled in texts."""
    return SubgroupAutomaton.from_generators(2, [F2.parse(t) for t in texts])


def words(rank=2, max_len=8):
    """Strategy for freely reduced words."""
    return st.lists(
        st.sampled_from(FreeContext(rank).letters()), min_size=0, max_size=max_len
    ).map(reduce_word)


def nontrivial_words(rank=2, max_len=8):
    return words(rank, max_len).filter(lambda w: len(w) > 0)


def live_states(automaton):
    """The states of an automaton's folded rows that no merge removed."""
    return sum(row is not None for row in automaton._rows)


def src_env():
    """The environment for a subprocess that must import this checkout's hypmix."""
    src = os.path.dirname(os.path.dirname(hypmix.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_optimized(script):
    """Run a script under python -O with this checkout's hypmix; its stdout,
    once it has exited with 0."""
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class StuckGenerator:
    """A generator stand-in whose permutation rows all repeat a label."""

    def __init__(self, gen):
        self.integers = gen.integers
        self.bit_generator = gen.bit_generator

    def permuted(self, rows, axis):
        rows[:, 0] = rows[:, 1]
        return rows


def count_canonical_forms(monkeypatch):
    """Patch stallings._core_form, the one function that trims and numbers
    an automaton, to log each call; returns the log."""
    calls = []
    core_form = stallings._core_form
    monkeypatch.setattr(stallings, "_core_form", lambda *args: calls.append(1) or core_form(*args))
    return calls
