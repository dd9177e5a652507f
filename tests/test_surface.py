"""Every public name in the library is reached by library or benchmark code.

Public top-level functions and classes of src/hypmix, and the public methods
of those classes, must be used (as a name or an attribute) somewhere in
src/hypmix or bench/. Unit tests do not count as users: code that only a test
reaches is either wired into an experiment or deleted. The exceptions are the
independent references that tests compare the library against, listed below.
"""

import ast
from pathlib import Path

import hypmix

SRC = Path(hypmix.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

REFERENCES = {
    "distance_to_geodesic": "tests check gromov_product against it",
    "overlap_count": "tests check overlap_bound against it",
    "minimal_power_in": "tests check the compute_u0 covering property with it",
    "convolve": "tests check draw_indices against the exact n-step law",
    "is_folded": "TestFoldBuilder checks the fold builder's output with it",
    "basis": "TestFoldBuilder rebuilds the reference automata from it",
    "sample_walk": "tests check final_position against its step-by-step product",
    "intersect": "a layer the benchmark plan names for measurement",
}


def _scan():
    """(public names defined in src/hypmix, names used in src/hypmix or bench/)."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == SRC:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    defined.add(node.name)
                    if isinstance(node, ast.ClassDef):
                        defined.update(
                            item.name
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_no_public_name_is_reached_only_from_tests():
    defined, used = _scan()
    unreached = sorted(defined - used - REFERENCES.keys())
    assert not unreached, f"public names no library or benchmark code uses: {unreached}"


def test_every_reference_is_still_defined():
    defined, _ = _scan()
    assert REFERENCES.keys() <= defined, sorted(REFERENCES.keys() - defined)
