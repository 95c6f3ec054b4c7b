import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pentachrome
from pentachrome import chroma, compound, symmetry
from pentachrome.polytope import build_polytope


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test starts with the package's memos empty, so no count a test
    pins depends on which tests ran before it."""
    for memo in (chroma._checkpoints, chroma._signature, compound._classify):
        memo.cache_clear()


@pytest.fixture(scope="session")
def model():
    return build_polytope()


@pytest.fixture(scope="session")
def edges(model):
    """The 30 edges the rings state: (u, w), u < w, with w in u's ring, sorted."""
    return tuple(sorted((u, w) for u, ring in enumerate(model.adjacency) for w in ring if u < w))


@pytest.fixture(scope="session")
def opposite_faces(model):
    """face id -> the id of the face its antipodal image is."""
    faces = [set(f) for f in model.faces]
    return tuple(faces.index({model.antipode[v] for v in f}) for f in model.faces)


@pytest.fixture(scope="session")
def colourings(model):
    return chroma.enumerate_colourings(model)


@pytest.fixture(scope="session")
def rotations(model):
    return symmetry.rotation_group(model)


@pytest.fixture(scope="session")
def full_symmetries(model):
    return symmetry.full_group(model)


@pytest.fixture(scope="session")
def run_python():
    """Run code in a fresh interpreter that imports this copy of pentachrome."""
    src = str(Path(pentachrome.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(code, *args, flags=()):
        return subprocess.run(
            [sys.executable, *flags, "-c", textwrap.dedent(code), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    return run
