import os
import subprocess
import sys
import textwrap
import types
from collections import Counter
from pathlib import Path

import pytest

import pentachrome
from pentachrome import chroma, symmetry
from pentachrome.polytope import build_polytope

_PACKAGE = str(Path(pentachrome.__file__).parent) + os.sep


def _keys(code, module):
    """The "module.function" key of code and of each function inside it."""
    yield f"{module}.{code.co_name}"
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _keys(const, module)


_FUNCTIONS = {key for path in Path(_PACKAGE).glob("*.py")
              for key in _keys(compile(path.read_text(), str(path), "exec"), path.stem)}


class _Calls(Counter):
    """A run's census: 0 for a package function it did not enter, and
    KeyError for a key that names none, so a count of 0 is not a typo."""

    def __missing__(self, key):
        if key not in _FUNCTIONS:
            raise KeyError(f"no function of the package is keyed {key!r}")
        return 0


def _memos():
    """Every memo of the package: each object with `cache_clear` in a
    `pentachrome` module, found afresh on each call, so no list names them."""
    found = {id(obj): obj for name, module in list(sys.modules.items())
             if name.startswith("pentachrome.")
             for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    return list(found.values())


@pytest.fixture
def memos():
    return _memos()


@pytest.fixture(scope="session")
def census():
    """`census(*runs)` empties every memo of the package once, then calls
    each run and returns, for each, the package functions it entered and
    how often, keyed "module.function".  A memo's function is entered only
    on a miss, so `chroma._signature` counts face readings.  The counts are
    the Python-level "call" events a `sys.setprofile` hook sees; the
    previous hook is back when the runs are done."""

    def count(*runs):
        for memo in _memos():
            memo.cache_clear()
        counts, previous = [], sys.getprofile()
        try:
            for run in runs:
                codes = Counter()

                def hook(frame, event, arg):
                    if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
                        codes[frame.f_code] += 1

                sys.setprofile(hook)
                run()
                sys.setprofile(previous)
                calls = _Calls()
                for code, n in codes.items():
                    key = f"{Path(code.co_filename).stem}.{code.co_name}"
                    calls[key] = calls.get(key, 0) + n
                counts.append(calls)
        finally:
            sys.setprofile(previous)
        return counts

    return count


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
