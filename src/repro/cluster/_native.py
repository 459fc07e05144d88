"""Build and load the compiled Lance–Williams merge loop (``_merge.c``).

On first use the source is compiled with the system C compiler and fixed
flags into an object named by a hash of the source, the flags and the
platform, in the ``__pycache__`` beside the source or else in
``~/.cache/repro`` (created with mode 0700).  No object is loaded from a
directory, or as a file, that is not the current user's or that group or
others can write to.  The compiler writes a temporary name that
``os.replace`` moves into place, so forked workers and threads may race on
the first call.  Without a compiler, or when the build or the load fails,
:func:`merge_loops` is empty and the numpy loop runs.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

SOURCE = Path(__file__).with_name("_merge.c")
#: No -ffast-math and no -march: the loop must round as numpy does.
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc", "clang")


def _cache_dirs() -> list[Path]:
    """Where the object may be kept, in order of preference."""
    try:
        return [SOURCE.parent / "__pycache__", Path.home() / ".cache" / "repro"]
    except RuntimeError:  # no home directory
        return [SOURCE.parent / "__pycache__"]


def _private(path: Path) -> bool:
    """Whether ``path`` is the current user's and no one else can write to it."""
    try:
        info = path.lstat()
    except OSError:
        return False
    shared = info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    return not stat.S_ISLNK(info.st_mode) and info.st_uid == os.getuid() and not shared


def _build(target: Path) -> bool:
    """Compile the object to ``target``; whether that worked."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return False
    try:
        with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
            built = Path(scratch) / target.name
            command = [compiler, *FLAGS, "-o", str(built), str(SOURCE)]
            subprocess.run(command, capture_output=True, timeout=120, check=True)
            built.chmod(0o700)
            os.replace(built, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False


@functools.lru_cache(maxsize=None)
def merge_loops() -> dict[np.dtype, Any]:
    """The compiled loops by working dtype, built first if need be; empty if
    none loads.

    A loop takes the six arrays of a merge state and the merge list
    (pointers), then ``slots``, ``target``, the rule's index, whether to
    stop at ``threshold``, ``threshold``, an int64 scratch of ``2 * slots``
    entries and three int64 counts, and returns the slots in use at the end.
    """
    if os.name != "posix":
        return {}
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join([*FLAGS, platform.system(), platform.machine()]).encode())
    name = f"_merge-{key.hexdigest()[:16]}.so"
    for directory in _cache_dirs():
        target = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _private(directory) and (target.exists() or _build(target)) and _private(target):
                library = ctypes.CDLL(str(target))
                break
        except OSError:
            continue
    else:
        return {}
    arrays, count, flag = [ctypes.c_void_p] * 7, ctypes.c_int64, ctypes.c_int
    loops = {}
    for dtype, suffix in ((np.float64, "f64"), (np.float32, "f32")):
        loop = getattr(library, f"linkage_merge_{suffix}")
        loop.argtypes = [*arrays, count, count, flag, flag, ctypes.c_double, *arrays[:2]]
        loop.restype = count
        loops[np.dtype(dtype)] = loop
    return loops

