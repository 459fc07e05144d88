"""Build and load the compiled loops: one C source, one shared object.

The loops are ``cluster/_merge.c`` (the Lance–Williams merge loop) and
``core/_moves.c`` (LOCALSEARCH's relocation sweep).  On first use a source
is compiled with the system C compiler and fixed flags into an object named
by the source's stem and a hash of the source, the flags and the platform,
in the ``__pycache__`` beside the source or else in ``~/.cache/repro``
(created with mode 0700).  No object is loaded from a directory, or as a
file, that is not the current user's or that group or others can write to.
The compiler writes a temporary name that ``os.replace`` moves into place,
so forked workers and threads may race on the first call.  Without a
compiler, or when the build or the load fails, :func:`loops` is empty and
the caller's numpy loop runs.
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
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

#: No -ffast-math and no -march: the loops must round as numpy does.
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc", "clang")
#: Each source defines ``<name>_<suffix>`` for each working dtype.
SUFFIXES = ((np.dtype(np.float64), "f64"), (np.dtype(np.float32), "f32"))


def _cache_dirs(source: Path) -> list[Path]:
    """Where the object of ``source`` may be kept, in order of preference."""
    try:
        return [source.parent / "__pycache__", Path.home() / ".cache" / "repro"]
    except RuntimeError:  # no home directory
        return [source.parent / "__pycache__"]


def _private(path: Path) -> bool:
    """Whether ``path`` is the current user's and no one else can write to it."""
    try:
        info = path.lstat()
    except OSError:
        return False
    shared = info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    return not stat.S_ISLNK(info.st_mode) and info.st_uid == os.getuid() and not shared


def _build(source: Path, target: Path) -> bool:
    """Compile ``source`` to ``target``; whether that worked."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return False
    try:
        with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
            built = Path(scratch) / target.name
            command = [compiler, *FLAGS, "-o", str(built), str(source)]
            subprocess.run(command, capture_output=True, timeout=120, check=True)
            built.chmod(0o700)
            os.replace(built, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False


@functools.lru_cache(maxsize=None)
def library(source: Path) -> ctypes.CDLL | None:
    """The object compiled from ``source``, built first if need be; ``None``
    if none loads."""
    if os.name != "posix":
        return None
    key = hashlib.sha256(source.read_bytes())
    key.update(" ".join([*FLAGS, platform.system(), platform.machine()]).encode())
    name = f"{source.stem}-{key.hexdigest()[:16]}.so"
    for directory in _cache_dirs(source):
        target = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if (
                _private(directory)
                and (target.exists() or _build(source, target))
                and _private(target)
            ):
                return ctypes.CDLL(str(target))
        except OSError:
            continue
    return None


def loops(source: Path, name: str, argtypes: Sequence[Any], restype: Any) -> dict[np.dtype, Any]:
    """``source``'s loop ``name`` by working dtype, with its ctypes signature;
    empty if the object does not load."""
    compiled = library(source)
    if compiled is None:
        return {}
    typed: dict[np.dtype, Any] = {}
    for dtype, suffix in SUFFIXES:
        loop = getattr(compiled, f"{name}_{suffix}")
        loop.argtypes = list(argtypes)
        loop.restype = restype
        typed[dtype] = loop
    return typed
