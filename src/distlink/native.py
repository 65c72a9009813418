"""The package's compiled kernels (_kernel.c): the matrix reader, which
converts decimal fields exactly in 128-bit integer arithmetic where the
compiler has it and with strtod otherwise, the product build and the
root level of the split clique search.

kernel() builds the library with cc on first use into the package's
__pycache__ and loads it with ctypes.  The library is named by the SHA-256
of the source and the compile command together, so a change to either
builds a new one.  A build goes through a temporary name and an atomic
rename, so racing processes each leave a whole library, and the library
ends in the SHA-256 of its other bytes, so a damaged copy, which the
loader could map and crash on, is found and rebuilt.  Without a compiler,
or when the build or the load fails, kernel() is None and every caller
runs its numpy code, with the same results; that code stays as the
kernels' oracle.  Callers reach the kernels only on inputs too large for
numpy to handle quickly, so small inputs never start the compiler.
"""

from __future__ import annotations

import functools
import hashlib
import os
from pathlib import Path

#: the C source of the compiled kernels, and the directory their library is
#: built into
KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
KERNEL_CACHE = Path(__file__).with_name("__pycache__")

#: the compile command, less its output and source paths
COMPILE = ("cc", "-O2", "-shared", "-fPIC")


@functools.cache
def kernel():
    """The compiled kernels, loaded on first use, or None where they cannot
    be built or loaded."""
    import subprocess
    try:
        return load_kernel(KERNEL_CACHE)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def load_kernel(cache: Path):
    """KERNEL_SOURCE's library in cache, built there first unless a whole
    copy is there."""
    import ctypes
    import subprocess
    source = KERNEL_SOURCE.read_bytes()
    name = hashlib.sha256(repr(COMPILE).encode() + b"\0" + source).hexdigest()
    lib = cache / f"_kernel.{name}.so"
    if not intact(lib):
        cache.mkdir(exist_ok=True)
        tmp = lib.with_suffix(f".{os.getpid()}.tmp")
        try:
            subprocess.run([*COMPILE, "-o", str(tmp), str(KERNEL_SOURCE)],
                           check=True, capture_output=True, timeout=120)
            with tmp.open("ab") as fh:
                fh.write(hashlib.sha256(tmp.read_bytes()).digest())
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        if not intact(lib):
            raise OSError(f"{lib}: damaged after its build")
    kernels = ctypes.CDLL(str(lib))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for fn, restype, argtypes in (
            (kernels.read_matrix, i64, [ctypes.c_char_p, i64, i64, i64, ptr]),
            (kernels.group_pairs, None, [i64, ptr, ptr, i64, ptr, i64] + [ptr] * 5),
            (kernels.join, i64, [i64] + [ptr] * 8 + [f64, f64] + [ptr] * 3),
            (kernels.csr_order, None, [i64] + [ptr] * 4),
            (kernels.branches, i64, [ptr] * 5 + [i64, i64] + [ptr] * 4),
            (kernels.local_colour, i64, [i64, ptr, ptr, i64, i64] + [ptr] * 3),
            (kernels.root_colour, None, [i64] + [ptr] * 8)):
        fn.restype, fn.argtypes = restype, argtypes
    return kernels


def intact(lib: Path) -> bool:
    """Whether lib is there and ends in the SHA-256 of its other bytes."""
    try:
        data = lib.read_bytes()
    except OSError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]
