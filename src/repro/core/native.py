"""Build, cache and load the package's C sources.

Each C source in this package (``_hamming.c``, ``_emd.c``) is compiled
on first use into a private per-user cache and loaded with ``ctypes``,
which releases the GIL for every call.  The kernels are required:
where no compiler is present, the build fails, a symbol is missing or
the cached file is not private to this user, :func:`load` raises
``ImportError``, so importing :mod:`repro.core` fails with the compiler
command and its error.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import stat
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["load"]

# -ffp-contract=off: no fused multiply-add may change a rounding, so the
# compiled float kernels give numpy's bits (the cost block and the
# objective sum follow numpy's order of operations).
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

# The compiler's last stderr bytes an ImportError quotes.
_STDERR_TAIL = 2000

# symbol: (restype, argtypes)
Signatures = Mapping[str, Tuple[Optional[type], Sequence[type]]]


def _default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _cpu_flags() -> bytes:
    """The ``flags`` line of /proc/cpuinfo (empty where there is none)."""
    try:
        with open("/proc/cpuinfo", "rb") as info:
            for line in info:
                if line.startswith(b"flags"):
                    return line
    except OSError:
        pass
    return b""


def _check_private(path: Path) -> None:
    """Refuse a library that another user could have swapped: one not
    owned by this user, or in a directory group or others can write."""
    uid = os.getuid()
    folder = os.stat(path.parent)
    if folder.st_uid != uid or folder.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"{path.parent} is not private to uid {uid}")
    info = os.lstat(path)
    if (
        info.st_uid != uid
        or not stat.S_ISREG(info.st_mode)
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(f"{path} is not a private file of uid {uid}")


def _compile(argv: Sequence[str], source: bytes, path: Path, stem: str) -> None:
    """Compile ``source`` into a temp file beside ``path``, then rename it
    into place, so processes that build at once never load half a file."""
    fd, tmp = tempfile.mkstemp(prefix=f".{stem}-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*argv, "-x", "c", "-", "-o", tmp],
            input=source, check=True, capture_output=True, timeout=120,
        )
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(
    source: str,
    signatures: Signatures,
    compiler: Optional[Sequence[str]] = None,
    cache_dir: Optional[Path] = None,
) -> List[Callable]:
    """The entry points of ``source`` (a C file beside this module), in
    the order of ``signatures``, compiled on first use into a per-user
    cache.  Every entry point comes from one file.  Raises
    ``ImportError``, naming the compiler argv and the tail of its
    stderr, where they cannot be built or loaded.

    The file name is the source's stem plus a hash of the source, the
    compiler argv, the machine and the CPU flags, so ``-march=native``
    code is only ever loaded on the CPU it was built for.
    """
    if not compiler:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    argv = [*compiler, *_CFLAGS]
    directory = cache_dir or _default_cache_dir()
    stem = Path(source).stem.lstrip("_")
    try:
        code = (Path(__file__).parent / source).read_bytes()
        key = hashlib.sha256(b"\0".join([
            code, shlex.join(argv).encode(), platform.machine().encode(), _cpu_flags(),
        ])).hexdigest()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        path = directory / f"{stem}-{key[:32]}.so"
        if not path.exists():
            _compile(argv, code, path, stem)
        _check_private(path)
        library = ctypes.CDLL(str(path))
        functions = [getattr(library, name) for name in signatures]
    except (OSError, AttributeError, subprocess.SubprocessError) as error:
        stderr = getattr(error, "stderr", None) or b""
        tail = stderr[-_STDERR_TAIL:].decode(errors="replace").strip()
        raise ImportError(
            f"cannot build or load {source} with `{shlex.join(argv)}` "
            f"(repro.core needs a C compiler): {error}"
            + (f"\n{tail}" if tail else "")
        ) from error
    for function, (restype, argtypes) in zip(functions, signatures.values()):
        function.argtypes = argtypes
        function.restype = restype
    return functions
