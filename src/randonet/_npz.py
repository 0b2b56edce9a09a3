"""The ``.npz`` files of the package, model files and dataset cache files:
one writer that replaces a file only once the new one is whole, and one
reader that turns every way a file can fail to be ours into a
``ValueError`` naming the file and the entry. This module imports no other
module of the package."""

from __future__ import annotations

import contextlib
import os
import uuid
import zipfile

import numpy as np


def write_replacing(path, write) -> None:
    """Call ``write`` on a new file next to ``path``, then move that file onto
    ``path``, so readers never see a partial file and a failed write leaves
    the file it was replacing whole. The new file has the mode a plain
    ``open(path, "wb")`` gives a new file (``mkstemp`` would make it 0600).
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def entries(path, what: str):
    """Yield ``entry(name, convert)``, which returns ``convert`` of the array
    stored under ``name`` in the ``.npz`` archive at ``path`` (a path or an
    open binary file). A file that is not such an archive, a missing entry
    and an entry that cannot be read or that ``convert`` rejects with
    ``TypeError`` or ``ValueError`` raise ``ValueError("{path} is not a
    randonet {what}: ...")`` naming the entry."""
    def not_ours(reason) -> ValueError:
        return ValueError(f"{path} is not a randonet {what}: {reason}")

    # Our own handle for a path: np.load leaks its file when a truncated zip makes it raise.
    with (contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb")) as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise not_ours(exc) from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise not_ours("a single array, not an .npz archive")

        def entry(name: str, convert=np.asarray):
            if name not in data.files:
                raise not_ours(f"no {name} entry")
            try:
                return convert(data[name])
            except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise not_ours(f"{name}: {exc}") from None

        with data:
            yield entry
