"""All-or-nothing output files: a failed run leaves no truncated or half-updated set."""

import contextlib
import errno
import os
from typing import Mapping


def write_all(docs: Mapping[str, str]) -> None:
    """Write each ``path -> text`` pair with LF line endings, or none of them.

    Each text is staged in a temporary file beside its target and no target is
    replaced until all are staged; on any error the temporaries are removed.
    """
    staged: list[tuple[str, str]] = []
    try:
        for path, text in docs.items():
            if os.path.isdir(path):  # would fail only at the rename, after earlier targets
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                staged.append((tmp, path))
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
