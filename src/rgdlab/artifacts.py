"""Every artifact's on-disk conventions, decided once.

Writes are atomic: a reader sees the old file or the whole new one.  JSON
documents are written with ``indent=1`` and a trailing newline; JSON-lines
files hold one compact object per line.  A file that cannot be decoded
raises ``ParseError`` naming the file, and for JSON-lines also the line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import uuid

from .errors import ParseError


@contextlib.contextmanager
def atomic_write(path):
    """Text handle on a temporary file next to ``path``, renamed onto it on success.

    If the body raises, the temporary file is removed and ``path`` keeps its
    previous state: absent, or with its old content.  An ``OSError`` on the
    temporary file (a missing directory, say) is raised naming ``path``.  A
    target that exists but is not a regular file (``/dev/stdout``, a pipe) is
    written directly.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            raise type(err)(err.errno, err.strerror, path) from None
        raise


def write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def json_text(doc, sort_keys: bool = False) -> str:
    """The text ``write_json`` writes, for writing one document to several files."""
    text = io.StringIO()
    json.dump(doc, text, indent=1, sort_keys=sort_keys)
    text.write("\n")
    return text.getvalue()


def write_json(path, doc, sort_keys: bool = False) -> None:
    write_text(path, json_text(doc, sort_keys))


def write_jsonl(path, docs) -> None:
    """One compact JSON object per line; nothing is written if one fails to encode."""
    write_text(path, "".join(json.dumps(doc) + "\n" for doc in docs))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ParseError(f"{path}: not valid JSON: {err}") from None


def read_jsonl(path, build, what: str) -> list:
    """``build(doc)`` for each non-blank line; all-or-nothing.

    A line that is not UTF-8 JSON, or that ``build`` rejects, raises
    ``ParseError`` naming the file and line number.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(build(json.loads(line.decode("utf-8"))))
            except (KeyError, TypeError, ValueError, AttributeError) as err:
                raise ParseError(f"{path}:{lineno}: bad {what}: {err}") from None
    return out
