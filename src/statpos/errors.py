"""Exception hierarchy shared across the toolkit, and the one place that
opens files, so every file failure reaches the caller as an IoFailure."""

import contextlib
import io
import os


class StatposError(Exception):
    """Base class for all toolkit errors."""


class EmptyLine(StatposError):
    pass


class EmptySentence(StatposError):
    pass


class EmptyCorpus(StatposError):
    pass


class MalformedToken(StatposError):
    def __init__(self, line, index, reason):
        self.line = line
        self.index = index
        self.reason = reason
        super().__init__(f"malformed token at index {index} in {line!r}: {reason}")


class UnknownTag(StatposError):
    def __init__(self, tag, line=None, index=None):
        self.tag = tag
        self.line = line
        self.index = index
        msg = f"unknown tag {tag!r}"
        if line is not None:
            msg += f" at index {index} in {line!r}"
        super().__init__(msg)


class UnknownWord(StatposError):
    pass


class CorpusLineError(StatposError):
    """Wraps a parse error with its 1-based line number."""

    def __init__(self, lineno, cause):
        self.lineno = lineno
        self.cause = cause
        super().__init__(f"line {lineno}: {cause}")


class IoFailure(StatposError, OSError):
    pass


class InvalidConfig(StatposError, ValueError):
    """A smoothing or decoding setting outside its domain."""


class FormatVersionMismatch(StatposError):
    pass


class CorruptSection(StatposError):
    pass


class LengthMismatch(StatposError):
    def __init__(self, index=None):
        self.index = index
        super().__init__(
            "length mismatch" if index is None else f"length mismatch at sentence {index}"
        )


class SentenceCountMismatch(StatposError):
    pass


class WordMismatch(StatposError):
    def __init__(self, index, position):
        self.index = index
        self.position = position
        super().__init__(f"word mismatch at sentence {index}, position {position}")


class InstanceTooLarge(StatposError):
    pass


@contextlib.contextmanager
def text_file(source, mode="r"):
    """Yield a text stream for a path or an already open stream.

    A path is opened as UTF-8 and closed on exit; a stream is never closed,
    and one that yields bytes is read as strict UTF-8.  A path or byte stream
    read skips a leading byte order mark; writing adds none.  An OSError becomes an
    IoFailure.  In read mode a UnicodeDecodeError does too, naming this file:
    a write-mode stream does not claim the decode errors of another file read
    inside its block.
    """
    is_path = isinstance(source, (str, bytes, os.PathLike))
    name = os.fsdecode(source) if is_path else getattr(source, "name", "<stream>")
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    try:
        with contextlib.ExitStack() as stack:
            fh = stack.enter_context(open(source, mode, encoding=encoding)) if is_path else source
            # only probed in read mode: read(0) on a write-only stream raises
            if mode == "r" and isinstance(fh.read(0), bytes):
                fh = io.TextIOWrapper(fh, encoding=encoding)
                stack.callback(fh.detach)  # else collecting the wrapper closes the stream
            yield fh
    except IoFailure:
        raise
    except OSError as e:
        raise IoFailure(str(e)) from e
    except UnicodeDecodeError as e:
        if mode != "r":
            raise
        raise IoFailure(f"{name}: not UTF-8 text ({e.reason})") from e
