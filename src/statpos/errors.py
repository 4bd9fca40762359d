"""Exception hierarchy shared across the toolkit, and the one place that
opens files, so every file failure reaches the caller as an IoFailure."""

import contextlib
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

    A path is opened as UTF-8 and closed on exit; a stream is used as is and
    never closed.  An OSError becomes an IoFailure.  In read mode a
    UnicodeDecodeError does too, naming this file: a write-mode stream does
    not claim the decode errors of another file read inside its block.
    """
    is_path = isinstance(source, (str, bytes, os.PathLike))
    name = os.fsdecode(source) if is_path else getattr(source, "name", "<stream>")
    try:
        with (open(source, mode, encoding="utf-8") if is_path
              else contextlib.nullcontext(source)) as fh:
            yield fh
    except IoFailure:
        raise
    except OSError as e:
        raise IoFailure(str(e)) from e
    except UnicodeDecodeError as e:
        if mode != "r":
            raise
        raise IoFailure(f"{name}: not UTF-8 text ({e.reason})") from e
