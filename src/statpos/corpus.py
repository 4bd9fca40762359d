"""Reading and writing the word/TAG corpus format.

One sentence per line, tokens separated by whitespace, each token is
word + '/' + TAG split at the *last* slash so words may themselves contain
slashes.  A tagged sentence is a list of (word, tag) tuples; a raw sentence
is a list of words.
"""

from .errors import (
    CorpusLineError,
    EmptyLine,
    MalformedToken,
    UnknownTag,
    text_file,
)


def parse_tagged_line(line, tagset):
    """Parse one corpus line into a list of (word, tag) pairs."""
    tokens = line.split()
    if not tokens:
        raise EmptyLine(f"no tokens in {line!r}")
    sentence = []
    for i, token in enumerate(tokens):
        word, sep, tag = token.rpartition("/")
        if not sep:
            raise MalformedToken(line, i, f"no '/' in {token!r}")
        if not word:
            raise MalformedToken(line, i, f"empty word in {token!r}")
        if not tag:
            raise MalformedToken(line, i, f"empty tag in {token!r}")
        if tag not in tagset:
            raise UnknownTag(tag, line, i)
        sentence.append((word, tag))
    return sentence


def serialize_tagged_sentence(sentence):
    return " ".join(f"{word}/{tag}" for word, tag in sentence)


def load_corpus(source, tagset, strict=True):
    """Load tagged sentences from a path, text stream, or byte stream.

    Blank lines are ignored.  Returns (sentences, skipped): in strict mode
    the first bad line raises CorpusLineError (skipped is always 0); in
    lenient mode bad lines are skipped and counted.
    """
    with text_file(source) as fh:
        return _load_stream(fh, tagset, strict)


def _load_stream(fh, tagset, strict):
    sentences = []
    skipped = 0
    lineno = 0
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            try:
                sentences.append(parse_tagged_line(line, tagset))
            except (EmptyLine, MalformedToken, UnknownTag) as e:
                if strict:
                    raise CorpusLineError(lineno, e) from e
                skipped += 1
    except UnicodeDecodeError as e:
        # raised while decoding the chunk that follows the last line read
        bad = lineno + 1 + e.object.count(b"\n", 0, e.start)
        raise CorpusLineError(bad, f"not UTF-8 text ({e.reason})") from e
    return sentences, skipped


def save_corpus(sentences, sink):
    """Write tagged sentences, one per line.  Accepts a path or text stream."""
    with text_file(sink, "w") as fh:
        for s in sentences:
            fh.write(serialize_tagged_sentence(s) + "\n")


def tokenize_raw_line(line):
    """Split a pre-tokenized raw line on whitespace runs."""
    words = line.split()
    if not words:
        raise EmptyLine(f"no tokens in {line!r}")
    return words
