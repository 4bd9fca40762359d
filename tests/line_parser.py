"""A line-by-line model-file parser: the reference for counts.load_model.

It reads the file one line at a time and checks each record on its own.
load_model must return an equal model, or raise the same exception with the
same message, for every input.
"""

import re

from statpos.counts import _HEADER_PREFIX, _SECTIONS, MODEL_HEADER, CountsModel
from statpos.errors import CorruptSection, FormatVersionMismatch, text_file
from statpos.tagset import Tagset

_TERMINATOR = re.compile(r"count=([0-9]+)")


def load_model_by_lines(source):
    with text_file(source) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise CorruptSection("empty model file")
    header = lines[0]
    if header != MODEL_HEADER:
        if header.startswith(_HEADER_PREFIX):
            version = header[len(_HEADER_PREFIX):]
            raise FormatVersionMismatch(f"unsupported model version {version!r}")
        raise CorruptSection(f"bad header {header!r}")

    sections = {}
    rest = iter(lines[1:])
    for head in rest:
        if not (head.startswith("[") and head.endswith("]")):
            raise CorruptSection(f"expected section header, got {head!r}")
        name, records = head[1:-1], []
        for line in rest:
            if line.startswith("count=") and (terminator := _TERMINATOR.fullmatch(line)):
                break
            records.append(line.split("\t"))
        else:
            raise CorruptSection(f"section {name!r} missing count terminator")
        declared = int(terminator.group(1))
        if declared != len(records):
            raise CorruptSection(
                f"section {name!r} declares {declared} records, found {len(records)}")
        if name not in _SECTIONS:
            raise CorruptSection(f"unknown section [{name}]")
        if name in sections:
            raise CorruptSection(f"repeated section [{name}]")
        sections[name] = records

    for name in _SECTIONS:
        if name not in sections:
            raise CorruptSection(f"missing section [{name}]")

    def table(name, width):
        """{key: count} for a section, each key as written."""
        out = {}
        for rec in sections[name]:
            if len(rec) != width or not (rec[-1].isascii() and rec[-1].isdigit()):
                raise CorruptSection(f"bad record {rec!r}")
            out[rec[0] if width == 2 else tuple(rec[:-1])] = int(rec[-1])
        if len(out) != len(sections[name]):
            raise CorruptSection(f"section [{name}] repeats a key")
        return out

    for rec in sections["tagset"]:
        if len(rec) != 1:
            raise CorruptSection(f"bad record {rec!r}")
    model = CountsModel(Tagset(rec[0] for rec in sections["tagset"]),
                        table("word_tag", 3), table("trigram", 4))
    for name, width, derived in (("tag", 2, model.tag_count),
                                 ("bigram", 3, model.tag_bigram_count)):
        if table(name, width) != derived:
            raise CorruptSection(f"section [{name}] disagrees with [word_tag] and [trigram]")
    return model
