"""Tagset registry.

Tags are plain uppercase-ASCII strings.  Two sentinel labels START/END pad
sentence boundaries internally; they are never valid in corpus files and are
excluded from every user-visible tagset.
"""

from .errors import StatposError, text_file

START = "START"
END = "END"

# Serialized spellings of the sentinels in model files.  Corpus words equal to
# these strings are rejected at build time so model files stay unambiguous.
START_SERIALIZED = "<S>"
END_SERIALIZED = "</S>"

# IIIT-Hyderabad-derived Marathi tagset (23 labels).
DEFAULT_TAGS = [
    "NN", "NST", "NNP", "PRP", "DEM", "VM", "VAUX", "JJ", "RB", "PSP",
    "RP", "QF", "QC", "CC", "WQ", "QO", "INTF", "INJ", "NEG", "SYM",
    "XC", "RDP", "UNK",
]

# Tags that freely admit new members; used by the unknown-word policy.
DEFAULT_OPEN_CLASS_TAGS = frozenset({"NN", "NNP", "VM", "JJ", "RB", "QC", "XC", "UNK"})


class InvalidTagLabel(StatposError):
    pass


def _check_label(label):
    if not label:
        raise InvalidTagLabel("empty tag label")
    if any(c.isspace() for c in label) or "/" in label:
        raise InvalidTagLabel(f"tag label {label!r} contains whitespace or '/'")
    if label in (START, END):
        raise InvalidTagLabel(f"{label!r} is a reserved sentinel")
    if label.startswith("count="):
        raise InvalidTagLabel(f"{label!r} would read as a model-file section terminator")


class Tagset:
    """Ordered, duplicate-free set of tag labels with membership checks."""

    def __init__(self, tags=None):
        tags = list(DEFAULT_TAGS) if tags is None else list(tags)
        seen = set()
        for label in tags:
            _check_label(label)
            if label in seen:
                raise InvalidTagLabel(f"duplicate tag label {label!r}")
            seen.add(label)
        self.tags = tags
        self._members = seen

    def __contains__(self, label):
        return label in self._members

    def __iter__(self):
        return iter(self.tags)

    def __len__(self):
        return len(self.tags)

    def __eq__(self, other):
        return isinstance(other, Tagset) and self.tags == other.tags

    def sorted_labels(self):
        """Labels in lexicographic order; the canonical tie-break ordering."""
        return sorted(self.tags)

    @classmethod
    def from_file(cls, path):
        """Read a tagset file: one label per line, '#' comments ignored."""
        with text_file(path) as fh:
            lines = [raw.strip() for raw in fh]
        return cls(line for line in lines if line and not line.startswith("#"))


def default_tagset():
    return Tagset(DEFAULT_TAGS)
