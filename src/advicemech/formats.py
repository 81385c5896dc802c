"""Instance file format: a small JSON document whose numbers travel as
strings ('3', '-0.25' or 'p/q'), so parsing is exact and serialization
round-trips instances bit for bit."""

from __future__ import annotations

import json
from fractions import Fraction

from .model import (
    ConstantClass,
    Instance,
    InvalidInstanceError,
    LabelingsClass,
    LinearClass,
    REALS,
    ValueDomain,
    constant_instance,
    linear_instance,
    shared_binary_instance,
)


class InstanceParseError(ValueError):
    """Malformed instance document; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# The largest exponent, in absolute value, a number token may carry ('1e400'):
# Fraction expands 10**exponent in full, so '1e99999999' would run for minutes.
EXPONENT_MAX = 1000


def parse_number(token, what="number") -> Fraction:
    """The exact value of a number token: an int, or a string such as '3',
    '-0.25', '2/7' or '1e-3' whose exponent is at most EXPONENT_MAX in
    absolute value.  Anything else is an InstanceParseError naming `what`
    and the token.  Instance files, the CLI's numeric options and `gen`'s
    parameters all parse here."""
    if isinstance(token, bool) or not isinstance(token, (str, int)):
        raise InstanceParseError(f"{what} {token!r} is not a string or an integer")
    text = str(token).strip()
    try:  # the exponent is the int after an 'e', if any
        if abs(int(text.lower().partition("e")[2] or 0)) <= EXPONENT_MAX:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceParseError(f"{what} {text!r} is not a number") from None
    raise InstanceParseError(f"{what} {text!r} has an exponent beyond {EXPONENT_MAX}")


def format_number(x) -> str:
    """`x` as 'p' or 'p/q'; a numerator or denominator past the
    interpreter's int-to-str digit limit is an InstanceParseError."""
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        cause = str(exc).partition(";")[0]  # not its hint to raise the limit
        raise InstanceParseError(f"a number is too long to print: {cause}") from None


def _parse_binary_vector(raw, what):
    if isinstance(raw, str):
        seq = list(raw)
    elif isinstance(raw, list):
        seq = raw
    else:
        raise InstanceParseError(f"{what} must be a 0/1 string or list")
    out = []
    for c in seq:
        if str(c) not in ("0", "1"):
            raise InstanceParseError(f"{what} entries must be 0 or 1, got {c!r}")
        out.append(int(str(c)))
    return tuple(out)


def parse_instance(text: str) -> Instance:
    """Parse an instance document; raises InstanceParseError with a line
    number on malformed JSON, and one for a document nested deeper than
    the interpreter's recursion limit, which the JSON decoder, or a repr
    in an error message, would meet as a RecursionError."""
    try:
        return _parse_document(text)
    except RecursionError:
        raise InstanceParseError("document is nested too deeply") from None


def _parse_document(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(exc.msg, line=exc.lineno) from exc
    if not isinstance(doc, dict) or "class" not in doc:
        raise InstanceParseError("document must be an object with a 'class' tag")
    tag = doc["class"]
    try:
        if tag == "constant":
            domain_spec = doc.get("domain", "reals")
            if domain_spec == "reals":
                domain = REALS
            elif isinstance(domain_spec, list):
                domain = ValueDomain.finite(parse_number(v, "domain value") for v in domain_spec)
            else:
                raise InstanceParseError(
                    "domain must be 'reals' or a list of values"
                )
            agents = [
                [parse_number(y, "label") for y in labels] for labels in doc["agents"]
            ]
            return constant_instance(agents, domain)
        if tag == "homogeneous_linear":
            agents = [
                [(parse_number(x, "x"), parse_number(y, "label")) for x, y in pairs]
                for pairs in doc["agents"]
            ]
            return linear_instance(agents)
        if tag == "labelings":
            labelings = [
                _parse_binary_vector(v, "labeling") for v in doc["labelings"]
            ]
            vectors = [
                _parse_binary_vector(v, "agent labels") for v in doc["agents"]
            ]
            return shared_binary_instance(vectors, labelings)
    except InstanceParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInstanceError):
            raise
        raise InstanceParseError(f"malformed {tag} document: {exc}") from exc
    raise InstanceParseError(f"unknown class tag {tag!r}")


def serialize_instance(instance: Instance) -> str:
    cls = instance.function_class
    if isinstance(cls, ConstantClass):
        doc = {
            "class": "constant",
            "domain": "reals"
            if cls.domain.is_reals
            else [format_number(v) for v in cls.domain.values],
            "agents": [[format_number(y) for y in a.labels] for a in instance.agents],
        }
    elif isinstance(cls, LinearClass):
        doc = {
            "class": "homogeneous_linear",
            "agents": [
                [[format_number(x), format_number(y)] for x, y in zip(a.xs, a.labels)]
                for a in instance.agents
            ],
        }
    elif isinstance(cls, LabelingsClass):
        doc = {
            "class": "labelings",
            "labelings": ["".join(str(y) for y in v) for v in cls.labelings],
            "agents": ["".join(str(y) for y in a.labels) for a in instance.agents],
        }
    else:
        raise TypeError(f"unknown function class {cls!r}")
    return json.dumps(doc, indent=2) + "\n"


def read_text(path) -> str:
    """The UTF-8 text of the file at `path`; a file that cannot be read
    (missing, a directory, not UTF-8) is an InstanceParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InstanceParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_instance(path) -> Instance:
    return parse_instance(read_text(path))
