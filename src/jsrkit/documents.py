"""Versioned matrix-set documents and reproducible run reports.

An input document is a single JSON object with a "format" field, a
dimension, a scalar field marker, and the member matrices: complex entries
travel as [re, im] decimal pairs (no locale or parsing ambiguity), exact
rational entries as "a/b" strings.  ``InputDocument.parse`` checks every
field, naming the offending one in its ParseError, and builds the set the
document describes: a ``MatrixSet`` or a ``PAdicMatrixSet``.  The document
holds that set with its labels and metadata and reads dimension, field and
prime from it; emission serialises the set's stack, so it is canonical:
parse(emit(doc)) emits byte-identical text, and the sha256 of that text
identifies the input in reports.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .core import DIM_CAP, JsrError, MatrixSet
from .ultrametric import PAdicMatrixSet, as_rational, is_prime

__all__ = [
    "FORMAT_VERSION",
    "InputDocument",
    "ParseError",
    "RunReport",
]

FORMAT_VERSION = 1


class ParseError(JsrError):
    """Malformed input document; the message names the offending field."""


def _emit(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fail(path: str, message: str):
    raise ParseError(f"{path}: {message}")


def _canonical_complex(entry, path: str) -> list:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
    ):
        _fail(path, "expected an [re, im] pair of numbers")
    try:
        re, im = float(entry[0]), float(entry[1])
    except OverflowError:  # an integer beyond the float range
        _fail(path, "entries must be finite")
    if not (math.isfinite(re) and math.isfinite(im)):
        _fail(path, "entries must be finite")
    return [re, im]


def _canonical_rational(entry, path: str) -> Fraction:
    if isinstance(entry, bool) or not isinstance(entry, (int, str)):
        _fail(path, "expected an integer or an 'a/b' string")
    try:
        return as_rational(entry)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(path, f"not a rational: {exc}")


@dataclass(frozen=True, eq=False)
class InputDocument:
    """A matrix set with the labels and metadata its document carries.

    ``matrices`` is a ``MatrixSet`` (field "complex") or a
    ``PAdicMatrixSet`` (field "rational_padic"); the document's dimension,
    field and prime are read from it, and emission serialises its stack.
    """

    matrices: MatrixSet | PAdicMatrixSet
    labels: tuple | None = None
    meta: dict | None = None

    def __post_init__(self):
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.matrices.size:
                raise ValueError(
                    f"expected {self.matrices.size} labels, got {len(labels)}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.matrices.dim

    @property
    def field_kind(self) -> str:
        return "complex" if isinstance(self.matrices, MatrixSet) else "rational_padic"

    @property
    def prime(self) -> int | None:
        return None if isinstance(self.matrices, MatrixSet) else self.matrices.prime

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "InputDocument":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(obj, dict):
            raise ParseError("document: expected a JSON object")
        if obj.get("format") != FORMAT_VERSION:
            _fail("format", f"expected {FORMAT_VERSION}, got {obj.get('format')!r}")

        dim = obj.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= DIM_CAP:
            _fail("dim", f"expected an integer in [1, {DIM_CAP}], got {dim!r}")

        field = obj.get("field")
        prime = None
        if field == "complex":
            kind = "complex"
        elif isinstance(field, dict) and field.get("kind") == "rational_padic":
            kind = "rational_padic"
            prime = field.get("prime")
            if isinstance(prime, bool) or not isinstance(prime, int) or not is_prime(prime):
                _fail("field.prime", f"expected a prime, got {prime!r}")
        else:
            _fail(
                "field",
                "expected \"complex\" or {\"kind\": \"rational_padic\", \"prime\": p}",
            )

        raw_members = obj.get("members")
        if not isinstance(raw_members, list) or not raw_members:
            _fail("members", "expected a nonempty list of matrices")
        entry = _canonical_complex if kind == "complex" else _canonical_rational
        members = []
        for mi, mat in enumerate(raw_members):
            if not isinstance(mat, list) or len(mat) != dim:
                _fail(f"members[{mi}]", f"expected {dim} rows")
            rows = []
            for ri, row in enumerate(mat):
                if not isinstance(row, list) or len(row) != dim:
                    _fail(f"members[{mi}][{ri}]", f"expected {dim} entries")
                rows.append(
                    [entry(x, f"members[{mi}][{ri}][{ci}]") for ci, x in enumerate(row)]
                )
            members.append(rows)

        labels = obj.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or len(labels) != len(members) or any(
                not isinstance(x, str) for x in labels
            ):
                _fail("labels", "expected one string per member")

        meta = obj.get("meta")
        if meta is not None and not isinstance(meta, dict):
            _fail("meta", "expected an object")

        if kind == "complex":
            # [re, im] float pairs viewed as complex keep signed zeros exactly
            pairs = np.array(members, dtype=np.float64)
            return cls(MatrixSet(pairs.view(np.complex128)[..., 0]), labels, meta)
        return cls(PAdicMatrixSet(members, prime), labels, meta)

    # -- conversion ------------------------------------------------------

    def to_matrix_set(self) -> MatrixSet:
        if self.field_kind != "complex":
            raise ParseError("field: this command needs a complex-field document")
        return self.matrices

    def to_padic_set(self) -> PAdicMatrixSet:
        if self.field_kind != "rational_padic":
            raise ParseError("field: this command needs a rational_padic document")
        return self.matrices

    # -- emission ----------------------------------------------------------

    def to_json_obj(self) -> dict:
        stack = self.matrices.stack
        if self.field_kind == "complex":
            field = "complex"
            members = np.stack([stack.real, stack.imag], axis=-1).tolist()
        else:
            field = {"kind": "rational_padic", "prime": self.prime}
            members = [[[str(x) for x in row] for row in m] for m in stack.tolist()]
        obj = {"format": FORMAT_VERSION, "dim": self.dim, "field": field, "members": members}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        if self.meta is not None:
            obj["meta"] = self.meta
        return obj

    def emit(self) -> str:
        return _emit(self.to_json_obj())

    def digest(self) -> str:
        return hashlib.sha256(self.emit().encode()).hexdigest()


@dataclass(frozen=True)
class RunReport:
    """One command invocation's structured output.

    Re-running with the same input, config, and seed reproduces every field
    except wall_time_s.
    """

    tool: str
    version: str
    command: str
    input_digest: str
    config: dict
    seed: int | None
    results: dict
    wall_time_s: float

    def emit(self) -> str:
        return _emit(asdict(self))
