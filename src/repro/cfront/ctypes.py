"""Type representation for the mini-C subset.

A *qualified type* (:class:`QualType`) pairs an unqualified C type shape
(:class:`CType` subclasses) with an optional sharing :class:`Mode`.  A
``None`` mode means "not annotated yet" — the inference phase of Section 4.1
assigns each such position a qualifier variable and ultimately a concrete
mode.

Sizes and alignments follow a conventional LP64 model: this is what the
interpreter's address space and the 16-byte shadow granularity are computed
against, matching the paper's x86 setting closely enough for every
experiment (only relative layout matters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import Loc
from repro.sharc.modes import Mode

POINTER_SIZE = 8

PRIM_SIZES = {
    "void": 1,  # sizeof(void) is used only by malloc-style arithmetic
    "char": 1,
    "unsigned char": 1,
    "short": 2,
    "unsigned short": 2,
    "int": 4,
    "unsigned int": 4,
    "long": 8,
    "unsigned long": 8,
    "float": 4,
    "double": 8,
}


class CType:
    """Base class of unqualified type shapes."""

    def size(self, structs: "StructTable") -> int:
        raise NotImplementedError

    def align(self, structs: "StructTable") -> int:
        raise NotImplementedError

    def shape_key(self) -> tuple:
        """A hashable key identifying the shape, ignoring sharing modes.

        Used for function-pointer aliasing ("a function pointer may alias
        any function of the appropriate type", Section 4.1) and for the
        SCAST base-type-equality requirement.
        """
        raise NotImplementedError


@dataclass
class Prim(CType):
    """A primitive type such as ``int`` or ``unsigned long``."""

    name: str

    def size(self, structs: "StructTable") -> int:
        return PRIM_SIZES[self.name]

    def align(self, structs: "StructTable") -> int:
        return PRIM_SIZES[self.name]

    def shape_key(self) -> tuple:
        return ("prim", self.name)

    def __str__(self) -> str:
        return self.name

    @property
    def is_void(self) -> bool:
        return self.name == "void"

    @property
    def is_integral(self) -> bool:
        return self.name not in ("float", "double", "void")

    @property
    def is_floating(self) -> bool:
        return self.name in ("float", "double")


@dataclass
class PtrType(CType):
    """A pointer; its *target* carries a (possibly unannotated) mode."""

    target: "QualType"

    def size(self, structs: "StructTable") -> int:
        return POINTER_SIZE

    def align(self, structs: "StructTable") -> int:
        return POINTER_SIZE

    def shape_key(self) -> tuple:
        return ("ptr", self.target.base.shape_key())

    def __str__(self) -> str:
        return f"{self.target} *"


@dataclass
class ArrayType(CType):
    """A fixed-size array.  The paper treats an array as one object of its
    base type (Section 4.1), so the element mode is the array's mode."""

    elem: "QualType"
    length: Optional[int] = None

    def size(self, structs: "StructTable") -> int:
        if self.length is None:
            return POINTER_SIZE
        return self.elem.base.size(structs) * self.length

    def align(self, structs: "StructTable") -> int:
        return self.elem.base.align(structs)

    def shape_key(self) -> tuple:
        return ("array", self.elem.base.shape_key(), self.length)

    def __str__(self) -> str:
        length = "" if self.length is None else str(self.length)
        return f"{self.elem}[{length}]"


@dataclass
class StructType(CType):
    """A named struct (fields live in the :class:`StructTable`)."""

    name: str

    def size(self, structs: "StructTable") -> int:
        return structs.layout(self.name).size

    def align(self, structs: "StructTable") -> int:
        return structs.layout(self.name).align

    def shape_key(self) -> tuple:
        return ("struct", self.name)

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass
class FuncType(CType):
    """A function type (used both for declarations and function pointers)."""

    ret: "QualType"
    params: list["QualType"] = field(default_factory=list)
    varargs: bool = False

    def size(self, structs: "StructTable") -> int:
        return POINTER_SIZE

    def align(self, structs: "StructTable") -> int:
        return POINTER_SIZE

    def shape_key(self) -> tuple:
        return ("func", self.ret.base.shape_key(),
                tuple(p.base.shape_key() for p in self.params), self.varargs)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.varargs:
            params = params + ", ..." if params else "..."
        return f"{self.ret} (*)({params})"


_next_qvar = [0]


def fresh_qvar() -> int:
    """Allocates a fresh qualifier-variable id for inference."""
    _next_qvar[0] += 1
    return _next_qvar[0]


@dataclass
class QualType:
    """A type shape plus a sharing mode.

    ``mode is None`` means the position is unannotated.  ``explicit`` is
    True when the mode came from the programmer (these are the annotations
    counted in Table 1) rather than from defaulting or inference.  ``qvar``
    identifies the position in the inference constraint graph.
    """

    base: CType
    mode: Optional[Mode] = None
    explicit: bool = False
    qvar: Optional[int] = None
    loc: Loc = field(default_factory=Loc)

    def __str__(self) -> str:
        mode = f" {self.mode}" if self.mode is not None else ""
        if isinstance(self.base, PtrType):
            return f"{self.base.target} *{mode}".replace("* ", "*")
        return f"{self.base}{mode}"

    # -- structure helpers -----------------------------------------------

    @property
    def is_pointer(self) -> bool:
        return isinstance(self.base, PtrType)

    @property
    def is_array(self) -> bool:
        return isinstance(self.base, ArrayType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self.base, StructType)

    @property
    def is_void_ptr(self) -> bool:
        return (isinstance(self.base, PtrType)
                and isinstance(self.base.target.base, Prim)
                and self.base.target.base.is_void)

    @property
    def is_integral(self) -> bool:
        return isinstance(self.base, Prim) and self.base.is_integral

    @property
    def is_arith(self) -> bool:
        return isinstance(self.base, Prim) and not self.base.is_void

    def pointee(self) -> "QualType":
        """The target type of a pointer, or element type of an array."""
        if isinstance(self.base, PtrType):
            return self.base.target
        if isinstance(self.base, ArrayType):
            return self.base.elem
        raise ValueError(f"{self} is not a pointer or array")

    def walk(self) -> Iterator["QualType"]:
        """Yields this qualified type and all nested qualified positions."""
        yield self
        if isinstance(self.base, PtrType):
            yield from self.base.target.walk()
        elif isinstance(self.base, ArrayType):
            yield from self.base.elem.walk()
        elif isinstance(self.base, FuncType):
            yield from self.base.ret.walk()
            for param in self.base.params:
                yield from param.walk()

    def clone(self) -> "QualType":
        """A deep copy sharing no mutable state (fresh qvars unassigned)."""
        base: CType
        if isinstance(self.base, PtrType):
            base = PtrType(self.base.target.clone())
        elif isinstance(self.base, ArrayType):
            base = ArrayType(self.base.elem.clone(), self.base.length)
        elif isinstance(self.base, FuncType):
            base = FuncType(self.base.ret.clone(),
                            [p.clone() for p in self.base.params],
                            self.base.varargs)
        elif isinstance(self.base, Prim):
            base = Prim(self.base.name)
        elif isinstance(self.base, StructType):
            base = StructType(self.base.name)
        else:  # pragma: no cover - exhaustive over CType subclasses
            raise TypeError(self.base)
        return QualType(base, self.mode, self.explicit, None, self.loc)

    def size(self, structs: "StructTable") -> int:
        return self.base.size(structs)


def shape_equal(a: QualType, b: QualType) -> bool:
    """Structural equality of type shapes, ignoring all sharing modes."""
    return a.base.shape_key() == b.base.shape_key()


def modes_agree(a: QualType, b: QualType) -> bool:
    """Exact agreement of all nested modes (outermost excluded).

    Used by the assignment rule: pointer targets are invariant in their
    modes at every depth.
    """
    a_nested = list(a.walk())[1:]
    b_nested = list(b.walk())[1:]
    if len(a_nested) != len(b_nested):
        return False
    return all(x.mode == y.mode for x, y in zip(a_nested, b_nested))


# -- struct layout ---------------------------------------------------------


@dataclass
class FieldLayout:
    """Resolved offset/size of one struct field."""

    name: str
    type: QualType
    offset: int
    size: int


@dataclass
class StructLayout:
    """Memory layout of one struct."""

    name: str
    fields: list[FieldLayout]
    size: int
    align: int

    def field(self, name: str) -> FieldLayout:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"struct {self.name} has no field {name}")


class StructTable:
    """Program-wide table of struct definitions and layouts."""

    def __init__(self) -> None:
        self._defs: dict[str, list[tuple[str, QualType]]] = {}
        self._layouts: dict[str, StructLayout] = {}
        self._racy: set[str] = set()

    def define(self, name: str, fields: list[tuple[str, QualType]]) -> None:
        self._defs[name] = fields
        self._layouts.pop(name, None)

    def is_defined(self, name: str) -> bool:
        return name in self._defs

    def fields(self, name: str) -> list[tuple[str, QualType]]:
        return self._defs[name]

    def names(self) -> list[str]:
        return list(self._defs)

    def mark_racy(self, name: str) -> None:
        """Marks a struct type as inherently racy (Section 4.1: typedefs can
        specify this; used for pthread's mutex/cond internals)."""
        self._racy.add(name)

    def is_racy(self, name: str) -> bool:
        return name in self._racy

    def copy(self) -> "StructTable":
        """A copy sharing no mutable state: field types are cloned and
        layouts are recomputed on demand."""
        table = StructTable()
        table._defs = {name: [(fname, ftype.clone())
                              for fname, ftype in fields]
                       for name, fields in self._defs.items()}
        table._racy = set(self._racy)
        return table

    def layout(self, name: str) -> StructLayout:
        if name in self._layouts:
            return self._layouts[name]
        if name not in self._defs:
            raise KeyError(f"struct {name} is not defined")
        offset = 0
        align = 1
        fields: list[FieldLayout] = []
        for fname, ftype in self._defs[name]:
            fsize = ftype.base.size(self)
            falign = ftype.base.align(self)
            align = max(align, falign)
            offset = (offset + falign - 1) // falign * falign
            fields.append(FieldLayout(fname, ftype, offset, fsize))
            offset += fsize
        size = max(1, (offset + align - 1) // align * align)
        layout = StructLayout(name, fields, size, align)
        self._layouts[name] = layout
        return layout


def make_ptr(target: QualType, mode: Optional[Mode] = None,
             explicit: bool = False) -> QualType:
    """Convenience constructor for a pointer-qualified type."""
    return QualType(PtrType(target), mode, explicit)


def make_prim(name: str, mode: Optional[Mode] = None,
              explicit: bool = False) -> QualType:
    """Convenience constructor for a primitive qualified type."""
    return QualType(Prim(name), mode, explicit)
