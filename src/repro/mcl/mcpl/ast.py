"""AST node definitions for MCPL kernels.

Nodes carry the source line for diagnostics.  Array types record their
dimension *expressions* (``float[n,m]``), because MCPL arrays keep track of
their sizes (Sec. II-B) — the compiler uses these both to check index arity
and to derive work-group configurations and transfer sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

__all__ = [
    "Type", "Param", "Kernel",
    "Expr", "IntLit", "FloatLit", "Var", "Index", "Binary", "Unary", "Call",
    "Stmt", "Block", "VarDecl", "Assign", "Foreach", "For", "If", "While",
    "Return", "Break", "Continue", "ExprStmt",
    "Node", "child_exprs", "child_stmts", "walk_stmts", "walk_exprs",
    "mentioned_names",
]


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------

@dataclass
class Type:
    """``int``, ``float``, ``void``, or an array thereof with dim exprs."""

    base: str                       #: 'int' | 'float' | 'void'
    dims: List["Expr"] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def element_bytes(self) -> int:
        return 4  # both int and float are 32-bit in MCPL/OpenCL

    def __str__(self) -> str:
        if not self.dims:
            return self.base
        return f"{self.base}[{','.join(str(d) for d in self.dims)}]"


@dataclass
class Param:
    type: Type
    name: str


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

@dataclass
class Expr:
    line: int = field(default=0, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class FloatLit(Expr):
    value: float = 0.0

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class Var(Expr):
    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass
class Index(Expr):
    """Multi-dimensional array access ``a[i,k]``."""

    array: str = ""
    indices: List[Expr] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.array}[{','.join(str(i) for i in self.indices)}]"


@dataclass
class Binary(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Optional[Expr] = None

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = field(default=0, compare=False)


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Local declaration, optionally with a memory-space qualifier.

    Optimized GPU kernels declare staging tiles as
    ``local float[TS,TS] tile;`` — the qualifier names a memory space of the
    target hardware description.
    """

    type: Optional[Type] = None
    name: str = ""
    qualifier: Optional[str] = None   #: 'local' | 'private' | 'const' | None
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    target: Optional[Union[Var, Index]] = None
    op: str = "="                     #: '=', '+=', '-=', '*=', '/=', '%='
    value: Optional[Expr] = None


@dataclass
class Foreach(Stmt):
    """``foreach (int i in count unit) body`` — MCPL's parallel loop.

    ``unit`` names a parallelism abstraction of the kernel's hardware
    description (``threads`` on level perfect, ``blocks``/``threads``/
    ``vectors`` deeper down).
    """

    var: str = ""
    count: Optional[Expr] = None
    unit: str = ""
    body: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None       #: VarDecl or Assign
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None       #: Assign
    body: Optional[Stmt] = None


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    orelse: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


# --------------------------------------------------------------------------
# traversal
# --------------------------------------------------------------------------

Node = Union[Expr, Stmt]

#: The fields of each node class that hold sub-trees, in source order.  A
#: field holds one node, a list of nodes, or (``VarDecl.type``) a ``Type``
#: whose dims are expressions.  Classes without sub-trees are absent.  Passes
#: that only enumerate children go through the helpers below; per-node
#: dispatchers (checker, interpreter, codegen, analyses) keep their own.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    Index: ("indices",),
    Binary: ("left", "right"),
    Unary: ("operand",),
    Call: ("args",),
    Block: ("stmts",),
    VarDecl: ("type", "init"),
    Assign: ("target", "value"),
    Foreach: ("count", "body"),
    For: ("init", "cond", "step", "body"),
    If: ("cond", "then", "orelse"),
    While: ("cond", "body"),
    Return: ("value",),
    ExprStmt: ("expr",),
}


def _children(node: Node) -> List[Node]:
    out: List[Node] = []
    for name in _CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if isinstance(value, Type):
            out.extend(value.dims)
        elif isinstance(value, list):
            out.extend(value)
        elif value is not None:
            out.append(value)
    return out


def child_exprs(node: Node) -> List[Expr]:
    """The direct sub-expressions of an expression or statement."""
    return [c for c in _children(node) if isinstance(c, Expr)]


def child_stmts(stmt: Stmt) -> List[Stmt]:
    """The direct sub-statements of a statement, ``for`` header included."""
    return [c for c in _children(stmt) if isinstance(c, Stmt)]


def walk_stmts(stmt: Optional[Stmt]) -> Iterator[Stmt]:
    """Pre-order over a statement and every statement nested in it."""
    stack: List[Stmt] = [stmt] if stmt is not None else []
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(child_stmts(s)))


def walk_exprs(node: Optional[Node]) -> Iterator[Expr]:
    """Pre-order over every expression in an expression or statement tree.

    Covers declaration dims and ``for`` init and step.
    """
    stack: List[Node] = [node] if node is not None else []
    while stack:
        n = stack.pop()
        if isinstance(n, Expr):
            yield n
        stack.extend(reversed(_children(n)))


def mentioned_names(node: Optional[Node]) -> Set[str]:
    """The ``Var`` names and indexed array names in a tree."""
    names: Set[str] = set()
    for e in walk_exprs(node):
        if isinstance(e, Var):
            names.add(e.name)
        elif isinstance(e, Index):
            names.add(e.array)
    return names


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

@dataclass
class Kernel:
    """A complete MCPL kernel: ``<level> <type> <name>(<params>) { ... }``."""

    level: str
    return_type: Type
    name: str
    params: List[Param]
    body: Block

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name} has no parameter {name!r}")

    @property
    def array_params(self) -> List[Param]:
        return [p for p in self.params if p.type.is_array]

    @property
    def scalar_params(self) -> List[Param]:
        return [p for p in self.params if not p.type.is_array]
