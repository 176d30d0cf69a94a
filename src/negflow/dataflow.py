"""Minimal stateful-dataflow IR: parametric maps, memlets, range propagation.

Covers exactly what the communication analysis needs: map scopes over
symbolic ranges, memlets whose per-dimension indices are affine expressions,
explicit window subsets, or engineer-supplied indirection models, a tiling
transformation, and the outward propagation of memlet ranges through a
scope.  Symbolic arithmetic is delegated to sympy, and the IR never
simplifies: it builds sums and products as sympy constructs them.

Clamps (``Min``, ``Max``, ``ceiling``) follow one rule, :func:`_clamp`: a
clamp of numbers evaluates, and a symbolic clamp is built unevaluated, so
sympy's assumption engine never runs on it; it evaluates when its symbols
are substituted (``subs``, ``xreplace``, :meth:`SymRange.instantiate`).
The one clamp the IR decides itself is a unique count whose index sweeps a
scope symbol over the whole array extent: that count is the extent.  Tests
compare forms by ``simplify(a - b) == 0`` or by values at points, and pin
correctness by concrete instantiation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import product

import sympy
from sympy import Expr, Max, Min, Symbol, ceiling


class CannotPropagateError(ValueError):
    """A memlet index cannot be propagated and no model was supplied."""


def _expr(x) -> Expr:
    return sympy.sympify(x)


def _clamp(func, *args) -> Expr:
    """``func(*args)``, evaluated only when every argument is a number."""
    args = [_expr(a) for a in args]
    return func(*args, evaluate=all(a.is_number for a in args))


@dataclass(frozen=True)
class SymRange:
    """Half-open symbolic interval [lower, upper)."""

    lower: Expr
    upper: Expr

    def __post_init__(self):
        object.__setattr__(self, "lower", _expr(self.lower))
        object.__setattr__(self, "upper", _expr(self.upper))

    @property
    def length(self) -> Expr:
        return self.upper - self.lower

    def instantiate(self, subs: dict) -> tuple[int, int]:
        lo = self.lower if self.lower.is_Integer else self.lower.xreplace(subs)
        hi = self.upper if self.upper.is_Integer else self.upper.xreplace(subs)
        return int(lo), int(hi)

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper})"


@dataclass(frozen=True)
class IndirectionModel:
    """Engineer-supplied propagation of a non-affine index.

    The dataflow engine cannot see through data-dependent indices, so the
    propagated range and access counts must be declared; such entries are
    always flagged as approximations.
    """

    name: str
    range: SymRange
    total_accesses: Expr
    unique_accesses: Expr

    def __post_init__(self):
        object.__setattr__(self, "total_accesses", _expr(self.total_accesses))
        object.__setattr__(self, "unique_accesses", _expr(self.unique_accesses))
        length = self.range.length
        if length.is_number and length < 1:
            raise ValueError(f"indirection model {self.name!r} has empty range {self.range}")


IndexDim = Expr | SymRange | IndirectionModel


@dataclass(frozen=True)
class Memlet:
    """Dataflow edge: accessed array plus one index term per dimension.

    ``accumulate`` marks conflict-resolved (sum) writes.
    """

    array: str
    indices: tuple
    accumulate: bool = False

    def __post_init__(self):
        norm = tuple(
            ix if isinstance(ix, (SymRange, IndirectionModel)) else _expr(ix) for ix in self.indices
        )
        object.__setattr__(self, "indices", norm)


@dataclass(frozen=True)
class Tasklet:
    name: str
    inputs: tuple[Memlet, ...] = ()
    outputs: tuple[Memlet, ...] = ()
    code: str = ""


@dataclass(frozen=True)
class MapScope:
    """Parametric parallel iteration region."""

    name: str
    symbols: tuple[Symbol, ...]
    ranges: tuple[SymRange, ...]
    body: tuple = ()

    def __post_init__(self):
        if len(self.symbols) != len(self.ranges):
            raise ValueError("one range per map symbol required")

    def range_of(self, sym: Symbol) -> SymRange:
        for s, r in zip(self.symbols, self.ranges):
            if s == sym:
                return r
        raise KeyError(f"symbol {sym} not bound by scope {self.name!r}")

    def tasklets(self):
        for node in self.body:
            if isinstance(node, Tasklet):
                yield node

    def child_maps(self):
        for node in self.body:
            if isinstance(node, MapScope):
                yield node


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    shape: tuple
    element_bytes: int = 16

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(_expr(s) for s in self.shape))


@dataclass(frozen=True)
class DataflowGraph:
    """Array declarations plus one top-level map scope."""

    arrays: tuple[ArrayDecl, ...]
    top: MapScope
    globals: tuple[Symbol, ...] = ()

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"undeclared array {name!r}")

    def validate(self) -> None:
        """Every symbol used in a body memlet must be bound or declared global."""
        declared = set(self.globals)
        for decl in self.arrays:
            for dim in decl.shape:
                declared |= dim.free_symbols

        def walk(scope: MapScope, bound: set):
            bound = bound | set(scope.symbols)
            for rng in scope.ranges:
                missing = (rng.lower.free_symbols | rng.upper.free_symbols) - bound - declared
                if missing:
                    raise ValueError(f"unbound symbols {missing} in range of scope {scope.name!r}")
            for node in scope.body:
                if isinstance(node, MapScope):
                    walk(node, bound)
                    continue
                for memlet in list(node.inputs) + list(node.outputs):
                    for dim in memlet.indices:
                        if isinstance(dim, IndirectionModel):
                            free = dim.range.lower.free_symbols | dim.range.upper.free_symbols
                            free |= dim.unique_accesses.free_symbols | dim.total_accesses.free_symbols
                        elif isinstance(dim, SymRange):
                            free = dim.lower.free_symbols | dim.upper.free_symbols
                        else:
                            free = dim.free_symbols
                        missing = free - bound - declared
                        if missing:
                            raise ValueError(
                                f"unbound symbols {missing} in memlet of array {memlet.array!r}"
                            )

        walk(self.top, set())


def tile_map(scope: MapScope, tile_sizes: dict, clip: bool = True) -> MapScope:
    """Split a map into an outer partition map and an inner tile map.

    ``tile_sizes`` maps symbol name to tile size (int or symbolic); omitted
    dimensions get the full extent as one tile.  The outer symbols ``t_<d>``
    span ``ceiling(extent / size)`` partitions; each inner symbol covers
    ``[t*s, (t+1)*s)``, clipped to the original upper bound when ``clip``.
    With clipping the flattened iteration space is identical to the original
    map's; the unclipped form is the full-tile model used by the analytic
    propagation formulas.
    """
    outer_syms, outer_ranges, inner_ranges = [], [], []
    for sym, rng in zip(scope.symbols, scope.ranges):
        size = _expr(tile_sizes.get(sym.name, rng.length))
        if size.is_number:
            if size < 1:
                raise ValueError(f"tile size for {sym} must be >= 1, got {size}")
            if rng.length.is_number and size > rng.length:
                raise ValueError(f"tile size {size} for {sym} exceeds extent {rng.length}")
        t_sym = Symbol(f"t_{sym.name}", integer=True, nonnegative=True)
        outer_syms.append(t_sym)
        outer_ranges.append(SymRange(0, _clamp(ceiling, rng.length / size)))
        lower = rng.lower + t_sym * size
        upper = rng.lower + (t_sym + 1) * size
        if clip:
            upper = _clamp(Min, rng.upper, upper)
        inner_ranges.append(SymRange(lower, upper))
    inner = MapScope(
        name=f"{scope.name}_tile",
        symbols=scope.symbols,
        ranges=tuple(inner_ranges),
        body=scope.body,
    )
    return MapScope(
        name=f"{scope.name}_partitions",
        symbols=tuple(outer_syms),
        ranges=tuple(outer_ranges),
        body=(inner,),
    )


@dataclass(frozen=True)
class DimPropagation:
    """Propagation result of one memlet dimension through one scope."""

    range: SymRange
    total_accesses: Expr
    unique_accesses: Expr
    approximation: bool = False


@dataclass(frozen=True)
class MemletPropagation:
    dims: tuple[DimPropagation, ...]

    @property
    def range(self) -> SymRange:
        if len(self.dims) != 1:
            raise ValueError("range is single-dimension shorthand; use .dims")
        return self.dims[0].range

    @property
    def total_accesses(self) -> Expr:
        return _product([d.total_accesses for d in self.dims])

    @property
    def unique_accesses(self) -> Expr:
        return _product([d.unique_accesses for d in self.dims])


def _product(factors: list[Expr]) -> Expr:
    """Product of per-dimension counts as sympy builds it, not simplified."""
    return sympy.Mul(*factors)


def _expand(expr: Expr) -> Expr:
    """``sympy.expand``, skipped for a sum of products of atoms, which is expanded already."""
    terms = expr.args if expr.is_Add else (expr,)
    if all(t.is_Atom or (t.is_Mul and all(f.is_Atom for f in t.args)) for t in terms):
        return expr
    return sympy.expand(expr)


def _span(scope: MapScope, sym: Symbol, spans: dict) -> tuple[Expr, Expr]:
    """First and last value of ``sym`` in ``scope``, expanded once per propagation into ``spans``."""
    if sym not in spans:
        rng = scope.range_of(sym)
        spans[sym] = (_expand(rng.lower), _expand(rng.upper - 1))
    return spans[sym]


def _propagate_affine(expr: Expr, scope: MapScope, extent: Expr, spans: dict) -> DimPropagation:
    # sums of expanded terms times integers stay expanded, so only the index and the spans are expanded
    expanded = _expand(expr)
    scope_syms = set(scope.symbols)
    coeffs: dict[Symbol, Expr] = {}
    rest = expanded
    for sym in scope.symbols:
        if sym not in expanded.free_symbols:
            continue
        c = expanded.coeff(sym, 1)
        if c.free_symbols & scope_syms:
            raise CannotPropagateError(f"cannot propagate non-affine index {expr}")
        if c != 0:
            coeffs[sym] = c
            rest = rest - c * sym
    if rest.free_symbols & scope_syms:
        raise CannotPropagateError(f"cannot propagate non-affine index {expr}")
    for c in coeffs.values():
        if not c.is_number or not c.is_integer:
            raise CannotPropagateError(f"cannot propagate non-integer stride in {expr}")

    lo = rest
    hi = rest
    for sym, c in coeffs.items():
        first, last = _span(scope, sym, spans)
        if c > 0:
            lo = lo + c * first
            hi = hi + c * last
        else:
            lo = lo + c * last
            hi = hi + c * first
    length = hi - lo + 1

    if all(abs(c) <= 1 for c in coeffs.values()):
        # Unit strides make the image a contiguous integer range, so the
        # unique count is the range length clamped to the array extent.  A
        # symbol that sweeps the whole extent makes the range at least as
        # long as the extent (every other term adds its span minus one).
        if extent is None:
            unique = length
        elif any(last - first + 1 == extent for first, last in (spans[sym] for sym in coeffs)):
            unique = extent
        else:
            unique = _clamp(Min, extent, length)
    elif len(coeffs) == 1:
        (sym,) = coeffs
        unique = scope.range_of(sym).length
    else:
        raise CannotPropagateError(f"cannot propagate multi-symbol strided index {expr}")
    return DimPropagation(
        range=SymRange(lo, hi + 1),
        total_accesses=length,
        unique_accesses=unique,
    )


def _propagate_window(window: SymRange, scope: MapScope, extent: Expr, spans: dict) -> DimPropagation:
    lo = _propagate_affine(window.lower, scope, None, spans).range.lower
    hi = _propagate_affine(window.upper - 1, scope, None, spans).range.upper - 1
    length = hi - lo + 1
    unique = _clamp(Min, extent, length) if extent is not None else length
    return DimPropagation(
        range=SymRange(lo, hi + 1),
        total_accesses=length,
        unique_accesses=unique,
    )


def propagate_memlet(scope: MapScope, memlet: Memlet, array: ArrayDecl | None = None) -> MemletPropagation:
    """Propagate every index dimension of a memlet to the scope boundary.

    Affine indices with unit strides propagate to a contiguous range whose
    clamped length is the unique-access count; the total count is the
    unclamped range length.  Window subsets propagate their bounds.  Any
    other index must carry an :class:`IndirectionModel`, whose declared
    values are returned verbatim; there is no silent over-approximation.
    """
    dims = []
    spans: dict = {}
    for axis, ix in enumerate(memlet.indices):
        extent = array.shape[axis] if array is not None and axis < len(array.shape) else None
        if isinstance(ix, IndirectionModel):
            dims.append(
                DimPropagation(
                    range=ix.range,
                    total_accesses=ix.total_accesses,
                    unique_accesses=ix.unique_accesses,
                    approximation=True,
                )
            )
        elif isinstance(ix, SymRange):
            dims.append(_propagate_window(ix, scope, extent, spans))
        else:
            dims.append(_propagate_affine(ix, scope, extent, spans))
    return MemletPropagation(dims=tuple(dims))


def neighbor_indirection(t_a, s_a, n_a, n_b, name: str = "f(a,b)") -> IndirectionModel:
    """Standard model for the atom-neighbor indirection over a tiled atom range.

    Atoms with nearby indices are almost always neighbors, so the access
    f(a,b) over [t_a s_a, (t_a+1) s_a) x [0, N_B) is modeled by the declared
    range below with s_a * N_B total and min(N_A, s_a + N_B) unique accesses.
    """
    t_a, s_a, n_a, n_b = map(_expr, (t_a, s_a, n_a, n_b))
    rng = SymRange(_clamp(Min, 0, t_a * s_a - n_b / 2), _clamp(Max, n_a, (t_a + 1) * s_a + n_b / 2))
    return IndirectionModel(
        name=name,
        range=rng,
        total_accesses=s_a * n_b,
        unique_accesses=_clamp(Min, n_a, s_a + n_b),
    )


def volume_between_maps(outer: MapScope, graph: DataflowGraph) -> dict[str, Expr]:
    """Per-array bytes crossing the boundary between the two nested maps.

    Requires an outer partition map containing exactly one inner map; sums
    unique accesses times element size over every boundary memlet of each
    array.  Memlets with the same indices into arrays of the same shape
    propagate once.  Raises if any memlet cannot be propagated.
    """
    inner_maps = list(outer.child_maps())
    if len(inner_maps) != 1:
        raise ValueError("volume_between_maps expects an outer map holding exactly one inner map")
    inner = inner_maps[0]
    volumes: dict[str, Expr] = {}
    unique: dict[tuple, Expr] = {}  # unique accesses per (indices, shape)
    for tasklet in inner.tasklets():
        for memlet in list(tasklet.inputs) + list(tasklet.outputs):
            decl = graph.array(memlet.array)
            key = (memlet.indices, decl.shape)
            if key not in unique:
                unique[key] = propagate_memlet(inner, memlet, decl).unique_accesses
            contribution = unique[key] * decl.element_bytes
            volumes[memlet.array] = volumes.get(memlet.array, sympy.Integer(0)) + contribution
    return volumes


def iteration_points(scope: MapScope, env: dict | None = None) -> list[dict]:
    """Concrete leaf iterations of a (possibly nested) map under ``env``."""
    env = dict(env or {})
    spans = []
    for sym, rng in zip(scope.symbols, scope.ranges):
        lo, hi = rng.instantiate(env)
        spans.append([(sym, v) for v in range(lo, hi)])
    points = []
    for combo in product(*spans):
        local = dict(env)
        local.update({s: v for s, v in combo})
        children = list(scope.child_maps())
        if children:
            for child in children:
                points.extend(iteration_points(child, local))
        else:
            points.append(local)
    return points


def _to_json(node):
    """One walk for every IR node: a dataclass becomes its fields plus its type name as ``kind``.

    Tuples become lists, plain names and flags stay as they are, and every
    symbolic value (an affine index, a bound, a count) becomes its string.
    """
    if is_dataclass(node):
        return {"kind": type(node).__name__, **{f.name: _to_json(getattr(node, f.name)) for f in fields(node)}}
    if isinstance(node, tuple):
        return [_to_json(item) for item in node]
    return node if isinstance(node, (str, bool, int)) else str(node)


def graph_to_json(graph: DataflowGraph) -> str:
    return json.dumps({"arrays": _to_json(graph.arrays), "map": _to_json(graph.top)}, indent=2)


@dataclass(frozen=True)
class SseGraph:
    """Tiled dataflow model of the self-energy kernel plus handy handles."""

    graph: DataflowGraph
    outer: MapScope
    symbols: dict[str, Symbol]


def build_sse_graph(tile_e="s_E", tile_a="s_A") -> SseGraph:
    """Dataflow model of the SSE kernel, tiled over energies and atoms.

    One map over the 8-D point space; per-array boundary memlets model the
    combined consumer footprints: the electron arrays carry the frequency
    window [E - N_w, E + N_w) and the neighbor-indirection atom range (the
    self-energy redistribution is modeled at the same halo footprint), and
    the phonon arrays carry the halo-extended atom range of the analytic
    volume model.  Orbital and vibration dims are full-range windows.
    """
    names = ["N_kz", "N_E", "N_qz", "N_w", "N_A", "N_B", "N_orb", "N_3D"]
    n = {nm: Symbol(nm, integer=True, positive=True) for nm in names}
    # a tile named after an extent (tile_e="N_E") is that extent's symbol, not a second, assumption-free one
    s_e, s_a = (sympy.sympify(tile, locals=n) for tile in (tile_e, tile_a))
    k, e_sym, q, w, i, j, a, b = sympy.symbols("k E q w i j a b", integer=True, nonnegative=True)

    arrays = tuple(
        ArrayDecl(name, shape)
        for name, shape in [
            ("G_lesser", (n["N_kz"], n["N_E"], n["N_A"], n["N_orb"], n["N_orb"])),
            ("G_greater", (n["N_kz"], n["N_E"], n["N_A"], n["N_orb"], n["N_orb"])),
            ("Sigma_lesser", (n["N_kz"], n["N_E"], n["N_A"], n["N_orb"], n["N_orb"])),
            ("Sigma_greater", (n["N_kz"], n["N_E"], n["N_A"], n["N_orb"], n["N_orb"])),
            ("D_lesser", (n["N_qz"], n["N_w"], n["N_A"], n["N_B"], n["N_3D"], n["N_3D"])),
            ("D_greater", (n["N_qz"], n["N_w"], n["N_A"], n["N_B"], n["N_3D"], n["N_3D"])),
            ("Pi_lesser", (n["N_qz"], n["N_w"], n["N_A"], n["N_B"], n["N_3D"], n["N_3D"])),
            ("Pi_greater", (n["N_qz"], n["N_w"], n["N_A"], n["N_B"], n["N_3D"], n["N_3D"])),
            ("dH", (n["N_A"], n["N_B"], n["N_3D"], n["N_orb"], n["N_orb"])),
        ]
    )

    base = MapScope(
        name="sse",
        symbols=(k, e_sym, q, w, i, j, a, b),
        ranges=(
            SymRange(0, n["N_kz"]),
            SymRange(0, n["N_E"]),
            SymRange(0, n["N_qz"]),
            SymRange(0, n["N_w"]),
            SymRange(0, n["N_3D"]),
            SymRange(0, n["N_3D"]),
            SymRange(0, n["N_A"]),
            SymRange(0, n["N_B"]),
        ),
        body=(),
    )
    tiled_empty = tile_map(base, {"E": s_e, "a": s_a}, clip=False)
    inner_empty = next(iter(tiled_empty.child_maps()))
    t_a = next(s for s in tiled_empty.symbols if s.name == "t_a")

    f_model = neighbor_indirection(t_a, s_a, n["N_A"], n["N_B"])
    # Union of the two energy consumers: E-off for Sigma, E+off for Pi,
    # offsets 1..N_w, plus the unshifted point itself.
    window_e = SymRange(e_sym - n["N_w"], e_sym + n["N_w"] + 1)
    orb = SymRange(0, n["N_orb"])
    vib = SymRange(0, n["N_3D"])

    def electron(array: str, accumulate: bool = False) -> Memlet:
        return Memlet(array, (k - q, window_e, f_model, orb, orb), accumulate=accumulate)

    def phonon(array: str, accumulate: bool = False) -> Memlet:
        return Memlet(array, (q, w, f_model, b, i, j), accumulate=accumulate)

    tasklet = Tasklet(
        name="sse_point",
        code="Sigma[k,E,a] += (G[k-q,E-w,f] @ dH[a,b,i]) @ (dH[a,b,j] * D[q,w,a,b,i,j])",
        inputs=(
            electron("G_lesser"),
            electron("G_greater"),
            phonon("D_lesser"),
            phonon("D_greater"),
            Memlet("dH", (f_model, b, i, orb, orb)),
        ),
        outputs=(
            electron("Sigma_lesser", accumulate=True),
            electron("Sigma_greater", accumulate=True),
            phonon("Pi_lesser", accumulate=True),
            phonon("Pi_greater", accumulate=True),
        ),
    )

    inner = replace(inner_empty, body=(tasklet,))
    outer = replace(tiled_empty, body=(inner,))
    tile_syms = tuple(s_e.free_symbols | s_a.free_symbols)
    graph = DataflowGraph(arrays=arrays, top=outer, globals=tuple(n.values()) + tile_syms)
    symbols = dict(n)
    symbols.update({s.name: s for s in outer.symbols})
    symbols.update({s.name: s for s in inner.symbols})
    for name, sym in (("s_E", s_e), ("s_A", s_a)):
        if isinstance(sym, Symbol):
            symbols[name] = sym
    graph.validate()
    return SseGraph(graph=graph, outer=outer, symbols=symbols)
