"""Dataflow IR: tiling, symbolic propagation, volumes, serialization."""

import itertools
import json

import pytest
import sympy
from sympy import Max, Min, Rational, Symbol, ceiling

from negflow import comm, dataflow
from negflow.dataflow import (
    ArrayDecl,
    CannotPropagateError,
    DataflowGraph,
    IndirectionModel,
    MapScope,
    Memlet,
    SymRange,
    Tasklet,
    build_sse_graph,
    graph_to_json,
    iteration_points,
    neighbor_indirection,
    propagate_memlet,
    tile_map,
    volume_between_maps,
)
from negflow.params import SimParams

X = Symbol("x", integer=True, nonnegative=True)
Y = Symbol("y", integer=True, nonnegative=True)


def _scope(*dims):
    syms, ranges = [], []
    for name, lo, hi in dims:
        syms.append(Symbol(name, integer=True, nonnegative=True))
        ranges.append(SymRange(lo, hi))
    return MapScope("m", tuple(syms), tuple(ranges))


def _tiled_pattern_scope(s_k, s_q):
    """Untiled-bound-free model scope: k and q over full symbolic tiles."""
    t_k = Symbol("t_kz", integer=True, nonnegative=True)
    t_q = Symbol("t_qz", integer=True, nonnegative=True)
    k = Symbol("k", integer=True, nonnegative=True)
    q = Symbol("q", integer=True, nonnegative=True)
    return (
        MapScope(
            "inner",
            (k, q),
            (SymRange(t_k * s_k, (t_k + 1) * s_k), SymRange(t_q * s_q, (t_q + 1) * s_q)),
        ),
        k,
        q,
        t_k,
        t_q,
    )


def test_symrange_length_and_instantiation():
    r = SymRange(2 * X, 3 * X + 1)
    assert sympy.simplify(r.length - (X + 1)) == 0
    assert r.instantiate({X: 4}) == (8, 13)


def test_tile_map_degenerate_full_tile():
    base = _scope(("x", 0, 9))
    tiled = tile_map(base, {"x": 9})
    assert [str(s) for s in tiled.symbols] == ["t_x"]
    lo, hi = tiled.ranges[0].instantiate({})
    assert (lo, hi) == (0, 1)
    inner = next(iter(tiled.child_maps()))
    t_x = tiled.symbols[0]
    assert inner.ranges[0].instantiate({t_x: 0}) == (0, 9)


@pytest.mark.parametrize("extent, tile", [(6, 2), (7, 3)])
def test_tile_map_enumeration(extent, tile):
    base = _scope(("x", 0, extent))
    tiled = tile_map(base, {"x": tile})
    points = sorted(pt[base.symbols[0]] for pt in iteration_points(tiled))
    assert points == list(range(extent))


def test_tile_map_preserves_iteration_space_exhaustively():
    # every extent/tile combination with extent <= 64
    for extent in range(1, 65):
        base = _scope(("x", 0, extent))
        original = sorted(pt[base.symbols[0]] for pt in iteration_points(base))
        for tile in range(1, extent + 1):
            tiled = tile_map(base, {"x": tile})
            points = sorted(pt[base.symbols[0]] for pt in iteration_points(tiled))
            assert points == original, (extent, tile)


def test_tile_map_rejects_bad_sizes():
    base = _scope(("x", 0, 4))
    with pytest.raises(ValueError, match=">= 1"):
        tile_map(base, {"x": 0})
    with pytest.raises(ValueError, match="exceeds extent"):
        tile_map(base, {"x": 5})


def test_identity_index_propagation():
    s_k = Symbol("s_k", integer=True, positive=True)
    t_k = Symbol("t_k", integer=True, nonnegative=True)
    k = Symbol("k", integer=True, nonnegative=True)
    scope = MapScope("m", (k,), (SymRange(t_k * s_k, (t_k + 1) * s_k),))
    prop = propagate_memlet(scope, Memlet("A", (k,)), ArrayDecl("A", (Symbol("N", positive=True, integer=True),)))
    assert sympy.simplify(prop.range.length - s_k) == 0
    assert sympy.simplify(prop.total_accesses - s_k) == 0


def test_momentum_difference_matches_paper_model():
    n_kz = Symbol("N_kz", integer=True, positive=True)
    s_k = Symbol("s_kz", integer=True, positive=True)
    s_q = Symbol("s_qz", integer=True, positive=True)
    scope, k, q, t_k, t_q = _tiled_pattern_scope(s_k, s_q)
    prop = propagate_memlet(scope, Memlet("G", (k - q,)), ArrayDecl("G", (n_kz,)))
    assert sympy.simplify(prop.range.lower - (t_k * s_k - (t_q + 1) * s_q + 1)) == 0
    assert sympy.simplify(prop.range.upper - ((t_k + 1) * s_k - t_q * s_q)) == 0
    assert sympy.simplify(prop.total_accesses - (s_k + s_q - 1)) == 0
    assert sympy.simplify(prop.unique_accesses - Min(n_kz, s_k + s_q - 1)) == 0


def test_momentum_difference_numeric_instantiation():
    n_kz = Symbol("N_kz", integer=True, positive=True)
    s_k = Symbol("s_kz", integer=True, positive=True)
    s_q = Symbol("s_qz", integer=True, positive=True)
    scope, k, q, t_k, t_q = _tiled_pattern_scope(s_k, s_q)
    prop = propagate_memlet(scope, Memlet("G", (k - q,)), ArrayDecl("G", (n_kz,)))
    subs = {n_kz: 7, s_k: 3, s_q: 7, t_k: 0, t_q: 0}
    assert prop.unique_accesses.subs(subs) == 7
    enum = {(kk - qq) % 7 for kk in range(3) for qq in range(7)}
    assert len(enum) == 7


def test_unique_counts_match_enumeration_small_extents():
    # all single-symbol and two-symbol-difference patterns with extents <= 16
    n_sym = Symbol("N", integer=True, positive=True)
    for n in range(1, 17):
        for s_k in range(1, n + 1):
            scope = _scope(("k", 0, s_k))
            prop = propagate_memlet(scope, Memlet("A", (scope.symbols[0],)), ArrayDecl("A", (n_sym,)))
            enum = {k % n for k in range(s_k)}
            assert int(prop.unique_accesses.subs({n_sym: n})) == len(enum)
        for s_k, s_q in itertools.product(range(1, n + 1), repeat=2):
            scope = _scope(("k", 0, s_k), ("q", 0, s_q))
            expr = scope.symbols[0] - scope.symbols[1]
            prop = propagate_memlet(scope, Memlet("A", (expr,)), ArrayDecl("A", (n_sym,)))
            enum = {(k - q) % n for k in range(s_k) for q in range(s_q)}
            assert int(prop.unique_accesses.subs({n_sym: n})) == len(enum), (n, s_k, s_q)


def test_strided_single_symbol_unique_count():
    n_sym = Symbol("N", integer=True, positive=True)
    scope = _scope(("k", 0, 5))
    prop = propagate_memlet(scope, Memlet("A", (3 * scope.symbols[0],)), ArrayDecl("A", (n_sym,)))
    assert int(prop.unique_accesses) == 5  # arithmetic progression, 5 distinct values
    lo, hi = prop.range.instantiate({})
    assert (lo, hi) == (0, 13)


def test_cannot_propagate_errors():
    scope = _scope(("k", 0, 4), ("q", 0, 4))
    k, q = scope.symbols
    decl = ArrayDecl("A", (Symbol("N", positive=True, integer=True),))
    with pytest.raises(CannotPropagateError, match="cannot propagate"):
        propagate_memlet(scope, Memlet("A", (k * q,)), decl)
    with pytest.raises(CannotPropagateError, match="cannot propagate"):
        propagate_memlet(scope, Memlet("A", (k**2,)), decl)
    with pytest.raises(CannotPropagateError, match="cannot propagate"):
        propagate_memlet(scope, Memlet("A", (2 * k + 3 * q,)), decl)


def test_indirection_model_is_returned_verbatim():
    model = IndirectionModel("f", SymRange(0, 10), total_accesses=20, unique_accesses=8)
    scope = _scope(("k", 0, 4))
    prop = propagate_memlet(scope, Memlet("A", (model,)), ArrayDecl("A", (100,)))
    assert prop.dims[0].approximation
    assert prop.dims[0].unique_accesses == 8
    assert prop.dims[0].total_accesses == 20
    with pytest.raises(ValueError, match="empty range"):
        IndirectionModel("f", SymRange(5, 5), 1, 1)


def test_neighbor_indirection_matches_stated_model():
    t_a = Symbol("t_a", integer=True, nonnegative=True)
    s_a = Symbol("s_a", integer=True, positive=True)
    n_a = Symbol("N_A", integer=True, positive=True)
    n_b = Symbol("N_B", integer=True, positive=True)
    model = neighbor_indirection(t_a, s_a, n_a, n_b)
    assert sympy.simplify(model.range.lower - Min(0, t_a * s_a - n_b / 2)) == 0
    assert sympy.simplify(model.range.upper - Max(n_a, (t_a + 1) * s_a + n_b / 2)) == 0
    assert sympy.simplify(model.total_accesses - s_a * n_b) == 0
    assert sympy.simplify(model.unique_accesses - Min(n_a, s_a + n_b)) == 0


def test_volume_identity_memlet():
    s = Symbol("s", integer=True, positive=True)
    t = Symbol("t", integer=True, nonnegative=True)
    k = Symbol("k", integer=True, nonnegative=True)
    inner = MapScope(
        "inner", (k,), (SymRange(t * s, (t + 1) * s),),
        body=(Tasklet("t0", inputs=(Memlet("A", (k,)),)),),
    )
    outer = MapScope("outer", (t,), (SymRange(0, 4),), body=(inner,))
    n = Symbol("N", integer=True, positive=True)
    graph = DataflowGraph(arrays=(ArrayDecl("A", (n,), element_bytes=16),), top=outer, globals=(n, s))
    volumes = volume_between_maps(outer, graph)
    assert sympy.simplify(volumes["A"] - 16 * Min(n, s)) == 0


def test_volume_matches_concrete_enumeration():
    # random affine two-map graph, instantiated and counted by set cardinality
    s = 3
    t = Symbol("t", integer=True, nonnegative=True)
    k = Symbol("k", integer=True, nonnegative=True)
    q = Symbol("q", integer=True, nonnegative=True)
    inner = MapScope(
        "inner", (k, q), (SymRange(t * s, (t + 1) * s), SymRange(0, 4)),
        body=(Tasklet("t0", inputs=(Memlet("A", (k + q,)),)),),
    )
    outer = MapScope("outer", (t,), (SymRange(0, 2),), body=(inner,))
    graph = DataflowGraph(arrays=(ArrayDecl("A", (100,), element_bytes=2),), top=outer, globals=())
    volumes = volume_between_maps(outer, graph)
    for t_val in (0, 1):
        touched = {kk + qq for kk in range(t_val * s, (t_val + 1) * s) for qq in range(4)}
        assert int(volumes["A"].subs({t: t_val})) == 2 * len(touched)


def test_graph_validation_flags_unbound_symbols():
    k = Symbol("k", integer=True, nonnegative=True)
    loose = Symbol("loose", integer=True)
    scope = MapScope(
        "m", (k,), (SymRange(0, 4),),
        body=(Tasklet("t0", inputs=(Memlet("A", (k + loose,)),)),),
    )
    graph = DataflowGraph(arrays=(ArrayDecl("A", (10,)),), top=scope, globals=())
    with pytest.raises(ValueError, match="unbound symbols"):
        graph.validate()


def test_propagation_is_canonical():
    n = Symbol("N", integer=True, positive=True)
    decl = ArrayDecl("A", (n,))
    results = []
    for _ in range(2):
        scope = _scope(("k", 0, 5), ("q", 0, 3))
        expr = scope.symbols[0] - scope.symbols[1]
        results.append(propagate_memlet(scope, Memlet("A", (expr,)), decl))
    assert results[0].unique_accesses == results[1].unique_accesses
    assert results[0].range.lower == results[1].range.lower
    assert str(results[0].unique_accesses) == str(results[1].unique_accesses)


def test_sse_graph_volume_matches_comm_model():
    # cross-module consistency: the tiled SSE graph instantiated at concrete
    # symbols reproduces the closed-form per-process byte terms exactly, at
    # an even and an odd N_B
    sg = build_sse_graph()
    volumes = volume_between_maps(sg.outer, sg.graph)
    cases = [(n_b, tiles) for n_b in (34, 33) for tiles in [(4, 192), (2, 384), (7, 256)]]
    for n_b, (t_e, t_a) in cases:
        params = SimParams(n_kz=3, n_qz=3, n_E=706, n_w=70, n_A=4864, n_B=n_b, n_orb=12, bnum=19)
        subs = {
            sg.symbols["N_kz"]: params.n_kz, sg.symbols["N_E"]: params.n_E,
            sg.symbols["N_qz"]: params.n_qz, sg.symbols["N_w"]: params.n_w,
            sg.symbols["N_A"]: params.n_A, sg.symbols["N_B"]: params.n_B,
            sg.symbols["N_orb"]: params.n_orb, sg.symbols["N_3D"]: 3,
            sg.symbols["s_E"]: Rational(params.n_E, t_e),
            sg.symbols["s_A"]: Rational(params.n_A, t_a),
        }
        for sym in sg.outer.symbols:
            subs[sym] = 0
        plan = comm.dace_volume(params, t_e, t_a)
        electron = sum(
            volumes[name].subs(subs)
            for name in ("G_lesser", "G_greater", "Sigma_lesser", "Sigma_greater")
        )
        phonon = sum(
            volumes[name].subs(subs)
            for name in ("D_lesser", "D_greater", "Pi_lesser", "Pi_greater")
        )
        model_e = plan.per_process_bytes["electron_G"] + plan.per_process_bytes["electron_Sigma"]
        assert float(electron) == pytest.approx(model_e, rel=1e-12)
        assert float(phonon) == pytest.approx(plan.per_process_bytes["phonon_D_Pi"], rel=1e-12)


def test_the_ir_never_simplifies_and_prints_the_pinned_volumes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dataflow IR called sympy.simplify")

    monkeypatch.setattr(dataflow.sympy, "simplify", refuse)
    sg = build_sse_graph()
    volumes = {name: str(v) for name, v in volume_between_maps(sg.outer, sg.graph).items()}
    electron = "16*N_kz*N_orb**2*Min(N_A, N_B + s_A)*Min(N_E, 2*N_w + s_E)"
    phonon = "16*N_3D**2*N_B*N_qz*N_w*Min(N_A, N_B + s_A)"
    assert volumes == {
        **dict.fromkeys(("G_lesser", "G_greater", "Sigma_lesser", "Sigma_greater"), electron),
        **dict.fromkeys(("D_lesser", "D_greater", "Pi_lesser", "Pi_greater"), phonon),
        "dH": "16*N_3D*N_B*N_orb**2*Min(N_A, N_B + s_A)",
    }
    n_kz = Symbol("N_kz", integer=True, positive=True)
    s_k = Symbol("s_kz", integer=True, positive=True)
    s_q = Symbol("s_qz", integer=True, positive=True)
    scope, k, q, _, _ = _tiled_pattern_scope(s_k, s_q)
    prop = propagate_memlet(scope, Memlet("G", (k - q,)), ArrayDecl("G", (n_kz,)))
    assert str(prop.total_accesses) == "s_kz + s_qz - 1"
    assert str(prop.unique_accesses) == "Min(N_kz, s_kz + s_qz - 1)"


def test_graph_json_serialization():
    sg = build_sse_graph()
    payload = json.loads(graph_to_json(sg.graph))
    assert set(payload) == {"arrays", "map"}
    assert {a["name"] for a in payload["arrays"]} >= {"G_lesser", "Sigma_greater", "dH"}
    assert {a["kind"] for a in payload["arrays"]} == {"ArrayDecl"}
    assert payload["map"]["kind"] == "MapScope"
    assert payload["map"]["symbols"] == [str(s) for s in sg.outer.symbols]
    assert payload["map"]["ranges"][1] == {"kind": "SymRange", "lower": "0", "upper": "ceiling(N_E/s_E)"}
    inner = payload["map"]["body"][0]
    assert inner["kind"] == "MapScope"
    tasklet = inner["body"][0]
    assert tasklet["kind"] == "Tasklet" and tasklet["name"] == "sse_point"
    assert tasklet["outputs"][0]["kind"] == "Memlet"
    assert tasklet["outputs"][0]["accumulate"] is True
    # an affine index is its expression string; windows and indirections are nodes of their own
    indices = [d for m in tasklet["inputs"] for d in m["indices"]]
    assert "k - q" in indices
    assert {d["kind"] for d in indices if isinstance(d, dict)} >= {"SymRange", "IndirectionModel"}
    model = next(d for d in indices if isinstance(d, dict) and d["kind"] == "IndirectionModel")
    assert model["range"]["kind"] == "SymRange"
    assert model["unique_accesses"] == "Min(N_A, N_B + s_A)"


def test_volume_between_maps_propagates_each_distinct_memlet_once(monkeypatch):
    # the SSE graph's nine boundary memlets index three ways: electron, phonon and dH
    propagated = []
    propagate = dataflow.propagate_memlet

    def counting(scope, memlet, array=None):
        propagated.append(memlet.array)
        return propagate(scope, memlet, array)

    monkeypatch.setattr(dataflow, "propagate_memlet", counting)
    sg = build_sse_graph()
    volumes = volume_between_maps(sg.outer, sg.graph)
    assert propagated == ["G_lesser", "D_lesser", "dH"]
    assert len(volumes) == 9


def _clamps(sg, volumes):
    """Every Min, Max and ceiling in the graph's map ranges, its indirection model and its volumes."""
    inner = next(sg.outer.child_maps())
    tasklet = next(inner.tasklets())
    exprs = [bound for rng in sg.outer.ranges + inner.ranges for bound in (rng.lower, rng.upper)]
    for memlet in tasklet.inputs + tasklet.outputs:
        for ix in memlet.indices:
            if isinstance(ix, IndirectionModel):
                exprs += [ix.range.lower, ix.range.upper, ix.unique_accesses, ix.total_accesses]
    exprs += list(volumes.values())
    return {clamp for expr in exprs for clamp in expr.atoms(Min, Max, ceiling)}


@pytest.mark.parametrize("tiles", [("s_E", "s_A"), (4, 8)], ids=["symbolic-tiles", "numeric-tiles"])
def test_unevaluated_clamps_instantiate_as_evaluated(tiles):
    # Each symbolic clamp is built unevaluated; at every point of the grid it must take the integer its
    # evaluated sympy form takes, tiles that do not divide the extents evenly included.
    sg = build_sse_graph(*tiles)
    volumes = volume_between_maps(sg.outer, sg.graph)
    clamps = _clamps(sg, volumes)
    assert {type(c) for c in clamps} == {Min, Max, ceiling}
    # each clamp against its evaluated form, and each volume against its form with every clamp evaluated
    pairs = [(c, c.func(*c.args)) for c in clamps] + [(v, v.doit()) for v in set(volumes.values())]
    sym = sg.symbols
    fixed = {sym["N_kz"]: 3, sym["N_qz"]: 2, sym["N_orb"]: 2, sym["N_3D"]: 3}
    symbolic = {name: name in sym for name in ("s_E", "s_A")}
    checked = 0
    for n_a, n_b, s_a, n_e, n_w, s_e in itertools.product((16, 33), (2, 3), (5, 8), (16, 17), (1, 4), (3, 16)):
        point = {**fixed, sym["N_A"]: n_a, sym["N_B"]: n_b, sym["N_E"]: n_e, sym["N_w"]: n_w}
        if symbolic["s_E"]:
            point[sym["s_E"]] = s_e
        if symbolic["s_A"]:
            point[sym["s_A"]] = s_a
        last_e = -(-n_e // (s_e if symbolic["s_E"] else tiles[0])) - 1
        last_a = -(-n_a // (s_a if symbolic["s_A"] else tiles[1])) - 1
        for t_e, t_a in itertools.product({0, last_e}, {0, last_a}):
            point.update({sym["t_E"]: t_e, sym["t_a"]: t_a})
            for built, evaluated in pairs:
                assert int(built.xreplace(point)) == int(evaluated.xreplace(point)), (built, point)
                checked += 1
    assert checked > 500


def test_clamps_of_numbers_evaluate():
    # numbers evaluate: a full-extent tile is one partition, printed as 1 and not ceiling(1)
    base = _scope(("x", 0, Symbol("N", integer=True, positive=True)), ("y", 0, 10))
    tiled = tile_map(base, {"y": 4})
    assert [str(r.upper) for r in tiled.ranges] == ["1", "3"]
    inner = next(iter(tiled.child_maps()))
    assert str(inner.ranges[1].upper) == "Min(10, 4*t_y + 4)"
    assert inner.ranges[1].instantiate({tiled.symbols[1]: 2}) == (8, 10)
    model = neighbor_indirection(1, 4, 16, 2)
    assert (model.range.lower, model.range.upper, model.unique_accesses) == (0, 16, 6)


def test_a_tile_named_after_an_extent_is_that_extent():
    # tile_e="N_E" (one energy tile) must read the graph's integer-positive N_E, not a second N_E without
    # assumptions: then every volume holds one N_E, and substituting the graph's symbols leaves nothing free
    sg = build_sse_graph(tile_e="N_E", tile_a=8)
    volumes = volume_between_maps(sg.outer, sg.graph)
    assert str(volumes["G_lesser"]) == "16*N_kz*N_orb**2*Min(N_A, N_B + 8)*Min(N_E, N_E + 2*N_w)"
    point = {sym: 5 for sym in sg.symbols.values()}
    for volume in volumes.values():
        names = [s.name for s in volume.free_symbols]
        assert len(names) == len(set(names)), volume
        assert volume.xreplace(point).free_symbols == set(), volume
