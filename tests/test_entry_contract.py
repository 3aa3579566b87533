"""Driver-contract simulation: run every queries() entry at sf0.001 and
compare against its oracle_sql() twin the way the driver does (row count,
schema names, order-insensitive values)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import importlib
    import sys

    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as e

    importlib.reload(e)
    return e


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _to_pandas(res):
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            # list-valued cells (qvec, spans) are unsortable/unhashable in
            # pandas — canonicalize to their string form before sorting
            df[c] = df[c].map(
                lambda v: str(np.asarray(v).tolist())
                if isinstance(v, (list, np.ndarray))
                else v
            )
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df.reset_index(drop=True)


def test_entry_smoke(entrymod):
    ds = entrymod.entry()
    df = _to_pandas(ds)
    assert len(df) >= 0
    assert "spans" in df.columns and "poly_id" in df.columns
    # spans survived with per-row structure
    row = df.iloc[0]
    assert isinstance(row["spans"], (list, np.ndarray))


def test_every_query_has_matching_oracle_or_is_declared(entrymod):
    q = entrymod.queries()
    o = entrymod.oracle_sql()
    assert set(o) == set(q)
    assert len(q) == 372


@pytest.mark.parametrize(
    "name",
    [
        "cell_assign",
        "cell_assign_offset",
        "tiling_bounds",
        "spatial_join",
        "spatial_join_left",
        "spatial_join_hash",
        "grid_make",
        "grid_make_interior",
        "grid_make_rect",
        "overlay_intersection",
        "overlay_union",
        "area_interpolate",
        "poly_overlay",
        "poly_overlay_concave",
        "kmeans",
        "quantize_emb",
        "grid_aggregation",
        "focal_mean",
        "cell_clusters",
        "cell_majority",
        "token_entropy",
        "weighted_sample",
        "weighted_sample_group",
        "iqr_outliers",
        "percent_rank",
        "ntile",
        "window_ranks",
        "grouped_corr",
        "events_transitions",
        "events_ewma",
        "grouped_mode",
        "cube",
        "degree_hist",
        "co_occurrence",
        "events_rolling_users",
        "jsonl_roundtrip",
        "histogram",
        "keyword_search",
        "full_outer",
        "set_intersect",
        "set_except",
        "grouped_mad",
        "events_latest",
        "chunk_documents",
        "bucketed_join",
        "pareto",
        "events_gap_fill",
        "spearman",
        "dup_gram_coverage",
        "knn",
        "spans_roundtrip",
        "token_count",
        "quality_score",
        "lang_id",
        "fingerprint",
        "rolling_fp",
        "simhash",
        "exact_dedup",
        "minhash_lsh",
        "ngram_jaccard",
        "neardup_keep_best",
        "embedding_neardup",
        "ann_topk",
        "ivf_topk",
        "ivf_pruned",
        "raster_cells",
        "raster_resample",
        "frame_rowsum",
        "media_features",
        "media_features_vec",
        "events_window",
        "events_sessionize",
        "q1_pricing",
        "top_customers",
        "q4_priority",
        "q6_revenue",
        "q10_returned",
        "q14_promo",
        "q18_large_orders",
        "q19_discount",
        "semdedup",
        "q7_volume",
        "q8_market_share",
        "q13_custdist",
        "q15_top_supplier",
        "q22_lapsed",
        "gopher_rules",
        "ccnet_buckets",
        "path_cell_length",
        "events_watermark",
        "q17_small_qty",
        "q21_waiting",
        "ann_recall",
        "sq8_recall",
        "trunc_recall",
        "simhash_screen",
        "q2_min_cost",
        "q9_profit",
        "q11_important",
        "q12_late_priority",
        "q16_supplier_cnt",
        "q20_excess",
        "bfs_hops",
        "pq_recall",
        "lsh_screen",
    ],
)
def test_query_matches_oracle(entrymod, con, name):
    got = _canon(_to_pandas(entrymod.queries()[name](SF)))
    exp = _canon(con.sql(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} vs {list(exp.columns)}"
    )
    assert len(got) == len(exp), f"{name}: rows {len(got)} vs {len(exp)}"
    for c in got.columns:
        g, e = got[c], exp[c]
        if g.dtype.kind == "f" or e.dtype.kind == "f":
            g = g.to_numpy(dtype=float)
            e = e.to_numpy(dtype=float)
            ok = (np.isnan(g) & np.isnan(e)) | (np.abs(g - e) <= 1e-6)
            assert ok.all(), f"{name}.{c}: max diff {np.nanmax(np.abs(g - e))}"
        else:
            assert g.astype(str).tolist() == e.astype(str).tolist(), f"{name}.{c}"


def test_no_duplicate_defs_or_registry_keys():
    """Later same-name defs shadow earlier ones, and a dict literal
    silently keeps the LAST duplicate key — both bit this repo in round
    4 (q_join_counts, q_table_profile).  Pin: no module in the pipeline
    surface has duplicate top-level defs, and registering a name that is
    already in the query registry raises (and leaves the entry as it
    was)."""
    import re
    from collections import Counter
    from pathlib import Path

    from pygridmap_ray.pipelines.registry import entries, query

    root = Path(__file__).resolve().parents[1] / "pygridmap_ray"
    for mod in root.rglob("*.py"):
        defs = re.findall(
            r"^def ([a-zA-Z0-9_]+)\(", mod.read_text(), re.M
        )
        dups = [k for k, c in Counter(defs).items() if c > 1]
        assert not dups, f"{mod}: duplicate top-level defs {dups}"
    reg = entries()
    name = next(iter(reg))
    with pytest.raises(ValueError, match="already registered"):
        query(name, sql=lambda: "SELECT 1")(lambda sf_dir: None)
    assert entries()[name] is reg[name]


def test_every_twin_binds(con):
    """Every registered twin binds against the sf0.001 tables (DuckDB
    EXPLAIN plans it without running it), and every registered pipeline
    takes exactly one required parameter, ``sf_dir`` — a miswired
    ``sql=`` or ``run`` fails here, not only in the full oracle sweep."""
    import inspect

    from pygridmap_ray.pipelines.registry import entries

    unbound, bad_runs = {}, []
    for name, e in entries().items():
        try:
            con.sql("EXPLAIN " + e.sql()).fetchall()
        except (duckdb.Error, TypeError) as ex:
            unbound[name] = str(ex).splitlines()[0]
        params = inspect.signature(e.run).parameters.values()
        required = [p.kind for p in params if p.default is p.empty]
        if required != [inspect.Parameter.POSITIONAL_OR_KEYWORD]:
            bad_runs.append(name)
    assert not unbound, unbound
    assert not bad_runs, f"runs not callable as run(sf_dir): {bad_runs}"


def test_one_query_registry():
    """The query registry is the only table of pipelines: no literal in
    the package, bench.py, __ray_entry__.py or scripts/ refers to 10 or
    more ``q_*`` pipelines, no list, tuple or set literal holds 10 or
    more registered names, and no dict literal maps 10 or more of them
    to anything but a tuple (the root package's lazy export table maps
    operator names, some shared with pipelines, to (module, attribute)
    pairs).  The parametrization of test_query_matches_oracle, in
    tests/, is not scanned."""
    import ast
    from pathlib import Path

    from pygridmap_ray.pipelines.registry import entries

    names = set(entries())
    root = Path(__file__).resolve().parents[1]
    files = [
        *(root / "pygridmap_ray").rglob("*.py"),
        *(root / "scripts").glob("*.py"),
        root / "bench.py",
        root / "__ray_entry__.py",
    ]
    offenders = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
                continue
            if isinstance(node, ast.Dict):
                elts = [
                    k for k, v in zip(node.keys, node.values)
                    if not isinstance(v, ast.Tuple)
                ]
            else:
                elts = node.elts
            n_names = sum(
                isinstance(e, ast.Constant) and e.value in names for e in elts
            )
            n_runs = sum(
                (isinstance(n, ast.Name) and n.id.startswith("q_"))
                or (isinstance(n, ast.Attribute) and n.attr.startswith("q_"))
                for n in ast.walk(node)
            )
            if n_names >= 10 or n_runs >= 10:
                offenders.append(
                    f"{path.relative_to(root)}:{node.lineno}: literal with "
                    f"{n_names} registered names, {n_runs} q_* references"
                )
    assert not offenders, offenders


def test_no_literal_bucket_widths():
    """Shuffle widths must derive from the cluster, never sit at a
    laptop literal (a constant caps parallelism on 256 nodes), and the
    count must be resolved ON THE DRIVER and captured — a worker-side
    cache (the removed ``auto_num_buckets``) can diverge across an
    elastic-cluster resize and silently split coarse groups.  Pin both:
    no ``bucket_of(x, w)`` call whose width ``w`` is an int literal or
    a name bound to one in the same function, no ``num_partitions``
    parameter default or keyword argument that is an int literal (Ray
    sizes one hash-shuffle aggregator per partition, so a literal 32
    asks a small host for more memory than it has and never starts),
    no int-literal ``map_parallelism=`` or ``segment_apply(...,
    num_buckets=<literal>)`` keyword, and no worker-side resolver name
    anywhere in the engine source."""
    import ast
    import re
    from pathlib import Path

    def int_literal(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    root = Path(__file__).resolve().parents[1] / "pygridmap_ray"
    offenders = []
    for mod in root.rglob("*.py"):
        src = mod.read_text()
        tree = ast.parse(src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fname = getattr(node.func, "id", getattr(node.func, "attr", ""))
                for kw in node.keywords:
                    if not int_literal(kw.value):
                        continue
                    if kw.arg in ("num_partitions", "map_parallelism") or (
                        kw.arg == "num_buckets" and fname == "segment_apply"
                    ):
                        offenders.append(
                            f"{mod.name}:{node.lineno}: literal "
                            f"{kw.arg}={kw.value.value}"
                        )
            elif isinstance(node, ast.arguments):
                pos = node.posonlyargs + node.args
                pos = zip(pos[len(pos) - len(node.defaults):], node.defaults)
                for p, d in [*pos, *zip(node.kwonlyargs, node.kw_defaults)]:
                    if p.arg == "num_partitions" and int_literal(d):
                        offenders.append(
                            f"{mod.name}:{d.lineno}: literal default "
                            f"num_partitions={d.value}"
                        )
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            literal_names = {
                t.id
                for n in ast.walk(fn)
                if isinstance(n, ast.Assign) and int_literal(n.value)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            for call in ast.walk(fn):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in ("bucket_of", "_bucket_of")
                    and len(call.args) >= 2
                ):
                    continue
                w = call.args[1]
                if int_literal(w) or (
                    isinstance(w, ast.Name) and w.id in literal_names
                ):
                    offenders.append(
                        f"{mod.name}:{call.lineno}: literal width "
                        f"{ast.unparse(call)}"
                    )
        # comments may explain the removed resolver; only code counts
        txt = "\n".join(
            ln for ln in src.splitlines() if not ln.lstrip().startswith("#")
        )
        for name in ("auto_num_buckets", "_auto_nb"):
            if re.search(rf"\b{name}\b", txt):
                offenders.append(f"{mod.name}: worker-side resolver {name}")
    assert not offenders, offenders


def test_one_coarse_bucket_exchange():
    """Every hash-like keyed exchange goes through
    ``cluster.segment_apply``: no ``.groupby(<__-prefixed bucket
    column>).map_groups(...)`` chain and no literal Knuth constant
    2654435761 (an inline bucket hash) outside ``cluster.py`` (which
    owns the one bucket law) and ``synth.py`` (the numpy/SQL twin data
    laws, which name it ``KNUTH_MULT``)."""
    import ast
    from pathlib import Path

    def bucket_key(node) -> bool:
        elts = node.elts if isinstance(node, (ast.List, ast.Tuple)) else [node]
        return bool(elts) and all(
            isinstance(e, ast.Constant)
            and isinstance(e.value, str)
            and e.value.startswith("__")
            for e in elts
        )

    root = Path(__file__).resolve().parents[1] / "pygridmap_ray"
    offenders = []
    for mod in root.rglob("*.py"):
        if mod.name in ("cluster.py", "synth.py"):
            continue
        rel = mod.relative_to(root)
        for node in ast.walk(ast.parse(mod.read_text())):
            if isinstance(node, ast.Constant) and node.value == 2654435761:
                offenders.append(f"{rel}:{node.lineno}: literal 2654435761")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "groupby"
                and node.func.value.args
                and bucket_key(node.func.value.args[0])
            ):
                offenders.append(
                    f"{rel}:{node.lineno}: groupby("
                    f"{ast.unparse(node.func.value.args[0])}).map_groups"
                )
    assert not offenders, offenders


def test_one_broadcast_put():
    """A driver-side value reaches its workers only through
    ``cluster.Broadcast``: no ``ray.put(`` call in the package,
    scripts/, bench.py or __ray_entry__.py outside ``cluster.py``, so
    every broadcast is put once per session and built once per worker.
    perfbench/, which times a bare put and build, is not scanned."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    files = [
        *(root / "pygridmap_ray").rglob("*.py"),
        *(root / "scripts").glob("*.py"),
        root / "bench.py",
        root / "__ray_entry__.py",
    ]
    offenders = [
        f"{path.relative_to(root)}:{node.lineno}: ray.put("
        for path in files
        if path != root / "pygridmap_ray" / "cluster.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "put"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ray"
    ]
    assert not offenders, offenders


def test_no_library_ray_init():
    """Sessions belong to the caller: no library module or
    __ray_entry__ may call ray.init — the only sanctioned site is the
    CLI entry point, and that one must sit behind an
    is_initialized guard (checked textually)."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    offenders = []
    for mod in list((root / "pygridmap_ray").rglob("*.py")) + [
        root / "__ray_entry__.py"
    ]:
        txt = mod.read_text()
        for m in re.finditer(r"^\s*ray\.init\(", txt, re.M):
            if mod.name == "cli.py":
                # must be preceded by an is_initialized early-return
                pre = txt[: m.start()]
                assert "is_initialized" in pre.rsplit("def ", 1)[-1], (
                    "cli.py ray.init lacks the is_initialized guard"
                )
                continue
            offenders.append(str(mod))
    assert not offenders, f"library ray.init in: {offenders}"


def test_entry_puts_its_own_directory_on_sys_path(tmp_path, monkeypatch):
    """__ray_entry__ puts the directory it lives in at the front of
    sys.path, never a fixed checkout path: a driver importing it from a
    second checkout must run that checkout's package."""
    import importlib.util
    import shutil
    import sys
    from pathlib import Path

    import pygridmap_ray.pipelines.queries  # noqa: F401  (its imports settle sys.path)

    copy = tmp_path / "__ray_entry__.py"
    shutil.copy(Path(__file__).resolve().parents[1] / "__ray_entry__.py", copy)
    before = list(sys.path)
    monkeypatch.setattr(sys, "path", list(before))
    spec = importlib.util.spec_from_file_location("_entry_copy", copy)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert sys.path == [str(tmp_path.resolve())] + before


def test_point_containment_has_one_home():
    """The point-in-polygon join paths in spatial.py test containment only
    through geom.index.PolygonIndex: the module never calls
    points_in_rings, and no batch function (one taking a ``pa.Table``)
    loops over the polygon layer or its rects."""
    import ast
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "pygridmap_ray" / "spatial.py"
    tree = ast.parse(path.read_text())
    offenders = [
        f"spatial.py:{n.lineno}: points_in_rings"
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == "points_in_rings")
        or (isinstance(n, ast.Attribute) and n.attr == "points_in_rings")
        or (isinstance(n, ast.alias) and n.name == "points_in_rings")
    ]

    def layer_words(node):
        words = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
        words += [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]
        words += [
            n.value
            for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ]
        return [w for w in words if any(k in w for k in ("poly", "rect", "layer"))]

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args.args + fn.args.kwonlyargs
        if not any(a.annotation is not None and ast.unparse(a.annotation) == "pa.Table" for a in args):
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, (ast.For, ast.AsyncFor, ast.comprehension)):
                hit = layer_words(loop.iter)
                if hit:
                    offenders.append(
                        f"spatial.py:{getattr(loop, 'lineno', fn.lineno)}: "
                        f"{fn.name} loops over {hit}"
                    )
    assert not offenders, offenders


def test_rect_clip_has_one_home():
    """Rect clipping has one home, the ragged pass in geom/kernels.py: no
    loop or comprehension in gridding.py, overlay.py, spatial.py or
    kernels.py calls the one-instance clips (clip_area_rect,
    clip_rings_rect, clip_ring_rect, the convex clip_area_convex,
    clip_rings_convex, clip_ring_convex, and cells_coverage, whose batched
    form is coverage_pairs), and no kernels.py clip function
    steps through a ring vertex by vertex (``for i in range(...)`` with a
    ``(i + 1) % n`` successor)."""
    import ast
    from pathlib import Path

    one_instance = {
        "clip_area_rect", "clip_rings_rect", "clip_ring_rect",
        "clip_area_convex", "clip_rings_convex", "clip_ring_convex",
        "cells_coverage",
    }
    pkg = Path(__file__).resolve().parents[1] / "pygridmap_ray"
    offenders = []
    for rel in ("gridding.py", "overlay.py", "spatial.py", "geom/kernels.py"):
        tree = ast.parse((pkg / rel).read_text())
        loops = [
            n
            for n in ast.walk(tree)
            if isinstance(
                n,
                (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                 ast.DictComp, ast.GeneratorExp),
            )
        ]
        for loop in loops:
            for call in ast.walk(loop):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in one_instance:
                    offenders.append(f"{rel}:{call.lineno}: {name} in a loop")
        if rel != "geom/kernels.py":
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or "clip" not in fn.name:
                continue
            for loop in ast.walk(fn):
                if not (
                    isinstance(loop, ast.For)
                    and isinstance(loop.iter, ast.Call)
                    and getattr(loop.iter.func, "id", None) == "range"
                    and isinstance(loop.target, ast.Name)
                ):
                    continue
                var = loop.target.id
                for m in ast.walk(loop):
                    if (
                        isinstance(m, ast.BinOp)
                        and isinstance(m.op, ast.Mod)
                        and isinstance(m.left, ast.BinOp)
                        and isinstance(m.left.op, ast.Add)
                        and getattr(m.left.left, "id", None) == var
                    ):
                        offenders.append(
                            f"{rel}:{loop.lineno}: {fn.name} steps through vertices"
                        )
                        break
    assert not offenders, offenders


def test_no_zero_row_guard_in_map_udfs():
    """No ``map_batches`` UDF guards a zero-row input: Ray 2.49 never
    calls a UDF on a zero-row block (pinned by
    ``test_segment_apply.py::test_map_batches_never_calls_udf_on_zero_row_blocks``),
    so such a guard is dead code, and its typed empty never reaches a
    downstream schema.  Flags a top-level ``if`` that returns and tests
    ``.num_rows``/``.num_columns`` of a parameter not reassigned before
    it, or ``len(name) == 0`` of a name bound from a parameter's column
    (``ids = np.asarray(batch[id_col])``), in a function whose only uses are as a
    ``map_batches`` UDF (by name or through a one-call lambda).  A
    function also called directly (driver, ``segment_apply`` kernel) may
    keep its guard."""
    import ast
    from pathlib import Path

    fn_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    root = Path(__file__).resolve().parents[1]
    pkg = root / "pygridmap_ray"
    # names referenced from another module (attribute access or import)
    foreign: dict[str, set] = {}
    for path in [
        *pkg.rglob("*.py"),
        *(root / "tests").glob("*.py"),
        *(root / "scripts").glob("*.py"),
        root / "bench.py",
        root / "__ray_entry__.py",
    ]:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.Attribute, ast.alias)):
                foreign.setdefault(
                    n.attr if isinstance(n, ast.Attribute) else n.name, set()
                ).add(path)

    def scope_defs(scope):
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            n = stack.pop()
            if isinstance(n, fn_types):
                yield n
            elif not isinstance(n, ast.ClassDef):
                stack.extend(ast.iter_child_nodes(n))

    def udf_use(name, parents) -> bool:
        p = parents[name]
        if isinstance(p, ast.Call) and p.func is name:
            lam = parents.get(p)
            if not (isinstance(lam, ast.Lambda) and lam.body is p):
                return False
            name, p = lam, parents[lam]
        return (
            isinstance(p, ast.Call)
            and isinstance(p.func, ast.Attribute)
            and p.func.attr == "map_batches"
            and bool(p.args)
            and p.args[0] is name
        )

    offenders = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, *fn_types)):
                continue
            for fn in scope_defs(scope):
                if isinstance(scope, ast.Module) and foreign.get(fn.name, set()) - {path}:
                    continue
                uses = [
                    n for n in ast.walk(scope)
                    if isinstance(n, ast.Name) and n.id == fn.name
                ]
                if not uses or not all(udf_use(u, parents) for u in uses):
                    continue
                params = {a.arg for a in fn.args.posonlyargs + fn.args.args}
                cols: set = set()  # names bound from a parameter's column
                for stmt in fn.body:
                    if isinstance(stmt, ast.If) and isinstance(stmt.body[-1], ast.Return):
                        tested = {
                            t.value.id
                            for t in ast.walk(stmt.test)
                            if isinstance(t, ast.Attribute)
                            and t.attr in ("num_rows", "num_columns")
                            and isinstance(t.value, ast.Name)
                        } & params
                        tested |= {
                            t.left.args[0].id
                            for t in ast.walk(stmt.test)
                            if isinstance(t, ast.Compare)
                            and isinstance(t.left, ast.Call)
                            and isinstance(t.left.func, ast.Name)
                            and t.left.func.id == "len"
                            and len(t.left.args) == 1
                            and isinstance(t.left.args[0], ast.Name)
                            and [type(o) for o in t.ops] == [ast.Eq]
                            and isinstance(t.comparators[0], ast.Constant)
                            and t.comparators[0].value == 0
                        } & cols
                        if tested:
                            offenders.append(
                                f"{path.relative_to(root)}:{stmt.lineno}: {fn.name}: "
                                f"if {ast.unparse(stmt.test)}"
                            )
                    stored = {
                        t.id
                        for t in ast.walk(stmt)
                        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                    }
                    # e.g. ``ids = np.asarray(batch[id_col])`` binds ``ids``
                    from_col = isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in params
                        for t in ast.walk(stmt.value)
                    )
                    cols = (cols - stored) | (stored if from_col else set())
                    params -= stored
    assert not offenders, f"{len(offenders)} zero-row guards:\n" + "\n".join(offenders)
