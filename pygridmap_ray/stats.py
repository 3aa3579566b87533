"""Distribution statistics as shuffle-lean Ray Data plans.

``grouped_quantiles`` computes EXACT per-key quantiles without ever
co-locating a key's raw rows: phase 1 reduces the stream to a value
HISTOGRAM (``groupby((key, value)).count()`` — the shuffle carries only
distinct (key, value) pairs, so 100 TB of rows with a bounded value
domain shrinks to domain-size rows); phase 2 walks each key's histogram
cumulative counts and picks the inverted-CDF rank.

The rank law is DuckDB's ``quantile_disc``: 1-based index
``clamp(ceil(q * n), 1, n)`` into the sorted values (SQL:2016 discrete
percentile; verified against DuckDB over n in 1..10).

Scale limit (documented): exactness relies on the value domain being
bounded (ints, scores at fixed precision).  For continuous unbounded
values, bucket first (fixed-width bins) for approximate quantiles or use
a mergeable sketch; the histogram plan itself is unchanged.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    passthrough_schema,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
)


#: most distinct (key, value) pairs :func:`_grouped_value_hist` gathers
_HIST_DOMAIN_LIMIT = 2_000_000


def _qlabel(q: float) -> str:
    return f"q{int(round(q * 100)):02d}"


def _grouped_value_hist(ds, *, key: str, value: str) -> pd.DataFrame:
    """Exact per-(key, value) counts, gathered to the driver — the
    shared histogram pass behind :func:`grouped_quantiles` /
    :func:`grouped_quantiles_cont`.  Vocabulary-scale by contract
    (discrete / bounded value domains; the corpus-scale continuous path
    is :func:`approx_quantiles`).  One stateless combiner pass (a
    per-batch vectorized groupby-size) then a driver concat + final
    sum — ZERO Ray shuffle.  The previous plan paid two all-to-all
    exchanges (``groupby([key, value]).count()`` then
    ``groupby(key).map_groups``) to build the very same
    vocabulary-scale table that the quantile finish materializes
    anyway; the combiner gather moves strictly fewer bytes.  Null
    values are excluded (SQL aggregate semantics); null keys keep
    their own group (``dropna=False``).

    The vocabulary contract is ENFORCED before the driver concat: when
    the partial rows exceed ``_HIST_DOMAIN_LIMIT`` the distinct (key,
    value) pairs are counted with one :func:`segment_apply` pass over the
    partials, and more than ``_HIST_DOMAIN_LIMIT`` of them raises instead of
    gathering a continuous-looking domain onto the driver."""
    import ray

    ds = ds.select_columns([key, value]).map_batches(
        lambda b: b.filter(pc.is_valid(b[value])), batch_format="pyarrow"
    )

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.to_pandas()
            .groupby([key, value], dropna=False, sort=False)
            .size()
            .reset_index(name="count()")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # materialize before to_arrow_refs: consuming a lazy Dataset via
    # refs triggers schema-probe re-executions of the whole DAG
    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    domain_limit = _HIST_DOMAIN_LIMIT
    if partials.count() > domain_limit:
        n_pairs = segment_apply(
            partials,
            [key, value],
            lambda t, starts: {"n": [len(starts)]},
            pa.schema({"n": pa.int64()}),
        ).sum("n")
        if n_pairs > domain_limit:
            raise ValueError(
                f"{n_pairs} distinct ({key}, {value}) pairs exceed the "
                f"discrete-domain gate ({domain_limit}): this operator "
                "gathers the per-key value histogram, which only fits "
                "bounded domains — for continuous values use "
                "approx_quantiles"
            )
    parts = [p for p in ray.get(partials.to_arrow_refs()) if p.num_rows]
    if not parts:
        return pd.DataFrame({key: [], value: [], "count()": []})
    allp = pa.concat_tables(parts, promote_options="permissive").to_pandas()
    return allp.groupby(
        [key, value], dropna=False, sort=False, as_index=False
    )["count()"].sum()


def grouped_quantiles(
    ds,
    *,
    key: str = "lang",
    value: str = "n_chars",
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
):
    """Per-``key`` exact quantiles of ``value`` -> one row per key with
    columns ``q25, q50, ...`` (label = q + percent).  Null values are
    excluded (SQL aggregate semantics); null keys form their own group.

    Plan: the :func:`_grouped_value_hist` combiner gather (zero Ray
    shuffle), then the per-key rank walk runs once on the driver over
    the k-row-per-key histogram (k = group count, small by contract)."""
    import ray.data as rd

    hist = _grouped_value_hist(ds, key=key, value=value)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value, kind="stable")
        cum = g["count()"].to_numpy(dtype=np.int64).cumsum()
        n = int(cum[-1])
        out = {key: [g[key].iloc[0]]}
        for q in qs:
            rank = min(max(int(np.ceil(q * n)), 1), n)
            pos = int(np.searchsorted(cum, rank, side="left"))
            out[_qlabel(q)] = [g[value].iloc[pos]]
        return pd.DataFrame(out)

    frames = [
        finish(g) for _, g in hist.groupby(key, dropna=False, sort=False)
    ]
    if not frames:
        frames = [pd.DataFrame({key: []} | {_qlabel(q): [] for q in qs})]
    return rd.from_pandas(pd.concat(frames, ignore_index=True))


def sql_grouped_quantiles(
    key: str = "lang",
    value: str = "n_chars",
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    source: str = "documents",
) -> str:
    sel = ", ".join(
        f"quantile_disc({value}, {q}) AS {_qlabel(q)}" for q in qs
    )
    return f"SELECT {key}, {sel} FROM {source} GROUP BY {key}"


def split_by_hash(
    ds,
    *,
    key_col: str = "doc_id",
    splits: dict[str, float] | None = None,
    salt: str = "",
):
    """Deterministic train/val/test assignment by content-stable hash.

    The standard corpus-split contract: the split of a record depends
    only on its key (+ optional salt), never on row order, partitioning
    or cluster size — so reruns, resumes and incremental ingests assign
    identically, and train/test leakage cannot happen through data
    movement.  Law (twinned in SQL): the first 8 md5 hex digits of
    ``str(key) + salt`` as an integer, modulo 1e6, cut by the cumulative
    split fractions.  Zero shuffle — one stateless Arrow stage.
    """
    splits = splits or {"train": 0.8, "val": 0.1, "test": 0.1}
    if abs(sum(splits.values()) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    names = list(splits)
    cuts = np.cumsum([splits[n] for n in names]) * 1_000_000.0

    def assign(b: pa.Table) -> pa.Table:
        from .text import md5_prefix_int

        keys = pc.cast(b[key_col], pa.string())
        h = (
            md5_prefix_int(keys, salt=salt, hexdigits=8)
            % np.uint64(1_000_000)
        ).astype(np.int64)
        idx = np.searchsorted(cuts, h, side="right")
        idx = np.minimum(idx, len(names) - 1)  # h == 1e6 edge (unreachable)
        lab = pa.array(np.array(names, dtype=object)[idx], pa.string())
        return b.append_column("split", lab)

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(
    ds,
    *,
    key_col: str = "doc_id",
    group_col: str = "lang",
    rates: dict[str, float] | None = None,
    default_rate: float = 0.0,
    salt: str = "",
):
    """Deterministic per-group downsampling (corpus rebalancing).

    Each group gets its own keep-rate (e.g. upweight scarce languages by
    downsampling dominant ones); a record survives iff its content-stable
    hash (same md5 law as :func:`split_by_hash`) falls under its group's
    cut.  Rerun/resume/partition invariant, zero shuffle — one stateless
    vectorized filter stage.  Groups absent from ``rates`` use
    ``default_rate`` (0 = drop).
    """
    rates = rates or {}
    for g, r in rates.items():
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"rate for {g!r} must be in [0, 1], got {r}")

    def keep(b: pa.Table) -> pa.Table:
        from .text import md5_prefix_int

        h = (
            md5_prefix_int(
                pc.cast(b[key_col], pa.string()), salt=salt, hexdigits=8
            )
            % np.uint64(1_000_000)
        ).astype(np.int64)
        groups = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        cuts = np.fromiter(
            (rates.get(g, default_rate) * 1_000_000.0 for g in groups),
            dtype=np.float64,
            count=len(groups),
        )
        return b.filter(pa.array(h < cuts))

    return ds.map_batches(keep, batch_format="pyarrow")


def sql_stratified_sample(
    key_col: str = "doc_id",
    group_col: str = "lang",
    rates: dict[str, float] | None = None,
    default_rate: float = 0.0,
    salt: str = "",
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`stratified_sample` — same hash law, same
    strict-< cut comparison."""
    rates = rates or {}
    h = (
        f"(('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 8))"
        f"::BIGINT % 1000000)"
    )
    case = "CASE "
    for g, r in rates.items():
        case += f"WHEN {group_col} = '{g}' THEN {r * 1_000_000.0!r} "
    case += f"ELSE {default_rate * 1_000_000.0!r} END"
    return f"SELECT * FROM {source} WHERE {h} < ({case})"


def sql_split_by_hash(
    key_col: str = "doc_id",
    splits: dict[str, float] | None = None,
    salt: str = "",
    source: str = "documents",
) -> str:
    splits = splits or {"train": 0.8, "val": 0.1, "test": 0.1}
    names = list(splits)
    cuts = np.cumsum([splits[n] for n in names]) * 1_000_000.0
    h = (
        f"(('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 8))"
        f"::BIGINT % 1000000)"
    )
    case = "CASE "
    for name, cut in zip(names[:-1], cuts[:-1]):
        # strict <: a hash equal to the cut belongs to the NEXT split,
        # matching numpy searchsorted(side='right') in split_by_hash
        case += f"WHEN {h} < {cut!r} THEN '{name}' "
    case += f"ELSE '{names[-1]}' END"
    return f"SELECT *, {case} AS split FROM {source}"


# ---------------------------------------------------------------------------
# Rolling (keyed, ordered) window aggregates
# ---------------------------------------------------------------------------


def rolling_aggregate(
    ds,
    *,
    key_col: str,
    order_cols: tuple[str, ...],
    value_col: str,
    window: int,
    num_buckets: int | None = None,
    round_to: int | None = 6,
):
    """Per-key moving-window aggregates over ROWS ``window-1`` PRECEDING
    .. CURRENT (SQL's ``SUM(v) OVER (PARTITION BY key ORDER BY ...
    ROWS BETWEEN n PRECEDING AND CURRENT ROW)``), with skip-null
    sum/mean/min/max/count semantics matching SQL window aggregates.

    One hash shuffle: rows bucket by ``hash(key) % num_buckets`` (bounded
    group count independent of key cardinality — the repo's coarse-group
    rule), each bucket resolves with ONE lexsort + prefix-sum sliding
    reductions (no per-key Python).  Assumes one key's rows fit in a
    worker, like any keyed window; a hot key degrades to its own volume.

    ``order_cols`` must make the order within a key total (append a
    unique id as the last tiebreak) or results are nondeterministic.
    ``round_to`` applies half-away rounding to sum/mean on BOTH this and
    the SQL side (:func:`sql_rolling_aggregate`) so summation-order ulp
    noise cannot flip the comparison; min/max/count are exact selections
    and pass through unrounded.
    """
    num_buckets = _resolve_buckets(num_buckets)
    if window < 1:
        raise ValueError("window must be >= 1")

    def kernel(g: pa.Table, starts: np.ndarray) -> pa.Table:
        n = g.num_rows
        vcol = g[value_col]
        valid = ~np.asarray(pc.is_null(vcol).combine_chunks())
        v = np.asarray(pc.fill_null(pc.cast(vcol, pa.float64()), 0.0))
        idx = np.arange(n)
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        win_start = np.maximum(seg_start, idx - window + 1)
        psum = np.concatenate([[0.0], np.cumsum(np.where(valid, v, 0.0))])
        pcnt = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        rsum = psum[idx + 1] - psum[win_start]
        rcnt = pcnt[idx + 1] - pcnt[win_start]
        lo = np.where(valid, v, np.inf)
        hi = np.where(valid, v, -np.inf)
        rmin = lo.copy()
        rmax = hi.copy()
        for j in range(1, window):
            src = idx - j
            ok = src >= win_start
            np.minimum(rmin, np.where(ok, lo[np.maximum(src, 0)], np.inf), out=rmin)
            np.maximum(rmax, np.where(ok, hi[np.maximum(src, 0)], -np.inf), out=rmax)
        empty = rcnt == 0
        rmean = rsum / np.maximum(rcnt, 1)
        if round_to is not None:
            tol = 10.0**round_to
            rsum = np.sign(rsum) * np.floor(np.abs(rsum) * tol + 0.5) / tol
            rmean = np.sign(rmean) * np.floor(np.abs(rmean) * tol + 0.5) / tol
        out = g.append_column("roll_sum", pa.array(rsum, mask=empty))
        out = out.append_column("roll_mean", pa.array(rmean, mask=empty))
        out = out.append_column("roll_min", pa.array(rmin, mask=empty))
        out = out.append_column("roll_max", pa.array(rmax, mask=empty))
        return out.append_column("roll_n", pa.array(rcnt))

    f64 = pa.float64()
    return segment_apply(
        # narrow inputs often arrive as 1-2 blocks; the exchange is a
        # sort shuffle whose MAP parallelism equals the block count —
        # repartition first so it doesn't serialize on one task
        ds.repartition(max(16, num_buckets // 4)),
        key_col,
        kernel,
        passthrough_schema(
            ds,
            [("roll_sum", f64), ("roll_mean", f64), ("roll_min", f64),
             ("roll_max", f64), ("roll_n", pa.int64())],
        ),
        order=order_cols,
        num_buckets=num_buckets,
    )


def sql_rolling_aggregate(
    *,
    key_col: str,
    order_by: str,
    value_col: str,
    window: int,
    source: str = "events",
    select: str = "*",
    round_to: int | None = 6,
) -> str:
    """DuckDB twin of :func:`rolling_aggregate` (same frame, same
    skip-null law, same half-away rounding of sum/mean)."""
    w = (
        f"(PARTITION BY {key_col} ORDER BY {order_by} "
        f"ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW)"
    )
    s, m = f"SUM({value_col}) OVER w", f"COUNT({value_col}) OVER w"
    if round_to is not None:
        tol = f"1e{round_to}"
        rsum = f"ROUND(({s}) * {tol}) / {tol}"
        rmean = f"ROUND(({s} / ({m})) * {tol}) / {tol}"
    else:
        rsum, rmean = s, f"{s} / ({m})"
    return (
        f"SELECT {select}, {rsum} AS roll_sum, {rmean} AS roll_mean, "
        f"MIN({value_col}) OVER w AS roll_min, "
        f"MAX({value_col}) OVER w AS roll_max, "
        f"({m})::BIGINT AS roll_n "
        f"FROM {source} WINDOW w AS {w}"
    )


# ---------------------------------------------------------------------------
# Grouped second moments: variance / stddev / correlation
# ---------------------------------------------------------------------------


def grouped_moments(
    ds,
    *,
    group_col: str,
    x_col: str,
    y_col: str | None = None,
    round_to: int | None = 6,
):
    """Per-group VAR_SAMP/STDDEV_SAMP(x) (+ CORR(x, y)) as a two-phase
    plan: per-batch moment partials (n, Σx, Σx² — and the PAIR moments
    over rows where both x and y are non-null, SQL's CORR null law) ->
    built-in Sum combine keyed by the low-cardinality group -> one
    vectorized finish.  The shuffle moves one row per (group, batch); raw
    rows never co-locate.

    Two-pass cancellation note: Σx² − (Σx)²/n loses ~n·ulp(Σx²) — fine
    for O(1)-magnitude columns at ``round_to=6``; shift/scale wide
    columns first.
    """

    def partial(b: pa.Table) -> pa.Table:
        cols = {
            "g": [], "n_x": [], "sx": [], "sxx": [],
            "n_p": [], "px": [], "py": [], "pxx": [], "pyy": [], "pxy": [],
        }
        if b.num_rows:
            g = np.asarray(b[group_col]).astype(object)
            x = np.asarray(
                pc.fill_null(pc.cast(b[x_col], pa.float64()), np.nan)
            )
            vx = ~np.isnan(x)
            if y_col is not None:
                y = np.asarray(
                    pc.fill_null(pc.cast(b[y_col], pa.float64()), np.nan)
                )
                vp = vx & ~np.isnan(y)
            # factorize -> integer sort (object-array argsort compares
            # Python strings pairwise — the measured hot cost here)
            codes, uniq_g = pd.factorize(g, sort=False)
            order = np.argsort(codes, kind="stable")
            gs_codes = codes[order]
            starts = np.nonzero(np.r_[True, gs_codes[1:] != gs_codes[:-1]])[0]
            gs = uniq_g.to_numpy() if hasattr(uniq_g, "to_numpy") else np.asarray(uniq_g)
            gs = gs[gs_codes]
            xo = x[order]
            vxo = vx[order]
            xz = np.where(vxo, xo, 0.0)
            cols["g"] = gs[starts].tolist()
            cols["n_x"] = np.add.reduceat(vxo.astype(np.int64), starts)
            cols["sx"] = np.add.reduceat(xz, starts)
            cols["sxx"] = np.add.reduceat(xz * xz, starts)
            if y_col is not None:
                yo = y[order]
                vpo = vp[order]
                xp = np.where(vpo, xo, 0.0)
                yp = np.where(vpo, yo, 0.0)
                cols["n_p"] = np.add.reduceat(vpo.astype(np.int64), starts)
                cols["px"] = np.add.reduceat(xp, starts)
                cols["py"] = np.add.reduceat(yp, starts)
                cols["pxx"] = np.add.reduceat(xp * xp, starts)
                cols["pyy"] = np.add.reduceat(yp * yp, starts)
                cols["pxy"] = np.add.reduceat(xp * yp, starts)
            else:
                z = np.zeros(len(starts))
                for k in ("n_p", "px", "py", "pxx", "pyy", "pxy"):
                    cols[k] = z
        return pa.table(
            {
                group_col: pa.array(cols["g"], pa.string()),
                "n_x": pa.array(np.asarray(cols["n_x"], np.int64)),
                **{
                    k: pa.array(np.asarray(cols[k], np.float64))
                    for k in ("sx", "sxx", "px", "py", "pxx", "pyy", "pxy")
                },
                "n_p": pa.array(np.asarray(cols["n_p"], np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            *(
                Sum(c, alias_name=c)
                for c in ("n_x", "sx", "sxx", "n_p", "px", "py", "pxx", "pyy", "pxy")
            )
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n_x"], np.float64)
        sx = np.asarray(b["sx"], np.float64)
        sxx = np.asarray(b["sxx"], np.float64)
        n1 = np.maximum(n, 1.0)
        var = (sxx - sx * sx / n1) / np.maximum(n - 1.0, 1.0)
        var = np.maximum(var, 0.0)  # clamp -ulp noise
        sd = np.sqrt(var)
        var_mask = n < 2
        out = {
            group_col: b[group_col],
            "n_x": pc.cast(b["n_x"], pa.int64()),
            "var_x": (var, var_mask),
            "std_x": (sd, var_mask),
        }
        if y_col is not None:
            np_ = np.asarray(b["n_p"], np.float64)
            px = np.asarray(b["px"], np.float64)
            py = np.asarray(b["py"], np.float64)
            pxx = np.asarray(b["pxx"], np.float64)
            pyy = np.asarray(b["pyy"], np.float64)
            pxy = np.asarray(b["pxy"], np.float64)
            npm = np.maximum(np_, 1.0)
            cov = pxy - px * py / npm
            dx = np.maximum(pxx - px * px / npm, 0.0)
            dy = np.maximum(pyy - py * py / npm, 0.0)
            den = np.sqrt(dx * dy)
            corr = cov / np.where(den > 0, den, 1.0)
            out["corr_xy"] = (corr, (np_ < 2) | (den == 0))
        cols = {}
        for k, v in out.items():
            if isinstance(v, tuple):
                vals, mask = v
                if round_to is not None:
                    tol = 10.0**round_to
                    vals = np.sign(vals) * np.floor(np.abs(vals) * tol + 0.5) / tol
                cols[k] = pa.array(vals, mask=mask)
            else:
                cols[k] = v
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_grouped_moments(
    *,
    group_col: str,
    x_col: str,
    y_col: str | None = None,
    source: str = "lineitem",
    round_to: int | None = 6,
) -> str:
    """DuckDB twin of :func:`grouped_moments` — same null laws (STDDEV
    skips null x; CORR skips rows where either side is null), same
    half-away rounding."""
    tol = f"1e{round_to}" if round_to is not None else None

    def r(e: str) -> str:
        return f"ROUND(({e}) * {tol}) / {tol}" if tol else e

    sel = [
        group_col,
        f"COUNT({x_col})::BIGINT AS n_x",
        f"{r(f'VAR_SAMP({x_col})')} AS var_x",
        f"{r(f'STDDEV_SAMP({x_col})')} AS std_x",
    ]
    if y_col is not None:
        sel.append(f"{r(f'CORR({x_col}, {y_col})')} AS corr_xy")
    return (
        f"SELECT {', '.join(sel)} FROM {source} GROUP BY {group_col}"
    )


# ---------------------------------------------------------------------------
# Approximate count-distinct (deterministic HyperLogLog)
# ---------------------------------------------------------------------------

#: HLL geometry: p=6 -> 64 registers.  Small enough that the SQL twin can
#: materialize the register grid, big enough for ~10% standard error —
#: the LAW is what the oracle checks; production accuracy is a p knob.
_HLL_P = 6
_HLL_M = 1 << _HLL_P


def hll_distinct(ds, *, group_col: str, key_col: str, map_parallelism: int = 0):
    """Per-group approximate COUNT(DISTINCT key) via a DETERMINISTIC
    HyperLogLog: h = 60-bit md5 prefix of the key string, register
    ``j = h % m``, rank ``rho = leading zeros of the remaining 54 bits
    + 1``; estimate = alpha_m * m^2 / sum(2^-M_j) with the standard
    linear-counting small-range correction.

    Everything is a pure function of the key bytes, so the result is
    rerun/partition invariant AND reproducible in SQL
    (:func:`sql_hll_distinct` — the oracle checks the exact estimate,
    not a tolerance).  Scale shape: each batch reduces to <= m rows of
    (group, register, max-rank); the shuffle carries registers, never
    keys.  Register merge is elementwise max, the one aggregation that
    is idempotent, commutative and associative — the canonical sketch.
    """
    import hashlib

    from ray.data.aggregate import Max

    def partial(b: pa.Table) -> pa.Table:
        g = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        keys = np.asarray(pc.cast(b[key_col], pa.string())).astype(object)
        # duplicates are the common case (repeated visitors) — hash each
        # distinct (group, key) once per batch
        first = (
            ~pd.DataFrame({"g": g, "k": keys}).duplicated().to_numpy()
        )
        g = g[first]
        keys = keys[first].tolist()
        from .text import md5_prefix_int

        hv = md5_prefix_int(keys, hexdigits=15).astype(np.int64)
        j = hv & (_HLL_M - 1)
        w = hv >> _HLL_P
        # exact bit_length (float log2 mis-rounds within 1 ulp of 2^54)
        bl = np.frompyfunc(int.bit_length, 1, 1)(w.astype(object)).astype(np.int64)
        rho = (60 - _HLL_P) - bl + 1
        df = pd.DataFrame({"g": g, "j": j, "rho": rho})
        red = df.groupby(["g", "j"], sort=False)["rho"].max().reset_index()
        return pa.table(
            {
                group_col: pa.array(red["g"], pa.string()),
                "j": pa.array(red["j"].to_numpy(np.int64)),
                "rho": pa.array(red["rho"].to_numpy(np.int64)),
            }
        )

    if map_parallelism:
        # small narrow inputs arrive as 1-2 blocks, serializing the md5
        # partial; NEVER set this on corpus-scale inputs (it is a full
        # extra shuffle) — their natural block count already parallelizes
        ds = ds.repartition(map_parallelism)
    regs = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "j"])
        .aggregate(Max("rho", alias_name="rho"))
    )

    def finish(g: pa.Table) -> pa.Table:
        name = g[group_col][0].as_py()
        m = _HLL_M
        M = np.zeros(m, dtype=np.int64)
        M[np.asarray(g["j"], np.int64)] = np.asarray(g["rho"], np.int64)
        denom = float(np.sum(1.0 / (1 << M).astype(np.float64)))
        v = int(np.sum(M == 0))
        alpha = 0.7213 / (1.0 + 1.079 / m)
        raw = alpha * float(m * m) / denom
        if raw <= 2.5 * m and v > 0:
            est = float(m) * float(np.log(float(m) / v))
        else:
            est = raw
        tol = 1e6
        est = float(np.sign(est) * np.floor(abs(est) * tol + 0.5) / tol)
        return pa.table({group_col: [name], "approx_distinct": [est]})

    # group cardinality is low by contract (it keys the output report)
    return regs.groupby(group_col).map_groups(finish, batch_format="pyarrow")


def sql_hll_distinct(
    *, group_col: str, key_col: str, source: str = "events"
) -> str:
    """DuckDB twin of :func:`hll_distinct`: identical hash, register,
    and estimator arithmetic (exact power-of-two terms via ``1 << m``,
    double-cast alpha expression, same rounding)."""
    m, p = _HLL_M, _HLL_P
    wbits = 60 - p
    return f"""
WITH h AS (
  SELECT CAST({group_col} AS VARCHAR) AS g,
         ('0x' || substr(md5(CAST({key_col} AS VARCHAR)), 1, 15))::BIGINT AS hv
  FROM {source}
), r AS (
  SELECT g, hv % {m} AS j,
         CASE WHEN hv // {m} = 0 THEN {wbits + 1}
              ELSE {wbits + 1} - length(bin(hv // {m})) END AS rho
  FROM h
), regs AS (
  SELECT g, j, MAX(rho) AS mj FROM r GROUP BY g, j
), grid AS (
  SELECT gg.g, gs.j FROM (SELECT DISTINCT g FROM regs) gg,
       (SELECT unnest(range({m})) AS j) gs
), filled AS (
  SELECT grid.g, grid.j, COALESCE(regs.mj, 0) AS mj
  FROM grid LEFT JOIN regs ON grid.g = regs.g AND grid.j = regs.j
), est AS (
  SELECT g, SUM(1.0::DOUBLE / (1::BIGINT << mj)) AS denom,
         SUM(CASE WHEN mj = 0 THEN 1 ELSE 0 END) AS v
  FROM filled GROUP BY g
)
SELECT g AS {group_col},
  ROUND((CASE WHEN (0.7213::DOUBLE / (1.0::DOUBLE + 1.079::DOUBLE / {m}))
                   * {m * m}.0 / denom <= {2.5 * m}
              AND v > 0
         THEN {m}.0 * ln({m}.0 / v)
         ELSE (0.7213::DOUBLE / (1.0::DOUBLE + 1.079::DOUBLE / {m}))
              * {m * m}.0 / denom END) * 1e6) / 1e6 AS approx_distinct
FROM est
"""


# ---------------------------------------------------------------------------
# Grouped top-k (rank within group)
# ---------------------------------------------------------------------------


def grouped_topk(
    ds,
    *,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    k: int,
    descending: bool = True,
    num_buckets: int | None = None,
):
    """Top ``k`` rows per group by ``order_col`` (desc by default), ties
    broken by ``tiebreak_col`` ASC — SQL's ``ROW_NUMBER() OVER
    (PARTITION BY g ORDER BY v DESC, tie) <= k``, emitted with the
    1-based ``rank`` column.

    One coarse-bucketed shuffle (``hash(group) % num_buckets`` — bounded
    group count regardless of group cardinality), then a vectorized
    per-bucket sort + cumcount.  ``tiebreak_col`` must be unique within
    a group or ranks are nondeterministic."""
    num_buckets = _resolve_buckets(num_buckets)
    if k < 1:
        raise ValueError("k must be >= 1")

    def kernel(t: pa.Table, starts: np.ndarray) -> pa.Table:
        cnt = np.diff(np.append(starts, t.num_rows))
        rank = np.arange(t.num_rows) - np.repeat(starts, cnt) + 1
        keep = rank <= k
        return t.filter(pa.array(keep)).append_column(
            "rank", pa.array(rank[keep])
        )

    return segment_apply(
        ds.repartition(max(16, num_buckets // 4)),
        group_col,
        kernel,
        passthrough_schema(ds, [("rank", pa.int64())]),
        order=(
            (order_col, "descending" if descending else "ascending"),
            tiebreak_col,
        ),
        num_buckets=num_buckets,
    )


def sql_grouped_topk(
    *,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    k: int,
    descending: bool = True,
    source: str = "orders",
    select: str = "*",
) -> str:
    """DuckDB twin of :func:`grouped_topk`."""
    direction = "DESC" if descending else "ASC"
    return (
        f"SELECT * FROM (SELECT {select}, ROW_NUMBER() OVER "
        f"(PARTITION BY {group_col} ORDER BY {order_col} {direction}, "
        f"{tiebreak_col}) AS rank FROM {source}) WHERE rank <= {k}"
    )


# ---------------------------------------------------------------------------
# distributed second moments / covariance / PCA over an embedding column
# ---------------------------------------------------------------------------


def embedding_moments(ds, *, vec_col: str = "embedding", dims: int | None = None):
    """(n, sum-vector, sum-outer-product) of an embedding column — the
    combinable sufficient statistics for mean/covariance/PCA.

    Two-phase reduce: each batch emits ONE partial row (an int64 count, a
    ``dims`` float64 list, a ``dims^2`` float64 list); the driver folds
    the ~``num_blocks`` partial rows (a few KB each — a reduction OUTPUT,
    never the dataset).  Float32 vectors are widened to float64 before
    any product so the law matches a ``CAST(... AS DOUBLE)`` SQL twin.

    Returns ``(n, s, xx)`` with ``s`` shape ``(dims,)`` and ``xx`` shape
    ``(dims, dims)``."""

    def partial(b: pa.Table) -> pa.Table:
        col = b[vec_col].combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.float64)
        d = len(flat) // max(1, b.num_rows) if b.num_rows else 0
        x = flat.reshape(b.num_rows, d) if b.num_rows else flat.reshape(0, 0)
        if dims is not None:
            x = x[:, :dims]
        return pa.table(
            {
                "n": pa.array([x.shape[0]], pa.int64()),
                "s": pa.array([x.sum(axis=0).tolist()],
                              pa.list_(pa.float64())),
                "xx": pa.array([(x.T @ x).ravel().tolist()],
                               pa.list_(pa.float64())),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    d = dims if dims is not None else (
        len(parts["s"].iloc[0]) if len(parts) else 0
    )
    s = np.zeros(d, dtype=np.float64)
    xx = np.zeros((d, d), dtype=np.float64)
    for sv, xv in zip(parts["s"], parts["xx"]):
        if len(sv):
            s += np.asarray(sv, dtype=np.float64)
            xx += np.asarray(xv, dtype=np.float64).reshape(d, d)
    return n, s, xx


def embedding_covariance(ds, *, vec_col: str = "embedding", dims: int = 16,
                         decimals: int = 6) -> pa.Table:
    """Sample covariance matrix of the first ``dims`` embedding
    coordinates as a long-form (i, j, cov) table, 1-based indices,
    rounded half-away at ``decimals`` (absorbs summation-order ulp vs the
    SQL ``covar_samp`` twin)."""
    n, s, xx = embedding_moments(ds, vec_col=vec_col, dims=dims)
    mu = s / n
    cov = (xx - n * np.outer(mu, mu)) / (n - 1)
    i, j = np.meshgrid(np.arange(1, dims + 1), np.arange(1, dims + 1),
                       indexing="ij")
    tol = 10.0 ** decimals
    c = cov.ravel()
    r = np.sign(c) * np.floor(np.abs(c) * tol + 0.5) / tol
    return pa.table(
        {
            "i": pa.array(i.ravel().astype(np.int64)),
            "j": pa.array(j.ravel().astype(np.int64)),
            "cov": pa.array(r),
        }
    )


def sql_embedding_covariance(*, dims: int = 16, decimals: int = 6,
                             source: str = "embeddings",
                             vec_col: str = "embedding") -> str:
    """DuckDB twin of :func:`embedding_covariance` (covar_samp over the
    unnested, double-cast coordinates)."""
    return f"""
WITH e AS (
  SELECT vec_id,
         CAST(unnest({vec_col}[1:{dims}]) AS DOUBLE) AS v,
         generate_subscripts({vec_col}[1:{dims}], 1)::BIGINT AS i
  FROM {source}
)
SELECT a.i AS i, b.i AS j, ROUND(covar_samp(a.v, b.v), {decimals}) AS cov
FROM e a JOIN e b USING (vec_id)
GROUP BY a.i, b.i
"""


def pca_project(ds, *, vec_col: str = "embedding", id_col: str = "vec_id",
                dims: int | None = None, k: int = 4):
    """Distributed PCA: moments two-phase reduce -> dense ``eigh`` on the
    driver (dims x dims — driver-scale by construction) -> broadcast the
    (mean, top-k components) once -> one vectorized projection pass.

    Component sign is canonicalized (largest-|coeff| entry positive) so
    the output is deterministic.  Returns rows of (id, pc1..pck)."""
    n, s, xx = embedding_moments(ds, vec_col=vec_col, dims=dims)
    mu = s / n
    cov = (xx - n * np.outer(mu, mu)) / (n - 1)
    w, v = np.linalg.eigh(cov)            # ascending eigenvalues
    comps = v[:, ::-1][:, :k].T.copy()    # (k, d), descending variance
    flip = np.abs(comps).argmax(axis=1)
    sign = np.sign(comps[np.arange(k), flip])
    comps *= np.where(sign == 0, 1.0, sign)[:, None]
    ref = Broadcast((mu, comps))
    d = len(mu)

    def project(b: pa.Table) -> pa.Table:
        mean, cmp_ = ref.get()
        col = b[vec_col].combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.float64)
        x = flat.reshape(b.num_rows, -1)[:, :d] if b.num_rows else flat.reshape(0, d)
        y = (x - mean) @ cmp_.T
        out = {id_col: b[id_col]}
        for c in range(cmp_.shape[0]):
            out[f"pc{c + 1}"] = pa.array(y[:, c])
        return pa.table(out)

    return ds.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# rollup / pivot / grouped string_agg
# ---------------------------------------------------------------------------


_NULL_KEY_TOKEN = "\x00<null>\x00"


def rollup_aggregate(ds, *, keys: tuple[str, str], value: str,
                     cube: bool = False):
    """``GROUP BY ROLLUP(k1, k2)`` counts + sums: the finest groupby runs
    ONCE over the data (the only corpus-scale pass); the coarser levels
    re-aggregate the finest RESULT (aggregate-scale inputs), exactly how
    a warehouse plans rollups.  NULL marks the rolled-up key, matching
    the SQL law.  ``cube=True`` adds the (NULL, k2) level — ``GROUP BY
    CUBE`` — still from the same single finest pass, computed PRE-decode
    so data-null keys stay distinguishable from rollup markers.

    Null DATA keys (string-typed) are supported: Ray's sort aggregate
    cannot order None among strings, so they ride through the groupby as
    a sentinel token and decode back to null on output — the result
    multiset matches SQL ROLLUP's (where a data-null group's subtotal
    and the rollup marker are likewise both NULL)."""
    from ray.data.aggregate import Count, Sum

    k1, k2 = keys

    def _enc(b: pa.Table) -> pa.Table:
        for c in (k1, k2):
            i = b.schema.get_field_index(c)
            t = b.schema.field(c).type
            # an all-null block degrades the column to Arrow's null type
            # (Ray emits per-block schemas) — normalize to string first
            if pa.types.is_null(t):
                b = b.set_column(i, c, pc.cast(b[c], pa.string()))
                t = pa.string()
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                b = b.set_column(
                    i, c, pc.fill_null(pc.cast(b[c], pa.string()),
                                       pa.scalar(_NULL_KEY_TOKEN))
                )
        return b

    fine = (
        ds.map_batches(_enc, batch_format="pyarrow")
        .groupby(list(keys))
        .aggregate(Count(alias_name="n_rows"), Sum(value, alias_name="sum_val"))
        .materialize()
    )  # consumed by three levels
    sch = fine.schema().base_schema  # driver-side: key Arrow types
    t1, t2 = sch.field(k1).type, sch.field(k2).type

    lvl1 = (
        fine.groupby(k1)
        .aggregate(Sum("n_rows", alias_name="n_rows"),
                   Sum("sum_val", alias_name="sum_val"))
        .map_batches(
            lambda b: b.append_column(
                k2, pa.nulls(b.num_rows, t2)
            ).select([k1, k2, "n_rows", "sum_val"]),
            batch_format="pyarrow",
        )
    )

    def _total(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                k1: pa.nulls(1, t1),
                k2: pa.nulls(1, t2),
                "n_rows": pa.array(
                    [pc.sum(b["n_rows"]).as_py() or 0], pa.int64()
                ),
                "sum_val": pa.array(
                    [pc.sum(b["sum_val"]).as_py() or 0], pa.int64()
                ),
            }
        )

    lvl0 = fine.repartition(1).map_batches(_total, batch_format="pyarrow")
    fine_sel = fine.map_batches(
        lambda b: b.select([k1, k2, "n_rows", "sum_val"]),
        batch_format="pyarrow",
    )

    lvl2 = None
    if cube:
        lvl2 = (
            fine.groupby(k2)
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("sum_val", alias_name="sum_val"))
            .map_batches(
                lambda b: b.append_column(
                    k1, pa.nulls(b.num_rows, t1)
                ).select([k1, k2, "n_rows", "sum_val"]),
                batch_format="pyarrow",
            )
        )

    def _dec(b: pa.Table) -> pa.Table:
        for c in (k1, k2):
            i = b.schema.get_field_index(c)
            if pa.types.is_string(b.schema.field(c).type):
                col = b[c]
                b = b.set_column(
                    i, c,
                    pc.if_else(
                        pc.equal(col, pa.scalar(_NULL_KEY_TOKEN)),
                        pa.nulls(b.num_rows, pa.string()),
                        col,
                    ),
                )
        return b

    out = fine_sel.union(lvl1).union(lvl0)
    if lvl2 is not None:
        out = out.union(lvl2)
    return out.map_batches(_dec, batch_format="pyarrow")


def sql_rollup_aggregate(*, keys: tuple[str, str], value: str,
                         source: str = "documents") -> str:
    k1, k2 = keys
    return (
        f"SELECT {k1}, {k2}, COUNT(*)::BIGINT AS n_rows, "
        f"SUM({value})::BIGINT AS sum_val FROM {source} "
        f"GROUP BY ROLLUP({k1}, {k2})"
    )


def pivot_counts(ds, *, group_col: str, pivot_col: str, categories: tuple,
                 value: str):
    """Wide pivot: one row per ``group_col``, a count column per
    ``pivot_col`` category plus a value sum — per-batch vectorized
    partials (one row per group per batch), one tiny groupby-sum.  The
    category set must be CLOSED and small (it becomes the schema)."""
    from ray.data.aggregate import Sum

    cats = list(categories)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = (
            b.groupby(group_col, sort=False)[value]
            .sum()
            .rename("sum_val")
            .to_frame()
        )
        for c in cats:  # one vectorized pass per category (closed, small)
            out[f"n_{c}"] = (
                b[b[pivot_col] == c]
                .groupby(group_col, sort=False)
                .size()
                .reindex(out.index, fill_value=0)
                .astype(np.int64)
            )
        return out.reset_index()

    aggs = [Sum("sum_val", alias_name="sum_val")] + [
        Sum(f"n_{c}", alias_name=f"n_{c}") for c in cats
    ]
    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(group_col)
        .aggregate(*aggs)
    )


def sql_pivot_counts(*, group_col: str, pivot_col: str, categories: tuple,
                     value: str, source: str = "documents") -> str:
    cols = ", ".join(
        f"COUNT(*) FILTER (WHERE {pivot_col} = '{c}')::BIGINT AS n_{c}"
        for c in categories
    )
    return (
        f"SELECT {group_col}, SUM({value})::BIGINT AS sum_val, {cols} "
        f"FROM {source} GROUP BY {group_col}"
    )


def grouped_string_agg(ds, *, group_col: str, value_col: str,
                       sep: str = ","):
    """``string_agg(value ORDER BY value)`` per group — low-cardinality
    groups only (the concatenated string materializes per group; a
    corpus-scale group would need the packed-sink layout instead)."""

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy(dtype=np.int64))
        return pd.DataFrame(
            {
                group_col: [g[group_col].iloc[0]],
                "ids": [sep.join(str(x) for x in v)],
            }
        )

    return ds.groupby(group_col).map_groups(agg, batch_format="pandas")


def sql_grouped_string_agg(*, group_col: str, value_col: str,
                           sep: str = ",", source: str = "documents") -> str:
    return (
        f"SELECT {group_col}, string_agg(CAST({value_col} AS VARCHAR), "
        f"'{sep}' ORDER BY {value_col}) AS ids FROM {source} "
        f"GROUP BY {group_col}"
    )


# ---------------------------------------------------------------------------
# per-key LAG/LEAD (ordered neighbor access)
# ---------------------------------------------------------------------------


def keyed_lag(
    ds,
    *,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    num_buckets: int | None = None,
):
    """Per-key ordered neighbor access — SQL's ``LAG``/``LEAD`` — plus
    the inter-event time delta (microseconds since the key's previous
    event).  Order within a key is (``ts_col``, ``id_col``), total by
    construction.

    Same shape as :func:`rolling_aggregate`: ONE hash shuffle into
    ``hash(key) % num_buckets`` coarse buckets (bounded group count at
    any key cardinality), one lexsort per bucket, neighbor values via
    shifted views masked at key boundaries — zero per-key Python."""
    def kernel(g: pa.Table, starts: np.ndarray) -> pa.Table:
        n = g.num_rows
        keys = np.asarray(g[key_col], dtype=np.int64)
        ts = np.asarray(g[ts_col]).astype("datetime64[us]").view(np.int64)
        ids = np.asarray(g[id_col], dtype=np.int64)
        vals = np.asarray(g[value_col], dtype=np.float64)
        same_prev = np.zeros(n, dtype=bool)
        same_prev[1:] = keys[1:] == keys[:-1]
        same_next = np.zeros(n, dtype=bool)
        same_next[:-1] = keys[1:] == keys[:-1]
        prev_v = np.roll(vals, 1)
        next_v = np.roll(vals, -1)
        dt = ts - np.roll(ts, 1)
        return pa.table(
            {
                id_col: pa.array(ids),
                key_col: pa.array(keys),
                "prev_value": pa.array(prev_v, mask=~same_prev),
                "next_value": pa.array(next_v, mask=~same_next),
                "dt_us": pa.array(dt, mask=~same_prev),
            }
        )

    return segment_apply(
        ds,
        key_col,
        kernel,
        pa.schema(
            [(id_col, pa.int64()), (key_col, pa.int64()),
             ("prev_value", pa.float64()), ("next_value", pa.float64()),
             ("dt_us", pa.int64())]
        ),
        order=(ts_col, id_col),
        num_buckets=num_buckets,
    )


def sql_keyed_lag(
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    source: str = "events",
) -> str:
    """DuckDB twin of :func:`keyed_lag` (LAG/LEAD window law; value
    passthrough is exact so no rounding is needed)."""
    return f"""
SELECT {id_col}, {key_col},
  LAG({value_col}) OVER w AS prev_value,
  LEAD({value_col}) OVER w AS next_value,
  (epoch_us({ts_col}) - LAG(epoch_us({ts_col})) OVER w)::BIGINT AS dt_us
FROM {source}
WINDOW w AS (PARTITION BY {key_col} ORDER BY {ts_col}, {id_col})
"""


# ---------------------------------------------------------------------------
# data-mixture epoch repetition
# ---------------------------------------------------------------------------


def mixture_repeat(
    ds,
    *,
    key_col: str = "doc_id",
    group_col: str = "lang",
    weights: dict[str, float] | None = None,
    default_weight: float = 1.0,
    salt: str = "mix",
):
    """Deterministic data-mixture weighting by per-group repeat factors —
    the pretraining "epochs per source" knob.  A weight ``w`` emits each
    record ``floor(w)`` times, plus one more iff its content-stable hash
    (the :func:`split_by_hash` md5 law, own salt) falls under
    ``frac(w)``: fractional epochs hold EXACTLY in expectation and are
    rerun/partition invariant, record-by-record.  Zero shuffle — one
    vectorized ``np.repeat`` stage; output carries ``copy`` (0-based
    repeat index) so downstream packing/shuffling can distinguish
    epochs."""
    weights = weights or {}
    for g, w in weights.items():
        if w < 0:
            raise ValueError(f"weight for {g!r} must be >= 0, got {w}")

    def expand(b: pa.Table) -> pa.Table:
        from .text import md5_prefix_int

        h = (
            md5_prefix_int(
                pc.cast(b[key_col], pa.string()), salt=salt, hexdigits=8
            )
            % np.uint64(1_000_000)
        ).astype(np.int64)
        groups = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        w = np.fromiter(
            (weights.get(g, default_weight) for g in groups),
            dtype=np.float64,
            count=len(groups),
        )
        base = np.floor(w).astype(np.int64)
        # frac(w) at fixed 1e-6 resolution, the law the SQL twin mirrors
        frac_cut = np.floor((w - base) * 1_000_000.0 + 0.5)
        k = base + (h < frac_cut).astype(np.int64)
        idx = np.repeat(np.arange(len(k)), k)
        copy = np.arange(len(idx), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(k)[:-1]]), k
        )
        out = b.take(pa.array(idx))
        return out.append_column("copy", pa.array(copy))

    return ds.map_batches(expand, batch_format="pyarrow")


def sql_mixture_repeat(
    *,
    key_col: str = "doc_id",
    group_col: str = "lang",
    weights: dict[str, float] | None = None,
    default_weight: float = 1.0,
    salt: str = "mix",
    source: str = "documents",
    select: str = "doc_id, lang",
) -> str:
    """DuckDB twin of :func:`mixture_repeat` (same md5/floor/frac law)."""
    weights = weights or {}
    h = (
        f"(('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 8))"
        f"::BIGINT % 1000000)"
    )
    wcase = "CASE "
    for g, w in weights.items():
        wcase += f"WHEN {group_col} = '{g}' THEN {float(w)!r} "
    wcase += f"ELSE {float(default_weight)!r} END"
    k = (
        f"(FLOOR({wcase})::BIGINT + "
        f"(CASE WHEN {h} < FLOOR((({wcase}) - FLOOR({wcase})) * 1000000 + 0.5) "
        f"THEN 1 ELSE 0 END))"
    )
    return (
        f"SELECT {select}, unnest(range({k})) AS copy FROM {source}"
    )


# ---------------------------------------------------------------------------
# Count-Min sketch (mergeable heavy-hitter counts)
# ---------------------------------------------------------------------------

CM_DEPTH, CM_WIDTH = 4, 1024


def countmin_sketch(
    ds,
    *,
    text_col: str = "text",
    depth: int = CM_DEPTH,
    width: int = CM_WIDTH,
) -> np.ndarray:
    """Count-Min sketch of the corpus word stream: ``depth x width``
    int64 counters, hash row ``i`` bucketing each word by the first 8
    md5 hex digits of ``word + '#' + i`` mod ``width`` (an md5 law the
    SQL twin reproduces digit-for-digit).

    Mergeable by addition, so each batch emits its own sketch as ONE
    flattened row (~``depth*width*8`` bytes) and the driver folds the
    ~num_blocks partials — the classic sketch reduce; the word stream
    itself never shuffles.  Per batch the md5 runs once per DISTINCT
    word (value_counts first), not per occurrence."""
    import hashlib
    import re

    from .text import TOKEN_PATTERN  # the engine-wide \S+ token law

    tok_re = re.compile(TOKEN_PATTERN)

    def partial(b: pa.Table) -> pa.Table:
        sk = np.zeros((depth, width), dtype=np.int64)
        texts = b[text_col].to_pylist()
        toks: list[str] = []
        for t in texts:
            toks.extend(tok_re.findall(t or ""))
        if toks:
            words, counts = np.unique(np.asarray(toks, dtype=object),
                                      return_counts=True)
            for i in range(depth):
                cols = np.fromiter(
                    (
                        int(hashlib.md5(f"{w}#{i}".encode()).hexdigest()[:8],
                            16) % width
                        for w in words
                    ),
                    dtype=np.int64,
                    count=len(words),
                )
                np.add.at(sk[i], cols, counts)
        return pa.table({"sk": pa.array([sk.ravel().tolist()],
                                        pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = np.zeros(depth * width, dtype=np.int64)
    for row in parts["sk"]:
        out += np.asarray(row, dtype=np.int64)
    return out.reshape(depth, width)


def countmin_topk(
    ds,
    *,
    k: int = 20,
    text_col: str = "text",
    depth: int = CM_DEPTH,
    width: int = CM_WIDTH,
) -> pa.Table:
    """Heavy hitters with sketch estimates: the exact top-``k`` unigrams
    (the :func:`pygridmap_ray.text.top_ngrams` law — cnt DESC, word ASC)
    probed against the Count-Min sketch.  ``est >= cnt`` always (one-
    sided error); the over-estimate bound is the sketch guarantee.  Both
    the probe set and every estimate are deterministic, so the DuckDB
    twin reproduces the table exactly."""
    import hashlib

    from .text import top_ngrams

    sk = countmin_sketch(ds, text_col=text_col, depth=depth, width=width)
    top = top_ngrams(ds, n=1, k=k, text_col=text_col).to_pandas()
    if "ngram" not in top.columns or not len(top):
        # token-free corpus: an empty aggregate loses its column schema
        return pa.table(
            {
                "ngram": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
                "est": pa.array([], pa.int64()),
            }
        )
    words = top["ngram"].tolist()
    est = np.empty(len(words), dtype=np.int64)
    for j, w in enumerate(words):
        vals = [
            sk[i][int(hashlib.md5(f"{w}#{i}".encode()).hexdigest()[:8], 16)
                  % width]
            for i in range(depth)
        ]
        est[j] = min(vals)
    return pa.table(
        {
            "ngram": pa.array(words, pa.string()),
            "cnt": pa.array(top["cnt"].to_numpy(np.int64)),
            "est": pa.array(est),
        }
    )


def sql_countmin_topk(
    *,
    k: int = 20,
    depth: int = CM_DEPTH,
    width: int = CM_WIDTH,
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`countmin_topk` — rebuilds the identical
    sketch row sums from the same md5 bucket law."""
    def b(w: str, ivar: str) -> str:
        return (
            f"(('0x' || substr(md5({w} || '#' || {ivar}), 1, 8))::BIGINT "
            f"% {width})"
        )

    return f"""
WITH words AS (
  SELECT unnest(regexp_extract_all({text}, '\\S+')) AS w FROM {source}
),
cnt AS (SELECT w, COUNT(*)::BIGINT AS cnt FROM words GROUP BY w),
topk AS (SELECT w, cnt FROM cnt ORDER BY cnt DESC, w LIMIT {k}),
hrows AS (SELECT unnest(range({depth})) AS i),
buckets AS (
  SELECT i, {b('w', 'i')} AS bkt, SUM(cnt)::BIGINT AS tot
  FROM cnt, hrows GROUP BY i, bkt
)
SELECT t.w AS ngram, t.cnt, MIN(bu.tot)::BIGINT AS est
FROM topk t
JOIN hrows r ON TRUE
JOIN buckets bu ON bu.i = r.i AND bu.bkt = {b('t.w', 'r.i')}
GROUP BY t.w, t.cnt
"""


def grouped_quantiles_cont(
    ds,
    *,
    key: str = "lang",
    value: str = "n_chars",
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    round_to: int = 6,
):
    """Per-key CONTINUOUS (interpolated) quantiles — SQL:2016
    ``percentile_cont`` / DuckDB ``quantile_cont`` law: at fractional
    rank ``h = q*(n-1)`` (0-based) the result interpolates the two
    neighboring order statistics.  Same combiner-gather histogram plan
    as :func:`grouped_quantiles` (:func:`_grouped_value_hist` — zero
    Ray shuffle, vocabulary-scale gather by contract); the per-key
    finish walks cumulative counts and linearly interpolates, once, on
    the driver.  Outputs round half-away at ``round_to`` on both sides
    (interpolation is float arithmetic)."""
    import ray.data as rd

    hist = _grouped_value_hist(ds, key=key, value=value)
    tol = 10.0 ** round_to

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value, kind="stable")
        cnt = g["count()"].to_numpy(dtype=np.int64)
        cum = cnt.cumsum()
        n = int(cum[-1])
        vals = g[value].to_numpy(dtype=np.float64)
        out = {key: [g[key].iloc[0]]}
        for q in qs:
            h = q * (n - 1)
            lo_rank = int(np.floor(h)) + 1     # 1-based order stats
            hi_rank = min(lo_rank + 1, n)
            frac = h - np.floor(h)
            lo = vals[np.searchsorted(cum, lo_rank, side="left")]
            hi = vals[np.searchsorted(cum, hi_rank, side="left")]
            x = lo + frac * (hi - lo)
            out[_qlabel(q)] = [
                float(np.sign(x) * np.floor(abs(x) * tol + 0.5) / tol)
            ]
        return pd.DataFrame(out)

    frames = [
        finish(g) for _, g in hist.groupby(key, dropna=False, sort=False)
    ]
    if not frames:
        frames = [pd.DataFrame({key: []} | {_qlabel(q): [] for q in qs})]
    return rd.from_pandas(pd.concat(frames, ignore_index=True))


def _gated_pair_histogram(ds, group_col: str, value_col: str,
                          domain_limit: int):
    """The DISCRETE-domain histogram reduce shared by
    :func:`percent_rank` / :func:`window_ranks` /
    :func:`spearman_corr` — with the contract ENFORCED: the distinct
    (group, value) count is taken on the materialized aggregate (a
    distributed shuffle, safe at any cardinality) BEFORE anything is
    gathered, and a continuous-looking domain raises instead of
    OOMing the driver."""
    hist_ds = ds.groupby([group_col, value_col]).count().materialize()
    n_pairs = hist_ds.count()
    if n_pairs > domain_limit:
        raise ValueError(
            f"{n_pairs} distinct ({group_col}, {value_col}) pairs exceed "
            f"the discrete-domain gate ({domain_limit}): this operator "
            "broadcasts the per-group value histogram, which only fits "
            "bounded domains — for continuous values use "
            "grouped_quantiles_cont / grouped_moments / the approx paths"
        )
    return hist_ds.to_pandas()


def percent_rank(
    ds, *, group_col: str, value_col: str, round_to: int = 6,
    domain_limit: int = 2_000_000,
):
    """SQL's ``PERCENT_RANK() OVER (PARTITION BY group ORDER BY value)``
    for every row, without a window shuffle: ``(rank_min - 1) / (n - 1)``
    where ``rank_min - 1`` is the count of strictly smaller values in
    the group (single-row groups rank 0, the SQL edge case).

    Plan: the bounded-domain histogram reduce (shuffle carries distinct
    (group, value) pairs — the same contract as
    :func:`grouped_quantiles`), then the per-group sorted values +
    cumulative counts broadcast once (``ray.put`` + per-worker cache)
    and every row resolves with one vectorized ``searchsorted`` — the
    row stream itself never shuffles.

    Output: the input columns plus ``pct_rank`` (rounded half-away)."""
    hist = _gated_pair_histogram(ds, group_col, value_col, domain_limit)
    hist = hist.sort_values([group_col, value_col], kind="stable")
    payload = {}
    for g, sub in hist.groupby(group_col, sort=False):
        vals = sub[value_col].to_numpy(np.float64)
        cnt = sub["count()"].to_numpy(np.int64)
        below = np.concatenate([[0], cnt.cumsum()[:-1]])
        # str() key matches the batch-side string cast for any key dtype
        payload[str(g)] = {"vals": vals, "below": below, "n": int(cnt.sum())}
    ref = Broadcast(payload)
    tol = 10.0**round_to

    def attach(b: pa.Table) -> pa.Table:
        p = ref.get()
        ks = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        v = np.asarray(b[value_col], np.float64)
        out = np.zeros(len(v), np.float64)
        for g in np.unique(ks):
            m = ks == g
            st = p.get(g)
            if st is None or st["n"] <= 1:
                continue
            idx = np.searchsorted(st["vals"], v[m], side="left")
            out[m] = st["below"][np.clip(idx, 0, len(st["vals"]) - 1)] / (
                st["n"] - 1
            )
        out = np.floor(out * tol + 0.5) / tol  # percent ranks are >= 0
        return b.append_column("pct_rank", pa.array(out))

    return ds.map_batches(attach, batch_format="pyarrow")


def window_ranks(
    ds, *, group_col: str, value_col: str, round_to: int = 6,
    domain_limit: int = 2_000_000,
):
    """SQL's ``RANK / DENSE_RANK / CUME_DIST OVER (PARTITION BY group
    ORDER BY value)`` for every row, without a window shuffle — same
    plan as :func:`percent_rank`: one bounded-domain histogram reduce,
    the per-group (sorted values, cumulative counts) broadcast once,
    every row resolved by vectorized ``searchsorted``:

    - ``rank``       = count of strictly smaller values + 1 (ties share
      the min rank);
    - ``dense_rank`` = 1 + index of the value among the group's DISTINCT
      values;
    - ``cume_dist``  = rows <= value / n (rounded half-away).

    Output: the input columns plus ``rank, dense_rank, cume_dist``."""
    hist = _gated_pair_histogram(ds, group_col, value_col, domain_limit)
    hist = hist.sort_values([group_col, value_col], kind="stable")
    payload = {}
    for g, sub in hist.groupby(group_col, sort=False):
        vals = sub[value_col].to_numpy(np.float64)
        cnt = sub["count()"].to_numpy(np.int64)
        cum = cnt.cumsum()
        below = np.concatenate([[0], cum[:-1]])
        payload[str(g)] = {
            "vals": vals, "below": below, "cum": cum, "n": int(cum[-1])
        }
    ref = Broadcast(payload)
    tol = 10.0**round_to

    def attach(b: pa.Table) -> pa.Table:
        p = ref.get()
        ks = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        v = np.asarray(b[value_col], np.float64)
        rank = np.ones(len(v), np.int64)
        dense = np.ones(len(v), np.int64)
        cume = np.ones(len(v), np.float64)
        for g in np.unique(ks):
            m = ks == g
            st = p.get(g)
            if st is None:
                continue
            idx = np.clip(
                np.searchsorted(st["vals"], v[m], side="left"),
                0,
                len(st["vals"]) - 1,
            )
            rank[m] = st["below"][idx] + 1
            dense[m] = idx + 1
            cume[m] = st["cum"][idx] / st["n"]
        cume = np.floor(cume * tol + 0.5) / tol  # cume_dist is > 0
        out = b.append_column("rank", pa.array(rank))
        out = out.append_column("dense_rank", pa.array(dense))
        return out.append_column("cume_dist", pa.array(cume))

    return ds.map_batches(attach, batch_format="pyarrow")


def sql_window_ranks(
    *,
    group_col: str,
    value_col: str,
    source: str = "documents",
    select: str = "doc_id, lang, n_chars",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`window_ranks`."""
    t = f"1e{round_to}"
    over = f"OVER (PARTITION BY {group_col} ORDER BY {value_col})"
    return (
        f"SELECT {select}, RANK() {over} AS rank, "
        f"DENSE_RANK() {over} AS dense_rank, "
        f"ROUND(CUME_DIST() {over} * {t}) / {t} AS cume_dist FROM {source}"
    )


def sql_percent_rank(
    *,
    group_col: str,
    value_col: str,
    source: str = "documents",
    select: str = "doc_id, lang, n_chars",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`percent_rank`."""
    t = f"1e{round_to}"
    return (
        f"SELECT {select}, ROUND(PERCENT_RANK() OVER "
        f"(PARTITION BY {group_col} ORDER BY {value_col}) * {t}) / {t} "
        f"AS pct_rank FROM {source}"
    )


def grouped_corr(
    ds, *, group_col: str, x_col: str, y_col: str, round_to: int = 6
):
    """Per-group Pearson correlation from COMBINABLE sufficient
    statistics: each batch reduces to one ``(n, sx, sy, sxx, syy, sxy)``
    row per group (the same partial-moments shape as
    :func:`grouped_moments` / z-score), a low-cardinality groupby sums
    them, and the closed form
    ``r = (n*sxy - sx*sy) / sqrt((n*sxx - sx^2) * (n*syy - sy^2))``
    finishes — identical op order to the SQL twin, summation-order ulp
    absorbed by the half-away rounding.  NULL in either column drops
    the row (SQL aggregate semantics).  Output: ``group, corr``."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        x = np.asarray(b[x_col], np.float64)
        y = np.asarray(b[y_col], np.float64)
        ok = ~(np.isnan(x) | np.isnan(y))
        g, x, y = g[ok], x[ok], y[ok]
        ug, inv = np.unique(g, return_inverse=True)
        nb = len(ug)
        out = {
            group_col: pa.array(ug, pa.string()),
            "n": pa.array(np.bincount(inv, minlength=nb).astype(np.float64)),
            "sx": pa.array(np.bincount(inv, weights=x, minlength=nb)),
            "sy": pa.array(np.bincount(inv, weights=y, minlength=nb)),
            "sxx": pa.array(np.bincount(inv, weights=x * x, minlength=nb)),
            "syy": pa.array(np.bincount(inv, weights=y * y, minlength=nb)),
            "sxy": pa.array(np.bincount(inv, weights=x * y, minlength=nb)),
        }
        return pa.table(out)

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            *[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]
        )
    )
    tol = 10.0**round_to

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.float64)
        sx = np.asarray(b["sx"], np.float64)
        sy = np.asarray(b["sy"], np.float64)
        sxx = np.asarray(b["sxx"], np.float64)
        syy = np.asarray(b["syy"], np.float64)
        sxy = np.asarray(b["sxy"], np.float64)
        r = (n * sxy - sx * sy) / np.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        r = np.sign(r) * np.floor(np.abs(r) * tol + 0.5) / tol
        return pa.table({group_col: b[group_col], "corr": pa.array(r)})

    return folded.map_batches(finish, batch_format="pyarrow")


def sql_grouped_corr(
    *,
    group_col: str,
    x_col: str,
    y_col: str,
    source: str = "lineitem",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`grouped_corr` — explicit sums and the SAME
    closed form (DuckDB's corr() uses a different internal recurrence,
    so the twin spells the formula out)."""
    t = f"1e{round_to}"
    return f"""
WITH s AS (
  SELECT {group_col},
         COUNT(*)::DOUBLE AS n,
         SUM({x_col}::DOUBLE) AS sx, SUM({y_col}::DOUBLE) AS sy,
         SUM({x_col}::DOUBLE * {x_col}::DOUBLE) AS sxx,
         SUM({y_col}::DOUBLE * {y_col}::DOUBLE) AS syy,
         SUM({x_col}::DOUBLE * {y_col}::DOUBLE) AS sxy
  FROM {source}
  WHERE {x_col} IS NOT NULL AND {y_col} IS NOT NULL
  GROUP BY {group_col}
)
SELECT {group_col},
       ROUND((n * sxy - sx * sy)
             / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)) * {t}) / {t}
         AS corr
FROM s
"""


def ntile(
    ds,
    *,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    n: int,
    num_buckets: int | None = None,
):
    """SQL's ``NTILE(n) OVER (PARTITION BY group ORDER BY order, tie)``
    — equal-height bucketing with the exact SQL fill law (the first
    ``cnt % n`` tiles get one extra row).  ``tiebreak_col`` must be
    unique within a group: NTILE is ORDER-dependent on ties, so only a
    total order makes the result (and the oracle compare)
    deterministic.

    Plan: one coarse-bucket shuffle keyed by ``hash(group) %
    num_buckets`` (bounded group count — the engine-wide rule), then a
    single vectorized pass per bucket: lexsort over (group, order,
    tie), per-group positions by run-length, the closed-form tile
    formula.  Partitioning assumption: one group's rows fit a worker
    (the standard keyed-window bound).

    Output: the input columns plus ``tile`` (1-based int64)."""
    num_buckets = _resolve_buckets(num_buckets)
    if n < 1:
        raise ValueError("n must be >= 1")

    def kernel(g: pa.Table, starts: np.ndarray) -> pa.Table:
        cnt = np.diff(np.append(starts, g.num_rows))
        pos = np.arange(g.num_rows) - np.repeat(starts, cnt)
        cnts = np.repeat(cnt, cnt)
        base = cnts // n
        rem = cnts % n
        boundary = rem * (base + 1)
        in_head = pos < boundary
        tile = np.where(
            in_head,
            pos // np.maximum(base + 1, 1),
            rem + (pos - boundary) // np.maximum(base, 1),
        )
        return g.append_column("tile", pa.array(tile + 1))

    return segment_apply(
        ds.repartition(max(16, num_buckets // 4)),
        group_col,
        kernel,
        passthrough_schema(ds, [("tile", pa.int64())]),
        order=(order_col, tiebreak_col),
        num_buckets=num_buckets,
    )


def sql_ntile(
    *,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    n: int,
    source: str = "documents",
    select: str = "doc_id, lang, n_chars",
) -> str:
    """DuckDB twin of :func:`ntile`."""
    return (
        f"SELECT {select}, NTILE({n}) OVER (PARTITION BY {group_col} "
        f"ORDER BY {order_col}, {tiebreak_col}) AS tile FROM {source}"
    )


def iqr_outliers(
    ds,
    *,
    key: str,
    value: str,
    round_to: int = 6,
    fences: str = "exact",
    lo: float = 0.0,
    hi: float = 512.0,
    bins: int = 128,
):
    """Per-key Tukey-fence outlier profile: rows outside
    ``[q1 - 1.5*iqr, q3 + 1.5*iqr]`` (strict compare) with
    ``q1/q3 = quantile_cont(0.25/0.75)``.

    ``fences="approx"`` is the corpus-scale mode for CONTINUOUS value
    domains: quartiles come from the fixed-bin histogram sketch
    (:func:`approx_quantiles` — the shuffle carries at most keys x bins
    partial rows instead of every distinct (key, value) pair), fence
    error bounded by 1.5 bin widths; pass ``lo/hi/bins`` to size the
    sketch.  The oracle keeps the exact mode.

    Law detail that makes the DuckDB twin exact: the fences are built
    from the 6dp-ROUNDED quartiles (the same rounding the quantile
    oracle already proves identical on both sides), and the fence
    arithmetic runs in the same op order — so the strict comparisons
    agree bitwise even when the unrounded interpolations differ by an
    ulp.  Values that are NULL/NaN are never outliers but DO count in
    ``n_events`` (SQL CASE semantics).

    Scale shape: the quartile pass is the existing histogram two-phase
    plan — the shuffle carries distinct (key, value) pairs, which for a
    CONTINUOUS value domain degrades to row scale (the documented limit
    of the exact plan; swap in :func:`approx_quantiles` fences for
    unbounded domains at corpus scale).  The fence table is one row per
    key — closure-captured, never shuffled; the scan pass emits one
    partial row per (key, batch) and a low-cardinality groupby folds
    them.  Output: ``key, n_events, n_outliers, outlier_rate``."""
    if fences == "exact":
        quarts = grouped_quantiles_cont(
            ds, key=key, value=value, qs=(0.25, 0.75), round_to=round_to
        ).to_pandas()
    elif fences == "approx":
        quarts = approx_quantiles(
            ds, key=key, value=value, qs=(0.25, 0.75), lo=lo, hi=hi, bins=bins
        ).to_pandas()
    else:
        raise ValueError("fences must be 'exact' or 'approx'")
    # column-wise build (iterrows would coerce mixed rows to float64 and
    # mangle int keys to "1.0"); str keys match the scan pass's cast
    q1 = quarts["q25"].to_numpy(np.float64)
    q3 = quarts["q75"].to_numpy(np.float64)
    fences = dict(
        zip(
            quarts[key].astype(str).tolist(),
            zip(q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)),
        )
    )
    tol = 10.0**round_to

    def partial(b: pa.Table) -> pa.Table:
        ks = np.asarray(pc.cast(b[key], pa.string())).astype(object)
        v = np.asarray(b[value], np.float64)  # nulls -> NaN (never outlier)
        ug, inv = np.unique(ks, return_inverse=True)
        lo = np.array([fences.get(g, (-np.inf, np.inf))[0] for g in ug])
        hi = np.array([fences.get(g, (-np.inf, np.inf))[1] for g in ug])
        out = (v < lo[inv]) | (v > hi[inv])
        n = np.bincount(inv, minlength=len(ug)).astype(np.int64)
        k_out = np.bincount(inv, weights=out, minlength=len(ug)).astype(np.int64)
        return pa.table(
            {
                key: pa.array(ug, pa.string()),
                "n_events": pa.array(n),
                "n_outliers": pa.array(k_out),
            }
        )

    # the partial stream is one row per (key, batch) — aggregate-scale;
    # fold it on the driver instead of paying a Ray all-to-all whose
    # fixed cost dwarfs the 5-row result (same contract as the
    # _grouped_value_hist gather above)
    import ray
    import ray.data as rd

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    parts = [p for p in ray.get(partials.to_arrow_refs()) if p.num_rows]
    if not parts:
        return rd.from_arrow(
            pa.table(
                {
                    key: pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                    "n_outliers": pa.array([], pa.int64()),
                    "outlier_rate": pa.array([], pa.float64()),
                }
            )
        )
    folded = (
        pa.concat_tables(parts, promote_options="permissive")
        .to_pandas()
        .groupby(key, dropna=False, sort=False, as_index=False)[
            ["n_events", "n_outliers"]
        ]
        .sum()
    )
    n = folded["n_events"].to_numpy(np.float64)
    k_out = folded["n_outliers"].to_numpy(np.float64)
    folded["outlier_rate"] = np.floor((k_out / n) * tol + 0.5) / tol
    return rd.from_pandas(folded)


def sql_iqr_outliers(
    *, key: str, value: str, source: str = "events", round_to: int = 6
) -> str:
    """DuckDB twin of :func:`iqr_outliers` (fences from 6dp-rounded
    quartiles, same op order, strict compares)."""
    t = f"1e{round_to}"
    return f"""
WITH f AS (
  SELECT {key},
         ROUND(quantile_cont({value}, 0.25) * {t}) / {t} AS q1,
         ROUND(quantile_cont({value}, 0.75) * {t}) / {t} AS q3
  FROM {source} GROUP BY {key}
), flagged AS (
  SELECT e.{key},
         CASE WHEN e.{value} < f.q1 - 1.5 * (f.q3 - f.q1)
                OR e.{value} > f.q3 + 1.5 * (f.q3 - f.q1)
              THEN 1 ELSE 0 END AS is_out
  FROM {source} e JOIN f USING ({key})
)
SELECT {key}, COUNT(*)::BIGINT AS n_events,
       SUM(is_out)::BIGINT AS n_outliers,
       ROUND(SUM(is_out)::DOUBLE / COUNT(*) * {t}) / {t} AS outlier_rate
FROM flagged GROUP BY {key}
"""


def sql_grouped_quantiles_cont(
    key: str = "lang",
    value: str = "n_chars",
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    round_to: int = 6,
    source: str = "documents",
) -> str:
    sel = ", ".join(
        f"ROUND(quantile_cont({value}, {q}) * 1e{round_to}) / 1e{round_to} "
        f"AS {_qlabel(q)}"
        for q in qs
    )
    return f"SELECT {key}, {sel} FROM {source} GROUP BY {key}"


def sample_exact_k(
    ds,
    *,
    group_col: str,
    key_col: str,
    k: int,
    salt: str = "",
    num_buckets: int | None = None,
):
    """EXACTLY ``k`` records per group (fewer iff the group is smaller),
    chosen deterministically: rank by md5(key || salt) ascending, ties by
    key — the fixed-eval-subset contract (rate-based
    :func:`stratified_sample` gives exact rates in expectation only;
    this gives exact counts).  Content-stable: membership never depends
    on row order, partitioning, or cluster size.

    Plan: hash tag (one stateless stage) + :func:`grouped_topk`'s
    coarse-bucket rank kernel."""
    from .text import md5_prefix_int

    def tag(b: pa.Table) -> pa.Table:
        h = md5_prefix_int(
            pc.cast(b[key_col], pa.string()), salt=salt, hexdigits=15
        ).astype(np.int64)
        return b.append_column("__h", pa.array(h))

    out = grouped_topk(
        ds.map_batches(tag, batch_format="pyarrow"),
        group_col=group_col,
        order_col="__h",
        tiebreak_col=key_col,
        k=k,
        descending=False,
        num_buckets=num_buckets,
    )
    return out.drop_columns(["__h"])


def priority_sample(
    ds,
    *,
    key_col: str,
    weight_col: str,
    k: int,
    salt: str = "",
):
    """Deterministic weighted sample WITHOUT replacement of exactly ``k``
    rows — Duffield–Lund–Thorup *priority sampling* (near-optimal
    subset-sum variance): each row gets priority ``w / u`` for a uniform
    ``u`` derived from its key, and the ``k`` highest priorities win.

    The law is transcendental-free so the DuckDB twin is bit-identical:
    ``u = (h + 1) / 2^60`` with ``h`` the 60-bit md5 prefix of
    ``key || salt`` (the repo-wide content-stable hash law), and the
    ORDER key is ``w * 2^60 / (h + 1)`` — one exact power-of-two product
    plus one correctly-rounded IEEE division on both sides.  Membership
    therefore never depends on row order, partitioning, or cluster size.

    Scale shape: per-batch vectorized top-k partials (``k`` candidate
    rows per block), one single-block final fold — the candidate stream
    is ``k x num_blocks`` rows regardless of corpus size; nothing else
    shuffles.  Ties (measure zero) break by ascending key on both sides.

    Output: ``rank (1-based), key, weight, priority`` (priority rounded
    half-away to 6dp)."""
    from .text import md5_prefix_int

    if k < 1:
        raise ValueError("k must be >= 1")
    scale = float(1 << 60)

    def partial(b: pa.Table) -> pa.Table:
        w = np.asarray(b[weight_col], np.float64)
        if (w < 0).any():
            raise ValueError("priority_sample weights must be >= 0")
        h = md5_prefix_int(
            pc.cast(b[key_col], pa.string()), salt=salt, hexdigits=15
        ).astype(np.int64)
        pri = w * scale / (h + 1).astype(np.float64)
        keys = np.asarray(b[key_col])
        top = np.lexsort((keys, -pri))[: min(k, len(pri))]
        return pa.table(
            {
                key_col: b[key_col].take(pa.array(top)),
                weight_col: b[weight_col].take(pa.array(top)),
                "__pri": pa.array(pri[top]),
            }
        )

    def final(b: pa.Table) -> pa.Table:
        pri = np.asarray(b["__pri"], np.float64)
        keys = np.asarray(b[key_col])
        top = np.lexsort((keys, -pri))[: min(k, len(pri))]
        tol = 1e6
        pr = np.floor(pri[top] * tol + 0.5) / tol  # priorities are >= 0
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
                key_col: b[key_col].take(pa.array(top)),
                weight_col: b[weight_col].take(pa.array(top)),
                "priority": pa.array(pr),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )


def priority_sample_grouped(
    ds,
    *,
    group_col: str,
    key_col: str,
    weight_col: str,
    k: int,
    salt: str = "",
    num_buckets: int | None = None,
):
    """EXACTLY ``k`` weighted samples per group (fewer iff smaller) —
    the per-group form of :func:`priority_sample`: same transcendental-
    free ``w * 2^60 / (md5_60(key||salt) + 1)`` priority law, ranked
    within each group via :func:`grouped_topk`'s coarse-bucket kernel
    (one bounded shuffle, no per-group Python beyond the bucket scan).

    Output: the input columns plus ``rank`` (1-based within group)."""
    from .text import md5_prefix_int

    scale = float(1 << 60)

    def tag(b: pa.Table) -> pa.Table:
        w = np.asarray(b[weight_col], np.float64)
        if (w < 0).any():
            raise ValueError("priority_sample weights must be >= 0")
        h = md5_prefix_int(
            pc.cast(b[key_col], pa.string()), salt=salt, hexdigits=15
        ).astype(np.int64)
        pri = w * scale / (h + 1).astype(np.float64)
        return b.append_column("__pri", pa.array(pri))

    out = grouped_topk(
        ds.map_batches(tag, batch_format="pyarrow"),
        group_col=group_col,
        order_col="__pri",
        tiebreak_col=key_col,
        k=k,
        descending=True,
        num_buckets=num_buckets,
    )
    return out.drop_columns(["__pri"])


def sql_priority_sample_grouped(
    *,
    group_col: str,
    key_col: str,
    weight_col: str,
    k: int,
    salt: str = "",
    source: str = "documents",
    select: str = "doc_id, lang, n_chars",
) -> str:
    """DuckDB twin of :func:`priority_sample_grouped`."""
    h = (
        f"('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 15))"
        f"::BIGINT"
    )
    pri = f"CAST({weight_col} AS DOUBLE) * 1152921504606846976.0 / ({h} + 1)"
    return (
        f"SELECT * FROM (SELECT {select}, ROW_NUMBER() OVER "
        f"(PARTITION BY {group_col} ORDER BY {pri} DESC, {key_col}) AS rank "
        f"FROM {source}) WHERE rank <= {k}"
    )


def sql_priority_sample(
    *,
    key_col: str,
    weight_col: str,
    k: int,
    salt: str = "",
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`priority_sample` (same md5 / division law)."""
    h = (
        f"('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 15))"
        f"::BIGINT"
    )
    return f"""
WITH pri AS (
  SELECT {key_col}, {weight_col},
         CAST({weight_col} AS DOUBLE) * 1152921504606846976.0 / ({h} + 1) AS p
  FROM {source}
), ranked AS (
  SELECT ROW_NUMBER() OVER (ORDER BY p DESC, {key_col}) AS rank,
         {key_col}, {weight_col}, p
  FROM pri
)
SELECT rank, {key_col}, {weight_col}, ROUND(p * 1e6) / 1e6 AS priority
FROM ranked WHERE rank <= {k}
"""


def sql_sample_exact_k(
    *,
    group_col: str,
    key_col: str,
    k: int,
    salt: str = "",
    source: str = "documents",
    select: str = "doc_id, lang",
) -> str:
    """DuckDB twin of :func:`sample_exact_k` (same md5 rank law)."""
    h = (
        f"('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 15))"
        f"::BIGINT"
    )
    return (
        f"SELECT * FROM (SELECT {select}, ROW_NUMBER() OVER "
        f"(PARTITION BY {group_col} ORDER BY {h}, {key_col}) AS rank "
        f"FROM {source}) WHERE rank <= {k}"
    )


def approx_quantiles(
    ds,
    *,
    key: str,
    value: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    lo: float = 0.0,
    hi: float = 512.0,
    bins: int = 128,
):
    """Per-key APPROXIMATE quantiles from a fixed-bin histogram sketch —
    the scale path :func:`grouped_quantiles` documents for unbounded /
    continuous value domains.  Bin law: ``clamp(floor((v-lo)/w), 0,
    bins-1)`` with ``w = (hi-lo)/bins``; the estimate is the UPPER edge
    of the bin holding rank ``ceil(q*n)`` (quantile_disc's rank), so the
    error is bounded by one bin width and the law is deterministic — the
    SQL twin reproduces it digit-for-digit (choose lo/hi/bins so ``w``
    is a power of two and integer inputs stay float-exact).

    The shuffle carries at most ``keys x bins`` partial rows per batch;
    value rows never move."""
    from ray.data.aggregate import Sum

    w = (hi - lo) / bins

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value].to_numpy(dtype=np.float64)
        bn = np.clip(np.floor((v - lo) / w), 0, bins - 1).astype(np.int64)
        g = (
            pd.DataFrame({key: b[key].to_numpy(), "bin": bn})
            .groupby([key, "bin"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        return g

    hist = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby([key, "bin"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("bin", kind="stable")
        cum = g["cnt"].to_numpy(dtype=np.int64).cumsum()
        n = int(cum[-1])
        edges = lo + (g["bin"].to_numpy(dtype=np.int64) + 1) * w
        out = {key: [g[key].iloc[0]]}
        for q in qs:
            rank = min(max(int(np.ceil(q * n)), 1), n)
            out[_qlabel(q)] = [
                float(edges[int(np.searchsorted(cum, rank, side="left"))])
            ]
        return pd.DataFrame(out)

    return hist.groupby(key).map_groups(finish, batch_format="pandas")


def sql_approx_quantiles(
    *,
    key: str = "lang",
    value: str = "n_chars",
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    lo: float = 0.0,
    hi: float = 512.0,
    bins: int = 128,
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`approx_quantiles` (same bin/edge law)."""
    w = (hi - lo) / bins
    sel = ", ".join(
        f"MIN(CASE WHEN cum >= CEIL({q!r} * n) THEN {lo!r} + (bin + 1) * {w!r} "
        f"END) AS {_qlabel(q)}"
        for q in qs
    )
    return f"""
WITH b AS (
  SELECT {key},
    LEAST(GREATEST(FLOOR(({value} - {lo!r}) / {w!r}), 0), {bins - 1})::BIGINT
      AS bin
  FROM {source}
),
h AS (SELECT {key}, bin, COUNT(*)::BIGINT AS cnt FROM b GROUP BY {key}, bin),
c AS (
  SELECT {key}, bin,
         SUM(cnt) OVER (PARTITION BY {key} ORDER BY bin) AS cum,
         SUM(cnt) OVER (PARTITION BY {key}) AS n
  FROM h
)
SELECT {key}, {sel} FROM c GROUP BY {key}
"""


def clip_by_quantiles(
    ds,
    *,
    value: str,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    out_col: str | None = None,
):
    """Winsorization: cap ``value`` at its corpus [q_lo, q_hi] quantiles
    (the outlier-capping step before training statistics).  Cuts come
    from the exact value histogram (``groupby(value).count()`` — the
    shuffle carries distinct values only, the bounded-domain law of
    :func:`grouped_quantiles`), walked once on the driver
    (domain-size rows) with the ``quantile_disc`` rank law; the clip
    itself is one stateless vectorized stage."""
    out_col = out_col or f"{value}_clip"
    hist = (
        ds.select_columns([value])
        .map_batches(
            lambda b: b.filter(pc.is_valid(b[value])), batch_format="pyarrow"
        )
        .groupby(value)
        .count()
        .to_pandas()
        .sort_values(value, kind="stable")
    )
    cum = hist["count()"].to_numpy(dtype=np.int64).cumsum()
    n = int(cum[-1])
    vals = hist[value].to_numpy()

    def cut(q: float):
        rank = min(max(int(np.ceil(q * n)), 1), n)
        return vals[int(np.searchsorted(cum, rank, side="left"))]

    lo_v, hi_v = cut(q_lo), cut(q_hi)

    def clip(b: pa.Table) -> pa.Table:
        c = pc.min_element_wise(
            pc.max_element_wise(b[value], pa.scalar(lo_v)), pa.scalar(hi_v)
        )
        return b.append_column(out_col, c)

    return ds.map_batches(clip, batch_format="pyarrow"), (lo_v, hi_v)


def sql_clip_by_quantiles(
    *,
    value: str = "n_chars",
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    source: str = "documents",
    select: str = "doc_id",
) -> str:
    """DuckDB twin of :func:`clip_by_quantiles` (quantile_disc cuts)."""
    return f"""
WITH cuts AS (
  SELECT quantile_disc({value}, {q_lo!r}) AS lo,
         quantile_disc({value}, {q_hi!r}) AS hi
  FROM {source}
)
SELECT {select}, {value},
       LEAST(GREATEST({value}, cuts.lo), cuts.hi) AS {value}_clip
FROM {source}, cuts
"""


def grouped_zscore(
    ds,
    *,
    group_col: str,
    value_col: str,
    out_col: str | None = None,
    round_to: int = 6,
):
    """Per-group z-score normalization: (v - mean_g) / stddev_samp_g —
    the grouped-broadcast-normalize pattern (feature scaling per
    language/source before training-set statistics).

    Phase 1 reuses :func:`grouped_moments`-style combinable partials
    (n, sum, sum-of-squares per group) folded by a tiny groupby; the
    per-group constants broadcast in the closure (groups are
    low-cardinality by contract) into one vectorized normalize stage.
    Output rounds half-away at ``round_to`` on both sides; degenerate
    groups (n < 2 or zero variance) emit null, matching SQL's
    stddev_samp law."""
    from ray.data.aggregate import Sum

    out_col = out_col or f"{value_col}_z"

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                group_col: np.asarray(
                    pc.cast(b[group_col], pa.string())
                ).astype(object),
                "v": np.asarray(b[value_col], dtype=np.float64),
            }
        )
        g = df.groupby(group_col, sort=False)["v"].agg(
            n="count", s="sum", ss=lambda x: float((x.to_numpy() ** 2).sum())
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    stats = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("ss", alias_name="ss"),
        )
        .to_pandas()
    )
    consts = {}
    for _, r in stats.iterrows():
        n, s, ss = float(r["n"]), float(r["s"]), float(r["ss"])
        if n < 2:
            consts[r[group_col]] = None
            continue
        mu = s / n
        var = (ss - n * mu * mu) / (n - 1)
        consts[r[group_col]] = (mu, float(np.sqrt(var))) if var > 0 else None
    tol = 10.0 ** round_to

    def normalize(b: pa.Table) -> pa.Table:
        groups = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        v = np.asarray(b[value_col], dtype=np.float64)
        z = np.full(len(v), np.nan)
        for gname, c in consts.items():  # low-cardinality by contract
            if c is None:
                continue
            m = groups == gname
            z[m] = (v[m] - c[0]) / c[1]
        r = np.sign(z) * np.floor(np.abs(z) * tol + 0.5) / tol
        return b.append_column(out_col, pa.array(r, mask=np.isnan(z)))

    return ds.map_batches(normalize, batch_format="pyarrow")


def sql_grouped_zscore(
    *,
    group_col: str = "lang",
    value_col: str = "n_chars",
    round_to: int = 6,
    source: str = "documents",
    select: str = "doc_id, lang, n_chars",
) -> str:
    """DuckDB twin of :func:`grouped_zscore`.  The engine computes
    stddev from (n, sum, sum-sq) in float64; summation-order noise is
    absorbed by the shared rounding."""
    z = (
        f"(({value_col} - AVG({value_col}) OVER w) / "
        f"NULLIF(STDDEV_SAMP({value_col}) OVER w, 0))"
    )
    return (
        f"SELECT {select}, ROUND({z} * 1e{round_to}) / 1e{round_to} "
        f"AS {value_col}_z FROM {source} "
        f"WINDOW w AS (PARTITION BY {group_col})"
    )


def grouped_mode(ds, *, group_key: str, value: str):
    """Modal value per group with a deterministic tie-break (smallest
    value wins): per-batch ``value_counts`` partials on the (group,
    value) pair — one row per observed pair per batch — then ONE small
    built-in groupby-sum (the pair space must be LOW-cardinality: both
    columns categorical), and the argmax resolves on the aggregate-scale
    count table in a single final batch.  The corpus-scale data is read
    exactly once and only pair counts ever shuffle."""
    from ray.data.aggregate import Sum

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = (
            b.groupby([group_key, value], sort=False, observed=True)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    counts = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby([group_key, value])
        .aggregate(Sum("n", alias_name="n"))
    )

    def argmax(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(
            ["n", value], ascending=[False, True], kind="stable"
        )
        top = b.drop_duplicates(subset=[group_key], keep="first")
        return pd.DataFrame(
            {
                group_key: top[group_key].to_numpy(),
                "mode_value": top[value].to_numpy(),
                "mode_count": top["n"].to_numpy(np.int64),
            }
        )

    # the count table is aggregate-scale (|groups| x |values| rows);
    # one final batch resolves the argmax
    return counts.repartition(1).map_batches(argmax, batch_format="pandas")


def sql_grouped_mode(*, group_key: str, value: str,
                     source: str) -> str:
    return f"""
WITH c AS (
  SELECT {group_key}, {value}, COUNT(*)::BIGINT AS n
  FROM {source} GROUP BY {group_key}, {value}
)
SELECT {group_key}, {value} AS mode_value, n AS mode_count
FROM c
QUALIFY ROW_NUMBER() OVER (
  PARTITION BY {group_key} ORDER BY n DESC, {value}
) = 1
"""


def cube_aggregate(ds, *, keys: tuple[str, str], value: str):
    """``GROUP BY CUBE(k1, k2)`` counts + sums: :func:`rollup_aggregate`
    plus the (NULL, k2) level — the finest groupby still runs ONCE over
    the data and every coarser level (k1-only, k2-only, grand total)
    re-aggregates the finest RESULT.  NULL marks a rolled-up key."""
    return rollup_aggregate(ds, keys=keys, value=value, cube=True)


def sql_cube_aggregate(*, keys: tuple[str, str], value: str,
                       source: str = "documents") -> str:
    k1, k2 = keys
    return (
        f"SELECT {k1}, {k2}, COUNT(*)::BIGINT AS n_rows, "
        f"SUM({value})::BIGINT AS sum_val FROM {source} "
        f"GROUP BY CUBE({k1}, {k2})"
    )


def histogram(ds, *, value: str, bins: int = 20):
    """Exact equi-width histogram: pass 1 is a two-scalar (min, max)
    aggregate, pass 2 a vectorized bin id + the one small groupby — the
    standard two-pass plan for exact equi-width bins (the SQL twin's
    subquery does the same).  The bin arithmetic is written identically
    on both sides — ``floor((x - mn) / ((mx - mn) / bins))`` capped at
    ``bins - 1`` — so doubles agree bit-for-bit."""
    from ray.data.aggregate import Count

    mn = float(ds.min(value))
    mx = float(ds.max(value))
    w = (mx - mn) / float(bins)

    def binner(b: pa.Table) -> pa.Table:
        x = np.asarray(b[value], np.float64)
        bi = np.minimum(
            np.floor((x - mn) / w), float(bins - 1)
        ).astype(np.int64)
        return pa.table({"bin": pa.array(bi)})

    return (
        ds.map_batches(binner, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Count(alias_name="n"))
    )


def sql_histogram(*, value: str, source: str, bins: int = 20) -> str:
    return f"""
WITH mm AS (
  SELECT MIN({value})::DOUBLE AS mn, MAX({value})::DOUBLE AS mx
  FROM {source}
)
SELECT LEAST(FLOOR(({value} - mn) / ((mx - mn) / {float(bins)!r})),
             {float(bins - 1)!r})::BIGINT AS bin,
       COUNT(*)::BIGINT AS n
FROM {source}, mm GROUP BY bin
"""


def grouped_mad(ds, *, key: str, value: str, round_to: int = 6):
    """Per-group median absolute deviation — the robust spread measure
    (outlier fences that heavy tails cannot drag).  Two passes of the
    :func:`grouped_quantiles_cont` histogram two-phase plan: pass 1
    computes the per-group interpolated median (rounded half-away at
    ``round_to`` — the SQL twin rounds at the same point so the
    deviation law is shared bit-for-bit), the per-group constants
    broadcast in the closure (groups are low-cardinality by contract),
    pass 2 medians the absolute deviations.  The corpus is read twice;
    nothing ever materializes driver-side beyond one row per group."""
    med = grouped_quantiles_cont(
        ds, key=key, value=value, qs=(0.5,), round_to=round_to
    )
    mp = {
        r[key]: float(r[_qlabel(0.5)]) for r in med.take_all()
    }  # one row per group — aggregate-scale by contract

    def dev(b: pa.Table) -> pa.Table:
        k = np.asarray(pc.cast(b[key], pa.string())).astype(object)
        v = np.asarray(b[value], np.float64)
        m = pd.Series(k).map(mp).to_numpy(np.float64)
        return pa.table(
            {key: pc.cast(b[key], pa.string()), "dev": np.abs(v - m)}
        )

    out = grouped_quantiles_cont(
        ds.map_batches(dev, batch_format="pyarrow"),
        key=key, value="dev", qs=(0.5,), round_to=round_to,
    )
    return out.map_batches(
        lambda b: b.rename_columns([key, "mad"]), batch_format="pyarrow"
    )


def sql_grouped_mad(*, key: str, value: str, source: str,
                    round_to: int = 6) -> str:
    t = f"1e{round_to}"
    return f"""
WITH m AS (
  SELECT {key}, ROUND(quantile_cont({value}, 0.5) * {t}) / {t} AS med
  FROM {source} WHERE {value} IS NOT NULL GROUP BY {key}
),
d AS (
  SELECT s.{key}, ABS(s.{value} - m.med) AS dev
  FROM {source} s JOIN m USING ({key}) WHERE s.{value} IS NOT NULL
)
SELECT {key}, ROUND(quantile_cont(dev, 0.5) * {t}) / {t} AS mad
FROM d GROUP BY {key}
"""


def grouped_latest(ds, *, key: str, order_cols: tuple,
                   carry_cols: tuple, num_buckets: int | None = None):
    """Latest row per key (distributed arg-max): the classic
    last-snapshot-per-entity reduction.  Arg-max is a combiner — each
    batch keeps ONE candidate row per key it sees (vectorized lexsort +
    segment-last), candidates ride one coarse-bucket shuffle on key
    hash, and the per-bucket resolve repeats the same scan.  Keys are
    HIGH-cardinality by design and never meet a fine groupby; all
    ``order_cols`` must be int64-comparable (cast timestamps upstream).
    Ties break by the full ``order_cols`` tuple, so the result is
    deterministic and partition-invariant."""
    cols = [key, *order_cols, *carry_cols]

    def last_per_key(df: pd.DataFrame) -> pd.DataFrame:
        k = df[key].to_numpy(np.int64)
        order_arrays = tuple(
            df[c].to_numpy(np.int64) for c in reversed(order_cols)
        )
        idx = np.lexsort((*order_arrays, k))
        ks = k[idx]
        # last index of each key segment
        last = np.flatnonzero(
            np.concatenate([ks[1:] != ks[:-1], [True]])
        )
        take = idx[last]
        return df.iloc[take][cols].reset_index(drop=True)

    def partial(b: pa.Table) -> pa.Table:
        red = last_per_key(b.select(cols).to_pandas())
        return pa.Table.from_pandas(red, preserve_index=False)

    def resolve(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # sorted by (key, *order_cols): each key's last row is its latest
        return t.take(np.append(starts[1:], t.num_rows) - 1)

    schema = passthrough_schema(ds)
    if schema is not None:
        schema = pa.schema([schema.field(c) for c in cols])
    return segment_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        key,
        resolve,
        schema,
        order=order_cols,
        num_buckets=num_buckets,
    )


def sql_grouped_latest(*, key: str, order_cols: tuple,
                       carry_cols: tuple, source: str) -> str:
    ob = ", ".join(f"{c} DESC" for c in order_cols)
    sel = ", ".join([key, *order_cols, *carry_cols])
    return (
        f"SELECT {sel} FROM {source} "
        f"QUALIFY ROW_NUMBER() OVER "
        f"(PARTITION BY {key} ORDER BY {ob}) = 1"
    )


def pareto_frontier(ds, *, x: str, y: str):
    """2-D Pareto frontier (maximize both): the non-dominated point
    set.  Frontier-of-union == frontier-of-frontiers, so this is a pure
    combiner: each batch reduces to its LOCAL frontier (bounded, tiny
    by geometry — dominated points never leave the worker), partials
    union into one final vectorized pass.  Output is the DISTINCT
    frontier (duplicates of a frontier point collapse, matching the SQL
    twin's DISTINCT).  The local and final kernels are the same sorted
    scan: unique points sorted (x desc, y desc); a point survives iff
    its y strictly exceeds every y at strictly larger x."""

    def frontier(xv: np.ndarray, yv: np.ndarray):
        if len(xv) == 0:
            return xv.astype(np.float64), yv.astype(np.float64)
        pts = np.unique(np.stack([xv, yv], axis=1), axis=0)
        # sort x desc, y desc
        order = np.lexsort((-pts[:, 1], -pts[:, 0]))
        p = pts[order]
        # first row per x block carries that x's max y
        first = np.concatenate([[True], p[1:, 0] != p[:-1, 0]])
        px, py = p[first, 0], p[first, 1]
        # strictly increasing y as x decreases
        run = np.maximum.accumulate(py)
        keep = np.concatenate([[True], py[1:] > run[:-1]])
        return px[keep], py[keep]

    def partial(b: pa.Table) -> pa.Table:
        xv = np.asarray(b[x], np.float64)
        yv = np.asarray(b[y], np.float64)
        fx, fy = frontier(xv, yv)
        return pa.table({x: pa.array(fx), y: pa.array(fy)})

    def final(b: pa.Table) -> pa.Table:
        return partial(b)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)  # union of tiny local frontiers
        .map_batches(final, batch_format="pyarrow")
    )


def sql_pareto_frontier(*, x: str, y: str, source: str) -> str:
    return f"""
SELECT DISTINCT {x}::DOUBLE AS {x}, {y}::DOUBLE AS {y} FROM {source} p
WHERE NOT EXISTS (
  SELECT 1 FROM {source} q
  WHERE q.{x} >= p.{x} AND q.{y} >= p.{y}
    AND (q.{x} > p.{x} OR q.{y} > p.{y})
)
"""


def spearman_corr(ds, *, group_col: str, x_col: str, y_col: str,
                  round_to: int = 6, domain_limit: int = 2_000_000):
    """Per-group Spearman rank correlation (ties get average ranks —
    the standard law): phase 1 reduces each column to its per-group
    discrete histogram (distinct (group, value) counts — the same
    DISCRETE-domain contract as :func:`window_ranks` / IQR's exact
    fences; continuous domains belong on the moments/approx paths),
    builds average-rank maps driver-side at aggregate scale and
    broadcasts them in the closure; phase 2 maps every row to its two
    ranks via one ``searchsorted`` and hands off to
    :func:`grouped_corr`'s combinable-moments plan — rows never
    shuffle.  Average rank of a tie block = ranks_before + (c + 1)/2,
    exact in binary, matching ``RANK() + (tie_count - 1)/2.0``."""

    def rank_map(col: str) -> dict:
        hist_ds = (
            ds.select_columns([group_col, col])
            .map_batches(
                lambda b: b.filter(pc.is_valid(b[col])),
                batch_format="pyarrow",
            )
            .groupby([group_col, col])
            .count()
            .materialize()
        )
        n_pairs = hist_ds.count()
        if n_pairs > domain_limit:
            raise ValueError(
                f"{n_pairs} distinct ({group_col}, {col}) pairs exceed "
                f"the discrete-domain gate ({domain_limit}): "
                "spearman_corr broadcasts per-group rank maps — for "
                "continuous values use grouped_corr (Pearson) instead"
            )
        hist = hist_ds.take_all()
        by_g: dict = {}
        for r in hist:
            by_g.setdefault(str(r[group_col]), []).append(
                (float(r[col]), int(r["count()"]))
            )
        out = {}
        for g, pairs in by_g.items():
            pairs.sort()
            vals = np.array([v for v, _ in pairs], np.float64)
            cnts = np.array([c for _, c in pairs], np.int64)
            before = np.cumsum(cnts) - cnts
            avg = before + (cnts + 1) / 2.0
            out[g] = (vals, avg)
        return out

    mx, my = rank_map(x_col), rank_map(y_col)

    def to_ranks(b: pa.Table) -> pa.Table:
        g = np.asarray(pc.cast(b[group_col], pa.string())).astype(object)
        x = np.asarray(b[x_col], np.float64)
        y = np.asarray(b[y_col], np.float64)
        rx = np.empty(len(g), np.float64)
        ry = np.empty(len(g), np.float64)
        for gv in pd.unique(g):
            m = g == gv
            vx, ax = mx[str(gv)]
            vy, ay = my[str(gv)]
            rx[m] = ax[np.searchsorted(vx, x[m])]
            ry[m] = ay[np.searchsorted(vy, y[m])]
        return pa.table(
            {group_col: pa.array(g, pa.string()),
             "rx": pa.array(rx), "ry": pa.array(ry)}
        )

    ranked = ds.map_batches(
        lambda b: b.filter(
            pc.and_(pc.is_valid(b[x_col]), pc.is_valid(b[y_col]))
        ),
        batch_format="pyarrow",
    ).map_batches(to_ranks, batch_format="pyarrow")
    out = grouped_corr(
        ranked, group_col=group_col, x_col="rx", y_col="ry",
        round_to=round_to,
    )
    return out.map_batches(
        lambda b: b.rename_columns([group_col, "spearman"]),
        batch_format="pyarrow",
    )


def sql_spearman_corr(*, group_col: str, x_col: str, y_col: str,
                      source: str = "lineitem",
                      round_to: int = 6) -> str:
    t = f"1e{round_to}"
    return f"""
WITH r AS (
  SELECT {group_col},
    RANK() OVER (PARTITION BY {group_col} ORDER BY {x_col})
      + (COUNT(*) OVER (PARTITION BY {group_col}, {x_col}) - 1) / 2.0
      AS rx,
    RANK() OVER (PARTITION BY {group_col} ORDER BY {y_col})
      + (COUNT(*) OVER (PARTITION BY {group_col}, {y_col}) - 1) / 2.0
      AS ry
  FROM {source}
  WHERE {x_col} IS NOT NULL AND {y_col} IS NOT NULL
),
s AS (
  SELECT {group_col},
         COUNT(*)::DOUBLE AS n,
         SUM(rx) AS sx, SUM(ry) AS sy,
         SUM(rx * rx) AS sxx, SUM(ry * ry) AS syy,
         SUM(rx * ry) AS sxy
  FROM r GROUP BY {group_col}
)
SELECT {group_col},
       ROUND((n * sxy - sx * sy)
             / SQRT((n * sxx - sx * sx) * (n * syy - sy * sy)) * {t})
         / {t} AS spearman
FROM s
"""


def table_profile(ds, cols: list[str]):
    """Per-column data profile — the catalog/inspection utility every
    engine ships: ``(column, n, n_null, n_distinct, min_v, max_v)`` with
    min/max rendered as VARCHAR of the NATIVE-domain extremum (numeric
    order for integer columns, binary lexicographic for strings — the
    SQL ``MIN(col)::VARCHAR`` law).  Integer and string columns only
    (floats have no canonical text rendering to share with SQL).

    Plan: one stateless combiner pass emits a (col, n, n_null, min,
    max) partial row per column per block (driver-folds at
    cols x blocks scale), and exact COUNT(DISTINCT) rides the
    `distinct_int_pairs` coarse-bucket shuffle over 60-bit md5 prefixes
    of the value strings — the content-stable hash law, so only
    (col, hash) int pairs ever shuffle, never the values."""
    import ray.data as rd

    from .text import md5_prefix_int

    col_idx = {c: i for i, c in enumerate(cols)}

    def part(b: pa.Table) -> pa.Table:
        ci, n, nn = [], [], []
        mn_s, mx_s, mn_i, mx_i = [], [], [], []
        for c in cols:
            col = b[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ci.append(col_idx[c])
            n.append(len(col))
            nn.append(col.null_count)
            valid = col.drop_null()
            is_int = pa.types.is_integer(col.type)
            if not len(valid):
                mn_s.append(None); mx_s.append(None)
                mn_i.append(None); mx_i.append(None)
                continue
            if is_int:
                v = np.asarray(valid, np.int64)
                mn_i.append(int(v.min())); mx_i.append(int(v.max()))
                mn_s.append(None); mx_s.append(None)
            elif pa.types.is_string(col.type) or pa.types.is_large_string(
                col.type
            ):
                mm = pc.min_max(valid)
                mn_s.append(mm["min"].as_py()); mx_s.append(mm["max"].as_py())
                mn_i.append(None); mx_i.append(None)
            elif pa.types.is_null(col.type):
                mn_s.append(None); mx_s.append(None)
                mn_i.append(None); mx_i.append(None)
            else:
                raise TypeError(
                    f"table_profile supports int/string columns, got "
                    f"{col.type} for {c!r}"
                )
        return pa.table(
            {
                "ci": pa.array(ci, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "nn": pa.array(nn, pa.int64()),
                "mn_s": pa.array(mn_s, pa.string()),
                "mx_s": pa.array(mx_s, pa.string()),
                "mn_i": pa.array(mn_i, pa.int64()),
                "mx_i": pa.array(mx_i, pa.int64()),
            }
        )

    parts = pa.concat_tables(
        t
        for t in ds.map_batches(part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
        if t.num_rows
    )

    def dh(b: pa.Table) -> pa.Table:
        out_c, out_h = [], []
        for c in cols:
            col = b[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if pa.types.is_null(col.type):
                continue
            valid = col.drop_null()
            if not len(valid):
                continue
            s = pc.cast(valid, pa.string())
            u = pc.unique(s)
            h = md5_prefix_int(u).astype(np.int64)
            out_c.append(np.full(len(h), col_idx[c], np.int64))
            out_h.append(h)
        if not out_c:
            return pa.table(
                {"ci": pa.array([], pa.int64()),
                 "h": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "ci": pa.array(np.concatenate(out_c)),
                "h": pa.array(np.concatenate(out_h)),
            }
        )

    # distinct: (hash << 4 | col) packed uint64 keys (60-bit md5 prefix,
    # <= 16 columns), per-batch unique -> coarse-bucket shuffle -> per-
    # bucket unique + per-column count partials, driver-folded
    if len(cols) > 16:
        raise ValueError("table_profile packs <= 16 columns per call")

    def packk(b: pa.Table) -> pa.Table:
        h = np.asarray(b["h"], np.int64).astype(np.uint64)
        ci_ = np.asarray(b["ci"], np.int64).astype(np.uint64)
        k = np.unique((h << np.uint64(4)) | ci_)
        return pa.table({"k": pa.array(k.astype(np.int64))})

    def ucount(t: pa.Table, starts: np.ndarray) -> dict:
        ci_ = np.asarray(t["k"], np.int64)[starts] & 15
        u, c = np.unique(ci_, return_counts=True)
        return {"ci": u, "c": c}

    dparts = segment_apply(
        ds.map_batches(dh, batch_format="pyarrow").map_batches(
            packk, batch_format="pyarrow"
        ),
        "k",
        ucount,
        pa.schema({"ci": pa.int64(), "c": pa.int64()}),
    )
    dcounts = np.zeros(len(cols), np.int64)
    for t in dparts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for ciL, cL in zip(
            np.asarray(t["ci"], np.int64), np.asarray(t["c"], np.int64)
        ):
            dcounts[ciL] += cL

    pci = np.asarray(parts["ci"], np.int64)
    pn = np.asarray(parts["n"], np.int64)
    pnn = np.asarray(parts["nn"], np.int64)
    out_rows = []
    for c, i in col_idx.items():
        sel = pci == i
        n_tot = int(pn[sel].sum())
        nn_tot = int(pnn[sel].sum())
        mi = parts["mn_i"].take(pa.array(np.flatnonzero(sel))).drop_null()
        ms = parts["mn_s"].take(pa.array(np.flatnonzero(sel))).drop_null()
        xi = parts["mx_i"].take(pa.array(np.flatnonzero(sel))).drop_null()
        xs = parts["mx_s"].take(pa.array(np.flatnonzero(sel))).drop_null()
        if len(mi):
            mn = str(int(np.asarray(mi, np.int64).min()))
            mx = str(int(np.asarray(xi, np.int64).max()))
        elif len(ms):
            mn = min(ms.to_pylist())
            mx = max(xs.to_pylist())
        else:
            mn = None
            mx = None
        out_rows.append(
            (c, n_tot, nn_tot, int(dcounts[i]), mn, mx)
        )
    return pa.table(
        {
            "column": pa.array([r[0] for r in out_rows], pa.string()),
            "n": pa.array([r[1] for r in out_rows], pa.int64()),
            "n_null": pa.array([r[2] for r in out_rows], pa.int64()),
            "n_distinct": pa.array([r[3] for r in out_rows], pa.int64()),
            "min_v": pa.array([r[4] for r in out_rows], pa.string()),
            "max_v": pa.array([r[5] for r in out_rows], pa.string()),
        }
    )


def sql_table_profile(*, source: str, cols: list[str]) -> str:
    """DuckDB twin of :func:`table_profile` — one UNION ALL arm per
    column, MIN/MAX cast to VARCHAR in the native domain."""
    arms = []
    for c in cols:
        arms.append(
            f"SELECT '{c}' AS \"column\", COUNT(*)::BIGINT AS n, "
            f"(COUNT(*) - COUNT({c}))::BIGINT AS n_null, "
            f"COUNT(DISTINCT {c})::BIGINT AS n_distinct, "
            f"MIN({c})::VARCHAR AS min_v, MAX({c})::VARCHAR AS max_v "
            f"FROM {source}"
        )
    return "\nUNION ALL\n".join(arms)


def k_anonymity(
    ds,
    quasi_cols: list[str],
    *,
    sensitive_col: str | None = None,
    k: int = 5,
):
    """Privacy audit of a release candidate: group rows by the
    quasi-identifier combination and report, per equivalence class that
    VIOLATES k-anonymity (size < k), the class size — plus l-diversity
    (distinct sensitive values) when ``sensitive_col`` is given.
    Output: (class size ``n``, ``l_div``, one row per violating class,
    with the quasi columns rendered as the joined key string).

    Plan: quasi values hash to one 60-bit md5 prefix of the joined key
    string (the content-stable law) carried WITH the rendered key; a
    per-batch (hash, count, sensitive-hash set) combiner -> ONE
    coarse-bucket shuffle -> per-bucket exact fold.  Only (hash, key,
    partials) rows shuffle — never the table."""
    from .text import md5_prefix_int

    sep = "\x1f"

    def part(b: pa.Table) -> pa.Table:
        cols = [
            pc.cast(b[c], pa.string()).to_pandas().astype(str)
            for c in quasi_cols
        ]
        key = cols[0]
        for c in cols[1:]:
            key = key + sep + c
        key = key.to_numpy(dtype=object)
        h = md5_prefix_int(pa.array(key, pa.string())).astype(np.int64)
        if sensitive_col is not None:
            sv = md5_prefix_int(
                pc.cast(b[sensitive_col], pa.string())
            ).astype(np.int64)
        else:
            sv = np.zeros(len(h), np.int64)
        order = np.lexsort((sv, h))
        h, key, sv = h[order], key[order], sv[order]
        # distinct (h, sv) runs for the l-diversity partial
        starts = np.flatnonzero(
            np.concatenate(
                [[True], (h[1:] != h[:-1]) | (sv[1:] != sv[:-1])]
            )
        )
        gstarts = np.flatnonzero(
            np.concatenate([[True], h[1:] != h[:-1]])
        )
        cnt = np.diff(np.append(gstarts, len(h))).astype(np.int64)
        gt = pa.table(
            {
                "h": pa.array(h[gstarts]),
                "key": pa.array(key[gstarts].astype(object), pa.string()),
                "n": pa.array(cnt),
                "sv": pa.array(np.full(len(gstarts), -1, np.int64)),
            }
        )
        st = pa.table(
            {
                "h": pa.array(h[starts]),
                "key": pa.array(key[starts].astype(object), pa.string()),
                "n": pa.array(np.zeros(len(starts), np.int64)),
                "sv": pa.array(sv[starts]),
            }
        )
        return pa.concat_tables([gt, st])

    def fold(t: pa.Table, starts: np.ndarray) -> dict:
        sv = np.asarray(t["sv"], np.int64)
        tot = np.add.reduceat(np.asarray(t["n"], np.int64), starts)
        # distinct sensitive values per class: (h, sv) runs with sv >= 0
        first = np.zeros(len(sv), dtype=bool)
        first[starts] = True
        pair_new = first | np.append(True, sv[1:] != sv[:-1])
        grp = np.cumsum(first) - 1
        ldiv = np.bincount(grp[pair_new & (sv >= 0)], minlength=len(starts))
        bad = tot < k
        key = np.asarray(t["key"], dtype=object)
        return {"qkey": key[starts][bad], "n": tot[bad], "l_div": ldiv[bad]}

    return segment_apply(
        ds.map_batches(part, batch_format="pyarrow"),
        "h",
        fold,
        pa.schema({"qkey": pa.string(), "n": pa.int64(), "l_div": pa.int64()}),
        order=("sv",),
    )


def sql_k_anonymity(
    *,
    source: str,
    quasi_cols: list[str],
    sensitive_col: str | None = None,
    k: int = 5,
) -> str:
    """DuckDB twin of :func:`k_anonymity` (separator \\x1f joined key,
    same violation predicate)."""
    keyexpr = " || chr(31) || ".join(
        f"CAST({c} AS VARCHAR)" for c in quasi_cols
    )
    ldiv = (
        f"COUNT(DISTINCT {sensitive_col})::BIGINT"
        if sensitive_col is not None
        else "0::BIGINT"
    )
    return f"""
SELECT {keyexpr} AS qkey, COUNT(*)::BIGINT AS n, {ldiv} AS l_div
FROM {source}
GROUP BY qkey
HAVING COUNT(*) < {k}
"""


def trimmed_mean(
    ds,
    *,
    key: str,
    value: str,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    round_to: int = 6,
):
    """Per-key trimmed (winsor-fence) mean: the mean of values inside
    the INCLUSIVE ``[quantile_cont(q_lo), quantile_cont(q_hi)]`` band —
    the robust-location companion to :func:`iqr_outliers`, same plan:
    exact histogram quantiles -> 6dp-rounded fences closure-broadcast ->
    one scan emitting per-(key, batch) (count, kept, kept-sum) partials
    -> driver fold (aggregate-scale, the fixed-cost rule).  Comparisons
    run against the ROUNDED fences so both sides keep identical rows.

    Output: ``key, n_total, n_kept, trimmed_mean`` (rounded half-away)."""
    quarts = grouped_quantiles_cont(
        ds, key=key, value=value, qs=(q_lo, q_hi), round_to=round_to
    ).to_pandas()
    cols = [c for c in quarts.columns if c != key]
    fences = dict(
        zip(
            quarts[key].astype(str).tolist(),
            zip(
                quarts[cols[0]].to_numpy(np.float64),
                quarts[cols[1]].to_numpy(np.float64),
            ),
        )
    )
    tol = 10.0**round_to

    def partial(b: pa.Table) -> pa.Table:
        # NULL keys drop here, mirroring the twin's JOIN q USING(key)
        # semantics (and np.unique over object arrays raises on None)
        b = b.filter(pc.is_valid(b[key]))
        ks = np.asarray(pc.cast(b[key], pa.string())).astype(object)
        v = np.asarray(b[value], np.float64)
        ug, inv = np.unique(ks, return_inverse=True)
        lo = np.array([fences.get(g, (-np.inf, np.inf))[0] for g in ug])
        hi = np.array([fences.get(g, (-np.inf, np.inf))[1] for g in ug])
        keep = (v >= lo[inv]) & (v <= hi[inv])
        n = np.bincount(inv, minlength=len(ug)).astype(np.int64)
        nk = np.bincount(inv, weights=keep, minlength=len(ug)).astype(np.int64)
        sk = np.bincount(inv, weights=np.where(keep, v, 0.0), minlength=len(ug))
        return pa.table(
            {
                key: pa.array(ug, pa.string()),
                "n_total": pa.array(n),
                "n_kept": pa.array(nk),
                "kept_sum": pa.array(sk),
            }
        )

    import ray
    import ray.data as rd

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    parts = [p for p in ray.get(partials.to_arrow_refs()) if p.num_rows]
    folded = (
        pa.concat_tables(parts, promote_options="permissive")
        .to_pandas()
        .groupby(key, dropna=False, sort=False, as_index=False)[
            ["n_total", "n_kept", "kept_sum"]
        ]
        .sum()
    )
    nk = folded["n_kept"].to_numpy(np.float64)
    sk = folded["kept_sum"].to_numpy(np.float64)
    m = sk / nk
    folded["trimmed_mean"] = np.sign(m) * np.floor(np.abs(m) * tol + 0.5) / tol
    return rd.from_pandas(folded.drop(columns="kept_sum"))


def sql_trimmed_mean(
    *,
    key: str = "event_type",
    value: str = "value",
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    source: str = "events",
) -> str:
    """DuckDB twin of :func:`trimmed_mean` (shared rounded-fence law)."""
    return f"""
WITH q AS (
  SELECT {key},
         ROUND(quantile_cont({value}, {q_lo}) * 1e6) / 1e6 AS lo,
         ROUND(quantile_cont({value}, {q_hi}) * 1e6) / 1e6 AS hi
  FROM {source} GROUP BY {key}
)
SELECT e.{key},
       COUNT(*)::BIGINT AS n_total,
       SUM(CASE WHEN e.{value} >= q.lo AND e.{value} <= q.hi
                THEN 1 ELSE 0 END)::BIGINT AS n_kept,
       ROUND(SUM(CASE WHEN e.{value} >= q.lo AND e.{value} <= q.hi
                      THEN e.{value} ELSE 0 END)
             / SUM(CASE WHEN e.{value} >= q.lo AND e.{value} <= q.hi
                        THEN 1 ELSE 0 END) * 1e6) / 1e6 AS trimmed_mean
FROM {source} e JOIN q USING ({key})
GROUP BY e.{key}
"""
