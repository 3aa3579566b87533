"""TPC-H-style decision-support queries over the synthetic star schema.

Complements the existing Q1 (pipelines/relational.py), Q3 and Q5
(pipelines/queries.py) with the remaining classic shapes the schema can
express: Q6 (predicate-pushed scan aggregate), Q14 (broadcast dimension
CASE ratio), Q19 (broadcast dimension disjunctive predicate), Q4
(EXISTS semi-aggregate, re-planned as one coarse-bucket shuffle with no
join), Q18 (high-cardinality HAVING filter + driver-final dimension
attach) and Q10 (partitioned fact join + grouped top-k).

Every query shares its literals with a ``sql_*`` twin so the DuckDB
oracle runs the numerically identical law: money sums round to 2dp
half-away on both sides, ratios to 6dp (step >> ulp(sum) x addends per
the repo float law).  The schema lacks l_commitdate/l_receiptdate/
l_shipmode, so Q4's "late" predicate is adapted to
``l_shipdate >= o_orderdate + LATE_DAYS`` — the same EXISTS
semi-aggregate shape as the reference query.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..cluster import Broadcast, segment_apply, to_frame
from .registry import query

# shared constants (engine and SQL twins read THESE — never inline)
Q6_D0, Q6_D1 = "1996-01-01", "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI = 0.05, 0.07
Q6_QTY_LT = 24.0

Q14_D0, Q14_D1 = "1996-03-01", "1996-04-01"
Q14_PROMO = "PROMO"

# (brand, max_size, qty_lo, qty_hi) disjuncts; sizes start at 1
Q19_CASES = (
    ("Brand#12", 5, 1.0, 11.0),
    ("Brand#23", 10, 10.0, 20.0),
    ("Brand#15", 15, 20.0, 30.0),
)

Q4_LATE_DAYS = 60
Q4_BUCKETS = 64

Q18_QTY_GT = 300.0

Q10_D0, Q10_D1 = "1996-10-01", "1997-01-01"
Q10_K = 20

_US_PER_DAY = 86_400_000_000


def _ts_us(date: str) -> int:
    return int(np.datetime64(date).astype("datetime64[us]").astype(np.int64))




def _round_half_away_scalar(v: float, decimals: int) -> float:
    """Half-away-from-zero scalar rounding (SQL ROUND law; the scalar
    twin of ``queries.round_half_away``)."""
    step = 10.0 ** decimals
    return float(np.sign(v) * np.floor(np.abs(v) * step + 0.5) / step)


@query("q6_revenue", sql=lambda: sql_q6())
def q6_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q6 revenue-change forecast: one predicate-pushed scan, one
    float per batch leaves the workers (combiner partials -> Sum)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    d0, d1 = _ts_us(Q6_D0), _ts_us(Q6_D1)
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(b: pa.Table) -> pa.Table:
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        disc = np.asarray(b["l_discount"], np.float64)
        qty = np.asarray(b["l_quantity"], np.float64)
        ext = np.asarray(b["l_extendedprice"], np.float64)
        m = (
            (ship >= d0) & (ship < d1)
            & (disc >= Q6_DISC_LO) & (disc <= Q6_DISC_HI)
            & (qty < Q6_QTY_LT)
        )
        return pa.table({"rev": pa.array([float((ext[m] * disc[m]).sum())])})

    total = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("rev", alias_name="revenue")
    )["revenue"]
    return pa.table({"revenue": pa.array([_round_half_away_scalar(total, 2)])})


def sql_q6() -> str:
    return f"""
SELECT ROUND(SUM(l_extendedprice * l_discount) * 1e2) / 1e2 AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_D0}' AND l_shipdate < TIMESTAMP '{Q6_D1}'
  AND l_discount >= {Q6_DISC_LO} AND l_discount <= {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY_LT}
"""


def _part_lookup(sf_dir: str, columns: list[str], build=None):
    """Sorted p_partkey + companion columns, broadcast once (the part
    dimension is the classic broadcast side: ~200k rows/SF); ``build``
    runs on it once per worker."""
    t = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey"] + columns)
    keys = np.asarray(t["p_partkey"], np.int64)
    order = np.argsort(keys, kind="stable")
    payload = tuple(
        np.asarray(t[c])[order] if t[c].type != pa.string()
        else np.asarray(t[c].to_pylist(), dtype=object)[order]
        for c in columns
    )
    return Broadcast((keys[order], payload), build)


@query("q14_promo", sql=lambda: sql_q14())
def q14_promo(sf_dir: str) -> pa.Table:
    """TPC-H Q14 promo-revenue share: ship-month window pushed at the
    scan, part type rides a broadcast sorted lookup, two partial sums per
    batch, driver-final ratio (6dp both sides)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    d0, d1 = _ts_us(Q14_D0), _ts_us(Q14_D1)
    ref = _part_lookup(
        sf_dir,
        ["p_type"],
        lambda d: (d[0], (np.asarray(d[1][0] == Q14_PROMO),)),
    )

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        pk_sorted, (ptype,) = ref.get()
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        m = (ship >= d0) & (ship < d1)
        pk = np.asarray(b["l_partkey"], np.int64)[m]
        rev = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            * (1.0 - np.asarray(b["l_discount"], np.float64)[m])
        )
        pos = np.searchsorted(pk_sorted, pk)
        pos = np.minimum(pos, len(pk_sorted) - 1)
        hit = pk_sorted[pos] == pk
        promo = hit & ptype[pos]
        return pa.table(
            {
                "promo": pa.array([float(rev[promo].sum())]),
                "total": pa.array([float(rev[hit].sum())]),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("promo", alias_name="p"), Sum("total", alias_name="t")
    )
    pct = (100.0 * agg["p"]) / agg["t"]
    return pa.table({"promo_pct": pa.array([_round_half_away_scalar(pct, 6)])})


def sql_q14() -> str:
    return f"""
SELECT ROUND((100.0 * SUM(CASE WHEN p_type = '{Q14_PROMO}'
                 THEN l_extendedprice * (1.0 - l_discount) ELSE 0.0 END))
       / SUM(l_extendedprice * (1.0 - l_discount)) * 1e6) / 1e6 AS promo_pct
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= TIMESTAMP '{Q14_D0}' AND l_shipdate < TIMESTAMP '{Q14_D1}'
"""


@query("q19_discount", sql=lambda: sql_q19())
def q19_discount(sf_dir: str) -> pa.Table:
    """TPC-H Q19 disjunctive brand/size/quantity revenue: the three-way
    OR is evaluated vectorized against a broadcast (brand_code, size)
    part lookup; one partial sum per batch."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    brands = tuple(c[0] for c in Q19_CASES)

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def build(d):
        pk_sorted, (brand, size) = d
        code = np.full(len(brand), -1, np.int64)
        for i, bname in enumerate(brands):
            code[brand == bname] = i
        return pk_sorted, code, np.asarray(size, np.int64)

    ref = _part_lookup(sf_dir, ["p_brand", "p_size"], build)

    def partial(b: pa.Table) -> pa.Table:
        pk_sorted, code, size = ref.get()
        pk = np.asarray(b["l_partkey"], np.int64)
        qty = np.asarray(b["l_quantity"], np.float64)
        rev = (
            np.asarray(b["l_extendedprice"], np.float64)
            * (1.0 - np.asarray(b["l_discount"], np.float64))
        )
        pos = np.searchsorted(pk_sorted, pk)
        pos = np.minimum(pos, len(pk_sorted) - 1)
        hit = pk_sorted[pos] == pk
        c, s = np.where(hit, code[pos], -1), size[pos]
        keep = np.zeros(len(pk), bool)
        for i, (_, max_size, qlo, qhi) in enumerate(Q19_CASES):
            keep |= (
                (c == i) & (s >= 1) & (s <= max_size)
                & (qty >= qlo) & (qty <= qhi)
            )
        return pa.table({"rev": pa.array([float(rev[keep].sum())])})

    total = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("rev", alias_name="revenue")
    )["revenue"]
    return pa.table({"revenue": pa.array([_round_half_away_scalar(total, 2)])})


def sql_q19() -> str:
    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN 1 AND {ms}"
        f" AND l_quantity BETWEEN {qlo} AND {qhi})"
        for b, ms, qlo, qhi in Q19_CASES
    )
    return f"""
SELECT ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2 AS revenue
FROM lineitem, part
WHERE l_partkey = p_partkey AND ({ors})
"""


@query("q4_priority", sql=lambda: sql_q4(), bench=True)
def q4_priority(sf_dir: str):
    """TPC-H Q4 order-priority check (EXISTS semi-aggregate), adapted to
    the schema's columns: an order is "late" when any lineitem shipped
    >= ``Q4_LATE_DAYS`` days after the order date.

    Scale plan: NO join.  EXISTS(ship >= thresh) == max(ship) >= thresh,
    so lineitem reduces to per-order max-shipdate combiner partials;
    those partials and the (orderkey, threshold, priority) order rows
    union into ONE coarse orderkey-hash bucket shuffle (``Q4_BUCKETS``
    groups — never a fine per-order groupby), each bucket resolves
    late orders with a sort + ``np.maximum.reduceat`` segment max and
    emits per-priority partial counts; a 5-row driver fold finishes."""
    import ray.data as rd

    from ..cluster import default_num_partitions

    late_us = Q4_LATE_DAYS * _US_PER_DAY
    nb = max(Q4_BUCKETS, default_num_partitions())

    def li_partial(b: pa.Table) -> pa.Table:
        key = np.asarray(b["l_orderkey"], np.int64)
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        order = np.argsort(key, kind="stable")
        key, ship = key[order], ship[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        mx = np.maximum.reduceat(ship, starts) if len(key) else ship[:0]
        k = key[starts]
        return pa.table(
            {
                "key": pa.array(k),
                "us": pa.array(mx),
                "prio": pa.array([""] * len(k), pa.string()),
                "src": pa.array(np.zeros(len(k), np.int8)),
            }
        )

    def ord_rows(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_orderkey"], np.int64)
        thr = (
            np.asarray(b["o_orderdate"]).astype("datetime64[us]").view("int64")
            + late_us
        )
        return pa.table(
            {
                "key": pa.array(k),
                "us": pa.array(thr),
                "prio": b["o_orderpriority"],
                "src": pa.array(np.ones(len(k), np.int8)),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(li_partial, batch_format="pyarrow")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(ord_rows, batch_format="pyarrow")

    def bucket(t: pa.Table, starts: np.ndarray) -> dict:
        # per order key: lineitem max-ship partials (src 0), then the
        # order row (src 1, orderkeys are unique)
        src = np.asarray(t["src"], np.int8)
        us = np.asarray(t["us"], np.int64)
        seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(us))))
        mx = np.maximum.reduceat(
            np.where(src == 0, us, np.iinfo(np.int64).min), starts
        )
        o = np.flatnonzero(src == 1)
        late = mx[seg[o]] >= us[o]
        vc = pd.Series(np.asarray(t["prio"], dtype=object)[o[late]]).value_counts()
        return {
            "o_orderpriority": vc.index.to_numpy(object),
            "order_count": vc.to_numpy(np.int64),
        }

    # the per-bucket partials are <= nb x 5 rows — a Ray aggregate here
    # pays ~1 s of fixed overhead for a driver-fold-sized input (the
    # events_watermark finding), so the 5-row finish folds on the driver
    schema = pa.schema({"o_orderpriority": pa.string(), "order_count": pa.int64()})
    part = to_frame(
        segment_apply(
            li.union(orders), "key", bucket, schema, order=("src",), num_buckets=nb
        ),
        schema,
    )
    agg = (
        part.groupby("o_orderpriority", sort=True)["order_count"]
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "o_orderpriority": pa.array(
                agg["o_orderpriority"].tolist(), pa.string()
            ),
            "order_count": pa.array(agg["order_count"].to_numpy(np.int64)),
        }
    )


def sql_q4() -> str:
    return f"""
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE EXISTS (
    SELECT 1 FROM lineitem
    WHERE l_orderkey = o_orderkey
      AND l_shipdate >= o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


@query("q18_large_orders", sql=lambda: sql_q18())
def q18_large_orders(sf_dir: str) -> pa.Table:
    """TPC-H Q18 large-volume customers: per-order quantity combiner
    partials -> hash aggregate -> HAVING filter (result is top-k scale)
    -> driver-final dimension attach via partkey-filtered pruned reads
    (only the matching row groups leave storage)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        g = df.groupby("l_orderkey", sort=False)["l_quantity"].sum()
        return pa.table(
            {"l_orderkey": pa.array(g.index.to_numpy(np.int64)),
             "l_quantity": pa.array(g.to_numpy(np.float64))}
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("l_quantity", alias_name="total_qty"))
        .map_batches(
            lambda b: b.filter(pc.greater(b["total_qty"], Q18_QTY_GT)),
            batch_format="pyarrow",
        )
    )
    big = agg.to_pandas()
    if not len(big):
        return pa.table(
            {"c_name": pa.array([], pa.string()),
             "o_custkey": pa.array([], pa.int64()),
             "o_orderkey": pa.array([], pa.int64()),
             "o_orderdate": pa.array([], pa.timestamp("us")),
             "o_totalprice": pa.array([], pa.float64()),
             "total_qty": pa.array([], pa.float64())}
        )
    keys = set(big["l_orderkey"].tolist())
    import pyarrow.dataset as pads

    ords = pads.dataset(f"{sf_dir}/orders.parquet").to_table(
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        filter=pads.field("o_orderkey").isin(list(keys)),
    ).to_pandas()
    custs = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
        columns=["c_custkey", "c_name"],
        filter=pads.field("c_custkey").isin(ords["o_custkey"].tolist()),
    ).to_pandas()
    out = (
        big.rename(columns={"l_orderkey": "o_orderkey"})
        .merge(ords, on="o_orderkey")
        .merge(custs, left_on="o_custkey", right_on="c_custkey")
    )
    out = out.sort_values(
        ["o_totalprice", "o_orderdate", "o_orderkey"],
        ascending=[False, True, True],
    )
    return pa.table(
        {
            "c_name": pa.array(out["c_name"].tolist(), pa.string()),
            "o_custkey": pa.array(out["o_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(out["o_orderkey"].to_numpy(np.int64)),
            "o_orderdate": pa.array(
                out["o_orderdate"].to_numpy().astype("datetime64[us]")
            ),
            "o_totalprice": pa.array(out["o_totalprice"].to_numpy(np.float64)),
            "total_qty": pa.array(out["total_qty"].to_numpy(np.float64)),
        }
    )


def sql_q18() -> str:
    return f"""
SELECT c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice,
       SUM(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey HAVING SUM(l_quantity) > {Q18_QTY_GT})
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate, o_orderkey
"""


@query("q10_returned", sql=lambda: sql_q10(), bench=True)
def q10_returned(sf_dir: str) -> pa.Table:
    """TPC-H Q10 returned-item ranking.

    Scale plan (the q3_shipping shape): the quarter's keeper orders are
    size-gate broadcast (``joins.lookup_join``) onto the return-filtered
    lineitem stream while they fit, else a cluster-derived partitioned
    hash join; grouped revenue + top-20 run WITHOUT a fine per-customer
    groupby or a global sort — per-batch combiners sum revenue by
    custkey, a 64-bucket coarse shuffle finishes each key's exact sum
    and keeps that bucket's top-20 by the rounded-revenue tie law, and
    the driver merges 64x20 candidate rows; the customer/nation
    dimension attaches driver-final (K rows only, partkey-filtered
    pruned read)."""
    import ray
    import ray.data as rd

    from ..cluster import default_num_partitions, resolve_num_buckets

    nb = resolve_num_buckets(None)  # driver-resolved once, captured below
    d0, d1 = _ts_us(Q10_D0), _ts_us(Q10_D1)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: b.select(["o_orderkey", "o_custkey"]).filter(
            pa.array(
                (
                    np.asarray(b["o_orderdate"]).astype("datetime64[us]")
                    .view("int64") >= d0
                )
                & (
                    np.asarray(b["o_orderdate"]).astype("datetime64[us]")
                    .view("int64") < d1
                )
            )
        ),
        batch_format="pyarrow",
    )

    def li_project(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["l_returnflag"], "R")
        b = b.filter(keep)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev": pc.multiply(
                    b["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), b["l_discount"]),
                ),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_project, batch_format="pyarrow")

    keeper = orders.materialize()
    if keeper.count() <= 2_000_000:
        from ..joins import lookup_join

        dim = pa.concat_tables(
            keeper.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        j = lookup_join(
            li, dim, on="l_orderkey", key="o_orderkey",
            value_cols=["o_custkey"],
        )
    else:
        nparts = default_num_partitions()
        j = li.repartition(nparts).join(
            keeper.repartition(nparts),
            "inner",
            num_partitions=nparts,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )

    def bucket_partial(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()),
                 "s": pa.array([], pa.float64())}
            )
        k = np.asarray(b["o_custkey"], np.int64)
        r = np.asarray(b["rev"], np.float64)
        uk, inv = np.unique(k, return_inverse=True)
        s = np.bincount(inv, weights=r, minlength=len(uk))
        return pa.table({"k": pa.array(uk), "s": pa.array(s)})

    def bucket_topk(t: pa.Table, starts: np.ndarray) -> dict:
        sums = np.add.reduceat(np.asarray(t["s"], np.float64), starts)
        uk = np.asarray(t["k"], np.int64)[starts]
        rev = np.sign(sums) * np.floor(np.abs(sums) * 1e2 + 0.5) / 1e2
        top = np.lexsort((uk, -rev))[:Q10_K]
        return {"k": uk[top], "revenue": rev[top]}

    cand = segment_apply(
        j.map_batches(bucket_partial, batch_format="pyarrow"),
        "k",
        bucket_topk,
        pa.schema({"k": pa.int64(), "revenue": pa.float64()}),
        num_buckets=nb,
    ).materialize()
    parts = [
        t if isinstance(t, pa.Table)
        else pa.Table.from_pandas(t, preserve_index=False)
        for t in ray.get(cand.to_arrow_refs())
    ]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        top = pd.DataFrame(
            {"o_custkey": pd.Series([], np.int64),
             "revenue": pd.Series([], np.float64)}
        )
    else:
        merged = pa.concat_tables(parts).to_pandas()
        merged = merged.sort_values(
            ["revenue", "k"], ascending=[False, True]
        ).head(Q10_K)
        top = merged.rename(columns={"k": "o_custkey"})
    import pyarrow.dataset as pads

    custs = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filter=pads.field("c_custkey").isin(top["o_custkey"].tolist()),
    ).to_pandas()
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pydict()
    nmap = dict(zip(nat["n_nationkey"], nat["n_name"]))
    out = top.merge(custs, left_on="o_custkey", right_on="c_custkey")
    out = out.sort_values(
        ["revenue", "o_custkey"], ascending=[False, True]
    )
    return pa.table(
        {
            "c_custkey": pa.array(out["o_custkey"].to_numpy(np.int64)),
            "c_name": pa.array(out["c_name"].tolist(), pa.string()),
            "revenue": pa.array(out["revenue"].to_numpy(np.float64)),
            "c_acctbal": pa.array(out["c_acctbal"].to_numpy(np.float64)),
            "n_name": pa.array(
                [nmap[int(v)] for v in out["c_nationkey"]], pa.string()
            ),
        }
    )


def sql_q10() -> str:
    return f"""
SELECT c_custkey, c_name,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2
           AS revenue,
       c_acctbal, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= TIMESTAMP '{Q10_D0}'
  AND o_orderdate < TIMESTAMP '{Q10_D1}'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey
LIMIT {Q10_K}
"""


# wave C constants
Q7_N1, Q7_N2 = "NATION_1", "NATION_2"
Q7_D0, Q7_D1 = "1996-01-01", "1998-01-01"

Q8_REGION = "ASIA"
Q8_NATION = "NATION_7"
Q8_PTYPE = "STANDARD"
Q8_D0, Q8_D1 = "1996-01-01", "1998-01-01"

Q15_D0, Q15_D1 = "1996-01-01", "1996-04-01"

Q22_NATIONS = (1, 4, 11, 14, 21, 23)
Q22_CUTOFF = "2000-07-01"


def _nation_maps(sf_dir: str):
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    by_key = dict(zip(nat["n_nationkey"], nat["n_name"]))
    by_region = {}
    for k, rk in zip(nat["n_nationkey"], nat["n_regionkey"]):
        by_region.setdefault(rk, set()).add(k)
    return by_key, by_region


def _supplier_nation_ref(sf_dir: str):
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = np.asarray(supp["s_suppkey"], np.int64)
    sn = np.asarray(supp["s_nationkey"], np.int64)
    o = np.argsort(sk, kind="stable")
    return Broadcast((sk[o], sn[o]))


@query("q7_volume", sql=lambda: sql_q7(), bench=True)
def q7_volume(sf_dir: str):
    """TPC-H Q7 volume shipping between two nations: the q5_revenue
    chain shape — customers pre-filtered to the two nations join the
    order stream partitioned; lineitem (ship-window pushed, supplier
    nation via broadcast sorted lookup) joins that; the opposite-nation
    predicate and the (supp, cust, year) partial sums are vectorized,
    so the final groupby is 4 rows."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..cluster import default_num_partitions
    from .queries import round_half_away

    by_key, _ = _nation_maps(sf_dir)
    name_of = {k: v for k, v in by_key.items() if v in (Q7_N1, Q7_N2)}
    pair_keys = frozenset(name_of)
    s_ref = _supplier_nation_ref(sf_dir)
    d0, d1 = _ts_us(Q7_D0), _ts_us(Q7_D1)
    nparts = default_num_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pa.array(
                np.isin(np.asarray(b["c_nationkey"], np.int64), list(pair_keys))
            )
        ),
        batch_format="pyarrow",
    ).materialize()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    # two nations are 2/25 of the customer table: broadcast while small
    # (the q3_shipping gate), else partitioned safe_join with the
    # filtered side's schema guarded against the Ray 2.49 schema race
    # (at tiny scale its rows can be fewer than the shuffle width).
    if cust.count() <= 2_000_000:
        from ..joins import lookup_join

        dim = pa.concat_tables(
            cust.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        ord_cust = lookup_join(
            orders, dim, on="o_custkey", key="c_custkey",
            value_cols=["c_nationkey"],
        )
    else:
        from ..cluster import safe_join

        ord_cust = safe_join(
            orders.repartition(nparts),
            cust,
            "inner",
            num_partitions=nparts,
            on=("o_custkey",),
            right_on=("c_custkey",),
            right_schema=pa.schema(
                [("c_custkey", pa.int64()), ("c_nationkey", pa.int32())]
            ),
        )

    def li_project(b: pa.Table) -> pa.Table:
        sk_sorted, sn_sorted = s_ref.get()
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        m = (ship >= d0) & (ship < d1)
        lk = np.asarray(b["l_orderkey"], np.int64)[m]
        sup = np.asarray(b["l_suppkey"], np.int64)[m]
        year = (
            np.asarray(b["l_shipdate"])[m]
            .astype("datetime64[Y]")
            .astype(np.int64) + 1970
        )
        rev = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            * (1.0 - np.asarray(b["l_discount"], np.float64)[m])
        )
        pos = np.searchsorted(sk_sorted, sup)
        pos = np.minimum(pos, len(sk_sorted) - 1)
        hit = sk_sorted[pos] == sup
        s_nat = np.where(hit, sn_sorted[pos], -1)
        keep = np.isin(s_nat, list(pair_keys))
        return pa.table(
            {
                "l_orderkey": pa.array(lk[keep]),
                "s_nat": pa.array(s_nat[keep]),
                "l_year": pa.array(year[keep]),
                "rev": pa.array(rev[keep]),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_suppkey", "l_shipdate",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_project, batch_format="pyarrow")

    keeper = ord_cust.select_columns(["o_orderkey", "c_nationkey"]).materialize()
    if keeper.count() <= 2_000_000:
        from ..joins import lookup_join

        kdim = pa.concat_tables(
            keeper.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        j = lookup_join(
            li, kdim, on="l_orderkey", key="o_orderkey",
            value_cols=["c_nationkey"],
        )
    else:
        from ..cluster import safe_join

        j = safe_join(
            li.repartition(nparts),
            keeper,
            "inner",
            num_partitions=nparts,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
            right_schema=pa.schema(
                [("o_orderkey", pa.int64()),
                 ("c_nationkey", pa.int32())]
            ),
        )

    def partial(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return pa.table(
                {"s_nat": pa.array([], pa.int64()),
                 "c_nat": pa.array([], pa.int64()),
                 "l_year": pa.array([], pa.int64()),
                 "rev": pa.array([], pa.float64())}
            )
        s_nat = np.asarray(b["s_nat"], np.int64)
        c_nat = np.asarray(b["c_nationkey"], np.int64)
        keep = s_nat != c_nat  # opposite nations (both already in pair set)
        s_nat, c_nat = s_nat[keep], c_nat[keep]
        year = np.asarray(b["l_year"], np.int64)[keep]
        rev = np.asarray(b["rev"], np.float64)[keep]
        # pack (s, c, y) into one int64 for a vectorized partial sum
        packed = (s_nat * 32 + c_nat) * 4096 + (year - 1970)
        uk, inv = np.unique(packed, return_inverse=True)
        sums = np.bincount(inv, weights=rev, minlength=len(uk))
        return pa.table(
            {
                "s_nat": pa.array((uk // 4096) // 32),
                "c_nat": pa.array((uk // 4096) % 32),
                "l_year": pa.array(uk % 4096 + 1970),
                "rev": pa.array(sums),
            }
        )

    # the group domain is 2 nations x 2 nations x years — driver-final
    # (a globally empty stream would otherwise finalize column-less)
    # 2x2xyears domain — driver fold (q4/watermark finding)
    part = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(part):
        part = pd.DataFrame(
            {"s_nat": pd.Series([], dtype=np.int64),
             "c_nat": pd.Series([], dtype=np.int64),
             "l_year": pd.Series([], dtype=np.int64),
             "rev": pd.Series([], dtype=np.float64)}
        )
    agg = (
        part.groupby(["s_nat", "c_nat", "l_year"], sort=False)["rev"]
        .sum()
        .reset_index()
        .rename(columns={"rev": "revenue"})
    )
    if not len(agg):
        return pa.table(
            {"supp_nation": pa.array([], pa.string()),
             "cust_nation": pa.array([], pa.string()),
             "l_year": pa.array([], pa.int64()),
             "revenue": pa.array([], pa.float64())}
        )
    agg["supp_nation"] = [
        name_of[int(v)] for v in agg["s_nat"].to_numpy(np.int64)
    ]
    agg["cust_nation"] = [
        name_of[int(v)] for v in agg["c_nat"].to_numpy(np.int64)
    ]
    agg = agg.sort_values(["supp_nation", "cust_nation", "l_year"])
    out = pa.table(
        {
            "supp_nation": pa.array(agg["supp_nation"].tolist(), pa.string()),
            "cust_nation": pa.array(agg["cust_nation"].tolist(), pa.string()),
            "l_year": pa.array(agg["l_year"].to_numpy(np.int64)),
            "revenue": pa.array(agg["revenue"].to_numpy(np.float64)),
        }
    )
    return round_half_away(out, ["revenue"], 2)


def sql_q7() -> str:
    return f"""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       EXTRACT(year FROM l_shipdate)::BIGINT AS l_year,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2
           AS revenue
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
  AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = '{Q7_N1}' AND n2.n_name = '{Q7_N2}')
       OR (n1.n_name = '{Q7_N2}' AND n2.n_name = '{Q7_N1}'))
  AND l_shipdate >= TIMESTAMP '{Q7_D0}' AND l_shipdate < TIMESTAMP '{Q7_D1}'
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""


@query("q8_market_share", sql=lambda: sql_q8())
def q8_market_share(sf_dir: str):
    """TPC-H Q8 national market share: region-filtered customers join
    the date-windowed order stream partitioned; lineitem is pre-filtered
    by part type via the broadcast part lookup and carries the supplier
    nation from the broadcast supplier lookup; per-year (numerator,
    denominator) partial sums finish in a 2-row groupby + driver ratio."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..cluster import default_num_partitions

    by_key, by_region = _nation_maps(sf_dir)
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pydict()
    rkey = {k for k, n in zip(reg["r_regionkey"], reg["r_name"])
            if n == Q8_REGION}
    region_nations = frozenset().union(
        *(by_region.get(r, set()) for r in rkey)
    )
    target_key = next(k for k, v in by_key.items() if v == Q8_NATION)

    p_ref = _part_lookup(
        sf_dir,
        ["p_type"],
        lambda d: (d[0], (np.asarray(d[1][0] == Q8_PTYPE),)),
    )
    s_ref = _supplier_nation_ref(sf_dir)
    d0, d1 = _ts_us(Q8_D0), _ts_us(Q8_D1)
    nparts = default_num_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.select(["c_custkey"]).filter(
            pa.array(
                np.isin(
                    np.asarray(b["c_nationkey"], np.int64),
                    list(region_nations),
                )
            )
        ),
        batch_format="pyarrow",
    )

    def ord_project(b: pa.Table) -> pa.Table:
        dt = np.asarray(b["o_orderdate"]).astype("datetime64[us]")
        m = (dt.view("int64") >= d0) & (dt.view("int64") < d1)
        return pa.table(
            {
                "o_orderkey": pa.array(np.asarray(b["o_orderkey"], np.int64)[m]),
                "o_custkey": pa.array(np.asarray(b["o_custkey"], np.int64)[m]),
                "o_year": pa.array(
                    dt[m].astype("datetime64[Y]").astype(np.int64) + 1970
                ),
            }
        )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_project, batch_format="pyarrow")

    ord_cust = orders.repartition(nparts).join(
        cust.repartition(nparts),
        "inner",
        num_partitions=nparts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def li_project(b: pa.Table) -> pa.Table:
        pk_sorted, (ptype,) = p_ref.get()
        sk_sorted, sn_sorted = s_ref.get()
        pk = np.asarray(b["l_partkey"], np.int64)
        pos = np.searchsorted(pk_sorted, pk)
        pos = np.minimum(pos, len(pk_sorted) - 1)
        m = (pk_sorted[pos] == pk) & ptype[pos]
        lk = np.asarray(b["l_orderkey"], np.int64)[m]
        sup = np.asarray(b["l_suppkey"], np.int64)[m]
        rev = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            * (1.0 - np.asarray(b["l_discount"], np.float64)[m])
        )
        spos = np.searchsorted(sk_sorted, sup)
        spos = np.minimum(spos, len(sk_sorted) - 1)
        shit = sk_sorted[spos] == sup
        is_target = shit & (sn_sorted[spos] == target_key)
        return pa.table(
            {
                "l_orderkey": pa.array(lk),
                "rev": pa.array(rev),
                "tgt": pa.array(is_target),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_project, batch_format="pyarrow")

    j = li.repartition(nparts).join(
        ord_cust.select_columns(["o_orderkey", "o_year"]).repartition(nparts),
        "inner",
        num_partitions=nparts,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return pa.table(
                {"o_year": pa.array([], pa.int64()),
                 "num": pa.array([], pa.float64()),
                 "den": pa.array([], pa.float64())}
            )
        year = np.asarray(b["o_year"], np.int64)
        rev = np.asarray(b["rev"], np.float64)
        tgt = np.asarray(b["tgt"], bool)
        uy, inv = np.unique(year, return_inverse=True)
        den = np.bincount(inv, weights=rev, minlength=len(uy))
        num = np.bincount(inv, weights=rev * tgt, minlength=len(uy))
        return pa.table(
            {"o_year": pa.array(uy), "num": pa.array(num),
             "den": pa.array(den)}
        )

    agg = (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(Sum("num", alias_name="num"), Sum("den", alias_name="den"))
    )

    def finish(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return pa.table(
                {"o_year": pa.array([], pa.int64()),
                 "mkt_share": pa.array([], pa.float64())}
            )
        num = np.asarray(b["num"], np.float64)
        den = np.asarray(b["den"], np.float64)
        share = num / den
        share = np.sign(share) * np.floor(np.abs(share) * 1e6 + 0.5) / 1e6
        return pa.table(
            {"o_year": b["o_year"], "mkt_share": pa.array(share)}
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("o_year")


def sql_q8() -> str:
    return f"""
SELECT o_year,
       ROUND(SUM(CASE WHEN nation = '{Q8_NATION}' THEN volume ELSE 0.0 END)
             / SUM(volume) * 1e6) / 1e6 AS mkt_share
FROM (
    SELECT EXTRACT(year FROM o_orderdate)::BIGINT AS o_year,
           l_extendedprice * (1.0 - l_discount) AS volume,
           n2.n_name AS nation
    FROM part, supplier, lineitem, orders, customer, nation n1, nation n2,
         region
    WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
      AND l_orderkey = o_orderkey AND o_custkey = c_custkey
      AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
      AND r_name = '{Q8_REGION}' AND s_nationkey = n2.n_nationkey
      AND o_orderdate >= TIMESTAMP '{Q8_D0}'
      AND o_orderdate < TIMESTAMP '{Q8_D1}'
      AND p_type = '{Q8_PTYPE}') all_nations
GROUP BY o_year
ORDER BY o_year
"""


@query("q13_custdist", sql=lambda: sql_q13(), bench=True)
def q13_custdist(sf_dir: str) -> pa.Table:
    """TPC-H Q13 customer order-count distribution: per-batch custkey
    count partials -> hash aggregate -> per-batch count-of-count
    partials -> tiny groupby; the LEFT-JOIN zero bucket is recovered
    driver-final from the customer row count minus the customers seen
    with orders (no join at all)."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def partial(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_custkey"], np.int64)
        uk, cnt = np.unique(k, return_counts=True)
        return pa.table(
            {"o_custkey": pa.array(uk), "n": pa.array(cnt.astype(np.int64))}
        )

    per_cust = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("n", alias_name="c_count"))
    )

    def dist_partial(b: pa.Table) -> pa.Table:
        c = np.asarray(b["c_count"], np.int64)
        uc, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {"c_count": pa.array(uc),
             "custdist": pa.array(cnt.astype(np.int64))}
        )

    # c_count domain is bounded (orders per customer) — driver fold
    # (the q4/watermark finding: Ray aggregates cost ~1 s fixed on tiny
    # partial streams)
    distp = per_cust.map_batches(
        dist_partial, batch_format="pyarrow"
    ).to_pandas()
    dist = (
        distp.groupby("c_count", sort=False)["custdist"].sum().reset_index()
    )
    n_cust = pads.dataset(f"{sf_dir}/customer.parquet").count_rows()
    zero = n_cust - int(dist["custdist"].sum())
    if zero > 0:
        dist = pd.concat(
            [dist, pd.DataFrame({"c_count": [0], "custdist": [zero]})],
            ignore_index=True,
        )
    dist = dist.sort_values(
        ["custdist", "c_count"], ascending=[False, False]
    )
    return pa.table(
        {
            "c_count": pa.array(dist["c_count"].to_numpy(np.int64)),
            "custdist": pa.array(dist["custdist"].to_numpy(np.int64)),
        }
    )


def sql_q13() -> str:
    return """
SELECT c_count, COUNT(*) AS custdist
FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey) c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


@query("q15_top_supplier", sql=lambda: sql_q15())
def q15_top_supplier(sf_dir: str) -> pa.Table:
    """TPC-H Q15 top supplier: quarter-windowed revenue per supplier via
    combiner partials + hash aggregate (supplier cardinality), rounded
    2dp BEFORE the max on both sides, equal-to-max filter, driver-final
    name attach on the (usually single-row) winner set."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from .queries import round_half_away

    d0, d1 = _ts_us(Q15_D0), _ts_us(Q15_D1)
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        m = (ship >= d0) & (ship < d1)
        sup = np.asarray(b["l_suppkey"], np.int64)[m]
        rev = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            * (1.0 - np.asarray(b["l_discount"], np.float64)[m])
        )
        uk, inv = np.unique(sup, return_inverse=True)
        sums = np.bincount(inv, weights=rev, minlength=len(uk))
        return pa.table(
            {"s_suppkey": pa.array(uk), "rev": pa.array(sums)}
        )

    per_supp = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("rev", alias_name="total_revenue"))
        .map_batches(
            lambda b: round_half_away(b, ["total_revenue"], 2),
            batch_format="pyarrow",
        )
        .materialize()
    )
    mx = per_supp.aggregate(Max("total_revenue", alias_name="m"))["m"]
    win = per_supp.map_batches(
        lambda b: b.filter(pc.equal(b["total_revenue"], mx)),
        batch_format="pyarrow",
    ).to_pandas()
    names = pads.dataset(f"{sf_dir}/supplier.parquet").to_table(
        columns=["s_suppkey", "s_name"],
        filter=pads.field("s_suppkey").isin(win["s_suppkey"].tolist()),
    ).to_pandas()
    out = win.merge(names, on="s_suppkey").sort_values("s_suppkey")
    return pa.table(
        {
            "s_suppkey": pa.array(out["s_suppkey"].to_numpy(np.int64)),
            "s_name": pa.array(out["s_name"].tolist(), pa.string()),
            "total_revenue": pa.array(
                out["total_revenue"].to_numpy(np.float64)
            ),
        }
    )


def sql_q15() -> str:
    return f"""
WITH revenue AS (
    SELECT l_suppkey AS supplier_no,
           ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2
               AS total_revenue
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{Q15_D0}'
      AND l_shipdate < TIMESTAMP '{Q15_D1}'
    GROUP BY l_suppkey)
SELECT s_suppkey, s_name, total_revenue
FROM supplier, revenue
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT MAX(total_revenue) FROM revenue)
ORDER BY s_suppkey
"""


@query("q22_lapsed", sql=lambda: sql_q22())
def q22_lapsed(sf_dir: str):
    """TPC-H Q22 global-sales-opportunity, adapted to "lapsed"
    customers: above-average-balance customers in the target nations
    with NO order since ``Q22_CUTOFF`` (the schema keeps every customer
    active over its full span, so the classic no-orders-ever predicate
    is vacuous).  The average is one (sum, count) reduce broadcast as a
    scalar; the NOT EXISTS is the broadcast anti semi-join over the
    cutoff-filtered orders' distinct custkeys; per-nation (count, sum)
    combiners finish in a 6-row groupby."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..joins import semi_join
    from .queries import round_half_away

    cut = _ts_us(Q22_CUTOFF)
    nset = list(Q22_NATIONS)

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    ).map_batches(
        lambda b: b.filter(
            pa.array(np.isin(np.asarray(b["c_nationkey"], np.int64), nset))
        ),
        batch_format="pyarrow",
    ).materialize()

    pos = cust.map_batches(
        lambda b: pa.table(
            {
                "s": pa.array(
                    [float(
                        np.asarray(b["c_acctbal"], np.float64)[
                            np.asarray(b["c_acctbal"], np.float64) > 0.0
                        ].sum()
                    )]
                ),
                "n": pa.array(
                    [int((np.asarray(b["c_acctbal"], np.float64) > 0.0).sum())]
                ),
            }
        ),
        batch_format="pyarrow",
    ).aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
    avg = pos["s"] / pos["n"]

    rich = cust.map_batches(
        lambda b: b.filter(pc.greater(b["c_acctbal"], avg)),
        batch_format="pyarrow",
    )

    recent = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: b.select(["o_custkey"]).filter(
            pa.array(
                np.asarray(b["o_orderdate"]).astype("datetime64[us]")
                .view("int64") >= cut
            )
        ),
        batch_format="pyarrow",
    )
    lapsed = semi_join(rich, recent, on="c_custkey", right_on="o_custkey",
                       anti=True)

    def partial(b: pa.Table) -> pa.Table:
        k = np.asarray(b["c_nationkey"], np.int64)
        bal = np.asarray(b["c_acctbal"], np.float64)
        uk, inv = np.unique(k, return_inverse=True)
        return pa.table(
            {
                "cntrycode": pa.array(uk),
                "numcust": pa.array(
                    np.bincount(inv, minlength=len(uk)).astype(np.int64)
                ),
                "totacctbal": pa.array(
                    np.bincount(inv, weights=bal, minlength=len(uk))
                ),
            }
        )

    # cntrycode domain = nations — driver fold (q4/watermark finding)
    part = lapsed.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = (
        part.groupby("cntrycode", sort=True)[["numcust", "totacctbal"]]
        .sum()
        .reset_index()
    )
    out = pa.table(
        {
            "cntrycode": pa.array(agg["cntrycode"].to_numpy(np.int64)),
            "numcust": pa.array(agg["numcust"].to_numpy(np.int64)),
            "totacctbal": pa.array(agg["totacctbal"].to_numpy(np.float64)),
        }
    )
    return round_half_away(out, ["totacctbal"], 2)


def sql_q22() -> str:
    nlist = ", ".join(str(n) for n in Q22_NATIONS)
    return f"""
SELECT c_nationkey::BIGINT AS cntrycode, COUNT(*) AS numcust,
       ROUND(SUM(c_acctbal) * 1e2) / 1e2 AS totacctbal
FROM customer
WHERE c_nationkey IN ({nlist})
  AND c_acctbal > (SELECT SUM(c_acctbal) / COUNT(*) FROM customer
                   WHERE c_acctbal > 0.0 AND c_nationkey IN ({nlist}))
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '{Q22_CUTOFF}')
GROUP BY c_nationkey
ORDER BY cntrycode
"""


Q17_BRAND = "Brand#21"
Q17_FRAC = 0.2
Q17_YEARS = 7.0


@query("q17_small_qty", sql=lambda: sql_q17(), bench=True)
def q17_small_qty(sf_dir: str) -> pa.Table:
    """TPC-H Q17 small-quantity-order revenue (container filter dropped —
    the schema has no p_container): lineitems of one brand whose quantity
    is below ``Q17_FRAC`` x that part's average quantity.

    The correlated per-part average is EXACT-INTEGER on both sides
    (quantities are whole numbers, so sum/count is the same double in
    any summation order — the threshold comparison can never flip).
    Scale plan: per-part (sum, count) combiners -> part-cardinality hash
    aggregate, thresholds restricted to the brand's parts (1/25 of the
    dimension) before the broadcast; the lineitem rescan filters
    vectorized against the broadcast threshold lookup."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    brand_keys = np.asarray(part["p_partkey"], np.int64)[
        np.asarray(part["p_brand"].to_pylist(), dtype=object) == Q17_BRAND
    ]
    brand_set = frozenset(int(v) for v in brand_keys)

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def avg_partial(b: pa.Table) -> pa.Table:
        pk = np.asarray(b["l_partkey"], np.int64)
        m = np.isin(pk, list(brand_set))
        pk = pk[m]
        qty = np.asarray(b["l_quantity"], np.float64)[m]
        uk, inv = np.unique(pk, return_inverse=True)
        return pa.table(
            {
                "l_partkey": pa.array(uk),
                "s": pa.array(np.bincount(inv, weights=qty, minlength=len(uk))),
                "n": pa.array(
                    np.bincount(inv, minlength=len(uk)).astype(np.float64)
                ),
            }
        )

    # the threshold map is broadcast to workers afterwards, so the
    # per-part fold is driver-bound either way — fold the combiner
    # partials directly (q4/watermark finding; brand filter bounds the
    # domain at parts/brands)
    avgp = li.map_batches(avg_partial, batch_format="pyarrow").to_pandas()
    avg = (
        avgp.groupby("l_partkey", sort=False)[["s", "n"]].sum().reset_index()
    )
    if len(avg):
        thr_keys = avg["l_partkey"].to_numpy(np.int64)
        thr = Q17_FRAC * (
            avg["s"].to_numpy(np.float64) / avg["n"].to_numpy(np.float64)
        )
        o = np.argsort(thr_keys, kind="stable")
        ref = Broadcast((thr_keys[o], thr[o]))
    else:
        ref = Broadcast((np.zeros(0, np.int64), np.zeros(0)))

    def rev_partial(b: pa.Table) -> pa.Table:
        tk, tv = ref.get()
        pk = np.asarray(b["l_partkey"], np.int64)
        qty = np.asarray(b["l_quantity"], np.float64)
        ext = np.asarray(b["l_extendedprice"], np.float64)
        if not len(tk):
            return pa.table({"rev": pa.array([0.0])})
        pos = np.searchsorted(tk, pk)
        pos = np.minimum(pos, len(tk) - 1)
        hit = tk[pos] == pk
        keep = hit & (qty < np.where(hit, tv[pos], 0.0))
        return pa.table({"rev": pa.array([float(ext[keep].sum())])})

    total = float(
        li.map_batches(rev_partial, batch_format="pyarrow")
        .to_pandas()["rev"]
        .sum()
    )
    avg_yearly = _round_half_away_scalar(total / Q17_YEARS, 2)
    return pa.table({"avg_yearly": pa.array([avg_yearly])})


def sql_q17() -> str:
    return f"""
SELECT ROUND(SUM(l_extendedprice) / {Q17_YEARS} * 1e2) / 1e2 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = '{Q17_BRAND}'
  AND l_quantity < (SELECT {Q17_FRAC} * (SUM(l_quantity) / COUNT(*))
                    FROM lineitem l2 WHERE l2.l_partkey = p_partkey)
"""


Q21_STATUS = "F"
Q21_K = 10


@query("q21_waiting", sql=lambda: sql_q21())
def q21_waiting(sf_dir: str) -> pa.Table:
    """TPC-H Q21 suppliers-who-kept-orders-waiting, adapted to the
    schema's columns (no commit/receipt dates): in a finished
    multi-supplier order, the supplier whose line is the SOLE latest
    shipment "kept the order waiting".  Same nested-EXISTS shape as the
    reference query (exists another supplier; not exists another equally
    late supplier), resolved without any EXISTS join.

    Scale plan: the status-F orderkey set applies as a broadcast
    semi-join on the lineitem stream; ONE coarse orderkey-hash bucket
    shuffle co-locates each order's lines; the per-bucket kernel finds
    per-order max shipdate, distinct-supplier counts and sole-latest
    winners with two lexsort segment scans (no per-order Python); winner
    counts finish in a supplier-cardinality hash aggregate + coarse
    top-10; the order-bucket width is resolved from the cluster."""
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..cluster import resolve_num_buckets
    from ..joins import semi_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(
        lambda b: b.select(["o_orderkey"]).filter(
            pc.equal(b["o_orderstatus"], Q21_STATUS)
        ),
        batch_format="pyarrow",
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    lf = semi_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    nb = resolve_num_buckets(None)  # driver-resolved once, captured below

    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b["l_orderkey"], np.int64)
        return pa.table(
            {
                "k": pa.array(k),
                "s": pa.array(np.asarray(b["l_suppkey"], np.int64)),
                "us": pa.array(
                    np.asarray(b["l_shipdate"])
                    .astype("datetime64[us]")
                    .view("int64")
                ),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        k = np.asarray(t["k"], np.int64)
        s = np.asarray(t["s"], np.int64)
        us = np.asarray(t["us"], np.int64)
        first = np.zeros(len(k), dtype=bool)
        first[starts] = True
        mx = np.maximum.reduceat(us, starts)
        oid = np.cumsum(first) - 1  # dense order index per row
        # distinct suppliers per order: (k, s) sorted -> new-pair mask
        new_pair = np.concatenate(
            [[True], (k[1:] != k[:-1]) | (s[1:] != s[:-1])]
        )
        ns = np.bincount(oid[new_pair], minlength=len(starts))
        # rows attaining the order max shipdate
        at_max = us == mx[oid]
        pk, ps, po = k[at_max], s[at_max], oid[at_max]
        new_w = np.concatenate(
            [[True], (pk[1:] != pk[:-1]) | (ps[1:] != ps[:-1])]
        )
        pw, po_w = ps[new_w], po[new_w]
        nm = np.bincount(po_w, minlength=len(starts))
        # first (lowest suppkey) winner per order: rows are (k, s) sorted
        first_w = np.concatenate([[True], po_w[1:] != po_w[:-1]])
        win_o, win_s = po_w[first_w], pw[first_w]
        sole = (nm[win_o] == 1) & (ns[win_o] >= 2)
        winners = win_s[sole]
        uk, cnt = np.unique(winners, return_counts=True)
        return {"s_suppkey": uk, "numwait": cnt}

    counts = (
        segment_apply(
            lf.map_batches(tag, batch_format="pyarrow"),
            "k",
            kernel,
            pa.schema({"s_suppkey": pa.int64(), "numwait": pa.int64()}),
            order=("s",),
            num_buckets=nb,
        )
        .groupby("s_suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
        .to_pandas()
    )
    if not len(counts):
        return pa.table(
            {"s_suppkey": pa.array([], pa.int64()),
             "s_name": pa.array([], pa.string()),
             "numwait": pa.array([], pa.int64())}
        )
    counts = counts.sort_values(
        ["numwait", "s_suppkey"], ascending=[False, True]
    ).head(Q21_K)
    names = pads.dataset(f"{sf_dir}/supplier.parquet").to_table(
        columns=["s_suppkey", "s_name"],
        filter=pads.field("s_suppkey").isin(counts["s_suppkey"].tolist()),
    ).to_pandas()
    out = counts.merge(names, on="s_suppkey").sort_values(
        ["numwait", "s_suppkey"], ascending=[False, True]
    )
    return pa.table(
        {
            "s_suppkey": pa.array(out["s_suppkey"].to_numpy(np.int64)),
            "s_name": pa.array(out["s_name"].tolist(), pa.string()),
            "numwait": pa.array(out["numwait"].to_numpy(np.int64)),
        }
    )


def sql_q21() -> str:
    return f"""
WITH l AS (
  SELECT l_orderkey, l_suppkey, l_shipdate
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE o_orderstatus = '{Q21_STATUS}'),
agg AS (
  SELECT l_orderkey, MAX(l_shipdate) AS m,
         COUNT(DISTINCT l_suppkey) AS ns
  FROM l GROUP BY l_orderkey),
winners AS (
  SELECT a.l_orderkey, MIN(l.l_suppkey) AS s,
         COUNT(DISTINCT l.l_suppkey) AS nm
  FROM agg a JOIN l ON l.l_orderkey = a.l_orderkey AND l.l_shipdate = a.m
  WHERE a.ns >= 2 GROUP BY a.l_orderkey)
SELECT w.s AS s_suppkey, s_name, COUNT(*)::BIGINT AS numwait
FROM winners w JOIN supplier ON s_suppkey = w.s
WHERE w.nm = 1
GROUP BY w.s, s_name
ORDER BY numwait DESC, s_suppkey
LIMIT {Q21_K}
"""


# ---------------------------------------------------------------------------
# TPC-H completion wave: Q2 / Q9 / Q11 / Q12 / Q16 / Q20 adaptations.
# The schema has no partsupp table (and no l_shipmode / l_receiptdate), so
# each query keeps the REFERENCE SHAPE — correlated min subquery, profit
# rollup, HAVING vs a global scalar, late-line CASE counts, COUNT(DISTINCT)
# over a bridge, grouped-sum semi-join — with lineitem standing in for the
# part-supplier bridge and the Q4-style ship-lateness law standing in for
# receipt lateness.  All literals are shared with the sql_* twins.

Q2_SIZE = 15
Q2_TYPE = "STANDARD"
Q2_REGION = "EUROPE"

Q9_NAME_SUB = "red"       # p_name LIKE '%red%'
Q9_COST_FRAC = 0.5        # cost model: frac * p_retailprice * l_quantity

Q11_NATION = "NATION_7"
Q11_FRACTION = 0.001

Q12_D0, Q12_D1 = "1996-01-01", "1997-01-01"
Q12_LATE_DAYS = 45
Q12_HIGH = ("1-URGENT", "2-HIGH")

Q16_EXCL_BRAND = "Brand#5"
Q16_EXCL_TYPE = "PROMO"
Q16_SIZES = (1, 4, 9, 16, 25, 36, 49)

Q20_NAME_PREFIX = "red"   # p_name LIKE 'red%'
Q20_D0, Q20_D1 = "1996-01-01", "1997-01-01"
Q20_QTY_GT = 200.0
Q20_NATION = "NATION_3"


@query("q2_min_cost", sql=lambda: sql_q2())
def q2_min_cost(sf_dir: str, *, broadcast_limit: int = 2_000_000) -> pa.Table:
    """TPC-H Q2 minimum-cost supplier (adapted): for parts of one
    size/type, the cheapest observed unit price (l_extendedprice /
    l_quantity) among region suppliers, returning every (supplier, part)
    row achieving the per-part minimum.  The correlated MIN subquery
    becomes one hash aggregate over the doubly-filtered lineitem
    projection plus a broadcast min-map second pass — the filtered part
    set is parts/(sizes*types) and the achieving-rows output is bounded
    by it, so the min map is broadcast-scale by construction (a
    partitioned ``cluster.safe_join`` is the >2M-part fallback)."""
    import ray.data as rd
    from ray.data.aggregate import Min

    from .queries import round_half_away

    by_key, by_region = _nation_maps(sf_dir)
    region_key = {
        "AFRICA": 0, "AMERICA": 1, "ASIA": 2, "EUROPE": 3, "MIDDLE EAST": 4,
    }[Q2_REGION]
    region_nations = by_region[region_key]

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_size", "p_type"]
    )
    pk = np.asarray(part["p_partkey"], np.int64)
    keep = (
        (np.asarray(part["p_size"], np.int64) == Q2_SIZE)
        & (np.asarray(part["p_type"].to_pylist(), dtype=object) == Q2_TYPE)
    )
    part_keys = np.sort(pk[keep])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet")
    sk = np.asarray(supp["s_suppkey"], np.int64)
    sn = np.asarray(supp["s_nationkey"], np.int64)
    in_region = np.isin(sn, list(region_nations))
    supp_keys = np.sort(sk[in_region])
    ref = Broadcast((part_keys, supp_keys))

    def project(b: pa.Table) -> pa.Table:
        pks, sks = ref.get()
        lp = np.asarray(b["l_partkey"], np.int64)
        ls = np.asarray(b["l_suppkey"], np.int64)
        m = np.zeros(len(lp), dtype=bool)
        if len(pks) and len(sks):
            pi = np.searchsorted(pks, lp)
            pi = np.minimum(pi, len(pks) - 1)
            si = np.searchsorted(sks, ls)
            si = np.minimum(si, len(sks) - 1)
            m = (pks[pi] == lp) & (sks[si] == ls)
        unit = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            / np.asarray(b["l_quantity"], np.float64)[m]
        )
        return pa.table(
            {
                "p_partkey": pa.array(lp[m]),
                "s_suppkey": pa.array(ls[m]),
                "unit": pa.array(unit),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    ).map_batches(project, batch_format="pyarrow")

    mins_ds = li.groupby("p_partkey").aggregate(
        Min("unit", alias_name="mn")
    ).materialize()
    if mins_ds.count() <= broadcast_limit:
        # min map bounded by the filtered part count (parts/300): broadcast
        mins = mins_ds.to_pandas()
        mk = mins["p_partkey"].to_numpy(np.int64)
        mo = np.argsort(mk, kind="stable")
        mref = Broadcast((mk[mo], mins["mn"].to_numpy(np.float64)[mo]))

        def achieving(b: pa.Table) -> pa.Table:
            keys, mn = mref.get()
            lp = np.asarray(b["p_partkey"], np.int64)
            unit = np.asarray(b["unit"], np.float64)
            m = np.zeros(len(lp), dtype=bool)
            if len(keys):
                pi = np.searchsorted(keys, lp)
                pi = np.minimum(pi, len(keys) - 1)
                m = (keys[pi] == lp) & (unit == mn[pi])  # exact: min of these
            # distinct (part, supp) partial — unit is determined by part,
            # carried along so the driver never needs the global min map
            k, first = np.unique(
                lp[m] * (1 << 31) + np.asarray(b["s_suppkey"], np.int64)[m],
                return_index=True,
            )
            return pa.table(
                {"k": pa.array(k), "unit": pa.array(unit[m][first])}
            )

        ach = li.map_batches(achieving, batch_format="pyarrow")
    else:
        # >2M filtered parts: partitioned join back onto the projection
        from ..cluster import default_num_partitions, safe_join

        nparts = default_num_partitions()

        def achieving_j(b: pa.Table) -> pa.Table:
            if b.num_columns == 0 or b.num_rows == 0:
                return pa.table(
                    {"k": pa.array([], pa.int64()),
                     "unit": pa.array([], pa.float64())}
                )
            unit = np.asarray(b["unit"], np.float64)
            m = unit == np.asarray(b["mn"], np.float64)
            lp = np.asarray(b["p_partkey"], np.int64)[m]
            k, first = np.unique(
                lp * (1 << 31) + np.asarray(b["s_suppkey"], np.int64)[m],
                return_index=True,
            )
            return pa.table(
                {"k": pa.array(k), "unit": pa.array(unit[m][first])}
            )

        ach = safe_join(
            li.repartition(nparts),
            mins_ds.map_batches(
                lambda b: pa.table(
                    {
                        "mp": pc.cast(b["p_partkey"], pa.int64()),
                        "mn": pc.cast(b["mn"], pa.float64()),
                    }
                ),
                batch_format="pyarrow",
            ),
            "inner",
            num_partitions=nparts,
            on=("p_partkey",),
            right_on=("mp",),
            right_schema=pa.schema([("mp", pa.int64()), ("mn", pa.float64())]),
        ).map_batches(achieving_j, batch_format="pyarrow")

    kt = pa.concat_tables(
        ach.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    kall = np.asarray(kt["k"], np.int64)
    uall = np.asarray(kt["unit"], np.float64)
    k, first = np.unique(kall, return_index=True)
    unit = uall[first]
    ppk = k >> 31
    ssk = k & ((1 << 31) - 1)
    # driver attach: supplier + nation are dimension tables
    sorder = np.argsort(sk, kind="stable")
    sk_s, so = sk[sorder], sorder
    si = np.searchsorted(sk_s, ssk)
    si = np.minimum(si, max(len(sk_s) - 1, 0))
    names = np.asarray(supp["s_name"].to_pylist(), dtype=object)
    bals = np.asarray(supp["s_acctbal"], np.float64)
    nats = sn
    s_name = names[so][si]
    s_bal = bals[so][si]
    n_name = np.asarray(
        [by_key[int(v)] for v in nats[so][si]], dtype=object
    ) if len(si) else np.asarray([], dtype=object)
    out = pa.table(
        {
            "s_acctbal": pa.array(s_bal, pa.float64()),
            "s_name": pa.array(list(s_name), pa.string()),
            "n_name": pa.array(list(n_name), pa.string()),
            "p_partkey": pa.array(ppk),
            "unit_cost": pa.array(unit, pa.float64()),
        }
    )
    return round_half_away(out, ["unit_cost"], 6)


def sql_q2() -> str:
    return f"""
WITH f AS (
  SELECT l_partkey, l_suppkey, l_extendedprice / l_quantity AS unit
  FROM lineitem
  JOIN part ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON s_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE p_size = {Q2_SIZE} AND p_type = '{Q2_TYPE}'
    AND r_name = '{Q2_REGION}'),
m AS (SELECT l_partkey, MIN(unit) AS mn FROM f GROUP BY l_partkey)
SELECT DISTINCT s_acctbal, s_name, n_name, f.l_partkey AS p_partkey,
       ROUND(f.unit * 1e6) / 1e6 AS unit_cost
FROM f
JOIN m ON f.l_partkey = m.l_partkey AND f.unit = m.mn
JOIN supplier ON s_suppkey = f.l_suppkey
JOIN nation ON s_nationkey = n_nationkey
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
"""


@query("q9_profit", sql=lambda: sql_q9(), bench=True)
def q9_profit(sf_dir: str):
    """TPC-H Q9 product-type profit (adapted): for parts whose name
    contains ``Q9_NAME_SUB``, profit = revenue minus a retail-price cost
    model (no partsupp table), rolled up by supplier nation and order
    year.  Part cost and supplier nation ride broadcast sorted lookups
    inside the lineitem scan; the order-year attach follows the q7
    keeper-join gate (broadcast under 2M orders, partitioned
    ``safe_join`` above); the (nation, year) domain is tiny so partials
    pack into one int64 and the final groupby is nations x years."""
    import ray.data as rd
    from ..cluster import default_num_partitions
    from .queries import round_half_away

    by_key, _ = _nation_maps(sf_dir)
    s_ref = _supplier_nation_ref(sf_dir)
    nparts = default_num_partitions()

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_retailprice"]
    )
    names = part["p_name"].to_pylist()
    keep = np.fromiter(
        (Q9_NAME_SUB in (n or "") for n in names), dtype=bool, count=len(names)
    )
    pk = np.asarray(part["p_partkey"], np.int64)[keep]
    retail = np.asarray(part["p_retailprice"], np.float64)[keep]
    o = np.argsort(pk, kind="stable")
    p_ref = Broadcast((pk[o], retail[o]))

    def project(b: pa.Table) -> pa.Table:
        pks, pret = p_ref.get()
        sks, snat = s_ref.get()
        lp = np.asarray(b["l_partkey"], np.int64)
        m = np.zeros(len(lp), dtype=bool)
        pi = np.zeros(len(lp), dtype=np.int64)
        if len(pks):
            pi = np.minimum(np.searchsorted(pks, lp), len(pks) - 1)
            m = pks[pi] == lp
        ls = np.asarray(b["l_suppkey"], np.int64)[m]
        si = np.minimum(np.searchsorted(sks, ls), len(sks) - 1)
        nat = snat[si]
        amount = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            * (1.0 - np.asarray(b["l_discount"], np.float64)[m])
            - Q9_COST_FRAC
            * pret[pi[m]]
            * np.asarray(b["l_quantity"], np.float64)[m]
        )
        return pa.table(
            {
                "l_orderkey": pa.array(np.asarray(b["l_orderkey"], np.int64)[m]),
                "nat": pa.array(nat),
                "amount": pa.array(amount),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey",
            "l_extendedprice", "l_discount", "l_quantity",
        ],
    ).map_batches(project, batch_format="pyarrow")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
                "o_year": pa.array(
                    np.asarray(b["o_orderdate"])
                    .astype("datetime64[Y]")
                    .astype(np.int64) + 1970
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    if orders.count() <= 2_000_000:
        from ..joins import lookup_join

        dim = pa.concat_tables(
            orders.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        j = lookup_join(
            li, dim, on="l_orderkey", key="o_orderkey", value_cols=["o_year"]
        )
    else:
        from ..cluster import safe_join

        j = safe_join(
            li.repartition(nparts),
            orders,
            "inner",
            num_partitions=nparts,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
            left_schema=pa.schema(
                [("l_orderkey", pa.int64()), ("nat", pa.int64()),
                 ("amount", pa.float64())]
            ),
        )

    def partial(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return pa.table(
                {"nat": pa.array([], pa.int64()),
                 "o_year": pa.array([], pa.int64()),
                 "amount": pa.array([], pa.float64())}
            )
        nat = np.asarray(b["nat"], np.int64)
        year = np.asarray(b["o_year"], np.int64)
        amt = np.asarray(b["amount"], np.float64)
        packed = nat * 4096 + (year - 1970)
        uk, inv = np.unique(packed, return_inverse=True)
        sums = np.bincount(inv, weights=amt, minlength=len(uk))
        return pa.table(
            {
                "nat": pa.array(uk // 4096),
                "o_year": pa.array(uk % 4096 + 1970),
                "amount": pa.array(sums),
            }
        )

    # nations x years partials — driver fold (the q4/watermark finding:
    # a Ray aggregate pays ~1 s fixed overhead on tiny inputs)
    part = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = (
        part.groupby(["nat", "o_year"], sort=False)["amount"]
        .sum()
        .reset_index()
        .rename(columns={"amount": "sum_profit"})
    )
    if not len(agg):
        return pa.table(
            {"nation": pa.array([], pa.string()),
             "o_year": pa.array([], pa.int64()),
             "sum_profit": pa.array([], pa.float64())}
        )
    agg["nation"] = [by_key[int(v)] for v in agg["nat"].to_numpy(np.int64)]
    agg = agg.sort_values(["nation", "o_year"], ascending=[True, False])
    out = pa.table(
        {
            "nation": pa.array(agg["nation"].tolist(), pa.string()),
            "o_year": pa.array(agg["o_year"].to_numpy(np.int64)),
            "sum_profit": pa.array(agg["sum_profit"].to_numpy(np.float64)),
        }
    )
    return round_half_away(out, ["sum_profit"], 2)


def sql_q9() -> str:
    return f"""
SELECT n_name AS nation,
       EXTRACT(year FROM o_orderdate)::BIGINT AS o_year,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)
                 - {Q9_COST_FRAC}::DOUBLE * p_retailprice * l_quantity)
             * 1e2) / 1e2 AS sum_profit
FROM lineitem
JOIN orders ON o_orderkey = l_orderkey
JOIN part ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE p_name LIKE '%{Q9_NAME_SUB}%'
GROUP BY n_name, EXTRACT(year FROM o_orderdate)
ORDER BY n_name, o_year DESC
"""


@query("q11_important", sql=lambda: sql_q11())
def q11_important_parts(sf_dir: str):
    """TPC-H Q11 important stock (adapted): per-part inventory value
    from one nation's suppliers — value = SUM(l_extendedprice *
    (1 - l_discount)) over the nation-filtered lineitem stream — kept
    where it exceeds ``Q11_FRACTION`` of the global total.  The HAVING
    vs a global scalar is a two-phase plan: per-part hash aggregate
    (int-key, vectorized), a one-row total reduce over the SAME partial
    stream, then a broadcast-scalar filter.  Output is bounded above by
    1/fraction rows regardless of corpus size, so the final attach is
    driver-scale by construction."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import round_half_away

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    nkey = {v: k for k, v in zip(nat["n_nationkey"], nat["n_name"])}[Q11_NATION]
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sset = np.sort(
        np.asarray(supp["s_suppkey"], np.int64)[
            np.asarray(supp["s_nationkey"], np.int64) == nkey
        ]
    )
    ref = Broadcast(sset)

    def partial(b: pa.Table) -> pa.Table:
        sks = ref.get()
        ls = np.asarray(b["l_suppkey"], np.int64)
        m = np.zeros(len(ls), dtype=bool)
        if len(sks):
            si = np.minimum(np.searchsorted(sks, ls), len(sks) - 1)
            m = sks[si] == ls
        lp = np.asarray(b["l_partkey"], np.int64)[m]
        val = (
            np.asarray(b["l_extendedprice"], np.float64)[m]
            * (1.0 - np.asarray(b["l_discount"], np.float64)[m])
        )
        uk, inv = np.unique(lp, return_inverse=True)
        sums = np.bincount(inv, weights=val, minlength=len(uk))
        return pa.table(
            {
                "p_partkey": pa.array(uk, pa.int64()),
                "value": pa.array(sums.astype(np.float64), pa.float64()),
            }
        )

    partials = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow").materialize()

    total = partials.sum("value") or 0.0
    thr = _round_half_away_scalar(Q11_FRACTION * float(total), 2)

    per_part = partials.groupby("p_partkey").aggregate(
        Sum("value", alias_name="value")
    )

    def keep(b: pa.Table) -> pa.Table:
        v = np.asarray(b["value"], np.float64)
        vr = np.sign(v) * np.floor(np.abs(v) * 1e2 + 0.5) / 1e2
        m = vr > thr
        return pa.table(
            {
                "p_partkey": pa.array(np.asarray(b["p_partkey"], np.int64)[m]),
                "value": pa.array(vr[m]),
            }
        )

    out = per_part.map_batches(keep, batch_format="pyarrow").to_pandas()
    if not len(out):
        return pa.table(
            {"p_partkey": pa.array([], pa.int64()),
             "value": pa.array([], pa.float64())}
        )
    out = out.sort_values(["value", "p_partkey"], ascending=[False, True])
    return pa.table(
        {
            "p_partkey": pa.array(out["p_partkey"].to_numpy(np.int64)),
            "value": pa.array(out["value"].to_numpy(np.float64)),
        }
    )


def sql_q11() -> str:
    return f"""
WITH f AS (
  SELECT l_partkey, l_extendedprice * (1.0 - l_discount) AS v
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  WHERE n_name = '{Q11_NATION}')
SELECT l_partkey AS p_partkey,
       ROUND(SUM(v) * 1e2) / 1e2 AS value
FROM f
GROUP BY l_partkey
HAVING ROUND(SUM(v) * 1e2) / 1e2 >
       ROUND((SELECT SUM(v) FROM f) * {Q11_FRACTION}::DOUBLE * 1e2) / 1e2
ORDER BY value DESC, p_partkey
"""


@query("q12_late_priority", sql=lambda: sql_q12(), bench=True)
def q12_late_priority(sf_dir: str):
    """TPC-H Q12 shipping-priority audit (adapted): the schema has no
    l_shipmode / l_receiptdate, so the group key is l_returnflag and the
    lateness law is the Q4-style ship-vs-order-date gap.  Lines shipped
    inside the window whose ship date trails the order date by more than
    ``Q12_LATE_DAYS`` are counted per return flag, split into
    high-priority (URGENT/HIGH) and low-priority orders — the classic
    fact x fact join with a CASE rollup.  Orders attach via the q7
    keeper gate; the group domain is 3 flags x 2, so partials collapse
    per batch and the final groupby is tiny."""
    import ray.data as rd
    from ..cluster import default_num_partitions
    from .queries import round_half_away  # noqa: F401 (house import)

    d0, d1 = _ts_us(Q12_D0), _ts_us(Q12_D1)
    late_us = Q12_LATE_DAYS * _US_PER_DAY
    nparts = default_num_partitions()

    def li_project(b: pa.Table) -> pa.Table:
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        m = (ship >= d0) & (ship < d1)
        return pa.table(
            {
                "l_orderkey": pa.array(np.asarray(b["l_orderkey"], np.int64)[m]),
                "l_returnflag": pc.cast(
                    pa.array(
                        np.asarray(b["l_returnflag"].to_pylist(), dtype=object)[m]
                    ),
                    pa.string(),
                ),
                "ship_us": pa.array(ship[m]),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
    ).map_batches(li_project, batch_format="pyarrow")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
                "odate_us": pa.array(
                    np.asarray(b["o_orderdate"])
                    .astype("datetime64[us]")
                    .view("int64")
                ),
                "is_high": pa.array(
                    np.isin(
                        np.asarray(b["o_orderpriority"].to_pylist(), dtype=object),
                        list(Q12_HIGH),
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    if orders.count() <= 2_000_000:
        from ..joins import lookup_join

        dim = pa.concat_tables(
            orders.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        j = lookup_join(
            li, dim, on="l_orderkey", key="o_orderkey",
            value_cols=["odate_us", "is_high"],
        )
    else:
        from ..cluster import safe_join

        j = safe_join(
            li.repartition(nparts),
            orders,
            "inner",
            num_partitions=nparts,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
            left_schema="auto",
        )

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"l_returnflag": pa.array([], pa.string()),
             "high_line_count": pa.array([], pa.int64()),
             "low_line_count": pa.array([], pa.int64())}
        )
        if b.num_columns == 0 or b.num_rows == 0:
            return empty
        ship = np.asarray(b["ship_us"], np.int64)
        odate = np.asarray(b["odate_us"], np.int64)
        m = ship >= odate + late_us
        if not m.any():
            return empty
        flags = np.asarray(b["l_returnflag"].to_pylist(), dtype=object)[m]
        hi = np.asarray(b["is_high"], np.int64)[m]
        uf, inv = np.unique(flags, return_inverse=True)
        high = np.bincount(inv, weights=hi, minlength=len(uf)).astype(np.int64)
        low = np.bincount(inv, weights=1 - hi, minlength=len(uf)).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": pa.array(list(uf), pa.string()),
                "high_line_count": pa.array(high),
                "low_line_count": pa.array(low),
            }
        )

    # 3-flag partials — driver fold (the q4/watermark finding)
    part = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = (
        part.groupby("l_returnflag", sort=True)[
            ["high_line_count", "low_line_count"]
        ]
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "l_returnflag": pa.array(agg["l_returnflag"].tolist(), pa.string()),
            "high_line_count": pa.array(
                agg["high_line_count"].to_numpy(np.int64)
            ),
            "low_line_count": pa.array(
                agg["low_line_count"].to_numpy(np.int64)
            ),
        }
    )


def sql_q12() -> str:
    hi = ", ".join(f"'{p}'" for p in Q12_HIGH)
    return f"""
SELECT l_returnflag,
       SUM(CASE WHEN o_orderpriority IN ({hi}) THEN 1 ELSE 0 END)::BIGINT
           AS high_line_count,
       SUM(CASE WHEN o_orderpriority IN ({hi}) THEN 0 ELSE 1 END)::BIGINT
           AS low_line_count
FROM lineitem
JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '{Q12_D0}' AND l_shipdate < TIMESTAMP '{Q12_D1}'
  AND l_shipdate >= o_orderdate + INTERVAL {Q12_LATE_DAYS} DAY
GROUP BY l_returnflag
ORDER BY l_returnflag
"""


@query("q16_supplier_cnt", sql=lambda: sql_q16(), bench=True)
def q16_supplier_cnt(sf_dir: str):
    """TPC-H Q16 supplier-count by part attributes (adapted): lineitem
    is the part-supplier bridge (no partsupp), negative-balance
    suppliers stand in for the complaints exclusion.  COUNT(DISTINCT
    supplier) per (brand, type, size) runs as the packed-int distinct
    plan — per-batch ``np.unique`` partials on (partkey << 31 | suppkey)
    -> one coarse-bucket shuffle (``graph.distinct_int_pairs``) -> a
    broadcast part-attribute lookup and a bounded final groupby (the
    group domain is brands x types x sizes)."""
    import ray.data as rd
    from ..graph import distinct_int_pairs

    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    )
    brand = np.asarray(part["p_brand"].to_pylist(), dtype=object)
    ptype = np.asarray(part["p_type"].to_pylist(), dtype=object)
    size = np.asarray(part["p_size"], np.int64)
    keep = (
        (brand != Q16_EXCL_BRAND)
        & (ptype != Q16_EXCL_TYPE)
        & np.isin(size, list(Q16_SIZES))
    )
    pk = np.asarray(part["p_partkey"], np.int64)[keep]
    o = np.argsort(pk, kind="stable")
    pk = pk[o]
    # dense TRIPLE id per filtered part: the distinct must run at the
    # (triple, supplier) grain — two parts sharing (brand, type, size)
    # count a common supplier ONCE (COUNT(DISTINCT) law)
    triple_key = np.asarray(
        [f"{b}\x00{t}\x00{s}" for b, t, s in
         zip(brand[keep][o], ptype[keep][o], size[keep][o])],
        dtype=object,
    )
    uniq_triples, tid_of_part = np.unique(triple_key, return_inverse=True)
    t_brand = np.asarray([k.split("\x00")[0] for k in uniq_triples], dtype=object)
    t_type = np.asarray([k.split("\x00")[1] for k in uniq_triples], dtype=object)
    t_size = np.asarray([int(k.split("\x00")[2]) for k in uniq_triples], np.int64)
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    )
    bad = np.sort(
        np.asarray(supp["s_suppkey"], np.int64)[
            np.asarray(supp["s_acctbal"], np.float64) < 0.0
        ]
    )
    ref = Broadcast((pk, tid_of_part.astype(np.int64), bad))

    def project(b: pa.Table) -> pa.Table:
        pks, tids, badk = ref.get()
        lp = np.asarray(b["l_partkey"], np.int64)
        ls = np.asarray(b["l_suppkey"], np.int64)
        m = np.zeros(len(lp), dtype=bool)
        pi = np.zeros(len(lp), dtype=np.int64)
        if len(pks):
            pi = np.minimum(np.searchsorted(pks, lp), len(pks) - 1)
            m = pks[pi] == lp
        if len(badk):
            bi = np.minimum(np.searchsorted(badk, ls), len(badk) - 1)
            m &= badk[bi] != ls
        return pa.table(
            {"tid": pa.array(tids[pi[m]]), "s_suppkey": pa.array(ls[m])}
        )

    pairs = distinct_int_pairs(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
        ).map_batches(project, batch_format="pyarrow"),
        "tid",
        "s_suppkey",
    )

    def cnt_partial(b: pa.Table) -> pa.Table:
        t = np.asarray(b["tid"], np.int64)
        if not len(t):
            return pa.table(
                {"tid": pa.array([], pa.int64()),
                 "supplier_cnt": pa.array([], pa.int64())}
            )
        uk, inv = np.unique(t, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uk)).astype(np.int64)
        return pa.table({"tid": pa.array(uk), "supplier_cnt": pa.array(cnt)})

    # triple-domain partials — driver fold (the q4/watermark finding)
    part = pairs.map_batches(cnt_partial, batch_format="pyarrow").to_pandas()
    agg = (
        part.groupby("tid", sort=False)["supplier_cnt"].sum().reset_index()
    )
    if not len(agg):
        return pa.table(
            {"p_brand": pa.array([], pa.string()),
             "p_type": pa.array([], pa.string()),
             "p_size": pa.array([], pa.int64()),
             "supplier_cnt": pa.array([], pa.int64())}
        )
    gi = agg["tid"].to_numpy(np.int64)
    g = pd.DataFrame(
        {
            "p_brand": t_brand[gi],
            "p_type": t_type[gi],
            "p_size": t_size[gi],
            "supplier_cnt": agg["supplier_cnt"].to_numpy(np.int64),
        }
    ).sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True],
    )
    return pa.table(
        {
            "p_brand": pa.array(g["p_brand"].tolist(), pa.string()),
            "p_type": pa.array(g["p_type"].tolist(), pa.string()),
            "p_size": pa.array(g["p_size"].to_numpy(np.int64)),
            "supplier_cnt": pa.array(g["supplier_cnt"].to_numpy(np.int64)),
        }
    )


def sql_q16() -> str:
    sizes = ", ".join(str(s) for s in Q16_SIZES)
    return f"""
SELECT p_brand, p_type, p_size::BIGINT AS p_size,
       COUNT(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
FROM lineitem
JOIN part ON p_partkey = l_partkey
WHERE p_brand <> '{Q16_EXCL_BRAND}'
  AND p_type <> '{Q16_EXCL_TYPE}'
  AND p_size IN ({sizes})
  AND l_suppkey NOT IN (
        SELECT s_suppkey FROM supplier WHERE s_acctbal < 0.0)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


@query("q20_excess", sql=lambda: sql_q20())
def q20_excess(sf_dir: str):
    """TPC-H Q20 excess-stock suppliers (adapted): suppliers from one
    nation whose shipped quantity of name-prefixed parts inside the
    window exceeds ``Q20_QTY_GT`` (the availqty > half-shipped law,
    inverted to the observable side of the missing partsupp).  One
    broadcast-filtered scan -> per-supplier packed partial sums -> hash
    aggregate -> threshold filter; the supplier dimension attaches on
    the driver (the output is bounded by the supplier table)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import round_half_away

    d0, d1 = _ts_us(Q20_D0), _ts_us(Q20_D1)
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    nkey = {v: k for k, v in zip(nat["n_nationkey"], nat["n_name"])}[Q20_NATION]
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    names = part["p_name"].to_pylist()
    keep = np.fromiter(
        ((n or "").startswith(Q20_NAME_PREFIX) for n in names),
        dtype=bool, count=len(names),
    )
    pk = np.sort(np.asarray(part["p_partkey"], np.int64)[keep])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet")
    sk = np.asarray(supp["s_suppkey"], np.int64)
    in_nat = np.sort(
        sk[np.asarray(supp["s_nationkey"], np.int64) == nkey]
    )
    ref = Broadcast((pk, in_nat))

    def partial(b: pa.Table) -> pa.Table:
        pks, sks = ref.get()
        ship = np.asarray(b["l_shipdate"]).astype("datetime64[us]").view("int64")
        lp = np.asarray(b["l_partkey"], np.int64)
        ls = np.asarray(b["l_suppkey"], np.int64)
        m = (ship >= d0) & (ship < d1)
        if len(pks):
            pi = np.minimum(np.searchsorted(pks, lp), len(pks) - 1)
            m &= pks[pi] == lp
        else:
            m[:] = False
        if len(sks):
            si = np.minimum(np.searchsorted(sks, ls), len(sks) - 1)
            m &= sks[si] == ls
        else:
            m[:] = False
        qty = np.asarray(b["l_quantity"], np.float64)[m]
        uk, inv = np.unique(ls[m], return_inverse=True)
        sums = np.bincount(inv, weights=qty, minlength=len(uk))
        return pa.table(
            {
                "s_suppkey": pa.array(uk, pa.int64()),
                "qty": pa.array(sums.astype(np.float64), pa.float64()),
            }
        )

    agg = (
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_shipdate", "l_quantity"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("qty", alias_name="qty"))
        .to_pandas()  # bounded by the supplier dimension
    )
    if len(agg):
        q = agg["qty"].to_numpy(np.float64)
        qr = np.sign(q) * np.floor(np.abs(q) * 1e2 + 0.5) / 1e2
        agg = agg.assign(qty=qr)[qr > Q20_QTY_GT]
    if not len(agg):
        return pa.table(
            {"s_suppkey": pa.array([], pa.int64()),
             "s_name": pa.array([], pa.string()),
             "qty": pa.array([], pa.float64())}
        )
    so = np.argsort(sk, kind="stable")
    ss = agg["s_suppkey"].to_numpy(np.int64)
    si = np.minimum(np.searchsorted(sk[so], ss), len(sk) - 1)
    nm = np.asarray(supp["s_name"].to_pylist(), dtype=object)[so][si]
    out = pd.DataFrame(
        {"s_suppkey": ss, "s_name": nm, "qty": agg["qty"].to_numpy(np.float64)}
    ).sort_values("s_name")
    return pa.table(
        {
            "s_suppkey": pa.array(out["s_suppkey"].to_numpy(np.int64)),
            "s_name": pa.array(out["s_name"].tolist(), pa.string()),
            "qty": pa.array(out["qty"].to_numpy(np.float64)),
        }
    )


def sql_q20() -> str:
    return f"""
SELECT s_suppkey, s_name, qty
FROM (
  SELECT l_suppkey AS s_suppkey,
         ROUND(SUM(l_quantity) * 1e2) / 1e2 AS qty
  FROM lineitem
  JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE '{Q20_NAME_PREFIX}%'
    AND l_shipdate >= TIMESTAMP '{Q20_D0}'
    AND l_shipdate < TIMESTAMP '{Q20_D1}'
  GROUP BY l_suppkey
  HAVING ROUND(SUM(l_quantity) * 1e2) / 1e2 > {Q20_QTY_GT}
) t
JOIN supplier USING (s_suppkey)
JOIN nation ON n_nationkey = s_nationkey
WHERE n_name = '{Q20_NATION}'
ORDER BY s_name
"""
