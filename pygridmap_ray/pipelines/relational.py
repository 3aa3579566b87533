"""Stream-shaped and relational demo pipelines over the testdata tables.

Ray Data has no event-time windows; stream-shaped workloads are
expressed per the guide: partition by key, sort by ts within the group,
window inside ``map_groups`` (ordering assumption documented per
function).  The relational pipelines demonstrate the two-phase
aggregation and broadcast-join patterns the engine uses everywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
    to_frame,
)
from pygridmap_ray.synth import KNUTH_MULT

from .registry import query

US_PER_HOUR = 3_600_000_000
US_SESSION_GAP = 1_800_000_000  # 30 min


@query("events_window", sql=lambda: sql_events_tumbling_window())
def events_tumbling_window(sf_dir: str):
    """Tumbling 1h window per event_type: count + value sum.

    window key computed vectorized in map_batches (epoch_us // 1h), then
    ONE small groupby — the canonical pre-keyed shuffle."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def key(batch: pa.Table) -> pa.Table:
        # normalize to microseconds regardless of source timestamp unit
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        win = pc.divide(us, pa.scalar(US_PER_HOUR))
        return batch.append_column("win", win).drop_columns(["ts"])

    keyed = ds.map_batches(key, batch_format="pyarrow")
    out = keyed.groupby(["event_type", "win"]).aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="value_sum")
    )

    def rounder(b: pa.Table) -> pa.Table:
        # sums over many rows: 2dp so the step dwarfs ulp(sum) x addends
        from .queries import round_half_away

        return round_half_away(b, ["value_sum"], 2)

    return out.map_batches(rounder, batch_format="pyarrow")


def sql_events_tumbling_window() -> str:
    return (
        "SELECT event_type, epoch_us(ts) // 3600000000 AS win, "
        "COUNT(*)::BIGINT AS n_events, "
        "ROUND(SUM(value) * 1e2) / 1e2 AS value_sum "
        "FROM events GROUP BY event_type, win"
    )


@query("events_sessionize", sql=lambda: sql_events_sessionize(), bench=True)
def events_sessionize(sf_dir: str, *, num_buckets: int | None = None):
    """Session windows (30-min inactivity gap) per user: one COARSE
    bucket shuffle on user hash (all of a user's events share a bucket),
    then a single vectorized scan per bucket — one lexsort over
    (user, ts, event_id), session starts where the user changes or the
    gap exceeds the threshold, per-user counts via ``np.add.reduceat``.
    Never a per-user group: a fine ``groupby(user_id).map_groups`` costs
    ~1 ms Python PER USER (the repo's documented rule), which at 10^8
    users is days; this plan's per-user cost is a few sorted-array ops."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        # normalize to microseconds (a ns-unit source would otherwise make
        # the 30-min gap constant mean 1.8 seconds)
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": us,
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        us = np.asarray(t["us"], np.int64)
        new_sess = np.diff(us, prepend=us[0]) > US_SESSION_GAP
        new_sess[starts] = True
        return {
            "user_id": np.asarray(t["user_id"], np.int64)[starts],
            "n_events": np.diff(np.append(starts, len(us))),
            "n_sessions": np.add.reduceat(new_sess.astype(np.int64), starts),
        }

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "n_events": pa.int64(),
             "n_sessions": pa.int64()}
        ),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_sessionize() -> str:
    return """
WITH marked AS (
  SELECT user_id,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000
                OR LAG(ts) OVER w IS NULL
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, COUNT(*)::BIGINT AS n_events,
       SUM(new_sess)::BIGINT AS n_sessions
FROM marked GROUP BY user_id
"""


@query("q1_pricing", sql=lambda: sql_q1_pricing())
def q1_pricing(sf_dir: str):
    """TPC-H Q1-style pricing summary with explicit two-phase
    aggregation: per-batch partial sums (combiner) -> tiny groupby."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["revenue"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False)
        out = g.agg(
            sum_qty=("l_quantity", "sum"),
            sum_price=("l_extendedprice", "sum"),
            revenue=("revenue", "sum"),
            n=("l_quantity", "size"),
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price", alias_name="sum_price"),
        Sum("revenue", alias_name="revenue"),
        Sum("n", alias_name="n"),
    )

    def rounder(b: pa.Table) -> pa.Table:
        # sums reach ~1e8 at higher sf: summation-order ulp noise (~1e-7)
        # would straddle a 1e-6 rounding step -> round money to 2 decimals
        from .queries import round_half_away

        return round_half_away(b, ["sum_qty", "sum_price", "revenue"], 2)

    return out.map_batches(rounder, batch_format="pyarrow")


def sql_q1_pricing() -> str:
    return """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity) * 1e2) / 1e2 AS sum_qty,
       ROUND(SUM(l_extendedprice) * 1e2) / 1e2 AS sum_price,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2 AS revenue,
       COUNT(*)::BIGINT AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


@query("top_customers", sql=lambda: sql_top_customers())
def top_customers(sf_dir: str, k: int = 10):
    """Broadcast hash join (orders x customer dimension) + grouped sum +
    global top-k (sort + limit): the small side ships via the object
    store once, never a shuffle join."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    )
    ref = Broadcast(cust, lambda t: t.to_pandas().set_index("c_custkey"))
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("o_custkey", sort=False)["o_totalprice"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("o_totalprice", alias_name="total_spent"))
    )

    def attach(batch: pa.Table) -> pa.Table:
        lut = ref.get()
        df = batch.to_pandas()
        joined = df.join(lut, on="o_custkey", how="inner")
        return pa.Table.from_pandas(joined, preserve_index=False)

    joined = agg.map_batches(attach, batch_format="pyarrow")
    out = joined.sort(["total_spent", "o_custkey"], descending=[True, False]).limit(k)

    def rounder(b: pa.Table) -> pa.Table:
        from .queries import round6

        return round6(b, ["total_spent"])

    return out.map_batches(rounder, batch_format="pyarrow")


def sql_top_customers(k: int = 10) -> str:
    return f"""
SELECT o_custkey, ROUND(SUM(o_totalprice) * 1e6) / 1e6 AS total_spent,
       ANY_VALUE(c_name) AS c_name, ANY_VALUE(c_mktsegment) AS c_mktsegment
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY o_custkey
ORDER BY SUM(o_totalprice) DESC, o_custkey ASC
LIMIT {k}
"""


@query("events_hopping", sql=lambda: sql_events_hopping_window())
def events_hopping_window(sf_dir: str, *, size_us: int = US_PER_HOUR,
                          hop_us: int = US_PER_HOUR // 4):
    """Hopping (sliding) window per event_type: 1 h windows every 15 min —
    each event belongs to exactly size/hop windows, materialized by a
    vectorized explode (repeat + arange) BEFORE the keyed groupby, so the
    shuffle carries (type, window) partials like the tumbling case.
    ``size_us`` must be a multiple of ``hop_us``."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    if size_us % hop_us:
        raise ValueError("size_us must be a multiple of hop_us")
    m = size_us // hop_us
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        us = np.asarray(
            pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        )
        # DuckDB // truncates toward zero; numpy floors — match the SQL
        # law for pre-1970 (negative-epoch) timestamps
        base = np.where(us >= 0, us // hop_us, -((-us) // hop_us))
        # hop index of the LAST window containing ts
        j = np.tile(np.arange(m, dtype=np.int64), n)
        win = (np.repeat(base, m) - j) * hop_us
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), m))
        return pa.table(
            {
                "event_type": batch["event_type"].combine_chunks().take(idx),
                "win": pa.array(win),
                "value": batch["value"].combine_chunks().take(idx),
            }
        )

    out = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["event_type", "win"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="value_sum"))
    )

    def rounder(b: pa.Table) -> pa.Table:
        from .queries import round_half_away

        return round_half_away(b, ["value_sum"], 2)

    return out.map_batches(rounder, batch_format="pyarrow")


def sql_events_hopping_window(size_us: int = US_PER_HOUR,
                              hop_us: int = US_PER_HOUR // 4) -> str:
    m = size_us // hop_us
    return f"""
SELECT event_type,
       (epoch_us(ts) // {hop_us} - j.j) * {hop_us} AS win,
       COUNT(*)::BIGINT AS n_events,
       ROUND(SUM(value) * 1e2) / 1e2 AS value_sum
FROM events, (SELECT UNNEST(generate_series(0, {m - 1})) AS j) j
GROUP BY event_type, win
"""


ROLL_WINDOW = 4  #: rolling frame = 3 PRECEDING .. CURRENT (shared with SQL)


@query("events_rolling", sql=lambda: sql_events_rolling(), bench=True)
def events_rolling(sf_dir: str):
    """Per-user moving sum/mean/min/max over the last ROLL_WINDOW events
    (stats.rolling_aggregate): ONE bucketed shuffle + vectorized
    prefix-sum sliding reductions, never per-key Python."""
    import ray.data as rd

    from ..stats import rolling_aggregate

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )
    return rolling_aggregate(
        ds,
        key_col="user_id",
        order_cols=("ts", "event_id"),
        value_col="value",
        window=ROLL_WINDOW,
    )


def sql_events_rolling() -> str:
    from ..stats import sql_rolling_aggregate

    return sql_rolling_aggregate(
        key_col="user_id",
        order_by="ts, event_id",
        value_col="value",
        window=ROLL_WINDOW,
        source="events",
        select="event_id, ts, user_id, value",
    )


FUNNEL_STAGES = ("view", "click", "purchase")
FUNNEL_MIN_VALUE = 100.0  # only high-value events advance the funnel


@query("events_funnel", sql=lambda: sql_events_funnel(), bench=True)
def events_funnel(sf_dir: str, stages: tuple[str, ...] = FUNNEL_STAGES,
                  min_value: float = FUNNEL_MIN_VALUE):
    """Ordered funnel progression per user: stage k is reached iff an
    event of type ``stages[k]`` occurs STRICTLY after the time stage k-1
    was reached (each stage takes its MINIMAL qualifying timestamp — the
    canonical funnel law).  Emits (user_id, stage) with stage in
    0..len(stages).

    One coarse-bucket shuffle on user hash; inside a bucket every stage
    resolves with pandas groupby-min over a filtered view — no per-user
    Python.  Strict '>' on both engine and SQL sides makes timestamp
    ties law-exact."""
    import ray.data as rd

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )
    # the qualifying-event predicate makes stages scarce (every user has
    # every type in the fixture; without it the funnel is degenerate)
    ev = ev.map_batches(
        lambda b: b.filter(pc.greater(b["value"], pa.scalar(min_value))),
        batch_format="pyarrow",
    )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        g = t.to_pandas()
        users = g["user_id"].to_numpy(dtype=np.int64)[starts]
        reached = pd.Series(
            np.zeros(len(users), dtype=np.int64), index=users
        )
        # stage-k gate time per user; NaT = stage not reached
        gate = pd.Series(pd.NaT, index=users, dtype="datetime64[us]")
        first = True
        for k, typ in enumerate(stages):
            sub = g[g["event_type"] == typ]
            if not first:
                gt = gate.reindex(sub["user_id"].to_numpy()).to_numpy()
                sub = sub[sub["ts"].to_numpy() > gt]  # NaT compares False
            t = sub.groupby("user_id", sort=False)["ts"].min()
            gate = pd.Series(pd.NaT, index=users, dtype="datetime64[us]")
            gate.loc[t.index] = t.to_numpy()
            reached.loc[t.index] = k + 1
            first = False
        return pd.DataFrame(
            {"user_id": users, "stage": reached.to_numpy()}
        )

    return segment_apply(
        ev, "user_id", kernel,
        pa.schema({"user_id": pa.int64(), "stage": pa.int64()}),
    )


def sql_events_funnel(stages: tuple[str, ...] = FUNNEL_STAGES,
                      min_value: float = FUNNEL_MIN_VALUE) -> str:
    """DuckDB twin of :func:`events_funnel` — same strict-> min law over
    the same qualifying-event predicate; the user universe is drawn from
    the FILTERED event set (users with no qualifying event do not
    appear), matching the engine."""
    ctes = [
        f"ee AS (SELECT user_id, ts, event_type FROM events "
        f"WHERE value > {min_value!r})",
        f"s1 AS (SELECT user_id, MIN(ts) AS t1 FROM ee "
        f"WHERE event_type = '{stages[0]}' GROUP BY user_id)",
    ]
    for k in range(1, len(stages)):
        ctes.append(
            f"s{k + 1} AS (SELECT e.user_id, MIN(e.ts) AS t{k + 1} "
            f"FROM ee e JOIN s{k} ON e.user_id = s{k}.user_id "
            f"WHERE e.event_type = '{stages[k]}' AND e.ts > s{k}.t{k} "
            f"GROUP BY e.user_id)"
        )
    joins = " ".join(
        f"LEFT JOIN s{k + 1} ON u.user_id = s{k + 1}.user_id"
        for k in range(len(stages))
    )
    case = "CASE "
    for k in range(len(stages), 0, -1):
        case += f"WHEN t{k} IS NOT NULL THEN {k} "
    case += "ELSE 0 END"
    return (
        "WITH " + ", ".join(ctes)
        + ", u AS (SELECT DISTINCT user_id FROM ee)"
        + f" SELECT u.user_id, ({case})::BIGINT AS stage FROM u {joins}"
    )


WEEK_US = 7 * 86_400 * 1_000_000


_WEEK_BITS = 16  # biased weeks fit 16 bits for years ~1656..2911
_WEEK_BIAS = 1 << 14  # pre-1970 timestamps give negative week ids


@query("events_retention", sql=lambda: sql_events_retention(), bench=True)
def events_retention(sf_dir: str, *, num_buckets: int | None = None):
    """Cohort retention: users bucketed by their FIRST event week; for
    every (cohort_week, event_week) the distinct active users — the
    standard week-over-week retention triangle.

    Plan (zero joins, zero fine groupbys): per-batch the (user, week)
    pairs collapse to their packed-int64 ``np.unique`` (user<<16 | week
    — the graph.distinct_int_pairs law), then ONE coarse shuffle on user
    hash co-locates each user's pairs; the bucket kernel derives the
    user's cohort (min week — exact, the user is whole in the bucket)
    and emits partial (cohort_week, week, n) counts; a final
    low-cardinality (weeks²-sized) groupby sums the partials.  The old
    plan's user→cohort hash join and per-(cohort,week,user) distinct
    groupby (~1 ms Python per group) are both gone.
    Integer week ids (epoch_us // WEEK_US) keep the law hash-exact."""
    import ray.data as rd

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def pack(b: pa.Table) -> pa.Table:
        ts = np.asarray(b["ts"]).astype("datetime64[us]").view(np.int64)
        # DuckDB's integer // TRUNCATES toward zero (verified: (-5)//7=0),
        # numpy's floors — match the SQL law explicitly for pre-1970 ts,
        # then bias so negative weeks pack cleanly (unpacked at emit)
        week = np.where(ts >= 0, ts // WEEK_US, -((-ts) // WEEK_US))
        week = week + _WEEK_BIAS
        uid = np.asarray(b["user_id"], dtype=np.int64)
        if len(week) and (
            week.min() < 0
            or week.max() >= (1 << _WEEK_BITS)
            or uid.min() < 0
            or uid.max() >= (1 << (63 - _WEEK_BITS))
        ):
            raise ValueError("user/week id out of packed range")
        k = np.unique((uid << _WEEK_BITS) | week)
        return pa.table({"user_id": pa.array(k >> _WEEK_BITS), "k": pa.array(k)})

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        # sorted by (user, week); a pair may repeat across batches
        k = np.asarray(t["k"], np.int64)
        week = k & ((1 << _WEEK_BITS) - 1)
        # each user's first row holds its min week
        cohort = np.repeat(week[starts], np.diff(np.append(starts, len(k))))
        first = np.append(True, k[1:] != k[:-1])
        cw = ((cohort << _WEEK_BITS) | week)[first]
        pairs, n = np.unique(cw, return_counts=True)
        return {
            "cohort_week": (pairs >> _WEEK_BITS) - _WEEK_BIAS,
            "week": (pairs & ((1 << _WEEK_BITS) - 1)) - _WEEK_BIAS,
            "n": n,
        }

    # weeks^2-sized partials (<= num_buckets x weeks^2 rows): a Ray
    # aggregate pays ~1 s fixed overhead on a driver-fold-sized input
    # (the events_watermark finding), so the finish folds on the driver
    schema = pa.schema({"cohort_week": pa.int64(), "week": pa.int64(), "n": pa.int64()})
    part = to_frame(segment_apply(
        ev.map_batches(pack, batch_format="pyarrow"), "user_id", kernel, schema,
        order=("k",), num_buckets=num_buckets,
    ), schema)
    agg = (
        part.groupby(["cohort_week", "week"], sort=True)["n"]
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "cohort_week": pa.array(agg["cohort_week"].to_numpy(np.int64)),
            "week": pa.array(agg["week"].to_numpy(np.int64)),
            "n_users": pa.array(agg["n"].to_numpy(np.int64)),
        }
    )


def sql_events_retention() -> str:
    """DuckDB twin of :func:`events_retention` (same integer week law)."""
    return f"""
WITH w AS (
  SELECT user_id, epoch_us(ts) // {WEEK_US} AS week FROM events
),
c AS (SELECT user_id, MIN(week) AS cohort_week FROM w GROUP BY user_id)
SELECT c.cohort_week, w.week, COUNT(DISTINCT w.user_id)::BIGINT AS n_users
FROM w JOIN c USING (user_id)
GROUP BY c.cohort_week, w.week
"""


@query("events_transitions", sql=lambda: sql_events_transitions(), bench=True)
def events_transitions(sf_dir: str, *, num_buckets: int | None = None):
    """Markov transition counts (event_type -> next event_type within a
    user's time-ordered stream): the sessionize plan — ONE coarse bucket
    shuffle on user hash, per-bucket lexsort over (user, ts, event_id),
    a vectorized shift compare, per-bucket pair-code partial counts —
    then the (src, dst) pairs (LOW-cardinality: event types squared)
    feed the one small built-in groupby.  Never a per-user group and the
    strings never shuffle twice: types are factorized per bucket."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": us,
                "event_type": pc.cast(b["event_type"], pa.string()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        uid = np.asarray(t["user_id"], np.int64)
        codes, cats = pd.factorize(
            np.asarray(t["event_type"], dtype=object), sort=True
        )
        same_user = uid[1:] == uid[:-1]
        pair = codes[:-1].astype(np.int64) * len(cats) + codes[1:]
        pk, pn = np.unique(pair[same_user], return_counts=True)
        return {
            "src": cats[(pk // len(cats))],
            "dst": cats[(pk % len(cats))],
            "n": pn,
        }

    return (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"src": pa.string(), "dst": pa.string(), "n": pa.int64()}),
            order=("us", "event_id"),
            num_buckets=num_buckets,
        )
        .groupby(["src", "dst"])
        .aggregate(Sum("n", alias_name="n"))
    )


def sql_events_transitions() -> str:
    return """
WITH seq AS (
  SELECT event_type AS src,
         LEAD(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS dst
  FROM events
)
SELECT src, dst, COUNT(*)::BIGINT AS n
FROM seq WHERE dst IS NOT NULL GROUP BY src, dst
"""


@query("events_ewma", sql=lambda: sql_events_ewma())
def events_ewma(sf_dir: str, *, num_buckets: int | None = None):
    """Per-user exponentially weighted mean of ``value`` over the
    time-ordered stream (normalized weights 0.5^k, k = age in events):
    the same single-coarse-shuffle plan as sessionize — bucket on user
    hash, one lexsort per bucket, a vectorized segment-aligned geometric
    weighting (no per-user Python).  alpha = 0.5 keeps every weight an
    exact binary power so the numpy and SQL laws agree bit-for-bit
    before the shared 6dp rounding."""
    import ray.data as rd

    from .queries import round_half_away

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": us,
                "value": pc.cast(b["value"], pa.float64()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        val = np.asarray(t["value"], np.float64)
        seg_len = np.diff(np.append(starts, len(val)))
        # k = age in events (0 = newest); position within segment
        pos = np.arange(len(val)) - np.repeat(starts, seg_len)
        k = np.repeat(seg_len, seg_len) - 1 - pos
        w = np.power(0.5, k.astype(np.float64))  # exact binary powers
        num = np.add.reduceat(val * w, starts)
        den = np.add.reduceat(w, starts)
        return {
            "user_id": np.asarray(t["user_id"], np.int64)[starts],
            "ewma": num / den,
        }

    out = segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema({"user_id": pa.int64(), "ewma": pa.float64()}),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )
    return out.map_batches(
        lambda b: round_half_away(b, ["ewma"], 6), batch_format="pyarrow"
    )


def sql_events_ewma() -> str:
    return """
WITH r AS (
  SELECT user_id, value,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) - 1 AS k
  FROM events
)
SELECT user_id,
       ROUND(SUM(value * POWER(0.5, k)) / SUM(POWER(0.5, k)) * 1e6) / 1e6
         AS ewma
FROM r GROUP BY user_id
"""


DAY_US = 86_400_000_000
ROLLING_DAYS = 7  #: trailing window width (shared with the SQL twin)


@query("events_rolling_users", sql=lambda: sql_events_rolling_users(), bench=True)
def events_rolling_users(sf_dir: str, *, num_buckets: int | None = None):
    """Rolling 7-day distinct active users per window-end day: an event
    on day d contributes to windows d..d+6, so the explode is the
    hopping-window repeat+arange (no self-join), and the distinct is the
    packed-int coarse dedup — per-batch ``np.unique`` partials, ONE
    coarse-bucket shuffle on the (window_day, user) hash, per-bucket
    unique, then only LOW-cardinality (day, partial-count) rows reach
    the built-in groupby.  Day uses the truncate-toward-zero law so the
    numpy and DuckDB ``//`` agree on pre-1970 timestamps."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )
    DOFF = np.int64(1) << 25  # day offset so packed keys stay positive

    def explode(b: pa.Table) -> pa.Table:
        us = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        )
        uid = np.asarray(b["user_id"], np.int64)
        day = np.where(us >= 0, us // DAY_US, -((-us) // DAY_US))
        # batch-local distinct (day, user) BEFORE the x7 explode
        k = np.unique((day + DOFF) * (np.int64(1) << 31) + uid)
        d0 = (k >> 31) - DOFF
        u0 = k & ((np.int64(1) << 31) - 1)
        j = np.tile(np.arange(ROLLING_DAYS, dtype=np.int64), len(k))
        wk = np.unique(
            (np.repeat(d0, ROLLING_DAYS) + j + DOFF) * (np.int64(1) << 31)
            + np.repeat(u0, ROLLING_DAYS)
        )
        return pa.table({"k": pa.array(wk)})

    def per_bucket(t: pa.Table, starts: np.ndarray) -> dict:
        day = (np.asarray(t["k"], np.int64)[starts] >> 31) - DOFF
        dval, dcnt = np.unique(day, return_counts=True)
        return {"wday": dval, "n": dcnt}

    return (
        segment_apply(
            ds.map_batches(explode, batch_format="pyarrow"),
            "k",
            per_bucket,
            pa.schema({"wday": pa.int64(), "n": pa.int64()}),
            num_buckets=num_buckets,
        )
        .groupby("wday")
        .aggregate(Sum("n", alias_name="n_users"))
    )


def sql_events_rolling_users() -> str:
    return f"""
WITH u AS (
  SELECT DISTINCT
    CASE WHEN epoch_us(ts) >= 0 THEN epoch_us(ts) // {DAY_US}
         ELSE -((-epoch_us(ts)) // {DAY_US}) END AS day,
    user_id
  FROM events
),
w AS (
  SELECT DISTINCT u.day + j.j AS wday, user_id
  FROM u, (SELECT UNNEST(generate_series(0, {ROLLING_DAYS - 1})) AS j) j
)
SELECT wday, COUNT(*)::BIGINT AS n_users FROM w GROUP BY wday
"""


@query("events_gap_fill", sql=lambda: sql_events_gap_fill())
def events_gap_fill(sf_dir: str, *, num_buckets: int | None = None):
    """Per-user daily resample with last-value carry-forward: one row
    per (user, day) over the user's own [min day, max day] span, value
    = latest event value at or before that day (ASOF semantics).  The
    sessionize plan again — ONE coarse bucket on user hash, then a
    single vectorized per-bucket pass: lexsort, per-(user, day) last
    value, per-user day grids via repeat+arange, ``searchsorted``
    carry-forward.  Day uses the truncate-toward-zero law."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        usv = np.asarray(us)
        day = np.where(usv >= 0, usv // DAY_US, -((-usv) // DAY_US))
        uid = np.asarray(b["user_id"], np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": us,
                "day": pa.array(day),
                "value": pc.cast(b["value"], pa.float64()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        day = np.asarray(t["day"], np.int64)
        val = np.asarray(t["value"], np.float64)
        # last row per (user, day): the latest (ts, event_id) wins
        last = np.concatenate(
            [(uid[1:] != uid[:-1]) | (day[1:] != day[:-1]), [True]]
        )
        lu, ld, lv = uid[last], day[last], val[last]
        # per-user day grids
        ustart = np.flatnonzero(
            np.concatenate([[True], lu[1:] != lu[:-1]])
        )
        uend = np.append(ustart[1:], len(lu))
        d0 = ld[ustart]
        d1 = ld[uend - 1]
        span = d1 - d0 + 1
        total = int(span.sum())
        gdoc = np.repeat(np.arange(len(ustart), dtype=np.int64), span)
        g0 = np.cumsum(span) - span
        gday = np.arange(total, dtype=np.int64) - g0[gdoc] + d0[gdoc]
        # carry-forward: latest (user, day) row <= each grid day — ONE
        # searchsorted over all users at once, each user's (sorted,
        # distinct) days offset into a disjoint int64 range
        base = ustart[gdoc]
        OFF = np.int64(1) << 22  # |day| < 2^21 for any epoch in range
        key_rows = ld + np.repeat(
            np.arange(len(ustart), dtype=np.int64), uend - ustart
        ) * OFF
        key_grid = gday + gdoc * OFF
        pos = np.searchsorted(key_rows, key_grid, side="right") - 1
        return pd.DataFrame(
            {
                "user_id": lu[base],
                "day": gday,
                "value": lv[pos],
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "day": pa.int64(), "value": pa.float64()}
        ),
        order=("day", "us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_gap_fill() -> str:
    return f"""
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         CASE WHEN epoch_us(ts) >= 0 THEN epoch_us(ts) // {DAY_US}
              ELSE -((-epoch_us(ts)) // {DAY_US}) END AS day,
         value
  FROM events
),
lastp AS (
  SELECT user_id, day, value FROM e
  QUALIFY ROW_NUMBER() OVER (
    PARTITION BY user_id, day ORDER BY us DESC, event_id DESC
  ) = 1
),
span AS (SELECT user_id, MIN(day) AS d0, MAX(day) AS d1 FROM e
         GROUP BY user_id),
grid AS (
  SELECT user_id, UNNEST(generate_series(d0, d1)) AS day FROM span
)
SELECT g.user_id, g.day, l.value
FROM grid g ASOF JOIN lastp l
  ON g.user_id = l.user_id AND g.day >= l.day
"""


@query("events_trajectory", sql=lambda: sql_events_trajectory(), bench=True)
def events_trajectory(sf_dir: str, *, num_buckets: int | None = None):
    """Per-user planar trajectory length: events ordered by (ts,
    event_id), each step contributes sqrt(dx*dx + dy*dy) over the
    synth point law applied to event_id.

    Scale shape: the sessionize/gap-fill plan — ONE coarse shuffle on
    the user-hash bucket, then a single vectorized per-bucket pass
    (lexsort, same-user step mask, ``np.add.reduceat``-style bincount
    segment sums).  Never a per-user group.  Output path_len rounded
    half-away to 2dp (sums of ~1e5-magnitude steps: the step dwarfs
    summation-order ulp noise on both sides).
    """
    import ray.data as rd

    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        uid = np.asarray(b["user_id"], np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        x = np.asarray(t["x"], np.float64)
        y = np.asarray(t["y"], np.float64)
        first = np.zeros(len(x), dtype=bool)
        first[starts] = True
        dx = np.diff(x)
        dy = np.diff(y)
        step = np.sqrt(dx * dx + dy * dy)
        # zero out steps that cross a user boundary
        step = np.where(first[1:], 0.0, step)
        inv = np.cumsum(first) - 1
        path = np.bincount(inv[1:], weights=step, minlength=len(starts))
        path = np.sign(path) * np.floor(np.abs(path) * 1e2 + 0.5) / 1e2
        return pd.DataFrame(
            {
                "user_id": np.asarray(t["user_id"], np.int64)[starts],
                "n_events": np.diff(np.append(starts, len(x))),
                "path_len": path,
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "n_events": pa.int64(),
             "path_len": pa.float64()}
        ),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_trajectory() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
d AS (
  SELECT user_id,
         x - LAG(x) OVER w AS dx,
         y - LAG(y) OVER w AS dy
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
)
SELECT user_id, COUNT(*)::BIGINT AS n_events,
       ROUND(COALESCE(SUM(sqrt(dx*dx + dy*dy)), 0.0) * 1e2) / 1e2 AS path_len
FROM d GROUP BY user_id
"""


def _od_flows(sf_dir: str, hex_size: float, num_buckets: int | None):
    """Users per (origin hex, destination hex) of their first and last
    event by (ts, event_id): one coarse user-hash exchange whose kernel
    emits partial (okey, dkey, n) counts, then a composite-key sum."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, hex_axial
    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        eid = np.asarray(t["event_id"], np.int64)
        ends = np.append(starts[1:], len(eid)) - 1
        ox, oy = derive_xy(eid[starts])
        dx, dy = derive_xy(eid[ends])
        okey = _pack(*hex_axial(ox, oy, hex_size))
        dkey = _pack(*hex_axial(dx, dy, hex_size))
        po = np.lexsort((dkey, okey))
        ok, dk = okey[po], dkey[po]
        bound = np.concatenate([[True], (ok[1:] != ok[:-1]) | (dk[1:] != dk[:-1])])
        s = np.flatnonzero(bound)
        n = np.diff(np.append(s, len(ok)))
        return pd.DataFrame({"okey": ok[s], "dkey": dk[s], "n": n})

    return (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"okey": pa.int64(), "dkey": pa.int64(), "n": pa.int64()}),
            order=("us", "event_id"),
            num_buckets=num_buckets,
        )
        .groupby(["okey", "dkey"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


def events_od_matrix(sf_dir: str, *, hex_size: float, num_buckets: int | None = None):
    """Origin-destination flow matrix over the hex lattice: each user's
    FIRST and LAST event (by ts, event_id) become origin/destination
    points (synth law on event_id), both ends are hex-indexed, and flows
    count users per (origin hex, destination hex) pair.

    Scale shape: ONE coarse user-hash bucket shuffle; the per-bucket
    kernel finds first/last rows with a single lexsort segment scan and
    emits (okey, dkey, n) partial counts; a tiny composite-key hash
    aggregate finishes.  Raw events never shuffle twice, never a
    per-user group."""

    from ..hex import _unpack

    agg = _od_flows(sf_dir, hex_size, num_buckets)

    def finish(b: pa.Table) -> pa.Table:
        oq, orr = _unpack(np.asarray(b["okey"], np.int64))
        dq, dr = _unpack(np.asarray(b["dkey"], np.int64))
        return pa.table(
            {
                "oq": pa.array(oq),
                "orr": pa.array(orr),
                "dq": pa.array(dq),
                "dr": pa.array(dr),
                "n_users": b["n_users"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_events_od_matrix(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts0 AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
fpts AS (
  SELECT user_id, x, y FROM pts0
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us, event_id) = 1
),
lpts AS (
  SELECT user_id, x, y FROM pts0
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us DESC, event_id DESC) = 1
),
{sql_hex_cte(hex_size, points_cte="fpts", prefix="f_")},
{sql_hex_cte(hex_size, points_cte="lpts", prefix="l_")}
SELECT f.hq AS oq, f.hr AS orr, l.hq AS dq, l.hr AS dr,
       COUNT(*)::BIGINT AS n_users
FROM f_hexed f JOIN l_hexed l ON f.user_id = l.user_id
GROUP BY f.hq, f.hr, l.hq, l.hr
"""


def events_hex_dwell(sf_dir: str, *, hex_size: float, num_buckets: int | None = None):
    """Longest same-hex dwell per user (gaps-and-islands): events in
    (ts, event_id) order, a run is a maximal stretch of consecutive
    events in the SAME hex cell; output each user's longest run length.

    Scale shape: one coarse user-hash bucket shuffle; the per-bucket
    kernel is a single lexsort + run-boundary mask + two bincounts
    (run lengths, then per-user max via ``np.maximum.at``) — the
    vectorized replacement for the SQL double-ROW_NUMBER islands trick.
    """
    import ray.data as rd

    from ..hex import _pack, hex_axial
    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        hkey = _pack(*hex_axial(x, y, hex_size))
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "hkey": pa.array(hkey),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        k = np.asarray(t["hkey"], np.int64)
        first = np.zeros(len(k), dtype=bool)
        first[starts] = True
        new_run = first | np.concatenate([[True], k[1:] != k[:-1]])
        run_len = np.bincount(np.cumsum(new_run) - 1)
        run_user = (np.cumsum(first) - 1)[new_run]
        longest = np.zeros(len(starts), dtype=np.int64)
        np.maximum.at(longest, run_user, run_len)
        return pd.DataFrame(
            {"user_id": np.asarray(t["user_id"], np.int64)[starts],
             "max_run": longest}
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema({"user_id": pa.int64(), "max_run": pa.int64()}),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_hex_dwell(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(hex_size)},
s AS (
  SELECT user_id,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us, event_id)
       - ROW_NUMBER() OVER (PARTITION BY user_id, hq, hr ORDER BY us, event_id)
         AS grp,
         hq, hr
  FROM hexed
),
runs AS (
  SELECT user_id, COUNT(*)::BIGINT AS len
  FROM s GROUP BY user_id, hq, hr, grp
)
SELECT user_id, MAX(len)::BIGINT AS max_run FROM runs GROUP BY user_id
"""


@query("step_bearings", sql=lambda: sql_events_step_bearings())
def events_step_bearings(sf_dir: str, *, num_buckets: int | None = None):
    """Global 8-sector travel-direction histogram: per-user consecutive
    steps (ts, event_id order), bearing = atan2(dy, dx) folded into 45°
    sectors.  Same one-coarse-bucket shuffle as the trajectory kernel;
    each bucket emits ONE 8-cell bincount partial.  Sector boundaries
    are irrational for the synth points, so libm atan2 ulps cannot flip
    a sector (measure-zero law, same footing as the haversine ops)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        same = uid[1:] == uid[:-1]
        dx = np.diff(np.asarray(t["x"], np.float64))[same]
        dy = np.diff(np.asarray(t["y"], np.float64))[same]
        deg = np.arctan2(dy, dx) * (180.0 / np.pi)
        sector = np.floor(((deg + 360.0) % 360.0) / 45.0).astype(np.int64)
        n = np.bincount(sector, minlength=8).astype(np.int64)
        return pd.DataFrame(
            {"sector": np.arange(8, dtype=np.int64), "n_steps": n}
        )

    agg = (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"sector": pa.int64(), "n_steps": pa.int64()}),
            order=("us", "event_id"),
            num_buckets=num_buckets,
        )
        .groupby("sector")
        .aggregate(Sum("n_steps", alias_name="n_steps"))
    )

    def finish(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["n_steps"], 0))

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_events_step_bearings() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
d AS (
  SELECT user_id,
         x - LAG(x) OVER w AS dx,
         y - LAG(y) OVER w AS dy
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
)
SELECT CAST(FLOOR(((atan2(dy, dx) * (180.0 / pi()) + 360.0) % 360.0) / 45.0)
       AS BIGINT) AS sector,
       COUNT(*)::BIGINT AS n_steps
FROM d WHERE dx IS NOT NULL
GROUP BY sector
"""


@query("session_paths", sql=lambda: sql_events_session_paths(), bench=True)
def events_session_paths(sf_dir: str, *, num_buckets: int | None = None):
    """Per-SESSION trajectory length: sessionization (30-min gap law,
    same as `events_sessionize`) fused with the ordered step-sum kernel
    — one coarse bucket shuffle, one lexsort, session ids by cumulative
    gap flags, per-session step sums that never cross a session
    boundary.  session_idx is 1-based within each user (the SQL running
    SUM law).  path_len rounded half-away to 2dp."""
    import ray.data as rd

    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        us = np.asarray(t["us"], np.int64)
        x = np.asarray(t["x"], np.float64)
        y = np.asarray(t["y"], np.float64)
        new_sess = np.diff(us, prepend=us[0]) > US_SESSION_GAP
        new_sess[starts] = True
        # 1-based session index within user: cumulative new_sess minus
        # the cumulative count at the user's first row (its own flag
        # makes the first session 1)
        cums = np.cumsum(new_sess)
        base = np.repeat(cums[starts] - 1, np.diff(np.append(starts, len(uid))))
        sidx = cums - base
        # per-session segment sums
        sess_id = np.cumsum(new_sess) - 1  # global session ordinal
        dx = np.diff(x)
        dy = np.diff(y)
        step = np.sqrt(dx * dx + dy * dy)
        step = np.where(new_sess[1:], 0.0, step)
        n_sessions = int(sess_id[-1]) + 1 if len(sess_id) else 0
        plen = np.bincount(sess_id[1:], weights=step, minlength=n_sessions)
        n_ev = np.bincount(sess_id, minlength=n_sessions).astype(np.int64)
        sstart = np.flatnonzero(new_sess)
        plen = np.sign(plen) * np.floor(np.abs(plen) * 1e2 + 0.5) / 1e2
        return pd.DataFrame(
            {
                "user_id": uid[sstart],
                "session_idx": sidx[sstart],
                "n_events": n_ev,
                "path_len": plen,
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "session_idx": pa.int64(),
             "n_events": pa.int64(), "path_len": pa.float64()}
        ),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_session_paths() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
m AS (
  SELECT *, CASE WHEN us - LAG(us) OVER w > {US_SESSION_GAP}
                   OR LAG(us) OVER w IS NULL
            THEN 1 ELSE 0 END AS new_s
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
),
s AS (
  SELECT *, SUM(new_s) OVER (PARTITION BY user_id ORDER BY us, event_id
            ROWS UNBOUNDED PRECEDING) AS sid
  FROM m
),
d AS (
  SELECT user_id, sid,
         x - LAG(x) OVER w2 AS dx,
         y - LAG(y) OVER w2 AS dy
  FROM s WINDOW w2 AS (PARTITION BY user_id, sid ORDER BY us, event_id)
)
SELECT user_id, sid::BIGINT AS session_idx, COUNT(*)::BIGINT AS n_events,
       ROUND(COALESCE(SUM(sqrt(dx*dx + dy*dy)), 0.0) * 1e2) / 1e2 AS path_len
FROM d GROUP BY user_id, sid
"""


@query("radius_gyration", sql=lambda: sql_events_radius_gyration())
def events_radius_gyration(sf_dir: str):
    """Radius of gyration per user (the classic mobility-spread metric):
    rg = sqrt(mean ||p - centroid||^2) over the user's event points.

    Fully COMBINABLE: per-batch (n, sx, sy, sxx+syy) moment partials per
    user (np.unique + bincount — raw rows never shuffle), one hash
    aggregate keyed by user, vectorized closed form.  No ordered pass,
    no bucket kernel.  3dp rounding dwarfs summation-order ulps of the
    1e11-scale squared sums."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]
    )

    def partial(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        u, inv = np.unique(uid, return_inverse=True)
        k = len(u)
        return pa.table(
            {
                "user_id": pa.array(u),
                "n": pa.array(np.bincount(inv, minlength=k).astype(np.int64)),
                "sx": pa.array(np.bincount(inv, weights=x, minlength=k)),
                "sy": pa.array(np.bincount(inv, weights=y, minlength=k)),
                "sq": pa.array(
                    np.bincount(inv, weights=x * x + y * y, minlength=k)
                ),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("n", alias_name="n_events"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sq", alias_name="sq"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n_events"], np.int64).astype(np.float64)
        sx = np.asarray(b["sx"], np.float64)
        sy = np.asarray(b["sy"], np.float64)
        sq = np.asarray(b["sq"], np.float64)
        rg2 = sq / n - ((sx / n) * (sx / n) + (sy / n) * (sy / n))
        rg = np.sqrt(np.maximum(rg2, 0.0))
        rg = np.sign(rg) * np.floor(np.abs(rg) * 1e3 + 0.5) / 1e3
        return pa.table(
            {"user_id": b["user_id"], "n_events": b["n_events"], "rg": pa.array(rg)}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_events_radius_gyration() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (SELECT user_id, {ex} AS x, {ey} AS y FROM events),
m AS (
  SELECT user_id, COUNT(*)::BIGINT AS n_events,
         SUM(x) AS sx, SUM(y) AS sy, SUM(x*x + y*y) AS sq
  FROM pts GROUP BY user_id
)
SELECT user_id, n_events,
       ROUND(sqrt(GREATEST(sq / n_events
             - ((sx / n_events) * (sx / n_events)
                + (sy / n_events) * (sy / n_events)), 0.0)) * 1e3) / 1e3 AS rg
FROM m
"""


def events_location_entropy(sf_dir: str, *, hex_size: float, num_buckets: int | None = None):
    """Per-user location diversity: number of distinct hexes visited and
    the Shannon entropy of the user's hex-visit distribution.

    Scale shape: per-batch (user, hex) count partials first (raw rows
    never shuffle), ONE composite hash aggregate, then a coarse
    user-bucket pass computes each user's entropy with a lexsort +
    segment reduction (users are high-cardinality — never a fine
    groupby).  Entropy rounded 6dp (p·ln p ulps are far below)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, hex_axial
    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]
    )

    def partial(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        hkey = _pack(*hex_axial(x, y, hex_size))
        order = np.lexsort((hkey, uid))
        us, ks = uid[order], hkey[order]
        bound = np.concatenate([[True], (us[1:] != us[:-1]) | (ks[1:] != ks[:-1])])
        s = np.flatnonzero(bound)
        n = np.diff(np.append(s, len(us)))
        return pa.table(
            {
                "user_id": pa.array(us[s]),
                "hkey": pa.array(ks[s]),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    mix = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "hkey"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        n = np.asarray(t["n"], np.float64)
        n_hexes = np.diff(np.append(starts, len(n)))
        inv = np.repeat(np.arange(len(starts)), n_hexes)
        total = np.bincount(inv, weights=n, minlength=len(starts))
        p = n / total[inv]
        ent = -np.bincount(inv, weights=p * np.log(p), minlength=len(starts))
        ent = np.sign(ent) * np.floor(np.abs(ent) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "user_id": np.asarray(t["user_id"], np.int64)[starts],
                "n_hexes": n_hexes,
                "n_events": total.astype(np.int64),
                "loc_entropy": ent,
            }
        )

    return segment_apply(
        mix,
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "n_hexes": pa.int64(),
             "n_events": pa.int64(), "loc_entropy": pa.float64()}
        ),
        order=("hkey",),
        num_buckets=num_buckets,
    )


def sql_events_location_entropy(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, {ex} AS x, {ey} AS y FROM events
),
{sql_hex_cte(hex_size)},
m AS (
  SELECT user_id, hq, hr, COUNT(*)::DOUBLE AS n
  FROM hexed GROUP BY user_id, hq, hr
),
t AS (SELECT user_id, SUM(n) AS total, COUNT(*)::BIGINT AS n_hexes FROM m
      GROUP BY user_id)
SELECT m.user_id, t.n_hexes, CAST(t.total AS BIGINT) AS n_events,
       ROUND((-SUM((m.n / t.total) * ln(m.n / t.total))) * 1e6) / 1e6
         AS loc_entropy
FROM m JOIN t ON m.user_id = t.user_id
GROUP BY m.user_id, t.n_hexes, t.total
"""


def _hex_week_counts(sf_dir: str, hex_size: float):
    """Events per (hex, epoch week): per-batch count partials, then one
    composite-key sum.  Weeks use the nonnegative-epoch truncation law
    (synth timestamps are all >= epoch)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, hex_axial
    from ..synth import derive_xy

    WEEK_US = 7 * 86_400_000_000
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        us = np.asarray(pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()))
        week = us // WEEK_US
        x, y = derive_xy(eid)
        hkey = _pack(*hex_axial(x, y, hex_size))
        order = np.lexsort((week, hkey))
        hs, ws = hkey[order], week[order]
        bound = np.concatenate([[True], (hs[1:] != hs[:-1]) | (ws[1:] != ws[:-1])])
        s = np.flatnonzero(bound)
        n = np.diff(np.append(s, len(hs)))
        return pa.table(
            {
                "hkey": pa.array(hs[s]),
                "week": pa.array(ws[s]),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["hkey", "week"])
        .aggregate(Sum("n", alias_name="n"))
    )


def events_hex_weekly_growth(
    sf_dir: str, *, hex_size: float, num_buckets: int | None = None
):
    """Week-over-week activity growth per hex: events bucketed to
    (hex, epoch-week), then LAG + percent change along each hex's weekly
    series.  pct is 0.0 for a hex's first week (COALESCE'd LAG law — avoids the NaN-vs-NULL hash ambiguity) and
    weeks are only the OBSERVED ones (sparse series — LAG skips gaps,
    it does not fill them).

    Scale shape: (hex, week) count partials -> one composite aggregate
    -> ONE coarse hex-bucket pass (lexsort + shifted-diff).  Weeks use
    the nonnegative-epoch truncation law."""

    from ..hex import _unpack

    agg = _hex_week_counts(sf_dir, hex_size)

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        k = np.asarray(t["hkey"], np.int64)
        w = np.asarray(t["week"], np.int64)
        n = np.asarray(t["n"], np.int64)
        same = np.ones(len(k), dtype=bool)
        same[starts] = False
        prev = np.concatenate([[0], n[:-1]])
        pct = np.where(
            same,
            (n - prev) / np.where(same, prev, 1).astype(np.float64),
            0.0,
        )
        pct = np.sign(pct) * np.floor(np.abs(pct) * 1e6 + 0.5) / 1e6
        hq, hr = _unpack(k)
        return pd.DataFrame(
            {
                "hq": hq,
                "hr": hr,
                "week": w,
                "n": n,
                "pct_change": pct,
            }
        )

    return segment_apply(
        agg,
        "hkey",
        kernel,
        pa.schema(
            {"hq": pa.int64(), "hr": pa.int64(), "week": pa.int64(),
             "n": pa.int64(), "pct_change": pa.float64()}
        ),
        order=("week",),
        num_buckets=num_buckets,
    )


def sql_events_hex_weekly_growth(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    week_us = 7 * 86_400_000_000
    return f"""
WITH pts AS (
  SELECT event_id, epoch_us(ts) // {week_us} AS week, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(hex_size)},
m AS (
  SELECT hq, hr, week, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr, week
)
SELECT hq, hr, week, n,
       COALESCE(ROUND(((n - LAG(n) OVER w)
                / CAST(LAG(n) OVER w AS DOUBLE)) * 1e6) / 1e6, 0.0)
         AS pct_change
FROM m WINDOW w AS (PARTITION BY hq, hr ORDER BY week)
"""


def events_hex_mann_kendall(
    sf_dir: str, *, hex_size: float, num_buckets: int | None = None
):
    """Emerging-hotspot trend per hex: the Mann-Kendall statistic over
    each hex's OBSERVED weekly activity series (sparse weeks, same
    convention as :func:`events_hex_weekly_growth`).

    Law (twin-identical): with the hex's weekly counts n_1..n_L in week
    order, ``s = sum_{i<j} sign(n_j - n_i)``; tie-corrected variance
    ``var = (L(L-1)(2L+5) - sum_t t(t-1)(2t+5)) / 18`` over value-tie
    groups t; ``z = (s -+ 1)/sqrt(var)`` (continuity-corrected, 0 when
    s = 0 or var = 0); hexes with a single active week are dropped.
    z rounded half-away 6dp.

    Scale shape: (hex, week) count partials -> one composite hash
    aggregate -> ONE coarse hex-bucket pass where pair indices are built
    VECTORIZED (repeat/arange construction, no per-hex Python loop) —
    pair volume is sum L^2 with L <= #weeks, linear in hexes.
    """

    from ..hex import _unpack

    agg = _hex_week_counts(sf_dir, hex_size)

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        k = np.asarray(t["hkey"], np.int64)
        n = np.asarray(t["n"], np.int64)
        L = np.diff(np.append(starts, len(k)))
        seg_of = np.repeat(np.arange(len(starts)), L)
        # vectorized i<j pair construction within segments
        idx = np.arange(len(k))
        seg_end = np.repeat(starts + L, L)
        reps = seg_end - idx - 1
        iidx = np.repeat(idx, reps)
        jj = (
            np.arange(int(reps.sum()))
            - np.repeat(np.cumsum(reps) - reps, reps)
        )
        jidx = iidx + 1 + jj
        pair_seg = np.repeat(seg_of, reps)
        sgn = np.sign(n[jidx] - n[iidx])
        s_stat = np.bincount(pair_seg, weights=sgn, minlength=len(starts))
        s_stat = s_stat.astype(np.int64)
        # tie term per segment over equal VALUES
        o2 = np.lexsort((n, k))
        k2, n2 = k[o2], n[o2]
        b2 = np.concatenate([[True], (k2[1:] != k2[:-1]) | (n2[1:] != n2[:-1])])
        t = np.diff(np.append(np.flatnonzero(b2), len(k2)))
        tie_seg = seg_of[o2][b2]
        tt = np.bincount(
            tie_seg,
            weights=(t * (t - 1) * (2 * t + 5)).astype(np.float64),
            minlength=len(starts),
        ).astype(np.int64)
        var = (L * (L - 1) * (2 * L + 5) - tt).astype(np.float64) / 18.0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(
                s_stat > 0,
                (s_stat - 1) / np.sqrt(var),
                np.where(s_stat < 0, (s_stat + 1) / np.sqrt(var), 0.0),
            )
        z = np.where(var <= 0.0, 0.0, z)
        z = np.sign(z) * np.floor(np.abs(z) * 1e6 + 0.5) / 1e6
        keep = L >= 2
        hq, hr = _unpack(k[starts][keep])
        return pd.DataFrame(
            {
                "hq": hq,
                "hr": hr,
                "n_weeks": L[keep],
                "s": s_stat[keep],
                "z": z[keep],
            }
        )

    return segment_apply(
        agg,
        "hkey",
        kernel,
        pa.schema(
            {"hq": pa.int64(), "hr": pa.int64(), "n_weeks": pa.int64(),
             "s": pa.int64(), "z": pa.float64()}
        ),
        order=("week",),
        num_buckets=num_buckets,
    )


def sql_events_hex_mann_kendall(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    week_us = 7 * 86_400_000_000
    return f"""
WITH pts AS (
  SELECT event_id, epoch_us(ts) // {week_us} AS week, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(hex_size)},
m AS (
  SELECT hq, hr, week, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr, week
),
lens AS (SELECT hq, hr, COUNT(*)::BIGINT AS L FROM m GROUP BY hq, hr),
pairsum AS (
  SELECT a.hq, a.hr,
         SUM(CASE WHEN b.n > a.n THEN 1 WHEN b.n < a.n THEN -1 ELSE 0 END)::BIGINT AS s
  FROM m a JOIN m b ON b.hq = a.hq AND b.hr = a.hr AND b.week > a.week
  GROUP BY a.hq, a.hr
),
ties AS (
  SELECT hq, hr, SUM(t * (t - 1) * (2 * t + 5))::BIGINT AS tt
  FROM (SELECT hq, hr, n, COUNT(*)::BIGINT AS t FROM m GROUP BY hq, hr, n)
  GROUP BY hq, hr
)
SELECT l.hq, l.hr, l.L AS n_weeks, COALESCE(p.s, 0)::BIGINT AS s,
       CASE WHEN CAST(l.L * (l.L - 1) * (2 * l.L + 5) - t.tt AS DOUBLE) / 18.0 <= 0.0
              THEN 0.0
            WHEN COALESCE(p.s, 0) > 0 THEN ROUND(((COALESCE(p.s, 0) - 1)
              / sqrt(CAST(l.L * (l.L - 1) * (2 * l.L + 5) - t.tt AS DOUBLE) / 18.0)) * 1e6) / 1e6
            WHEN COALESCE(p.s, 0) < 0 THEN ROUND(((COALESCE(p.s, 0) + 1)
              / sqrt(CAST(l.L * (l.L - 1) * (2 * l.L + 5) - t.tt AS DOUBLE) / 18.0)) * 1e6) / 1e6
            ELSE 0.0 END AS z
FROM lens l
LEFT JOIN pairsum p ON p.hq = l.hq AND p.hr = l.hr
JOIN ties t ON t.hq = l.hq AND t.hr = l.hr
WHERE l.L >= 2
"""


def events_od_gravity(sf_dir: str, *, hex_size: float, num_buckets: int | None = None):
    """Gravity-model fit over the OD hex-flow matrix: OLS of
    ``ln(flow)`` on ``ln(center distance)`` across origin!=destination
    flows — one row (n_pairs, alpha, beta, r2), 6dp.  beta is the
    distance-decay exponent of the classic spatial-interaction model
    (typically negative).

    Scale shape: the :func:`events_od_matrix` plan (one coarse bucket
    shuffle + composite aggregate) feeding six-scalar log-sums and a
    closed-form fit — flows never leave the cluster, the driver sees six
    numbers.
    """
    import ray.data as rd

    from ..hex import _unpack, hex_center

    agg = _od_flows(sf_dir, hex_size, num_buckets)

    def sums(b: pa.Table) -> pa.Table:
        okey = np.asarray(b["okey"], np.int64)
        dkey = np.asarray(b["dkey"], np.int64)
        n = np.asarray(b["n_users"], np.int64)
        keep = okey != dkey
        oq, orr = _unpack(okey[keep])
        dq, dr = _unpack(dkey[keep])
        cox, coy = hex_center(oq, orr, hex_size)
        cdx, cdy = hex_center(dq, dr, hex_size)
        d2 = (cox - cdx) * (cox - cdx) + (coy - cdy) * (coy - cdy)
        x = np.log(np.sqrt(d2))
        y = np.log(n[keep].astype(np.float64))
        return pa.table(
            {
                "cnt": np.array([len(x)], np.int64),
                "sx": np.array([x.sum()]),
                "sy": np.array([y.sum()]),
                "sxx": np.array([(x * x).sum()]),
                "sxy": np.array([(x * y).sum()]),
                "syy": np.array([(y * y).sum()]),
            }
        )

    tot = agg.map_batches(sums, batch_format="pyarrow").sum(
        ["cnt", "sx", "sy", "sxx", "sxy", "syy"]
    )
    nn = float(tot["sum(cnt)"])
    sx, sy = tot["sum(sx)"], tot["sum(sy)"]
    sxx, sxy, syy = tot["sum(sxx)"], tot["sum(sxy)"], tot["sum(syy)"]
    cov = nn * sxy - sx * sy
    varx = nn * sxx - sx * sx
    vary = nn * syy - sy * sy
    # degenerate-fit law (shared with the twin): too few distinct flows
    # or a constant regressor / response -> zero coefficients
    if nn < 2.0 or varx == 0.0 or vary == 0.0:
        alpha = beta = r2 = 0.0
    else:
        beta = cov / varx
        alpha = (sy - beta * sx) / nn
        r2 = (cov * cov) / (varx * vary)
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_pairs": pa.array([int(nn)], pa.int64()),
                "alpha": pa.array([rnd(alpha)]),
                "beta": pa.array([rnd(beta)]),
                "r2": pa.array([rnd(r2)]),
            }
        )
    )


def sql_events_od_gravity(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    s = repr(float(hex_size))

    def cx(q):
        return f"({s} * ((3.0/2.0) * {q}))"

    def cy(q, r):
        return f"({s} * ((sqrt(3.0)/2.0) * {q} + sqrt(3.0) * {r}))"

    d2 = (
        f"(({cx('oq')} - {cx('dq')}) * ({cx('oq')} - {cx('dq')})"
        f" + ({cy('oq', 'orr')} - {cy('dq', 'dr')})"
        f" * ({cy('oq', 'orr')} - {cy('dq', 'dr')}))"
    )
    rnd = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    beta = "(nn * sxy - sx * sy) / (nn * sxx - sx * sx)"
    return f"""
WITH pts0 AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
fpts AS (
  SELECT user_id, x, y FROM pts0
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us, event_id) = 1
),
lpts AS (
  SELECT user_id, x, y FROM pts0
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us DESC, event_id DESC) = 1
),
{sql_hex_cte(hex_size, points_cte="fpts", prefix="f_")},
{sql_hex_cte(hex_size, points_cte="lpts", prefix="l_")},
flows AS (
  SELECT f.hq AS oq, f.hr AS orr, l.hq AS dq, l.hr AS dr,
         COUNT(*)::BIGINT AS n_users
  FROM f_hexed f JOIN l_hexed l ON f.user_id = l.user_id
  GROUP BY f.hq, f.hr, l.hq, l.hr
),
p AS (
  SELECT ln(sqrt({d2})) AS lx, ln(CAST(n_users AS DOUBLE)) AS ly
  FROM flows WHERE NOT (oq = dq AND orr = dr)
),
st AS (
  SELECT COUNT(*)::DOUBLE AS nn, SUM(lx) AS sx, SUM(ly) AS sy,
         SUM(lx * lx) AS sxx, SUM(lx * ly) AS sxy, SUM(ly * ly) AS syy
  FROM p
)
SELECT CAST(nn AS BIGINT) AS n_pairs,
       CASE WHEN nn < 2.0 OR nn * sxx - sx * sx = 0.0
              OR nn * syy - sy * sy = 0.0 THEN 0.0
            ELSE {rnd(f"(sy - ({beta}) * sx) / nn")} END AS alpha,
       CASE WHEN nn < 2.0 OR nn * sxx - sx * sx = 0.0
              OR nn * syy - sy * sy = 0.0 THEN 0.0
            ELSE {rnd(beta)} END AS beta,
       CASE WHEN nn < 2.0 OR nn * sxx - sx * sx = 0.0
              OR nn * syy - sy * sy = 0.0 THEN 0.0
            ELSE {rnd("((nn * sxy - sx * sy) * (nn * sxy - sx * sy)) / ((nn * sxx - sx * sx) * (nn * syy - sy * sy))")} END AS r2
FROM st
"""


def events_home_work(sf_dir: str, *, hex_size: float, num_buckets: int | None = None):
    """Home / work anchor detection per user: the modal NIGHT-hour hex
    (hour < 6 or >= 22) is "home", the modal OFFICE-hour hex
    (9 <= hour < 17) is "work"; ties break to the smallest (hq, hr);
    users need at least one event in EACH window.  The classic
    mobility-mining anchor law, hour = (epoch_us // 3.6e9) % 24.

    Scale shape: one coarse user-hash bucket shuffle; the per-bucket
    kernel is two lexsort segment scans (count per (user, hex), then
    first-row-per-user under the (count DESC, hq, hr) tie order) and one
    in-bucket merge — no per-user Python, no second shuffle.
    """
    import ray.data as rd

    from ..hex import hex_axial
    from ..synth import derive_xy

    HOUR_US = 3_600_000_000

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            }
        )

    def _modal(uid, hq, hr):
        """Per-user modal cell under (count DESC, hq, hr): returns
        (user, hq, hr, count) arrays."""
        order = np.lexsort((hr, hq, uid))
        u, q, r = uid[order], hq[order], hr[order]
        bound = np.concatenate(
            [[True], (u[1:] != u[:-1]) | (q[1:] != q[:-1]) | (r[1:] != r[:-1])]
        )
        s = np.flatnonzero(bound)
        c = np.diff(np.append(s, len(u))).astype(np.int64)
        gu, gq, gr = u[s], q[s], r[s]
        o2 = np.lexsort((gr, gq, -c, gu))
        gu, gq, gr, c = gu[o2], gq[o2], gr[o2], c[o2]
        first = np.concatenate([[True], gu[1:] != gu[:-1]])
        return gu[first], gq[first], gr[first], c[first]

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        eid = np.asarray(t["event_id"], np.int64)
        hour = (np.asarray(t["us"], np.int64) // HOUR_US) % 24
        x, y = derive_xy(eid)
        hq, hr = hex_axial(x, y, hex_size)
        night = (hour < 6) | (hour >= 22)
        day = (hour >= 9) & (hour < 17)
        hu, hq1, hr1, hc = _modal(uid[night], hq[night], hr[night])
        wu, wq, wr, wc = _modal(uid[day], hq[day], hr[day])
        h = pd.DataFrame(
            {"user_id": hu, "home_q": hq1, "home_r": hr1, "n_home": hc}
        )
        w = pd.DataFrame(
            {"user_id": wu, "work_q": wq, "work_r": wr, "n_work": wc}
        )
        return h.merge(w, on="user_id", how="inner")

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {c: pa.int64() for c in ("user_id", "home_q", "home_r", "n_home",
                                     "work_q", "work_r", "n_work")}
        ),
        num_buckets=num_buckets,
    )


def sql_events_home_work(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    hr_expr = "((us // 3600000000) % 24)"
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(hex_size)},
nbest AS (
  SELECT user_id, hq, hr, COUNT(*)::BIGINT AS c FROM hexed
  WHERE {hr_expr} < 6 OR {hr_expr} >= 22
  GROUP BY user_id, hq, hr
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY COUNT(*) DESC, hq, hr) = 1
),
dbest AS (
  SELECT user_id, hq, hr, COUNT(*)::BIGINT AS c FROM hexed
  WHERE {hr_expr} >= 9 AND {hr_expr} < 17
  GROUP BY user_id, hq, hr
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY COUNT(*) DESC, hq, hr) = 1
)
SELECT n.user_id, n.hq AS home_q, n.hr AS home_r, n.c AS n_home,
       d.hq AS work_q, d.hr AS work_r, d.c AS n_work
FROM nbest n JOIN dbest d ON n.user_id = d.user_id
"""


def events_coloc(
    sf_dir: str,
    *,
    hex_size: float,
    min_meets: int = 2,
    num_buckets: int | None = None,
):
    """Co-location (contact) pairs: two users MEET when they appear in
    the SAME hex cell during the SAME epoch hour; output unordered user
    pairs with at least `min_meets` distinct (cell, hour) meetings — the
    proximity-analytics / contact-graph operator.

    Scale shape: two coarse-bucket shuffles, both on packed int64 keys
    (the house rule for hash-like keys — never a fine groupby):
    (cell, hour) buckets where the kernel dedups presence and emits
    pairs with the vectorized repeat/arange construction, then pair-key
    buckets where one np.unique resolves meet counts.  Pair volume is
    sum k² over cell-hour groups (k = users co-present) — bounded by
    the hour slicing, and hot cells are visible in the group sizes, not
    hidden in a shuffle.
    """
    import ray.data as rd

    from ..hex import _pack, hex_axial
    from ..synth import derive_xy

    HOUR_US = 3_600_000_000

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        us = np.asarray(pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()))
        uid = np.asarray(b["user_id"], np.int64)
        x, y = derive_xy(eid)
        hkey = _pack(*hex_axial(x, y, hex_size))
        return pa.table(
            {
                "hkey": pa.array(hkey),
                "hb": pa.array(us // HOUR_US),
                "user_id": pa.array(uid),
            }
        )

    def pair_kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        u = np.asarray(t["user_id"], np.int64)
        # distinct (cell, hour, user) presence
        first = np.zeros(len(u), dtype=bool)
        first[starts] = True
        keep = first | np.append(True, u[1:] != u[:-1])
        u = u[keep]
        # per-(cell, hour) sorted-user segments -> i<j pairs (repeat/arange)
        starts = np.flatnonzero(first[keep])
        L = np.diff(np.append(starts, len(u)))
        idx = np.arange(len(u))
        seg_end = np.repeat(starts + L, L)
        reps = seg_end - idx - 1
        iidx = np.repeat(idx, reps)
        jj = (
            np.arange(int(reps.sum()))
            - np.repeat(np.cumsum(reps) - reps, reps)
        )
        jidx = iidx + 1 + jj
        pkey = (u[iidx] << np.int64(32)) | u[jidx]  # ua < ub by sort order
        pk, c = np.unique(pkey, return_counts=True)
        return pd.DataFrame({"pkey": pk, "n": c})

    def count_kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        u = np.asarray(t["pkey"], np.int64)[starts]
        tot = np.add.reduceat(np.asarray(t["n"], np.int64), starts)
        keep = tot >= min_meets
        u, tot = u[keep], tot[keep]
        return pd.DataFrame(
            {
                "user_a": u >> 32,
                "user_b": u & np.int64(4294967295),
                "n_meets": tot,
            }
        )

    pairs = segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        ["hkey", "hb"],
        pair_kernel,
        pa.schema({"pkey": pa.int64(), "n": pa.int64()}),
        order=("user_id",),
        num_buckets=num_buckets,
    )
    return segment_apply(
        pairs,
        "pkey",
        count_kernel,
        pa.schema(
            {"user_a": pa.int64(), "user_b": pa.int64(), "n_meets": pa.int64()}
        ),
        num_buckets=num_buckets,
    )


def sql_events_coloc(*, hex_size: float, min_meets: int = 2) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(hex_size)},
pres AS (
  SELECT DISTINCT hq, hr, us // 3600000000 AS hb, user_id FROM hexed
)
SELECT a.user_id AS user_a, b.user_id AS user_b, COUNT(*)::BIGINT AS n_meets
FROM pres a JOIN pres b
  ON a.hq = b.hq AND a.hr = b.hr AND a.hb = b.hb AND a.user_id < b.user_id
GROUP BY a.user_id, b.user_id
HAVING COUNT(*) >= {min_meets}
"""


def events_od_paths(sf_dir: str, *, hex_size: float, num_buckets: int | None = None):
    """Hex path densification: for every user, the straight-line cell
    path from the ORIGIN hex (first event) to the DESTINATION hex (last
    event) — step k of n samples the segment between the two cell
    CENTERS at fraction k/n (n = hex lattice distance) and hex-assigns
    it (the classic cube-lerp line law, expressed on center coordinates
    so the twin shares the assignment CTE).  Rows (user_id, seq, hq, hr).

    Scale shape: ONE coarse user-hash bucket shuffle; the per-bucket
    kernel finds first/last with a lexsort segment scan and explodes
    paths VECTORIZED (repeat/arange over per-user step counts).
    """
    import ray.data as rd

    from ..hex import _pack, hex_axial, hex_center
    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        eid = np.asarray(t["event_id"], np.int64)
        ends = np.append(starts[1:], len(eid)) - 1
        users = np.asarray(t["user_id"], np.int64)[starts]
        ox, oy = derive_xy(eid[starts])
        dx, dy = derive_xy(eid[ends])
        oq, orr = hex_axial(ox, oy, hex_size)
        dq, dr = hex_axial(dx, dy, hex_size)
        ddq = dq - oq
        ddr = dr - orr
        n = (np.abs(ddq) + np.abs(ddr) + np.abs(ddq + ddr)) // 2
        cox, coy = hex_center(oq, orr, hex_size)
        cdx, cdy = hex_center(dq, dr, hex_size)
        # explode: user u emits steps 0..n_u
        reps = (n + 1).astype(np.int64)
        ui = np.repeat(np.arange(len(users)), reps)
        seq = np.arange(int(reps.sum())) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        nf = np.where(n[ui] == 0, 1, n[ui]).astype(np.float64)
        frac = seq.astype(np.float64) / nf
        sx = cox[ui] + frac * (cdx[ui] - cox[ui])
        sy = coy[ui] + frac * (cdy[ui] - coy[ui])
        hq, hr = hex_axial(sx, sy, hex_size)
        return pd.DataFrame(
            {
                "user_id": users[ui],
                "seq": seq,
                "hq": hq,
                "hr": hr,
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema({c: pa.int64() for c in ("user_id", "seq", "hq", "hr")}),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_od_paths(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    s = repr(float(hex_size))

    def cx(q):
        return f"({s} * ((3.0/2.0) * {q}))"

    def cy(q, r):
        return f"({s} * ((sqrt(3.0)/2.0) * {q} + sqrt(3.0) * {r}))"

    return f"""
WITH pts0 AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
fpts AS (
  SELECT user_id, x, y FROM pts0
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us, event_id) = 1
),
lpts AS (
  SELECT user_id, x, y FROM pts0
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY us DESC, event_id DESC) = 1
),
{sql_hex_cte(hex_size, points_cte="fpts", prefix="f_")},
{sql_hex_cte(hex_size, points_cte="lpts", prefix="l_")},
od AS (
  SELECT f.user_id, f.hq AS oq, f.hr AS orr, l.hq AS dq, l.hr AS dr,
         (abs(l.hq - f.hq) + abs(l.hr - f.hr)
          + abs((l.hq - f.hq) + (l.hr - f.hr))) // 2 AS n
  FROM f_hexed f JOIN l_hexed l ON f.user_id = l.user_id
),
steps AS (
  SELECT od.user_id, k.i AS seq,
         {cx('od.oq')} + (CAST(k.i AS DOUBLE)
           / (CASE WHEN od.n = 0 THEN 1.0 ELSE CAST(od.n AS DOUBLE) END))
           * ({cx('od.dq')} - {cx('od.oq')}) AS x,
         {cy('od.oq', 'od.orr')} + (CAST(k.i AS DOUBLE)
           / (CASE WHEN od.n = 0 THEN 1.0 ELSE CAST(od.n AS DOUBLE) END))
           * ({cy('od.dq', 'od.dr')} - {cy('od.oq', 'od.orr')}) AS y
  FROM od CROSS JOIN LATERAL
    (SELECT UNNEST(generate_series(0, od.n)) AS i) k
),
{sql_hex_cte(hex_size, points_cte="steps", prefix="p_")}
SELECT user_id, seq, hq, hr FROM p_hexed
"""


@query("speed_outliers", sql=lambda: sql_events_speed_outliers())
def events_speed_outliers(
    sf_dir: str, *, vmax: float = 30.0, num_buckets: int | None = None
):
    """Telemetry speed screening (GPS-noise filter law): per-user
    consecutive steps in (ts, event_id) order; a step is FLAGGED when
    its implied speed exceeds `vmax` m/s or its time delta is <= 0.
    Output per user: n_steps, n_flagged, and the mean speed of the
    clean steps (0.0 when none), 6dp.

    Scale shape: the trajectory one-coarse-bucket plan; the kernel is
    one lexsort + vectorized diffs (no per-user Python)."""
    import ray.data as rd

    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        us = np.asarray(t["us"], np.int64)
        x = np.asarray(t["x"], np.float64)
        y = np.asarray(t["y"], np.float64)
        same = uid[1:] == uid[:-1]
        du = uid[1:][same]
        dt = np.diff(us)[same]
        dx = np.diff(x)[same]
        dy = np.diff(y)[same]
        dist = np.sqrt(dx * dx + dy * dy)
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = dist / (dt.astype(np.float64) / 1e6)
        bad = (dt <= 0) | (speed > vmax)
        users, inv = np.unique(du, return_inverse=True)
        n_steps = np.bincount(inv, minlength=len(users)).astype(np.int64)
        n_flag = np.bincount(
            inv, weights=bad.astype(np.float64), minlength=len(users)
        ).astype(np.int64)
        ok = ~bad
        s_ok = np.bincount(
            inv[ok], weights=speed[ok], minlength=len(users)
        )
        c_ok = np.bincount(inv[ok], minlength=len(users))
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(c_ok > 0, s_ok / c_ok, 0.0)
        mean = np.sign(mean) * np.floor(np.abs(mean) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "user_id": users,
                "n_steps": n_steps,
                "n_flagged": n_flag,
                "mean_speed": mean,
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "n_steps": pa.int64(),
             "n_flagged": pa.int64(), "mean_speed": pa.float64()}
        ),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_speed_outliers(*, vmax: float = 30.0) -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
steps AS (
  SELECT user_id,
         us - LAG(us) OVER w AS dt,
         x - LAG(x) OVER w AS dx,
         y - LAG(y) OVER w AS dy
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
  QUALIFY LAG(us) OVER w IS NOT NULL
),
sp AS (
  SELECT user_id, dt,
         sqrt(dx * dx + dy * dy) / (CAST(dt AS DOUBLE) / 1e6) AS speed
  FROM steps WHERE dt > 0
  UNION ALL
  SELECT user_id, dt, NULL AS speed FROM steps WHERE dt <= 0
)
SELECT user_id, COUNT(*)::BIGINT AS n_steps,
       SUM(CASE WHEN dt <= 0 OR speed > {vmax!r} THEN 1 ELSE 0 END)::BIGINT
         AS n_flagged,
       ROUND(COALESCE(SUM(CASE WHEN dt > 0 AND speed <= {vmax!r}
                          THEN speed END)
         / NULLIF(SUM(CASE WHEN dt > 0 AND speed <= {vmax!r}
                      THEN 1 END), 0), 0.0) * 1000000.0) / 1000000.0
         AS mean_speed
FROM sp GROUP BY user_id
"""


def events_hex_theil_sen(
    sf_dir: str, *, hex_size: float, num_buckets: int | None = None
):
    """Theil-Sen trend slope per hex: the MEDIAN of all pairwise weekly
    slopes (n_j - n_i) / (w_j - w_i) over each hex's observed weekly
    series — the robust companion of events_hex_mann_kendall, same
    sparse-week convention, hexes with a single active week dropped.
    Median law matches DuckDB's double MEDIAN exactly: lo + (hi - lo)/2
    over the two middle order statistics.  Slope rounded 6dp.

    Scale shape: identical to mann_kendall — (hex, week) partials, one
    composite aggregate, ONE coarse hex-bucket pass with vectorized
    repeat/arange pair construction and a lexsort median (no per-hex
    Python)."""

    from ..hex import _unpack

    agg = _hex_week_counts(sf_dir, hex_size)

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        k = np.asarray(t["hkey"], np.int64)
        w = np.asarray(t["week"], np.int64)
        n = np.asarray(t["n"], np.int64)
        L = np.diff(np.append(starts, len(k)))
        seg_of = np.repeat(np.arange(len(starts)), L)
        idx = np.arange(len(k))
        seg_end = np.repeat(starts + L, L)
        reps = seg_end - idx - 1
        iidx = np.repeat(idx, reps)
        jj = (
            np.arange(int(reps.sum()))
            - np.repeat(np.cumsum(reps) - reps, reps)
        )
        jidx = iidx + 1 + jj
        pair_seg = np.repeat(seg_of, reps)
        slope = (n[jidx] - n[iidx]) / (w[jidx] - w[iidx])
        # per-segment median over variable-length slope lists
        o2 = np.lexsort((slope, pair_seg))
        sl = slope[o2]
        P = (L * (L - 1)) // 2
        pstart = np.concatenate([[0], np.cumsum(P)[:-1]])
        keep = L >= 2
        lo = pstart + (np.maximum(P, 1) - 1) // 2
        hi = pstart + np.maximum(P, 1) // 2
        lo = np.clip(lo, 0, max(len(sl) - 1, 0))
        hi = np.clip(hi, 0, max(len(sl) - 1, 0))
        if len(sl):
            med = sl[lo] + (sl[hi] - sl[lo]) / 2.0
        else:
            med = np.zeros(len(starts))
        med = np.sign(med) * np.floor(np.abs(med) * 1e6 + 0.5) / 1e6
        hq, hr = _unpack(k[starts][keep])
        return pd.DataFrame(
            {
                "hq": hq,
                "hr": hr,
                "n_weeks": L[keep].astype(np.int64),
                "slope": med[keep],
            }
        )

    return segment_apply(
        agg,
        "hkey",
        kernel,
        pa.schema(
            {"hq": pa.int64(), "hr": pa.int64(), "n_weeks": pa.int64(),
             "slope": pa.float64()}
        ),
        order=("week",),
        num_buckets=num_buckets,
    )


def sql_events_hex_theil_sen(*, hex_size: float) -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    week_us = 7 * 86_400_000_000
    return f"""
WITH pts AS (
  SELECT event_id, epoch_us(ts) // {week_us} AS week, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(hex_size)},
m AS (
  SELECT hq, hr, week, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr, week
),
lens AS (SELECT hq, hr, COUNT(*)::BIGINT AS L FROM m GROUP BY hq, hr),
slopes AS (
  SELECT a.hq, a.hr,
         (b.n - a.n)::DOUBLE / (b.week - a.week) AS slope
  FROM m a JOIN m b ON b.hq = a.hq AND b.hr = a.hr AND b.week > a.week
)
SELECT l.hq, l.hr, l.L AS n_weeks,
       ROUND(MEDIAN(s.slope) * 1e6) / 1e6 AS slope
FROM lens l JOIN slopes s ON s.hq = l.hq AND s.hr = l.hr
WHERE l.L >= 2
GROUP BY l.hq, l.hr, l.L
"""


ACF_MAX_LAG = 7


def _pearson_int(m, sx, sy, sxy, sxx, syy, round_to=6):
    """Pearson r from INTEGER sums (exact up to the closed form's three
    float casts, one sqrt and one divide — the SQL twin uses the same
    form so the doubles are bit-identical). None when degenerate."""
    vx = m * sxx - sx * sx
    vy = m * syy - sy * sy
    if m < 2 or vx <= 0 or vy <= 0:
        return None
    r = float(m * sxy - sx * sy) / np.sqrt(float(vx) * float(vy))
    tol = 10.0 ** round_to
    return float(np.sign(r) * np.floor(abs(r) * tol + 0.5) / tol)


@query("events_acf", sql=lambda: sql_events_acf())
def events_acf(sf_dir: str, *, max_lag: int = ACF_MAX_LAG):
    """Autocorrelation of the daily total event count at lags
    1..max_lag: Pearson r between the series and its lag over every day
    pair where both exist (inner-join law).  One per-batch (day, n)
    combiner -> the built-in Sum groupby (day cardinality is bounded by
    the time span, never by corpus size) -> the tiny daily table aligns
    lags driver-side with integer sums (exact; see _pearson_int)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US  # positive: trunc == floor
        d, n = np.unique(day, return_counts=True)
        return pa.table({"d": pa.array(d), "n": pa.array(n.astype(np.int64))})

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("d")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    order = np.argsort(d)
    d, n = d[order], n[order]
    out_lag, out_np, out_r = [], [], []
    for lag in range(1, max_lag + 1):
        pos = np.searchsorted(d, d + lag)
        pos = np.clip(pos, 0, len(d) - 1)
        hit = d[pos] == d + lag
        x = n[hit]
        y = n[pos[hit]]
        m = len(x)
        r = _pearson_int(
            m, int(x.sum()), int(y.sum()), int((x * y).sum()),
            int((x * x).sum()), int((y * y).sum()),
        )
        if r is None:
            continue
        out_lag.append(lag)
        out_np.append(m)
        out_r.append(r)
    return pa.table(
        {
            "lag": pa.array(out_lag, pa.int64()),
            "n_pairs": pa.array(out_np, pa.int64()),
            "acf": pa.array(out_r, pa.float64()),
        }
    )


def sql_events_acf(max_lag: int = ACF_MAX_LAG) -> str:
    return f"""
WITH c AS (
  SELECT epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY d
),
lags AS (SELECT UNNEST(generate_series(1, {max_lag})) AS lag),
p AS (
  SELECT lags.lag AS lag, a.n AS x, b.n AS y
  FROM lags JOIN c a ON TRUE JOIN c b ON b.d = a.d + lags.lag
),
s AS (
  SELECT lag, COUNT(*)::BIGINT AS m, SUM(x)::BIGINT AS sx,
         SUM(y)::BIGINT AS sy, SUM(x*y)::BIGINT AS sxy,
         SUM(x*x)::BIGINT AS sxx, SUM(y*y)::BIGINT AS syy
  FROM p GROUP BY lag
)
SELECT lag::BIGINT AS lag, m AS n_pairs,
       ROUND((m*sxy - sx*sy)::DOUBLE
             / sqrt(((m*sxx - sx*sx)::DOUBLE) * ((m*syy - sy*sy)::DOUBLE))
             * 1e6) / 1e6 AS acf
FROM s
WHERE m >= 2 AND m*sxx - sx*sx > 0 AND m*syy - sy*sy > 0
"""


@query("events_type_corr", sql=lambda: sql_events_type_corr())
def events_type_corr(sf_dir: str):
    """Pairwise Pearson correlation between the daily count series of
    every unordered event-type pair (type_a < type_b), over days where
    BOTH types have events (inner-join law).  Same combiner -> Sum
    groupby -> tiny (type, day) table plan as events_acf; the pair loop
    runs driver-side over n_types^2 — a constant, never corpus scale."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        df = pd.DataFrame(
            {"event_type": np.asarray(b["event_type"]).astype(object),
             "d": day}
        )
        g = df.groupby(["event_type", "d"], sort=False).size()
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "d"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    et = np.asarray(tbl["event_type"]).astype(object)
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    types = np.unique(et)
    series = {}
    for t in types:
        sel = et == t
        dd, nn = d[sel], n[sel]
        o = np.argsort(dd)
        series[t] = (dd[o], nn[o])
    out_a, out_b, out_nd, out_r = [], [], [], []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            da, na = series[types[i]]
            db, nb = series[types[j]]
            pos = np.searchsorted(db, da)
            pos = np.clip(pos, 0, len(db) - 1)
            hit = db[pos] == da
            x = na[hit]
            y = nb[pos[hit]]
            m = len(x)
            r = _pearson_int(
                m, int(x.sum()), int(y.sum()), int((x * y).sum()),
                int((x * x).sum()), int((y * y).sum()),
            )
            if r is None:
                continue
            out_a.append(types[i])
            out_b.append(types[j])
            out_nd.append(m)
            out_r.append(r)
    return pa.table(
        {
            "type_a": pa.array(out_a, pa.string()),
            "type_b": pa.array(out_b, pa.string()),
            "n_days": pa.array(out_nd, pa.int64()),
            "r": pa.array(out_r, pa.float64()),
        }
    )


def sql_events_type_corr() -> str:
    return f"""
WITH c AS (
  SELECT event_type, epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY event_type, d
),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b, a.n AS x, b.n AS y
  FROM c a JOIN c b ON b.d = a.d AND a.event_type < b.event_type
),
s AS (
  SELECT type_a, type_b, COUNT(*)::BIGINT AS m, SUM(x)::BIGINT AS sx,
         SUM(y)::BIGINT AS sy, SUM(x*y)::BIGINT AS sxy,
         SUM(x*x)::BIGINT AS sxx, SUM(y*y)::BIGINT AS syy
  FROM p GROUP BY type_a, type_b
)
SELECT type_a, type_b, m AS n_days,
       ROUND((m*sxy - sx*sy)::DOUBLE
             / sqrt(((m*sxx - sx*sx)::DOUBLE) * ((m*syy - sy*sy)::DOUBLE))
             * 1e6) / 1e6 AS r
FROM s
WHERE m >= 2 AND m*sxx - sx*sx > 0 AND m*syy - sy*sy > 0
"""


MIN_GAPS = 4  #: users need >= MIN_GAPS+1 events for inter-arrival stats


@query("events_interarrival", sql=lambda: sql_events_interarrival(), bench=True)
def events_interarrival(sf_dir: str, *, num_buckets: int | None = None):
    """Inter-arrival statistics per user (>= {MIN_GAPS} gaps): mean gap,
    coefficient of variation and burstiness B = (sd - mean)/(sd + mean)
    (Goh & Barabasi 2008) over consecutive-event gaps in INTEGER seconds
    (exact sums; squares stay under int64 at any per-user span).

    Plan: the sessionize shape — one coarse user-hash bucket shuffle,
    one lexsort + np.diff + np.add.reduceat per bucket; all per-user
    math is three reduceat sums and the closed forms."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "sec": pa.array(np.asarray(us, np.int64) // 1_000_000),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        sec = np.asarray(t["sec"], np.int64)
        # per-user sums over that user's gaps (exclude each first event)
        gv = np.diff(sec, prepend=sec[0])
        gv[starts] = 0
        m = np.diff(np.append(starts, len(uid))) - 1
        sg = np.add.reduceat(gv, starts)
        sgg = np.add.reduceat(gv * gv, starts)
        keep = (m >= MIN_GAPS) & (sg > 0)  # mean>0 => cv/B defined
        uu, m, sg, sgg = uid[starts][keep], m[keep], sg[keep], sgg[keep]
        mean = sg.astype(np.float64) / m
        sd = np.sqrt((m * sgg - sg * sg).astype(np.float64)) / m
        tol = 1e6
        def rnd(a):
            return np.sign(a) * np.floor(np.abs(a) * tol + 0.5) / tol
        cv = sd / mean
        bur = (sd - mean) / (sd + mean)
        return pd.DataFrame(
            {
                "user_id": uu,
                "n_gaps": m,
                "mean_gap_s": rnd(mean),
                "cv": rnd(cv),
                "burstiness": rnd(bur),
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "n_gaps": pa.int64(),
             "mean_gap_s": pa.float64(), "cv": pa.float64(),
             "burstiness": pa.float64()}
        ),
        order=("sec", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_interarrival() -> str:
    return f"""
WITH g AS (
  SELECT user_id,
         epoch_us(ts) // 1000000
           - LAG(epoch_us(ts) // 1000000)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
),
s AS (
  SELECT user_id, COUNT(gap)::BIGINT AS m, SUM(gap)::BIGINT AS sg,
         SUM(gap*gap)::BIGINT AS sgg
  FROM g WHERE gap IS NOT NULL
  GROUP BY user_id
  HAVING COUNT(gap) >= {MIN_GAPS} AND SUM(gap) > 0
)
SELECT user_id, m AS n_gaps,
       ROUND(sg::DOUBLE / m * 1e6) / 1e6 AS mean_gap_s,
       ROUND(sqrt((m*sgg - sg*sg)::DOUBLE) / m / (sg::DOUBLE / m) * 1e6) / 1e6
         AS cv,
       ROUND((sqrt((m*sgg - sg*sg)::DOUBLE) / m - sg::DOUBLE / m)
             / (sqrt((m*sgg - sg*sg)::DOUBLE) / m + sg::DOUBLE / m)
             * 1e6) / 1e6 AS burstiness
FROM s
"""


@query("events_survival", sql=lambda: sql_events_survival(), bench=True)
def events_survival(sf_dir: str):
    """Kaplan-Meier time-to-conversion curve: per user, the survival
    time is whole days from the FIRST event to the FIRST ``purchase``;
    users with no purchase are right-censored at their last event.
    S(t) multiplies (1 - d_t/n_t) over times in ascending order (the
    window-product / cumprod order — identical on both sides), reported
    at death times.

    Plan: per-batch (user, min_us, max_us, min_purchase_us) partials
    (no-purchase batches carry an int64-max sentinel) -> built-in
    Min/Max groupby on user (hash aggregate, scale-safe) -> the curve
    itself is bounded by the day span and finalizes driver-side."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    SENT = np.iinfo(np.int64).max

    def partial(b: pa.Table) -> pa.Table:
        us = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()), np.int64
        )
        uid = np.asarray(b["user_id"], np.int64)
        is_p = np.asarray(b["event_type"]).astype(object) == "purchase"
        pus = np.where(is_p, us, SENT)
        df = pd.DataFrame({"user_id": uid, "us": us, "pus": pus})
        g = df.groupby("user_id", sort=False).agg(
            f=("us", "min"), l=("us", "max"), p=("pus", "min")
        )
        out = g.reset_index()
        return pa.table(
            {
                "user_id": pa.array(out["user_id"].to_numpy(np.int64)),
                "f": pa.array(out["f"].to_numpy(np.int64)),
                "l": pa.array(out["l"].to_numpy(np.int64)),
                "p": pa.array(out["p"].to_numpy(np.int64)),
            }
        )

    users = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Min("f", alias_name="f"),
            Max("l", alias_name="l"),
            Min("p", alias_name="p"),
        )
    )
    utbl = pa.concat_tables(
        t
        for t in users.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    f = np.asarray(utbl["f"], np.int64)
    last = np.asarray(utbl["l"], np.int64)
    p = np.asarray(utbl["p"], np.int64)
    converted = p != SENT
    t_day = np.where(converted, (p - f) // DAY_US, (last - f) // DAY_US)
    evt = converted.astype(np.int64)
    # counts per time (deaths and all-at-time), then the KM recursion
    order = np.argsort(t_day, kind="stable")
    t_s, e_s = t_day[order], evt[order]
    starts = np.flatnonzero(
        np.concatenate([[True], t_s[1:] != t_s[:-1]])
    )
    tt = t_s[starts]
    n_all = np.diff(np.append(starts, len(t_s)))
    n_ev = np.add.reduceat(e_s, starts)
    n_total = len(t_day)
    n_risk = n_total - np.concatenate([[0], np.cumsum(n_all)[:-1]])
    factors = 1.0 - n_ev.astype(np.float64) / n_risk.astype(np.float64)
    surv = np.cumprod(factors)
    keep = n_ev > 0
    tol = 1e6
    sv = surv[keep]
    sv = np.sign(sv) * np.floor(np.abs(sv) * tol + 0.5) / tol
    return pa.table(
        {
            "t_day": pa.array(tt[keep]),
            "n_risk": pa.array(n_risk[keep]),
            "n_events": pa.array(n_ev[keep]),
            "survival": pa.array(sv),
        }
    )


def sql_events_survival() -> str:
    return f"""
WITH u AS (
  SELECT user_id, MIN(epoch_us(ts)) AS f, MAX(epoch_us(ts)) AS l,
         MIN(CASE WHEN event_type = 'purchase'
                  THEN epoch_us(ts) END) AS p
  FROM events GROUP BY user_id
),
t AS (
  SELECT CASE WHEN p IS NOT NULL THEN (p - f) // {DAY_US}
              ELSE (l - f) // {DAY_US} END AS t_day,
         CASE WHEN p IS NOT NULL THEN 1 ELSE 0 END AS ev
  FROM u
),
c AS (
  SELECT t_day, COUNT(*)::BIGINT AS n_all, SUM(ev)::BIGINT AS n_ev
  FROM t GROUP BY t_day
),
r AS (
  SELECT t_day, n_ev,
         (SELECT COUNT(*) FROM t)
           - COALESCE(SUM(n_all) OVER (ORDER BY t_day
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS n_risk
  FROM c
),
s AS (
  SELECT t_day, n_risk, n_ev,
         product(1.0::DOUBLE - n_ev::DOUBLE / n_risk::DOUBLE)
           OVER (ORDER BY t_day ROWS UNBOUNDED PRECEDING) AS surv
  FROM r
)
SELECT t_day::BIGINT AS t_day, n_risk::BIGINT AS n_risk,
       n_ev AS n_events, ROUND(surv * 1e6) / 1e6 AS survival
FROM s WHERE n_ev > 0
"""


STL_HALF = 3  #: centered moving-average half-width (7-day trend window)


@query("seasonal_decompose", sql=lambda: sql_events_seasonal_decompose())
def events_seasonal_decompose(sf_dir: str):
    """Classical additive seasonal decomposition of the daily total
    event count: trend = centered 7-day moving average (only days whose
    full d-3..d+3 calendar window exists), detrended = n - trend,
    seasonal = per-weekday mean of detrended CENTERED by the mean of
    the 7 weekday means, remainder = detrended - seasonal.

    The trend is EXACT (integer 7-day sum / 7.0); the weekday means are
    short float sums under the 6dp rounding protocol.  Plan: per-batch
    (day, n) combiner -> Sum groupby (day-span bounded) -> driver-final
    alignment, identical to events_acf."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        d, n = np.unique(day, return_counts=True)
        return pa.table({"d": pa.array(d), "n": pa.array(n.astype(np.int64))})

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("d")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    order = np.argsort(d)
    d, n = d[order], n[order]
    # full-window days: all of d-3..d+3 present (calendar law, not rows)
    s7 = np.zeros(len(d), np.int64)
    full = np.ones(len(d), bool)
    for off in range(-STL_HALF, STL_HALF + 1):
        pos = np.searchsorted(d, d + off)
        pos = np.clip(pos, 0, len(d) - 1)
        hit = d[pos] == d + off
        full &= hit
        s7 += np.where(hit, n[pos], 0)
    d, n, s7 = d[full], n[full], s7[full]
    if not len(d):
        return pa.table(
            {
                "d": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "trend": pa.array([], pa.float64()),
                "seasonal": pa.array([], pa.float64()),
                "remainder": pa.array([], pa.float64()),
            }
        )
    trend = s7.astype(np.float64) / 7.0
    det = n.astype(np.float64) - trend
    wd = d % 7
    means = np.full(7, np.nan)
    for w in range(7):
        sel = wd == w
        if sel.any():
            means[w] = det[sel].mean()
    grand = means[~np.isnan(means)].mean()
    seas = means - grand
    sv = seas[wd]
    rem = det - sv
    tol = 1e6

    def rnd(a):
        return np.sign(a) * np.floor(np.abs(a) * tol + 0.5) / tol

    return pa.table(
        {
            "d": pa.array(d),
            "n": pa.array(n),
            "trend": pa.array(rnd(trend)),
            "seasonal": pa.array(rnd(sv)),
            "remainder": pa.array(rnd(rem)),
        }
    )


def sql_events_seasonal_decompose() -> str:
    return f"""
WITH c AS (
  SELECT epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY d
),
t AS (
  SELECT a.d, a.n, SUM(b.n)::BIGINT AS s7, COUNT(*)::BIGINT AS c7
  FROM c a JOIN c b ON b.d BETWEEN a.d - {STL_HALF} AND a.d + {STL_HALF}
  GROUP BY a.d, a.n
),
dt AS (
  SELECT d, n, s7::DOUBLE / 7.0 AS tr,
         n::DOUBLE - s7::DOUBLE / 7.0 AS det
  FROM t WHERE c7 = 7
),
sw AS (SELECT d % 7 AS wd, AVG(det) AS s FROM dt GROUP BY wd),
sc AS (SELECT wd, s - (SELECT AVG(s) FROM sw) AS s FROM sw)
SELECT dt.d, dt.n,
       ROUND(tr * 1e6) / 1e6 AS trend,
       ROUND(sc.s * 1e6) / 1e6 AS seasonal,
       ROUND((det - sc.s) * 1e6) / 1e6 AS remainder
FROM dt JOIN sc ON sc.wd = dt.d % 7
"""


@query("type_jaccard", sql=lambda: sql_events_type_jaccard(), bench=True)
def events_type_jaccard(sf_dir: str, *, num_buckets: int | None = None):
    """Jaccard similarity between the USER SETS of every event-type
    pair: |users(a) n users(b)| / |users(a) u users(b)|, exact.

    Scale plan: distinct (user, type) per batch -> one coarse bucket
    shuffle on user hash -> per-bucket the user's type set emits every
    unordered type pair INCLUDING the diagonal (t, t), so one Sum
    groupby on (type_a, type_b) yields both the intersections and the
    per-type distinct-user counts; the T x T table finalizes
    driver-side.  Per-user work is a sorted scan — never a fine
    per-user group; pair volume is bounded by n_types^2 per user."""
    import ray.data as rd

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        et = np.asarray(b["event_type"]).astype(object)
        df = pd.DataFrame({"user_id": uid, "event_type": et})
        df = df.drop_duplicates()
        uid = df["user_id"].to_numpy(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_type": pa.array(df["event_type"], pa.string()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        et = np.asarray(t["event_type"], dtype=object)
        # distinct (user, type), types ascending within each user
        keep = np.append(True, et[1:] != et[:-1])
        keep[starts] = True
        uid = uid[keep]
        codes, types = pd.factorize(et[keep], sort=True)
        T = len(types)
        parts = []
        d = 0
        while True:
            if d >= len(uid):
                break
            same = uid[: len(uid) - d] == uid[d:] if d else np.ones(
                len(uid), bool
            )
            if not same.any():
                break
            a = codes[: len(codes) - d][same]
            b = codes[d:][same]
            parts.append(a * T + b)  # a <= b: codes ascend per user
            d += 1
        k = np.concatenate(parts)
        pk, cnt = np.unique(k, return_counts=True)
        return pd.DataFrame(
            {
                "type_a": types[pk // T],
                "type_b": types[pk % T],
                "n": cnt.astype(np.int64),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        segment_apply(
            ev.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema(
                {"type_a": pa.string(), "type_b": pa.string(), "n": pa.int64()}
            ),
            order=("event_type",),
            num_buckets=num_buckets,
        )
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    ta = np.asarray(tbl["type_a"]).astype(object)
    tb = np.asarray(tbl["type_b"]).astype(object)
    n = np.asarray(tbl["n"], np.int64)
    diag = {a: c for a, b, c in zip(ta, tb, n) if a == b}
    sel = ta != tb
    ta, tb, n = ta[sel], tb[sel], n[sel]
    na = np.array([diag[a] for a in ta], np.int64)
    nb = np.array([diag[b] for b in tb], np.int64)
    jac = n.astype(np.float64) / (na + nb - n).astype(np.float64)
    tol = 1e6
    jac = np.sign(jac) * np.floor(np.abs(jac) * tol + 0.5) / tol
    order = np.lexsort((tb, ta))
    return pa.table(
        {
            "type_a": pa.array(ta[order], pa.string()),
            "type_b": pa.array(tb[order], pa.string()),
            "n_both": pa.array(n[order]),
            "n_a": pa.array(na[order]),
            "n_b": pa.array(nb[order]),
            "jaccard": pa.array(jac[order]),
        }
    )


def sql_events_type_jaccard() -> str:
    return """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
p AS (
  SELECT a.event_type AS ta, b.event_type AS tb, COUNT(*)::BIGINT AS c
  FROM ut a JOIN ut b
    ON b.user_id = a.user_id AND a.event_type <= b.event_type
  GROUP BY ta, tb
)
SELECT i.ta AS type_a, i.tb AS type_b, i.c AS n_both,
       da.c AS n_a, db.c AS n_b,
       ROUND(i.c::DOUBLE / (da.c + db.c - i.c)::DOUBLE * 1e6) / 1e6
         AS jaccard
FROM p i
JOIN p da ON da.ta = i.ta AND da.tb = i.ta
JOIN p db ON db.ta = i.tb AND db.tb = i.tb
WHERE i.ta < i.tb
"""


@query("state_intervals", sql=lambda: sql_events_state_intervals())
def events_state_intervals(sf_dir: str, *, num_buckets: int | None = None):
    """SCD2-style interval coalescing (gaps-and-islands): the per-day
    state of each user is the day's LAST event type (ts DESC, event_id
    DESC tie law); consecutive-day runs with the same state merge into
    one (user, state, from_day, to_day, n_days) interval — a gap in
    days OR a state change breaks the run.

    Plan: one coarse user-hash bucket shuffle; per bucket one lexsort
    picks the last event per (user, day) and one vectorized break scan
    + reduceat builds the intervals.  Never a per-user group."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "event_type": b["event_type"],
                "us": us,
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        # ascending (user, us, eid), so (user, day) too: the LAST row of
        # each (user, day) run is the day's state
        uid = np.asarray(t["user_id"], np.int64)
        day = np.asarray(t["us"], np.int64) // DAY_US
        st = np.asarray(t["event_type"], dtype=object)
        last = np.empty(len(uid), bool)
        last[-1] = True
        last[:-1] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        uid, day, st = uid[last], day[last], st[last]
        brk = np.empty(len(uid), bool)
        brk[0] = True
        brk[1:] = (
            (uid[1:] != uid[:-1])
            | (day[1:] != day[:-1] + 1)
            | (st[1:] != st[:-1])
        )
        runs = np.flatnonzero(brk)
        ends = np.append(runs[1:], len(uid)) - 1
        return pd.DataFrame(
            {
                "user_id": uid[runs],
                "state": st[runs],
                "from_day": day[runs],
                "to_day": day[ends],
                "n_days": ends - runs + 1,
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "state": pa.string(), "from_day": pa.int64(),
             "to_day": pa.int64(), "n_days": pa.int64()}
        ),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_state_intervals() -> str:
    return f"""
WITH m AS (
  SELECT user_id, day, state FROM (
    SELECT user_id, epoch_us(ts) // {DAY_US} AS day,
           event_type AS state,
           ROW_NUMBER() OVER (
             PARTITION BY user_id, epoch_us(ts) // {DAY_US}
             ORDER BY ts DESC, event_id DESC) AS r
    FROM events) WHERE r = 1
),
g AS (
  SELECT user_id, day, state,
         CASE WHEN LAG(day) OVER w = day - 1
               AND LAG(state) OVER w = state THEN 0 ELSE 1 END AS brk
  FROM m WINDOW w AS (PARTITION BY user_id ORDER BY day)
),
i AS (
  SELECT user_id, day, state,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY day) AS grp
  FROM g
)
SELECT user_id, state, MIN(day)::BIGINT AS from_day,
       MAX(day)::BIGINT AS to_day, COUNT(*)::BIGINT AS n_days
FROM i GROUP BY user_id, state, grp
"""


HOLT_ALPHA = 0.5  #: level gain (dyadic: exact in both engines)
HOLT_BETA = 0.3


@query("holt_linear", sql=lambda: sql_events_holt_linear())
def events_holt_linear(sf_dir: str):
    """Holt double exponential smoothing of the daily total event
    count: l_t = a*n_t + (1-a)*(l+b), b_t = B*(l_t - l) + (1-B)*b, with
    l_1 = n_1, b_1 = n_2 - n_1; reports level, trend and the one-step
    fitted forecast (l+b of the previous step) from the 2nd day on.

    The recursion is sequential BY LAW (each value feeds the next), so
    both sides run it in day order with identical expressions —
    bit-exact before the shared 6dp rounding.  Day-count reduce is the
    events_acf combiner; the recursion itself is day-span-bounded
    driver work (the CUSUM/IPF precedent)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        d, n = np.unique(day, return_counts=True)
        return pa.table({"d": pa.array(d), "n": pa.array(n.astype(np.int64))})

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("d")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    order = np.argsort(d)
    d, n = d[order], n[order]
    cols = {"d": [], "n": [], "level": [], "trend": [], "fitted": []}
    if len(d) >= 2:
        a, B = HOLT_ALPHA, HOLT_BETA
        lv = float(n[0])
        bv = float(n[1]) - float(n[0])
        for t in range(1, len(d)):
            fit = lv + bv
            nl = a * float(n[t]) + (1.0 - a) * (lv + bv)
            bv = B * (nl - lv) + (1.0 - B) * bv
            lv = nl
            cols["d"].append(int(d[t]))
            cols["n"].append(int(n[t]))
            cols["level"].append(lv)
            cols["trend"].append(bv)
            cols["fitted"].append(fit)
    tol = 1e6

    def rnd(v):
        x = np.asarray(v, np.float64)
        return np.sign(x) * np.floor(np.abs(x) * tol + 0.5) / tol

    return pa.table(
        {
            "d": pa.array(cols["d"], pa.int64()),
            "n": pa.array(cols["n"], pa.int64()),
            "level": pa.array(rnd(cols["level"]), pa.float64()),
            "trend": pa.array(rnd(cols["trend"]), pa.float64()),
            "fitted": pa.array(rnd(cols["fitted"]), pa.float64()),
        }
    )


def sql_events_holt_linear() -> str:
    a, B = HOLT_ALPHA, HOLT_BETA
    return f"""
WITH RECURSIVE c AS (
  SELECT epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY d
),
o AS (
  SELECT d, n, ROW_NUMBER() OVER (ORDER BY d) AS rn FROM c
),
h(rn, d, n, fit, l, b) AS (
  SELECT o2.rn, o2.d, o2.n,
         o1.n::DOUBLE + (o2.n::DOUBLE - o1.n::DOUBLE),
         {a!r}::DOUBLE * o2.n::DOUBLE
           + (1.0 - {a!r}::DOUBLE) * (o1.n::DOUBLE + (o2.n::DOUBLE - o1.n::DOUBLE)),
         {B!r}::DOUBLE * (({a!r}::DOUBLE * o2.n::DOUBLE
                   + (1.0 - {a!r}::DOUBLE) * (o1.n::DOUBLE
                       + (o2.n::DOUBLE - o1.n::DOUBLE)))
                  - o1.n::DOUBLE)
           + (1.0 - {B!r}::DOUBLE) * (o2.n::DOUBLE - o1.n::DOUBLE)
  FROM o o1 JOIN o o2 ON o1.rn = 1 AND o2.rn = 2
  UNION ALL
  SELECT o.rn, o.d, o.n,
         h.l + h.b,
         {a!r}::DOUBLE * o.n::DOUBLE + (1.0 - {a!r}::DOUBLE) * (h.l + h.b),
         {B!r}::DOUBLE * (({a!r}::DOUBLE * o.n::DOUBLE + (1.0 - {a!r}::DOUBLE) * (h.l + h.b)) - h.l)
           + (1.0 - {B!r}::DOUBLE) * h.b
  FROM h JOIN o ON o.rn = h.rn + 1
)
SELECT d, n, ROUND(l * 1e6) / 1e6 AS level, ROUND(b * 1e6) / 1e6 AS trend,
       ROUND(fit * 1e6) / 1e6 AS fitted
FROM h
"""


MARKOV_ITERS = 8


@query("transition_stationary", sql=lambda: sql_events_transition_stationary())
def events_transition_stationary(sf_dir: str, *, iters: int = MARKOV_ITERS):
    """Approximate stationary distribution of the event-type Markov
    chain: row-normalize the transition counts (sink types get a
    self-loop, the standard stochastic fix), start uniform over all
    observed types, apply v' = vP for {MARKOV_ITERS} iterations.

    The transition reduce is :func:`events_transitions` (one coarse
    bucket pass); the chain itself is n_types^2 — driver-final by
    construction at any corpus size."""
    counts = pa.concat_tables(
        t
        for t in events_transitions(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
        if t.num_rows
    )
    src = np.asarray(counts["src"]).astype(object)
    dst = np.asarray(counts["dst"]).astype(object)
    n = np.asarray(counts["n"], np.int64)
    types = np.unique(np.concatenate([src, dst]))
    tix = {t: i for i, t in enumerate(types)}
    T = len(types)
    si = np.array([tix[t] for t in src], np.int64)
    di = np.array([tix[t] for t in dst], np.int64)
    rowsum = np.zeros(T, np.int64)
    np.add.at(rowsum, si, n)
    P = np.zeros((T, T))
    P[si, di] = n.astype(np.float64) / rowsum[si].astype(np.float64)
    sinks = rowsum == 0
    P[sinks, sinks] = 1.0
    v = np.full(T, 1.0 / T)
    for _ in range(iters):
        v = v @ P
    tol = 1e6
    v = np.sign(v) * np.floor(np.abs(v) * tol + 0.5) / tol
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "stationary": pa.array(v, pa.float64()),
        }
    )


def sql_events_transition_stationary(iters: int = MARKOV_ITERS) -> str:
    ctes = [
        """tr AS (
  SELECT src, dst, COUNT(*)::BIGINT AS n FROM (
    SELECT event_type AS src,
           LEAD(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS dst
    FROM events) WHERE dst IS NOT NULL GROUP BY src, dst
)""",
        "ty AS (SELECT DISTINCT src AS t FROM tr"
        " UNION SELECT DISTINCT dst FROM tr)",
        "rs AS (SELECT src, SUM(n)::BIGINT AS s FROM tr GROUP BY src)",
        "p AS (SELECT tr.src, tr.dst, tr.n::DOUBLE / rs.s::DOUBLE AS p"
        " FROM tr JOIN rs USING (src)"
        " UNION ALL"
        " SELECT t, t, 1.0::DOUBLE FROM ty"
        " WHERE t NOT IN (SELECT src FROM tr))",
        "v0 AS (SELECT t, 1.0::DOUBLE / (SELECT COUNT(*) FROM ty)::DOUBLE"
        " AS s FROM ty)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"v{k} AS (SELECT p.dst AS t, SUM(v.s * p.p) AS s"
            f" FROM p JOIN v{k - 1} v ON v.t = p.src GROUP BY p.dst)"
        )
    # LEFT JOIN back onto the type set: a type with no incoming edges
    # drops out of the iterated CTEs but holds an exact 0.0 in the
    # numpy vector
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT ty.t AS event_type,"
        f" ROUND(COALESCE(v.s, 0.0) * 1e6) / 1e6 AS stationary"
        f" FROM ty LEFT JOIN v{iters} v ON v.t = ty.t"
    )


ATTR_WINDOW_US = 7 * DAY_US  #: attribution lookback
ATTR_TOUCHES = ("view", "click")  #: channels eligible for credit


@query("attribution", sql=lambda: sql_events_attribution())
def events_attribution(sf_dir: str, *, num_buckets: int | None = None):
    """Last-touch attribution: each ``purchase`` credits the user's
    latest preceding touch event (view/click) within the lookback
    window; purchases with no eligible touch fall into the ``direct``
    channel.  Ties on timestamp break by highest event_id (the LAST
    row in (ts, event_id) order).  Output per channel: attributed
    purchase count and summed value (2dp money law).

    Plan: one coarse user-hash bucket pass; per bucket one lexsort,
    then a vectorized last-touch scan (cummax of touch indices along
    the ordered stream) — never a per-user group or a join."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts", "value"],
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "event_type": b["event_type"],
                "us": us,
                "value": pc.cast(b["value"], pa.float64()),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        us = np.asarray(t["us"], np.int64)
        et = np.asarray(t["event_type"], dtype=object)
        val = np.asarray(t["value"], np.float64)
        is_touch = np.isin(et, list(ATTR_TOUCHES))
        is_purch = et == "purchase"
        n = len(us)
        idx = np.arange(n)
        # latest touch index at-or-before each row, per user: segmented
        # cummax over touch positions (user changes reset the running max)
        user_start = np.zeros(n, bool)
        user_start[starts] = True
        seg = np.cumsum(user_start) - 1
        # reset cummax per segment: offset trick — add seg * n so maxima
        # never cross users, subtract after
        biased = np.where(is_touch, idx + seg * n, -1)
        run = np.maximum.accumulate(biased)
        last_touch = run - seg * n
        last_touch = np.where(run >= seg * n, last_touch, -1)
        pi = np.flatnonzero(is_purch)
        lt = last_touch[pi]
        ok = lt >= 0
        ok[ok] &= (us[pi[ok]] - us[lt[ok]]) <= ATTR_WINDOW_US
        channel = np.where(ok, et[np.clip(lt, 0, None)], "direct")
        dfp = pd.DataFrame(
            {"channel": channel.astype(object), "v": val[pi]}
        )
        g2 = dfp.groupby("channel", sort=False).agg(
            n=("v", "size"), s=("v", "sum")
        )
        out = g2.reset_index()
        return pd.DataFrame(
            {
                "channel": out["channel"],
                "n": out["n"].astype(np.int64),
                "s": out["s"].astype(np.float64),
            }
        )

    agg = (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"channel": pa.string(), "n": pa.int64(), "s": pa.float64()}),
            order=("us", "event_id"),
            num_buckets=num_buckets,
        )
        .groupby("channel")
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    s = np.asarray(tbl["s"], np.float64)
    s = np.sign(s) * np.floor(np.abs(s) * 100.0 + 0.5) / 100.0
    return pa.table(
        {
            "channel": tbl["channel"],
            "n_purchases": tbl["n"],
            "revenue": pa.array(s),
        }
    )


def sql_events_attribution() -> str:
    touches = ", ".join(f"'{t}'" for t in ATTR_TOUCHES)
    return f"""
WITH s AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS us, value,
         CASE WHEN event_type IN ({touches})
              THEN ROW_NUMBER() OVER w END AS tix,
         ROW_NUMBER() OVER w AS rix
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
lt AS (
  SELECT user_id, rix, us, value, event_type,
         MAX(tix) OVER (PARTITION BY user_id ORDER BY rix
                        ROWS UNBOUNDED PRECEDING) AS last_tix
  FROM s
),
att AS (
  SELECT p.value,
         CASE WHEN t.us IS NOT NULL AND p.us - t.us <= {ATTR_WINDOW_US}
              THEN t.event_type ELSE 'direct' END AS channel
  FROM lt p
  LEFT JOIN s t ON t.user_id = p.user_id AND t.tix = p.last_tix
  WHERE p.event_type = 'purchase'
)
SELECT channel, COUNT(*)::BIGINT AS n_purchases,
       ROUND(SUM(value) * 1e2) / 1e2 AS revenue
FROM att GROUP BY channel
"""


# ---------------------------------------------------------------------------
# line x grid overlay: per-cell trajectory length (Liang-Barsky family)
# ---------------------------------------------------------------------------

PCL_CELL = 50_000.0


@query("path_cell_length", sql=lambda: sql_events_path_cell_length(), bench=True)
def events_path_cell_length(
    sf_dir: str, *, cell: float = PCL_CELL, num_buckets: int | None = None
):
    """Per-cell trajectory length: every consecutive same-user step (the
    ``events_trajectory`` segment law) is clipped against the regular
    ``cell``-sized grid and each crossed cell accumulates the length of
    the piece inside it — the line x polygon overlay primitive the
    reference's polygon-only overlay lacks, for axis-aligned cells.

    Scale shape: ONE coarse user-hash bucket shuffle (segments need
    consecutive per-user events), then a single vectorized per-bucket
    pass — grid-line crossing parameters are generated with a ragged
    arange (``kx+ky`` crossings per segment, no per-segment Python),
    sorted once per bucket, pieces resolved by midpoint cell; per-cell
    partial sums leave each bucket and a tiny (ix, iy) groupby
    finishes.  Every float expression (crossing t, midpoint, piece
    length) is mirrored term-for-term in the SQL twin; the 2dp output
    rounding dwarfs summation-order noise on ~1e5-scale lengths."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..synth import derive_xy
    from .queries import round_half_away

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        uid = np.asarray(b["user_id"], np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(tb: pa.Table, starts: np.ndarray) -> pd.DataFrame | None:
        uid = np.asarray(tb["user_id"], np.int64)
        x = np.asarray(tb["x"], np.float64)
        y = np.asarray(tb["y"], np.float64)
        same = uid[1:] == uid[:-1]
        x1, y1 = x[:-1][same], y[:-1][same]
        x2, y2 = x[1:][same], y[1:][same]
        n = len(x1)
        if n == 0:
            return None
        dx, dy = x2 - x1, y2 - y1
        seglen = np.sqrt(dx * dx + dy * dy)
        fx1, fx2 = np.floor(x1 / cell), np.floor(x2 / cell)
        fy1, fy2 = np.floor(y1 / cell), np.floor(y2 / cell)
        lix, kx = np.minimum(fx1, fx2), np.abs(fx2 - fx1).astype(np.int64)
        liy, ky = np.minimum(fy1, fy2), np.abs(fy2 - fy1).astype(np.int64)

        def crossings(lo, k, p1, dp):
            idx = np.repeat(np.arange(n), k)
            if not len(idx):
                return idx, np.zeros(0, np.float64)
            cum0 = np.concatenate([[0], np.cumsum(k)[:-1]])
            r = np.arange(len(idx)) - np.repeat(cum0, k)
            grid = (lo[idx] + (r + 1)) * cell
            return idx, (grid - p1[idx]) / dp[idx]

        ix_idx, tx = crossings(lix, kx, x1, dx)
        iy_idx, ty = crossings(liy, ky, y1, dy)
        seg = np.concatenate([ix_idx, iy_idx, np.arange(n)])
        t = np.concatenate([tx, ty, np.ones(n)])
        o2 = np.lexsort((t, seg))
        seg, t = seg[o2], t[o2]
        first = np.concatenate([[True], seg[1:] != seg[:-1]])
        prev = np.where(first, 0.0, np.concatenate([[0.0], t[:-1]]))
        tm = (prev + t) / 2.0
        px = x1[seg] + dx[seg] * tm
        py = y1[seg] + dy[seg] * tm
        plen = (t - prev) * seglen[seg]
        cix = np.floor(px / cell).astype(np.int64)
        ciy = np.floor(py / cell).astype(np.int64)
        packed = cix * 1_000_003 + ciy
        uk, inv = np.unique(packed, return_inverse=True)
        sums = np.bincount(inv, weights=plen, minlength=len(uk))
        return pd.DataFrame(
            {
                "ix": uk // 1_000_003,
                "iy": uk % 1_000_003,
                "total_len": sums,
            }
        )

    agg = (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"ix": pa.int64(), "iy": pa.int64(), "total_len": pa.float64()}),
            order=("us", "event_id"),
            num_buckets=num_buckets,
        )
        .groupby(["ix", "iy"])
        .aggregate(Sum("total_len", alias_name="total_len"))
        .map_batches(
            lambda b: round_half_away(b, ["total_len"], 2),
            batch_format="pyarrow",
        )
    )
    return agg.sort(["ix", "iy"])


def sql_events_path_cell_length(cell: float = PCL_CELL) -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    cs = f"{cell!r}"
    return f"""
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
seg AS (
  SELECT event_id,
         LAG(x) OVER w AS x1, LAG(y) OVER w AS y1, x AS x2, y AS y2
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
),
s AS (
  SELECT event_id AS sid, x1, y1, x2 - x1 AS dx, y2 - y1 AS dy,
         SQRT((x2-x1)*(x2-x1) + (y2-y1)*(y2-y1)) AS len,
         LEAST(FLOOR(x1/{cs}), FLOOR(x2/{cs})) AS lix,
         ABS(FLOOR(x2/{cs}) - FLOOR(x1/{cs}))::BIGINT AS kx,
         LEAST(FLOOR(y1/{cs}), FLOOR(y2/{cs})) AS liy,
         ABS(FLOOR(y2/{cs}) - FLOOR(y1/{cs}))::BIGINT AS ky
  FROM seg WHERE x1 IS NOT NULL
),
tx AS (
  SELECT sid, ((lix + g) * {cs} - x1) / dx AS t
  FROM (SELECT sid, lix, x1, dx,
               UNNEST(generate_series(1, kx)) AS g FROM s WHERE kx > 0) gx
  UNION ALL
  SELECT sid, ((liy + g) * {cs} - y1) / dy AS t
  FROM (SELECT sid, liy, y1, dy,
               UNNEST(generate_series(1, ky)) AS g FROM s WHERE ky > 0) gy
  UNION ALL
  SELECT sid, 1.0 AS t FROM s
),
sub AS (
  SELECT sid, t, LAG(t, 1, 0.0) OVER (PARTITION BY sid ORDER BY t) AS t0
  FROM tx
),
pieces AS (
  SELECT FLOOR((s.x1 + s.dx * ((sub.t0 + sub.t) / 2.0)) / {cs})::BIGINT AS ix,
         FLOOR((s.y1 + s.dy * ((sub.t0 + sub.t) / 2.0)) / {cs})::BIGINT AS iy,
         (sub.t - sub.t0) * s.len AS plen
  FROM sub JOIN s USING (sid)
)
SELECT ix, iy, ROUND(SUM(plen) * 1e2) / 1e2 AS total_len
FROM pieces GROUP BY ix, iy ORDER BY ix, iy
"""


# ---------------------------------------------------------------------------
# streaming watermark: late-event accounting over an out-of-order stream
# ---------------------------------------------------------------------------

WM_HORIZON_US = 15 * 24 * 3_600_000_000  # lateness allowance
WM_WIN_US = 3_600_000_000  # 1 h tumbling windows
WM_MULT = KNUTH_MULT
WM_MOD = 4294967296


@query("events_watermark", sql=lambda: sql_events_watermark(), bench=True)
def events_watermark(sf_dir: str, *, num_buckets: int | None = None):
    """Streaming high-watermark lateness accounting: events "arrive" in
    the deterministic hash-shuffle order (``(event_id * WM_MULT) %
    WM_MOD``, ties by event_id — the ``shuffle_pos`` law; the raw table
    is time-ordered so hash order simulates the out-of-order stream),
    the watermark is the running max event-time over STRICT predecessors
    minus ``WM_HORIZON_US``, and each tumbling window reports total vs
    late arrivals — the drop-accounting a production streaming sink
    keeps.

    Scale shape: the prefix-cummax is a two-pass range-bucket plan (the
    ``pack.global prefix sum`` shape): arrival keys range-bucket into
    ``num_buckets`` ORDERED buckets; pass 1 reduces per-bucket max
    event-times (one tiny groupby) and the driver folds the 64-entry
    strict-prefix table; pass 2 re-buckets, runs one vectorized
    sort + shifted cummax per bucket seeded with its prefix, and emits
    per-window (total, late) partials into a tiny window groupby.  No
    global sort, no per-event Python."""
    num_buckets = _resolve_buckets(num_buckets)
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        a = (
            (eid.astype(np.uint64) * np.uint64(WM_MULT))
            % np.uint64(WM_MOD)
        ).astype(np.int64)
        us = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        )
        return pa.table(
            {
                "event_id": pa.array(eid),
                "a": pa.array(a),
                "us": pa.array(us),
                "bid": pa.array((a * num_buckets) // WM_MOD),
            }
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    # pass 1: per-bucket max event-time -> driver strict-prefix fold.
    # The partials are (<= num_buckets) rows PER BATCH; folding them on
    # the driver (a few thousand int64 rows) replaces a Ray sort
    # aggregate whose fixed per-partition overhead dwarfed the work
    # (measured 7 s of overhead on 46k-row inputs at sf0.1).
    partials = tagged.map_batches(
        lambda b: pa.table(
            {
                "bid": pa.array(
                    np.unique(np.asarray(b["bid"], np.int64))
                ),
                "mx": pa.array(
                    pd.DataFrame(
                        {
                            "b": np.asarray(b["bid"], np.int64),
                            "u": np.asarray(b["us"], np.int64),
                        }
                    )
                    .groupby("b", sort=True)["u"]
                    .max()
                    .to_numpy(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )
    bmax = to_frame(partials, pa.schema({"bid": pa.int64(), "mx": pa.int64()}))
    prefix = np.full(num_buckets, np.iinfo(np.int64).min, dtype=np.int64)
    pb = bmax["bid"].to_numpy(np.int64)
    pm = bmax["mx"].to_numpy(np.int64)
    run = np.iinfo(np.int64).min
    for b in range(num_buckets):
        prefix[b] = run
        sel = pb == b
        if sel.any():
            run = max(run, int(pm[sel].max()))

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        # one segment per range bucket (at most num_buckets in all), each
        # in arrival order and seeded with its strict-prefix max
        bid = np.asarray(t["bid"], np.int64)
        us = np.asarray(t["us"], np.int64)
        shifted = np.concatenate([[0], us[:-1]])
        shifted[starts] = prefix[bid[starts]]
        ends = np.append(starts[1:], len(us))
        hwm = np.concatenate(
            [np.maximum.accumulate(shifted[a:b]) for a, b in zip(starts, ends)]
        )
        valid = hwm != np.iinfo(np.int64).min
        late = valid & (us < hwm - WM_HORIZON_US)
        win = (us // WM_WIN_US) * WM_WIN_US
        uw, inv = np.unique(win, return_inverse=True)
        return pd.DataFrame(
            {
                "win_us": uw,
                "n_total": np.bincount(inv, minlength=len(uw)).astype(
                    np.int64
                ),
                "n_late": np.bincount(
                    inv, weights=late.astype(np.float64), minlength=len(uw)
                ).astype(np.int64),
            }
        )

    # the per-bucket partials are <= num_buckets x n_windows rows
    # (calendar-bounded), so the final window sum is a driver fold —
    # the Ray aggregate alternative paid ~7 s of fixed overhead for
    # 46k rows at sf0.1.
    schema = pa.schema({"win_us": pa.int64(), "n_total": pa.int64(), "n_late": pa.int64()})
    part = to_frame(segment_apply(
        tagged, "bid", kernel, schema, order=("a", "event_id"), num_buckets=num_buckets
    ), schema)
    win = part["win_us"].to_numpy(np.int64)
    uw, inv = np.unique(win, return_inverse=True)
    n_total = np.bincount(
        inv, weights=part["n_total"].to_numpy(np.float64), minlength=len(uw)
    ).astype(np.int64)
    n_late = np.bincount(
        inv, weights=part["n_late"].to_numpy(np.float64), minlength=len(uw)
    ).astype(np.int64)
    return pa.table(
        {
            "win_us": pa.array(uw),
            "n_total": pa.array(n_total),
            "n_late": pa.array(n_late),
        }
    )


def sql_events_watermark() -> str:
    return f"""
WITH m AS (
  SELECT epoch_us(ts) AS us,
         MAX(epoch_us(ts)) OVER (
             ORDER BY (event_id * {WM_MULT}) % {WM_MOD}, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS hwm
  FROM events)
SELECT (us // {WM_WIN_US}) * {WM_WIN_US} AS win_us,
       COUNT(*)::BIGINT AS n_total,
       SUM(CASE WHEN hwm IS NOT NULL AND us < hwm - {WM_HORIZON_US}
                THEN 1 ELSE 0 END)::BIGINT AS n_late
FROM m GROUP BY win_us ORDER BY win_us
"""


@query("events_seasonal", sql=lambda: sql_events_seasonal(), bench=True)
def events_seasonal(sf_dir: str):
    """Classical seasonal decomposition of the daily event-count series:
    ``trend`` = centered 7-ROW moving average over the day-sorted series
    (NULL at the edges where the window is incomplete — the positional
    ROWS law, well-defined on both sides even with calendar gaps),
    ``seasonal`` = day-of-week mean of the detrended values,
    ``resid = n - trend - seasonal``; 6dp half-away outputs.

    Plan: per-batch (day, n) combiners -> the bounded-cardinality Sum
    groupby (days are span-bounded, never corpus-bounded) -> driver-final
    vectorized decomposition on the tiny daily table.  The 7-day sum is
    INTEGER (exact both sides); detrended means differ only by float
    summation order, absorbed by the rounding step."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import round_half_away

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        d, n = np.unique(day, return_counts=True)
        return pa.table(
            {"d": pa.array(d), "n": pa.array(n.astype(np.int64))}
        )

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("d")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    order = np.argsort(d)
    d, n = d[order], n[order]
    m = len(d)
    trend = np.full(m, np.nan)
    if m >= 7:
        win = np.convolve(n.astype(np.int64), np.ones(7, np.int64),
                          mode="valid")  # integer 7-row sums, exact
        trend[3 : m - 3] = win.astype(np.float64) / 7.0
    has_t = ~np.isnan(trend)
    dow = d % 7
    detr = n - trend  # NaN where trend undefined
    seas = np.full(7, np.nan)
    for w in range(7):
        sel = has_t & (dow == w)
        if sel.any():
            seas[w] = detr[sel].sum() / sel.sum()
    seasonal = seas[dow]
    has_s = ~np.isnan(seasonal)
    resid = n - trend - seasonal
    out = pa.table(
        {
            "day": pa.array(d),
            "n": pa.array(n),
            "dow": pa.array(dow),
            "trend": pa.array(
                np.where(has_t, trend, 0.0), pa.float64(), mask=~has_t
            ),
            "seasonal": pa.array(
                np.where(has_s, seasonal, 0.0), pa.float64(),
                mask=~has_s,
            ),
            "resid": pa.array(
                np.where(has_t & has_s, resid, 0.0), pa.float64(),
                mask=~(has_t & has_s),
            ),
        }
    )
    return round_half_away(out, ["trend", "seasonal", "resid"], 6)


def sql_events_seasonal() -> str:
    return f"""
WITH c AS (
  SELECT epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY d
),
t AS (
  SELECT d, n,
         SUM(n) OVER (ORDER BY d
             ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)::DOUBLE
           / 7.0 AS trend,
         COUNT(*) OVER (ORDER BY d
             ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w
  FROM c
),
t2 AS (SELECT d, n, CASE WHEN w = 7 THEN trend END AS trend FROM t),
s AS (
  SELECT d % 7 AS dow, SUM(n - trend) / COUNT(*) AS seas
  FROM t2 WHERE trend IS NOT NULL GROUP BY dow
)
SELECT t2.d AS day, t2.n AS n, t2.d % 7 AS dow,
       CASE WHEN t2.trend IS NOT NULL
            THEN ROUND(t2.trend * 1e6) / 1e6 END AS trend,
       CASE WHEN s.seas IS NOT NULL
            THEN ROUND(s.seas * 1e6) / 1e6 END AS seasonal,
       CASE WHEN t2.trend IS NOT NULL AND s.seas IS NOT NULL
            THEN ROUND((t2.n - t2.trend - s.seas) * 1e6) / 1e6
       END AS resid
FROM t2 LEFT JOIN s ON s.dow = t2.d % 7
"""


@query("events_scd2", sql=lambda: sql_events_scd2())
def events_scd2(sf_dir: str, *, num_buckets: int | None = None):
    """SCD2-style change-interval build (the warehouse history table):
    per user, consecutive runs of equal ``event_type`` in (ts,
    event_id) order collapse to validity intervals — (user_id,
    event_type, valid_from_us, valid_to_us, n_events), where
    ``valid_to_us`` is the first timestamp of the NEXT run (NULL while
    current).

    Plan: ONE coarse user-hash bucket shuffle (the sessionize shape),
    one lexsort per bucket, vectorized run-boundary detection +
    reduceat counts — zero joins, zero per-user Python."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )

    def tag(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        uid = np.asarray(b["user_id"], dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": us,
                "event_type": b["event_type"],
            }
        )

    def kernel(t: pa.Table, user_starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        us = np.asarray(t["us"], np.int64)
        typ = np.asarray(t["event_type"], dtype=object)
        chg = np.concatenate([[True], typ[1:] != typ[:-1]])
        chg[user_starts] = True
        starts = np.flatnonzero(chg)
        n = np.diff(np.append(starts, len(uid))).astype(np.int64)
        vfrom = us[starts]
        # valid_to = next run's first ts when the next run is the SAME
        # user, else NULL
        nxt = np.empty(len(starts), np.int64)
        nxt[:-1] = vfrom[1:]
        nxt[-1] = 0
        same_user = np.zeros(len(starts), bool)
        if len(starts) > 1:
            same_user[:-1] = uid[starts[1:]] == uid[starts[:-1]]
        # float64 with NaN for open intervals: BIGINT-with-NULL comes
        # back float64 from the oracle, and epoch-us values sit far
        # below 2^53 so the float render is exact
        vto = np.where(same_user, nxt.astype(np.float64), np.nan)
        return pd.DataFrame(
            {
                "user_id": uid[starts],
                "event_type": typ[starts],
                "valid_from_us": vfrom,
                "valid_to_us": vto,
                "n_events": n,
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "event_type": pa.string(),
             "valid_from_us": pa.int64(), "valid_to_us": pa.float64(),
             "n_events": pa.int64()}
        ),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    )


def sql_events_scd2() -> str:
    return """
WITH o AS (
  SELECT user_id, event_type, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         CASE WHEN LAG(event_type) OVER (
                PARTITION BY user_id ORDER BY ts, event_id)
              IS DISTINCT FROM event_type THEN 1 ELSE 0 END AS chg
  FROM events),
g AS (
  SELECT *, SUM(chg) OVER (
    PARTITION BY user_id ORDER BY rn) AS run FROM o),
r AS (
  SELECT user_id, run, MIN(event_type) AS event_type,
         MIN(us)::BIGINT AS valid_from_us, COUNT(*)::BIGINT AS n_events
  FROM g GROUP BY user_id, run)
SELECT user_id, event_type, valid_from_us,
       LEAD(valid_from_us) OVER (
         PARTITION BY user_id ORDER BY run) AS valid_to_us,
       n_events
FROM r
"""


@query("events_changepoint", sql=lambda: sql_events_changepoint())
def events_changepoint(sf_dir: str):
    """Single change-point detection on the daily event-count series
    (binary segmentation, k = 1): the split day t* that maximizes the
    between-segment sum-of-squares reduction
    ``gain(t) = S1^2/n1 + S2^2/n2 - S^2/n`` (S = integer day-count
    sums — the classic CUSUM-equivalent form, EXACT integer numerators
    over float divisions in fixed order).  Output: one row
    (split_day, n_left, n_right, mean_left, mean_right, gain), ties to
    the EARLIEST split day.

    Plan: the events_seasonal shape — (day, n) combiners -> bounded Sum
    groupby -> driver-final vectorized prefix scan over the tiny daily
    table."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import round_half_away

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        d, n = np.unique(day, return_counts=True)
        return pa.table(
            {"d": pa.array(d), "n": pa.array(n.astype(np.int64))}
        )

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("d")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    order = np.argsort(d)
    d, n = d[order], n[order]
    m = len(d)
    if m < 2:
        raise ValueError("changepoint needs >= 2 observed days")
    cs = np.cumsum(n)
    S = int(cs[-1])
    n1 = np.arange(1, m, dtype=np.int64)        # left sizes (rows, not days)
    S1 = cs[:-1].astype(np.float64)
    n2 = (m - n1).astype(np.int64)
    S2 = (S - cs[:-1]).astype(np.float64)
    gain = (
        S1 * S1 / n1 + S2 * S2 / n2 - (float(S) * float(S)) / float(m)
    )
    tol = 1e6
    gain_r = np.sign(gain) * np.floor(np.abs(gain) * tol + 0.5) / tol
    best = int(np.lexsort((d[:-1], -gain_r))[0])
    out = pa.table(
        {
            "split_day": pa.array([int(d[best])], pa.int64()),
            "n_left": pa.array([int(n1[best])], pa.int64()),
            "n_right": pa.array([int(n2[best])], pa.int64()),
            "mean_left": pa.array(
                [float(S1[best]) / float(n1[best])], pa.float64()
            ),
            "mean_right": pa.array(
                [float(S2[best]) / float(n2[best])], pa.float64()
            ),
            "gain": pa.array([float(gain_r[best])], pa.float64()),
        }
    )
    return round_half_away(out, ["mean_left", "mean_right"], 6)


def sql_events_changepoint() -> str:
    return f"""
WITH c AS (
  SELECT epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY d
),
p AS (
  SELECT d, n,
         SUM(n) OVER (ORDER BY d)::DOUBLE AS s1,
         ROW_NUMBER() OVER (ORDER BY d)::BIGINT AS n1,
         (SELECT SUM(n) FROM c)::DOUBLE AS s,
         (SELECT COUNT(*) FROM c)::BIGINT AS m
  FROM c
),
g AS (
  SELECT d AS split_day, n1 AS n_left, (m - n1)::BIGINT AS n_right,
         s1, (s - s1) AS s2,
         ROUND((s1 * s1 / n1 + (s - s1) * (s - s1) / (m - n1)
                - (s * s) / m) * 1e6) / 1e6 AS gain
  FROM p WHERE n1 < m
)
SELECT split_day, n_left, n_right,
       ROUND(s1 / n_left * 1e6) / 1e6 AS mean_left,
       ROUND(s2 / n_right * 1e6) / 1e6 AS mean_right,
       gain
FROM g ORDER BY gain DESC, split_day ASC LIMIT 1
"""


@query("events_did", sql=lambda: sql_events_did())
def events_did(sf_dir: str):
    """Difference-in-differences estimator over the event stream: the
    2x2 (treatment = user_id % 2, post = day >= cutoff) cell means of
    ``value``, cutoff = (min_day + max_day + 1) // 2, and
    ``did = (t_post - t_pre) - (c_post - c_pre)`` computed from the
    6dp-ROUNDED cell means (so both sides difference bit-identical
    inputs).  One pass of per-(treat, day) combiners -> bounded Sum
    groupby -> driver 2x2 fold."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        treat = np.asarray(b["user_id"], np.int64) % 2
        val = np.asarray(b["value"], np.float64)
        key = treat * (1 << 32) + day
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        starts = np.flatnonzero(
            np.concatenate([[True], key[1:] != key[:-1]])
        )
        return pa.table(
            {
                "k": pa.array(key[starts]),
                "n": pa.array(
                    np.diff(np.append(starts, len(key))).astype(np.int64)
                ),
                "s": pa.array(np.add.reduceat(val, starts)),
            }
        )

    agg = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    k = np.asarray(tbl["k"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    s = np.asarray(tbl["s"], np.float64)
    treat = k >> 32
    day = k & ((1 << 32) - 1)
    cutoff = (int(day.min()) + int(day.max()) + 1) // 2
    post = (day >= cutoff).astype(np.int64)
    mu = np.zeros((2, 2))
    nn = np.zeros((2, 2), np.int64)
    for t_ in (0, 1):
        for p_ in (0, 1):
            sel = (treat == t_) & (post == p_)
            nn[t_, p_] = int(n[sel].sum())
            tot = float(s[sel].sum())
            m = tot / float(nn[t_, p_])
            mu[t_, p_] = np.floor(np.abs(m) * 1e6 + 0.5) / 1e6 * np.sign(m)
    did = (mu[1, 1] - mu[1, 0]) - (mu[0, 1] - mu[0, 0])
    did = np.sign(did) * np.floor(np.abs(did) * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "cutoff_day": pa.array([cutoff], pa.int64()),
            "n_c_pre": pa.array([int(nn[0, 0])], pa.int64()),
            "n_c_post": pa.array([int(nn[0, 1])], pa.int64()),
            "n_t_pre": pa.array([int(nn[1, 0])], pa.int64()),
            "n_t_post": pa.array([int(nn[1, 1])], pa.int64()),
            "mu_c_pre": pa.array([mu[0, 0]]),
            "mu_c_post": pa.array([mu[0, 1]]),
            "mu_t_pre": pa.array([mu[1, 0]]),
            "mu_t_post": pa.array([mu[1, 1]]),
            "did": pa.array([float(did)]),
        }
    )


def sql_events_did() -> str:
    return f"""
WITH b AS (
  SELECT (MIN(epoch_us(ts) // {DAY_US})
          + MAX(epoch_us(ts) // {DAY_US}) + 1) // 2 AS cutoff
  FROM events
),
c AS (
  SELECT user_id % 2 AS treat,
         CASE WHEN epoch_us(ts) // {DAY_US} >= b.cutoff
              THEN 1 ELSE 0 END AS post,
         value
  FROM events, b
),
m AS (
  SELECT treat, post, COUNT(*)::BIGINT AS n,
         ROUND(SUM(value) / COUNT(*) * 1e6) / 1e6 AS mu
  FROM c GROUP BY treat, post
),
pv AS (
  SELECT
    MAX(CASE WHEN treat = 0 AND post = 0 THEN n END) AS n_c_pre,
    MAX(CASE WHEN treat = 0 AND post = 1 THEN n END) AS n_c_post,
    MAX(CASE WHEN treat = 1 AND post = 0 THEN n END) AS n_t_pre,
    MAX(CASE WHEN treat = 1 AND post = 1 THEN n END) AS n_t_post,
    MAX(CASE WHEN treat = 0 AND post = 0 THEN mu END) AS mu_c_pre,
    MAX(CASE WHEN treat = 0 AND post = 1 THEN mu END) AS mu_c_post,
    MAX(CASE WHEN treat = 1 AND post = 0 THEN mu END) AS mu_t_pre,
    MAX(CASE WHEN treat = 1 AND post = 1 THEN mu END) AS mu_t_post
  FROM m
)
SELECT (SELECT cutoff FROM b) AS cutoff_day,
       n_c_pre, n_c_post, n_t_pre, n_t_post,
       mu_c_pre, mu_c_post, mu_t_pre, mu_t_post,
       ROUND(((mu_t_post - mu_t_pre) - (mu_c_post - mu_c_pre)) * 1e6)
         / 1e6 AS did
FROM pv
"""


@query("events_rfm", sql=lambda: sql_events_rfm(), bench=True)
def events_rfm(sf_dir: str, *, round_to: int = 6):
    """RFM (recency / frequency / monetary) quartile segmentation — the
    classic customer-analytics operator: per user, days since last
    event, event count, and 6dp-rounded value sum, each scored 1-4 by
    the corpus quartiles, plus the packed ``rfm_code``.

    Scale shape: corpus -> user-scale via ONE built-in hash aggregate
    (Max/Count/Sum combiners); the user table is materialized once
    (user-scale, the standard pin) and re-read for the three quantile
    reduces and the final scoring scan.  Quartile boundaries are nine
    floats — closure-captured, never shuffled.  Scores compare against
    the 6dp-ROUNDED boundaries (the proven quantile_cont law) and
    monetary is rounded before comparing, so strict ``>`` agrees
    bitwise with the SQL twin.  Higher recency score = more recent
    (4 - #boundaries-exceeded); frequency/monetary score ascending
    (1 + #boundaries-exceeded)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    from ..stats import grouped_quantiles_cont

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )

    def tag(b: pa.Table) -> pa.Table:
        usv = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            np.int64,
        )
        # truncate-toward-zero day law (matches DuckDB integer //)
        day = np.where(usv >= 0, usv // DAY_US, -((-usv) // DAY_US))
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "day": pa.array(day),
                "value": pc.cast(b["value"], pa.float64()),
            }
        )

    pu = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("day", alias_name="last_day"),
            Count(alias_name="frequency"),
            Sum("value", alias_name="msum"),
        )
        .materialize()  # user-scale
    )
    mday = int(pu.max("last_day"))
    tol = 10.0**round_to

    def derive(b: pa.Table) -> pa.Table:
        last = np.asarray(b["last_day"], np.int64)
        ms = np.asarray(b["msum"], np.float64)
        mon = np.sign(ms) * np.floor(np.abs(ms) * tol + 0.5) / tol
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "recency": pa.array(mday - last),
                "frequency": pc.cast(b["frequency"], pa.int64()),
                "monetary": pa.array(mon),
            }
        )

    pur = pu.map_batches(derive, batch_format="pyarrow").materialize()

    # all nine boundaries from ONE histogram reduce: project the three
    # metrics into a long (metric-id, value) stream (3 rows per user)
    # and let the per-key quantile plan do them together
    def melt(b: pa.Table) -> pa.Table:
        n = len(b)
        vals = np.concatenate(
            [
                np.asarray(b["recency"], np.float64),
                np.asarray(b["frequency"], np.float64),
                np.asarray(b["monetary"], np.float64),
            ]
        )
        k = np.repeat(np.arange(3, dtype=np.int64), n)
        return pa.table({"__k": pa.array(k), "v": pa.array(vals)})

    qb = grouped_quantiles_cont(
        pur.map_batches(melt, batch_format="pyarrow"),
        key="__k", value="v", qs=(0.25, 0.5, 0.75), round_to=round_to,
    ).to_pandas().sort_values("__k")
    qcols = [c for c in qb.columns if c != "__k"]
    rb, fb, mb = (
        [float(x) for x in qb[qb["__k"] == i][qcols].iloc[0]]
        for i in range(3)
    )

    def score(b: pa.Table) -> pa.Table:
        r = np.asarray(b["recency"], np.float64)
        f = np.asarray(b["frequency"], np.float64)
        m = np.asarray(b["monetary"], np.float64)

        def above(v, bs):
            return (
                (v > bs[0]).astype(np.int64)
                + (v > bs[1]).astype(np.int64)
                + (v > bs[2]).astype(np.int64)
            )

        rs = np.int64(4) - above(r, rb)
        fs = np.int64(1) + above(f, fb)
        ms_ = np.int64(1) + above(m, mb)
        return pa.table(
            {
                "user_id": b["user_id"],
                "recency": b["recency"],
                "frequency": b["frequency"],
                "monetary": b["monetary"],
                "r_score": pa.array(rs),
                "f_score": pa.array(fs),
                "m_score": pa.array(ms_),
                "rfm_code": pa.array(rs * 100 + fs * 10 + ms_),
            }
        )

    return pur.map_batches(score, batch_format="pyarrow")


def sql_events_rfm() -> str:
    def b3(col: str, p: str) -> str:
        return ", ".join(
            f"ROUND(quantile_cont({col}, {q}) * 1e6) / 1e6 AS {p}{i}"
            for i, q in enumerate((0.25, 0.5, 0.75), 1)
        )

    return f"""
WITH pu AS (
  SELECT user_id,
         MAX(CASE WHEN epoch_us(ts) >= 0 THEN epoch_us(ts) // {DAY_US}
              ELSE -((-epoch_us(ts)) // {DAY_US}) END) AS last_day,
         COUNT(*)::BIGINT AS frequency,
         ROUND(SUM(value) * 1e6) / 1e6 AS monetary
  FROM events GROUP BY user_id
),
pur AS (
  SELECT user_id, (SELECT MAX(last_day) FROM pu) - last_day AS recency,
         frequency, monetary
  FROM pu
),
b AS (
  SELECT {b3('recency', 'rb')}, {b3('frequency', 'fb')},
         {b3('monetary', 'mb')}
  FROM pur
),
s AS (
  SELECT user_id, recency, frequency, monetary,
    4 - ((recency > rb1)::BIGINT + (recency > rb2)::BIGINT
         + (recency > rb3)::BIGINT) AS r_score,
    1 + ((frequency > fb1)::BIGINT + (frequency > fb2)::BIGINT
         + (frequency > fb3)::BIGINT) AS f_score,
    1 + ((monetary > mb1)::BIGINT + (monetary > mb2)::BIGINT
         + (monetary > mb3)::BIGINT) AS m_score
  FROM pur, b
)
SELECT user_id, recency, frequency, monetary, r_score, f_score, m_score,
       r_score * 100 + f_score * 10 + m_score AS rfm_code
FROM s
"""


@query("events_ltv", sql=lambda: sql_events_ltv(), bench=True)
def events_ltv(sf_dir: str, *, num_buckets: int | None = None):
    """Cohort LTV curves: cumulative revenue (and ARPU) per
    (cohort_week, week offset) — the revenue companion to
    :func:`events_retention`'s distinct-user triangle.

    Same zero-join plan: per-batch (user, week) revenue partials pack
    into int64 keys, ONE coarse shuffle on user hash co-locates each
    user, the bucket kernel derives cohorts (min week, exact — the user
    is whole in the bucket) and emits per-(cohort, week) revenue and
    per-cohort user-count partials; the weeks²-bounded finish folds on
    the driver (the events_watermark fixed-overhead rule).

    Float law: each (cohort, week) revenue cell rounds half-away at 6dp
    on BOTH sides, converts to integer MICRO-UNITS, and the cumulative
    sum runs in int64 — exact under any association, so the window
    order DuckDB picks can never shift an ulp (monetary totals are
    bounded to ±9.2e12 units by the micro-int law; shift the scale for
    larger books).  ARPU divides the identical cum/1e6 by the cohort
    size in the same op order before the shared 6dp round."""
    import ray.data as rd

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    mask = (1 << _WEEK_BITS) - 1

    def pack(b: pa.Table) -> pa.Table:
        ts = np.asarray(b["ts"]).astype("datetime64[us]").view(np.int64)
        week = np.where(ts >= 0, ts // WEEK_US, -((-ts) // WEEK_US))
        week = week + _WEEK_BIAS
        uid = np.asarray(b["user_id"], dtype=np.int64)
        if len(week) and (
            week.min() < 0
            or week.max() >= (1 << _WEEK_BITS)
            or uid.min() < 0
            or uid.max() >= (1 << (63 - _WEEK_BITS))
        ):
            raise ValueError("user/week id out of packed range")
        key = (uid << _WEEK_BITS) | week
        val = np.asarray(b["value"], np.float64)
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        starts = np.flatnonzero(
            np.concatenate([[True], key[1:] != key[:-1]])
        )
        k = key[starts]
        v = np.add.reduceat(val, starts) if len(val) else val
        return pa.table(
            {"user_id": pa.array(k >> _WEEK_BITS), "k": pa.array(k), "v": pa.array(v)}
        )

    def kernel(t: pa.Table, _user_starts: np.ndarray) -> pd.DataFrame:
        # sorted by (user, week); a pair may repeat across batches
        key = np.asarray(t["k"], np.int64)
        val = np.asarray(t["v"], np.float64)
        starts = np.flatnonzero(
            np.concatenate([[True], key[1:] != key[:-1]])
        )
        k = key[starts]
        v = np.add.reduceat(val, starts)
        uid = k >> _WEEK_BITS
        week = k & mask
        ustarts = np.concatenate([[True], uid[1:] != uid[:-1]])
        cohort = week[np.flatnonzero(ustarts)][np.cumsum(ustarts) - 1]
        # per-(cohort, week) revenue partials
        cw = (cohort << _WEEK_BITS) | week
        o2 = np.argsort(cw, kind="stable")
        cw, v2 = cw[o2], v[o2]
        s2 = np.flatnonzero(np.concatenate([[True], cw[1:] != cw[:-1]]))
        pairs = cw[s2]
        rev = np.add.reduceat(v2, s2)
        # per-cohort distinct-user partials
        cu, cn = np.unique(cohort[ustarts], return_counts=True)
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(len(pairs), np.int64),
                     np.ones(len(cu), np.int64)]
                ),
                "cohort_week": np.concatenate(
                    [(pairs >> _WEEK_BITS) - _WEEK_BIAS, cu - _WEEK_BIAS]
                ),
                "week": np.concatenate(
                    [(pairs & mask) - _WEEK_BIAS, np.zeros(len(cu), np.int64)]
                ),
                "rev": np.concatenate([rev, np.zeros(len(cu))]),
                "n": np.concatenate(
                    [np.zeros(len(pairs), np.int64), cn.astype(np.int64)]
                ),
            }
        )

    schema = pa.schema(
        {"kind": pa.int64(), "cohort_week": pa.int64(), "week": pa.int64(),
         "rev": pa.float64(), "n": pa.int64()}
    )
    part = to_frame(segment_apply(
        ev.map_batches(pack, batch_format="pyarrow"), "user_id", kernel, schema,
        order=("k",), num_buckets=num_buckets,
    ), schema)
    sz = (
        part[part["kind"] == 1]
        .groupby("cohort_week", sort=True)["n"].sum()
    )
    cell = (
        part[part["kind"] == 0]
        .groupby(["cohort_week", "week"], sort=True)["rev"]
        .sum()
        .reset_index()
    )
    # 6dp round -> exact integer micro-unit cumulative sum per cohort
    micro = np.asarray(
        np.sign(cell["rev"]) * np.floor(np.abs(cell["rev"]) * 1e6 + 0.5),
        np.int64,
    )
    co = cell["cohort_week"].to_numpy(np.int64)
    wk = cell["week"].to_numpy(np.int64)
    cum = np.cumsum(micro)
    cstarts = np.flatnonzero(np.concatenate([[True], co[1:] != co[:-1]]))
    base = np.repeat(
        np.concatenate([[0], cum[cstarts[1:] - 1]]),
        np.diff(np.append(cstarts, len(co))),
    )
    cum = cum - base
    nu = sz.loc[co].to_numpy(np.int64)
    arpu_raw = (cum / 1e6) / nu
    arpu = np.sign(arpu_raw) * np.floor(np.abs(arpu_raw) * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "cohort_week": pa.array(co),
            "offset_weeks": pa.array(wk - co),
            "n_users": pa.array(nu),
            "cum_rev": pa.array(cum / 1e6),
            "arpu": pa.array(arpu),
        }
    )


def sql_events_ltv() -> str:
    """DuckDB twin of :func:`events_ltv` (micro-int cumulative law)."""
    return f"""
WITH w AS (
  SELECT user_id, epoch_us(ts) // {WEEK_US} AS week, value FROM events
),
c AS (SELECT user_id, MIN(week) AS cohort_week FROM w GROUP BY user_id),
sz AS (SELECT cohort_week, COUNT(*)::BIGINT AS n_users
       FROM c GROUP BY cohort_week),
cell AS (
  SELECT c.cohort_week, w.week,
         CAST(ROUND(SUM(w.value) * 1e6) AS BIGINT) AS rev_micro
  FROM w JOIN c USING (user_id)
  GROUP BY c.cohort_week, w.week
),
cum AS (
  SELECT cohort_week, week,
         SUM(rev_micro) OVER (
           PARTITION BY cohort_week ORDER BY week
         ) AS cum_micro
  FROM cell
)
SELECT cum.cohort_week, cum.week - cum.cohort_week AS offset_weeks,
       sz.n_users, cum.cum_micro / 1e6 AS cum_rev,
       ROUND(cum.cum_micro / 1e6 / sz.n_users * 1e6) / 1e6 AS arpu
FROM cum JOIN sz USING (cohort_week)
"""
