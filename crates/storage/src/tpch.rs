//! TPC-H-like Lineitem and Orders generator for the §4.2 end-to-end study.
//!
//! Figure 1 and §4.2 of the paper run a select-project-join template over
//! `Lineitem ⋈ Orders` at scale factor 10. This module generates the two
//! tables with TPC-H's key structural properties: a primary-key `orderkey`
//! on Orders, a foreign key on Lineitem with fanout 1–7 (avg 4, as in
//! TPC-H), correlated dates (`shipdate` follows `orderdate`), and the
//! price/discount/quantity columns the predicates of §4.2 range over.
//!
//! TPC-H SF1 has 1.5M orders / 6M lineitems; [`TpchScale::rows`] maps a
//! scale factor to proportional (but smaller by default) row counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use warper_linalg::sampling::{log_normal, normal, Zipf};

use crate::column::{Column, ColumnType};
use crate::table::Table;

/// Scale selector for the TPC-H-like generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchScale {
    /// Number of orders; lineitems ≈ 4× this.
    pub orders: usize,
}

impl TpchScale {
    /// A "tiny" scale for unit tests.
    pub fn tiny() -> Self {
        Self { orders: 2_000 }
    }

    /// Proportional row counts for a nominal scale factor: SF1 = 1.5M
    /// orders scaled down by `downscale` (e.g. `rows(10, 100)` models SF10
    /// at 1% size).
    pub fn rows(sf: f64, downscale: f64) -> Self {
        Self {
            orders: ((1_500_000.0 * sf) / downscale).max(100.0) as usize,
        }
    }
}

/// The generated pair of tables.
#[derive(Debug, Clone)]
pub struct TpchTables {
    /// Orders table: `o_orderkey` (PK), `o_totalprice`, `o_orderdate`,
    /// `o_orderpriority`.
    pub orders: Table,
    /// Lineitem table: `l_orderkey` (FK), `l_quantity`, `l_extendedprice`,
    /// `l_discount`, `l_shipdate`, `l_returnflag`.
    pub lineitem: Table,
}

/// Generates the Lineitem/Orders pair.
pub fn generate_tpch(scale: TpchScale, seed: u64) -> TpchTables {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5450_4348);
    let n_orders = scale.orders;
    let priority = Zipf::new(5, 0.4);
    let flag = Zipf::new(3, 0.7);

    let mut o_key = Vec::with_capacity(n_orders);
    let mut o_price = Vec::with_capacity(n_orders);
    let mut o_date = Vec::with_capacity(n_orders);
    let mut o_prio = Vec::with_capacity(n_orders);

    let mut l_key = Vec::new();
    let mut l_qty = Vec::new();
    let mut l_price = Vec::new();
    let mut l_disc = Vec::new();
    let mut l_ship = Vec::new();
    let mut l_flag = Vec::new();

    for key in 0..n_orders {
        let orderdate = rng.random_range(0.0..2557.0); // 7 years of days
                                                       // Fanout 1..=7 like TPC-H.
        let fanout = rng.random_range(1..=7usize);
        let mut total = 0.0;
        for _ in 0..fanout {
            let qty = rng.random_range(1..=50u32) as f64;
            let unit = log_normal(&mut rng, 6.8, 0.5); // ~900 avg unit price
            let ext = qty * unit;
            let disc = (rng.random_range(0..=10u32) as f64) / 100.0;
            l_key.push(key as f64);
            l_qty.push(qty);
            l_price.push(ext);
            l_disc.push(disc);
            l_ship.push(orderdate + normal(&mut rng, 60.0, 20.0).clamp(1.0, 121.0));
            l_flag.push(flag.sample(&mut rng) as f64);
            total += ext * (1.0 - disc);
        }
        o_key.push(key as f64);
        o_price.push(total);
        o_date.push(orderdate);
        o_prio.push(priority.sample(&mut rng) as f64);
    }

    let orders = Table::new(
        "orders",
        vec![
            Column::new("o_orderkey", ColumnType::Real, o_key),
            Column::new("o_totalprice", ColumnType::Real, o_price),
            Column::new("o_orderdate", ColumnType::Date, o_date),
            Column::new("o_orderpriority", ColumnType::Categorical, o_prio),
        ],
    );
    let lineitem = Table::new(
        "lineitem",
        vec![
            Column::new("l_orderkey", ColumnType::Real, l_key),
            Column::new("l_quantity", ColumnType::Real, l_qty),
            Column::new("l_extendedprice", ColumnType::Real, l_price),
            Column::new("l_discount", ColumnType::Real, l_disc),
            Column::new("l_shipdate", ColumnType::Date, l_ship),
            Column::new("l_returnflag", ColumnType::Categorical, l_flag),
        ],
    );
    TpchTables { orders, lineitem }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_is_one_to_seven() {
        let t = generate_tpch(TpchScale { orders: 500 }, 1);
        assert_eq!(t.orders.num_rows(), 500);
        let ratio = t.lineitem.num_rows() as f64 / t.orders.num_rows() as f64;
        assert!((1.0..=7.0).contains(&ratio), "ratio {ratio}");
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "average fanout should be ~4, got {ratio}"
        );
    }

    #[test]
    fn foreign_keys_reference_orders() {
        let t = generate_tpch(TpchScale::tiny(), 2);
        let n = t.orders.num_rows() as f64;
        for &k in t.lineitem.column_by_name("l_orderkey").values() {
            assert!(k >= 0.0 && k < n);
        }
    }

    #[test]
    fn shipdate_follows_orderdate() {
        let t = generate_tpch(TpchScale { orders: 300 }, 3);
        let odate = t.orders.column_by_name("o_orderdate").values();
        let lkey = t.lineitem.column_by_name("l_orderkey").values();
        let lship = t.lineitem.column_by_name("l_shipdate").values();
        for (k, s) in lkey.iter().zip(lship) {
            assert!(*s > odate[*k as usize], "ship before order");
        }
    }

    #[test]
    fn totalprice_consistent_with_lineitems() {
        let t = generate_tpch(TpchScale { orders: 100 }, 4);
        let lkey = t.lineitem.column_by_name("l_orderkey").values();
        let lprice = t.lineitem.column_by_name("l_extendedprice").values();
        let ldisc = t.lineitem.column_by_name("l_discount").values();
        let mut sums = vec![0.0; 100];
        for i in 0..lkey.len() {
            sums[lkey[i] as usize] += lprice[i] * (1.0 - ldisc[i]);
        }
        let oprice = t.orders.column_by_name("o_totalprice").values();
        for (s, p) in sums.iter().zip(oprice) {
            assert!((s - p).abs() < 1e-6);
        }
    }
}
