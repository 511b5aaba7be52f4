//! The §4.2 select-project-join query template over TPC-H-like tables.
//!
//! `SELECT ... FROM Lineitem L JOIN Orders O ON l_orderkey = o_orderkey
//! WHERE σ_L (AND σ_O)` — S1 places a predicate on L only; S2 and S3 on
//! both (Table 9). Test queries are drawn "from the same template that is
//! used in training" with a chosen Table-5 workload method.

use rand::rngs::StdRng;
use warper_query::{join_cardinalities, JoinQuery, RangePredicate};
use warper_storage::tpch::TpchTables;
use warper_workload::{Mix, QueryGenerator, WorkloadSpec};

use super::cost::Scenario;
use super::exec::QueryCards;

/// A drawn template query with its exact cardinalities.
#[derive(Debug, Clone)]
pub struct TemplateQuery {
    /// The join query.
    pub join: JoinQuery,
    /// Exact cardinalities (the executor's "actuals").
    pub actual: QueryCards,
}

/// Generates template queries for a scenario over a TPC-H-like pair.
pub struct SpjTemplate<'t> {
    tables: &'t TpchTables,
    scenario: Scenario,
    lineitem_gen: QueryGenerator<'t>,
    orders_gen: QueryGenerator<'t>,
}

impl<'t> SpjTemplate<'t> {
    /// Builds a template generator using the given Table-5 workload
    /// notation (e.g. `"w1"`) for the predicates.
    pub fn new(tables: &'t TpchTables, scenario: Scenario, workload: &str) -> Self {
        let mix =
            Mix::parse(workload).unwrap_or_else(|| panic!("bad workload notation {workload:?}"));
        // Predicates over the non-key columns only (column 0 is the join
        // key in both generated tables).
        let spec = WorkloadSpec {
            min_cols: 1,
            max_cols: 2,
            ..Default::default()
        };
        let lineitem_gen = QueryGenerator::new(&tables.lineitem, mix.clone(), spec);
        let orders_gen = QueryGenerator::new(&tables.orders, mix, spec);
        Self {
            tables,
            scenario,
            lineitem_gen,
            orders_gen,
        }
    }

    /// The scenario this template serves.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Draws one query and computes its exact cardinalities.
    pub fn draw(&mut self, rng: &mut StdRng) -> TemplateQuery {
        let mut left_pred = self.lineitem_gen.generate(rng);
        // Never constrain the join-key columns: the template joins full key
        // ranges (predicates are on attribute columns, as in Figure 1).
        let ldom = self.tables.lineitem.domains();
        left_pred.lows[0] = ldom[0].0;
        left_pred.highs[0] = ldom[0].1;

        let right_pred = match self.scenario {
            Scenario::S1BufferSpill => RangePredicate::unconstrained(&self.tables.orders.domains()),
            Scenario::S2JoinType | Scenario::S3BitmapSide => {
                let mut p = self.orders_gen.generate(rng);
                let odom = self.tables.orders.domains();
                p.lows[0] = odom[0].0;
                p.highs[0] = odom[0].1;
                p
            }
        };

        let join = JoinQuery {
            left_pred,
            right_pred,
            left_key: 0,
            right_key: 0,
        };
        let cards = join_cardinalities(&self.tables.lineitem, &self.tables.orders, &join);
        TemplateQuery {
            join,
            actual: QueryCards {
                left: cards.left as f64,
                right: cards.right as f64,
                join: cards.join as f64,
                left_base: self.tables.lineitem.num_rows() as f64,
                right_base: self.tables.orders.num_rows() as f64,
            },
        }
    }

    /// Draws `n` queries.
    pub fn draw_many(&mut self, n: usize, rng: &mut StdRng) -> Vec<TemplateQuery> {
        (0..n).map(|_| self.draw(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use warper_storage::tpch::{generate_tpch, TpchScale};

    #[test]
    fn s1_has_unconstrained_orders() {
        let tables = generate_tpch(TpchScale::tiny(), 3);
        let mut t = SpjTemplate::new(&tables, Scenario::S1BufferSpill, "w1");
        let mut rng = StdRng::seed_from_u64(1);
        let q = t.draw(&mut rng);
        assert_eq!(q.actual.right, tables.orders.num_rows() as f64);
        // FK join with unfiltered PK side: join card == filtered left card.
        assert_eq!(q.actual.join, q.actual.left);
    }

    #[test]
    fn s2_constrains_both_sides() {
        let tables = generate_tpch(TpchScale::tiny(), 4);
        let mut t = SpjTemplate::new(&tables, Scenario::S2JoinType, "w1");
        let mut rng = StdRng::seed_from_u64(2);
        let qs = t.draw_many(20, &mut rng);
        // At least some draws genuinely filter the orders side.
        assert!(qs
            .iter()
            .any(|q| q.actual.right < tables.orders.num_rows() as f64));
        for q in &qs {
            assert!(q.actual.join <= q.actual.left.min(q.actual.right * 7.0) + 1e-9);
        }
    }

    #[test]
    fn join_keys_never_constrained() {
        let tables = generate_tpch(TpchScale::tiny(), 5);
        let ldom = tables.lineitem.domains();
        let odom = tables.orders.domains();
        let mut t = SpjTemplate::new(&tables, Scenario::S3BitmapSide, "w3");
        let mut rng = StdRng::seed_from_u64(3);
        for q in t.draw_many(10, &mut rng) {
            assert_eq!(q.join.left_pred.lows[0], ldom[0].0);
            assert_eq!(q.join.left_pred.highs[0], ldom[0].1);
            assert_eq!(q.join.right_pred.lows[0], odom[0].0);
            assert_eq!(q.join.right_pred.highs[0], odom[0].1);
        }
    }
}
