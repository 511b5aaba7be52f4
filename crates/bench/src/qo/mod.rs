//! Simulated query optimizer and executor for the end-to-end study (§4.2).
//!
//! The paper injects cardinality estimates into a production query
//! optimizer's memo and measures the latency of the resulting plans for a
//! `σ(L) ⋈ σ(O)` select-project-join template over TPC-H. This module
//! reproduces the three plan decisions the paper studies, with a calibrated
//! cost model whose latency gaps match Table 9's ratios:
//!
//! * **S1 — buffer spills**: the hash build's memory grant is sized from the
//!   *estimated* build cardinality; underestimates spill build rows to a
//!   temporary table (gap ≈ 2.1×). Overestimates waste memory but cost
//!   little.
//! * **S2 — nested-loop vs hash join**: the optimizer picks NLJ when both
//!   inputs are estimated small; an underestimate triggers NLJ on large
//!   inputs (gap up to ≈ 306×).
//! * **S3 — bitmap side**: in parallel plans, a bitmap is built on the input
//!   with the smaller estimate and applied to the other; the wrong side
//!   forfeits the row-reduction (gap ≈ 5.3×).
//!
//! See [`cost::CostModel`] for the calibrated constants and
//! [`exec::Executor`] for the plan → latency pipeline.

pub mod cost;
pub mod exec;
pub mod template;

pub use cost::{CostModel, Scenario};
pub use exec::{Executor, Plan, QueryCards};
pub use template::{SpjTemplate, TemplateQuery};
