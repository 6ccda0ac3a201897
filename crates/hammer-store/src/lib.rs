//! Storage substrates for the Hammer evaluation framework.
//!
//! The paper's deployment (Fig. 2) wires four infrastructure services
//! around the driver; this crate provides in-process equivalents of two:
//!
//! | Paper | Module | Role |
//! |---|---|---|
//! | MySQL | [`table`] | the `Performance` table with Table II's two statements and the figures' aggregates as typed queries |
//! | Grafana | [`report`] | human-readable tables and line charts, plus CSV export |
//!
//! The Prometheus role is `hammer-obs`'s registry and exposition. The
//! Redis role, state that outlives the driver, is the run directory a
//! recoverable run keeps its checkpoint file in (`hammer-core`'s
//! `checkpoint` module).

#![warn(missing_docs)]

pub mod report;
pub mod table;

pub use report::{render_series, render_table};
pub use table::{PerfRow, RowOutcome, TableStore};
