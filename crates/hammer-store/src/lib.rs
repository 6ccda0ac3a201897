//! Storage substrates for the Hammer evaluation framework.
//!
//! The paper's deployment (Fig. 2) wires four infrastructure services
//! around the driver; this crate provides in-process equivalents of three
//! (the Prometheus role is `hammer-obs`'s registry and exposition):
//!
//! | Paper | Module | Role |
//! |---|---|---|
//! | Redis | [`kv`] | shared store a recoverable run keeps its driver checkpoint in |
//! | MySQL | [`table`] | the `Performance` table with Table II's two statements and the figures' aggregates as typed queries |
//! | Grafana | [`report`] | human-readable tables and line charts, plus CSV export |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kv;
pub mod report;
pub mod table;

pub use kv::KvStore;
pub use report::{render_series, render_table};
pub use table::{PerfRow, RowOutcome, TableStore};
