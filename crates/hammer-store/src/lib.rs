//! Storage substrates for the Hammer evaluation framework.
//!
//! The paper's deployment (Fig. 2) wires four infrastructure services
//! around the driver; this crate provides in-process equivalents of three
//! (the Prometheus role is `hammer-obs`'s registry and exposition):
//!
//! | Paper | Module | Role |
//! |---|---|---|
//! | Redis | [`kv`] | fast shared store the driver flushes vector-list transaction statuses into |
//! | MySQL | [`table`] + [`sql`] | durable `Performance` table and the SQL engine the visualisation layer queries (Table II) |
//! | Grafana | [`report`] | human-readable tables and line charts, plus CSV export |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kv;
pub mod report;
pub mod sql;
pub mod table;

pub use kv::KvStore;
pub use report::{render_series, render_table};
pub use sql::{query, ResultSet, SqlError};
pub use table::{PerfRow, RowOutcome, TableStore};
