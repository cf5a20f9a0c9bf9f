//! Table substrate for the DataVinci reproduction.
//!
//! DataVinci (Singh et al., SIGMOD/PVLDB) cleans *string columns in tabular
//! data*. This crate provides the minimal-but-complete tabular data model the
//! rest of the workspace builds on:
//!
//! * [`CellValue`] — a spreadsheet-style dynamic value (text, number, boolean,
//!   error value, blank) with Excel-like coercions,
//! * [`Column`] — a named vector of cells,
//! * [`Table`] — a collection of equally-long columns with row access,
//! * [`CellRef`]/[`ColRef`] — stable cell and column addressing,
//! * a lossless CSV reader/writer in [`io`], built on a resumable
//!   [`CsvChunkReader`] so files and streams can be ingested chunk by chunk
//!   with positioned [`CsvError`] diagnostics.
//!
//! The model intentionally mirrors what the paper's benchmarks need: values in
//! Wikipedia/Excel tables are predominantly *text* (67.6% in the paper's
//! corpus), and formula execution (Section 3.6) needs spreadsheet error
//! values such as `#VALUE!` to signal failing executions.

pub mod addr;
pub mod column;
pub mod io;
pub mod table;
pub mod value;

pub use addr::{CellRef, ColRef};
pub use column::{Column, Fingerprinter};
pub use io::{CsvChunkReader, CsvError, CsvErrorKind};
pub use table::Table;
pub use value::{CellValue, ErrorValue};
