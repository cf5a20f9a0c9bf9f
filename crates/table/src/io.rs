//! Lossless CSV reader/writer with resumable chunked ingestion.
//!
//! Supports RFC-4180-style quoting (`"a,b"`, doubled quotes, quoted
//! newlines). The reader is built around [`CsvChunkReader`], a resumable
//! state machine that consumes arbitrary byte chunks — a record (or even a
//! UTF-8 code point) may be split across chunk boundaries — and yields
//! complete row batches, so a table never needs to be fully resident.
//! [`parse_csv`] is the whole-text convenience wrapper on top of it.
//!
//! Parsing is **lossless**: `parse_csv(to_csv(t))` reproduces `t` exactly
//! for any table whose cells are in parse-normal form (see
//! [`crate::value::CellValue::parse`]). In particular:
//!
//! * only the single implicit empty record produced by the final newline is
//!   dropped — trailing rows whose cells are blank survive;
//! * a bare `\r` is data: the writer quotes fields containing `\r`, and the
//!   reader only swallows a `\r` that immediately precedes a `\n` (a CRLF
//!   line ending) outside quotes.
//!
//! Malformed input produces a positioned [`CsvError`] (1-based line number
//! of the offending record) instead of an opaque `None`.

use std::borrow::Cow;
use std::ops::Range;

use datavinci_telemetry as telemetry;

use crate::column::Column;
use crate::table::Table;
use crate::value::CellValue;

/// What went wrong while parsing CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvErrorKind {
    /// A record's field count disagrees with the header's.
    Ragged {
        /// Field count of the header record.
        expected: usize,
        /// Field count of the offending record.
        got: usize,
    },
    /// The input ended inside a quoted field.
    UnclosedQuote,
    /// The input contained no header record.
    MissingHeader,
    /// The input is not valid UTF-8.
    InvalidUtf8,
}

/// A positioned CSV parse diagnostic.
///
/// `line` is the 1-based physical line on which the offending record
/// *starts* (records with quoted newlines span several physical lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based physical line number of the offending record's first line.
    pub line: usize,
    /// The failure class.
    pub kind: CsvErrorKind,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            CsvErrorKind::Ragged { expected, got } => write!(
                f,
                "line {}: ragged record: expected {expected} field(s), got {got}",
                self.line
            ),
            CsvErrorKind::UnclosedQuote => {
                write!(
                    f,
                    "line {}: unclosed quoted field at end of input",
                    self.line
                )
            }
            CsvErrorKind::MissingHeader => write!(f, "line {}: missing header record", self.line),
            CsvErrorKind::InvalidUtf8 => write!(f, "line {}: invalid UTF-8", self.line),
        }
    }
}

impl std::error::Error for CsvError {}

/// A resumable, chunk-at-a-time CSV reader.
///
/// Feed it byte (or `&str`) chunks of any size with [`CsvChunkReader::push`]
/// / [`CsvChunkReader::push_str`]; each call returns the *complete* data
/// records that ended inside that chunk, fields already unquoted. All
/// cross-chunk state — an open quoted field, a partial record, a `\r` that
/// may belong to a CRLF split across the boundary, even a partial UTF-8
/// code point — is carried inside the reader, so splitting the input at
/// every byte offset yields identical records (see the chunk-boundary
/// differential tests).
///
/// The first complete record becomes the header ([`CsvChunkReader::header`])
/// and is not returned as a row; every later record is validated against the
/// header's field count and reported with its starting line number on
/// mismatch. Call [`CsvChunkReader::finish`] at end of input to flush a
/// final unterminated record and surface unclosed-quote diagnostics.
#[derive(Debug, Default)]
pub struct CsvChunkReader {
    /// The current partial record, raw (quotes still embedded).
    cur: String,
    /// Inside a quoted field?
    in_quotes: bool,
    /// Saw a `\r` outside quotes that may pair with a `\n` to come.
    pending_cr: bool,
    /// Bytes of a UTF-8 code point split across a chunk boundary.
    utf8_carry: Vec<u8>,
    /// 1-based physical line currently being read.
    line: usize,
    /// Line on which the current record started.
    record_line: usize,
    /// The header record, once one complete record has been read.
    header: Option<Vec<String>>,
    /// Data rows consumed so far (diagnostics / telemetry).
    n_rows: usize,
}

impl CsvChunkReader {
    /// A fresh reader with no buffered state.
    pub fn new() -> CsvChunkReader {
        CsvChunkReader {
            line: 1,
            record_line: 1,
            ..CsvChunkReader::default()
        }
    }

    /// The header record, if at least one complete record has been read.
    pub fn header(&self) -> Option<&[String]> {
        self.header.as_deref()
    }

    /// Number of complete data rows yielded so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// 1-based physical line the reader is currently positioned on.
    pub fn line(&self) -> usize {
        self.line
    }

    /// True when no partial record, pending byte, or open quote is buffered
    /// (i.e. [`CsvChunkReader::finish`] would yield nothing).
    pub fn is_drained(&self) -> bool {
        self.cur.is_empty() && !self.in_quotes && !self.pending_cr && self.utf8_carry.is_empty()
    }

    /// Consumes one byte chunk, returning the complete data records that
    /// ended inside it. A multi-byte UTF-8 code point split across the
    /// chunk boundary is reassembled internally.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<String>>, CsvError> {
        Ok(own_rows(self.push_cow(chunk)?))
    }

    /// [`CsvChunkReader::push`] for text chunks.
    pub fn push_str(&mut self, chunk: &str) -> Result<Vec<Vec<String>>, CsvError> {
        Ok(own_rows(self.push_str_cow(chunk)?))
    }

    /// Zero-copy variant of [`CsvChunkReader::push`]: fields of records
    /// fully contained in `chunk` that needed no quote/CRLF rewrite come
    /// back as `Cow::Borrowed` slices of `chunk`; only quoted fields and
    /// records spanning a chunk boundary are materialized.
    pub fn push_cow<'a>(&mut self, chunk: &'a [u8]) -> Result<Vec<Vec<Cow<'a, str>>>, CsvError> {
        // Re-join a code point split across the previous boundary: move
        // bytes from the chunk onto the carry until it decodes or is
        // provably invalid.
        let mut rows = Vec::new();
        let mut rest = chunk;
        while !self.utf8_carry.is_empty() && !rest.is_empty() {
            self.utf8_carry.push(rest[0]);
            rest = &rest[1..];
            match std::str::from_utf8(&self.utf8_carry) {
                Ok(s) => {
                    let s = s.to_owned();
                    self.utf8_carry.clear();
                    // A multi-byte code point is never a record terminator,
                    // so this yields no rows; own any that do appear for
                    // lifetime independence from the local buffer.
                    rows.extend(own_rows(self.push_str_cow(&s)?).into_iter().map(|row| {
                        row.into_iter()
                            .map(Cow::Owned)
                            .collect::<Vec<Cow<'a, str>>>()
                    }));
                    break;
                }
                Err(e) if e.error_len().is_none() => continue, // still incomplete
                Err(_) => {
                    return Err(self.error(CsvErrorKind::InvalidUtf8));
                }
            }
        }
        match std::str::from_utf8(rest) {
            Ok(s) => rows.extend(self.push_str_cow(s)?),
            Err(e) => {
                let (valid, tail) = rest.split_at(e.valid_up_to());
                if e.error_len().is_some() || tail.len() >= 4 {
                    return Err(self.error(CsvErrorKind::InvalidUtf8));
                }
                // An incomplete trailing code point: carry it to the next
                // chunk.
                let valid = std::str::from_utf8(valid).expect("valid prefix");
                rows.extend(self.push_str_cow(valid)?);
                self.utf8_carry.extend_from_slice(tail);
            }
        }
        Ok(rows)
    }

    /// [`CsvChunkReader::push_cow`] for text chunks: one pass over the raw
    /// bytes. Only the four structural bytes (`"`, `,`, `\n`, `\r`) steer
    /// the scan — all are ASCII, so slicing at their positions is always
    /// char-boundary-safe — and everything between terminators stays in
    /// place until a record completes.
    pub fn push_str_cow<'a>(&mut self, chunk: &'a str) -> Result<Vec<Vec<Cow<'a, str>>>, CsvError> {
        // `push_cow` funnels its decoded bytes through here, so this is the
        // one choke point for ingest volume telemetry.
        telemetry::counter("ingest.bytes", chunk.len() as u64);
        let bytes = chunk.as_bytes();
        let mut rows = Vec::new();
        let mut i = 0;
        if self.pending_cr && !bytes.is_empty() {
            self.pending_cr = false;
            if bytes[0] == b'\n' {
                // CRLF split across the chunk boundary: the \r was a
                // terminator, not data.
                i = 1;
                self.emit("", &mut rows)?;
            } else {
                // A bare \r is data.
                self.cur.push('\r');
            }
        }
        let mut rec_start = i;
        while i < bytes.len() {
            let b = bytes[i];
            if self.in_quotes {
                match b {
                    b'"' => self.in_quotes = false,
                    // Quoted newline: part of the value, but still a
                    // physical line for diagnostics.
                    b'\n' => self.line += 1,
                    _ => {}
                }
                i += 1;
            } else {
                match b {
                    b'"' => {
                        self.in_quotes = true;
                        i += 1;
                    }
                    b'\n' => {
                        self.emit(&chunk[rec_start..i], &mut rows)?;
                        i += 1;
                        rec_start = i;
                    }
                    b'\r' => {
                        if i + 1 < bytes.len() {
                            if bytes[i + 1] == b'\n' {
                                // CRLF line ending: neither byte is data.
                                self.emit(&chunk[rec_start..i], &mut rows)?;
                                i += 2;
                                rec_start = i;
                            } else {
                                // A bare \r is data; it stays in the slice.
                                i += 1;
                            }
                        } else {
                            // Chunk ends in \r: it may pair with a \n in
                            // the next chunk, so carry the partial record
                            // and remember the \r as a flag, not data.
                            self.cur.push_str(&chunk[rec_start..i]);
                            self.pending_cr = true;
                            i += 1;
                            rec_start = i;
                        }
                    }
                    _ => i += 1,
                }
            }
        }
        if rec_start < bytes.len() {
            // Unterminated tail: buffer it for the next chunk.
            self.cur.push_str(&chunk[rec_start..]);
        }
        if !rows.is_empty() {
            telemetry::counter("ingest.rows", rows.len() as u64);
        }
        Ok(rows)
    }

    /// Flushes end-of-input state: the final record if the input did not end
    /// with a newline, an [`CsvErrorKind::UnclosedQuote`] if it ended inside
    /// a quoted field. The reader is reusable for a fresh document
    /// afterwards only via [`CsvChunkReader::new`].
    pub fn finish(&mut self) -> Result<Vec<Vec<String>>, CsvError> {
        if !self.utf8_carry.is_empty() {
            return Err(self.error(CsvErrorKind::InvalidUtf8));
        }
        if self.in_quotes {
            return Err(self.error(CsvErrorKind::UnclosedQuote));
        }
        if self.pending_cr {
            // A final bare \r with no \n to pair with is data.
            self.pending_cr = false;
            self.cur.push('\r');
        }
        let mut rows = Vec::new();
        if !self.cur.is_empty() {
            self.emit("", &mut rows)?;
        }
        if !rows.is_empty() {
            telemetry::counter("ingest.rows", rows.len() as u64);
        }
        Ok(own_rows(rows))
    }

    /// Completes the record whose final (possibly empty) segment within the
    /// current chunk is `tail`: the first record becomes the header, the
    /// rest are validated against it and returned as rows. A record with no
    /// carried prefix splits straight off the chunk (borrowing unquoted
    /// fields); one that spans chunks goes through the owned buffer.
    fn emit<'a>(
        &mut self,
        tail: &'a str,
        rows: &mut Vec<Vec<Cow<'a, str>>>,
    ) -> Result<(), CsvError> {
        let at_line = self.record_line;
        self.line += 1;
        self.record_line = self.line;
        let fields: Vec<Cow<'a, str>> = if self.cur.is_empty() {
            split_fields_cow(tail)
        } else {
            self.cur.push_str(tail);
            let record = std::mem::take(&mut self.cur);
            split_fields(&record).into_iter().map(Cow::Owned).collect()
        };
        match &self.header {
            None => self.header = Some(fields.into_iter().map(Cow::into_owned).collect()),
            Some(header) => {
                if fields.len() != header.len() {
                    return Err(CsvError {
                        line: at_line,
                        kind: CsvErrorKind::Ragged {
                            expected: header.len(),
                            got: fields.len(),
                        },
                    });
                }
                self.n_rows += 1;
                rows.push(fields);
            }
        }
        Ok(())
    }

    fn error(&self, kind: CsvErrorKind) -> CsvError {
        CsvError {
            line: self.record_line,
            kind,
        }
    }
}

fn own_rows(rows: Vec<Vec<Cow<'_, str>>>) -> Vec<Vec<String>> {
    rows.into_iter()
        .map(|row| row.into_iter().map(Cow::into_owned).collect())
        .collect()
}

/// Builds a [`Table`] from a header and field rows (each row must have one
/// field per header entry — [`CsvChunkReader`] guarantees this). Cells are
/// parsed spreadsheet-style (see [`CellValue::parse`]).
pub fn rows_to_table<S: AsRef<str>>(header: &[String], rows: &[Vec<S>]) -> Table {
    let mut cols: Vec<Vec<CellValue>> = vec![Vec::with_capacity(rows.len()); header.len()];
    for row in rows {
        for (c, field) in row.iter().enumerate() {
            cols[c].push(CellValue::parse(field.as_ref()));
        }
    }
    Table::new(
        header
            .iter()
            .zip(cols)
            .map(|(name, values)| Column::new(name.clone(), values))
            .collect(),
    )
}

/// Parses CSV text with a header row into a [`Table`].
///
/// All cells are parsed spreadsheet-style (see [`CellValue::parse`]).
/// Ragged rows, unclosed quotes, and missing headers yield a positioned
/// [`CsvError`] naming the offending line.
///
/// The whole text is one chunk, so every unquoted field is borrowed
/// straight from `text` and cells are parsed into their columns without an
/// intermediate per-record `Vec<String>`.
pub fn parse_csv(text: &str) -> Result<Table, CsvError> {
    let _span = telemetry::span("ingest.parse_csv");
    let mut reader = CsvChunkReader::new();
    let rows = reader.push_str_cow(text)?;
    let tail = reader.finish()?;
    let header = reader.header.take().ok_or(CsvError {
        line: 1,
        kind: CsvErrorKind::MissingHeader,
    })?;
    let n_rows = rows.len() + tail.len();
    let mut cols: Vec<Vec<CellValue>> = vec![Vec::with_capacity(n_rows); header.len()];
    for row in &rows {
        for (c, field) in row.iter().enumerate() {
            cols[c].push(CellValue::parse(field));
        }
    }
    for row in &tail {
        for (c, field) in row.iter().enumerate() {
            cols[c].push(CellValue::parse(field));
        }
    }
    Ok(Table::new(
        header
            .into_iter()
            .zip(cols)
            .map(|(name, values)| Column::new(name, values))
            .collect(),
    ))
}

/// Renders a table to CSV text with a header row.
pub fn to_csv(table: &Table) -> String {
    let mut out = csv_header(table);
    append_csv_rows(&mut out, table, 0..table.n_rows());
    out
}

/// The table's header record as one CSV line (with trailing newline).
pub fn csv_header(table: &Table) -> String {
    let headers: Vec<String> = table.headers().iter().map(|h| quote(h)).collect();
    let mut out = headers.join(",");
    out.push('\n');
    out
}

/// Appends the CSV lines of `rows` to `out` (no header) — the streaming
/// emit primitive: a chunked cleaner writes the header once, then appends
/// each repaired chunk's rows as they complete.
pub fn append_csv_rows(out: &mut String, table: &Table, rows: Range<usize>) {
    for r in rows {
        let mut first = true;
        for c in table.columns() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&quote(&c.get(r).map(CellValue::render).unwrap_or_default()));
        }
        out.push('\n');
    }
}

fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Splits one record into unquoted field strings.
fn split_fields(record: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        match ch {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    fields.push(cur);
    fields
}

/// [`split_fields`] for the zero-copy path: fields without a quote are
/// returned as borrowed slices of `record`; quoted fields get the same
/// per-field unquoting as the owned splitter (each field's quote state
/// starts closed, because commas only split outside quotes).
fn split_fields_cow(record: &str) -> Vec<Cow<'_, str>> {
    let bytes = record.as_bytes();
    let mut fields = Vec::new();
    let mut start = 0;
    let mut has_quote = false;
    let mut in_quotes = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => {
                in_quotes = !in_quotes;
                has_quote = true;
            }
            b',' if !in_quotes => {
                fields.push(finish_field(&record[start..i], has_quote));
                has_quote = false;
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(finish_field(&record[start..], has_quote));
    fields
}

fn finish_field(raw: &str, has_quote: bool) -> Cow<'_, str> {
    if has_quote {
        Cow::Owned(unquote_field(raw))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Strips the quoting from one raw field, collapsing doubled quotes —
/// byte-for-byte the treatment a single field receives inside
/// [`split_fields`].
fn unquote_field(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        if ch == '"' {
            if in_quotes {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    out.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                in_quotes = true;
            }
        } else {
            out.push(ch);
        }
    }
    out
}

/// The pre-zero-copy char-at-a-time reader, retained verbatim as the
/// differential oracle: the `tests::oracle` proptests prove the borrowing
/// scanner byte-identical to it on every input they generate. Test-only
/// and not instrumented — telemetry counts only the live path.
#[cfg(test)]
mod reference {
    use super::{split_fields, CsvError, CsvErrorKind, Table};

    /// The old resumable chunk reader (owned `String` fields throughout).
    #[derive(Debug, Default)]
    pub struct CsvChunkReader {
        cur: String,
        in_quotes: bool,
        pending_cr: bool,
        utf8_carry: Vec<u8>,
        line: usize,
        record_line: usize,
        header: Option<Vec<String>>,
        n_rows: usize,
    }

    impl CsvChunkReader {
        /// A fresh oracle reader.
        pub fn new() -> CsvChunkReader {
            CsvChunkReader {
                line: 1,
                record_line: 1,
                ..CsvChunkReader::default()
            }
        }

        /// The header record, if one complete record has been read.
        pub fn header(&self) -> Option<&[String]> {
            self.header.as_deref()
        }

        /// Consumes one byte chunk (see the live reader's `push`).
        pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<String>>, CsvError> {
            let mut rows = Vec::new();
            let mut rest = chunk;
            while !self.utf8_carry.is_empty() && !rest.is_empty() {
                self.utf8_carry.push(rest[0]);
                rest = &rest[1..];
                match std::str::from_utf8(&self.utf8_carry) {
                    Ok(s) => {
                        let s = s.to_owned();
                        self.utf8_carry.clear();
                        rows.extend(self.push_str(&s)?);
                        break;
                    }
                    Err(e) if e.error_len().is_none() => continue,
                    Err(_) => {
                        return Err(self.error(CsvErrorKind::InvalidUtf8));
                    }
                }
            }
            match std::str::from_utf8(rest) {
                Ok(s) => rows.extend(self.push_str(s)?),
                Err(e) => {
                    let (valid, tail) = rest.split_at(e.valid_up_to());
                    if e.error_len().is_some() || tail.len() >= 4 {
                        return Err(self.error(CsvErrorKind::InvalidUtf8));
                    }
                    let valid = std::str::from_utf8(valid).expect("valid prefix");
                    rows.extend(self.push_str(valid)?);
                    self.utf8_carry.extend_from_slice(tail);
                }
            }
            Ok(rows)
        }

        /// Consumes one text chunk (see the live reader's `push_str`).
        pub fn push_str(&mut self, chunk: &str) -> Result<Vec<Vec<String>>, CsvError> {
            let mut rows = Vec::new();
            for ch in chunk.chars() {
                if self.pending_cr {
                    self.pending_cr = false;
                    if ch == '\n' {
                        self.end_record(&mut rows)?;
                        continue;
                    }
                    self.cur.push('\r');
                }
                match ch {
                    '"' => {
                        self.in_quotes = !self.in_quotes;
                        self.cur.push(ch);
                    }
                    '\n' if !self.in_quotes => self.end_record(&mut rows)?,
                    '\r' if !self.in_quotes => self.pending_cr = true,
                    '\n' => {
                        self.line += 1;
                        self.cur.push(ch);
                    }
                    _ => self.cur.push(ch),
                }
            }
            Ok(rows)
        }

        /// Flushes end-of-input state (see the live reader's `finish`).
        pub fn finish(&mut self) -> Result<Vec<Vec<String>>, CsvError> {
            if !self.utf8_carry.is_empty() {
                return Err(self.error(CsvErrorKind::InvalidUtf8));
            }
            if self.in_quotes {
                return Err(self.error(CsvErrorKind::UnclosedQuote));
            }
            if self.pending_cr {
                self.pending_cr = false;
                self.cur.push('\r');
            }
            let mut rows = Vec::new();
            if !self.cur.is_empty() {
                self.end_record(&mut rows)?;
            }
            Ok(rows)
        }

        fn end_record(&mut self, rows: &mut Vec<Vec<String>>) -> Result<(), CsvError> {
            let record = std::mem::take(&mut self.cur);
            let at_line = self.record_line;
            self.line += 1;
            self.record_line = self.line;
            let fields = split_fields(&record);
            match &self.header {
                None => self.header = Some(fields),
                Some(header) => {
                    if fields.len() != header.len() {
                        return Err(CsvError {
                            line: at_line,
                            kind: CsvErrorKind::Ragged {
                                expected: header.len(),
                                got: fields.len(),
                            },
                        });
                    }
                    self.n_rows += 1;
                    rows.push(fields);
                }
            }
            Ok(())
        }

        fn error(&self, kind: CsvErrorKind) -> CsvError {
            CsvError {
                line: self.record_line,
                kind,
            }
        }
    }

    /// Whole-text parse through the oracle reader.
    pub fn parse_csv(text: &str) -> Result<Table, CsvError> {
        let mut reader = CsvChunkReader::new();
        let mut rows = reader.push_str(text)?;
        rows.extend(reader.finish()?);
        let header = reader.header.ok_or(CsvError {
            line: 1,
            kind: CsvErrorKind::MissingHeader,
        })?;
        Ok(super::rows_to_table(&header, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let csv = "a,b\nx,1\ny,2\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(to_csv(&t), csv);
    }

    #[test]
    fn quoted_fields() {
        let csv = "a\n\"x,y\"\n\"he said \"\"hi\"\"\"\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.column(0).unwrap().get(0).unwrap().as_text(), Some("x,y"));
        assert_eq!(
            t.column(0).unwrap().get(1).unwrap().as_text(),
            Some("he said \"hi\"")
        );
    }

    #[test]
    fn quoted_newline() {
        let csv = "a\n\"x\ny\"\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.column(0).unwrap().get(0).unwrap().as_text(), Some("x\ny"));
    }

    #[test]
    fn ragged_rejected_with_line_number() {
        let err = parse_csv("a,b\nx,1\nx\ny,2\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(
            err.kind,
            CsvErrorKind::Ragged {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn ragged_line_number_skips_quoted_newlines() {
        // The quoted record spans physical lines 2-3; the ragged record
        // starts on line 4.
        let err = parse_csv("a,b\n\"x\ny\",1\nz\n").unwrap_err();
        assert_eq!(err.line, 4);
    }

    #[test]
    fn unclosed_quote_rejected() {
        let err = parse_csv("a\n\"x\n").unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::UnclosedQuote);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(parse_csv("").unwrap_err().kind, CsvErrorKind::MissingHeader);
    }

    #[test]
    fn numbers_parse_on_read() {
        let t = parse_csv("n\n42\n").unwrap();
        assert!(t.column(0).unwrap().get(0).unwrap().is_number());
    }

    #[test]
    fn quoting_special_chars_on_write() {
        let t = Table::new(vec![Column::from_texts("h", &["a,b", "q\"q"])]);
        let csv = to_csv(&t);
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
        let back = parse_csv(&csv).unwrap();
        assert_eq!(
            back.column(0).unwrap().get(0).unwrap().as_text(),
            Some("a,b")
        );
    }

    #[test]
    fn trailing_blank_rows_survive() {
        // The old reader popped *all* trailing empty records, losing the
        // final two rows of this single-column table.
        let csv = "h\nx\n\n\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert!(t.column(0).unwrap().get(1).unwrap().is_blank());
        assert!(t.column(0).unwrap().get(2).unwrap().is_blank());
        assert_eq!(to_csv(&t), csv);
    }

    #[test]
    fn final_newline_produces_no_phantom_row() {
        let with = parse_csv("h\nx\n").unwrap();
        let without = parse_csv("h\nx").unwrap();
        assert_eq!(with, without);
        assert_eq!(with.n_rows(), 1);
    }

    #[test]
    fn bare_cr_is_data_and_round_trips() {
        // A bare \r inside a cell must be quoted on write and preserved on
        // read; only \r\n is a line ending.
        let t = Table::new(vec![Column::from_texts("h", &["a\rb", "c"])]);
        let csv = to_csv(&t);
        assert!(csv.contains("\"a\rb\""));
        let back = parse_csv(&csv).unwrap();
        assert_eq!(
            back.column(0).unwrap().get(0).unwrap().as_text(),
            Some("a\rb")
        );
        assert_eq!(to_csv(&back), csv);
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let t = parse_csv("a,b\r\nx,1\r\ny,2\r\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column(0).unwrap().get(1).unwrap().as_text(), Some("y"));
        // A lone final \r (no \n) is data on the last record.
        let t = parse_csv("a\nx\r").unwrap();
        assert_eq!(t.column(0).unwrap().get(0).unwrap().as_text(), Some("x\r"));
    }

    #[test]
    fn chunk_reader_carries_state_across_boundaries() {
        let csv = "a,b\r\n\"x,\ny\",1\r\nz,2\n";
        let whole = parse_csv(csv).unwrap();
        // Split at every char boundary: identical table.
        for split in 0..=csv.len() {
            if !csv.is_char_boundary(split) {
                continue;
            }
            let mut reader = CsvChunkReader::new();
            let mut rows = reader.push_str(&csv[..split]).unwrap();
            rows.extend(reader.push_str(&csv[split..]).unwrap());
            rows.extend(reader.finish().unwrap());
            let t = rows_to_table(reader.header().unwrap(), &rows);
            assert_eq!(t, whole, "split at byte {split}");
        }
    }

    #[test]
    fn chunk_reader_reassembles_split_utf8() {
        let csv = "h\nnaïve—α\n".as_bytes();
        let whole = parse_csv(std::str::from_utf8(csv).unwrap()).unwrap();
        for split in 0..=csv.len() {
            let mut reader = CsvChunkReader::new();
            let mut rows = reader.push(&csv[..split]).unwrap();
            rows.extend(reader.push(&csv[split..]).unwrap());
            rows.extend(reader.finish().unwrap());
            let t = rows_to_table(reader.header().unwrap(), &rows);
            assert_eq!(t, whole, "split at byte {split}");
        }
    }

    #[test]
    fn invalid_utf8_is_positioned() {
        let mut reader = CsvChunkReader::new();
        let _ = reader.push(b"h\nok\n").unwrap();
        let err = reader.push(&[0xff, 0xfe]).unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::InvalidUtf8);
        assert_eq!(err.line, 3);
    }

    #[test]
    fn reader_yields_batches_per_chunk() {
        let mut reader = CsvChunkReader::new();
        let rows = reader.push_str("a,b\nx,1\ny,").unwrap();
        assert_eq!(rows, vec![vec!["x".to_string(), "1".to_string()]]);
        assert_eq!(reader.header().unwrap(), ["a", "b"]);
        let rows = reader.push_str("2\n").unwrap();
        assert_eq!(rows, vec![vec!["y".to_string(), "2".to_string()]]);
        assert_eq!(reader.finish().unwrap(), Vec::<Vec<String>>::new());
        assert!(reader.is_drained());
        assert_eq!(reader.n_rows(), 2);
    }

    /// The live readers against the char-at-a-time [`super::reference`]
    /// oracle, over the same generated grids as `tests/csv_roundtrip.rs`.
    mod oracle {
        use crate::{io, CsvChunkReader, Table};
        use proptest::prelude::*;

        /// One generated cell: blank, plain, quote-worthy, multi-line, numeric,
        /// spreadsheet-typed, or multi-byte.
        fn arb_field() -> impl Strategy<Value = String> {
            prop_oneof![
                Just(String::new()),
                "[a-z]{1,6}",
                "[A-Z0-9]{1,4}",
                Just(",".to_string()),
                Just("\"".to_string()),
                Just("a,b".to_string()),
                Just("he said \"\"hi\"\"".to_string()),
                Just("two\nlines".to_string()),
                Just("crlf\r\ninside".to_string()),
                Just("bare\rcr".to_string()),
                Just("tab\tand space ".to_string()),
                Just("naïve—α".to_string()),
                Just("42".to_string()),
                Just("-3.5".to_string()),
                Just("TRUE".to_string()),
                Just("#VALUE!".to_string()),
            ]
        }

        /// A rectangular field grid: 1–4 columns, up to ~6 rows (trailing rows may
        /// be all-blank — the regression the reader must not drop). The cell vector
        /// is truncated to a whole number of rows in `grid_to_table`.
        fn arb_grid() -> impl Strategy<Value = (usize, Vec<String>)> {
            (1usize..5, prop::collection::vec(arb_field(), 0..25))
        }

        fn grid_to_table(cols: usize, cells: &[String]) -> Table {
            let header: Vec<String> = (0..cols).map(|c| format!("col{c}")).collect();
            let n_rows = cells.len() / cols;
            let rows: Vec<Vec<String>> = cells[..cols * n_rows]
                .chunks(cols)
                .map(|r| r.to_vec())
                .collect();
            io::rows_to_table(&header, &rows)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn borrowing_path_split_at_every_offset_matches_oracle(grid in arb_grid()) {
                // The zero-copy API (`push_cow`, borrowed fields) against the
                // retained char-at-a-time oracle, at every chunk boundary.
                let (cols, cells) = grid;
                let csv = io::to_csv(&grid_to_table(cols, &cells));
                let bytes = csv.as_bytes();

                let mut oracle = io::reference::CsvChunkReader::new();
                let mut expected = oracle.push(bytes).expect("oracle parse");
                expected.extend(oracle.finish().expect("oracle finish"));

                for split in 0..=bytes.len() {
                    let mut reader = CsvChunkReader::new();
                    let mut rows: Vec<Vec<String>> = Vec::new();
                    for chunk in [&bytes[..split], &bytes[split..]] {
                        let cows = reader.push_cow(chunk).expect("borrowing push");
                        rows.extend(
                            cows.into_iter()
                                .map(|row| row.into_iter().map(|f| f.into_owned()).collect()),
                        );
                    }
                    rows.extend(reader.finish().expect("finish"));
                    prop_assert_eq!(&rows, &expected, "split at byte {} diverged from oracle", split);
                    prop_assert_eq!(reader.header(), oracle.header());
                }
            }

            #[test]
            fn whole_text_parse_matches_oracle(grid in arb_grid()) {
                let (cols, cells) = grid;
                let csv = io::to_csv(&grid_to_table(cols, &cells));
                let new = io::parse_csv(&csv).expect("live parse");
                let old = io::reference::parse_csv(&csv).expect("oracle parse");
                prop_assert_eq!(&new, &old, "zero-copy parse diverged from the oracle");
            }
        }

        /// Old-reader-vs-new over the committed corpus fixtures, whole-file and
        /// line-at-a-time chunked.
        #[test]
        fn fixture_files_parse_identically_old_vs_new() {
            let fixtures = [
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../tests/fixtures/cities.csv"
                ),
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../tests/fixtures/duplicates.csv"
                ),
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../tests/fixtures/players.csv"
                ),
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../tests/fixtures/quarters.csv"
                ),
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../crates/engine/tests/fixtures/players.csv"
                ),
            ];
            for path in fixtures {
                let text = std::fs::read_to_string(path).expect("fixture readable");
                let new = io::parse_csv(&text).expect("live parse");
                let old = io::reference::parse_csv(&text).expect("oracle parse");
                assert_eq!(new, old, "{path} parses differently old vs new");

                // Chunked at every line boundary, too.
                let mut reader = CsvChunkReader::new();
                let mut rows = Vec::new();
                for line in text.split_inclusive('\n') {
                    rows.extend(reader.push_str(line).expect("chunked push"));
                }
                rows.extend(reader.finish().expect("finish"));
                let header = reader.header().expect("header").to_vec();
                assert_eq!(
                    io::rows_to_table(&header, &rows),
                    new,
                    "{path} chunked parse diverged"
                );
            }
        }
    }
}
