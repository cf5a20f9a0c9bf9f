//! Property tests for the lossless CSV round trip and the chunk reader.
//!
//! Two invariants, over corpus-generated tables exercising blanks, commas,
//! quotes, embedded newlines, CRLF, bare `\r`, and multi-byte UTF-8:
//!
//! 1. **Round trip is a fixed point.** `parse_csv` normalizes cells
//!    spreadsheet-style (`"1.0"` becomes the number `1`), so one
//!    parse→render cycle may rewrite a cell — but a *second* cycle must
//!    reproduce the first's table exactly. For cells already in
//!    parse-normal form the very first cycle is the identity.
//! 2. **Chunking is invisible.** Splitting the serialized bytes at *every*
//!    offset (including mid-code-point) and feeding both halves through a
//!    [`CsvChunkReader`] yields exactly the whole-text parse.

use proptest::prelude::*;

use datavinci_table::{io, CsvChunkReader, Table};

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
/// is truncated to a whole number of rows in [`grid_to_table`].
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
    fn round_trip_is_a_fixed_point(grid in arb_grid()) {
        let (cols, cells) = grid;
        let t1 = grid_to_table(cols, &cells);
        // First cycle may normalize; it must at least parse cleanly.
        let t2 = io::parse_csv(&io::to_csv(&t1)).expect("rendered CSV reparses");
        // Second cycle must be the identity.
        let t3 = io::parse_csv(&io::to_csv(&t2)).expect("rendered CSV reparses");
        prop_assert_eq!(&t3, &t2, "parse∘render must reach a fixed point in one step");
        prop_assert_eq!(t2.n_rows(), t1.n_rows(), "no rows gained or lost");
        prop_assert_eq!(t2.n_cols(), t1.n_cols());
    }

    #[test]
    fn text_cells_round_trip_exactly(grid in arb_grid()) {
        // Restricted to cells that parse as text or blank (parse-normal for
        // this corpus): the first cycle is already the identity.
        let (cols, cells) = grid;
        let t1 = grid_to_table(cols, &cells);
        if t1
            .columns()
            .iter()
            .flat_map(|c| c.values())
            .all(|v| v.is_blank() || v.as_text().is_some())
        {
            let t2 = io::parse_csv(&io::to_csv(&t1)).expect("rendered CSV reparses");
            prop_assert_eq!(&t2, &t1, "text tables must round-trip losslessly");
        }
    }

    #[test]
    fn chunk_split_at_every_offset_is_invisible(grid in arb_grid()) {
        let (cols, cells) = grid;
        let t1 = grid_to_table(cols, &cells);
        let csv = io::to_csv(&t1);
        let whole = io::parse_csv(&csv).expect("rendered CSV reparses");
        let bytes = csv.as_bytes();
        for split in 0..=bytes.len() {
            let mut reader = CsvChunkReader::new();
            let mut rows = reader.push(&bytes[..split]).expect("first half");
            rows.extend(reader.push(&bytes[split..]).expect("second half"));
            rows.extend(reader.finish().expect("finish"));
            let header = reader.header().expect("header present").to_vec();
            let t = io::rows_to_table(&header, &rows);
            prop_assert_eq!(&t, &whole, "split at byte {} changed the parse", split);
        }
    }
}

/// A single-chunk parse of unquoted data must not allocate field copies:
/// every field comes back `Cow::Borrowed`.
#[test]
fn unquoted_fields_are_borrowed() {
    let csv = "a,b\nplain,42\nmore,text\n";
    let mut reader = CsvChunkReader::new();
    let rows = reader.push_str_cow(csv).expect("parse");
    assert_eq!(rows.len(), 2);
    for row in &rows {
        for field in row {
            assert!(
                matches!(field, std::borrow::Cow::Borrowed(_)),
                "unquoted field {field:?} should borrow from the chunk"
            );
        }
    }
    // Quoted fields are the ones that pay for a rewrite.
    let mut reader = CsvChunkReader::new();
    let rows = reader.push_str_cow("h\n\"q,uoted\"\n").expect("parse");
    assert!(matches!(rows[0][0], std::borrow::Cow::Owned(_)));
    assert_eq!(rows[0][0], "q,uoted");
}
