//! Pins the `datavinci-store/v1` bytes of analyses and session snapshots.
//!
//! For every column of every `tests/fixtures/*.csv` table, the encoded
//! [`ColumnAnalysis`](datavinci::core::ColumnAnalysis) and the table's
//! encoded session snapshot must hash to the digests below, and decoding
//! then re-encoding must give the same bytes. In-memory representation
//! changes (how the abstraction or the masked values are interned) must
//! not reach the store format; a deliberate format change bumps the store
//! version and re-pins these digests.

use std::path::Path;

use datavinci::core::persist::{
    decode_column_analysis, decode_snapshot, encode_column_analysis, encode_snapshot, Reader,
};
use datavinci::core::DataVinci;
use datavinci::table::io;

/// (fixture, column) → FNV-1a 64 of `encode_column_analysis`.
const ANALYSIS_DIGESTS: &[(&str, usize, u64)] = &[
    ("cities", 0, 0x95bb_bb98_3cd8_825c),
    ("cities", 1, 0x7f69_f56d_819a_48b2),
    ("duplicates", 0, 0xf003_576d_2a81_a9e6),
    ("duplicates", 1, 0xe6ae_d45c_fbb5_1f43),
    ("duplicates", 2, 0x9e2e_8905_2124_bd50),
    ("players", 0, 0xac49_6ab8_e2cf_bcc6),
    ("players", 1, 0xc762_09dd_d9dc_cf5b),
    ("quarters", 0, 0xcfe2_393a_e2b1_8319),
    ("quarters", 1, 0x45e2_cb16_201f_7d6d),
    ("quarters", 2, 0x88d0_6b1e_169a_e0ea),
];

/// fixture → FNV-1a 64 of `encode_snapshot` after every column is analyzed
/// and repaired through one session.
const SNAPSHOT_DIGESTS: &[(&str, u64)] = &[
    ("cities", 0x09c5_accf_643b_b18a),
    ("duplicates", 0x03d9_185c_44f1_02f0),
    ("players", 0x25b9_111b_503e_7b67),
    ("quarters", 0x0012_03d8_0b19_b5b2),
];

const FIXTURES: &[&str] = &["cities", "duplicates", "players", "quarters"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn store_bytes_match_pinned_digests_and_round_trip() {
    let mut analyses = Vec::new();
    let mut snapshots = Vec::new();
    for &fixture in FIXTURES {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{fixture}.csv"));
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let table = io::parse_csv(&text).expect("fixture must be rectangular CSV");
        let dv = DataVinci::new();
        let session = dv.session(&table);
        for col in 0..table.n_cols() {
            let analysis = dv.analyze_column_in(&session, col);
            let mut bytes = Vec::new();
            encode_column_analysis(&analysis, &mut bytes);
            let mut r = Reader::new(&bytes);
            let decoded = decode_column_analysis(&mut r).expect("decodes");
            assert!(r.is_empty(), "{fixture} column {col}: trailing bytes");
            let mut again = Vec::new();
            encode_column_analysis(&decoded, &mut again);
            assert!(again == bytes, "{fixture} column {col}: re-encode differs");
            analyses.push((fixture, col, fnv1a(&bytes)));
            dv.repair_analysis_in(&session, &analysis);
        }
        let mut bytes = Vec::new();
        encode_snapshot(&session.into_snapshot(), &mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = decode_snapshot(&mut r, dv.mask_cache()).expect("decodes");
        assert!(r.is_empty(), "{fixture} snapshot: trailing bytes");
        let mut again = Vec::new();
        encode_snapshot(&decoded, &mut again);
        assert!(again == bytes, "{fixture} snapshot: re-encode differs");
        snapshots.push((fixture, fnv1a(&bytes)));
    }
    assert_eq!(
        analyses, ANALYSIS_DIGESTS,
        "analysis bytes changed; computed {analyses:#x?}"
    );
    assert_eq!(
        snapshots, SNAPSHOT_DIGESTS,
        "snapshot bytes changed; computed {snapshots:#x?}"
    );
}
