//! Failure injection for the PCR record format: corrupted and truncated
//! records must error cleanly, and valid prefixes must keep working even
//! when the suffix is garbage.

use pcr_core::{PcrRecord, PcrRecordBuilder, RecordFile, RecordFileBuilder, SampleMeta};
use pcr_jpeg::ImageBuf;

fn img(seed: u32) -> ImageBuf {
    let mut data = Vec::new();
    for y in 0..32u32 {
        for x in 0..32u32 {
            data.push(((x * 7 + y + seed * 13) % 256) as u8);
            data.push(((x + y * 2) % 256) as u8);
            data.push(((x * y + seed) % 256) as u8);
        }
    }
    ImageBuf::from_raw(32, 32, 3, data).unwrap()
}

fn record(n: usize) -> Vec<u8> {
    let mut b = PcrRecordBuilder::with_default_groups();
    for i in 0..n {
        b.add_image(SampleMeta { label: i as u32, id: format!("r{i}") }, &img(i as u32), 85)
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn every_truncation_parses_or_errors() {
    let bytes = record(3);
    for len in 0..bytes.len() {
        // Parse may succeed (prefix semantics) or fail (inside the index);
        // in either case decode attempts must not panic.
        if let Ok(rec) = PcrRecord::parse(&bytes[..len]) {
            let g = rec.available_groups();
            if g >= 1 {
                for i in 0..rec.num_images() {
                    rec.decode_image(i, g).expect("available group must decode");
                }
            }
        }
    }
}

#[test]
fn bit_flips_in_index_are_rejected_or_contained() {
    let bytes = record(2);
    let full = PcrRecord::parse(&bytes).unwrap();
    let index_end = full.offset_for_group(0);
    for pos in 4..index_end.min(120) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x55;
        // Must not panic; decode attempts on a successfully parsed record
        // may fail (Jpeg/Truncated errors) but also must not panic.
        if let Ok(rec) = PcrRecord::parse(&corrupt) {
            for g in 1..=rec.available_groups() {
                for i in 0..rec.num_images() {
                    let _ = rec.decode_image(i, g);
                }
            }
        }
    }
}

#[test]
fn flips_in_scan_data_do_not_break_other_images() {
    // Corrupt a byte inside image 1's scan-1 chunk; image 0 must still
    // decode at full quality (isolation between images' entropy data).
    let bytes = record(2);
    let rec = PcrRecord::parse(&bytes).unwrap();
    let good0 = rec.decode_image(0, 10).unwrap();
    // Find image 1's group-1 chunk region: after headers + image0's chunk.
    let headers_end = rec.offset_for_group(0);
    let group1_len = rec.offset_for_group(1) - headers_end;
    let mid_of_second = headers_end + group1_len * 3 / 4;
    let mut corrupt = bytes.clone();
    corrupt[mid_of_second] ^= 0xFF;
    let rec2 = PcrRecord::parse(&corrupt).unwrap();
    assert_eq!(rec2.decode_image(0, 10).unwrap(), good0);
}

#[test]
fn record_file_bitflips_always_detected() {
    let mut b = RecordFileBuilder::new();
    for i in 0..3 {
        b.add_image(SampleMeta { label: i, id: format!("x{i}") }, &img(i), 80).unwrap();
    }
    let bytes = b.build().unwrap();
    // The FNV checksum must catch any single-byte payload flip.
    for pos in (8..bytes.len() - 8).step_by(5) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        assert!(
            RecordFile::parse(&corrupt).is_err(),
            "flip at {pos} went undetected"
        );
    }
}

#[test]
fn wrong_magic_and_version_rejected() {
    let bytes = record(1);
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(PcrRecord::parse(&wrong_magic).is_err());
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xFF;
    assert!(PcrRecord::parse(&wrong_version).is_err());
}

#[test]
fn absurd_counts_do_not_allocate_unbounded() {
    // Claim 4 billion images in a 60-byte buffer: the reader must hit
    // Truncated long before allocating per-image state for them.
    let bytes = record(1);
    let mut evil = bytes[..60.min(bytes.len())].to_vec();
    evil[6] = 0xFF;
    evil[7] = 0xFF;
    evil[8] = 0xFF;
    evil[9] = 0xFF;
    assert!(PcrRecord::parse(&evil).is_err());
}

#[test]
fn record_file_absurd_counts_do_not_allocate_unbounded() {
    // Claim 4 billion entries in a 24-byte file: the parser must refuse
    // the count before it sizes an allocation by it.
    let mut evil = b"TREC".to_vec();
    evil.extend_from_slice(&[0xFF; 4]);
    evil.extend_from_slice(&[0; 16]);
    assert!(RecordFile::parse(&evil).is_err());
}
