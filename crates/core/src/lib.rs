//! # pcr-core
//!
//! Progressive Compressed Records (PCRs) — the storage format from
//! *"Progressive Compressed Records: Taking a Byte out of Deep Learning
//! Data"* (Kuchnik et al., VLDB 2021).
//!
//! A PCR record stores sample metadata ("scan group 0"), per-image JPEG
//! headers, and then *scan groups*: the scan-`g` deltas of every image in
//! the record stored contiguously. Reading the byte prefix up to the end of
//! group `g` yields every image at quality level `g` with purely sequential
//! I/O and zero space overhead versus a conventional record format.
//!
//! The crate also implements the baseline layout the paper compares
//! against (fixed-quality record files) so experiments can be run
//! head-to-head.
//!
//! ```
//! use pcr_core::{PcrRecordBuilder, PcrRecord, SampleMeta};
//! use pcr_jpeg::ImageBuf;
//!
//! let img = ImageBuf::from_raw(32, 32, 3, vec![200; 32 * 32 * 3]).unwrap();
//! let mut builder = PcrRecordBuilder::with_default_groups();
//! builder.add_image(SampleMeta { label: 1, id: "cat".into() }, &img, 85).unwrap();
//! let bytes = builder.build().unwrap();
//!
//! // A loader reads only the prefix needed for scan group 2:
//! let full = PcrRecord::parse(&bytes).unwrap();
//! let prefix = &bytes[..full.offset_for_group(2)];
//! let view = PcrRecord::parse(prefix).unwrap();
//! assert_eq!(view.available_groups(), 2);
//! let approx = view.decode_image(0, 2).unwrap();
//! assert_eq!(approx.width(), 32);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod baseline;
pub mod colfooter;
pub mod container;
pub mod dataset;
pub mod declog;
pub mod error;
pub mod record;
pub mod wire;

pub use baseline::{RecordFile, RecordFileBuilder};
pub use colfooter::{ColumnarIndex, COLUMNAR_VERSION};
pub use container::{
    write_container, ContainerManifest, PcrContainer, ShardIndex, ShardRecord, ShardStats,
    ShardSummary, CONTAINER_VERSION, CONTAINER_VERSION_ROWS,
};
pub use dataset::{MetaDb, PcrDataset, PcrDatasetBuilder, RecordMeta};
pub use declog::{
    DecisionLog, DecisionLogWriter, DecisionRecord, DECISION_LOG_FILE, DECLOG_VERSION,
};
pub use error::{Error, Result};
pub use record::{
    PcrRecord, PcrRecordBuilder, RecordScratch, SampleMeta, SampleMetaRef, DEFAULT_NUM_GROUPS,
};
