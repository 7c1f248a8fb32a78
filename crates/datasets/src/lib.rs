//! # pcr-datasets
//!
//! Synthetic stand-ins for the paper's four evaluation datasets (ImageNet,
//! HAM10000, Stanford Cars, CelebA-HQ-Smile). Each generator injects the
//! class-discriminative signal into a controlled spatial-frequency band so
//! that the coupling between JPEG scan groups and task accuracy — the
//! phenomenon the paper studies — is preserved without shipping the real
//! data. Label remapping reproduces the Cars coarsening experiments, and
//! the encode module materializes any dataset in both storage formats
//! under comparison.
//!
//! ```
//! use pcr_datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};
//!
//! // The dermatology stand-in (HAM10000-like) at unit-test scale.
//! let spec = DatasetSpec::ham10000_like(Scale::Tiny);
//! let ds = SyntheticDataset::generate(&spec);
//! assert_eq!(ds.train.len(), spec.train_images);
//!
//! // Encode as PCR: scan group 1 needs far fewer bytes than full quality.
//! let (pcr, _encode_secs) = to_pcr_dataset(&ds, 8);
//! let g1 = pcr.db.mean_image_bytes_at_group(1);
//! let full = pcr.db.mean_image_bytes_at_group(pcr.db.num_groups());
//! assert!(g1 * 2.0 < full, "group 1 {g1:.0}B vs full {full:.0}B");
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod encode;
pub mod generate;
pub mod labels;
pub mod spec;

pub use encode::{
    pack_to_container, test_progressive_jpegs, to_pcr_dataset, to_record_files, IMAGES_PER_RECORD,
    RECORDS_PER_SHARD,
};
pub use generate::{generate_image, Sample, SyntheticDataset};
pub use labels::LabelMap;
pub use spec::{DatasetSpec, Scale, SignalProfile};

/// The machine's cores: the worker count of every fan-out in this crate.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}
