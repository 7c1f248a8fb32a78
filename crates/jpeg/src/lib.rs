//! # pcr-jpeg
//!
//! A from-scratch, pure-Rust JPEG codec built as the substrate for
//! Progressive Compressed Records (Kuchnik et al., VLDB 2021).
//!
//! Supported: 8-bit baseline (SOF0) and progressive (SOF2) Huffman coding,
//! grayscale and YCbCr with 4:4:4 / 4:2:0 subsampling, per-scan optimized
//! Huffman tables, the libjpeg default 10-scan progressive script, lossless
//! sequential<->progressive transcoding (the `jpegtran` role), scan-boundary
//! splitting, and decoding of *truncated* progressive streams — the
//! operation PCR partial reads depend on.
//!
//! ```
//! use pcr_jpeg::{encode, decode, EncodeConfig, ImageBuf};
//! use pcr_jpeg::scansplit::{split_scans, assemble_prefix};
//!
//! let img = ImageBuf::from_raw(32, 32, 3, vec![128; 32 * 32 * 3]).unwrap();
//! let progressive = encode(&img, &EncodeConfig::progressive(85)).unwrap();
//! let layout = split_scans(&progressive).unwrap();
//! // Render from only the first two scans:
//! let preview = assemble_prefix(&progressive, &layout, 2).unwrap();
//! let approx = decode(&preview).unwrap();
//! assert_eq!(approx.width(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod consts;
pub mod dct;
pub mod decoder;
pub mod dentropy;
pub mod encoder;
mod entropy;
pub mod error;
pub mod frame;
pub mod huffman;
pub mod image;
pub mod marker;
#[cfg(test)]
mod exactness_tests;
pub mod metrics_psnr;
#[cfg(test)]
pub(crate) mod reference;
#[cfg(test)]
pub(crate) mod reference_encoder;
pub mod sample;
pub mod scansplit;
pub mod transcode;

pub use decoder::{
    decode, decode_coeffs, decode_coeffs_observed, decode_prefixes_with, decode_with,
    DecodeObserver, DecodeScratch, DecodedCoeffs, NoopObserver,
};
pub use encoder::{default_progressive_script, encode, EncodeConfig};
pub use error::{Error, Result};
pub use frame::{CoeffPlanes, FrameInfo, ScanInfo, Subsampling};
pub use image::ImageBuf;
pub use metrics_psnr::psnr;
pub use scansplit::{assemble_prefix, scan_chunks, split_scans, ScanLayout};
pub use transcode::{to_progressive, to_sequential, transcode};
