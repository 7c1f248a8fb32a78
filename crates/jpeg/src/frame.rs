//! Frame, component, and scan models plus dequantized coefficient storage.

use crate::error::{Error, Result};

/// Chroma subsampling mode for color encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsampling {
    /// 4:4:4 — chroma at full resolution.
    S444,
    /// 4:2:0 — chroma halved in both dimensions (the common default).
    S420,
}

/// One color component of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component identifier as written in SOF/SOS (1=Y, 2=Cb, 3=Cr here).
    pub id: u8,
    /// Horizontal sampling factor.
    pub h: u8,
    /// Vertical sampling factor.
    pub v: u8,
    /// Quantization table selector.
    pub tq: u8,
    /// Component sample width = ceil(img_w * h / hmax).
    pub width_px: u32,
    /// Component sample height = ceil(img_h * v / vmax).
    pub height_px: u32,
    /// Real block columns = ceil(width_px / 8) — non-interleaved scan width.
    pub blocks_w: u32,
    /// Real block rows = ceil(height_px / 8).
    pub blocks_h: u32,
    /// Allocated block columns, padded to an MCU multiple.
    pub alloc_w: u32,
    /// Allocated block rows, padded to an MCU multiple.
    pub alloc_h: u32,
}

/// A parsed or to-be-written frame header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// True for progressive (SOF2), false for baseline (SOF0).
    pub progressive: bool,
    /// The components in frame order.
    pub components: Vec<Component>,
    /// Maximum horizontal sampling factor.
    pub hmax: u8,
    /// Maximum vertical sampling factor.
    pub vmax: u8,
    /// MCU columns.
    pub mcus_x: u32,
    /// MCU rows.
    pub mcus_y: u32,
}

impl FrameInfo {
    /// Builds frame geometry for an encode.
    pub fn for_encode(
        width: u32,
        height: u32,
        channels: u8,
        subsampling: Subsampling,
        progressive: bool,
    ) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::BadDimensions { width, height });
        }
        let comps: Vec<(u8, u8, u8, u8)> = match (channels, subsampling) {
            (1, _) => vec![(1, 1, 1, 0)],
            (3, Subsampling::S444) => vec![(1, 1, 1, 0), (2, 1, 1, 1), (3, 1, 1, 1)],
            (3, Subsampling::S420) => vec![(1, 2, 2, 0), (2, 1, 1, 1), (3, 1, 1, 1)],
            _ => return Err(Error::BadInput(format!("unsupported channel count {channels}"))),
        };
        Self::from_components(width, height, progressive, comps)
    }

    /// Builds frame geometry from raw (id, h, v, tq) tuples (decoder path).
    pub fn from_components(
        width: u32,
        height: u32,
        progressive: bool,
        comps: Vec<(u8, u8, u8, u8)>,
    ) -> Result<Self> {
        // Pixel assembly handles grayscale (1) or YCbCr (3, plus an ignored
        // fourth); a 2-component frame has no colour model to convert.
        if !matches!(comps.len(), 1 | 3 | 4) {
            return Err(Error::UnsupportedFrame(format!("{} components", comps.len())));
        }
        // T.81 allows height 0 (defined later by a DNL marker); this
        // decoder does not, and an empty frame has no pixels to assemble.
        if width == 0 || height == 0 {
            return Err(Error::UnsupportedFrame(format!("{width}x{height} frame")));
        }
        // T.81 B.2.2: sampling factors are 1..=4. A zero factor gives its
        // component an empty block grid.
        let factor_ok = |f: u8| (1..=4).contains(&f);
        if !comps.iter().all(|c| factor_ok(c.1) && factor_ok(c.2)) {
            return Err(Error::UnsupportedFrame("bad sampling factors".into()));
        }
        let hmax = comps.iter().map(|c| c.1).max().unwrap();
        let vmax = comps.iter().map(|c| c.2).max().unwrap();
        // T.81 B.2.2: Tq selects one of four quantization tables. Pixel
        // reconstruction indexes the table array with it unchecked.
        if let Some(c) = comps.iter().find(|c| c.3 > 3) {
            return Err(Error::UnsupportedFrame(format!("quant table selector {}", c.3)));
        }
        let mcus_x = width.div_ceil(8 * u32::from(hmax));
        let mcus_y = height.div_ceil(8 * u32::from(vmax));
        let components = comps
            .into_iter()
            .map(|(id, h, v, tq)| {
                let width_px = (width * u32::from(h)).div_ceil(u32::from(hmax));
                let height_px = (height * u32::from(v)).div_ceil(u32::from(vmax));
                Component {
                    id,
                    h,
                    v,
                    tq,
                    width_px,
                    height_px,
                    blocks_w: width_px.div_ceil(8),
                    blocks_h: height_px.div_ceil(8),
                    alloc_w: mcus_x * u32::from(h),
                    alloc_h: mcus_y * u32::from(v),
                }
            })
            .collect();
        Ok(Self { width, height, progressive, components, hmax, vmax, mcus_x, mcus_y })
    }
}

/// Quantized DCT coefficients for every component, MCU-padded.
///
/// Each component stores `alloc_w * alloc_h` blocks of 64 `i16` values in
/// natural (row-major) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoeffPlanes {
    planes: Vec<Vec<i16>>,
}

impl CoeffPlanes {
    /// Allocates zeroed planes for the frame.
    pub fn new(frame: &FrameInfo) -> Self {
        Self::with_pool(frame, &mut Vec::new())
    }

    /// Builds zeroed planes for the frame, reusing buffer capacity from
    /// `pool` where available. The inverse of [`CoeffPlanes::recycle_into`];
    /// together they let a decode loop run without per-image coefficient
    /// allocations.
    pub fn with_pool(frame: &FrameInfo, pool: &mut Vec<Vec<i16>>) -> Self {
        let planes = frame
            .components
            .iter()
            .map(|c| {
                let need = c.alloc_w as usize * c.alloc_h as usize * 64;
                let mut buf = pool.pop().unwrap_or_default();
                buf.clear();
                buf.resize(need, 0);
                buf
            })
            .collect();
        Self { planes }
    }

    /// Returns the plane buffers to `pool` for reuse by a later
    /// [`CoeffPlanes::with_pool`].
    pub fn recycle_into(self, pool: &mut Vec<Vec<i16>>) {
        pool.extend(self.planes);
    }

    /// Immutable block at (component, block row, block col) — 64 coefficients
    /// in natural order.
    #[inline]
    pub fn block(&self, frame: &FrameInfo, comp: usize, row: u32, col: u32) -> &[i16] {
        let c = &frame.components[comp];
        let idx = (row as usize * c.alloc_w as usize + col as usize) * 64;
        &self.planes[comp][idx..idx + 64]
    }

    /// Mutable block accessor.
    #[inline]
    pub fn block_mut(&mut self, frame: &FrameInfo, comp: usize, row: u32, col: u32) -> &mut [i16] {
        let c = &frame.components[comp];
        let idx = (row as usize * c.alloc_w as usize + col as usize) * 64;
        &mut self.planes[comp][idx..idx + 64]
    }

    /// Raw plane for a component.
    pub fn plane(&self, comp: usize) -> &[i16] {
        &self.planes[comp]
    }

    /// Number of component planes.
    pub fn num_components(&self) -> usize {
        self.planes.len()
    }
}

/// One component's participation in a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanComponent {
    /// Index into `FrameInfo::components`.
    pub comp_index: usize,
    /// DC Huffman table selector.
    pub dc_table: u8,
    /// AC Huffman table selector.
    pub ac_table: u8,
}

/// A scan header: which components, spectral band, successive approximation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanInfo {
    /// Components participating (1 for non-interleaved AC scans).
    pub components: Vec<ScanComponent>,
    /// Spectral selection start (0 for DC scans).
    pub ss: u8,
    /// Spectral selection end (0 for DC scans, up to 63).
    pub se: u8,
    /// Successive approximation high bit (0 on first pass).
    pub ah: u8,
    /// Successive approximation low bit (point transform).
    pub al: u8,
}

impl ScanInfo {
    /// Validates the scan against T.81 rules for progressive mode.
    pub fn validate(&self, frame: &FrameInfo) -> Result<()> {
        if self.components.is_empty() || self.components.len() > 4 {
            return Err(Error::BadScan("bad component count".into()));
        }
        for sc in &self.components {
            if sc.comp_index >= frame.components.len() {
                return Err(Error::BadScan("component index out of range".into()));
            }
        }
        if self.se > 63 || self.ss > self.se {
            return Err(Error::BadScan(format!("bad spectral range {}..{}", self.ss, self.se)));
        }
        if frame.progressive {
            if self.ss == 0 && self.se != 0 {
                return Err(Error::BadScan("DC scan must have Se=0".into()));
            }
            if self.ss > 0 && self.components.len() != 1 {
                return Err(Error::BadScan("AC scans must be non-interleaved".into()));
            }
            if self.ah != 0 && self.ah != self.al + 1 {
                return Err(Error::BadScan("refinement must lower Al by exactly 1".into()));
            }
        } else if self.ss != 0 || self.se != 63 || self.ah != 0 || self.al != 0 {
            return Err(Error::BadScan("sequential scan must cover 0..63".into()));
        }
        Ok(())
    }

    /// True if this is a DC scan (spectral start 0).
    pub fn is_dc(&self) -> bool {
        self.ss == 0
    }

    /// True if this is a refinement pass (Ah > 0).
    pub fn is_refinement(&self) -> bool {
        self.ah != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_420() {
        let f = FrameInfo::for_encode(100, 60, 3, Subsampling::S420, false).unwrap();
        assert_eq!(f.hmax, 2);
        assert_eq!(f.mcus_x, 7); // ceil(100/16)
        assert_eq!(f.mcus_y, 4); // ceil(60/16)
        let y = &f.components[0];
        assert_eq!((y.width_px, y.height_px), (100, 60));
        assert_eq!((y.blocks_w, y.blocks_h), (13, 8));
        assert_eq!((y.alloc_w, y.alloc_h), (14, 8));
        let cb = &f.components[1];
        assert_eq!((cb.width_px, cb.height_px), (50, 30));
        assert_eq!((cb.blocks_w, cb.blocks_h), (7, 4));
        assert_eq!((cb.alloc_w, cb.alloc_h), (7, 4));
    }

    #[test]
    fn geometry_444_and_gray() {
        let f = FrameInfo::for_encode(17, 9, 3, Subsampling::S444, true).unwrap();
        for c in &f.components {
            assert_eq!((c.blocks_w, c.blocks_h), (3, 2));
            assert_eq!((c.alloc_w, c.alloc_h), (3, 2));
        }
        let g = FrameInfo::for_encode(8, 8, 1, Subsampling::S420, false).unwrap();
        assert_eq!(g.components.len(), 1);
        assert_eq!(g.components[0].blocks_w, 1);
    }

    #[test]
    fn coeff_planes_block_addressing() {
        let f = FrameInfo::for_encode(32, 32, 3, Subsampling::S420, false).unwrap();
        let mut cp = CoeffPlanes::new(&f);
        cp.block_mut(&f, 0, 1, 2)[5] = 42;
        assert_eq!(cp.block(&f, 0, 1, 2)[5], 42);
        assert_eq!(cp.block(&f, 0, 1, 1)[5], 0);
        assert_eq!(cp.num_components(), 3);
    }

    #[test]
    fn scan_validation() {
        let f = FrameInfo::for_encode(16, 16, 3, Subsampling::S420, true).unwrap();
        let dc = ScanInfo {
            components: (0..3)
                .map(|i| ScanComponent { comp_index: i, dc_table: 0, ac_table: 0 })
                .collect(),
            ss: 0,
            se: 0,
            ah: 0,
            al: 1,
        };
        dc.validate(&f).unwrap();
        let bad_ac_interleaved = ScanInfo { ss: 1, se: 5, ..dc.clone() };
        assert!(bad_ac_interleaved.validate(&f).is_err());
        let ac = ScanInfo {
            components: vec![ScanComponent { comp_index: 0, dc_table: 0, ac_table: 0 }],
            ss: 1,
            se: 5,
            ah: 0,
            al: 2,
        };
        ac.validate(&f).unwrap();
        let bad_refine = ScanInfo { ah: 3, al: 1, ..ac.clone() };
        assert!(bad_refine.validate(&f).is_err());
        let bad_range = ScanInfo { ss: 10, se: 5, ..ac };
        assert!(bad_range.validate(&f).is_err());
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(FrameInfo::for_encode(0, 10, 3, Subsampling::S420, false).is_err());
    }
}
