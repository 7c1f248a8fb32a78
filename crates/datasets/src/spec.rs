//! Dataset specifications modeled on the paper's four evaluation datasets.
//!
//! Real ImageNet/HAM10000/Stanford-Cars/CelebA-HQ cannot ship with this
//! repository, so each dataset is replaced by a synthetic generator that
//! preserves the properties the experiments measure:
//!
//! * number of classes and task granularity (fine-grained vs binary),
//! * image resolution scale (HAM10000 has the largest images, CelebA-HQ is
//!   downscaled to a fixed training size),
//! * source JPEG quality (Table 1: ImageNet 91.7%, HAM 100%, Cars 83.8%,
//!   CelebA-HQ 75%),
//! * and — critically — *which spatial-frequency band carries the class
//!   signal*, which controls how much JPEG compression the task tolerates
//!   (the paper's Observations 2-3).

/// How much of the class-discriminative signal lives in low vs high spatial
/// frequencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalProfile {
    /// Amplitude of the low-frequency (long-wavelength) class pattern.
    pub low_freq: f64,
    /// Amplitude of the high-frequency class pattern.
    pub high_freq: f64,
    /// Wavelength range (pixels) of the high-frequency band. Shorter
    /// wavelengths die at earlier scans (DC-only scan 1 averages 8x8
    /// blocks; quantization clips the shortest first).
    pub high_wavelength: (f64, f64),
    /// Amplitude of unstructured per-pixel noise.
    pub noise: f64,
}

/// A synthetic dataset specification.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset display name.
    pub name: String,
    /// Number of classes of the *native* labeling.
    pub num_classes: usize,
    /// Training images to generate.
    pub train_images: usize,
    /// Test images to generate.
    pub test_images: usize,
    /// Mean image side length in pixels.
    pub mean_side: u32,
    /// Side-length jitter (uniform in `mean_side +- side_jitter`); 0 for
    /// fixed-size datasets like CelebA-HQ crops.
    pub side_jitter: u32,
    /// Source JPEG quality applied when the dataset is first encoded.
    pub jpeg_quality: u8,
    /// Where the class signal lives.
    pub signal: SignalProfile,
    /// Generator seed.
    pub seed: u64,
}

/// Overall experiment scale: how many images to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny (unit tests): tens of images.
    Tiny,
    /// Small (fast experiments): hundreds of images.
    Small,
    /// Full (headline experiments): low thousands of images.
    Full,
}

impl Scale {
    /// The scale named `tiny`, `small` or `full`; `None` for any other
    /// name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    fn train_count(self, full: usize) -> usize {
        match self {
            Scale::Tiny => (full / 50).clamp(24, 60),
            Scale::Small => (full / 8).clamp(80, 400),
            Scale::Full => full,
        }
    }

    fn test_count(self, full: usize) -> usize {
        (self.train_count(full) / 4).max(16)
    }
}

impl DatasetSpec {
    /// The paper dataset a short name stands for, at `scale`:
    /// `dermatology` (or `ham10000`, `ham`), `imagenet`, `cars`, or
    /// `celeba` (or `celebahq`). `None` for any other name.
    pub fn named(name: &str, scale: Scale) -> Option<Self> {
        match name {
            "dermatology" | "ham10000" | "ham" => Some(Self::ham10000_like(scale)),
            "imagenet" => Some(Self::imagenet_like(scale)),
            "cars" => Some(Self::cars_like(scale)),
            "celeba" | "celebahq" => Some(Self::celebahq_smile_like(scale)),
            _ => None,
        }
    }

    /// ImageNet-like: many classes, natural-image scale, quality ~92.
    /// Signal split between bands: moderately compression-tolerant, but
    /// scans 1-2 are not always sufficient (paper Fig. 4).
    pub fn imagenet_like(scale: Scale) -> Self {
        let full = 2000;
        Self {
            name: "ImageNet-like".into(),
            num_classes: 10,
            train_images: scale.train_count(full),
            test_images: scale.test_count(full),
            mean_side: 96,
            side_jitter: 32,
            jpeg_quality: 92,
            signal: SignalProfile { low_freq: 44.0, high_freq: 30.0, high_wavelength: (3.0, 8.0), noise: 10.0 },
            seed: 0x1A6E7,
        }
    }

    /// HAM10000-like: dermatoscopy; 7 classes; the *largest* images in the
    /// suite (most storage-bound); quality 100. Texture (mid/high
    /// frequency) matters but substantial low-frequency signal exists —
    /// ResNet tolerates scan 1, ShuffleNet wants scan 5 (paper Fig. 5).
    pub fn ham10000_like(scale: Scale) -> Self {
        let full = 1600;
        Self {
            name: "HAM10000-like".into(),
            num_classes: 7,
            train_images: scale.train_count(full),
            test_images: scale.test_count(full),
            mean_side: 160,
            side_jitter: 16,
            jpeg_quality: 100,
            signal: SignalProfile { low_freq: 34.0, high_freq: 30.0, high_wavelength: (2.0, 4.0), noise: 8.0 },
            seed: 0x4A43,
        }
    }

    /// Stanford-Cars-like: fine-grained classification; the class signal
    /// is dominated by high-frequency detail, so low scan groups hurt
    /// badly (paper Fig. 6 original task). The class count scales with the
    /// generated dataset size so there are enough examples per class to
    /// learn from (196 classes at full scale, as in the paper).
    pub fn cars_like(scale: Scale) -> Self {
        let full = 3200;
        let num_classes = match scale {
            Scale::Tiny => 8,
            Scale::Small => 32,
            Scale::Full => 196,
        };
        Self {
            name: "Cars-like".into(),
            num_classes,
            train_images: scale.train_count(full),
            test_images: scale.test_count(full),
            mean_side: 80,
            side_jitter: 24,
            jpeg_quality: 84,
            signal: SignalProfile { low_freq: 14.0, high_freq: 44.0, high_wavelength: (4.0, 9.0), noise: 8.0 },
            seed: 0xCA25,
        }
    }

    /// CelebAHQ-Smile-like: binary task on fixed-size crops; the smile
    /// attribute is a coarse shape — almost all signal is low-frequency, so
    /// even scan group 1 trains fine (paper Fig. 4c/d).
    pub fn celebahq_smile_like(scale: Scale) -> Self {
        let full = 2400;
        Self {
            name: "CelebAHQ-Smile-like".into(),
            num_classes: 2,
            train_images: scale.train_count(full),
            test_images: scale.test_count(full),
            mean_side: 64,
            side_jitter: 0,
            jpeg_quality: 75,
            signal: SignalProfile { low_freq: 50.0, high_freq: 6.0, high_wavelength: (2.0, 4.0), noise: 10.0 },
            seed: 0xCE1E,
        }
    }

    /// All four paper datasets at the given scale.
    pub fn paper_suite(scale: Scale) -> Vec<DatasetSpec> {
        vec![
            Self::imagenet_like(scale),
            Self::celebahq_smile_like(scale),
            Self::ham10000_like(scale),
            Self::cars_like(scale),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_with_their_aliases() {
        for scale in ["tiny", "small", "full"] {
            assert!(Scale::from_name(scale).is_some(), "{scale}");
        }
        assert_eq!(Scale::from_name("huge"), None);
        let at = |name| DatasetSpec::named(name, Scale::Tiny);
        assert_eq!(at("dermatology"), Some(DatasetSpec::ham10000_like(Scale::Tiny)));
        assert_eq!(at("ham"), at("ham10000"));
        assert_eq!(at("celeba"), Some(DatasetSpec::celebahq_smile_like(Scale::Tiny)));
        assert_eq!(at("celebahq"), at("celeba"));
        assert_eq!(at("imagenet"), Some(DatasetSpec::imagenet_like(Scale::Tiny)));
        assert_eq!(at("cars"), Some(DatasetSpec::cars_like(Scale::Tiny)));
        assert_eq!(at("mnist"), None);
    }

    #[test]
    fn scales_order_counts() {
        let t = DatasetSpec::imagenet_like(Scale::Tiny);
        let s = DatasetSpec::imagenet_like(Scale::Small);
        let f = DatasetSpec::imagenet_like(Scale::Full);
        assert!(t.train_images < s.train_images);
        assert!(s.train_images < f.train_images);
        assert!(t.test_images >= 16);
    }

    #[test]
    fn ham_has_largest_images() {
        let suite = DatasetSpec::paper_suite(Scale::Small);
        let ham = suite.iter().find(|d| d.name.starts_with("HAM")).unwrap();
        for d in &suite {
            assert!(ham.mean_side >= d.mean_side, "{} bigger than HAM", d.name);
        }
    }

    #[test]
    fn qualities_match_table1_ordering() {
        // HAM (100) > ImageNet (91.7) > Cars (83.8) > CelebA (75).
        let ham = DatasetSpec::ham10000_like(Scale::Tiny).jpeg_quality;
        let imn = DatasetSpec::imagenet_like(Scale::Tiny).jpeg_quality;
        let cars = DatasetSpec::cars_like(Scale::Tiny).jpeg_quality;
        let celeb = DatasetSpec::celebahq_smile_like(Scale::Tiny).jpeg_quality;
        assert!(ham > imn && imn > cars && cars > celeb);
        assert_eq!(ham, 100);
        assert_eq!(celeb, 75);
    }

    #[test]
    fn cars_is_finest_grained_and_most_high_freq() {
        let suite = DatasetSpec::paper_suite(Scale::Tiny);
        let cars = suite.iter().find(|d| d.name.starts_with("Cars")).unwrap();
        assert_eq!(cars.num_classes, 8); // tiny scale
        assert_eq!(DatasetSpec::cars_like(Scale::Full).num_classes, 196);
        for d in &suite {
            assert!(cars.signal.high_freq >= d.signal.high_freq);
        }
        let celeb = suite.iter().find(|d| d.name.starts_with("Celeb")).unwrap();
        assert_eq!(celeb.num_classes, 2);
        assert!(celeb.signal.low_freq / celeb.signal.high_freq > 4.0);
    }
}
