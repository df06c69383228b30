//! Inputs and set-up: everything a user pays before the first image is
//! compressed (dataset render, table design, artifact write), plus the
//! scalar oracle the output checks compare against.

use crate::stats::{fnv1a, median, FNV_OFFSET};
use deepn_codec::{Decoder, Encoder, QuantTablePair, RgbImage};
use deepn_core::{analyze_images, DeepnTableBuilder, PlmParams};
use deepn_dataset::{DatasetSpec, ImageSet};
use std::path::Path;
use std::time::Instant;

/// Side of the codec-large1024 images.
pub const LARGE_SIDE: usize = 1024;

/// Class recipes (indices into the ImageNet stand-in) rendered at
/// [`LARGE_SIDE`]: one low-, mid- and high-frequency class and one of the
/// high-frequency twins.
pub const LARGE_CLASSES: [usize; 4] = [0, 4, 6, 8];

/// Seconds spent in each set-up layer, one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset render (plus the large images when asked for).
    pub generate_s: f64,
    /// DCT band analysis of the train split.
    pub analysis_s: f64,
    /// PLM table design from the band statistics.
    pub design_s: f64,
    /// Tables artifact write.
    pub write_s: f64,
}

impl SetupTimes {
    /// Total set-up time of the codec side.
    pub fn total(&self) -> f64 {
        self.generate_s + self.analysis_s + self.design_s + self.write_s
    }
}

/// Generated inputs and designed tables.
#[derive(Debug)]
pub struct Inputs {
    /// The 840-image 32×32 ImageNet stand-in.
    pub dataset: ImageSet,
    /// The codec-large1024 images (empty unless asked for).
    pub large: Vec<RgbImage>,
    /// DeepN tables designed from the dataset's train split.
    pub tables: QuantTablePair,
}

/// The large-image recipe: the stand-in's class recipes at 1024×1024,
/// one image per chosen class.
pub fn large_spec() -> DatasetSpec {
    let standin = DatasetSpec::imagenet_standin();
    DatasetSpec {
        width: LARGE_SIDE,
        height: LARGE_SIDE,
        classes: LARGE_CLASSES
            .iter()
            .map(|&c| standin.classes[c].clone())
            .collect(),
        train_per_class: 1,
        test_per_class: 0,
    }
}

/// Renders the inputs from `seed`, designs the tables, and writes the
/// tables artifact to `tables_path`, timing each layer.
pub fn build(seed: u64, large: bool, tables_path: &Path) -> Result<(Inputs, SetupTimes), String> {
    let t = Instant::now();
    let dataset = ImageSet::generate(&DatasetSpec::imagenet_standin(), seed);
    let large = if large {
        ImageSet::generate(&large_spec(), seed).images().to_vec()
    } else {
        Vec::new()
    };
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let stats = analyze_images(dataset.train().0.iter(), 1).map_err(|e| e.to_string())?;
    let analysis_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tables = DeepnTableBuilder::new(PlmParams::paper())
        .build_from_stats(&stats)
        .map_err(|e| e.to_string())?;
    let design_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    deepn_store::save(&tables, tables_path).map_err(|e| e.to_string())?;
    let write_s = t.elapsed().as_secs_f64();

    let times = SetupTimes {
        generate_s,
        analysis_s,
        design_s,
        write_s,
    };
    Ok((
        Inputs {
            dataset,
            large,
            tables,
        },
        times,
    ))
}

/// Per-layer medians over several set-ups.
pub fn median_times(all: &[SetupTimes]) -> SetupTimes {
    let med = |f: fn(&SetupTimes) -> f64| {
        median(&all.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    SetupTimes {
        generate_s: med(|t| t.generate_s),
        analysis_s: med(|t| t.analysis_s),
        design_s: med(|t| t.design_s),
        write_s: med(|t| t.write_s),
    }
}

/// A digest of every generated input pixel: equal seeds give equal
/// digests, so any number can be traced back to the exact inputs.
pub fn input_digest(inputs: &Inputs) -> u64 {
    images_digest(inputs.dataset.images().iter().chain(&inputs.large))
}

/// FNV-1a over the pixels of `images`, in order.
fn images_digest<'a>(images: impl IntoIterator<Item = &'a RgbImage>) -> u64 {
    images
        .into_iter()
        .fold(FNV_OFFSET, |h, img| fnv1a(h, img.as_bytes()))
}

/// The scalar reference outputs for a set of images: JFIF bytes from the
/// encoder run under `deepn_parallel::run_sequential` (the byte-identity
/// contract's oracle) and the decode of those bytes.
#[derive(Debug)]
pub struct Oracle {
    /// Expected JFIF stream per image.
    pub encoded: Vec<Vec<u8>>,
    /// Expected decoded pixels per image.
    pub decoded: Vec<RgbImage>,
}

impl Oracle {
    /// Computes the oracle for `images` under `tables`.
    pub fn compute(images: &[RgbImage], tables: &QuantTablePair) -> Result<Oracle, String> {
        deepn_parallel::run_sequential(|| {
            let encoder = Encoder::with_tables(tables.clone());
            let decoder = Decoder::new();
            let mut encoded = Vec::with_capacity(images.len());
            let mut decoded = Vec::with_capacity(images.len());
            for img in images {
                let bytes = encoder.encode(img).map_err(|e| e.to_string())?;
                decoded.push(decoder.decode(&bytes).map_err(|e| e.to_string())?);
                encoded.push(bytes);
            }
            Ok(Oracle { encoded, decoded })
        })
    }

    /// Raw RGB bytes over compressed bytes, across every image.
    pub fn compression_ratio(&self) -> f64 {
        let raw: usize = self.decoded.iter().map(|i| i.as_bytes().len()).sum();
        let packed: usize = self.encoded.iter().map(Vec::len).sum();
        raw as f64 / packed as f64
    }

    /// Mean `(header, scan)` bytes per image, splitting each file at its
    /// SOS marker. `None` if a stream has no SOS (the checks fail first).
    pub fn header_scan_bytes(&self) -> Option<(f64, f64)> {
        let mut header = 0usize;
        let mut total = 0usize;
        for bytes in &self.encoded {
            header += sos_offset(bytes)?;
            total += bytes.len();
        }
        let n = self.encoded.len() as f64;
        Some((header as f64 / n, (total - header) as f64 / n))
    }
}

/// Offset of the SOS marker (`FF DA`) in a JFIF stream, found by walking
/// the marker segments after SOI.
pub fn sos_offset(bytes: &[u8]) -> Option<usize> {
    let mut i = 2;
    while i + 4 <= bytes.len() {
        if bytes[i] != 0xFF {
            return None;
        }
        if bytes[i + 1] == 0xDA {
            return Some(i);
        }
        let len = usize::from(u16::from_be_bytes([bytes[i + 2], bytes[i + 3]]));
        i += 2 + len;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(spec: &DatasetSpec, seed: u64) -> u64 {
        images_digest(ImageSet::generate(spec, seed).images())
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let standin = DatasetSpec::imagenet_standin();
        assert_eq!(digest_of(&standin, 7), digest_of(&standin, 7));
        assert_ne!(digest_of(&standin, 7), digest_of(&standin, 8));
    }

    #[test]
    fn large_images_follow_the_seed_too() {
        let spec = large_spec();
        assert_eq!(ImageSet::generate(&spec, 3).len(), LARGE_CLASSES.len());
        assert_eq!(digest_of(&spec, 3), digest_of(&spec, 3));
        assert_ne!(digest_of(&spec, 3), digest_of(&spec, 4));
    }

    #[test]
    fn sos_split_finds_the_scan() {
        let img = RgbImage::gradient(16, 16);
        let bytes = Encoder::with_quality(75).encode(&img).expect("encodes");
        let at = sos_offset(&bytes).expect("has SOS");
        assert_eq!(&bytes[at..at + 2], &[0xFF, 0xDA]);
        assert!(at > 100, "DQT and DHT precede the scan");
    }
}
