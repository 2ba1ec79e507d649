//! Property-based tests of the layout and allocation machinery, and the
//! descriptor decoder's panic freedom under hostile words.

use nvfi_compiler::alloc::{DramAllocator, ALIGN};
use nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY;
use nvfi_compiler::plan::{decode_words, encode_words};
use nvfi_compiler::surface;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig};
use nvfi_tensor::{Shape4, Tensor};
use proptest::prelude::*;

proptest! {
    /// Surface pack/unpack is a bijection on tensor contents for arbitrary
    /// (C, H, W), including ragged channel counts.
    #[test]
    fn surface_roundtrip(
        c in 1usize..20,
        h in 1usize..9,
        w in 1usize..9,
        seed in any::<u64>(),
    ) {
        let t = Tensor::from_fn(Shape4::new(1, c, h, w), |_, ci, hi, wi| {
            (seed.wrapping_mul(0x9E37_79B9)
                .wrapping_add((ci * 131 + hi * 31 + wi) as u64) % 255) as i8
        });
        let packed = surface::pack_surface(&t);
        prop_assert_eq!(packed.len(), surface::surface_bytes(c, h, w));
        let back = surface::unpack_surface(&packed, t.shape());
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    /// Padding lanes of the last channel block are always zero.
    #[test]
    fn surface_padding_is_zero(c in 1usize..16, h in 1usize..5, w in 1usize..5) {
        let t = Tensor::from_fn(Shape4::new(1, c, h, w), |_, ci, _, _| (ci as i8) + 1);
        let packed = surface::pack_surface(&t);
        let shape = t.shape();
        for hh in 0..h {
            for ww in 0..w {
                for lane in c..c.div_ceil(8) * 8 {
                    // Reconstruct the padded offset by hand: block of the
                    // lane, position within the word.
                    let base = surface::surface_offset(shape, (lane / 8) * 8, hh, ww)
                        - ((lane / 8) * 8) % 8;
                    prop_assert_eq!(packed[base + lane % 8], 0,
                        "lane {} at ({},{}) should be padding", lane, hh, ww);
                }
            }
        }
    }

    /// Weight pack/unpack is a bijection for arbitrary (K, C, R, S).
    #[test]
    fn weight_roundtrip(
        k in 1usize..18,
        c in 1usize..18,
        r in 1usize..4,
        s in 1usize..4,
        seed in any::<u64>(),
    ) {
        let t = Tensor::from_fn(Shape4::new(k, c, r, s), |ki, ci, ri, si| {
            (seed.wrapping_add((ki * 1009 + ci * 101 + ri * 11 + si) as u64) % 253) as i8
        });
        let packed = surface::pack_weights(&t);
        prop_assert_eq!(packed.len(), surface::weight_bytes(k, c, r, s));
        let back = surface::unpack_weights(&packed, t.shape());
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    /// Allocations never overlap and are always aligned, regardless of the
    /// request sequence.
    #[test]
    fn allocator_invariants(sizes in proptest::collection::vec(0u64..10_000, 1..40)) {
        let mut alloc = DramAllocator::new(1 << 24);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let addr = alloc.alloc(format!("r{i}"), size).unwrap();
            prop_assert_eq!(addr % ALIGN, 0);
            regions.push((addr, size));
        }
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                let (a, b) = (regions[i], regions[j]);
                prop_assert!(a.0 + a.1 <= b.0 || b.0 + b.1 <= a.0,
                    "overlap: {:?} vs {:?}", a, b);
            }
        }
        prop_assert!(alloc.used() <= 1 << 24);
    }
}

/// Plan words arrive from the wire (worker sessions, the server's audit
/// arbiter), so `decode_words` must reject hostile words, never panic on
/// them. Every word of an encoded ResNet plan is replaced in turn by a
/// sign-bit word (a negative requant multiplier), 63 (one past the largest
/// shift, and a kernel larger than the input) and 300 (a shift that would
/// alias to 44 if narrowed to `u8` first); each mutant must decode to `Ok`
/// or `Err`.
#[test]
fn decode_words_never_panics_on_mutated_plans() {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 8,
        test: 4,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, 3);
    let q = quantize(
        &fold_resnet(&net, 32),
        &data.train.images,
        &QuantConfig::default(),
    )
    .unwrap();
    let plan = nvfi_compiler::compile(&q, DEFAULT_DRAM_CAPACITY).unwrap();
    let words = encode_words(&plan);
    assert!(decode_words(&words).is_ok(), "the unmutated plan decodes");
    let mut panicked = Vec::new();
    let mut rejected = 0usize;
    for i in 0..words.len() {
        for value in [0x8000_0000u32, 63, 300] {
            let mut mutant = words.clone();
            mutant[i] = value;
            match std::panic::catch_unwind(|| decode_words(&mutant)) {
                Ok(Ok(_)) => {}
                Ok(Err(_)) => rejected += 1,
                Err(_) => panicked.push((i, value)),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "decode_words panicked on (word, value): {panicked:?}"
    );
    assert!(rejected > 0, "the sweep reached no validation at all");
}
