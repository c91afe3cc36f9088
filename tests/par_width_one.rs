//! At pool width 1 a Par variant *is* its Seq variant: every registry
//! kernel's `Base_Par` checksum has the same bits as `Base_Seq`, and
//! `RAJA_Par` the same bits as `RAJA_Seq`. The vendored pool then runs every
//! parallel call as one span inline on the caller, in index order, so not
//! even a floating-point reduction may be re-associated.
//!
//! One `#[test]` on purpose, in its own binary: the pool reads
//! `RAYON_NUM_THREADS` once, so the test pins it before the first parallel
//! call and no other test in this process may touch the pool first.

use kernels::{Tuning, VariantId};

#[test]
fn par_variants_at_width_one_are_their_seq_variants_bit_for_bit() {
    // Must precede the first parallel call: the pool reads it once.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    // `execute` panics, naming the kernel, if one lacks either variant.
    let tuning = Tuning::default();
    for k in kernels::registry() {
        let name = k.info().name;
        for (par, seq) in [
            (VariantId::BasePar, VariantId::BaseSeq),
            (VariantId::RajaPar, VariantId::RajaSeq),
        ] {
            let p = k.execute(par, 3000, 1, &tuning).checksum;
            let s = k.execute(seq, 3000, 1, &tuning).checksum;
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "{name}: {} checksum {p} != {} checksum {s}",
                par.name(),
                seq.name(),
            );
        }
    }
}
