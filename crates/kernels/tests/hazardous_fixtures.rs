//! Alone in this binary because it fixes the pool width, which a process
//! does once: at any other width `Fixture_RACY_SUM` races for real (a launch
//! spreads its index range over the pool), and beside the crate's unit tests
//! the check below failed now and then.

#[test]
fn fixtures_validate_like_real_kernels() {
    // The fixtures are *hazardous*, not *wrong*: on the sequential
    // simulator their checksums still match the reference, which is
    // precisely why a sanitizer (and not checksum validation) is needed
    // to catch them.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    for k in kernels::sanitize::fixtures::all() {
        kernels::verify_variants(k.as_ref(), 512, 1e-10);
    }
}
