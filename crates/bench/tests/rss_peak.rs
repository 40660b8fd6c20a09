//! `measure_peak` against a known transient allocation, in a test binary of
//! its own.
//!
//! `measure_peak` resets the process-wide `VmHWM` through
//! `/proc/self/clear_refs`.  In the library's test binary the giant-tree
//! tests call it from parallel threads of the same process, and a reset
//! landing between this allocation's drop and the `VmHWM` read zeroes the
//! delta.  Alone in its process, the test sees only its own resets.

use treelab_bench::rss::measure_peak;

#[test]
fn measure_peak_sees_a_large_transient_allocation() {
    const BIG: usize = 64 << 20; // 64 MiB, far above measurement noise
    let ((), delta) = measure_peak(|| {
        let v = vec![1u8; BIG];
        std::hint::black_box(&v);
    });
    if let Some(d) = delta {
        assert!(
            d >= (BIG / 2) as u64,
            "peak delta {d} missed a {BIG}-byte allocation"
        );
    }
}
