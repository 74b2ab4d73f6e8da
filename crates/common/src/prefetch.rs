//! Software prefetch: the one place the workspace talks to the cache.
//!
//! Rocksteady's data path is a chain of dependent DRAM misses — hash
//! bucket, then the `LogRef` it holds, then the record's bytes (§3.1).
//! A loop that knows its next few addresses issues those misses early,
//! so they overlap with the work on the current item instead of
//! following it. A prefetch is a hint: it never faults, never changes
//! what a later load returns, and on a target without the instruction
//! it compiles to nothing — behaviour cannot depend on it.

/// Bytes per cache line on every target this workspace runs on.
const CACHE_LINE: usize = 64;

/// Asks for the cache line holding `*p` to be brought towards the core.
/// `p` is never dereferenced, so any address is allowed.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is architecturally a hint — it performs no
    // access that can fault, on any address, mapped or not — and SSE is
    // part of the x86-64 baseline, so the intrinsic is always available.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch`]es every cache line `bytes` overlaps.
#[inline]
pub fn prefetch_bytes(bytes: &[u8]) {
    for line in bytes.chunks(CACHE_LINE) {
        prefetch(line.as_ptr());
    }
    // The slice need not start on a line boundary, so its last stride
    // can spill onto one more line: the one its last byte sits on.
    if let Some(last) = bytes.last() {
        prefetch(last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hint has no observable effect; what can be tested is that every
    /// shape of argument is accepted, including the ones a load would
    /// fault on.
    #[test]
    fn any_address_and_any_slice_is_accepted() {
        prefetch(std::ptr::null::<u64>());
        prefetch(usize::MAX as *const u8);
        prefetch_bytes(&[]);
        let buf = vec![7u8; 1000];
        for start in [0, 1, 63, 64, 65] {
            for len in [0, 1, 63, 64, 65, 200] {
                prefetch_bytes(&buf[start..start + len]);
            }
        }
        assert!(buf.iter().all(|&b| b == 7));
    }
}
