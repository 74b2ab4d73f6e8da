//! CRC32C (Castagnoli) checksums for log-entry integrity.
//!
//! RAMCloud checksums every log entry so that replay (crash recovery and
//! migration both replay log records) can detect corruption; §4.5 calls
//! out checksum computation as part of the per-record migration cost.
//! Uses the x86 `crc32` instruction (SSE4.2, detected at runtime) when
//! available, falling back to a table-driven slice-by-8 implementation
//! built at compile time. Both compute the identical CRC32C value.
//!
//! An entry's checksum covers two discontiguous runs of its bytes: the
//! header up to the checksum field, then key and value. [`crc32c_of_parts`]
//! takes both as one stream: the header's tail bytes and the payload's
//! first bytes go through the instruction as one 8-byte word, so the seam
//! costs one step instead of one per tail byte, and the value is exactly
//! [`crc32c`] of the two runs concatenated.

/// The CRC32C (Castagnoli) generator polynomial, reflected.
const POLY: u32 = 0x82f6_3b78;

/// Eight 256-entry lookup tables for slice-by-8, computed at compile
/// time. `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]`
/// advances a byte through `k` additional zero bytes, which is what lets
/// the update loop fold eight input bytes per iteration instead of one.
/// The polynomial (and therefore every checksum value) is unchanged.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Computes the CRC32C of `data` in one shot.
///
/// # Examples
///
/// ```
/// use rocksteady_logstore::crc::crc32c;
/// // Standard test vector: CRC32C("123456789") = 0xE3069283.
/// assert_eq!(crc32c(b"123456789"), 0xE306_9283);
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    update(0xffff_ffff, data, &[]) ^ 0xffff_ffff
}

/// Computes the CRC32C of `a` followed by `b` as one stream, without
/// concatenating them: equal to `crc32c(&[a, b].concat())`.
///
/// # Examples
///
/// ```
/// use rocksteady_logstore::crc::{crc32c, crc32c_of_parts};
/// assert_eq!(crc32c_of_parts(b"12345", b"6789"), crc32c(b"123456789"));
/// ```
pub fn crc32c_of_parts(a: &[u8], b: &[u8]) -> u32 {
    update(0xffff_ffff, a, b) ^ 0xffff_ffff
}

fn update(state: u32, a: &[u8], b: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the sse4.2 feature check above guarantees the `crc32`
        // instructions used inside are supported.
        return unsafe { update_hw(state, a, b) };
    }
    update_sw(update_sw(state, a), b)
}

/// Hardware CRC32C of `a ‖ b` via the SSE4.2 `crc32` instruction (which
/// implements exactly the Castagnoli polynomial, including bit
/// reflection): `a`'s whole 8-byte words, then one word joining `a`'s
/// last `a.len() % 8` bytes to `b`'s first bytes, then `b`'s remaining
/// words and last bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(state: u32, a: &[u8], b: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut wide = u64::from(state);
    let mut words = a.chunks_exact(8);
    for word in &mut words {
        wide = _mm_crc32_u64(wide, le_u64(word));
    }
    let tail = words.remainder();
    let mut rest = b;
    if !tail.is_empty() {
        let need = 8 - tail.len();
        if let (Some(last), Some(first)) = (a.len().checked_sub(8), b.get(..8)) {
            // Two unaligned loads: `a`'s last 8 bytes shifted down to its
            // tail, `b`'s first 8 shifted up past it.
            let word = (le_u64(&a[last..]) >> (8 * need)) | (le_u64(first) << (8 * tail.len()));
            wide = _mm_crc32_u64(wide, word);
            rest = &b[need..];
        } else {
            for &byte in tail {
                wide = _mm_crc32_u8(wide as u32, byte).into();
            }
        }
    }
    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        wide = _mm_crc32_u64(wide, le_u64(word));
    }
    let mut state = wide as u32;
    for &byte in words.remainder() {
        state = _mm_crc32_u8(state, byte);
    }
    state
}

/// The 8 bytes `bytes` starts with, little-endian.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

fn update_sw(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Unwraps are fine: `chunks_exact(8)` always yields 8 bytes.
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ state;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xff) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // From RFC 3720 / common CRC32C test suites.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
    }

    /// Every split of every length up to 80 bytes, so every alignment
    /// of the seam and every short part: the one-stream value is the
    /// value of the concatenation, on the hardware path and on the
    /// table path alike.
    #[test]
    fn parts_equal_the_concatenation() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 31 + 7) as u8).collect();
        for a_len in 0..=40 {
            for b_len in 0..=40 {
                let (a, b) = (&data[..a_len], &data[a_len..a_len + b_len]);
                let whole = crc32c(&data[..a_len + b_len]);
                assert_eq!(crc32c_of_parts(a, b), whole, "{a_len} + {b_len}");
                let sw = update_sw(update_sw(0xffff_ffff, a), b) ^ 0xffff_ffff;
                assert_eq!(sw, whole, "table path, {a_len} + {b_len}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("sse4.2") {
                    // SAFETY: sse4.2 was detected just above.
                    let hw = unsafe { update_hw(0xffff_ffff, a, b) } ^ 0xffff_ffff;
                    assert_eq!(hw, whole, "hardware path, {a_len} + {b_len}");
                }
            }
        }
    }

    #[test]
    fn parts_of_a_mebibyte_equal_the_whole() {
        let data: Vec<u8> = (0..1u32 << 20).map(|i| (i ^ (i >> 9)) as u8).collect();
        let (a, b) = data.split_at(31);
        assert_eq!(crc32c_of_parts(a, b), crc32c(&data));
        let (a, b) = data.split_at((1 << 19) + 5);
        assert_eq!(crc32c_of_parts(a, b), crc32c(&data));
    }

    #[test]
    fn hardware_and_table_paths_agree() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1021] {
            let sw = update_sw(0xffff_ffff, &data[..len]) ^ 0xffff_ffff;
            assert_eq!(crc32c(&data[..len]), sw, "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = *b"some log entry payload bytes";
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            data[byte] ^= 0x10;
            assert_ne!(crc32c(&data), clean, "flip at byte {byte} undetected");
            data[byte] ^= 0x10;
        }
    }
}
