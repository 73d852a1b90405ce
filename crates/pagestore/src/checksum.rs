//! 64-bit FNV-1a: the one checksum behind the WAL record headers, the
//! column segments and the server's wire frames. Every form hashes the
//! same byte sequence to the same sum, so a payload held in several
//! parts checks against a sum taken over its concatenation.

/// The FNV-1a64 offset basis: the sum of no bytes.
const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_INIT, bytes)
}

/// Continue the sum `hash` over `bytes`: `fnv1a64_extend(fnv1a64(a), b)`
/// is the sum of `a` followed by `b`.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
    hash
}

/// FNV-1a64 of the concatenation of `parts`, without materializing it.
pub fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .fold(FNV1A64_INIT, |hash, part| fnv1a64_extend(hash, part))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn parts_and_extend_hash_the_concatenation() {
        let whole = fnv1a64(b"header+payload");
        assert_eq!(fnv1a64_parts(&[b"header", b"+", b"payload"]), whole);
        assert_eq!(fnv1a64_extend(fnv1a64(b"header+"), b"payload"), whole);
        assert_eq!(fnv1a64_parts(&[]), fnv1a64(b""));
    }
}
