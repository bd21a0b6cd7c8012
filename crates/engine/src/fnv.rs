//! Crate-shared FNV-1a 64-bit hashing.
//!
//! One hash loop feeds two unrelated-looking consumers — the per-point
//! seed derivation in [`crate::queue`], and the content keys and record
//! checksums of [`crate::store`] — so the loop lives here once. FNV-1a is
//! deliberately simple and **non-cryptographic**: every consumer that
//! needs integrity pairs it with a semantic check (records store and
//! re-verify their canonical strings; the record reader bounds every
//! count it reads).

/// The standard FNV-1a 64-bit offset basis.
pub(crate) const FNV_BASIS: u64 = 0xcbf29ce484222325;

/// A streaming FNV-1a 64-bit hasher (allocation-free).
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher seeded with `basis` (usually [`FNV_BASIS`]).
    pub(crate) fn with_basis(basis: u64) -> Self {
        Self(basis)
    }

    /// Feeds bytes into the hash; order-sensitive, chunking-insensitive.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// The current hash value.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte string.
pub(crate) fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = Fnv1a64::with_basis(basis);
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b"", FNV_BASIS), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a", FNV_BASIS), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar", FNV_BASIS), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot_regardless_of_chunking() {
        let data = b"mode=both;sigma=0.05;";
        let mut h = Fnv1a64::with_basis(FNV_BASIS);
        for chunk in data.chunks(3) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(data, FNV_BASIS));
    }
}
