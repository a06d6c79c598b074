//! CRC-32/IEEE (the zlib/PNG polynomial), slicing-by-8: eight bytes per
//! step through eight 256-entry tables. Same polynomial and values as
//! the classic byte-at-a-time loop, so checksums written by either
//! verify under the other.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32/IEEE of `data` (reflected, init `0xFFFF_FFFF`, final xor
/// `0xFFFF_FFFF` — the classic zlib checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Streaming CRC-32/IEEE: feed any number of chunks, then
/// [`Crc32::finish`]. `crc32(a ++ b) == new().update(a).update(b)` —
/// used to checksum a section's frame and payload without
/// concatenating them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut chunks = data.chunks_exact(8);
        for b in &mut chunks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference the sliced loop must reproduce.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |c, &b| {
            TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    /// 1 KiB of deterministic, non-repeating bytes.
    fn sample() -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"");
        c.update(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        let data = sample();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                bytewise(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF,
                "length {len}"
            );
        }
    }

    #[test]
    fn sliced_streaming_matches_bytewise_at_every_split() {
        let data = sample();
        let expected = bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), expected, "split at {split}");
        }
    }
}
