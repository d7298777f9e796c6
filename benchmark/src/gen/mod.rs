//! Seeded workload generators.
//!
//! The seed is a CLI argument and only this module sees it: the program
//! under test receives the generated transactions, never the seed. Every
//! generator is a pure function of `(seed, client, round)`, so the op
//! stream is the same however many rounds a time-boxed run gets through.

pub mod cep;
pub mod firing;
pub mod fraud;
pub mod ingest;

/// Seed used when none is given, by `run all --smoke`, and by the golden
/// file of `cep_shared`.
pub const DEFAULT_SEED: u64 = 1993;

/// SplitMix64. Hand-written so the op stream depends on nothing outside
/// this package (a change to the vendored `rand` shim must not move the
/// benchmark's inputs).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of one `(workload, client, round)` cell of a seed.
    pub fn for_round(seed: u64, workload: u64, client: u64, round: u64) -> Self {
        let mut rng = Rng(seed);
        for x in [workload, client, round] {
            rng.0 ^= x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical byte form of an op stream: its `Debug` rendering.
    fn bytes<T: std::fmt::Debug>(ops: &[T]) -> Vec<u8> {
        format!("{ops:?}").into_bytes()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = bytes(&fraud::round(7, 0, 3, &fraud::Shape::SMOKE));
        assert_eq!(a, bytes(&fraud::round(7, 0, 3, &fraud::Shape::SMOKE)));
        assert_ne!(a, bytes(&fraud::round(8, 0, 3, &fraud::Shape::SMOKE)));
        assert_ne!(a, bytes(&fraud::round(7, 1, 3, &fraud::Shape::SMOKE)));
        assert_ne!(a, bytes(&fraud::round(7, 0, 4, &fraud::Shape::SMOKE)));

        let a = bytes(&cep::round(7, 0, &cep::Shape::SMOKE));
        assert_eq!(a, bytes(&cep::round(7, 0, &cep::Shape::SMOKE)));
        assert_ne!(a, bytes(&cep::round(8, 0, &cep::Shape::SMOKE)));

        let a = bytes(&firing::round(7, 0, &firing::Shape::SMOKE));
        assert_eq!(a, bytes(&firing::round(7, 0, &firing::Shape::SMOKE)));
        assert_ne!(a, bytes(&firing::round(8, 0, &firing::Shape::SMOKE)));

        let gen = |seed| {
            let mut g = ingest::Generator::new(seed, ingest::Shape::SMOKE);
            let mut out = bytes(&g.populate());
            out.extend(bytes(&g.round(0)));
            out.extend(bytes(&g.round(1)));
            out
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn rng_cells_are_independent_of_each_other() {
        let mut a = Rng::for_round(1, 2, 0, 0);
        let mut b = Rng::for_round(1, 2, 0, 1);
        let mut c = Rng::for_round(1, 2, 1, 0);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert!(x != y && y != z && x != z);
        assert!((0..1000).all(|_| a.range(-3, 3).abs() <= 3));
    }
}
