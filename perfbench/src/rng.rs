//! Deterministic input generation: SplitMix64, seeded from `--seed`.

/// SplitMix64: tiny, fast and good enough for workload generation. The
/// same seed always yields the same sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// client, one for set-up).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform index into a slice of length `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A benign user string: lowercase words separated by spaces, the
    /// kind of text a web form submits. Never contains a quote, a
    /// comment marker or markup.
    pub fn words(&mut self, max_words: u64) -> String {
        const WORDS: [&str; 16] = [
            "alpha", "bravo", "delta", "north", "river", "stone", "maple", "cedar", "lunar",
            "amber", "quiet", "rapid", "solar", "frost", "ember", "ocean",
        ];
        let n = 1 + self.below(max_words);
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(WORDS[self.index(WORDS.len())]);
        }
        out
    }
}
