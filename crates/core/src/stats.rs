//! Label-size accounting used by the experiment tables.

use std::fmt;

/// Summary statistics over a collection of per-node label sizes (in bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelStats {
    /// Number of labels measured.
    pub count: usize,
    /// Maximum label size in bits — the quantity the paper's bounds refer to.
    pub max_bits: usize,
    /// Mean label size in bits.
    pub mean_bits: f64,
    /// Total size of all labels in bits.
    pub total_bits: usize,
}

impl LabelStats {
    /// Computes statistics from an iterator of per-label bit sizes.
    ///
    /// Returns a zeroed record for an empty iterator.
    pub fn from_sizes<I: IntoIterator<Item = usize>>(sizes: I) -> Self {
        let mut count = 0usize;
        let mut max_bits = 0usize;
        let mut total_bits = 0usize;
        for s in sizes {
            count += 1;
            max_bits = max_bits.max(s);
            total_bits += s;
        }
        LabelStats {
            count,
            max_bits,
            mean_bits: if count == 0 {
                0.0
            } else {
                total_bits as f64 / count as f64
            },
            total_bits,
        }
    }

    /// Total size of all labels in bytes (rounded up per label set, not per
    /// label).
    pub fn total_bytes(&self) -> usize {
        self.total_bits.div_ceil(8)
    }
}

impl fmt::Display for LabelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} labels, max {} bits, mean {:.1} bits, total {} bytes",
            self.count,
            self.max_bits,
            self.mean_bits,
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sizes_basics() {
        let s = LabelStats::from_sizes([10usize, 20, 30]);
        assert_eq!(s.count, 3);
        assert_eq!(s.max_bits, 30);
        assert_eq!(s.total_bits, 60);
        assert!((s.mean_bits - 20.0).abs() < 1e-9);
        assert_eq!(s.total_bytes(), 8);
    }

    #[test]
    fn empty_is_zeroed() {
        let s = LabelStats::from_sizes(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.max_bits, 0);
        assert_eq!(s.mean_bits, 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = LabelStats::from_sizes([8usize, 16]);
        let text = s.to_string();
        assert!(text.contains("2 labels"));
        assert!(text.contains("max 16 bits"));
    }

    #[test]
    fn from_real_scheme() {
        use crate::DistanceScheme;
        let tree = treelab_tree::gen::random_tree(64, 1);
        let scheme = crate::naive::NaiveScheme::build(&tree);
        let stats = LabelStats::from_sizes(tree.nodes().map(|u| scheme.label_bits(u)));
        assert_eq!(stats.count, 64);
        assert_eq!(stats.max_bits, scheme.max_label_bits());
    }
}
