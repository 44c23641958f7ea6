//! Cosine similarity over q-gram multisets — the string measure the paper's
//! evaluation uses for `S^L` ("cosine similarity with q-grams" \[9\]).

use crate::LabelSimilarity;
use std::collections::{BTreeMap, HashMap};

/// Builds the q-gram multiset profile of `s`.
///
/// Following the q-gram literature the string is padded with `q - 1` copies
/// of `#` (prefix) and `$` (suffix) so that boundary characters contribute as
/// many grams as interior ones. Operates on `char`s, so multi-byte labels
/// (e.g. the paper's garbled `?????`) are handled correctly.
///
/// # Panics
///
/// Panics when `q == 0`; see [`crate::LabelsError::ZeroQ`] for the typed
/// counterpart used by validating callers.
pub fn qgram_profile(s: &str, q: usize) -> BTreeMap<Vec<char>, u32> {
    assert!(q >= 1, "q must be at least 1");
    let mut padded: Vec<char> = Vec::with_capacity(s.chars().count() + 2 * (q - 1));
    padded.extend(std::iter::repeat('#').take(q - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat('$').take(q - 1));
    let mut profile = BTreeMap::new();
    if padded.len() >= q {
        for w in padded.windows(q) {
            *profile.entry(w.to_vec()).or_insert(0) += 1;
        }
    }
    profile
}

/// Cosine similarity of the q-gram profiles of `a` and `b`.
///
/// Equal strings score exactly 1.0. Otherwise two empty profiles (only
/// possible at `q = 1`) score 1.0 and one empty profile scores 0.0. Two
/// strings that share no gram score `-0.0`: the dot product starts from
/// `-0.0`, the additive identity, and an empty sum keeps that sign.
pub fn qgram_cosine(a: &str, b: &str, q: usize) -> f64 {
    if a == b {
        return 1.0;
    }
    let pa = qgram_profile(a, q);
    let pb = qgram_profile(b, q);
    if pa.is_empty() || pb.is_empty() {
        return if pa.is_empty() && pb.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let dot = pa
        .iter()
        .filter_map(|(g, &ca)| pb.get(g).map(|&cb| ca as f64 * cb as f64))
        .fold(-0.0, |sum, x| sum + x);
    let na: f64 = pa.values().map(|&c| (c as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = pb.values().map(|&c| (c as f64).powi(2)).sum::<f64>().sqrt();
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// One label's q-gram profile as the matrix kernel joins it: `(gram id,
/// count)` runs sorted by id, and the Euclidean norm of the counts.
struct GramProfile {
    grams: Vec<(usize, u32)>,
    norm: f64,
}

impl GramProfile {
    /// The profile of `s` (`q >= 1`), padded exactly as [`qgram_profile`]
    /// pads it. Grams are interned in `ids` to dense ids in first-seen
    /// order; the map is only ever probed, never iterated, so the ids
    /// depend on the label order alone.
    fn new(s: &str, q: usize, ids: &mut HashMap<Vec<char>, usize>) -> Self {
        let padded: Vec<char> = std::iter::repeat('#')
            .take(q - 1)
            .chain(s.chars())
            .chain(std::iter::repeat('$').take(q - 1))
            .collect();
        let mut seen: Vec<usize> = padded
            .windows(q)
            .map(|w| match ids.get(w) {
                Some(&id) => id,
                None => {
                    let id = ids.len();
                    ids.insert(w.to_vec(), id);
                    id
                }
            })
            .collect();
        seen.sort_unstable();
        let mut grams: Vec<(usize, u32)> = Vec::new();
        for id in seen {
            match grams.last_mut() {
                Some((last, count)) if *last == id => *count += 1,
                _ => grams.push((id, 1)),
            }
        }
        let norm = grams
            .iter()
            .map(|&(_, c)| (c as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        GramProfile { grams, norm }
    }

    /// The same value as [`qgram_cosine`] on the two labels, for labels
    /// that are not equal strings. Counts are small integers, so the dot
    /// product and both squared norms are exact integers in `f64` whatever
    /// the summation order: the merge-join in id order yields the bits the
    /// `BTreeMap` walk yields, `-0.0` on no shared gram included.
    fn cosine(&self, other: &GramProfile) -> f64 {
        if self.grams.is_empty() || other.grams.is_empty() {
            return if self.grams.is_empty() && other.grams.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let (a, b) = (&self.grams, &other.grams);
        let (mut i, mut j) = (0, 0);
        let mut dot = -0.0;
        while i < a.len() && j < b.len() {
            let ((ga, ca), (gb, cb)) = (a[i], b[j]);
            if ga < gb {
                i += 1;
            } else if ga > gb {
                j += 1;
            } else {
                dot += ca as f64 * cb as f64;
                i += 1;
                j += 1;
            }
        }
        (dot / (self.norm * other.norm)).clamp(0.0, 1.0)
    }
}

/// A [`LabelSimilarity`] wrapper around [`qgram_cosine`] with a fixed `q`
/// (the customary `q = 3` by default).
#[derive(Debug, Clone, Copy)]
pub struct QgramCosine {
    /// Gram length.
    pub q: usize,
}

impl Default for QgramCosine {
    fn default() -> Self {
        QgramCosine { q: 3 }
    }
}

impl LabelSimilarity for QgramCosine {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        qgram_cosine(a, b, self.q)
    }

    /// Builds each label's profile once (|A| + |B| builds instead of
    /// 2·|A|·|B|) and fills each cell with a merge-join dot product,
    /// bit-identical to calling [`qgram_cosine`] per cell.
    fn similarity_matrix(&self, names_a: &[&str], names_b: &[&str]) -> Vec<f64> {
        if self.q == 0 {
            // Keep qgram_profile's panic contract cell for cell.
            return crate::cell_by_cell(self, names_a, names_b);
        }
        let mut ids = HashMap::new();
        let mut profile = |s: &&str| GramProfile::new(s, self.q, &mut ids);
        let profiles_a: Vec<GramProfile> = names_a.iter().map(&mut profile).collect();
        let profiles_b: Vec<GramProfile> = names_b.iter().map(&mut profile).collect();
        let mut data = Vec::with_capacity(names_a.len() * names_b.len());
        for (a, pa) in names_a.iter().zip(&profiles_a) {
            for (b, pb) in names_b.iter().zip(&profiles_b) {
                data.push(if a == b { 1.0 } else { pa.cosine(pb) });
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_have_similarity_one() {
        assert_eq!(qgram_cosine("Check Inventory", "Check Inventory", 3), 1.0);
        assert_eq!(qgram_cosine("", "", 3), 1.0);
    }

    #[test]
    fn disjoint_strings_have_similarity_zero() {
        assert_eq!(qgram_cosine("abc", "xyz", 3), 0.0);
    }

    #[test]
    fn similar_strings_score_between() {
        let s = qgram_cosine("Check Inventory", "Cheque Inventory", 3);
        assert!(s > 0.5 && s < 1.0, "got {s}");
    }

    #[test]
    fn symmetry() {
        let a = "Paid by Cash";
        let b = "Paid by Credit Card";
        assert!((qgram_cosine(a, b, 3) - qgram_cosine(b, a, 3)).abs() < 1e-15);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(qgram_cosine("", "a", 3), 0.0);
    }

    #[test]
    fn padding_makes_single_chars_comparable() {
        // With padding, "a" and "a" share grams even though |a| < q;
        // and "a" vs "b" share only padding-free grams -> low but defined.
        let same = qgram_cosine("a", "a", 3);
        assert_eq!(same, 1.0);
        let diff = qgram_cosine("a", "b", 3);
        assert!(diff < 1.0);
    }

    #[test]
    fn q1_reduces_to_character_cosine() {
        let s = qgram_cosine("ab", "ba", 1);
        assert!((s - 1.0).abs() < 1e-12); // same character multiset
    }

    #[test]
    fn unicode_labels() {
        let s = qgram_cosine("收货确认", "收货确认", 2);
        assert_eq!(s, 1.0);
        assert!(qgram_cosine("收货确认", "发货确认", 2) < 1.0);
    }

    #[test]
    fn profile_counts_multiplicity() {
        let p = qgram_profile("aaa", 2);
        // Padded: #aaa$ -> grams #a, aa, aa, a$
        assert_eq!(p[&vec!['a', 'a']], 2);
    }

    #[test]
    fn wrapper_uses_q3_by_default() {
        let m = QgramCosine::default();
        assert_eq!(m.q, 3);
        use crate::LabelSimilarity;
        assert_eq!(m.similarity("x", "x"), 1.0);
    }
}
