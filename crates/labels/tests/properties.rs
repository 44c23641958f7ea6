//! Randomized property tests: every label similarity is symmetric, bounded
//! in [0, 1], and maximal on identical inputs, and the q-gram matrix kernel
//! returns the bits of the pairwise measure. Driven by the deterministic
//! `ems-rng` generator.

use ems_labels::{
    jaro, jaro_winkler, levenshtein, levenshtein_similarity, qgram_cosine, token_jaccard,
    LabelMatrix, QgramCosine,
};
use ems_rng::StdRng;

/// Printable labels incl. spaces, punctuation and some CJK, length 0..=12.
fn random_label(rng: &mut StdRng) -> String {
    const ASCII: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 &()+?";
    let len = rng.gen_range(0..=12usize);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.1) {
                // A CJK codepoint from the unified-ideograph block.
                char::from_u32(0x4E00 + rng.gen_range(0..0x2000u32)).unwrap_or('一')
            } else {
                ASCII[rng.gen_range(0..ASCII.len())] as char
            }
        })
        .collect()
}

#[test]
fn all_measures_bounded_and_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x1AB1);
    for _ in 0..256 {
        let a = random_label(&mut rng);
        let b = random_label(&mut rng);
        type Measure = fn(&str, &str) -> f64;
        let measures: [(&str, Measure); 4] = [
            ("qgram", |x, y| qgram_cosine(x, y, 3)),
            ("lev", levenshtein_similarity),
            ("jw", jaro_winkler),
            ("jaccard", token_jaccard),
        ];
        for (name, m) in measures {
            let ab = m(&a, &b);
            let ba = m(&b, &a);
            assert!((0.0..=1.0).contains(&ab), "{name}: {ab}");
            assert!((ab - ba).abs() < 1e-12, "{name} asymmetric: {ab} vs {ba}");
        }
    }
}

#[test]
fn identity_is_maximal() {
    let mut rng = StdRng::seed_from_u64(0x1AB2);
    for _ in 0..256 {
        let a = random_label(&mut rng);
        assert_eq!(qgram_cosine(&a, &a, 3), 1.0);
        assert_eq!(levenshtein_similarity(&a, &a), 1.0);
        assert_eq!(jaro(&a, &a), 1.0);
        assert_eq!(token_jaccard(&a, &a), 1.0);
    }
}

#[test]
fn levenshtein_triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(0x1AB3);
    for _ in 0..256 {
        let a = random_label(&mut rng);
        let b = random_label(&mut rng);
        let c = random_label(&mut rng);
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }
}

#[test]
fn levenshtein_zero_iff_equal() {
    let mut rng = StdRng::seed_from_u64(0x1AB4);
    for _ in 0..256 {
        let a = random_label(&mut rng);
        // Mix of independent pairs and forced-equal pairs.
        let b = if rng.gen_bool(0.2) {
            a.clone()
        } else {
            random_label(&mut rng)
        };
        assert_eq!(levenshtein(&a, &b) == 0, a == b);
    }
}

#[test]
fn levenshtein_bounded_by_longer_length() {
    let mut rng = StdRng::seed_from_u64(0x1AB5);
    for _ in 0..256 {
        let a = random_label(&mut rng);
        let b = random_label(&mut rng);
        let bound = a.chars().count().max(b.chars().count());
        assert!(levenshtein(&a, &b) <= bound);
    }
}

/// An alphabet for the matrix test: random labels, labels shorter than
/// `q`, and partial renames (one character replaced) of earlier labels.
fn matrix_alphabet(rng: &mut StdRng, q: usize, n: usize) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for _ in 0..n {
        let name = match rng.gen_range(0..3u32) {
            0 => random_label(rng),
            1 => random_label(rng)
                .chars()
                .take(rng.gen_range(0..q))
                .collect(),
            _ => match names.last() {
                Some(prev) if !prev.is_empty() => {
                    let mut chars: Vec<char> = prev.chars().collect();
                    let at = rng.gen_range(0..chars.len());
                    chars[at] = 'Z';
                    chars.into_iter().collect()
                }
                _ => random_label(rng),
            },
        };
        names.push(name);
    }
    names
}

#[test]
fn qgram_matrix_is_bit_identical_to_pairwise_cosine() {
    let mut rng = StdRng::seed_from_u64(0x1AB6);
    let (mut disjoint, mut partial) = (0usize, 0usize);
    for q in 1..=4usize {
        for _ in 0..24 {
            let a = matrix_alphabet(&mut rng, q, 14);
            let mut b = matrix_alphabet(&mut rng, q, 10);
            // Equal pairs: copy some of A's labels into B.
            for name in a.iter().step_by(3) {
                b.push(name.clone());
            }
            let m = LabelMatrix::compute(&a, &b, &QgramCosine { q });
            for (i, x) in a.iter().enumerate() {
                for (j, y) in b.iter().enumerate() {
                    let want = qgram_cosine(x, y, q);
                    assert_eq!(
                        m.get(i, j).to_bits(),
                        want.to_bits(),
                        "q={q} {x:?} vs {y:?}: matrix {} pairwise {want}",
                        m.get(i, j)
                    );
                    if want.to_bits() == (-0.0f64).to_bits() {
                        disjoint += 1;
                    } else if want > 0.0 && want < 1.0 {
                        partial += 1;
                    }
                }
            }
        }
    }
    assert!(disjoint > 0 && partial > 0, "{disjoint} / {partial}");

    // No shared gram: the empty dot product is -0.0 on both paths.
    let m = LabelMatrix::compute(&["abc"], &["xyz"], &QgramCosine { q: 3 });
    assert_eq!(m.get(0, 0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(qgram_cosine("abc", "xyz", 3).to_bits(), (-0.0f64).to_bits());
}
